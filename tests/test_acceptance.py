"""Acceptance suite: twelve end-to-end criteria, one pass/fail line each.

Each test prints ``criterion NN: PASS/FAIL`` with a short diagnostic and
enforces both the numeric tolerance and the runtime budget.
"""

import importlib
import math
import time

import numpy as np

bl = importlib.import_module("qdesk.bell")
fk = importlib.import_module("qdesk.feynman_kac")
qmom = importlib.import_module("qdesk.moments")
qop = importlib.import_module("qdesk.operators")
ps = importlib.import_module("qdesk.phasespace")
qs = importlib.import_module("qdesk.spin")

TSIRELSON = 2 * math.sqrt(2)


def _report(num: int, ok: bool, budget: float, elapsed: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:02d}: {status} "
          f"({detail}; {elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} numeric check failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return qop.HermitianOperator((g + g.conj().T) / 2)


def test_criterion_01_kennard_saturation_and_covariance():
    t0 = time.perf_counter()
    spec = ps.GridSpec(n=512, length=32.0, hbar=1.0)
    psi = ps.gaussian_packet(spec, alpha2=1.0)
    _, vq = ps.position_moments(psi)
    _, vp = ps.momentum_moments(psi)
    prod_err = abs(math.sqrt(vq * vp) - spec.hbar / 2) / (spec.hbar / 2)
    chirped = ps.gaussian_packet(spec, alpha2=1.0, gamma=0.3)
    cov_err = abs(ps.pq_covariance(chirped) - 0.6)
    elapsed = time.perf_counter() - t0
    ok = prod_err < 1e-6 and cov_err < 1e-6
    _report(1, ok, 1.0, elapsed,
            f"sigma product rel err {prod_err:.2e}, cov err {cov_err:.2e}")


def test_criterion_02_robertson_schroedinger_fuzz():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240201)
    worst = math.inf
    for _ in range(200):
        dim = int(rng.integers(2, 7))
        w = bl.random_density(dim, rng)
        a, b = _random_hermitian(dim, rng), _random_hermitian(dim, rng)
        rep = qmom.moments(w, a, b)
        margin = rep.inin_lhs - rep.inin_rhs
        worst = min(worst, margin)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9
    _report(2, ok, 5.0, elapsed, f"worst margin {worst:.2e} over 200 triples")


def test_criterion_03_entropic_bound():
    t0 = time.perf_counter()
    spec = ps.GridSpec(n=256, length=24.0, hbar=1.0)
    rng = np.random.default_rng(3)
    q = spec.position_grid()
    env = np.exp(-q ** 2 / 8)
    worst = math.inf
    for _ in range(50):
        v = env * (rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
        v /= math.sqrt(np.sum(np.abs(v) ** 2) * spec.dq)
        res = ps.variance_from_entropic(ps.GridWavefunction(spec, v))
        worst = min(worst, res["entropy"] - res["bound"])
    gauss = ps.variance_from_entropic(ps.gaussian_packet(spec, alpha2=1.0))
    gauss_gap = abs(gauss["entropy"] - gauss["bound"])
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-4 and gauss_gap < 1e-3
    _report(3, ok, 10.0, elapsed,
            f"worst margin {worst:.2e}, Gaussian gap {gauss_gap:.2e}")


def test_criterion_04_feynman_kac_sandwich_and_mc():
    t0 = time.perf_counter()
    v = fk.Potential.polynomial([0.0, 0.0, 0.5])
    z_spec = fk.spectral_partition(v, 2.0)
    z_hi = fk.classical_partition(v, 2.0, 0.0, 1.0)
    z_lo = fk.classical_partition(v, 2.0, 2.0, 1.0)
    in_interval = 0.423476 <= z_spec <= 0.5 and z_lo <= z_spec <= z_hi
    hits = 0
    for seed in range(100):
        est, stderr = fk.fk_mc_partition(v, 2.0, m_slices=64,
                                         n_paths=100_000, seed=seed)
        if abs(est - z_spec) <= 3 * stderr:
            hits += 1
    elapsed = time.perf_counter() - t0
    ok = in_interval and hits >= 99
    _report(4, ok, 60.0, elapsed,
            f"spectral {z_spec:.6f} in [{z_lo:.6f}, {z_hi:.6f}], "
            f"{hits}/100 runs within 3 stderr")


def test_criterion_05_monotonicity_and_tau_star():
    t0 = time.perf_counter()
    harmonic = fk.Potential.polynomial([0.0, 0.0, 0.5])
    quartic = fk.Potential.polynomial([0.0, 0.0, 0.0, 0.0, 0.25])
    mono_h = fk.monotonicity_check(harmonic, 2.0)["strictly_decreasing"]
    mono_q = fk.monotonicity_check(quartic, 2.0)["strictly_decreasing"]
    z_spec = 1.0 / (2 * math.sinh(1.0))
    ts = fk.tau_star(harmonic, 2.0, z_target=z_spec)
    ts_err = abs(ts - 12.0 * math.log(math.sinh(1.0)))
    elapsed = time.perf_counter() - t0
    ok = mono_h and mono_q and ts_err < 1e-6
    _report(5, ok, 5.0, elapsed,
            f"monotone (harmonic={mono_h}, quartic={mono_q}), "
            f"tau* err {ts_err:.2e}")


def test_criterion_06_wigner_suite():
    t0 = time.perf_counter()
    spec = ps.GridSpec(n=256, length=24.0, hbar=1.0)
    psi = ps.gaussian_packet(spec, alpha2=1.0, gamma=0.2, q0=0.5, p0=-0.7)
    w = ps.wigner_transform(psi)
    cell_p = spec.dp / (2 * math.pi * spec.hbar)
    cell_q = spec.dq / (2 * math.pi * spec.hbar)
    marg_err = max(
        float(np.max(np.abs(np.sum(w.values, axis=0) * cell_p - psi.density()))),
        float(np.max(np.abs(np.sum(w.values, axis=1) * cell_q
                            - np.abs(ps.to_momentum(psi)) ** 2))))
    bound_ok = float(np.max(np.abs(w.values))) <= 2.0 + 1e-9

    q = spec.position_grid()
    vexc = q * np.exp(-q ** 2 / 2)
    vexc = vexc / math.sqrt(np.sum(np.abs(vexc) ** 2) * spec.dq)
    exc = ps.GridWavefunction(spec, vexc.astype(complex))
    wexc = ps.wigner_transform(exc)
    center_err = abs(wexc.values[spec.n // 2, spec.n // 2] + 2.0)
    husimi_min = float(np.min(
        ps.gauss_smooth(wexc, spec.hbar / 2, spec.hbar / 2).values))
    iso = ps.isometry_check(psi.kernel(), exc.kernel(), spec)["relative_error"]
    elapsed = time.perf_counter() - t0
    ok = (marg_err < 1e-6 and bound_ok and center_err < 1e-4
          and husimi_min >= -1e-8 and iso < 1e-6)
    _report(6, ok, 30.0, elapsed,
            f"marginal err {marg_err:.2e}, center err {center_err:.2e}, "
            f"husimi min {husimi_min:.2e}, isometry {iso:.2e}")


def test_criterion_07_entropy_triangle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        rep = bl.entropy_triangle(bl.random_density(4, rng))
        worst = max(worst,
                    abs(rep.s1 - rep.s2) - rep.s,
                    rep.s - rep.s1 - rep.s2)
    ln2 = math.log(2.0)
    bell_err = 0.0
    for w in bl.bell_states():
        rep = bl.entropy_triangle(w)
        bell_err = max(bell_err, abs(rep.s), abs(rep.s1 - ln2),
                       abs(rep.s2 - ln2), abs(rep.delta_s - 2 * ln2))
    singlet_rep = bl.entropy_triangle(bl.singlet())
    bell_err = max(bell_err, abs(singlet_rep.s), abs(singlet_rep.s1 - ln2),
                   abs(singlet_rep.s2 - ln2), abs(singlet_rep.delta_s - 2 * ln2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and bell_err < 1e-10
    _report(7, ok, 5.0, elapsed,
            f"worst triangle excess {worst:.2e}, Bell-state err {bell_err:.2e}")


def test_criterion_08_chsh():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    fig1_err = abs(bl.chsh_value(bl.singlet(), bl.fig1_config()) + TSIRELSON)
    residual = max(bl.chsh_operator(
        bl.CHSHConfig(unit(), unit(), unit(), unit()))[1]["identity_residual"]
        for _ in range(100))
    quantum_excess = max(
        abs(bl.chsh_value(bl.random_density(4, rng),
                          bl.CHSHConfig(unit(), unit(), unit(), unit())))
        - TSIRELSON for _ in range(1000))
    enum = bl.classical_chsh_enumeration()
    enum_ok = set(enum["attained_values"]) == {-2.0, 2.0}
    sep_excess = max(
        abs(bl.chsh_value(bl.random_separable(rng),
                          bl.CHSHConfig(unit(), unit(), unit(), unit())))
        - 2.0 for _ in range(200))
    elapsed = time.perf_counter() - t0
    ok = (fig1_err < 1e-12 and residual <= 1e-12
          and quantum_excess <= 1e-10 and enum_ok and sep_excess <= 1e-9)
    _report(8, ok, 10.0, elapsed,
            f"fig1 err {fig1_err:.2e}, K^2 residual {residual:.2e}, "
            f"Tsirelson excess {quantum_excess:.2e}, "
            f"separable excess {sep_excess:.2e}")


def test_criterion_09_mermin_square():
    t0 = time.perf_counter()
    _, residuals = bl.mermin_square()
    ident = max(residuals.values())
    full = bl.mermin_assignment_search()["satisfying_assignments"]
    control = bl.mermin_assignment_search(
        column_targets=(1, 1, None))["satisfying_assignments"]
    elapsed = time.perf_counter() - t0
    ok = ident < 1e-12 and full == 0 and control > 0
    _report(9, ok, 1.0, elapsed,
            f"identity residual {ident:.2e}, full search {full}, "
            f"5-constraint control {control}")


def test_criterion_10_hidden_variable_model():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    worst_sigma = 0.0
    for _ in range(50):
        a0 = float(rng.standard_normal())
        a_vec = rng.standard_normal(3)
        p = rng.standard_normal(3)
        p *= rng.random() / np.linalg.norm(p)
        obs = qs.SpinObservable(a0, a_vec)
        state = qs.BlochState(p)
        res = qs.hv_expectation(obs, state, n_samples=100_000,
                                seed=int(rng.integers(2 ** 31)))
        quantum = a0 + float(p @ a_vec)
        worst_sigma = max(worst_sigma,
                          abs(res["estimate"] - quantum) / res["stderr"])
    # spectral consistency: every sampled value is exactly an eigenvalue
    obs = qs.SpinObservable(0.3, np.array([1.0, -2.0, 0.5]))
    state = qs.BlochState(np.array([0.1, 0.2, -0.3]))
    eigs = set(obs.eigenvalues())
    omegas = qs.sample_sphere(100_000, seed=99)
    spectral_ok = all(
        qs.hv_value(obs, state, om) in eigs for om in omegas)
    boundary_ok = qs._sgn(0.0) == 1.0
    elapsed = time.perf_counter() - t0
    ok = worst_sigma <= 3.0 and spectral_ok and boundary_ok
    _report(10, ok, 30.0, elapsed,
            f"worst deviation {worst_sigma:.2f} sigma over 50 pairs, "
            f"spectral consistency {spectral_ok}, sgn(0)=+1 {boundary_ok}")


def test_criterion_11_gleason_additivity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for dim in (2, 3, 4):
        for _ in range(20):
            w = bl.random_density(dim, rng)
            basis = np.linalg.qr(rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim)))[0]
            projections = [np.outer(basis[:, k], basis[:, k].conj())
                           for k in range(dim)]
            worst = max(worst,
                        qop.gleason_additivity_check(w, projections)["residual"])
    sgn_measure = qs.SphereMeasureFn(lambda e: qs._sgn(e[2]))
    fit = qs.linear_fit_residual(sgn_measure)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and fit > 0.1
    _report(11, ok, 5.0, elapsed,
            f"additivity residual {worst:.2e}, sgn fit residual {fit:.3f}")


def test_criterion_12_free_particle_moments():
    t0 = time.perf_counter()
    spec = ps.GridSpec(n=512, length=32.0, hbar=1.0)
    mass = 1.0
    psi = ps.gaussian_packet(spec, alpha2=1.0, gamma=-0.3, p0=0.5)
    _, var_q0 = ps.position_moments(psi)
    mean_p0, var_p0 = ps.momentum_moments(psi)
    cov0 = ps.pq_covariance(psi)
    tc = mass * abs(cov0) / var_p0
    worst = 0.0
    for t in (0.0, tc / 2, tc, 2 * tc):
        phi = ps.evolve_free(psi, t, mass=mass)
        mq, vq = ps.position_moments(phi)
        _, vp = ps.momentum_moments(phi)
        cov = ps.pq_covariance(phi)
        worst = max(
            worst,
            abs(mq - mean_p0 * t / mass),
            abs(vp - var_p0),
            abs(cov - (cov0 + t * var_p0 / mass)),
            abs(vq - (var_q0 + 2 * t * cov0 / mass
                      + t * t * var_p0 / mass ** 2)))
    cov_before = ps.pq_covariance(ps.evolve_free(psi, 0.9 * tc, mass=mass))
    cov_after = ps.pq_covariance(ps.evolve_free(psi, 1.1 * tc, mass=mass))
    sign_change = cov_before < 0 < cov_after
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and sign_change
    _report(12, ok, 10.0, elapsed,
            f"worst moment err {worst:.2e}, covariance crosses zero at "
            f"t_c={tc:.4f}: {sign_change}")
