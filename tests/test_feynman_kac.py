"""Tests for the path-integral partition-function bounds and MC estimator."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesk.feynman_kac as fk
import qdesk.operators as ops
import qdesk.partition as pt
from qdesk.feynman_kac import (
    _bisection_schedule,
    _block_normals,
    _block_sampler,
    _levy_matrix,
    _serial_matmul,
    bound_check,
    fk_mc_partition,
    sample_bridge,
    sample_bridge_ensemble,
)
from qdesk.partition import (
    Potential,
    _boltzmann_sum,
    classical_partition,
    gauss_transform_potential,
    monotonicity_check,
    spectral_partition,
    tau_star,
)

HARMONIC = Potential.polynomial([0.0, 0.0, 0.5])
QUARTIC = Potential.polynomial([0.0, 0.0, 0.0, 0.0, 0.25])
ODD_QUARTIC = Potential.polynomial([0.1, 0.3, 0.5, -0.2, 0.25])
SPECTRAL_HARMONIC = 1.0 / (2 * math.sinh(1.0))  # beta = 2, hbar = omega = 1
LOG_SPECTRAL_HARMONIC = -math.log(2 * math.sinh(1.0))


class TestPotential:
    def test_rejects_empty_coefficients(self):
        # rejected when built, not at the first evaluation
        with pytest.raises(ValueError, match="at least one coefficient"):
            Potential.polynomial(())

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_coefficient(self, c):
        with pytest.raises(ValueError, match="all finite"):
            Potential((0.0, 0.0, 0.5, c))

    def test_polynomial_eval(self):
        assert HARMONIC(2.0) == 2.0
        assert np.allclose(HARMONIC(np.array([0.0, 1.0])), [0.0, 0.5])

    def test_derivative_polynomial(self):
        d = QUARTIC.derivative()
        assert abs(float(d(2.0)) - 8.0) < 1e-12

    def test_constant_derivative_is_zero(self):
        assert Potential.polynomial((3.0,)).derivative().coeffs == (0.0,)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_term_by_term_sum(self, seed):
        # v and v' against their terms c_i q^i and i c_i q^(i-1), added
        # exactly by math.fsum.  Horner's rule on degree d is off by at most
        # 2d roundings of 2^-53 of the sum of |terms|, and each term by two
        # or three: the tolerance 4 (d + 1) of them keeps a factor to spare
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-2, 3, seed + 3)
        c = (rng.standard_normal(seed + 3) * scales).tolist()
        v = Potential.polynomial(c)
        q = rng.uniform(-4.0, 4.0, 40)

        def v_terms(x):
            return [ci * x ** i for i, ci in enumerate(c)]

        def dv_terms(x):
            return [i * ci * x ** (i - 1) for i, ci in enumerate(c) if i]

        for f, terms_at in ((v, v_terms), (v.derivative(), dv_terms)):
            values = f(q)
            assert float(f(float(q[0]))) == values[0]
            for x, value in zip(q.tolist(), values.tolist()):
                terms = terms_at(x)
                tol = 4 * len(c) * 2.0 ** -53 * math.fsum(map(abs, terms))
                assert abs(value - math.fsum(terms)) <= tol


class TestGaussTransform:
    def test_harmonic_shift(self):
        # smoothing q^2/2 adds the constant s/2 with s = tau hbar^2/(12 m)
        vt = gauss_transform_potential(HARMONIC, tau=2.0, m=1.0)
        assert abs(float(vt(0.0)) - 2.0 / 24.0) < 1e-12
        assert abs(float(vt(1.0)) - (0.5 + 2.0 / 24.0)) < 1e-12

    def test_tau_zero_is_identity(self):
        assert gauss_transform_potential(HARMONIC, 0.0, 1.0) is HARMONIC

    @pytest.mark.parametrize("tau", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_nan_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be nonnegative"):
            gauss_transform_potential(HARMONIC, tau, 1.0)

    @pytest.mark.parametrize("tau, hbar, m", [
        (1.5, 1.0, 1.0), (0.2, 0.5, 2.0), (3.0, 2.0, 0.5), (8.0, 1.0, 0.25)])
    def test_matches_closed_forms(self, tau, hbar, m):
        # E[v(q + xi sqrt(s))] by hand from the Gaussian moments s, 3s^2, 15s^3
        s = tau * hbar ** 2 / (12 * m)
        q = np.linspace(-3, 3, 13)
        quartic = gauss_transform_potential(QUARTIC, tau, m, hbar)
        np.testing.assert_allclose(
            quartic(q), q ** 4 / 4 + 1.5 * s * q ** 2 + 0.75 * s ** 2,
            rtol=1e-13, atol=0)
        # q^6 - 2q^3 + q
        sextic = Potential.polynomial((0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 1.0))
        want = (q ** 6 + 15 * s * q ** 4 + 45 * s ** 2 * q ** 2 + 15 * s ** 3
                - 2 * q ** 3 - 6 * s * q + q)
        np.testing.assert_allclose(gauss_transform_potential(sextic, tau, m, hbar)(q),
                                   want, rtol=1e-12, atol=1e-12)


class TestClassicalPartition:
    def test_harmonic_closed_forms(self):
        # z(beta, tau) = (1/beta) e^{-beta tau/24} for v = q^2/2
        assert abs(math.exp(classical_partition(HARMONIC, 2.0, 0.0, 1.0)) - 0.5) < 1e-7
        expected = 0.5 * math.exp(-1.0 / 6.0)
        assert abs(math.exp(classical_partition(HARMONIC, 2.0, 2.0, 1.0))
                   - expected) < 1e-7

    def test_harmonic_lower_bound_when_cold(self):
        # ln z(beta, beta) = -(beta hbar omega)^2/24 - ln(beta hbar omega) at
        # beta = 200: -1671.96, where z itself is far under the float range
        want = -200.0 ** 2 / 24 - math.log(200.0)
        assert abs(classical_partition(HARMONIC, 200.0, 200.0, 1.0) - want) <= 1e-12

    def test_divergent_potential_raises(self):
        v = Potential.polynomial([0.0, 0.0, -1.0])
        with pytest.raises(ValueError, match="divergent"):
            classical_partition(v, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("beta,m,hbar,name", [
        (math.nan, 1.0, 1.0, "beta"), (math.inf, 1.0, 1.0, "beta"),
        (2.0, math.inf, 1.0, "m"), (2.0, math.nan, 1.0, "m"),
        (2.0, 1.0, math.nan, "hbar"), (2.0, 1.0, math.inf, "hbar")])
    def test_rejects_non_finite_parameters(self, beta, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            classical_partition(HARMONIC, beta, 0.0, m, hbar)

    def test_values_under_the_float_range(self):
        # ln z = -beta c - ln beta for c + q^2/2: z is subnormal at c = 361
        # and under the float range at c = 1000
        for c in (361.0, 1000.0):
            log_z = classical_partition(Potential.polynomial((c, 0.0, 0.5)),
                                        2.0, 0.0, 1.0)
            assert abs(log_z - (-2 * c - math.log(2.0))) <= 1e-12

    def test_values_over_the_float_range(self):
        # e^{2000}/2 has no float value, its log has: no error, no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_z = classical_partition(Potential.polynomial((-1000.0, 0.0, 0.5)),
                                        2.0, 0.0, 1.0)
        assert abs(log_z - (2000.0 - math.log(2.0))) <= 1e-12

    @pytest.mark.parametrize("c, hbar", [(-357.5, 1.0), (-354.75, 0.25)])
    def test_values_past_the_largest_float(self, c, hbar):
        # c + q^2/2 at beta = 2, omega = m = 1: ln z(beta, tau) = -beta c -
        # ln(beta hbar) - beta tau hbar^2/24 and ln tr e^{-beta H} = -beta c -
        # ln(2 sinh(beta hbar/2)).  At c = -357.5 min beta v_tau ~ -715 is
        # past ln(float max) = 709.78; at c = -354.75 it is -709.5, and
        # z ~ 2 e^{709.5} would overflow in the sum.  No overflow warning
        v = Potential.polynomial((c, 0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            upper = classical_partition(v, 2.0, 0.0, 1.0, hbar)
            lower = classical_partition(v, 2.0, 2.0, 1.0, hbar)
            log_z, _ = spectral_partition(v, 2.0, hbar=hbar)
        assert abs(upper - (-2 * c - math.log(2 * hbar))) <= 1e-12
        assert abs(lower - (-2 * c - math.log(2 * hbar) - hbar ** 2 / 6)) <= 1e-12
        assert abs(log_z - (-2 * c - math.log(2 * math.sinh(hbar)))) <= 1e-10

    def test_values_near_the_top_of_the_float_range(self):
        # c + q^2/2 at beta = 2: z(beta, 0) = e^{-2c}/2, z(beta, beta) =
        # e^{-2c - 1/6}/2 (s = 1/6) and tr e^{-beta H} = e^{-2c}/(2 sinh 1).
        # At c = -354.8 the integrand would peak at e^{709.6} ~ 1.5e308
        for c in (-350.0, -354.8):
            v = Potential.polynomial((c, 0.0, 0.5))
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                upper = classical_partition(v, 2.0, 0.0, 1.0)
                lower = classical_partition(v, 2.0, 2.0, 1.0)
                log_z, _ = spectral_partition(v, 2.0)
            assert abs(upper - (-2 * c - math.log(2.0))) <= 1e-12
            assert abs(lower - (-2 * c - 1 / 6 - math.log(2.0))) <= 1e-12
            assert abs(log_z - (-2 * c + LOG_SPECTRAL_HARMONIC)) <= 1e-10

    @pytest.mark.parametrize("beta_c", [600, 700, 708, 714, 718, 722])
    def test_values_across_the_bottom_of_the_float_range(self, beta_c):
        # c + q^2/2 at beta = 2: z(beta, 0) = e^{-beta c}/beta, z(beta, beta)
        # = e^{-beta (c + s/2)}/beta with s = beta/12, and tr e^{-beta H} =
        # e^{-beta c}/(2 sinh 1).  Each sum is taken from its own peak, so
        # its log keeps its precision where the value would be subnormal
        v = Potential.polynomial((beta_c / 2, 0.0, 0.5))
        for tau, want in [(0.0, -beta_c - math.log(2.0)),
                          (2.0, -(beta_c + 1 / 6) - math.log(2.0))]:
            assert abs(classical_partition(v, 2.0, tau, 1.0) - want) <= 1e-12
        log_z, _ = spectral_partition(v, 2.0)
        assert abs(log_z - (-beta_c + LOG_SPECTRAL_HARMONIC)) <= 1e-10

    @pytest.mark.parametrize("c", [0.0, 400.0])
    def test_constant_potential_diverges(self, c):
        # e^{-beta c} int dq is infinite at any level c
        v = Potential.polynomial((c,))
        for run in (lambda: classical_partition(v, 2.0, 0.0, 1.0),
                    lambda: monotonicity_check(v, 2.0),
                    lambda: bound_check(v, 2.0, n_paths=100)):
            with pytest.raises(ValueError, match="divergent"):
                run()


class TestConstantOffset:
    """Adding c to v scales every estimate by e^{-beta c}, and moves its log
    by -beta c: the boxes and grids are measured from v(0), not from
    v = 0."""

    @pytest.mark.parametrize("hbar", [1.0, 0.1])
    @pytest.mark.parametrize("c", [-20.0, 20.0, 300.0])
    def test_offset_scales_every_estimate(self, c, hbar):
        shifted = Potential.polynomial((c,) + QUARTIC.coeffs[1:])
        (z0, grid0), (z, grid) = (spectral_partition(v, 2.0, hbar=hbar)
                                  for v in (QUARTIC, shifted))
        assert grid == grid0
        assert abs(math.expm1(z + 2.0 * c - z0)) <= 1e-11
        for tau in (0.0, 1.0, 2.0):
            a, b = (classical_partition(v, 2.0, tau, 1.0, hbar) for v in (QUARTIC, shifted))
            assert abs(math.expm1(b + 2.0 * c - a)) <= 1e-12
        (e0, s0), (e, s) = (fk_mc_partition(v, 2.0, hbar=hbar, n_paths=2_000, seed=1)
                            for v in (QUARTIC, shifted))
        assert abs(math.expm1(e + 2.0 * c - e0)) <= 1e-12
        assert abs(s / s0 - 1) <= 1e-12


class TestSpectralReference:
    def test_harmonic_value(self):
        log_z, _ = spectral_partition(HARMONIC, 2.0)
        assert abs(math.exp(log_z) - SPECTRAL_HARMONIC) < 1e-10

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mass", [0.5, 2.0])
    def test_harmonic_value_across_units(self, hbar, mass):
        # omega = 1/sqrt(m) for v = q^2/2
        exact = 1.0 / (2 * math.sinh(2.0 * hbar / (2 * math.sqrt(mass))))
        log_z, _ = spectral_partition(HARMONIC, 2.0, m=mass, hbar=hbar)
        assert abs(math.exp(log_z) - exact) < 1e-10 * exact
        rep = bound_check(HARMONIC, 2.0, m=mass, hbar=hbar, n_paths=2_000)
        assert abs(rep.spectral_reference - exact) < 1e-10 * exact

    def test_sandwich(self):
        log_z, _ = spectral_partition(HARMONIC, 2.0)
        lo = classical_partition(HARMONIC, 2.0, 2.0, 1.0)
        hi = classical_partition(HARMONIC, 2.0, 0.0, 1.0)
        assert lo <= log_z <= hi

    def test_bound_check_reports_the_grid(self):
        rep = bound_check(HARMONIC, 2.0, hbar=0.5, n_paths=2_000)
        grid = rep.to_json()["spectral_grid"]
        assert set(grid) == {"n", "length", "dq", "cutoff_exponent"}
        assert 64 <= grid["n"] <= 4096 and grid["dq"] == grid["length"] / grid["n"]
        # beta (pi hbar/dq)^2/2m with beta = 2, hbar = 1/2, m = 1
        assert grid["cutoff_exponent"] == pytest.approx(
            (math.pi * 0.5 / grid["dq"]) ** 2, rel=1e-12)
        assert grid["cutoff_exponent"] >= 27.7

    def test_bound_check_returns_escaped_reference(self, monkeypatch):
        original = fk.spectral_partition

        def scaled(*args, **kw):
            log_z, grid = original(*args, **kw)
            return log_z + math.log(1.5), grid

        monkeypatch.setattr(fk, "spectral_partition", scaled)
        rep = bound_check(HARMONIC, 2.0, n_paths=2_000)
        assert rep.log_spectral_reference > rep.log_z_upper + 1e-8
        assert rep.spectral_reference > rep.z_upper
        assert rep.tau_star is None


class TestOneBlasThread:
    """The spectral reference's eigensolves and the path sampler's products
    run on one OpenBLAS thread and leave the thread count as they found it."""

    @pytest.fixture
    def blas(self):
        threads = ops._openblas_threads()
        if threads is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        get, put = threads
        before = get()
        put(2)
        yield get
        put(before)

    def test_count_restored(self, blas):
        spectral_partition(HARMONIC, 2.0)
        assert blas() == 2

    def test_count_restored_after_the_monte_carlo(self, blas, monkeypatch):
        seen = []

        def spying_sampler(*args):
            values = _block_sampler(*args)

            def spied(block):
                seen.append(blas())
                return values(block)

            return spied

        monkeypatch.setattr(fk, "_block_sampler", spying_sampler)
        fk_mc_partition(HARMONIC, 2.0, n_paths=2_000)
        assert seen == [1] * 4 and blas() == 2

    def test_sampler_is_built_inside_one_blas_thread(self):
        # fk_mc_partition holds the non-reentrant one-thread lock while it
        # builds and runs the sampler, so the sampler must not take it
        done = []

        def build_and_run():
            with ops._one_blas_thread():
                done.append(_block_sampler(HARMONIC, 2.0, 1.0, 1.0, 64, seed=1)(0))

        worker = threading.Thread(target=build_and_run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(done) == 1

    def test_count_restored_when_the_eigensolve_raises(self, blas, monkeypatch):
        seen = []

        def failing_eigh(h):
            seen.append(blas())
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(np.linalg.LinAlgError):
            spectral_partition(HARMONIC, 2.0)
        assert seen == [1] and blas() == 2

    def test_reference_without_the_library(self, monkeypatch):
        monkeypatch.setattr(ops, "_openblas_threads", lambda: None)
        log_z, _ = spectral_partition(HARMONIC, 2.0)
        assert abs(math.exp(log_z) - SPECTRAL_HARMONIC) < 1e-10


def block_values(v, beta, m, hbar, m_slices, seed, n_paths):
    """ln Y_k of paths [0, n_paths) from one serial sampler's whole blocks,
    on one BLAS thread as in fk_mc_partition."""
    with ops._one_blas_thread():
        values = _block_sampler(v, beta, m, hbar, m_slices, seed)
        y = np.concatenate([values(block) for block in range(-(-n_paths // 512))])
    return y[:n_paths]


def log_mean(log_y):
    """ln of the mean of e^{log_y} and its relative stderr, from
    x = e^{log_y - max log_y}."""
    top = float(log_y.max())
    x = np.exp(log_y - top)
    mean = float(np.mean(x))
    return math.log(mean) + top, float(np.std(x, ddof=1)) / (mean * math.sqrt(len(x)))


def log_harmonic_closed_form(beta, hbar, m):
    """-ln(2 sinh(x/2)) = -x/2 - ln(1 - e^{-x}) for v = q^2/2, with
    x = beta hbar omega and omega = 1/sqrt(m)."""
    x = beta * hbar / math.sqrt(m)
    return -x / 2 - math.log1p(-math.exp(-x))


# beta x hbar x m around the default config: hot, cold, nearly classical,
# deep quantum and light.  At beta = 0.05, hbar = 0.05, m = 1 the grid needs
# n = 16384, past the budget.  Where beta hbar omega/2 > 720, Z is below the
# float range and ln Z is not, but there the sums on n and 2n points differ
# by 1e-9 to 6e-8 relative: beta E_0 moves by more than 1e-10 between the
# grids.  Both are tested for their errors below.
UNIT_GRID = [(beta, hbar, m) for beta in (0.05, 2.0, 200.0)
             for hbar in (0.05, 1.0, 20.0) for m in (1e-4, 1.0)]
OVER_BUDGET = (0.05, 0.05, 1.0)
UNDERFLOWING = [u for u in UNIT_GRID if u[0] * u[1] / (2 * math.sqrt(u[2])) > 720]


class TestSpectralGrid:
    @pytest.mark.parametrize("beta,hbar,m", [
        u for u in UNIT_GRID if u != OVER_BUDGET and u not in UNDERFLOWING])
    def test_harmonic_closed_form(self, beta, hbar, m):
        log_z, grid = spectral_partition(HARMONIC, beta, m=m, hbar=hbar)
        exact = log_harmonic_closed_form(beta, hbar, m)
        assert abs(math.expm1(log_z - exact)) <= 1e-10
        assert grid.n <= 4096

    @pytest.mark.parametrize("rel", [1e-9, 1e-11])
    def test_finer_sum_must_agree(self, rel, monkeypatch):
        # after the edge tests n doubles once: the finer sum, moved by rel,
        # is returned within 1e-10 of the last one and raises past it
        finer = []

        def perturbed(v, beta, spec, m, edges):
            log_total, q_edge, p_edge = _boltzmann_sum(v, beta, spec, m, edges)
            if not edges:
                log_total += math.log1p(rel)
                finer.append((log_total, spec))
            return log_total, q_edge, p_edge

        monkeypatch.setattr(pt, "_boltzmann_sum", perturbed)
        if rel > 1e-10:
            with pytest.raises(ValueError, match="unconverged grid"):
                spectral_partition(HARMONIC, 2.0)
        else:
            assert [spectral_partition(HARMONIC, 2.0)] == finer
        assert len(finer) == 1

    @pytest.mark.parametrize("beta,hbar,m", UNDERFLOWING)
    def test_underflowing_trace_is_unconverged(self, beta, hbar, m):
        with pytest.raises(ValueError, match="unconverged grid"):
            spectral_partition(HARMONIC, beta, m=m, hbar=hbar)

    def test_budget_raises_before_any_eigensolve(self, monkeypatch):
        def no_hamiltonian(*args):
            raise AssertionError("a Hamiltonian was built")

        monkeypatch.setattr(pt, "grid_hamiltonian", no_hamiltonian)
        beta, hbar, m = OVER_BUDGET
        with pytest.raises(ValueError, match="budget of n = 4096"):
            spectral_partition(HARMONIC, beta, m=m, hbar=hbar)

    @staticmethod
    def fd_partition(coeffs, beta, hbar, m, half_width=12.0, n=4000):
        """tr e^{-beta H} from three-point finite-difference eigenvalues on n,
        2n and 4n interior points of [-half_width, half_width], combined by
        two Richardson steps; levels more than 60/beta above the potential's
        minimum are left out.  Its own error is ~1e-10."""
        from scipy.linalg import eigh_tridiagonal
        sums = []
        for k in (1, 2, 4):
            q = np.linspace(-half_width, half_width, n * k + 2)[1:-1]
            t = hbar ** 2 / (2 * m * (q[1] - q[0]) ** 2)
            v = np.polynomial.polynomial.polyval(q, coeffs)
            levels = eigh_tridiagonal(
                2 * t + v, np.full(len(q) - 1, -t), eigvals_only=True,
                select="v", select_range=(v.min() - 1.0, v.min() + 60.0 / beta))
            sums.append(float(np.exp(-beta * levels).sum()))
        r1, r2 = (4 * sums[1] - sums[0]) / 3, (4 * sums[2] - sums[1]) / 3
        return (16 * r2 - r1) / 15

    @pytest.mark.parametrize("hbar,m", [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0), (1.0, 2.0)])
    def test_quartic_matches_finite_differences(self, hbar, m):
        log_z, _ = spectral_partition(QUARTIC, 2.0, m=m, hbar=hbar)
        fd = self.fd_partition(QUARTIC.coeffs, 2.0, hbar, m)
        assert abs(math.exp(log_z) - fd) <= 1e-9 * fd

    confining = st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 1.0),
                          st.floats(0.05, 1.0))  # q, q^2 and q^4 coefficients
    units = st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0))

    @staticmethod
    def partitions(coeffs, beta, m, hbar):
        """The logs of the spectral reference and both classical bounds."""
        v = Potential.polynomial((0.0, coeffs[0], coeffs[1], 0.0, coeffs[2]))
        return np.array([spectral_partition(v, beta, m=m, hbar=hbar)[0],
                          classical_partition(v, beta, 0.0, m, hbar),
                          classical_partition(v, beta, beta, m, hbar)])

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_depends_on_hbar_and_mass_through_hbar_squared_over_m(self, coeffs,
                                                                  units, s):
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        scaled = self.partitions(coeffs, beta, m * s * s, hbar * s)
        assert np.max(np.abs(np.expm1(scaled - z))) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_energy_scale_moves_into_beta_and_mass(self, coeffs, units, c):
        # Z(beta, m, hbar, v) = Z(beta/c, m/c, hbar, c v)
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        scaled = self.partitions(tuple(c * x for x in coeffs), beta / c, m / c, hbar)
        assert np.max(np.abs(np.expm1(scaled - z))) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_length_scale_moves_into_mass(self, coeffs, units, s):
        # Z(beta, m, hbar, v) = Z(beta, m s^2, hbar, v(s .))
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        dilated = (coeffs[0] * s, coeffs[1] * s ** 2, coeffs[2] * s ** 4)
        scaled = self.partitions(dilated, beta, m * s * s, hbar)
        assert np.max(np.abs(np.expm1(scaled - z))) <= 1e-10


class TestParameterChecks:
    @pytest.mark.parametrize("beta,m,hbar,name", [
        (math.nan, 1.0, 1.0, "beta"), (2.0, math.nan, 1.0, "m"),
        (2.0, 1.0, math.inf, "hbar")])
    def test_fk_mc_partition(self, beta, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            fk_mc_partition(HARMONIC, beta, m, hbar, n_paths=100)

    @pytest.mark.parametrize("m_slices", [0, -1])
    def test_fk_mc_partition_rejects_fewer_than_one_slice(self, m_slices):
        # one slice is the classical z(beta, 0); none would divide by zero
        with pytest.raises(ValueError, match="m_slices must be at least 1"):
            fk_mc_partition(HARMONIC, 2.0, m_slices=m_slices, n_paths=100)

    def test_fk_mc_partition_rejects_one_path(self):
        # one path has no sample deviation, so no stderr
        with pytest.raises(ValueError, match="n_paths must be at least 2"):
            fk_mc_partition(HARMONIC, 2.0, n_paths=1)

    @pytest.mark.parametrize("beta,m,hbar,name", [
        (math.nan, 1.0, 1.0, "beta"), (2.0, math.inf, 1.0, "m"),
        (2.0, 1.0, math.nan, "hbar")])
    def test_spectral_partition(self, beta, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            spectral_partition(HARMONIC, beta, m=m, hbar=hbar)

    @pytest.mark.parametrize("beta,m,hbar,name", [
        (math.inf, 1.0, 1.0, "beta"), (2.0, math.nan, 1.0, "m"),
        (2.0, 1.0, math.nan, "hbar")])
    def test_sample_bridge_ensemble(self, beta, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            sample_bridge_ensemble(beta, 16, 10, m, hbar)

    def test_sample_bridge_ensemble_rejects_negative_paths(self):
        with pytest.raises(ValueError, match="n_paths must be nonnegative"):
            sample_bridge_ensemble(2.0, 16, -1)

    def test_sample_bridge_rejects_negative_path_index(self):
        # path -1 would be row 511 of block -1
        with pytest.raises(ValueError, match="path_index must be nonnegative"):
            sample_bridge(2.0, 8, path_index=-1)

    def test_sample_bridge_rejects_one_slice(self):
        # a pinned bridge of one slice has no interior point to draw
        with pytest.raises(ValueError, match="m_slices must be at least 2"):
            sample_bridge(2.0, 1)

    @pytest.mark.parametrize("m,hbar,name", [(math.nan, 1.0, "m"),
                                             (1.0, math.inf, "hbar")])
    def test_gauss_transform_potential(self, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            gauss_transform_potential(HARMONIC, 1.0, m, hbar)


class TestBridges:
    def test_endpoints_pinned(self):
        b = sample_bridge(2.0, 64, seed=5)
        assert b.shape == (65,)
        assert b[0] == 0.0 and b[-1] == 0.0

    @pytest.mark.parametrize("m_slices, n_paths, seed, rows", [
        (64, 50, 9, (0, 7, 49)), (16, 41, 3, range(41)),
        (64, 1_600, 9, (0, 511, 512, 700, 1_023, 1_599))])
    def test_path_addressing_deterministic(self, m_slices, n_paths, seed, rows):
        # row k of an ensemble equals the path sampled on its own, on either
        # side of a block boundary
        ens = sample_bridge_ensemble(2.0, m_slices, n_paths, seed=seed)
        assert ens.shape == (n_paths, m_slices + 1)
        for k in rows:
            single = sample_bridge(2.0, m_slices, seed=seed, path_index=k)
            assert np.array_equal(ens[k], single)

    def test_midpoint_covariance(self):
        # var w(beta/2) = (hbar^2/m)(beta/4)
        beta = 2.0
        ens = sample_bridge_ensemble(beta, 64, 20_000, seed=3)
        mid = ens[:, 32]
        assert abs(np.var(mid) - beta / 4) < 0.02

    @pytest.mark.parametrize("m_slices", [2, 16, 17, 64])
    def test_levy_matrix_gives_bridge_covariance(self, m_slices):
        # w = L z with standard normal z has covariance L L^T, which must be
        # (hbar^2/m)(min(tau, tau') - tau tau'/beta)
        beta, mass, hbar = 2.0, 2.0, 0.5
        levy = _levy_matrix(beta, m_slices, mass, hbar)
        tau = np.linspace(0.0, beta, m_slices + 1)
        cov = hbar ** 2 / mass * (np.minimum.outer(tau, tau)
                                  - np.outer(tau, tau) / beta)
        assert np.max(np.abs(levy @ levy.T - cov)) < 1e-12

    def test_ensemble_matches_midpoint_loop(self):
        # reference: the Lévy midpoint construction run column by column on
        # the same normals; the matrix product sums in another order
        beta, m_slices, mass, hbar = 2.0, 64, 0.5, 2.0
        raw = np.empty((512, m_slices - 1))
        normals = _block_normals(m_slices, 4, 0, raw)[:300]
        dtau = beta / m_slices
        ref = np.zeros((300, m_slices + 1))
        for col, (left, mid, right) in enumerate(_bisection_schedule(m_slices)):
            tl, tm, th = left * dtau, mid * dtau, right * dtau
            mean = ((th - tm) * ref[:, left] + (tm - tl) * ref[:, right]) / (th - tl)
            var = (hbar ** 2 / mass) * (tm - tl) * (th - tm) / (th - tl)
            ref[:, mid] = mean + math.sqrt(var) * normals[:, col]
        ens = sample_bridge_ensemble(beta, m_slices, 300, mass, hbar, seed=4)
        assert np.max(np.abs(ens - ref)) < 1e-12

    @pytest.mark.parametrize("k", [0, 5, 511, 512, 1023, 1500])
    def test_block_normals_follow_the_philox_block_streams(self, k):
        # oracle: path k is row k % 512 of the Gaussian stream of Philox
        # from counter [0, 0, 0, k // 512], drawn row by row
        seed, m_slices = 9, 64
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k // 512]))
        expected = gen.standard_normal((k % 512 + 1, m_slices - 1))[-1]
        out = np.empty((512, m_slices - 1))
        normals = _block_normals(m_slices, seed, k // 512, out)
        assert normals is out
        assert np.array_equal(normals[k % 512], expected)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_bridge_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            sample_bridge(beta, 4)


class TestMonteCarlo:
    def test_harmonic_estimate_within_error(self):
        est, rel = fk_mc_partition(HARMONIC, 2.0, n_paths=20_000, seed=11)
        assert rel > 0
        assert abs(math.expm1(LOG_SPECTRAL_HARMONIC - est)) < 5 * rel

    def test_estimate_near_the_largest_float(self):
        # c = -350: Y_k ~ e^{700}, and 100k of them sum past the largest float
        v = Potential.polynomial((-350.0, 0.0, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est, rel = fk_mc_partition(v, 2.0)
        assert abs(math.expm1(700.0 + LOG_SPECTRAL_HARMONIC - est)) < 5 * rel

    @pytest.mark.parametrize("v", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 0.25)],
                             ids=["closed_form", "grid"])
    def test_path_values_past_the_largest_float(self, v):
        # -357.5 + v: min A_k ~ -715, each Y_k past the largest float.  The
        # estimate is ln Z(v) + 715 within 5 stderr, with no overflow warning
        log_z, _ = spectral_partition(Potential.polynomial(v), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            est, rel = fk_mc_partition(Potential.polynomial((-357.5, *v[1:])), 2.0,
                                       n_paths=1000)
        assert rel > 0
        assert abs(math.expm1(715.0 + log_z - est)) < 5 * rel

    def test_deterministic_in_seed(self):
        a = fk_mc_partition(HARMONIC, 2.0, n_paths=5_000, seed=4)
        b = fk_mc_partition(HARMONIC, 2.0, n_paths=5_000, seed=4)
        assert a == b

    @pytest.mark.parametrize("n_rows", [5_003, 20_000])
    @pytest.mark.parametrize("m_slices", [64, 128, 256])
    def test_blocked_products_match_four_row_products(self, n_rows, m_slices):
        # a row's value must not depend on where the row pieces fall, for
        # dense operands of the sampler's shapes and layouts: the bridge's
        # contiguous Lᵀ, the trapezoid weights and the action's q-powers
        rng = np.random.default_rng(0)
        z = rng.standard_normal((n_rows, m_slices - 1))
        levy_t = rng.standard_normal((m_slices - 1, m_slices + 1))
        w = rng.standard_normal((n_rows, m_slices + 1))
        tw = rng.standard_normal(m_slices + 1)
        qc = rng.standard_normal((n_rows, 5))
        qpow = rng.standard_normal((5, 161))
        with ops._one_blas_thread():
            for a, b in [(z, levy_t), (w, tw), (qc, qpow)]:
                groups = [a[i:i + 4] @ b for i in range(0, n_rows, 4)]
                assert np.array_equal(_serial_matmul(a, b), np.concatenate(groups))

    @pytest.mark.parametrize("v", [HARMONIC, QUARTIC, ODD_QUARTIC])
    def test_path_value_independent_of_surrounding_paths(self, v):
        # a block's values are a function of (seed, block) alone: the same
        # bits computed first, after other blocks, or on another thread
        with ops._one_blas_thread():
            values = _block_sampler(v, 2.0, 1.0, 1.0, 64, seed=5)
            first = values(1)
            for block in (0, 3, 2):
                values(block)
            again = values(1)
            other = []
            worker = threading.Thread(target=lambda: other.append(values(1)))
            worker.start()
            worker.join()
        assert first.shape == (512,)
        assert np.array_equal(first, again) and np.array_equal(first, other[0])

    @pytest.mark.parametrize("v", [HARMONIC, QUARTIC, ODD_QUARTIC])
    @pytest.mark.parametrize("n_paths", [2, 511, 512, 513, 1_500, 5_003])
    def test_estimate_is_mean_of_path_values(self, v, n_paths):
        # one block, whole and partial, an odd block count, and a partial
        # last block: the two threads' interleaved blocks give the values
        # of one serial sampler's whole blocks
        y = block_values(v, 2.0, 1.0, 1.0, 64, 6, n_paths)
        assert fk_mc_partition(v, 2.0, n_paths=n_paths, seed=6) == log_mean(y)

    def test_stderr_of_values_far_under_the_float_range(self, monkeypatch):
        # path values near e^{-2000}, whose squares are near e^{-4000}: the
        # estimate's log moves by -2000 and the relative stderr stays, up
        # to the spacing of floats near 2000 (2.3e-13) in each ln Y_k
        plain_est, plain_rel = fk_mc_partition(HARMONIC, 2.0, n_paths=2_000, seed=4)

        def shifted_sampler(*args):
            values = _block_sampler(*args)
            return lambda block: values(block) - 2000.0

        monkeypatch.setattr(fk, "_block_sampler", shifted_sampler)
        est, rel = fk_mc_partition(HARMONIC, 2.0, n_paths=2_000, seed=4)
        assert rel > 0
        assert abs(est + 2000.0 - plain_est) <= 1e-12
        assert abs(rel / plain_rel - 1) <= 1e-13

    def test_threads_give_same_bits_under_fast_switching(self):
        # blocks run on two threads; with the interpreter switching threads
        # every microsecond the estimate must still equal the one from a
        # single block computed on this thread
        y = block_values(HARMONIC, 2.0, 1.0, 1.0, 64, 12, 5_000)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est, _ = fk_mc_partition(HARMONIC, 2.0, n_paths=5_000, seed=12)
        finally:
            sys.setswitchinterval(old)
        assert est == log_mean(y)[0]

    def test_one_slice_is_classical(self):
        # with one time slice the pinned bridge is identically 0, and every
        # path gives the classical z(beta, 0)
        est, rel = fk_mc_partition(HARMONIC, 2.0, m_slices=1, n_paths=100)
        assert abs(est - classical_partition(HARMONIC, 2.0, 0.0, 1.0)) < 1e-7
        assert rel < 1e-12

    def test_harmonic_estimate_matches_grid_oracle(self):
        est, _ = fk_mc_partition(HARMONIC, 2.0, n_paths=2_000, seed=2)
        grid = grid_path_values(HARMONIC, 2.0, 1.0, 1.0, 64, 2, 2_000)
        assert abs(est - log_mean(grid)[0]) < 1e-10


def grid_path_values(v, beta, m, hbar, m_slices, seed, n_paths):
    """Oracle for ln Y_k, Y_k = (1/lambda) int dq e^{-A_k(q)}, v evaluated
    directly: A_k(q) = sum_j' tw_j v(q + w_kj) over the rows w_k of
    sample_bridge_ensemble, and Y_k = (dq/lambda) sum_q e^{-A_k(q)} on the
    sampler's 161-node box."""
    w = sample_bridge_ensemble(beta, m_slices, n_paths, m, hbar, seed)
    r = pt._decay_radius(v, beta, floor=27.7)
    pad = 2 * math.sqrt(hbar ** 2 * beta / m)
    q = np.linspace(-r - pad, r + pad, 161)
    tw = np.full(m_slices + 1, beta / m_slices)
    tw[[0, -1]] /= 2
    action = sum(t * v(q[None, :] + w[:, [j]]) for j, t in enumerate(tw))
    low = action.min(axis=1)
    lam = math.sqrt(2 * math.pi * beta * hbar ** 2 / m)
    weights = np.exp(low[:, None] - action).sum(axis=1)
    return np.log(weights * (q[1] - q[0]) / lam) - low


def _gaussian_path_values(coeffs, beta, m, hbar, m_slices, n_paths, seed):
    """ln Y_k of the quadratic well c0 + c1 q + c2 q^2 from its bridges: the
    trapezoid moments S_p of w^p give A_k(q) = a0 + a1 q + a2 q^2, and
    (1/lambda) int dq e^{-A_k} = sqrt(pi/a2) e^{a1^2/4a2 - a0}/lambda."""
    c0, c1, c2 = coeffs
    w = sample_bridge_ensemble(beta, m_slices, n_paths, m, hbar, seed)
    tau = np.linspace(0.0, beta, m_slices + 1)
    s0, s1, s2 = (np.trapezoid(w ** p, tau, axis=1) for p in range(3))
    a0 = c0 * s0 + c1 * s1 + c2 * s2
    a1 = c1 * s0 + 2 * c2 * s1
    a2 = c2 * s0
    lam = math.sqrt(2 * math.pi * beta * hbar ** 2 / m)
    return 0.5 * np.log(np.pi / a2) - math.log(lam) + a1 ** 2 / (4 * a2) - a0


class TestQuadraticClosedForm:
    @pytest.mark.parametrize("beta, hbar, m", [
        (2.0, 1.0, 1.0), (2.0, 0.5, 1.0), (2.0, 2.0, 1.0), (2.0, 1.0, 2.0),
        (20.0, 1.0, 1.0)])
    def test_harmonic_matches_grid_oracle(self, beta, hbar, m):
        # the closed form and the float64 grid sum agree path by path, to
        # 1e-12 relative in Y_k
        y = block_values(HARMONIC, beta, m, hbar, 64, 3, 1_000)
        grid = grid_path_values(HARMONIC, beta, m, hbar, 64, 3, 1_000)
        np.testing.assert_allclose(y, grid, rtol=0, atol=1e-12)

    def test_shifted_well_matches_grid_oracle(self):
        v = Potential.polynomial((0.3, -0.4, 0.7))
        y = block_values(v, 2.0, 1.0, 1.0, 64, 3, 1_000)
        grid = grid_path_values(v, 2.0, 1.0, 1.0, 64, 3, 1_000)
        np.testing.assert_allclose(y, grid, rtol=0, atol=1e-12)

    def test_quartic_matches_grid_oracle(self):
        # the moment trick against v summed over the slices
        y = block_values(QUARTIC, 2.0, 1.0, 1.0, 64, 3, 1_000)
        grid = grid_path_values(QUARTIC, 2.0, 1.0, 1.0, 64, 3, 1_000)
        np.testing.assert_allclose(y, grid, rtol=0, atol=1e-12)

    def test_trailing_zero_coefficients_take_the_closed_form(self):
        padded = Potential.polynomial((0.0, 0.0, 0.5, 0.0, 0.0))
        y = block_values(padded, 2.0, 1.0, 1.0, 64, 3, 1_000)
        assert np.array_equal(y, block_values(HARMONIC, 2.0, 1.0, 1.0, 64, 3, 1_000))

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.0, 0.0), (0.3, -0.4, 0.7)])
    @pytest.mark.parametrize("beta, m_slices", [(2.0, 64), (200.0, 256)])
    def test_matches_gaussian_integral_of_the_bridges(self, coeffs, beta,
                                                      m_slices):
        # at beta = 200 most values would underflow to 0, and none of
        # their logs does
        v = Potential.polynomial(coeffs)
        y = block_values(v, beta, 1.0, 1.0, m_slices, 7, 2_000)
        want = _gaussian_path_values(coeffs[:3], beta, 1.0, 1.0, m_slices,
                                     2_000, 7)
        np.testing.assert_allclose(y, want, rtol=1e-13, atol=0)


class TestBoundsAndTauStar:
    def test_monotonicity_harmonic(self):
        res = monotonicity_check(HARMONIC, 2.0)
        assert res["strictly_decreasing"]
        assert max(res["derivative_relative_errors"]) < 1e-4

    def test_monotonicity_quartic(self):
        res = monotonicity_check(QUARTIC, 2.0)
        assert res["strictly_decreasing"]

    def test_monotonicity_anharmonic(self):
        # the derivative identity for q^2/2 + 0.1 q^4
        v = Potential.polynomial((0.0, 0.0, 0.5, 0.0, 0.1))
        res = monotonicity_check(v, 2.0)
        assert res["strictly_decreasing"]
        assert max(res["derivative_relative_errors"]) < 1e-8

    @pytest.mark.parametrize("c", [0.0, 300.0])
    def test_derivative_identity_rejects_a_doubled_formula(self, c, monkeypatch):
        # with v_tau' scaled by sqrt 2 the formula doubles, a relative error
        # of 0.5, also at c = 300, where z ~ 1e-261
        derivative = Potential.derivative
        monkeypatch.setattr(Potential, "derivative", lambda self: Potential(
            tuple(math.sqrt(2) * x for x in derivative(self).coeffs)))
        res = monotonicity_check(Potential.polynomial((c, 0.0, 0.5)), 2.0)
        assert min(res["derivative_relative_errors"]) >= 0.4

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_tau_star_closed_form(self, beta, hbar, m):
        # z(beta, tau) = e^{-beta tau hbar^2/24m}/x with x = beta hbar/sqrt(m)
        # meets the exact trace 1/(2 sinh(x/2)) at the closed-form tau*
        x = beta * hbar / math.sqrt(m)
        exact = 24 * m / (beta * hbar ** 2) * math.log(2 * math.sinh(x / 2) / x)
        ts = tau_star(HARMONIC, beta, m, hbar,
                      log_z_target=-math.log(2 * math.sinh(x / 2)))
        assert abs(ts - exact) < 1e-6

    @pytest.mark.parametrize("beta", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
    def test_tau_star_meets_the_quartic_target(self, beta, hbar, m):
        target = classical_partition(QUARTIC, beta, beta / 3, m, hbar)
        ts = tau_star(QUARTIC, beta, m, hbar, log_z_target=target)
        assert abs(classical_partition(QUARTIC, beta, ts, m, hbar) - target) <= 1e-8

    @pytest.mark.parametrize("v", [HARMONIC, QUARTIC])
    @pytest.mark.parametrize("hbar, m", [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0),
                                         (1.0, 2.0)])
    def test_tau_star_takes_at_most_seven_partition_calls(self, v, hbar, m,
                                                          monkeypatch):
        # the benchmark's bound_check settings: beta 2, the spectral target.
        # ln z is linear in tau on the harmonic well: 3 calls there, 4-7 on
        # the quartic
        target, _ = spectral_partition(v, 2.0, m=m, hbar=hbar)
        calls = []

        def counting(*args):
            calls.append(args)
            return classical_partition(*args)

        monkeypatch.setattr(pt, "classical_partition", counting)
        ts = tau_star(v, 2.0, m, hbar, log_z_target=target)
        assert len(calls) <= 7
        assert abs(classical_partition(v, 2.0, ts, m, hbar) - target) <= 1e-8

    @pytest.mark.parametrize("z", [lambda t: 1 + (2 - t) ** 2 / 2,
                                   lambda t: 3 - t ** 2 / 2],
                             ids=["convex", "concave"])
    def test_tau_star_converges_fast_on_either_curvature(self, z, monkeypatch):
        # false position keeps the lower end of a convex ln z and the upper
        # end of a concave one; halving the kept end's value stops either stall
        calls = []

        def fake(v, beta, tau, m, hbar):
            calls.append(tau)
            return z(tau)

        monkeypatch.setattr(pt, "classical_partition", fake)
        ts = tau_star(HARMONIC, 2.0, log_z_target=2.0)
        assert abs(z(ts) - 2.0) <= 1e-8
        assert len(calls) <= 10

    def test_tau_star_raises_when_unconverged(self, monkeypatch):
        # a ln z(beta, tau) that steps across the target never meets it
        monkeypatch.setattr(pt, "classical_partition",
                            lambda v, beta, tau, m, hbar: 2.0 if tau < 0.7 else 1.0)
        with pytest.raises(RuntimeError, match="did not converge"):
            tau_star(HARMONIC, 2.0, log_z_target=1.5)

    def test_tau_star_requires_a_log_target(self):
        # a caller passing z by the old keyword fails loudly
        with pytest.raises(TypeError, match="log_z_target"):
            tau_star(HARMONIC, 2.0)
        with pytest.raises(TypeError, match="z_target"):
            tau_star(HARMONIC, 2.0, z_target=0.4)

    def test_tau_star_rejects_a_target_under_the_bracket_before_any_step(
            self, monkeypatch):
        # 300 + q^2/2 at beta = 2: z(beta, beta) ~ 1.1e-261, and a target of
        # 1e-300 lies far under it; only the two bracket values are taken
        v = Potential.polynomial((300.0, 0.0, 0.5))
        calls = []

        def counting(*args):
            calls.append(args)
            return classical_partition(*args)

        monkeypatch.setattr(pt, "classical_partition", counting)
        with pytest.raises(ValueError, match="outside the bracket"):
            tau_star(v, 2.0, log_z_target=math.log(1e-300))
        assert len(calls) == 2

    def test_bound_check_report(self):
        rep = bound_check(HARMONIC, 2.0, n_paths=5_000, seed=1)
        d = rep.to_json()
        assert d["z_lower"] <= d["spectral_reference"] <= d["z_upper"]
        assert d["z_lower"] <= d["mc_estimate"] + 5 * d["mc_stderr"]
        assert d["mc_estimate"] - 5 * d["mc_stderr"] <= d["z_upper"]
        assert 0.0 < d["tau_star"] <= 2.0
        for name in ("z_upper", "z_lower", "spectral_reference", "mc_estimate"):
            assert d[name] == math.exp(d["log_" + name])
        assert d["mc_stderr"] == d["mc_estimate"] * d["mc_rel_stderr"]
