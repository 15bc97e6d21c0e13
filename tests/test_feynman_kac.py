"""Tests for the path-integral partition-function bounds and MC estimator."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdesk.feynman_kac as fk
import qdesk.operators as ops
from qdesk.feynman_kac import (
    BridgePath,
    Potential,
    _bisection_schedule,
    _block_sampler,
    _levy_matrix,
    _path_normals,
    _serial_matmul,
    bound_check,
    classical_partition,
    fk_mc_partition,
    gauss_transform_potential,
    monotonicity_check,
    sample_bridge,
    sample_bridge_ensemble,
    spectral_partition,
    tau_star,
)
from qdesk.phasespace import GridSpec

HARMONIC = Potential.polynomial([0.0, 0.0, 0.5])
QUARTIC = Potential.polynomial([0.0, 0.0, 0.0, 0.0, 0.25])
SPECTRAL_HARMONIC = 1.0 / (2 * math.sinh(1.0))  # beta = 2, hbar = omega = 1


class TestPotential:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            Potential(coeffs=(0.0, 1.0), fn=lambda q: q)

    def test_polynomial_eval(self):
        assert HARMONIC(2.0) == 2.0
        assert np.allclose(HARMONIC(np.array([0.0, 1.0])), [0.0, 0.5])

    def test_tabulated_interpolates(self):
        v = Potential.tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
        assert abs(float(v(0.5)) - 0.5) < 1e-12

    def test_tabulated_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Potential.tabulated([0.0, -1.0, 1.0], [0.0, 1.0, 1.0])

    def test_domain_enforced(self):
        v = Potential.from_callable(lambda q: q ** 2, domain=(-1.0, 1.0))
        with pytest.raises(ValueError):
            v(2.0)

    def test_derivative_polynomial(self):
        d = QUARTIC.derivative()
        assert abs(float(d(2.0)) - 8.0) < 1e-12

    def test_derivative_stays_in_domain(self):
        # one-sided differences at the ends instead of evaluating outside
        v = Potential.from_callable(lambda q: q ** 2, domain=(-1.0, 1.0))
        d = v.derivative()
        assert abs(float(d(0.5)) - 1.0) < 1e-8
        assert np.all(np.abs(d(np.array([-1.0, 1.0])) - [-2.0, 2.0]) < 1e-4)


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

    def test_callable_matches_polynomial(self):
        v = Potential.from_callable(lambda q: 0.25 * q ** 4)
        vt_a = gauss_transform_potential(v, 1.5, 1.0)
        vt_b = gauss_transform_potential(QUARTIC, 1.5, 1.0)
        q = np.linspace(-2, 2, 9)
        assert np.max(np.abs(vt_a(q) - vt_b(q))) < 1e-10


class TestClassicalPartition:
    def test_harmonic_closed_forms(self):
        # z(beta, tau) = (1/beta) e^{-beta tau/24} for v = q^2/2
        assert abs(classical_partition(HARMONIC, 2.0, 0.0, 1.0) - 0.5) < 1e-7
        expected = 0.5 * math.exp(-1.0 / 6.0)
        assert abs(classical_partition(HARMONIC, 2.0, 2.0, 1.0) - expected) < 1e-7

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


class TestSpectralReference:
    def test_harmonic_value(self):
        z = spectral_partition(HARMONIC, 2.0)
        assert abs(z - SPECTRAL_HARMONIC) < 1e-10

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("mass", [0.5, 2.0])
    def test_harmonic_value_across_units(self, hbar, mass):
        # omega = 1/sqrt(m) for v = q^2/2
        exact = 1.0 / (2 * math.sinh(2.0 * hbar / (2 * math.sqrt(mass))))
        z = spectral_partition(HARMONIC, 2.0, m=mass, hbar=hbar)
        assert abs(z - exact) < 1e-10 * exact
        rep = bound_check(HARMONIC, 2.0, m=mass, hbar=hbar, n_paths=2_000)
        assert abs(rep.spectral_reference - exact) < 1e-10 * exact

    def test_spectral_partition_rejects_spec_in_other_units(self):
        # the grid's hbar sets its momentum axis, so another hbar would be
        # silently ignored
        with pytest.raises(ValueError, match="hbar"):
            spectral_partition(HARMONIC, 2.0, GridSpec(n=512, length=32.0, hbar=1.0),
                               hbar=0.5)

    def test_sandwich(self):
        z = spectral_partition(HARMONIC, 2.0)
        lo = classical_partition(HARMONIC, 2.0, 2.0, 1.0)
        hi = classical_partition(HARMONIC, 2.0, 0.0, 1.0)
        assert lo <= z <= hi

    def test_given_spec_is_used_as_is(self):
        spec = GridSpec(n=512, length=32.0, hbar=1.0)
        z = spectral_partition(HARMONIC, 2.0, spec)
        assert z.grid is spec
        assert abs(z - SPECTRAL_HARMONIC) < 1e-10

    def test_given_spec_below_momentum_cutoff_raises(self):
        # beta (pi hbar/dq)^2/2m = 2 (pi n/32)^2/2 is 9.87 at n = 32
        with pytest.raises(ValueError, match="momentum cutoff exponent 9.87"):
            spectral_partition(HARMONIC, 2.0, GridSpec(n=32, length=32.0))

    @pytest.mark.parametrize("n,length,edge", [
        (64, 8.0, 0),  # the box [-4, 4] cuts the low states off (position
        (64, 32.0, 1)])  # edge), or their momenta pass p = pi hbar/dq = 6.28
    def test_given_spec_with_low_states_at_its_edge_raises(self, n, length, edge):
        with pytest.raises(ValueError, match="low eigenstates reach the edge") as err:
            spectral_partition(HARMONIC, 2.0, GridSpec(n=n, length=length))
        amplitudes = [float(a) for a in re.findall(
            r"(?:position|momentum) ([0-9.e+-]+)", str(err.value))]
        assert amplitudes[edge] > max(1e-10, amplitudes[1 - edge])

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
        monkeypatch.setattr(fk, "spectral_partition",
                            lambda *args, **kw: 1.5 * original(*args, **kw))
        rep = bound_check(HARMONIC, 2.0, n_paths=2_000)
        assert rep.spectral_reference > rep.z_upper + 1e-8
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

            def spied(start, count):
                seen.append(blas())
                return values(start, count)

            return spied

        monkeypatch.setattr(fk, "_block_sampler", spying_sampler)
        fk_mc_partition(HARMONIC, 2.0, n_paths=2_000)
        assert seen == [1] * 4 and blas() == 2

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
        assert abs(spectral_partition(HARMONIC, 2.0) - SPECTRAL_HARMONIC) < 1e-10


def harmonic_closed_form(beta, hbar, m):
    """1/(2 sinh(beta hbar omega/2)) for v = q^2/2, omega = 1/sqrt(m)."""
    return 1.0 / (2 * math.sinh(beta * hbar / (2 * math.sqrt(m))))


# beta x hbar x m around the default config: hot, cold, nearly classical,
# deep quantum and light.  At beta = 0.05, hbar = 0.05, m = 1 the grid needs
# n = 16384, past the budget; where beta hbar omega/2 > 720, Z is below the
# float range.  Both are tested for their errors below.
UNIT_GRID = [(beta, hbar, m) for beta in (0.05, 2.0, 200.0)
             for hbar in (0.05, 1.0, 20.0) for m in (1e-4, 1.0)]
OVER_BUDGET = (0.05, 0.05, 1.0)
UNDERFLOWING = [u for u in UNIT_GRID if u[0] * u[1] / (2 * math.sqrt(u[2])) > 720]


class TestSpectralGrid:
    @pytest.mark.parametrize("beta,hbar,m", [
        u for u in UNIT_GRID if u != OVER_BUDGET and u not in UNDERFLOWING])
    def test_harmonic_closed_form(self, beta, hbar, m):
        z = spectral_partition(HARMONIC, beta, m=m, hbar=hbar)
        exact = harmonic_closed_form(beta, hbar, m)
        assert abs(z - exact) <= 1e-10 * exact
        assert z.grid.n <= 4096

    def test_n_doubles_until_two_sums_agree(self):
        # |q|^5 jumps in its fifth derivative, so its sums converge slowly
        # enough in n to need a second doubling after the edge tests pass
        v = Potential.from_callable(lambda q: np.abs(q) ** 5)
        z = spectral_partition(v, 2.0)
        half, quarter = (spectral_partition(v, 2.0, GridSpec(z.grid.n // k, z.grid.length))
                         for k in (2, 4))
        assert abs(z - half) <= 1e-10 * z < abs(half - quarter)

    @pytest.mark.parametrize("beta,hbar,m", UNDERFLOWING)
    def test_underflowing_trace_raises(self, beta, hbar, m):
        with pytest.raises(ValueError, match="outside the float range"):
            spectral_partition(HARMONIC, beta, m=m, hbar=hbar)

    def test_budget_raises_before_any_eigensolve(self, monkeypatch):
        def no_hamiltonian(*args):
            raise AssertionError("a Hamiltonian was built")

        monkeypatch.setattr(fk, "grid_hamiltonian", no_hamiltonian)
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
        z = spectral_partition(QUARTIC, 2.0, m=m, hbar=hbar)
        fd = self.fd_partition(QUARTIC.coeffs, 2.0, hbar, m)
        assert abs(z - fd) <= 1e-9 * fd

    confining = st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 1.0),
                          st.floats(0.05, 1.0))  # q, q^2 and q^4 coefficients
    units = st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 2.0), st.floats(0.5, 2.0))

    @staticmethod
    def partitions(coeffs, beta, m, hbar):
        """The spectral reference and both classical bounds."""
        v = Potential.polynomial((0.0, coeffs[0], coeffs[1], 0.0, coeffs[2]))
        return np.array([spectral_partition(v, beta, m=m, hbar=hbar),
                          classical_partition(v, beta, 0.0, m, hbar),
                          classical_partition(v, beta, beta, m, hbar)])

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_depends_on_hbar_and_mass_through_hbar_squared_over_m(self, coeffs,
                                                                  units, s):
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        scaled = self.partitions(coeffs, beta, m * s * s, hbar * s)
        assert np.max(np.abs(scaled / z - 1)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_energy_scale_moves_into_beta_and_mass(self, coeffs, units, c):
        # Z(beta, m, hbar, v) = Z(beta/c, m/c, hbar, c v)
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        scaled = self.partitions(tuple(c * x for x in coeffs), beta / c, m / c, hbar)
        assert np.max(np.abs(scaled / z - 1)) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(confining, units, st.floats(0.5, 2.0))
    def test_length_scale_moves_into_mass(self, coeffs, units, s):
        # Z(beta, m, hbar, v) = Z(beta, m s^2, hbar, v(s .))
        beta, hbar, m = units
        z = self.partitions(coeffs, beta, m, hbar)
        dilated = (coeffs[0] * s, coeffs[1] * s ** 2, coeffs[2] * s ** 4)
        scaled = self.partitions(dilated, beta, m * s * s, hbar)
        assert np.max(np.abs(scaled / z - 1)) <= 1e-10


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

    @pytest.mark.parametrize("m,hbar,name", [(math.nan, 1.0, "m"),
                                             (1.0, math.inf, "hbar")])
    def test_gauss_transform_potential(self, m, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            gauss_transform_potential(HARMONIC, 1.0, m, hbar)


class TestBridges:
    def test_endpoints_pinned(self):
        b = sample_bridge(2.0, 64, seed=5)
        assert b.slices[0] == 0.0 and b.slices[-1] == 0.0
        assert len(b.slices) == 65
        assert b.times()[-1] == 2.0

    def test_path_addressing_deterministic(self):
        # row k of an ensemble equals the path sampled on its own
        for m_slices, n_paths, seed, rows in ((64, 50, 9, (0, 7, 49)),
                                              (16, 41, 3, range(41))):
            ens = sample_bridge_ensemble(2.0, m_slices, n_paths, seed=seed)
            for k in rows:
                single = sample_bridge(2.0, m_slices, seed=seed, path_index=k)
                assert np.array_equal(ens[k], single.slices)

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
        raw = np.empty((300, m_slices - 1))
        normals = _path_normals(m_slices, 4, 0, raw)[:300]
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
    def test_path_normals_follow_the_philox_block_streams(self, k):
        # oracle: path k is row k % 512 of the Gaussian stream of Philox
        # from counter [0, 0, 0, k // 512], over any range that holds it
        seed, m_slices = 9, 64
        gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, k // 512]))
        expected = gen.standard_normal((k % 512 + 1, m_slices - 1))[-1]
        for start, count in [(k, 1), (max(k - 3, 0), 8), (0, k + 1)]:
            out = np.empty((count, m_slices - 1))
            normals = _path_normals(m_slices, seed, start, out)
            assert np.array_equal(normals[k - start], expected)

    def test_bridge_rejects_unpinned(self):
        with pytest.raises(ValueError):
            BridgePath(1.0, np.array([0.0, 0.5, 0.1]))

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_bridge_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            BridgePath(beta, np.zeros(5))


class TestMonteCarlo:
    def test_harmonic_estimate_within_error(self):
        est, stderr = fk_mc_partition(HARMONIC, 2.0, n_paths=20_000, seed=11)
        assert stderr > 0
        assert abs(est - SPECTRAL_HARMONIC) < 5 * stderr

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

    @pytest.mark.parametrize("v", [
        HARMONIC, QUARTIC,
        Potential.from_callable(lambda q: 0.5 * q ** 2, domain=(-9.0, 9.0))])
    def test_path_value_independent_of_surrounding_paths(self, v):
        # a path's value is a function of (seed, path index) alone, whatever
        # block it is computed in and however many paths share the block
        values = _block_sampler(v, 2.0, 1.0, 1.0, 64, seed=5)
        first, second = values(0, 1_000), values(500, 1_000)
        assert np.array_equal(first[500:], second[:500])
        assert np.array_equal(first[3:8], values(3, 5))
        assert np.array_equal(first[7:8], values(7, 1))

    def test_estimate_is_mean_of_path_values(self):
        est, stderr = fk_mc_partition(QUARTIC, 2.0, n_paths=1_500, seed=6)
        y = _block_sampler(QUARTIC, 2.0, 1.0, 1.0, 64, seed=6)(0, 1_500)
        assert est == float(np.mean(y))
        assert stderr == float(np.std(y, ddof=1) / math.sqrt(1_500))

    def test_threads_give_same_bits_under_fast_switching(self):
        # blocks run on two threads; with the interpreter switching threads
        # every microsecond the estimate must still equal the one from a
        # single block computed on this thread
        y = _block_sampler(HARMONIC, 2.0, 1.0, 1.0, 64, seed=12)(0, 5_000)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            est, _ = fk_mc_partition(HARMONIC, 2.0, n_paths=5_000, seed=12)
        finally:
            sys.setswitchinterval(old)
        assert est == float(np.mean(y))

    def test_one_slice_is_classical(self):
        # with one time slice the pinned bridge is identically 0, and every
        # path gives the classical z(beta, 0)
        est, stderr = fk_mc_partition(HARMONIC, 2.0, m_slices=1, n_paths=100)
        assert abs(est - classical_partition(HARMONIC, 2.0, 0.0, 1.0)) < 1e-7
        assert stderr < 1e-12

    def test_callable_matches_polynomial_path(self):
        v = Potential.from_callable(lambda q: 0.5 * q ** 2)
        a = fk_mc_partition(HARMONIC, 2.0, n_paths=2_000, seed=2)
        b = fk_mc_partition(v, 2.0, n_paths=2_000, seed=2)
        assert abs(a[0] - b[0]) < 1e-10


def _gaussian_path_values(coeffs, beta, m, hbar, m_slices, n_paths, seed):
    """Y_k of the quadratic well c0 + c1 q + c2 q^2 from its bridges: the
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
    return np.sqrt(np.pi / a2) * np.exp(a1 ** 2 / (4 * a2) - a0) / lam


class TestQuadraticClosedForm:
    @pytest.mark.parametrize("beta, hbar, m", [
        (2.0, 1.0, 1.0), (2.0, 0.5, 1.0), (2.0, 2.0, 1.0), (2.0, 1.0, 2.0),
        (20.0, 1.0, 1.0)])
    def test_harmonic_matches_callable_grid(self, beta, hbar, m):
        # the closed form and the float64 grid sum agree path by path
        twin = Potential.from_callable(lambda q: 0.5 * q ** 2)
        y = _block_sampler(HARMONIC, beta, m, hbar, 64, seed=3)(0, 1_000)
        grid = _block_sampler(twin, beta, m, hbar, 64, seed=3)(0, 1_000)
        np.testing.assert_allclose(y, grid, rtol=1e-12, atol=0)

    def test_shifted_well_matches_callable_grid(self):
        v = Potential.polynomial((0.3, -0.4, 0.7))
        twin = Potential.from_callable(lambda q: 0.3 - 0.4 * q + 0.7 * q ** 2)
        y = _block_sampler(v, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        grid = _block_sampler(twin, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        np.testing.assert_allclose(y, grid, rtol=1e-12, atol=0)

    def test_quartic_matches_callable_grid(self):
        twin = Potential.from_callable(lambda q: 0.25 * q ** 4)
        y = _block_sampler(QUARTIC, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        grid = _block_sampler(twin, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        np.testing.assert_allclose(y, grid, rtol=1e-12, atol=0)

    def test_domain_keeps_the_grid(self):
        # paths are clipped to the domain as for a callable, and the sum
        # stops at its ends, so the whole-line closed form does not apply
        v = Potential(coeffs=(0.0, 0.0, 0.5), domain=(-3.0, 3.0))
        twin = Potential.from_callable(lambda q: 0.5 * q ** 2, domain=(-3.0, 3.0))
        y = _block_sampler(v, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        grid = _block_sampler(twin, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        np.testing.assert_allclose(y, grid, rtol=1e-12, atol=0)
        whole_line = _gaussian_path_values((0.0, 0.0, 0.5), 2.0, 1.0, 1.0, 64,
                                           1_000, 3)
        assert np.max(np.abs(y / whole_line - 1)) > 1e-3

    def test_trailing_zero_coefficients_take_the_closed_form(self):
        padded = Potential.polynomial((0.0, 0.0, 0.5, 0.0, 0.0))
        y = _block_sampler(padded, 2.0, 1.0, 1.0, 64, seed=3)(0, 1_000)
        assert np.array_equal(y, _block_sampler(HARMONIC, 2.0, 1.0, 1.0, 64,
                                                seed=3)(0, 1_000))

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0, 0.5), (0.0, 0.0, 0.5, 0.0, 0.0), (0.3, -0.4, 0.7)])
    @pytest.mark.parametrize("beta, m_slices", [(2.0, 64), (200.0, 256)])
    def test_matches_gaussian_integral_of_the_bridges(self, coeffs, beta,
                                                      m_slices):
        # at beta = 200 most values underflow to 0 and the rest reach
        # e^{-700}: compare where each is zero, then the exponents
        v = Potential.polynomial(coeffs)
        y = _block_sampler(v, beta, 1.0, 1.0, m_slices, seed=7)(0, 2_000)
        want = _gaussian_path_values(coeffs[:3], beta, 1.0, 1.0, m_slices,
                                     2_000, 7)
        assert np.array_equal(y == 0, want == 0)
        normal = want > np.finfo(float).tiny
        assert normal.sum() >= 40
        np.testing.assert_allclose(np.log(y[normal]), np.log(want[normal]),
                                   rtol=1e-13, atol=0)


class TestBoundsAndTauStar:
    def test_monotonicity_harmonic(self):
        res = monotonicity_check(HARMONIC, 2.0)
        assert res["strictly_decreasing"]
        assert max(res["derivative_relative_errors"]) < 1e-4

    def test_monotonicity_quartic(self):
        res = monotonicity_check(QUARTIC, 2.0)
        assert res["strictly_decreasing"]

    def test_monotonicity_callable_with_domain(self):
        # the derivative identity is checked up to the domain's ends
        v = Potential.from_callable(lambda q: 0.5 * q ** 2, domain=(-8.0, 8.0))
        res = monotonicity_check(v, 1.0)
        assert res["strictly_decreasing"]
        assert max(res["derivative_relative_errors"]) < 1e-8
        narrow = Potential.from_callable(lambda q: 0.5 * q ** 2, domain=(-3.0, 3.0))
        assert monotonicity_check(narrow, 1.0)["strictly_decreasing"]

    def test_tau_star_closed_form(self):
        ts = tau_star(HARMONIC, 2.0, z_target=SPECTRAL_HARMONIC)
        exact = 12.0 * math.log(math.sinh(1.0))
        assert abs(ts - exact) < 1e-6

    def test_tau_star_requires_target(self):
        with pytest.raises(TypeError, match="z_target"):
            tau_star(HARMONIC, 2.0)

    def test_bound_check_report(self):
        rep = bound_check(HARMONIC, 2.0, n_paths=5_000, seed=1)
        d = rep.to_json()
        assert d["z_lower"] <= d["spectral_reference"] <= d["z_upper"]
        assert d["z_lower"] <= d["mc_estimate"] + 5 * d["mc_stderr"]
        assert d["mc_estimate"] - 5 * d["mc_stderr"] <= d["z_upper"]
        assert 0.0 < d["tau_star"] <= 2.0
