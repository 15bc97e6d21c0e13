"""Tests for spin-1/2 observables, Bloch states, and hidden-variable models."""

import math

import numpy as np
import pytest

from qdesk.spin import (
    BlochState,
    SphereMeasureFn,
    SpinObservable,
    _SPHERE_BLOCK,
    _hv_values,
    _sgn,
    hv_analytic_expectation,
    hv_consistency,
    hv_expectation,
    hv_value,
    linear_fit_residual,
    measure_eval,
    pauli_product,
    projection_e,
    sample_sphere,
    spin_decompose,
    spin_matrix,
)


def random_unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestAlgebra:
    def test_spin_matrix_roundtrip_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a0 = float(rng.standard_normal())
            a = rng.standard_normal(3)
            obs = SpinObservable(a0, a)
            dec = spin_decompose(spin_matrix(obs))
            assert abs(dec.a0 - a0) < 1e-12
            assert np.max(np.abs(np.array(dec.a_vec) - a)) < 1e-12

    def test_pauli_product_identity(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        dot, cross = pauli_product(a, b)
        lhs = (spin_matrix(SpinObservable(0.0, a)).matrix
               @ spin_matrix(SpinObservable(0.0, b)).matrix)
        rhs = (dot * np.eye(2)
               + 1j * spin_matrix(SpinObservable(0.0, cross)).matrix)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_observable_eigenvalues(self):
        obs = SpinObservable(1.0, np.array([0.0, 0.0, 2.0]))
        assert np.allclose(sorted(obs.eigenvalues()), [-1.0, 3.0])

    def test_projection_is_projection(self):
        rng = np.random.default_rng(3)
        e = random_unit(rng)
        p = projection_e(e).matrix
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert abs(np.trace(p).real - 1.0) < 1e-12


@pytest.mark.parametrize("vec", [(0.0, 0.0, 1.1), (0.0, 0.0, float("nan"))])
@pytest.mark.parametrize("use", [
    projection_e,
    lambda e: measure_eval(SphereMeasureFn(lambda x: _sgn(x[2])), e),
    lambda e: hv_value(SpinObservable(0.0, (0.0, 0.0, 1.0)),
                       BlochState((0.0, 0.0, 0.0)), e),
], ids=["projection_e", "measure_eval", "hv_value"])
def test_direction_must_be_unit(use, vec):
    with pytest.raises(ValueError, match="unit vector"):
        use(np.array(vec))


class TestBlochState:
    def test_rejects_outside_ball(self):
        with pytest.raises(ValueError):
            BlochState(np.array([1.0, 1.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"\|p\| <= 1"):
            BlochState((np.nan, 0.0, 0.0))

    def test_pure_detection(self):
        assert BlochState(np.array([0.0, 0.0, 1.0])).is_pure
        assert not BlochState(np.array([0.0, 0.0, 0.5])).is_pure

    def test_matrix_trace_and_psd(self):
        w = BlochState(np.array([0.3, -0.2, 0.4])).matrix()
        assert abs(np.trace(w).real - 1.0) < 1e-12
        assert np.min(np.linalg.eigvalsh(w)) > -1e-12


class TestSphereMeasure:
    def test_sgn_boundary_convention(self):
        assert _sgn(0.0) == 1.0
        assert _sgn(1e-30) == 1.0
        assert _sgn(-1e-30) == -1.0
        assert _sgn(np.array([-1e-30, 0.0, 1e-30])).tolist() == [-1.0, 1.0, 1.0]

    def test_measure_eval_range(self):
        mfn = SphereMeasureFn(lambda e: _sgn(e[2]))
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = measure_eval(mfn, random_unit(rng))
            assert v in (0.0, 1.0)

    def test_measure_rejects_non_antisymmetric(self):
        mfn = SphereMeasureFn(lambda e: 1.0)
        with pytest.raises(ValueError):
            measure_eval(mfn, np.array([0.0, 0.0, 1.0]))

    def test_sgn_measure_not_linear(self):
        mfn = SphereMeasureFn(lambda e: _sgn(e[2]))
        assert linear_fit_residual(mfn) > 0.1


class TestHiddenVariable:
    def test_hv_value_is_an_eigenvalue(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            obs = SpinObservable(float(rng.standard_normal()), rng.standard_normal(3))
            state = BlochState(0.9 * random_unit(rng) * rng.random())
            omega = random_unit(rng)
            v = hv_value(obs, state, omega)
            assert min(abs(v - ev) for ev in obs.eigenvalues()) < 1e-12

    def test_hv_expectation_matches_analytic(self):
        rng = np.random.default_rng(6)
        obs = SpinObservable(0.5, np.array([0.0, 0.0, 1.0]))
        state = BlochState(np.array([0.0, 0.0, 0.4]))
        res = hv_expectation(obs, state, n_samples=200_000, seed=17)
        assert abs(res["estimate"] - res["analytic"]) < 4 * res["stderr"]
        assert abs(res["analytic"] - hv_analytic_expectation(obs, state)) < 1e-14

    def test_hv_value_and_expectation_share_the_rule(self):
        obs = SpinObservable(0.3, np.array([1.0, -2.0, 0.5]))
        state = BlochState(np.array([0.1, 0.2, -0.3]))
        omegas = sample_sphere(1000, seed=4)
        vals = _hv_values(obs, state, omegas)
        assert [hv_value(obs, state, om) for om in omegas] == vals.tolist()
        res = hv_expectation(obs, state, n_samples=1000, seed=4)
        assert res["estimate"] == float(np.mean(vals))

    def test_hv_value_on_the_boundary_is_the_upper_eigenvalue(self):
        # (p + omega) . a = 0 exactly: sgn(0) = 1
        obs = SpinObservable(0.25, np.array([0.0, 0.0, 2.0]))
        state = BlochState(np.array([0.0, 0.0, 0.0]))
        assert hv_value(obs, state, np.array([1.0, 0.0, 0.0])) == 2.25

    @pytest.mark.parametrize("a_vec,p_vec,expected", [
        ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5), 0.7),
        ((0.0, 0.0, 2.0), (0.0, 0.0, 1.0), 2.7),
        ((0.0, 0.0, 2.0), (0.0, 0.0, 1.0 + 5e-13), 2.7),
        ((0.0, 3.0, 0.0), (0.0, -1.0, 0.0), -2.3),
        ((0.0, 3.0, 0.0), (0.0, -1.0 - 5e-13, 0.0), -2.3),
    ], ids=["zero_radius", "c_one", "c_above_one", "c_minus_one", "c_below_minus_one"])
    def test_analytic_expectation_at_the_ends(self, a_vec, p_vec, expected):
        # a0 + |a| clip(c, -1, 1) with c = p . a / |a|: a0 itself at a = 0,
        # and at a pure state along +-a the eigenvalue a0 +- |a|, not beyond
        obs = SpinObservable(0.7, np.array(a_vec))
        assert hv_analytic_expectation(obs, BlochState(np.array(p_vec))) == expected

    def test_expectation_rejects_no_samples(self):
        obs = SpinObservable(0.0, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            hv_expectation(obs, BlochState(np.zeros(3)), n_samples=0, seed=0)

    def test_hv_expectation_deterministic(self):
        obs = SpinObservable(0.0, np.array([1.0, 0.0, 0.0]))
        state = BlochState(np.array([0.2, 0.0, 0.0]))
        a = hv_expectation(obs, state, n_samples=10_000, seed=3)
        b = hv_expectation(obs, state, n_samples=10_000, seed=3)
        assert a["estimate"] == b["estimate"]

    @pytest.mark.parametrize("n", [
        1, 2, _SPHERE_BLOCK - 1, _SPHERE_BLOCK, _SPHERE_BLOCK + 1, 100_000])
    def test_blocks_give_the_mean_and_std_of_one_draw(self, n):
        # the directions come a block at a time and the deviations are
        # squared in place: still np.mean and np.std over one array
        obs = SpinObservable(-0.4, np.array([0.3, -1.2, 0.8]))
        state = BlochState(np.array([0.2, 0.1, -0.5]))
        vals = _hv_values(obs, state, sample_sphere(n, seed=9))
        res = hv_expectation(obs, state, n_samples=n, seed=9)
        assert res["estimate"] == float(np.mean(vals))
        std = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        assert res["stderr"] == std

    @pytest.mark.parametrize("n", [
        0, 1, _SPHERE_BLOCK - 1, _SPHERE_BLOCK, _SPHERE_BLOCK + 1, 3 * _SPHERE_BLOCK + 5])
    def test_sample_sphere_is_one_draw(self, n):
        rng = np.random.Generator(np.random.Philox(key=5))
        v = rng.standard_normal((n, 3))
        expected = v / np.linalg.norm(v, axis=1, keepdims=True)
        assert np.array_equal(sample_sphere(n, seed=5), expected)

    def test_sample_sphere_unit_norm(self):
        pts = sample_sphere(1000, seed=1)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-12

    def test_consistency_collinear_observables(self):
        a = SpinObservable(0.3, np.array([0.0, 1.0, 0.0]))
        b = SpinObservable(-0.1, np.array([0.0, 2.0, 0.0]))
        state = BlochState(np.array([0.1, 0.2, 0.3]))
        res = hv_consistency(a, b, state, np.array([0.0, 1.0, 0.0]))
        assert res["collinear"]
        assert res["additive_violation"] < 1e-12
        assert res["multiplicative_violation"] < 1e-12
