"""Tests for the dense operator layer."""

import numpy as np
import pytest

from qdesk.operators import (
    DensityOperator,
    HermitianOperator,
    anticommutator,
    commutator,
    eigh,
    func_of,
    gleason_additivity_check,
    lattice_meet,
    partial_trace,
    standardized_commutator,
    tensor,
)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(HermitianOperator((m + m.conj().T) / 2))


def random_orthobasis(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = np.linalg.qr(g)[0]
    return [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]


class TestContainers:
    def test_hermitian_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_hermitian_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_hermitian_accepts_transposed_view(self):
        m = random_hermitian(3, np.random.default_rng(5)).matrix
        assert np.array_equal(HermitianOperator(m.T).matrix, m.T)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(HermitianOperator(np.eye(2)))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityOperator(HermitianOperator(m))

    def test_density_accepts_pure_state(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        w = DensityOperator(HermitianOperator(np.outer(v, v.conj())))
        assert w.dim == 2


class TestSpectral:
    def test_eigh_reconstruct_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            a = random_hermitian(dim, rng)
            res = eigh(a)
            assert np.max(np.abs(res.reconstruct() - a.matrix)) < 1e-10
            assert np.all(np.diff(res.eigenvalues) >= 0)

    def test_eigh_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_func_of_exponential(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(4, rng)
        res = eigh(func_of(a, np.exp))
        expected = np.sort(np.exp(np.linalg.eigvalsh(a.matrix)))
        assert np.allclose(res.eigenvalues, expected, atol=1e-10)

    def test_func_of_identity_function(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(3, rng)
        b = func_of(a, lambda x: x)
        assert np.max(np.abs(b.matrix - a.matrix)) < 1e-10

    def test_func_of_domain_error(self):
        a = HermitianOperator(np.diag([1.0, -1.0]))
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="undefined at eigenvalue"):
                func_of(a, np.log)


class TestAlgebra:
    def test_commutator_antisymmetry(self):
        rng = np.random.default_rng(11)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        assert np.max(np.abs(commutator(a, b) + commutator(b, a))) < 1e-12

    def test_anticommutator_symmetry(self):
        rng = np.random.default_rng(12)
        a, b = random_hermitian(4, rng), random_hermitian(4, rng)
        assert np.max(np.abs(anticommutator(a, b) - anticommutator(b, a))) < 1e-12

    def test_standardized_commutator_hermitian(self):
        rng = np.random.default_rng(13)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        c = standardized_commutator(a, b, hbar=0.7)
        assert np.max(np.abs(c - c.conj().T)) < 1e-12

    def test_commutator_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(np.eye(2), np.eye(3))

    def test_tensor_partial_trace_roundtrip(self):
        rng = np.random.default_rng(14)
        wa = random_density(2, rng)
        wb = random_density(3, rng)
        joint = tensor(wa, wb)
        assert np.max(np.abs(partial_trace(joint, (2, 3), keep=1) - wa.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, (2, 3), keep=2) - wb.matrix)) < 1e-12

    def test_partial_trace_preserves_trace(self):
        rng = np.random.default_rng(15)
        w = random_density(6, rng)
        red = partial_trace(w.matrix, (2, 3), keep=1)
        assert abs(np.trace(red).real - 1.0) < 1e-12


class TestLatticeMeet:
    def test_meet_of_commuting_projections(self):
        e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        f = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
        g = lattice_meet(e, f)
        assert np.max(np.abs(g - np.diag([0.0, 1.0, 0.0, 0.0]))) < 1e-8

    def test_meet_of_disjoint_ranges_is_zero(self):
        # two different rank-1 lines in C^2 intersect only at {0}
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1.0]) / np.sqrt(2)
        e = np.outer(v1, v1).astype(complex)
        f = np.outer(v2, v2).astype(complex)
        g = lattice_meet(e, f)
        assert np.max(np.abs(g)) < 1e-6

    def test_meet_rejects_non_projection(self):
        with pytest.raises(ValueError, match="idempotent"):
            lattice_meet(0.5 * np.eye(2, dtype=complex), np.eye(2, dtype=complex))


class TestGleason:
    def test_additivity_over_random_bases(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 4):
            for _ in range(10):
                w = random_density(dim, rng)
                res = gleason_additivity_check(w, random_orthobasis(dim, rng))
                assert res["residual"] < 1e-10
                assert abs(res["mu_of_sum"] - 1.0) < 1e-10
                assert all(-1e-10 <= mu <= 1 + 1e-10 for mu in res["mu_values"])

    def test_rejects_non_orthogonal_family(self):
        v1 = np.array([1.0, 0.0])
        v2 = np.array([1.0, 1.0]) / np.sqrt(2)
        w = DensityOperator(HermitianOperator(np.eye(2) / 2))
        with pytest.raises(ValueError, match="not orthogonal"):
            gleason_additivity_check(
                w, [np.outer(v1, v1).astype(complex), np.outer(v2, v2).astype(complex)])
