"""Tests for moment reports, uncertainty relations, collapse and purification."""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from qdesk.moments import (
    MomentReport,
    entropy,
    expectation,
    gibbs_state,
    luders_collapse,
    moments,
    purify,
)
from qdesk.operators import DensityOperator, HermitianOperator, partial_trace


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(HermitianOperator((m + m.conj().T) / 2))


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


class TestExpectation:
    def test_expectation_of_identity(self):
        rng = np.random.default_rng(1)
        w = random_density(4, rng)
        assert abs(expectation(w, HermitianOperator(np.eye(4))) - 1.0) < 1e-12

    def test_expectation_linear(self):
        rng = np.random.default_rng(2)
        w = random_density(3, rng)
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        lhs = expectation(w, HermitianOperator(a.matrix + b.matrix))
        assert abs(lhs - expectation(w, a) - expectation(w, b)) < 1e-12


class TestRobertsonSchroedinger:
    def test_fuzz_inequality_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            w = random_density(dim, rng)
            a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
            rep = moments(w, a, b)
            assert rep.inin_lhs >= rep.inin_rhs - 1e-9

    def test_pure_gaussian_like_qubit_saturation(self):
        # spin coherent state saturates the relation for Sx, Sy
        v = np.array([1.0, 0.0])
        w = DensityOperator(HermitianOperator(np.outer(v, v)))
        sx = HermitianOperator(np.array([[0, 1], [1, 0]], dtype=complex) / 2)
        sy = HermitianOperator(np.array([[0, -1j], [1j, 0]], dtype=complex) / 2)
        rep = moments(w, sx, sy)
        assert abs(rep.inin_lhs - rep.inin_rhs) < 1e-12

    def test_report_json_fields(self):
        rng = np.random.default_rng(6)
        w = random_density(3, rng)
        rep = moments(w, random_hermitian(3, rng), random_hermitian(3, rng))
        d = json.loads(json.dumps(dataclasses.asdict(rep)))
        for key in ("mean_a", "mean_b", "var_a", "var_b", "covariance",
                    "correlation", "commutator_expectation",
                    "inin_lhs", "inin_rhs"):
            assert key in d

    def test_report_returns_violation(self):
        # the inequality is judged by its checkers, not by the report
        rep = MomentReport(mean_a=0.0, mean_b=0.0, var_a=0.1, var_b=0.1,
                           covariance=0.0, correlation=0.0,
                           commutator_expectation=1.0,
                           inin_lhs=0.01, inin_rhs=0.25)
        assert rep.inin_lhs < rep.inin_rhs - 1e-9

    def test_moments_returns_forced_violation(self, monkeypatch):
        module = sys.modules["qdesk.moments"]
        original = module.standardized_commutator
        monkeypatch.setattr(module, "standardized_commutator",
                            lambda a, b, hbar: 100 * original(a, b, hbar))
        rng = np.random.default_rng(5)
        w = random_density(3, rng)
        rep = moments(w, random_hermitian(3, rng), random_hermitian(3, rng))
        assert rep.inin_lhs < rep.inin_rhs - 1e-9

    @pytest.mark.parametrize("hbar", [math.nan, math.inf, 0.0])
    def test_rejects_invalid_hbar(self, hbar):
        rng = np.random.default_rng(0)
        w = random_density(2, rng)
        with pytest.raises(ValueError, match="hbar must be finite and positive"):
            moments(w, random_hermitian(2, rng), random_hermitian(2, rng), hbar=hbar)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="negative variance"):
            MomentReport(mean_a=0.0, mean_b=0.0, var_a=-0.1, var_b=0.1,
                         covariance=0.0, correlation=None,
                         commutator_expectation=0.0,
                         inin_lhs=-0.01, inin_rhs=0.0)


class TestEntropyAndGibbs:
    def test_entropy_of_pure_state_zero(self):
        v = np.array([1.0, 1j]) / np.sqrt(2)
        w = DensityOperator(HermitianOperator(np.outer(v, v.conj())))
        assert abs(entropy(w)) < 1e-12

    def test_entropy_of_maximally_mixed(self):
        w = DensityOperator(HermitianOperator(np.eye(4) / 4))
        assert abs(entropy(w) - np.log(4)) < 1e-12
        assert entropy(w.matrix) == entropy(w)

    def test_gibbs_state_two_level(self):
        h = HermitianOperator(np.diag([0.0, 1.0]))
        beta = 1.3
        w = gibbs_state(h, beta)
        z = 1 + np.exp(-beta)
        assert abs(w.matrix[0, 0].real - 1 / z) < 1e-12
        assert abs(w.matrix[1, 1].real - np.exp(-beta) / z) < 1e-12

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1.0])
    def test_gibbs_state_rejects_invalid_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            gibbs_state(HermitianOperator(np.diag([0.0, 1.0])), beta)


class TestCollapse:
    def test_luders_on_diagonal_state(self):
        w = DensityOperator(HermitianOperator(np.diag([0.25, 0.75])))
        e = np.diag([1.0, 0.0]).astype(complex)
        post = luders_collapse(w, e)
        assert np.max(np.abs(post.matrix - np.diag([1.0, 0.0]))) < 1e-12

    def test_luders_impossible_outcome_raises(self):
        v = np.array([1.0, 0.0])
        w = DensityOperator(HermitianOperator(np.outer(v, v)))
        e = np.diag([0.0, 1.0]).astype(complex)
        with pytest.raises(ValueError):
            luders_collapse(w, e)


class TestPurification:
    def test_roundtrip_fuzz(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            w = random_density(dim, rng)
            phi = purify(w)
            red = partial_trace(np.outer(phi, phi.conj()), (dim, dim), keep=1)
            assert np.max(np.abs(red - w.matrix)) < 1e-10

    def test_purified_vector_is_normalized(self):
        rng = np.random.default_rng(10)
        w = random_density(3, rng)
        psi = purify(w)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12
