"""Tests for bipartite correlation bounds and the operator square identities."""

import numpy as np
import pytest

import qdesk.bell as bell
from qdesk.bell import (
    CHSHConfig,
    bell_states,
    chsh_operator,
    chsh_value,
    classical_chsh_enumeration,
    entropy_triangle,
    fig1_config,
    mermin_assignment_search,
    mermin_square,
    random_density,
    random_separable,
    singlet,
    werner_state,
)
from qdesk.operators import DensityOperator, HermitianOperator

TSIRELSON = 2 * np.sqrt(2)


def random_config(rng):
    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)
    return CHSHConfig(unit(), unit(), unit(), unit())


class TestCHSH:
    def test_fig1_singlet_saturates_tsirelson(self):
        val = chsh_value(singlet(), fig1_config())
        assert abs(val + TSIRELSON) < 1e-12

    def test_closed_form_matches_operator_value(self):
        # the singlet expectation of K is -a.c - a.d - b.c + b.d
        rng = np.random.default_rng(1)
        for _ in range(30):
            cfg = random_config(rng)
            a, b, c, d = (np.asarray(v) for v in (cfg.a, cfg.b, cfg.c, cfg.d))
            val = chsh_value(singlet(), cfg)
            assert abs(val - (-a @ c - a @ d - b @ c + b @ d)) < 1e-12

    def test_square_identity_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            _, info = chsh_operator(random_config(rng))
            assert info["identity_residual"] < 1e-12

    def test_eigenvalues_within_tsirelson(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            _, info = chsh_operator(random_config(rng))
            assert np.max(np.abs(info["eigenvalues"])) <= TSIRELSON + 1e-10

    def test_quantum_fuzz_within_tsirelson(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            val = chsh_value(random_density(4, rng), random_config(rng))
            assert abs(val) <= TSIRELSON + 1e-10

    def test_separable_fuzz_within_classical_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            val = chsh_value(random_separable(rng), random_config(rng))
            assert abs(val) <= 2.0 + 1e-9

    def test_value_returned_beyond_tsirelson(self, monkeypatch):
        original = bell.chsh_operator

        def doubled(cfg):
            k, info = original(cfg)
            return HermitianOperator(2 * k.matrix), info

        monkeypatch.setattr(bell, "chsh_operator", doubled)
        val = chsh_value(singlet(), fig1_config())
        assert abs(val + 2 * TSIRELSON) < 1e-12

    def test_classical_enumeration(self):
        res = classical_chsh_enumeration()
        assert set(res["attained_values"]) == {-2.0, 2.0}
        assert res["max_abs"] == 2.0

    def test_werner_state_crossover(self):
        cfg = fig1_config()
        assert abs(chsh_value(werner_state(1.0), cfg) + TSIRELSON) < 1e-12
        x = 1 / np.sqrt(2)
        assert abs(chsh_value(werner_state(x), cfg) + 2.0) < 1e-12
        assert abs(chsh_value(werner_state(0.5), cfg)) < 2.0


class TestEntropyTriangle:
    def test_bell_state_entropies(self):
        for w in bell_states():
            rep = entropy_triangle(w)
            assert abs(rep.s) < 1e-10
            assert abs(rep.s1 - np.log(2)) < 1e-10
            assert abs(rep.s2 - np.log(2)) < 1e-10
            assert abs(rep.delta_s - 2 * np.log(2)) < 1e-10

    def test_triangle_inequality_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            rep = entropy_triangle(random_density(4, rng))
            assert abs(rep.s1 - rep.s2) <= rep.s + 1e-9
            assert rep.s <= rep.s1 + rep.s2 + 1e-9

    def test_report_returns_forced_violation(self, monkeypatch):
        # pure reductions of the maximally mixed state: S > S1 + S2
        pure = np.diag([1.0, 0.0]).astype(complex)
        monkeypatch.setattr(bell, "partial_trace", lambda m, dims, keep: pure)
        rep = entropy_triangle(DensityOperator(HermitianOperator(np.eye(4) / 4)))
        assert rep.s > rep.s1 + rep.s2 + 1e-9
        assert rep.delta_s < -1e-9

    def test_product_state_additivity(self):
        rng = np.random.default_rng(9)
        wa, wb = random_density(2, rng), random_density(2, rng)
        joint = DensityOperator(HermitianOperator(np.kron(wa.matrix, wb.matrix)))
        rep = entropy_triangle(joint)
        assert abs(rep.s - rep.s1 - rep.s2) < 1e-9


class TestMermin:
    def test_square_identities(self):
        _, report = mermin_square()
        for key, val in report.items():
            assert val < 1e-12, key

    def test_no_classical_assignment(self):
        res = mermin_assignment_search()
        assert res["satisfying_assignments"] == 0

    def test_relaxed_constraints_admit_assignment(self):
        res = mermin_assignment_search(column_targets=(1, 1, None))
        assert res["satisfying_assignments"] > 0


class TestHelpers:
    def test_config_rejects_non_unit(self):
        with pytest.raises(ValueError):
            CHSHConfig(np.array([0.0, 2.0, 0.0]), np.array([1.0, 0.0, 0.0]),
                       np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_werner_state_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            werner_state(1.5)

    def test_random_separable_is_valid_state(self):
        rng = np.random.default_rng(10)
        w = random_separable(rng)
        assert abs(np.trace(w.matrix).real - 1.0) < 1e-10
        assert np.min(np.linalg.eigvalsh(w.matrix)) > -1e-10
