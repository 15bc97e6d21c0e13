"""Spin-1/2 algebra on C^2: Pauli triple, Bloch decompositions, the
projection family, sphere-measure probability assignments, and the
Bell-1966 hidden-variable model.

The spin components here are the dimensionless Pauli matrices (the hbar/2
factor is stripped off), matching their use in the Bell/contextuality
modules.  sgn(0) := 1 throughout; the boundary branch is test-pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import HermitianOperator

__all__ = [
    "SX", "SY", "SZ", "PAULI",
    "SpinObservable", "BlochState", "SphereMeasureFn",
    "spin_matrix", "spin_decompose", "pauli_product", "projection_e",
    "measure_eval", "hv_value", "hv_analytic_expectation", "hv_expectation",
    "hv_consistency",
    "sample_sphere", "linear_fit_residual",
]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SX, SY, SZ)
_ID2 = np.eye(2, dtype=complex)
_ANTISYMMETRY_TOL = 1e-10  # |m(e) + m(-e)| a sphere measure may have
_FIT_DIRECTIONS = 200  # sampled directions in linear_fit_residual
_SPHERE_BLOCK = 1 << 12  # directions drawn and valued at a time


def _sgn(x):
    """Elementwise sign with the convention sgn(0) = 1."""
    return np.where(x >= 0, 1.0, -1.0)


def _pauli_sum(c0: float, v) -> np.ndarray:
    """c0 I + v.S as a 2x2 matrix."""
    return c0 * _ID2 + v[0] * SX + v[1] * SY + v[2] * SZ


def _unit(v, name: str) -> np.ndarray:
    """``v`` as a float array, rejected unless |v| = 1 within 1e-10."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= 1e-10:  # also rejects NaN
        raise ValueError(f"{name} must be a unit vector (|{name}| = {norm})")
    return v


@dataclass(frozen=True)
class SpinObservable:
    """A = a0*I + a.S, the general 2x2 Hermitian observable."""

    a0: float
    a_vec: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "a_vec", tuple(float(x) for x in self.a_vec))

    @property
    def radius(self) -> float:
        return float(np.linalg.norm(self.a_vec))

    def eigenvalues(self) -> tuple[float, float]:
        return (self.a0 - self.radius, self.a0 + self.radius)


@dataclass(frozen=True)
class BlochState:
    """W = (I + p.S)/2 with |p| <= 1; |p| = 1 exactly for pure states."""

    p_vec: tuple[float, float, float]

    def __post_init__(self):
        p = tuple(float(x) for x in self.p_vec)
        object.__setattr__(self, "p_vec", p)
        if np.linalg.norm(p) > 1 + 1e-12:
            raise ValueError(f"Bloch vector has |p| = {np.linalg.norm(p)} > 1")

    def matrix(self) -> np.ndarray:
        return 0.5 * _pauli_sum(1.0, self.p_vec)

    @property
    def is_pure(self) -> bool:
        return abs(np.linalg.norm(self.p_vec) - 1.0) <= 1e-10


@dataclass(frozen=True)
class SphereMeasureFn:
    """Probability measure mu(E) = (1 + m(e))/2 on the C^2 projection lattice.

    ``m`` maps unit 3-vectors into [-1,1] and must be antisymmetric,
    m(-e) = -m(e), so that mu(E) + mu(E_perp) = 1.
    """

    m: object  # callable unit 3-vector -> float

    def __call__(self, e) -> float:
        val = float(self.m(np.asarray(e, dtype=float)))
        if not -1.0 - 1e-12 <= val <= 1.0 + 1e-12:
            raise ValueError(f"m(e) = {val} outside [-1, 1]")
        return val


def spin_matrix(obs: SpinObservable) -> HermitianOperator:
    return HermitianOperator(_pauli_sum(obs.a0, obs.a_vec))


def spin_decompose(a) -> SpinObservable:
    m = HermitianOperator(a, hermiticity_tol=1e-10).matrix
    if m.shape != (2, 2):
        raise ValueError("spin_decompose expects a 2x2 matrix")
    a0 = 0.5 * np.trace(m).real
    a_vec = tuple(0.5 * np.trace(m @ s).real for s in PAULI)
    return SpinObservable(a0=float(a0), a_vec=a_vec)


def pauli_product(a_vec, b_vec) -> tuple[float, np.ndarray]:
    """(a.S)(b.S) = (a.b) I + i (a x b).S; returns (a.b, a x b)."""
    a = np.asarray(a_vec, dtype=float)
    b = np.asarray(b_vec, dtype=float)
    return float(a @ b), np.cross(a, b)


def projection_e(e_vec) -> HermitianOperator:
    """Rank-1 projection E = (I + e.S)/2 for a unit vector e."""
    return HermitianOperator(0.5 * _pauli_sum(1.0, _unit(e_vec, "e")))


def measure_eval(mfn: SphereMeasureFn, e_vec) -> float:
    """mu(E) = (1 + m(e))/2 for the projection direction e."""
    e = _unit(e_vec, "e")
    anti = abs(mfn(e) + mfn(-e))
    if anti > _ANTISYMMETRY_TOL:
        raise ValueError(f"m is not antisymmetric at e (residual {anti:.3e})")
    return 0.5 * (1.0 + mfn(e))


def linear_fit_residual(mfn: SphereMeasureFn, seed: int = 0) -> float:
    """Best rms misfit of m(e) against any linear form p.e over 200 sampled e.

    A state-induced measure fits exactly; the sgn-type measures do not.
    """
    dirs = sample_sphere(_FIT_DIRECTIONS, seed)
    vals = np.array([mfn(d) for d in dirs])
    p, *_ = np.linalg.lstsq(dirs, vals, rcond=None)
    return float(np.sqrt(np.mean((dirs @ p - vals) ** 2)))


def _hv_values(obs: SpinObservable, state: BlochState, omegas: np.ndarray):
    """The hidden-variable value a0 + |a| sgn((p + omega) . a) at each unit
    vector omega, the last axis of ``omegas``."""
    a = np.asarray(obs.a_vec, dtype=float)
    p = np.asarray(state.p_vec, dtype=float)
    return obs.a0 + obs.radius * _sgn((omegas + p) @ a)


def hv_value(obs: SpinObservable, state: BlochState, omega) -> float:
    """Hidden-variable value a0 + |a| sgn((p + omega) . a); always one of
    the two eigenvalues a0 +- |a|."""
    return float(_hv_values(obs, state, _unit(omega, "omega")))


def _sphere_blocks(n: int, seed: int):
    """Yield (rows, directions) for the n directions of sample_sphere,
    _SPHERE_BLOCK at a time from one Philox stream: each block continues the
    stream, so the blocks are the rows of one draw, bit for bit."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    for k0 in range(0, n, _SPHERE_BLOCK):
        v = rng.standard_normal((min(_SPHERE_BLOCK, n - k0), 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        yield slice(k0, k0 + len(v)), v


def sample_sphere(n: int, seed: int) -> np.ndarray:
    """n uniform unit 3-vectors: Gaussian triples from a Philox stream keyed
    by ``seed``, each divided by its norm.  hv_expectation draws the same
    stream in blocks (``_sphere_blocks``) and never holds the (n, 3) array."""
    v = np.empty((n, 3))
    for rows, block in _sphere_blocks(n, seed):
        v[rows] = block
    return v


def hv_analytic_expectation(obs: SpinObservable, state: BlochState) -> float:
    """Closed-form sphere average of the hidden-variable value.

    Reduces to a 1D integral over u = cos(theta) relative to the a
    direction: the sgn average equals the clipped projection of p on a.
    """
    a = np.asarray(obs.a_vec, dtype=float)
    r = obs.radius
    if r == 0.0:
        return obs.a0
    c = float(np.asarray(state.p_vec) @ a) / r  # component of p along a-hat
    # (1/2) * integral_{-1}^{1} sgn(c + u) du is c clipped to [-1, 1]
    return obs.a0 + r * min(max(c, -1.0), 1.0)


def hv_expectation(obs: SpinObservable, state: BlochState,
                   n_samples: int, seed: int) -> dict:
    """Monte Carlo sphere average of the hidden-variable value, with the
    closed-form value alongside.

    The directions are those of ``sample_sphere(n_samples, seed)``, drawn
    and valued a block at a time, so only the n_samples values are held
    (8 bytes each).  The estimate is their np.mean and the stderr their
    np.std(ddof=1) over sqrt(n_samples), bit for bit: the deviations are
    squared in place of the values, not in a copy."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    vals = np.empty(n_samples)
    for rows, omegas in _sphere_blocks(n_samples, seed):
        vals[rows] = _hv_values(obs, state, omegas)
    est = float(np.mean(vals))
    stderr = 0.0
    if n_samples > 1:
        np.square(np.subtract(vals, est, out=vals), out=vals)
        stderr = math.sqrt(float(np.sum(vals)) / (n_samples - 1)) / math.sqrt(n_samples)
    return {
        "estimate": est,
        "stderr": stderr,
        "analytic": hv_analytic_expectation(obs, state),
        "n_samples": n_samples,
        "seed": seed,
    }


def hv_consistency(obs_a: SpinObservable, obs_b: SpinObservable,
                   state: BlochState, omega) -> dict:
    """Additive/multiplicative consistency of the value assignment.

    Exact whenever the two direction vectors are collinear ([A,B] = 0);
    otherwise the violations are expected and their magnitudes reported.
    """
    a = np.asarray(obs_a.a_vec, dtype=float)
    b = np.asarray(obs_b.a_vec, dtype=float)
    collinear = bool(np.linalg.norm(np.cross(a, b)) <= 1e-12 * max(1.0, a @ a, b @ b))
    va = hv_value(obs_a, state, omega)
    vb = hv_value(obs_b, state, omega)

    # sum observable C = A + B
    obs_c = SpinObservable(obs_a.a0 + obs_b.a0, tuple(a + b))
    vc = hv_value(obs_c, state, omega)
    add_violation = abs(vc - (va + vb))

    mul_violation = None
    if collinear:
        # product AB = (a0 b0 + a.b) I + (a0 b + b0 a).S is Hermitian here
        dot, _cross = pauli_product(a, b)
        obs_d = SpinObservable(obs_a.a0 * obs_b.a0 + dot,
                               tuple(obs_a.a0 * b + obs_b.a0 * a))
        vd = hv_value(obs_d, state, omega)
        mul_violation = abs(vd - va * vb)

    return {
        "collinear": collinear,
        "value_a": va,
        "value_b": vb,
        "value_sum": vc,
        "additive_violation": add_violation,
        "multiplicative_violation": mul_violation,
    }
