"""Two-qubit machinery: Bell states, entropy triangle, the CHSH operator
with its square identity and the Tsirelson bound, Werner states, classical
assignment enumeration, and the 3x3 contextuality square.

Spin components are the dimensionless Pauli matrices throughout.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .moments import entropy
from .operators import (DensityOperator, HermitianOperator, commutator, expectation,
                        partial_trace, tensor)
from .spin import PAULI, SX, SY, SZ, _ID2, _pauli_sum, _unit

__all__ = [
    "CHSHConfig", "EntropyTriangleReport",
    "singlet", "bell_states", "entropy_triangle",
    "chsh_operator", "chsh_value", "werner_state",
    "classical_chsh_enumeration", "mermin_square", "mermin_assignment_search",
    "fig1_config", "random_density", "random_separable",
]

_ID4 = np.eye(4, dtype=complex)
_SEPARABLE_MAX_TERMS = 8  # product states in a random_separable mixture


@dataclass(frozen=True)
class CHSHConfig:
    """Four unit vectors; a, b act on the first qubit, c, d on the second."""

    a: tuple
    b: tuple
    c: tuple
    d: tuple

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, tuple(_unit(getattr(self, name), name)))

    def observables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            tensor(_pauli_sum(0.0, self.a), _ID2),
            tensor(_pauli_sum(0.0, self.b), _ID2),
            tensor(_ID2, _pauli_sum(0.0, self.c)),
            tensor(_ID2, _pauli_sum(0.0, self.d)),
        )


def fig1_config() -> CHSHConfig:
    """Coplanar settings at 45-degree steps; the maximal-violation geometry."""
    s = math.sqrt(0.5)
    return CHSHConfig(a=(0, 1, 0), b=(1, 0, 0), c=(s, s, 0), d=(-s, s, 0))


@dataclass(frozen=True)
class EntropyTriangleReport:
    s: float
    s1: float
    s2: float
    delta_s: float


def singlet() -> DensityOperator:
    """W- = (1/4)(I4 - sum_g S^g x S^g), the rotation-invariant total-spin-0 state."""
    m = _ID4.copy()
    for s in PAULI:
        m -= tensor(s, s)
    return DensityOperator(m / 4.0)


def bell_states() -> tuple[DensityOperator, DensityOperator]:
    """(W+, W-) from the superpositions (e1 x e1 +- e2 x e2)/sqrt(2)."""
    e1 = np.array([1, 0], dtype=complex)
    e2 = np.array([0, 1], dtype=complex)
    out = []
    for sign in (+1, -1):
        phi = (np.kron(e1, e1) + sign * np.kron(e2, e2)) / math.sqrt(2)
        out.append(DensityOperator(np.outer(phi, phi.conj())))
    return out[0], out[1]


def entropy_triangle(w: DensityOperator) -> EntropyTriangleReport:
    s1 = entropy(partial_trace(w, (2, 2), keep=1))  # refuses all but two qubits
    s2 = entropy(partial_trace(w, (2, 2), keep=2))
    s = entropy(w)
    return EntropyTriangleReport(s=s, s1=s1, s2=s2, delta_s=s1 + s2 - s)


def chsh_operator(cfg: CHSHConfig) -> tuple[HermitianOperator, dict]:
    """K = A(C+D) + B(C-D) together with the K^2 = 4I - [A,B][C,D] residual."""
    a, b, c, d = cfg.observables()
    k = a @ (c + d) + b @ (c - d)
    identity_residual = float(np.max(np.abs(
        k @ k - (4 * _ID4 - commutator(a, b) @ commutator(c, d)))))
    evs = np.linalg.eigvalsh(k)
    return HermitianOperator(k), {
        "identity_residual": identity_residual,
        "eigenvalues": evs.tolist(),
    }


def chsh_value(w: DensityOperator, cfg: CHSHConfig) -> float:
    """<K> = tr(WK); bounded by 2*sqrt(2) for any state (Tsirelson)."""
    return expectation(w, chsh_operator(cfg)[0])


def werner_state(x: float) -> DensityOperator:
    """x W- + (1-x) I/4 for x in [0,1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x = {x} outside [0, 1]")
    m = x * singlet().matrix + (1 - x) * _ID4 / 4.0
    return DensityOperator(m)


def classical_chsh_enumeration() -> dict:
    """All 16 value assignments (A,B,C,D) in {-1,1}^4 of K = A(C+D)+B(C-D)."""
    attained = set()
    for a, b, c, d in itertools.product((-1, 1), repeat=4):
        attained.add(a * (c + d) + b * (c - d))
    return {
        "attained_values": sorted(attained),
        "max_abs": max(abs(v) for v in attained),
    }


def mermin_square() -> tuple[tuple, dict]:
    """The 3x3 array of two-qubit spin products and its residuals, each 0
    in exact arithmetic and judged by the caller.

    The parity argument's premises: every entry squares to the identity
    (``square_residual``, the largest |M^2 - I|) and the entries along each
    row and each column commute (``commutator_residual``, the largest
    |[x, y]|).  Its products: each row multiplies to +I
    (``row_<i>_residual``), the columns to +I, +I and -I
    (``col_<j>_residual``)."""
    grid = (
        (tensor(SX, _ID2), tensor(_ID2, SX), tensor(SX, SX)),
        (tensor(_ID2, SY), tensor(SY, _ID2), tensor(SY, SY)),
        (tensor(SX, SY), tensor(SY, SX), tensor(SZ, SZ)),
    )
    cols = list(zip(*grid))

    def _prod(ops):
        out = _ID4
        for m in ops:
            out = out @ m
        return out

    report = {
        "square_residual": max(float(np.max(np.abs(m @ m - _ID4)))
                               for row in grid for m in row),
        "commutator_residual": max(
            float(np.max(np.abs(commutator(x, y))))
            for ops in grid + tuple(cols) for x, y in itertools.combinations(ops, 2)),
    }
    for i, row in enumerate(grid):
        report[f"row_{i}_residual"] = float(np.max(np.abs(_prod(row) - _ID4)))
    for j, col in enumerate(cols[:2]):
        report[f"col_{j}_residual"] = float(np.max(np.abs(_prod(col) - _ID4)))
    report["col_2_residual"] = float(np.max(np.abs(_prod(cols[2]) + _ID4)))
    return grid, report


def mermin_assignment_search(column_targets=(1, 1, -1)) -> dict:
    """Brute-force all 512 sign patterns against the product constraints:
    each row multiplies to +1, column j to ``column_targets[j]``, and a
    column target of None leaves that column unconstrained."""
    count = 0
    for bits in itertools.product((-1, 1), repeat=9):
        g = np.array(bits).reshape(3, 3)
        if all(np.prod(g[i, :]) == 1 for i in range(3)) and \
           all(column_targets[j] is None or np.prod(g[:, j]) == column_targets[j]
               for j in range(3)):
            count += 1
    return {"satisfying_assignments": count}


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Normalized G G-dagger for a complex Ginibre G (reproducible fuzz)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return DensityOperator(0.5 * (m + m.conj().T))


def random_separable(rng: np.random.Generator) -> DensityOperator:
    """Random convex mixture of at most 8 two-qubit product states."""
    n = int(rng.integers(1, _SEPARABLE_MAX_TERMS + 1))
    weights = rng.dirichlet(np.ones(n))
    m = np.zeros((4, 4), dtype=complex)
    for p in weights:
        m += p * tensor(random_density(2, rng), random_density(2, rng))
    return DensityOperator(0.5 * (m + m.conj().T))
