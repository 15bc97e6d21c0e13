"""Statistical layer on ``operators.expectation``: variances, covariances,
the Robertson-Schroedinger inequality, entropies, Gibbs states, collapse
and purification.  A state may be a ``DensityOperator`` or a plain matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    _as_matrix,
    _certified,
    _hermitian_part,
    _projection,
    _require_positive,
    eigh,
    expectation,
    standardized_commutator,
)

__all__ = [
    "MomentReport",
    "moments",
    "entropy",
    "gibbs_state",
    "luders_collapse",
    "purify",
]

_COLLAPSE_TOL = 1e-12  # tr(WE) at or below it is an impossible outcome


@dataclass(frozen=True)
class MomentReport:
    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    covariance: float
    correlation: float | None  # None when sigma_a * sigma_b == 0
    commutator_expectation: float
    inin_lhs: float
    inin_rhs: float


def moments(w: DensityOperator, a, b, hbar: float = 1.0) -> MomentReport:
    """Means, variances, covariance, correlation and both sides of the
    variance indeterminacy inequality for a pair of observables.

    ``a`` and ``b`` are certified Hermitian as ``eigh`` certifies its input;
    ``w`` is not.  A variance in (-1e-12, 0) is rounding and is reported as
    0; one at or below -1e-12 is reported as it is, for the caller's check."""
    _require_positive(hbar=hbar)
    am, bm = _certified(a).matrix, _certified(b).matrix
    mean_a = expectation(w, am)
    mean_b = expectation(w, bm)
    var_a = expectation(w, am @ am) - mean_a ** 2
    var_b = expectation(w, bm @ bm) - mean_b ** 2
    cov = 0.5 * expectation(w, am @ bm + bm @ am) - mean_a * mean_b
    cexp = expectation(w, standardized_commutator(am, bm, hbar))
    var_a = max(var_a, 0.0) if var_a > -1e-12 else var_a
    var_b = max(var_b, 0.0) if var_b > -1e-12 else var_b
    sig = math.sqrt(max(var_a, 0.0) * max(var_b, 0.0))
    corr = None if sig == 0.0 else float(np.clip(cov / sig, -1.0, 1.0))
    return MomentReport(
        mean_a=mean_a,
        mean_b=mean_b,
        var_a=var_a,
        var_b=var_b,
        covariance=cov,
        correlation=corr,
        commutator_expectation=cexp,
        inin_lhs=var_a * var_b,
        inin_rhs=cov ** 2 + hbar ** 2 / 4 * cexp ** 2,
    )


def entropy(w) -> float:
    """von Neumann entropy -tr(W ln W), with 0 ln 0 := 0, of a density
    operator or of a matrix, which is first certified Hermitian within 1e-10."""
    evs = np.clip(np.linalg.eigvalsh(_certified(w, hermiticity_tol=1e-10).matrix), 0.0, None)
    pos = evs[evs > 0]
    return float(-np.sum(pos * np.log(pos)))


def gibbs_state(h, beta: float) -> DensityOperator:
    """exp(-beta H) / tr exp(-beta H), overflow-guarded by an energy shift."""
    _require_positive(beta=beta)
    res = eigh(h)
    shifted = -beta * (res.eigenvalues - res.eigenvalues.min())
    pops = np.exp(shifted)
    pops /= pops.sum()
    m = (res.eigenvectors * pops) @ res.eigenvectors.conj().T
    return DensityOperator(_hermitian_part(m))


def luders_collapse(w: DensityOperator, e) -> DensityOperator:
    """State update W -> EWE / tr(WE) after observing the event E, which
    must be a projection (Hermitian and idempotent) with tr(WE) > 1e-12."""
    em = _projection(e, "E")
    prob = expectation(w, em)
    if prob <= _COLLAPSE_TOL:
        raise ValueError(f"impossible outcome: tr(WE) = {prob:.3e} <= {_COLLAPSE_TOL:.0e}")
    m = em @ _as_matrix(w) @ em / prob
    return DensityOperator(_hermitian_part(m), trace_tol=1e-8)


def purify(w: DensityOperator) -> np.ndarray:
    """Pure vector on the doubled space whose first reduction is W."""
    res = eigh(w)
    d = len(res.eigenvalues)
    phi = np.zeros(d * d, dtype=complex)
    for lam, vec in zip(res.eigenvalues, res.eigenvectors.T):
        if lam > 0:
            phi += math.sqrt(lam) * np.kron(vec, vec)
    phi /= np.linalg.norm(phi)
    return phi
