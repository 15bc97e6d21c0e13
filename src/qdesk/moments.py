"""Statistical layer: expectations, variances, covariances, the
Robertson-Schroedinger inequality, entropies, Gibbs states, collapse and
purification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    DensityOperator,
    _as_matrix,
    _certified,
    _check_projection,
    _require_positive,
    eigh,
    standardized_commutator,
)

__all__ = [
    "MomentReport",
    "expectation",
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


def expectation(w: DensityOperator, a) -> float:
    """tr(WA), with a guard on the imaginary rounding residue."""
    wm, am = _as_matrix(w), _as_matrix(a)
    if wm.shape != am.shape:
        raise ValueError("dimension mismatch between state and observable")
    val = complex(np.trace(wm @ am))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


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
    return DensityOperator(0.5 * (m + m.conj().T))  # exactly Hermitian


def luders_collapse(w: DensityOperator, e) -> DensityOperator:
    """State update W -> EWE / tr(WE) after observing the event E, which
    must be a projection (Hermitian and idempotent) with tr(WE) > 1e-12."""
    em = _as_matrix(e)
    _check_projection(em, "E")
    prob = float(np.trace(w.matrix @ em).real)
    if prob <= _COLLAPSE_TOL:
        raise ValueError(f"impossible outcome: tr(WE) = {prob:.3e} <= {_COLLAPSE_TOL:.0e}")
    m = em @ w.matrix @ em / prob
    return DensityOperator(0.5 * (m + m.conj().T), trace_tol=1e-8)  # exactly Hermitian


def purify(w: DensityOperator) -> np.ndarray:
    """Pure vector on the doubled space whose first reduction is W."""
    res = eigh(w)
    d = w.dim
    phi = np.zeros(d * d, dtype=complex)
    for lam, vec in zip(res.eigenvalues, res.eigenvectors.T):
        if lam > 0:
            phi += math.sqrt(lam) * np.kron(vec, vec)
    phi /= np.linalg.norm(phi)
    return phi
