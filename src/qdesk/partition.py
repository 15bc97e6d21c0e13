"""Deterministic references for tr e^{-beta H} with H = P^2/(2m) + v(Q).

Replacing v in the Feynman-Kac trace formula by its Gauss transform v_tau
and dropping the path integral yields the sandwich
    z(beta, beta) <= tr e^{-beta H} <= z(beta, 0),
where z(beta, tau) = (1/lambda) int dq e^{-beta v_tau(q)} and
lambda = sqrt(2 pi beta hbar^2 / m).  z is strictly decreasing in tau for
non-constant potentials, so a unique tau*(beta) in (0, beta]
reproduces the exact trace.  The spectral reference sums e^{-beta E_k} over
the eigenvalues of the Fourier-grid Hamiltonian.  The Monte Carlo estimate
of the trace is in ``feynman_kac``.

Every partition value is returned as its natural log, which cannot leave
the float range: ln sum e^{-x} = ln(sum of ``_peak_weights``, at least 1) - min x.

Only confining polynomial potentials are supported; the general validity
conditions of the trace formula are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _one_blas_thread, _require_positive
from .phasespace import GridSpec, grid_hamiltonian

__all__ = [
    "Potential", "gauss_transform_potential", "classical_partition",
    "spectral_partition", "tau_star", "monotonicity_check",
]

_BOX_EXPONENT = 720.0  # a classical box ends e^{-720} below e^{-beta v(0)}
_WEIGHT_FLOOR = 700.0  # e^{-700} ~ 1e-304 floors a weight clear of subnormals


@dataclass(frozen=True)
class Potential:
    """Polynomial potential energy on the whole real line, by its ascending
    coefficients."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs or not all(map(math.isfinite, coeffs)):
            raise ValueError(f"a potential needs at least one coefficient, all finite: {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        return cls(tuple(coeffs))

    def __call__(self, q):
        return np.polyval(self.coeffs[::-1], np.asarray(q, dtype=float))

    def derivative(self) -> "Potential":
        return Potential(tuple(i * c for i, c in enumerate(self.coeffs) if i) or (0.0,))


def gauss_transform_potential(v: Potential, tau: float, m: float,
                              hbar: float = 1.0) -> Potential:
    """Heat-semigroup smoothing v_tau = exp((tau hbar^2/24m) d^2/dq^2) v,
    i.e. E[v(q + xi sqrt(s))] with xi standard normal and
    s = tau hbar^2 / (12 m)."""
    _require_positive(m=m, hbar=hbar)
    if not 0 <= tau < math.inf:  # also rejects NaN
        raise ValueError(f"tau must be nonnegative and finite, got {tau!r}")
    if tau == 0:
        return v
    s = tau * hbar ** 2 / (12 * m)
    out = [0.0] * len(v.coeffs)
    for i, ci in enumerate(v.coeffs):
        if ci == 0:
            continue
        for j in range(0, i + 1, 2):
            mom = math.prod(range(j - 1, 0, -2))  # E[xi^j] = (j-1)!!
            out[i - j] += ci * math.comb(i, j) * mom * s ** (j / 2)
    return Potential(tuple(out))


def _decay_radius(v: Potential, beta: float, floor: float = _BOX_EXPONENT,
                  bisect: bool = False) -> float:
    """Radius beyond which e^{-beta v} drops under e^{-floor} of its value
    at q = 0: the first power of two past it or, with ``bisect``, the
    crossing inside [r/2, r] to 0.1%.  Measured from v(0), the radius does
    not move when a constant is added to v."""
    v0 = float(v(0.0))

    def decayed(r: float) -> bool:
        return beta * (min(float(v(r)), float(v(-r))) - v0) > floor

    r = 1.0
    while not decayed(r):
        r *= 2
        if r >= 2.0 ** 40:
            raise ValueError("divergent integral: e^{-beta v} does not decay")
    lo = r / 2
    while bisect and r - lo > 1e-3 * r:
        mid = (lo + r) / 2
        if decayed(mid):
            r = mid
        else:
            lo = mid
    return r


def _thermal_lambda(beta: float, m: float, hbar: float) -> float:
    return math.sqrt(2 * math.pi * beta * hbar ** 2 / m)


def _peak_weights(x: np.ndarray, out: np.ndarray | None = None) -> tuple:
    """e^{-(x - min x)} along the last axis, floored at e^{-700} (exp is 3-4x
    slower on subnormals), into ``out`` if given (``x`` itself may be it),
    and min x: weights that sum to >= 1 without overflowing."""
    low = x.min(axis=-1, keepdims=True)
    out = np.subtract(low, x, out=out)
    np.maximum(out, -_WEIGHT_FLOOR, out=out)
    np.exp(out, out=out)
    return out, low[..., 0]


def _boltzmann_integrand(vt: Potential, beta: float) -> tuple:
    """8193 q-nodes out to where e^{-beta v_tau} has fallen e^{-720} below
    its value at q = 0, and ``_peak_weights`` of beta v_tau on them."""
    r = _decay_radius(vt, beta)
    q = np.linspace(-r, r, 8193)
    return (q, *_peak_weights(beta * vt(q)))


def classical_partition(v: Potential, beta: float, tau: float, m: float,
                        hbar: float = 1.0) -> float:
    """ln z(beta, tau) of the (pseudo-)classical partition function
    z(beta, tau) = (1/lambda) int dq e^{-beta v_tau(q)}, integrated relative
    to its peak."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    vt = gauss_transform_potential(v, tau, m, hbar)
    q, weights, low = _boltzmann_integrand(vt, beta)
    z = float(np.trapezoid(weights, q)) / _thermal_lambda(beta, m, hbar)
    return math.log(z) - float(low)


# The spectral reference's grid: a Boltzmann factor of e^{-27.7} < 1e-12
# at the box edge and at the momentum cutoff, the three lowest eigenstates
# under 1e-10 of their peaks at the position and momentum edges, the sum
# agreeing with the sum on twice the points to 1e-10 relative, and at most
# 4096 points.
_CUTOFF_EXPONENT = 27.7
_EDGE_TOL = 1e-10
_SPECTRAL_RTOL = 1e-10
_SPECTRAL_MAX_N = 4096


def _cutoff_exponent(spec: GridSpec, beta: float, m: float) -> float:
    """beta p^2/2m at the grid's momentum cutoff p = pi hbar/dq."""
    return beta * (math.pi * spec.hbar / spec.dq) ** 2 / (2 * m)


def _first_grid(length: float, beta: float, m: float, hbar: float) -> GridSpec:
    """The box's grid with the fewest points, a power of two >= 64, whose
    cutoff exponent reaches _CUTOFF_EXPONENT; ValueError past the budget,
    before anything is diagonalized."""
    n = 64
    while _cutoff_exponent(GridSpec(n, length, hbar), beta, m) < _CUTOFF_EXPONENT:
        n *= 2
        _check_budget(n)
    return GridSpec(n, length, hbar)


def _check_budget(n: int) -> None:
    if n > _SPECTRAL_MAX_N:
        raise ValueError(f"unconverged grid: the spectral reference needs more "
                         f"than its budget of n = {_SPECTRAL_MAX_N} points")


def _boltzmann_sum(v: Potential, beta: float, spec: GridSpec, m: float,
                   edges: bool) -> tuple[float, float, float]:
    """ln sum_k e^{-beta E_k} over the eigenvalues of the grid Hamiltonian,
    the sum taken relative to e^{-beta E_0}, and, with ``edges``, the
    largest amplitude of the three lowest eigenstates at the position edges
    and at the momentum edges |p| = pi hbar/dq, each over its peak (0
    without; only then are eigenvectors computed)."""
    h = grid_hamiltonian(spec, m, v)
    q_edge = p_edge = 0.0
    with _one_blas_thread():
        vals, vecs = np.linalg.eigh(h) if edges else (np.linalg.eigvalsh(h), None)
    if edges:
        low = np.abs(vecs[:, :3])
        low_hat = np.abs(np.fft.fft(vecs[:, :3], axis=0))
        n = spec.n
        q_edge = float((low[[0, -1]].max(axis=0) / low.max(axis=0)).max())
        p_edge = float((low_hat[[n // 2 - 1, n // 2]].max(axis=0)
                        / low_hat.max(axis=0)).max())
    weights, beta_e0 = _peak_weights(beta * vals)
    return math.log(float(weights.sum())) - float(beta_e0), q_edge, p_edge


def spectral_partition(v: Potential, beta: float, m: float = 1.0,
                       hbar: float = 1.0) -> tuple[float, GridSpec]:
    """Independent reference: ln of the sum of e^{-beta E_k} over the
    eigenvalues of the Fourier-grid Hamiltonian, and the GridSpec it was
    summed on.

    The grid follows from beta, hbar and m.  The box [-r, r] ends where
    beta (v - v(0)) first reaches 27.7, and n is the smallest power of two
    >= 64 whose momentum cutoff p = pi hbar/dq has beta p^2/2m >= 27.7.
    While one of the three lowest eigenstates exceeds 1e-10 of its peak at
    the position or momentum edge, the box doubles (n starting again) if
    the position edge is the worse, else n doubles.  Then n doubles once
    over the box, and the finer sum is returned if it agrees with the last
    one within 1e-10 relative, |expm1(ln coarse - ln fine)| <= 1e-10;
    ValueError if not, and for a grid past n = 4096."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    length = 2 * _decay_radius(v, beta, _CUTOFF_EXPONENT, bisect=True)
    spec = _first_grid(length, beta, m, hbar)
    while True:
        log_total, q_edge, p_edge = _boltzmann_sum(v, beta, spec, m, edges=True)
        if max(q_edge, p_edge) <= _EDGE_TOL:
            break
        # the worse edge names the fault: a box too small leaves the states
        # a kink at its periodic edge, which also shows in momentum, and a
        # grid too coarse leaves aliasing noise at the position edge
        if p_edge >= q_edge:
            _check_budget(2 * spec.n)
            spec = GridSpec(2 * spec.n, spec.length, hbar)
        else:
            spec = _first_grid(2 * spec.length, beta, m, hbar)
    _check_budget(2 * spec.n)
    finer = GridSpec(2 * spec.n, spec.length, hbar)
    log_finer, _, _ = _boltzmann_sum(v, beta, finer, m, edges=False)
    differ = abs(math.expm1(log_total - log_finer))
    if not differ <= _SPECTRAL_RTOL:
        raise ValueError(f"unconverged grid: the sums on n = {spec.n} and "
                         f"{finer.n} points differ by {differ:.3g} "
                         f"relative, over {_SPECTRAL_RTOL:g}")
    return log_finer, finer


def tau_star(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0, *,
             log_z_target: float) -> float:
    """Unique tau in (0, beta] with |ln z(beta, tau) - log_z_target| <= 1e-8
    on the strictly decreasing tau -> ln z(beta, tau), by Illinois false
    position on [0, beta] (Dowell & Jarratt, BIT 11, 168 (1971)): an end
    kept by two steps in a row has its value halved, and a step not
    strictly inside the bracket takes the midpoint.  ValueError, before any
    step, for a target outside [ln z(beta, beta) - 1e-8, ln z(beta, 0));
    RuntimeError after 200 steps."""
    tol = 1e-8
    f_lo = classical_partition(v, beta, 0.0, m, hbar) - log_z_target
    f_hi = classical_partition(v, beta, beta, m, hbar) - log_z_target
    if not (f_hi <= tol and f_lo > 0):
        raise ValueError("target outside the bracket [ln z(beta,beta), ln z(beta,0))")
    if f_hi >= -tol:
        return beta
    lo, hi = 0.0, beta  # f_lo > 0 > f_hi
    kept = None  # the end that the last step kept
    for _ in range(200):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = (lo + hi) / 2
        f = classical_partition(v, beta, t, m, hbar) - log_z_target
        if abs(f) <= tol:
            return t
        if f > 0:
            lo, f_lo = t, f
            if kept == "hi":
                f_hi /= 2
            kept = "hi"
        else:
            hi, f_hi = t, f
            if kept == "lo":
                f_lo /= 2
            kept = "lo"
    raise RuntimeError(f"tau_star did not converge: ln z(beta, {t!r}) misses "
                       f"the target by {f:.3g} in ln z")


def monotonicity_check(v: Potential, beta: float, m: float = 1.0,
                       hbar: float = 1.0) -> dict:
    """ln z(beta, .) at tau = 0, beta/4, beta/2, 3 beta/4 and beta, the
    strict-decrease flag, and the derivative identity
    d ln z/dtau = -(beta lambda^2 / 48 pi) int dq w (v_tau')^2 / int dq w,
    w = e^{-beta v_tau}, checked against a central difference at the three
    interior points."""
    tau_grid = [float(t) for t in (0.0, beta / 4, beta / 2, 3 * beta / 4, beta)]
    log_z = [classical_partition(v, beta, t, m, hbar) for t in tau_grid]
    decreasing = all(log_z[i] > log_z[i + 1] for i in range(len(log_z) - 1))

    lam = _thermal_lambda(beta, m, hbar)
    derivative_errors = []
    for t in tau_grid[1:-1]:
        vt = gauss_transform_potential(v, t, m, hbar)
        q, weights, _ = _boltzmann_integrand(vt, beta)
        mean_slope2 = (float(np.trapezoid(weights * vt.derivative()(q) ** 2, q))
                       / float(np.trapezoid(weights, q)))
        formula = -beta * lam ** 2 / (48 * math.pi) * mean_slope2
        h = 1e-3 * beta
        numeric = (classical_partition(v, beta, t + h, m, hbar)
                   - classical_partition(v, beta, t - h, m, hbar)) / (2 * h)
        derivative_errors.append(abs(formula - numeric)
                                 / max(abs(formula), abs(numeric)))
    return {
        "tau_grid": tau_grid,
        "log_z_values": log_z,
        "strictly_decreasing": decreasing,
        "derivative_relative_errors": derivative_errors,
    }
