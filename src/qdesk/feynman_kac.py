"""Monte Carlo estimation of tr e^{-beta H} for H = P^2/(2m) + v(Q).

The trace admits the representation
    tr e^{-beta H} = int dq int rho(dw) delta(w(beta)) e^{-int_0^beta v(q + w(tau)) dtau}
over Wiener paths with covariance (hbar^2/m) min(tau, tau'), pinned to
w(0) = w(beta) = 0.  ``fk_mc_partition`` samples those bridges;
``bound_check`` sets its estimate beside the deterministic references of
``partition``: the sandwich z(beta, beta) <= tr e^{-beta H} <= z(beta, 0),
the spectral reference and tau*.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .operators import _one_blas_thread, _require_positive
from .partition import (
    _CUTOFF_EXPONENT, Potential, _cutoff_exponent, _decay_radius, _peak_weights,
    _thermal_lambda, classical_partition, spectral_partition, tau_star,
)

__all__ = [
    "PartitionReport", "sample_bridge", "sample_bridge_ensemble",
    "fk_mc_partition", "bound_check",
]

_BLOCK_PATHS = 512  # Monte Carlo paths per block; a block's arrays stay in L2
_Q_NODES = 161  # q-nodes of a path's integral over q


def _bisection_schedule(m_slices: int) -> list[tuple[int, int, int]]:
    """Deterministic (left, mid, right) fill order for the midpoint
    construction; each entry consumes one standard normal."""
    schedule = []
    queue = [(0, m_slices)]
    while queue:
        nxt = []
        for lo, hi in queue:
            if hi - lo < 2:
                continue
            mid = (lo + hi) // 2
            schedule.append((lo, mid, hi))
            nxt += [(lo, mid), (mid, hi)]
        queue = nxt
    return schedule


def _levy_matrix(beta: float, m_slices: int, m: float, hbar: float) -> np.ndarray:
    """(m_slices+1) x (m_slices-1) matrix L of the Lévy midpoint
    construction: the bridge driven by standard normals z is w = L z.  Row
    ``mid`` is the construction run on unit vectors, column ``col`` being
    the normal that schedule entry ``col`` consumes."""
    dtau = beta / m_slices
    levy = np.zeros((m_slices + 1, m_slices - 1))
    for col, (left, mid, right) in enumerate(_bisection_schedule(m_slices)):
        tl, tm, th = left * dtau, mid * dtau, right * dtau
        # rows left and right use only earlier columns, so column col is 0
        levy[mid] = ((th - tm) * levy[left] + (tm - tl) * levy[right]) / (th - tl)
        levy[mid, col] = math.sqrt((hbar ** 2 / m) * (tm - tl) * (th - tm) / (th - tl))
    return levy


def _block_normals(m_slices: int, seed: int, block: int, out: np.ndarray) -> np.ndarray:
    """The m_slices-1 standard normals of each of ``block``'s 512 paths,
    written into ``out``'s rows: path k is row k % 512 of the Gaussian
    stream of Philox(key=seed, counter=[0, 0, 0, k // 512])."""
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, block]))
    return gen.standard_normal((_BLOCK_PATHS, m_slices - 1), out=out)


def _block_bridges(levy_t: np.ndarray, seed: int, block: int, z: np.ndarray,
                   w: np.ndarray) -> np.ndarray:
    """Bridges w = z Lᵀ of ``block``'s 512 paths as ``w``'s rows, their
    normals drawn into ``z``; for a caller on one BLAS thread."""
    return _serial_matmul(_block_normals(len(levy_t) + 1, seed, block, z), levy_t, w)


def _bridges(beta: float, m_slices: int, m: float, hbar: float, seed: int,
             blocks: range) -> np.ndarray:
    """The bridges of the paths of ``blocks``, 512 rows per block."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    if m_slices < 2:
        raise ValueError("m_slices must be at least 2")
    levy_t = np.ascontiguousarray(_levy_matrix(beta, m_slices, m, hbar).T)
    z = np.empty((_BLOCK_PATHS, m_slices - 1))
    w = np.empty((len(blocks), _BLOCK_PATHS, m_slices + 1))
    with _one_blas_thread():
        for rows, block in zip(w, blocks):
            _block_bridges(levy_t, seed, block, z, rows)
    return w.reshape(-1, m_slices + 1)


def sample_bridge(beta: float, m_slices: int, m: float = 1.0, hbar: float = 1.0,
                  seed: int = 0, path_index: int = 0) -> np.ndarray:
    """Pinned Wiener path w(tau_j), tau_j = j beta/m_slices, with
    w(0) = w(beta) = 0 and covariance (hbar^2/m)(min(tau, tau') -
    tau tau'/beta), as an (m_slices+1,) array; deterministic in (seed,
    path_index >= 0).  It draws the whole 512-path block that holds the
    path."""
    if path_index < 0:
        raise ValueError("path_index must be nonnegative")
    block, row = divmod(path_index, _BLOCK_PATHS)
    return _bridges(beta, m_slices, m, hbar, seed, range(block, block + 1))[row]


def sample_bridge_ensemble(beta: float, m_slices: int, n_paths: int,
                           m: float = 1.0, hbar: float = 1.0,
                           seed: int = 0) -> np.ndarray:
    """(n_paths, m_slices+1) array of bridge values; row k equals
    sample_bridge(..., path_index=k)."""
    if n_paths < 0:
        raise ValueError("n_paths must be nonnegative")
    blocks = range(-(-n_paths // _BLOCK_PATHS))
    return _bridges(beta, m_slices, m, hbar, seed, blocks)[:n_paths]


def _serial_matmul(a: np.ndarray, b: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` in row pieces of at most 10**6 multiply-adds, into ``out``
    if given, for a C-contiguous ``b`` and a caller on one BLAS thread
    (``operators._one_blas_thread``).  OpenBLAS then computes each piece on
    the calling thread, four rows at a time.  A larger product goes to its
    blocked kernel, whose rounding differs: as one product, a block's
    bridges at 49 slices (1.2e6 multiply-adds) differ in about half of its
    512 rows.  So does one with a transposed ``b`` from 65536 multiply-adds
    on.  Pieces are whole multiples of four rows, so a row's value does not
    depend on where they fall."""
    per_row = a.shape[1] * (b.shape[1] if b.ndim == 2 else 1)
    rows = max(4, 10 ** 6 // max(per_row, 1) // 4 * 4)
    if out is None:
        out = np.empty(a.shape[:1] + b.shape[1:])
    for lo in range(0, len(a), rows):
        np.matmul(a[lo:lo + rows], b, out=out[lo:lo + rows])
    return out


def _block_sampler(v: Potential, beta: float, m: float, hbar: float,
                   m_slices: int, seed: int) -> Callable[[int], np.ndarray]:
    """The per-block function of ``fk_mc_partition``: ``values(block)``
    returns ln Y_k for the 512 paths k of ``block``.  Every step is row-wise
    and runs on whole row groups (see ``_serial_matmul``), so Y_k depends
    only on (seed, k), not on the blocks computed before it or on the
    thread.  The path moments S_p take one product each for 1 <= p <= deg;
    S_0, the same for every path, is computed once.  Build and call it on
    one BLAS thread: ``fk_mc_partition`` holds ``_one_blas_thread``'s
    non-reentrant lock around both, so the sampler must not enter it."""
    lam = _thermal_lambda(beta, m, hbar)
    levy_t = np.ascontiguousarray(_levy_matrix(beta, m_slices, m, hbar).T)
    # trapezoid weights: endpoints (both w=0) carry half weight each
    dtau = beta / m_slices
    tw = np.full(m_slices + 1, dtau)
    tw[0] = tw[-1] = dtau / 2
    # the action is a polynomial in q
    deg = max((i for i, c in enumerate(v.coeffs) if c != 0), default=0)
    coeffs = v.coeffs[:deg + 1]
    gaussian = deg == 2 and coeffs[2] > 0
    if not gaussian:
        # e^{-beta (v - v(0))} < 1e-12 past r
        r = _decay_radius(v, beta, floor=_CUTOFF_EXPONENT)
        pad = 2 * math.sqrt(hbar ** 2 * beta / m)  # room for path excursions
        q = np.linspace(-r - pad, r + pad, _Q_NODES)
        scale = (q[1] - q[0]) / lam
        qpow = np.vander(q, deg + 1, increasing=True).T.copy()
    s0 = _serial_matmul(np.ones((4, m_slices + 1)), tw)[0]
    # Each thread reuses its arrays: freed ones go back to the OS when
    # glibc trims the thread's heap, and fault in anew.
    local = threading.local()

    def values(block: int) -> np.ndarray:
        a = getattr(local, "arrays", None)
        if a is None:
            a = local.arrays = {
                "z": np.empty((_BLOCK_PATHS, m_slices - 1)),
                "w": np.empty((_BLOCK_PATHS, m_slices + 1)),
                "wp": np.empty((_BLOCK_PATHS, m_slices + 1)),
                "action": np.empty((_BLOCK_PATHS, 0 if gaussian else _Q_NODES)),
            }
        w = _block_bridges(levy_t, seed, block, a["z"], a["w"])
        # binomial trick: sum_j' v(q+w_j) dtau expands in path moments
        # S_p = sum_j' w_j^p dtau, giving per-path polynomials in q
        s = np.empty((deg + 1, _BLOCK_PATHS))
        s[0] = s0
        wp = w
        for p in range(1, deg + 1):
            # repeated products: float ** is ~100x slower
            if p == 2:
                wp = np.multiply(w, w, out=a["wp"])
            elif p > 2:
                wp *= w
            _serial_matmul(wp, tw, s[p])
        qc = np.zeros((_BLOCK_PATHS, deg + 1))  # action coefficients in q
        for i, ci in enumerate(coeffs):
            if ci == 0:
                continue
            for j in range(i + 1):
                qc[:, i - j] += ci * math.comb(i, j) * s[j]
        if gaussian:
            a0, a1, a2 = qc.T
            return np.log(np.sqrt(np.pi / a2) / lam) + (a1 ** 2 / (4 * a2) - a0)
        action = _serial_matmul(qc, qpow, a["action"])
        weights, low = _peak_weights(action, out=action)  # floored, in place
        return np.log(weights.sum(axis=1) * scale) - low

    return values


def fk_mc_partition(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0,
                    m_slices: int = 64, n_paths: int = 100_000,
                    seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of tr e^{-beta H} as its natural log, with its
    relative standard error.

    Each path contributes ln Y_k, Y_k = (1/lambda) int dq e^{-A_k(q)} with
    the trapezoid time integral A_k(q) = sum_j' v(q + w_k(tau_j)) dtau.
    With x_k = e^{ln Y_k - max ln Y}, the estimate is ln mean(x) + max ln Y
    (pairwise summation, fixed path order) and the relative stderr the
    sample deviation of x over mean(x) sqrt(N); ValueError where that log
    is not finite.  On a quadratic well ln Y_k is the Gaussian integral in
    closed form, else ln of a sum of ``partition._peak_weights``
    e^{-(A_k - min A_k)} on 161 q-nodes, minus min A_k.
    Paths run in whole blocks of 512, whose arrays stay in cache, in two
    tasks on two threads (numpy's Gaussian sampler and array operations
    release the GIL) and one BLAS thread: task t takes blocks t, t+2, ...,
    so a partial last block does not unbalance them, and each block writes
    its own row of the values.  The rest of a partial last block is
    computed and not used."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    if m_slices < 1:
        raise ValueError("m_slices must be at least 1")
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    n_blocks = -(-n_paths // _BLOCK_PATHS)
    values = np.empty((n_blocks, _BLOCK_PATHS))

    def run(task: int) -> None:
        # a path value past the float range is inf and the mean nan, which
        # the finiteness test below reports; errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            for block in range(task, n_blocks, 2):
                values[block] = block_values(block)

    # imported here: only the path sampler needs it
    from concurrent.futures import ThreadPoolExecutor
    with _one_blas_thread(), ThreadPoolExecutor(2) as pool:
        block_values = _block_sampler(v, beta, m, hbar, m_slices, seed)
        list(pool.map(run, range(2)))
    values = values.reshape(-1)[:n_paths]
    with np.errstate(over="ignore", invalid="ignore"):
        top = float(values.max())
        x = np.exp(np.subtract(values, top, out=values), out=values)
        mean = float(np.mean(x))
    log_estimate = math.log(mean) + top
    if not math.isfinite(log_estimate):
        raise ValueError(f"tr e^{{-beta H}} has no finite estimate: "
                         f"ln of it is {log_estimate}")
    return log_estimate, float(np.std(x, ddof=1)) / (mean * math.sqrt(n_paths))


@dataclass(frozen=True)
class PartitionReport:
    """Each value as its natural log (the MC's stderr relative), and itself
    where it is a normal float, else None; mc_stderr = rel * mc_estimate."""

    beta: float
    z_upper: float | None
    z_lower: float | None
    mc_estimate: float | None
    mc_stderr: float | None
    spectral_reference: float | None
    tau_star: float | None
    # the grid the reference was summed on: n, length, dq, cutoff_exponent
    spectral_grid: dict
    log_z_upper: float
    log_z_lower: float
    log_spectral_reference: float
    log_mc_estimate: float
    mc_rel_stderr: float

    def to_json(self) -> dict:
        # perfbench digests fk reports through it
        return asdict(self)


def _normal_or_none(log_value: float) -> float | None:
    """e^{log_value} where that is a normal float, else None."""
    try:
        value = math.exp(log_value)
    except OverflowError:
        return None
    return value if value >= np.finfo(float).smallest_normal else None


def bound_check(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0,
                m_slices: int = 64, n_paths: int = 100_000,
                seed: int = 0) -> PartitionReport:
    """Assemble the sandwich z(beta,beta) <= tr e^{-beta H} <= z(beta,0)
    with the MC estimate, the spectral reference and, when the reference
    lies inside the sandwich, the matching tau*.  The report holds the
    values as computed; the order of the bounds and the sandwich are the
    caller's checks (``qdesk --scenario fk``'s ``bounds_ordered`` and
    ``sandwich_holds``)."""
    log_upper = classical_partition(v, beta, 0.0, m, hbar)
    log_lower = classical_partition(v, beta, beta, m, hbar)
    log_estimate, rel_stderr = fk_mc_partition(v, beta, m, hbar, m_slices,
                                               n_paths, seed)
    log_reference, grid = spectral_partition(v, beta, m=m, hbar=hbar)
    ts = None
    if log_lower <= log_reference < log_upper:
        ts = tau_star(v, beta, m, hbar, log_z_target=log_reference)
    estimate = _normal_or_none(log_estimate)
    return PartitionReport(
        beta, _normal_or_none(log_upper), _normal_or_none(log_lower), estimate,
        None if estimate is None else estimate * rel_stderr,
        _normal_or_none(log_reference), ts,
        {"n": grid.n, "length": grid.length, "dq": grid.dq,
         "cutoff_exponent": _cutoff_exponent(grid, beta, m)},
        log_upper, log_lower, log_reference, log_estimate, rel_stderr)
