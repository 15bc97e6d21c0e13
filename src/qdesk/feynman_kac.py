"""Path-integral estimation of tr e^{-beta H} for H = P^2/(2m) + v(Q).

The trace admits the representation
    tr e^{-beta H} = int dq int rho(dw) delta(w(beta)) e^{-int_0^beta v(q + w(tau)) dtau}
over Wiener paths with covariance (hbar^2/m) min(tau, tau'), pinned to
w(0) = w(beta) = 0.  Replacing v by its Gauss transform v_tau and dropping
the path integral yields the sandwich
    z(beta, beta) <= tr e^{-beta H} <= z(beta, 0),
where z(beta, tau) = (1/lambda) int dq e^{-beta v_tau(q)} and
lambda = sqrt(2 pi beta hbar^2 / m).  z is strictly decreasing in tau for
non-constant smooth potentials, so a unique tau*(beta) in (0, beta]
reproduces the exact trace.

Only confining, continuous potentials are supported; the general validity
conditions of the trace formula are out of scope.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .operators import _one_blas_thread, _require_positive
from .phasespace import GridSpec, grid_hamiltonian

__all__ = [
    "Potential", "PartitionReport",
    "gauss_transform_potential", "classical_partition", "spectral_partition",
    "sample_bridge", "sample_bridge_ensemble", "fk_mc_partition",
    "bound_check", "tau_star", "monotonicity_check",
]

_EXP_FLOOR = 720.0  # beta*v beyond this puts e^{-beta v} under 1e-300
_BLOCK_PATHS = 512  # Monte Carlo paths per block; a block's arrays stay in L2
_Q_NODES = 161  # q-nodes of a path's integral over q


@dataclass(frozen=True)
class Potential:
    """Potential energy profile on the whole real line: polynomial
    (ascending coefficients) or vectorized callable."""

    coeffs: tuple | None = None
    fn: Callable | None = None

    def __post_init__(self):
        if (self.coeffs is None) == (self.fn is None):
            raise ValueError("exactly one of coeffs, fn must be given")
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @classmethod
    def polynomial(cls, coeffs) -> "Potential":
        return cls(coeffs=tuple(coeffs))

    @classmethod
    def from_callable(cls, fn) -> "Potential":
        return cls(fn=fn)

    @property
    def is_polynomial(self) -> bool:
        return self.coeffs is not None

    @property
    def is_constant(self) -> bool:
        return self.coeffs is not None and all(c == 0 for c in self.coeffs[1:])

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if self.coeffs is not None:
            return npoly.polyval(q, self.coeffs)
        out = np.asarray(self.fn(q), dtype=float)
        if out.shape != q.shape:
            raise ValueError("potential callable must be vectorized")
        return out

    def derivative(self) -> Callable:
        if self.coeffs is not None:
            d = npoly.polyder(self.coeffs)
            return lambda q: npoly.polyval(np.asarray(q, dtype=float), d)
        h = 1e-5

        def central(q):
            q = np.asarray(q, dtype=float)
            up, down = q + h, q - h
            return (self(up) - self(down)) / (up - down)

        return central


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
    if v.is_polynomial:
        c = v.coeffs
        out = [0.0] * len(c)
        for i, ci in enumerate(c):
            if ci == 0:
                continue
            for j in range(0, i + 1, 2):
                mom = math.prod(range(j - 1, 0, -2))  # E[xi^j] = (j-1)!!
                out[i - j] += ci * math.comb(i, j) * mom * s ** (j / 2)
        return Potential(coeffs=tuple(out))
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    root_s = math.sqrt(s)
    norm = weights.sum()

    def smoothed(q):
        q = np.asarray(q, dtype=float)
        vals = v(q[..., None] + root_s * nodes)
        if not np.all(np.isfinite(vals)):
            raise ValueError("potential grows too fast for the quadrature")
        return (vals * weights).sum(axis=-1) / norm

    return Potential(fn=smoothed)


def _decay_radius(v: Potential, beta: float, floor: float = _EXP_FLOOR,
                  bisect: bool = False) -> float:
    """Radius beyond which e^{-beta v} drops under e^{-floor}: the first
    power of two past it or, with ``bisect``, the crossing inside [r/2, r]
    to 0.1%."""
    def decayed(r: float) -> bool:
        return beta * min(float(v(r)), float(v(-r))) > floor

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


def _quad_grid(vt: Potential, beta: float) -> np.ndarray:
    """8193 q-nodes for int dq e^{-beta v_tau}, out to where the integrand is
    under the exp floor."""
    r = _decay_radius(vt, beta)
    return np.linspace(-r, r, 8193)


def classical_partition(v: Potential, beta: float, tau: float, m: float,
                        hbar: float = 1.0) -> float:
    """(Pseudo-)classical partition function
    z(beta, tau) = (1/lambda) int dq e^{-beta v_tau(q)}."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    vt = gauss_transform_potential(v, tau, m, hbar)
    q = _quad_grid(vt, beta)
    integrand = np.exp(-np.clip(beta * vt(q), -_EXP_FLOOR, _EXP_FLOOR))
    if max(integrand[0], integrand[-1]) > 1e-300:
        raise ValueError("divergent integral: integrand does not vanish at edges")
    return float(np.trapezoid(integrand, q) / _thermal_lambda(beta, m, hbar))


# The spectral reference's grid: a Boltzmann factor of e^{-27.7} < 1e-12
# at the box edge and at the momentum cutoff, the three lowest eigenstates
# under 1e-10 of their peaks at the position and momentum edges, successive
# doublings of n agreeing to 1e-10 relative, and at most 4096 points.
_CUTOFF_EXPONENT = 27.7
_EDGE_TOL = 1e-10
_SPECTRAL_RTOL = 1e-10
_SPECTRAL_MAX_N = 4096


class _GridSum(float):
    """A Boltzmann sum that carries the grid it was taken on as ``grid``."""

    grid: GridSpec

    def __new__(cls, value: float, grid: GridSpec):
        out = super().__new__(cls, value)
        out.grid = grid
        return out


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
    """sum_k e^{-beta E_k} over the eigenvalues of the grid Hamiltonian and,
    with ``edges``, the largest amplitude of the three lowest eigenstates at
    the position edges and at the momentum edges |p| = pi hbar/dq, each over
    its peak (0 without; only then are eigenvectors computed)."""
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
    if abs(beta * vals[0]) > _EXP_FLOOR:
        raise ValueError(f"tr e^{{-beta H}} is outside the float range: "
                         f"beta E_0 = {beta * vals[0]:.4g}")
    return float(np.exp(-beta * vals).sum()), q_edge, p_edge


def spectral_partition(v: Potential, beta: float, spec: GridSpec | None = None,
                       m: float = 1.0, hbar: float = 1.0) -> float:
    """Independent reference: the sum of e^{-beta E_k} over the eigenvalues
    of the Fourier-grid Hamiltonian, as a float whose ``grid`` attribute is
    the GridSpec it was summed on.

    Without ``spec`` the grid follows from beta, hbar and m.  The box
    [-r, r] ends where beta v first reaches 27.7, and n is the smallest
    power of two >= 64 whose momentum cutoff p = pi hbar/dq has
    beta p^2/2m >= 27.7.  While one of the three lowest eigenstates exceeds
    1e-10 of its peak at the position or momentum edge, the box doubles (n
    starting again) if the position edge is the worse, else n doubles.
    Then n doubles over the box until two successive sums agree within
    1e-10 relative, and the finer sum is returned.  A grid past n = 4096
    raises ValueError.  A given ``spec`` is used as is, after the cutoff and
    edge tests; its hbar must equal ``hbar``."""
    _require_positive(beta=beta, m=m, hbar=hbar)
    if spec is not None and spec.hbar != hbar:
        raise ValueError("spec.hbar must equal hbar")
    if spec is not None:
        cutoff = _cutoff_exponent(spec, beta, m)
        if cutoff < _CUTOFF_EXPONENT:
            raise ValueError(f"unconverged grid: momentum cutoff exponent "
                             f"{cutoff:.3g} < {_CUTOFF_EXPONENT}")
        total, q_edge, p_edge = _boltzmann_sum(v, beta, spec, m, edges=True)
        if max(q_edge, p_edge) > _EDGE_TOL:
            raise ValueError(f"unconverged grid: low eigenstates reach the edge "
                             f"(position {q_edge:.2e}, momentum {p_edge:.2e} "
                             f"of their peaks)")
        return _GridSum(total, spec)
    length = 2 * _decay_radius(v, beta, _CUTOFF_EXPONENT, bisect=True)
    spec = _first_grid(length, beta, m, hbar)
    while True:
        total, q_edge, p_edge = _boltzmann_sum(v, beta, spec, m, edges=True)
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
    while True:
        _check_budget(2 * spec.n)
        finer = GridSpec(2 * spec.n, spec.length, hbar)
        finer_total, _, _ = _boltzmann_sum(v, beta, finer, m, edges=False)
        if abs(finer_total - total) <= _SPECTRAL_RTOL * finer_total:
            return _GridSum(finer_total, finer)
        spec, total = finer, finer_total


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
    path_index).  It draws the whole 512-path block that holds the path."""
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
    returns Y_k for the 512 paths k of ``block``.  Every step is row-wise
    and runs on whole row groups (see ``_serial_matmul``), so Y_k depends
    only on (seed, k), not on the blocks computed before it or on the
    thread.  A polynomial's path moments S_p take one product each for
    1 <= p <= deg; S_0, the same for every path, is computed once.  Build
    and call it on one BLAS thread: ``fk_mc_partition`` holds
    ``_one_blas_thread``'s non-reentrant lock around both, so the sampler
    must not enter it."""
    lam = _thermal_lambda(beta, m, hbar)
    levy_t = np.ascontiguousarray(_levy_matrix(beta, m_slices, m, hbar).T)
    # trapezoid weights: endpoints (both w=0) carry half weight each
    dtau = beta / m_slices
    tw = np.full(m_slices + 1, dtau)
    tw[0] = tw[-1] = dtau / 2
    # a polynomial's action is a polynomial in q
    coeffs = v.coeffs
    if coeffs is not None:
        deg = max((i for i, c in enumerate(coeffs) if c != 0), default=0)
        coeffs = coeffs[:deg + 1]
    gaussian = coeffs is not None and deg == 2 and coeffs[2] > 0
    if not gaussian:
        r = _decay_radius(v, beta, floor=27.7)  # e^{-beta v} < 1e-12
        pad = 2 * math.sqrt(hbar ** 2 * beta / m)  # room for path excursions
        q = np.linspace(-r - pad, r + pad, _Q_NODES)
        scale = (q[1] - q[0]) / lam
        if coeffs is not None:
            qpow = np.vander(q, deg + 1, increasing=True).T.copy()
    if coeffs is not None:
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
        if coeffs is not None:
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
                return np.sqrt(np.pi / a2) * np.exp(a1 ** 2 / (4 * a2) - a0) / lam
            action = _serial_matmul(qc, qpow, a["action"])
        else:
            action = a["action"]
            action.fill(0.0)
            for j, weight in enumerate(tw):
                action += weight * v(q[None, :] + w[:, [j]])
        # e^{-(A - min A)} in place, floored: exp is 3-4x slower on subnormals
        shift = action.min(axis=1)
        np.subtract(shift[:, None], action, out=action)
        np.maximum(action, -700.0, out=action)
        np.exp(action, out=action)
        y = action.sum(axis=1)
        y *= np.exp(-shift) * scale
        return y

    return values


def fk_mc_partition(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0,
                    m_slices: int = 64, n_paths: int = 100_000,
                    seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of tr e^{-beta H} with its standard error.

    Each path contributes Y_k = (1/lambda) int dq e^{-A_k(q)} with the
    trapezoid time integral A_k(q) = sum_j' v(q + w_k(tau_j)) dtau; the
    estimate is the path-ensemble mean of Y (pairwise summation, fixed
    path order), the stderr its sample deviation over sqrt(N).  On a
    quadratic well Y_k is the Gaussian integral in closed form, else a sum
    of float64 weights e^{-(A_k - min A_k)} on 161 q-nodes.
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
        for block in range(task, n_blocks, 2):
            values[block] = block_values(block)

    # imported here: only the path sampler needs it
    from concurrent.futures import ThreadPoolExecutor
    with _one_blas_thread(), ThreadPoolExecutor(2) as pool:
        block_values = _block_sampler(v, beta, m, hbar, m_slices, seed)
        list(pool.map(run, range(2)))
    values = values.reshape(-1)[:n_paths]
    estimate = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_paths))
    return estimate, stderr


@dataclass(frozen=True)
class PartitionReport:
    beta: float
    z_upper: float
    z_lower: float
    mc_estimate: float
    mc_stderr: float
    spectral_reference: float | None = None
    tau_star: float | None = None
    # the grid the reference was summed on: n, length, dq, cutoff_exponent
    spectral_grid: dict | None = None

    def __post_init__(self):
        if self.z_lower > self.z_upper + 1e-12:
            raise ValueError("lower bound exceeds upper bound")

    def to_json(self) -> dict:
        # perfbench digests fk reports through it
        return asdict(self)


def tau_star(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0, *,
             z_target: float) -> float:
    """Unique tau in (0, beta] with |z(beta, tau) - z_target| <= 1e-8
    z_target on the strictly decreasing tau -> z(beta, tau), by Illinois
    false position on [0, beta] (Dowell & Jarratt, BIT 11, 168 (1971)): an
    end kept by two steps in a row has its value halved, and a step not
    strictly inside the bracket takes the midpoint.  RuntimeError after
    200 steps."""
    z0 = classical_partition(v, beta, 0.0, m, hbar)
    zb = classical_partition(v, beta, beta, m, hbar)
    if not (zb - 1e-12 <= z_target < z0):
        raise ValueError("target outside the bracket [z(beta,beta), z(beta,0))")
    tol = 1e-8 * z_target
    if abs(z_target - zb) <= tol:
        return beta
    lo, hi = 0.0, beta
    f_lo, f_hi = z0 - z_target, zb - z_target  # f_lo > 0 > f_hi
    kept = None  # the end that the last step kept
    for _ in range(200):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = (lo + hi) / 2
        f = classical_partition(v, beta, t, m, hbar) - z_target
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
    raise RuntimeError(f"tau_star did not converge: z(beta, {t!r}) misses "
                       f"the target by {abs(f) / z_target:.3g} relative")


def bound_check(v: Potential, beta: float, m: float = 1.0, hbar: float = 1.0,
                m_slices: int = 64, n_paths: int = 100_000,
                seed: int = 0) -> PartitionReport:
    """Assemble the sandwich z(beta,beta) <= tr e^{-beta H} <= z(beta,0)
    with the MC estimate, the spectral reference and, for a non-constant
    potential whose reference lies inside the sandwich, the matching tau*."""
    z_upper = classical_partition(v, beta, 0.0, m, hbar)
    z_lower = classical_partition(v, beta, beta, m, hbar)
    estimate, stderr = fk_mc_partition(v, beta, m, hbar, m_slices, n_paths, seed)
    spectral = spectral_partition(v, beta, m=m, hbar=hbar)
    ts = None
    if not v.is_constant and z_lower <= spectral < z_upper:
        ts = tau_star(v, beta, m, hbar, z_target=spectral)
    grid = getattr(spectral, "grid", None)  # None from a substituted reference
    if grid is not None:
        grid = {"n": grid.n, "length": grid.length, "dq": grid.dq,
                "cutoff_exponent": _cutoff_exponent(grid, beta, m)}
    return PartitionReport(beta, z_upper, z_lower, estimate, stderr,
                           float(spectral), ts, grid)


def monotonicity_check(v: Potential, beta: float, m: float = 1.0,
                       hbar: float = 1.0, tau_grid=None) -> dict:
    """z(beta, .) along tau_grid, strict-decrease flags, and the derivative
    identity dz/dtau = -(beta lambda / 48 pi) int dq e^{-beta v_tau} (v_tau')^2
    checked against a central difference at interior points."""
    if tau_grid is None:
        tau_grid = [0.0, beta / 4, beta / 2, 3 * beta / 4, beta]
    tau_grid = [float(t) for t in tau_grid]
    z = [classical_partition(v, beta, t, m, hbar) for t in tau_grid]
    constant = v.is_constant
    decreasing = all(z[i] > z[i + 1] for i in range(len(z) - 1))

    lam = _thermal_lambda(beta, m, hbar)
    derivative_errors = []
    for t in tau_grid:
        if t <= 0 or t >= beta:
            continue
        vt = gauss_transform_potential(v, t, m, hbar)
        dvt = vt.derivative()
        q = _quad_grid(vt, beta)
        integrand = np.exp(-np.clip(beta * vt(q), -_EXP_FLOOR, _EXP_FLOOR)) \
            * np.asarray(dvt(q)) ** 2
        formula = -(beta * lam / (48 * math.pi)) * float(np.trapezoid(integrand, q))
        h = 1e-3 * beta
        numeric = (classical_partition(v, beta, t + h, m, hbar)
                   - classical_partition(v, beta, t - h, m, hbar)) / (2 * h)
        scale = max(abs(formula), abs(numeric), 1e-30)
        derivative_errors.append(abs(formula - numeric) / scale)
    return {
        "tau_grid": tau_grid,
        "z_values": z,
        "strictly_decreasing": decreasing,
        "degenerate_constant": constant,
        "derivative_relative_errors": derivative_errors,
    }
