"""Dense complex linear algebra on finite Hilbert spaces.

Operators are square complex numpy arrays in thin validating containers,
compared and hashed by identity: a ``HermitianOperator`` is certified
self-adjoint, and a ``DensityOperator`` is one that is also positive with
unit trace.  Everything here is a pure function; no value is mutated after
construction, so instances can be shared freely between workers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import KW_ONLY, dataclass

import numpy as np

__all__ = [
    "HermitianOperator",
    "DensityOperator",
    "SpectralResolution",
    "eigh",
    "func_of",
    "tensor",
    "partial_trace",
    "commutator",
    "anticommutator",
    "standardized_commutator",
    "lattice_meet",
    "gleason_additivity_check",
]


_PSD_TOL = -1e-10  # smallest eigenvalue a density operator may have
_ORTHO_TOL = 1e-10  # max |V^dag V - I| of a spectral resolution
_PROJECTION_TOL = 1e-10  # asymmetry of a projection, mu(E) range, lattice_meet step
_MEET_MAX_ITER = 10_000


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def _require_positive(**values) -> None:
    """ValueError naming the first of ``values`` that is not finite and
    positive; NaN and infinity fail."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles and has loaded, or None where there is none."""
    import glob  # here: only the first eigensolve needs it
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_-*.so")):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_BLAS_LOCK = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its
    thread count.  A threaded OpenBLAS call leaves its worker busy-waiting
    ~0.13 s of CPU before it sleeps, on a core the next computation needs,
    and its rounding depends on the thread count.  The spectral reference's
    eigensolves and the path sampler's products run in it.  Does nothing
    where the library is not found."""
    with _BLAS_LOCK:
        threads = _openblas_threads()
        if threads is None:
            yield
            return
        get, put = threads
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


def _asymmetry(m: np.ndarray) -> float:
    """max |M - M^dagger|, 0 for an empty matrix."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix certified self-adjoint up to ``hermiticity_tol``."""

    matrix: np.ndarray
    _: KW_ONLY
    hermiticity_tol: float = 1e-12

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        asym = _asymmetry(m)
        if asym > self.hermiticity_tol:
            raise ValueError(
                f"matrix is not Hermitian: max asymmetry {asym:.3e} "
                f"> tol {self.hermiticity_tol:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator(HermitianOperator):
    """Certified Hermitian operator that is also positive, with trace 1
    within ``trace_tol``."""

    trace_tol: float = 1e-10

    def __post_init__(self):
        super().__post_init__()
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > self.trace_tol:
            raise ValueError(f"trace {tr!r} deviates from 1 beyond tol {self.trace_tol}")
        lam_min = float(np.linalg.eigvalsh(self.matrix)[0])
        if lam_min < _PSD_TOL:
            raise ValueError(
                f"smallest eigenvalue {lam_min:.3e} below psd tolerance {_PSD_TOL:.3e}"
            )


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Ascending real eigenvalues with an orthonormal set of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        v = np.asarray(self.eigenvectors, dtype=complex)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)
        if np.any(np.diff(w) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        gram = v.conj().T @ v
        err = float(np.max(np.abs(gram - np.eye(v.shape[1]))))
        if err > _ORTHO_TOL:
            raise ValueError(f"eigenvectors not orthonormal: residual {err:.3e}")

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T


def _certified(a, **tol) -> HermitianOperator:
    """``a`` if it is a ``HermitianOperator``, else ``a`` certified as one."""
    return a if isinstance(a, HermitianOperator) else HermitianOperator(a, **tol)


def eigh(a) -> SpectralResolution:
    """Hermitian eigendecomposition; input that is not already a
    ``HermitianOperator`` is certified as one first."""
    w, v = np.linalg.eigh(_certified(a).matrix)
    return SpectralResolution(eigenvalues=w, eigenvectors=v)

def func_of(a, f) -> HermitianOperator:
    """Apply a real function to a Hermitian operator through its spectrum.

    ``f`` must be defined at every eigenvalue; a domain failure is reported
    with the offending eigenvalue.
    """
    res = eigh(a)
    vals = []
    for lam in res.eigenvalues:
        try:
            y = f(float(lam))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not np.isfinite(y):
            raise ValueError(f"function undefined at eigenvalue {lam!r} (got {y!r})")
        vals.append(y)
    m = (res.eigenvectors * np.asarray(vals)) @ res.eigenvectors.conj().T
    return HermitianOperator(0.5 * (m + m.conj().T))  # exactly Hermitian


def tensor(a, b) -> np.ndarray:
    """Kronecker product; subsystem 1 is the slow (left) index."""
    return np.kron(np.asarray(getattr(a, "matrix", a), dtype=complex),
                   np.asarray(getattr(b, "matrix", b), dtype=complex))


def partial_trace(a, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims = (d1, d2)`` with subsystem 1 on the slow Kronecker index;
    ``keep`` is 1 or 2 and names the subsystem that survives.
    """
    m = _as_matrix(a)
    d1, d2 = dims
    if m.shape[0] != d1 * d2:
        raise ValueError(f"matrix dim {m.shape[0]} != d1*d2 = {d1 * d2}")
    if keep not in (1, 2):
        raise ValueError("keep must be 1 or 2")
    t = m.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def commutator(a, b) -> np.ndarray:
    """[A,B] = AB - BA (no i/hbar factor)."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch in commutator")
    return ma @ mb - mb @ ma


def anticommutator(a, b) -> np.ndarray:
    """{A,B} = AB + BA."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValueError("dimension mismatch in anticommutator")
    return ma @ mb + mb @ ma


def standardized_commutator(a, b, hbar: float) -> np.ndarray:
    """Hermitian form (i/hbar)[A,B] of the commutator of two Hermitian operators."""
    return 1j / hbar * commutator(a, b)


def _check_projection(e: np.ndarray, name: str):
    if _asymmetry(e) > _PROJECTION_TOL:
        raise ValueError(f"{name} is not Hermitian within {_PROJECTION_TOL}")
    if np.max(np.abs(e @ e - e)) > 1e-9:
        raise ValueError(f"{name} is not idempotent within 1e-9")


def lattice_meet(e, f) -> np.ndarray:
    """Projection onto the intersection of two ranges via E(FE)^n.

    Convergence is geometric with ratio cos^2 of the principal angle between
    the ranges; non-convergence within 10 000 steps raises with the residual.
    """
    me, mf = _as_matrix(e), _as_matrix(f)
    _check_projection(me, "E")
    _check_projection(mf, "F")
    x = me.copy()
    for _ in range(_MEET_MAX_ITER):
        x_next = me @ (mf @ x)
        if np.max(np.abs(x_next - x)) <= _PROJECTION_TOL:
            # symmetrize the numerical limit: it is a projection in theory
            g = 0.5 * (x_next + x_next.conj().T)
            return g
        x = x_next
    resid = float(np.max(np.abs(me @ (mf @ x) - x)))
    raise RuntimeError(f"lattice_meet did not converge in {_MEET_MAX_ITER} steps "
                       f"(residual {resid:.3e})")


def gleason_additivity_check(w: DensityOperator, projections) -> dict:
    """Additivity of mu(E) = tr(WE) over a pairwise-orthogonal family."""
    ps = [_as_matrix(p) for p in projections]
    for i, p in enumerate(ps):
        _check_projection(p, f"E_{i}")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if np.max(np.abs(ps[i] @ ps[j])) > 1e-9:
                raise ValueError(f"projections {i} and {j} are not orthogonal")
    wm = w.matrix
    mus = [float(np.trace(wm @ p).real) for p in ps]
    total = sum(ps)
    mu_sum_op = float(np.trace(wm @ total).real)
    for i, mu in enumerate(mus):
        if not -_PROJECTION_TOL <= mu <= 1 + _PROJECTION_TOL:
            raise ValueError(f"mu(E_{i}) = {mu} outside [0,1]")
    return {
        "mu_of_sum": mu_sum_op,
        "sum_of_mu": float(sum(mus)),
        "residual": abs(mu_sum_op - sum(mus)),
        "mu_values": mus,
    }
