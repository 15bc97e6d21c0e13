"""Discretized L^2(R) engine: grid wavefunctions, momentum representation,
grid moments, pseudo-classical states, the entropic indeterminacy
inequality with the variance bound it implies, Wigner transforms, Weyl
quantization, smoothing, the quadratic-symbol Moyal-vs-Poisson consistency
check, and the grid Hamiltonian of the spectral reference.

Grid conventions: n position samples q_k = -length/2 + k*dq centered at 0;
momentum grid p_m = (m - n/2)*dp with dp = 2*pi*hbar/length, so that
dp*dq*n = 2*pi*hbar.  The Fourier sign follows
psi_hat(p) = int dq/sqrt(2*pi*hbar) psi(q) exp(-i p q/hbar).

Operators in this module are position kernels A(q,q') in continuum
normalization: (A psi)(q) = sum_q' A(q,q') psi(q') dq and
tr A = sum_q A(q,q) dq.

FFT conventions.  Every Fourier sum runs through numpy.fft; no DFT matrix
is built and nothing is cached between calls, so a transform costs
O(n^2 log n) time and O(n^2) memory.
- On the grid, exp(-i p_m q_k/hbar) = (-1)^(m - n/2) (-1)^k exp(-2 pi i mk/n),
  and the factor (-1)^k shifts the spectrum by n/2, so
  psi_hat = dq/sqrt(2 pi hbar) * (-1)^(m - n/2) * fftshift(fft(psi));
  from_momentum inverts it with ifftshift and ifft.
- The kinetic term of grid_hamiltonian is the circulant sample-action
  matrix c[(k - k') mod n] with c = ifft(ifftshift(p^2/(2m))); as a
  position kernel it would carry a further 1/dq.
- The Wigner sum over half-step lags l in (-n, n) carries the phase
  exp(2 pi i (m - n/2) l/n), which has period n in l, so lag l - n folds
  onto l.  A Hermitian kernel has c(-l) = conj(c(l)), so only lags 0..n-1
  are built: g[j] = c(j) + conj(c(n - j)), j = 0..n/2, is the half-spectrum
  of a real sequence, one real inverse FFT per position gives the symbol,
  and an fftshift puts p = 0 in row n/2.  Other kernels go by linearity.
- One helper moves samples half a step along an axis: FFT, factor
  exp(i pi m/n) for signed m with the Nyquist term (0 at half-steps)
  dropped, inverse FFT.
- Wigner lag l reads the kernel at half-step indices (2k - l, 2k + l), both
  of the parity of l: even lags from K, odd lags from K moved along both
  axes, two n x n tables.  A pure state gathers u[2k - l] conj(u[2k + l])
  from u = psi interleaved with psi moved, 2n samples.  The lags are built
  a block of positions at a time, small enough to stay in L2 cache.
- The Weyl map reads the same sum the other way: diagonal d = k - k' of
  the kernel is row d mod n of the inverse FFT along p, at the midpoints
  s = k + k' of parity d.  A real symbol gives a Hermitian kernel, so
  ihfft yields the rows d = 0..n/2 and conjugation the rest.  Odd rows
  move half a step along q.
- Gaussian smoothing transforms along q, the contiguous axis, in full and
  along p only on the q-band: the q-frequencies up to the last whose
  Gaussian factor, normalized to 1 at frequency 0, exceeds 2^-52.  The
  rest are set to 0, which moves each value by at most 2^-52 times the
  root sum of squares of the field (Cauchy-Schwarz and Parseval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .operators import _require_positive

__all__ = [
    "GridSpec", "GridWavefunction", "PhaseSpaceField",
    "gaussian_packet", "to_momentum", "from_momentum", "evolve_free",
    "position_moments", "momentum_moments", "pq_covariance",
    "pseudo_classical_state", "variance_from_entropic",
    "wigner_transform", "weyl_quantize", "isometry_check", "gauss_smooth",
    "moyal_poisson_check", "QuadraticSymbol", "grid_hamiltonian",
]

_NORM_TOL = 1e-8  # |norm - 1| a GridWavefunction may have
_MOYAL_PROBES = 9  # coherent-state probes per axis in moyal_poisson_check


@dataclass(frozen=True)
class GridSpec:
    """Uniform phase-space discretization; n must be a power of two."""

    n: int
    length: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("n must be a power of two")
        _require_positive(length=self.length, hbar=self.hbar)

    @property
    def dq(self) -> float:
        return self.length / self.n

    @property
    def dp(self) -> float:
        return 2 * math.pi * self.hbar / self.length

    def position_grid(self) -> np.ndarray:
        return -self.length / 2 + self.dq * np.arange(self.n)

    def momentum_grid(self) -> np.ndarray:
        return self.dp * (np.arange(self.n) - self.n // 2)

    def fine_position_grid(self) -> np.ndarray:
        """2n half-step positions, where fine symbols are sampled."""
        return -self.length / 2 + (self.dq / 2) * np.arange(2 * self.n)


@dataclass(frozen=True)
class GridWavefunction:
    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        object.__setattr__(self, "samples", s)
        if s.shape != (self.spec.n,):
            raise ValueError("sample count does not match the grid")
        norm = float(np.sum(np.abs(s) ** 2) * self.spec.dq)
        if not abs(norm - 1.0) <= _NORM_TOL:  # also rejects NaN
            raise ValueError(f"samples have norm {norm}, not 1 within {_NORM_TOL}")

    def density(self) -> np.ndarray:
        return np.abs(self.samples) ** 2

    def kernel(self) -> np.ndarray:
        """Position kernel psi_j conj(psi_k) of the pure state |psi><psi|,
        exactly Hermitian: with psi = a + ib its real part aa^T + bb^T is a
        sum of symmetric products and its imaginary part ba^T - ab^T
        antisymmetric, term by term."""
        a, b = self.samples.real, self.samples.imag
        k = np.empty((self.spec.n, self.spec.n), dtype=complex)
        k.real = np.outer(a, a) + np.outer(b, b)
        k.imag = np.outer(b, a) - np.outer(a, b)
        return k


@dataclass(frozen=True)
class PhaseSpaceField:
    """n x n field over the (p, q) plane, indexed values[p_index, q_index]."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.shape != (self.spec.n, self.spec.n):
            raise ValueError("field shape does not match the grid")

    def normalization(self) -> float:
        cell = self.spec.dp * self.spec.dq / (2 * math.pi * self.spec.hbar)
        return float(np.sum(self.values).real * cell)

    def to_csv(self, path):
        """Rows "p,q,value" with each float's repr, p outer and q inner."""
        p = [repr(x) for x in self.spec.momentum_grid().tolist()]
        q = [repr(x) for x in self.spec.position_grid().tolist()]
        rows = np.asarray(self.values.real, dtype=float).tolist()
        with open(path, "w") as fh:
            fh.write("p,q,value\n")
            for pv, row in zip(p, rows):
                fh.write("".join([f"{pv},{qv},{v!r}\n" for qv, v in zip(q, row)]))


def gaussian_packet(spec: GridSpec, alpha2: float, gamma: float = 0.0,
                    q0: float = 0.0, p0: float = 0.0) -> GridWavefunction:
    """Gaussian packet exp(-(q-q0)^2/(4 alpha2)) exp(i gamma (q-q0)^2/hbar)
    exp(i p0 (q-q0)/hbar); its momentum-position covariance is 2*gamma*alpha2.

    ValueError when its amplitude at the position or the momentum edge of
    the grid exceeds 1e-12 of its peak.
    """
    _require_positive(alpha2=alpha2)
    q = spec.position_grid() - q0
    env = (2 * math.pi * alpha2) ** -0.25 * np.exp(-q ** 2 / (4 * alpha2))
    psi = env * np.exp(1j * (gamma * q ** 2 + p0 * q) / spec.hbar)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * spec.dq)
    packet = GridWavefunction(spec, psi)
    _check_edges(packet, 1e-12)
    return packet


def _momentum_sign(n: int) -> np.ndarray:
    """(-1)^(m - n/2): the phase exp(-i p_m q_0/hbar) of the first sample."""
    return (-1.0) ** (np.arange(n) - n // 2)


def to_momentum(psi: GridWavefunction) -> np.ndarray:
    """Momentum samples psi_hat(p_m); Parseval holds with weight dp."""
    spec = psi.spec
    return ((spec.dq / math.sqrt(2 * math.pi * spec.hbar)) * _momentum_sign(spec.n)
            * np.fft.fftshift(np.fft.fft(psi.samples)))


def _check_edges(psi: GridWavefunction, tol: float) -> None:
    """ValueError when |psi| at the position edges, or |psi_hat| at the
    momentum edges |p| = pi hbar/dq, exceeds ``tol`` of its peak: the grid
    cuts the state off, or its momentum samples alias."""
    for amp, fault in ((np.abs(psi.samples), "state too wide for the grid"),
                       (np.abs(to_momentum(psi)), "state not resolved in momentum")):
        edge = max(amp[0], amp[-1]) / amp.max()
        if not edge <= tol:
            raise ValueError(f"{fault}: edge amplitude {edge:.3e} of the peak")


def from_momentum(spec: GridSpec, psi_hat: np.ndarray) -> np.ndarray:
    """Position samples from n momentum samples; inverse of to_momentum."""
    return ((math.sqrt(2 * math.pi * spec.hbar) / spec.dq)
            * np.fft.ifft(np.fft.ifftshift(_momentum_sign(spec.n) * psi_hat)))


def evolve_free(psi: GridWavefunction, t: float, mass: float) -> GridWavefunction:
    """Free time evolution exp(-i P^2 t / (2 m hbar)) applied in momentum space."""
    spec = psi.spec
    p = spec.momentum_grid()
    phase = np.exp(-1j * p ** 2 * t / (2 * mass * spec.hbar))
    return GridWavefunction(spec, from_momentum(spec, phase * to_momentum(psi)))


def position_moments(psi: GridWavefunction) -> tuple[float, float]:
    q = psi.spec.position_grid()
    rho = psi.density() * psi.spec.dq
    mean = float(q @ rho)
    return mean, float((q - mean) ** 2 @ rho)


def momentum_moments(psi: GridWavefunction) -> tuple[float, float]:
    p = psi.spec.momentum_grid()
    rho = np.abs(to_momentum(psi)) ** 2 * psi.spec.dp
    mean = float(p @ rho)
    return mean, float((p - mean) ** 2 @ rho)


def pq_covariance(psi: GridWavefunction) -> float:
    """c_{P,Q} = Re<P psi | Q psi> - <P><Q> by grid quadrature."""
    spec = psi.spec
    q = spec.position_grid()
    p_psi = from_momentum(spec, spec.momentum_grid() * to_momentum(psi))
    mean_q, _ = position_moments(psi)
    mean_p, _ = momentum_moments(psi)
    sym = float(np.sum(np.conj(p_psi) * (q * psi.samples)).real * spec.dq)
    return sym - mean_p * mean_q


def pseudo_classical_state(psi: GridWavefunction) -> PhaseSpaceField:
    """w(p,q) = 2 pi hbar |psi_hat(p)|^2 |psi(q)|^2, the nonnegative
    product density assigned to the state."""
    spec = psi.spec
    w = (2 * math.pi * spec.hbar
         * np.outer(np.abs(to_momentum(psi)) ** 2, psi.density()))
    return PhaseSpaceField(spec, w)


def _phase_space_entropy(field: PhaseSpaceField, reference: np.ndarray | None = None) -> float:
    """-<w, ln v> with v = w by default; cells below 1e-300 contribute 0."""
    spec = field.spec
    cell = spec.dp * spec.dq / (2 * math.pi * spec.hbar)
    w = field.values.real
    v = w if reference is None else reference
    mask = (w > 1e-300) & (v > 1e-300)
    return float(-np.sum(w[mask] * np.log(v[mask])) * cell)


def variance_from_entropic(psi: GridWavefunction) -> dict:
    """Inequality chain ln(e/2) <= -<w,ln w> <= -<w,ln wt> = ln(e sP sQ/hbar)
    for the pseudo-classical state w and the moment-matched Gaussian
    comparison density wt; entropy - bound is the entropic margin."""
    spec = psi.spec
    field = pseudo_classical_state(psi)
    mean_q, var_q = position_moments(psi)
    mean_p, var_p = momentum_moments(psi)
    sp, sq = math.sqrt(var_p), math.sqrt(var_q)
    p = spec.momentum_grid()[:, None]
    q = spec.position_grid()[None, :]
    wt = (spec.hbar / (sp * sq)
          * np.exp(-(p - mean_p) ** 2 / (2 * var_p) - (q - mean_q) ** 2 / (2 * var_q)))
    ent = _phase_space_entropy(field)
    cross = _phase_space_entropy(field, reference=np.maximum(wt, 1e-300))
    gauss_form = math.log(math.e * sp * sq / spec.hbar)
    return {
        "bound": 1 - math.log(2),
        "entropy": ent,
        "cross_entropy": cross,
        "gaussian_form": gauss_form,
        "sigma_product": sp * sq,
        "implied_lower_bound": spec.hbar / 2,
    }


def _half_step(values: np.ndarray, axis: int) -> np.ndarray:
    """Band-limited values half a sample step on along ``axis``; the Nyquist
    term, split evenly onto +-n/2, sums to 0 at half-steps."""
    n = values.shape[axis]
    shift = np.exp(1j * math.pi * np.fft.fftfreq(n))
    shift[n // 2] = 0
    f = np.fft.fft(values, axis=axis)
    f *= shift.reshape((n,) + (1,) * (values.ndim - 1 - axis))
    return np.fft.ifft(f, axis=axis)


# Cells per block of Wigner lags (1 MiB of complex128, 64 positions at
# n = 1024): a block, its half-spectrum and its transform stay in L2 cache.
_LAG_BLOCK_CELLS = 1 << 16


def _pure_lags(samples: np.ndarray):
    """Lag rows of the rank-one kernel u u^dag, u[2j] = psi[j] and
    u[2j + 1] = _half_step(psi)[j]:
    rows(k0, k1)[k - k0, l] = u[2k - l] conj(u[2k + l]) for l in [0, n),
    zero where an index leaves the fine grid."""
    n = len(samples)
    padded = np.zeros(4 * n, dtype=complex)
    padded[n:3 * n:2] = samples
    padded[n + 1:3 * n:2] = _half_step(samples, 0)
    windows = sliding_window_view(padded, n)
    conj_windows = sliding_window_view(padded.conj(), n)

    def rows(k0, k1):
        return (windows[2 * k0 + 1:2 * k1 + 1:2, ::-1]
                * conj_windows[n + 2 * k0:n + 2 * k1:2])

    return rows


def _kernel_lags(kernel: np.ndarray):
    """Lag rows kup[2k - l, 2k + l] of a general kernel, laid out as in
    _pure_lags, kup its 2n x 2n interpolation: even l reads K[k - l/2,
    k + l/2], odd l reads K_h[k - (l+1)/2, k + (l-1)/2], K_h = K moved half
    a step along both axes."""
    n = len(kernel)
    tables = np.concatenate([kernel.ravel(),
                             _half_step(_half_step(kernel, 0), 1).ravel()])
    lags = np.arange(n)
    offset = (lags & 1) * (n * n)

    def rows(k0, k1):
        k = np.arange(k0, k1)[:, None]
        a, b = k - (lags + 1) // 2, k + lags // 2
        inside = (a >= 0) & (b < n)
        return np.where(inside, tables[np.where(inside, a * n + b + offset, 0)], 0)

    return rows


def _hermitian_wigner(rows, spec: GridSpec) -> np.ndarray:
    """Wigner array of a Hermitian kernel from its lag rows l = 0..n-1, lag
    l at r = l dq/2.  Lag -n (r = -L/2) has no mirror partner on the
    half-step grid and is dropped, so g[0] = c(0) and the symbol is real."""
    n = spec.n
    w = np.empty((n, n))
    step = max(1, _LAG_BLOCK_CELLS // n)
    for k0 in range(0, n, step):
        k1 = min(n, k0 + step)
        c = rows(k0, k1)
        g = c[:, :n // 2 + 1]
        g[:, 1:] += c[:, n - 1:n // 2 - 1:-1].conj()
        x = np.fft.irfft(g, n, axis=1)
        x *= n * spec.dq
        # fftshift along p, transposed into the [p, q] layout
        w[:n // 2, k0:k1] = x[:, n // 2:].T
        w[n // 2:, k0:k1] = x[:, :n // 2].T
    return w


def wigner_transform(state, spec: GridSpec | None = None) -> PhaseSpaceField:
    """Weyl-Wigner symbol w(p,q) = 2 int dr exp(2ipr/hbar) <q-r|A|q+r>.

    ``state`` is a GridWavefunction or a position kernel (with ``spec``).
    The r-integral runs on a half-step grid, which keeps the momentum
    sampling alias-free; the kernel is moved there by one FFT per axis.
    A Hermitian kernel has a real symbol, built from the lags r >= 0 by one
    real inverse FFT per position.  Any other K goes by linearity, W(K) =
    W(H) + i W(A) with H = (K + K^dag)/2, A = (K - K^dag)/2i: W(H) is
    returned, and max|W(A)| > 1e-8 max(1, max|W(H)|) raises ValueError.

    A GridWavefunction whose |psi| at the grid edge, or whose |psi_hat| at
    the momentum edge, exceeds 1e-10 of its peak raises ValueError; a
    kernel is taken as given, with no edge check, but must have shape
    (n, n).
    """
    if isinstance(state, GridWavefunction):
        spec = state.spec
        _check_edges(state, 1e-10)
        return PhaseSpaceField(spec, _hermitian_wigner(_pure_lags(state.samples), spec))
    if spec is None:
        raise ValueError("a GridSpec is required for kernel input")
    kernel = np.asarray(state, dtype=complex)
    if kernel.shape != (spec.n, spec.n):
        raise ValueError(f"kernel shape {kernel.shape} does not match "
                         f"the grid ({spec.n}, {spec.n})")
    if np.array_equal(kernel, kernel.conj().T):
        return PhaseSpaceField(spec, _hermitian_wigner(_kernel_lags(kernel), spec))
    hermitian = (kernel + kernel.conj().T) / 2
    anti = (kernel - hermitian) / 1j
    w = _hermitian_wigner(_kernel_lags(hermitian), spec)
    # |W(A)| <= dq (2n - 1) max|kup_A| <= dq (2n - 1) ||A||_F (the half-step
    # move has norm 1): W(A) is computed only when that bound is too large
    tol = 1e-8 * max(1.0, float(np.abs(w).max()))
    if spec.dq * (2 * spec.n - 1) * np.linalg.norm(anti) > tol:
        imag = float(np.abs(_hermitian_wigner(_kernel_lags(anti), spec)).max())
        if imag > tol:
            raise ValueError(f"Wigner transform has imaginary residue {imag:.3e}")
    return PhaseSpaceField(spec, w)


def _hermitian_weyl(a: np.ndarray, dq: float, span: int) -> np.ndarray:
    """Kernel of a real symbol ``a`` (n x n, or n x 2n on the half-step grid)
    on the diagonals |k - k'| <= span, from its separations 0..n/2."""
    n = a.shape[0]
    if a.shape[1] == 2 * n:
        table = np.fft.ihfft(a[:, ::2], axis=0)
        table[1::2] = np.fft.ihfft(a[:, 1::2], axis=0)[1::2]
    else:
        table = np.fft.ihfft(a, axis=0)
        table[1::2] = _half_step(table[1::2], 1)
    table *= ((-1.0) ** np.arange(len(table)) / dq)[:, None]
    kernel = np.zeros((n, n), dtype=complex)
    flat = kernel.reshape(-1)
    for d in range(span + 1):
        size = n - d
        row = table[min(d, size), d // 2:d // 2 + size]
        lower = flat[d * n:d * n + size * (n + 1):n + 1]
        upper = flat[d:d + size * (n + 1):n + 1]
        if d > n // 2:  # row d is the conjugate of row n - d
            lower, upper = upper, lower
        np.conjugate(row, out=upper)
        lower[...] = row
    return kernel


def weyl_quantize(symbol: PhaseSpaceField, fine_symbol: np.ndarray | None = None,
                  compact: bool = True) -> np.ndarray:
    """Position kernel <q|A|q'> = int dp/(2 pi hbar) exp(ip(q-q')/hbar)
    a(p, (q+q')/2) of a phase-space symbol.

    Midpoints (q+q')/2 live on the half-step grid; ``fine_symbol`` may supply
    exact values there (shape n x 2n), otherwise band-limited interpolation
    along q is used.

    The finite momentum band makes the kernel periodic in the separation
    q - q', so the bulk repeats in the far anti-diagonal corners.  With
    ``compact=True`` (the default) those entries are zeroed, which is exact
    for operators whose kernels decay with separation (density operators of
    localized states) and makes the map the two-sided inverse of
    wigner_transform.  Symbols unbounded in p (polynomials) produce kernels
    with genuine slowly-decaying tails; pass ``compact=False`` to keep the
    periodic extension, which reproduces operator identities such as
    p^2 f(q) -> P f(Q) P - (hbar^2/4) f''(Q) in action on localized states.

    A real symbol gives an exactly Hermitian kernel; a complex one is
    quantized by linearity as K(Re a) + i K(Im a), the second term only
    when Im a is nonzero.
    """
    n, dq = symbol.spec.n, symbol.spec.dq
    if fine_symbol is not None and fine_symbol.shape != (n, 2 * n):
        raise ValueError("fine symbol must have shape (n, 2n)")
    a = symbol.values if fine_symbol is None else fine_symbol
    span = n // 2 if compact else n - 1
    kernel = _hermitian_weyl(a.real, dq, span)
    if np.iscomplexobj(a) and np.any(a.imag):
        kernel += 1j * _hermitian_weyl(a.imag, dq, span)
    return kernel


def isometry_check(a_kernel: np.ndarray, b_kernel: np.ndarray, spec: GridSpec) -> dict:
    """<a,b> on phase space against tr(A* B) on the grid."""
    wa = wigner_transform(a_kernel, spec)
    wb = wigner_transform(b_kernel, spec)
    cell = spec.dp * spec.dq / (2 * math.pi * spec.hbar)
    lhs = complex(np.sum(np.conj(wa.values) * wb.values) * cell)
    rhs = complex(np.sum(np.conj(a_kernel) * b_kernel) * spec.dq ** 2)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return {
        "phase_space_product": lhs,
        "trace_product": rhs,
        "relative_error": abs(lhs - rhs) / scale,
    }


# q-frequencies whose Gaussian factor, normalized to 1 at frequency 0, is at
# or below the rounding floor of that 1 are dropped by gauss_smooth
_SMOOTH_FLOOR = 2.0 ** -52


def _smooth_band(values: np.ndarray, p_factor: np.ndarray,
                 q_band: np.ndarray) -> np.ndarray:
    """Real field ``values`` times p_factor (n x 1) and q_band in the
    Fourier domain, with q-frequencies past len(q_band) set to 0."""
    keep = len(q_band)
    spectrum = np.fft.rfft(values, axis=1)
    band = spectrum[:, :keep]
    np.fft.fft(band, axis=0, out=band)
    band *= p_factor
    band *= q_band
    np.fft.ifft(band, axis=0, out=band)
    spectrum[:, keep:] = 0
    return np.fft.irfft(spectrum, values.shape[1], axis=1)


def gauss_smooth(w: PhaseSpaceField, sp2: float, sq2: float) -> PhaseSpaceField:
    """Convolution with the product Gaussian of variances (sp2, sq2);
    at sp2*sq2 = hbar^2/4 the result is the Husimi density.

    The Gaussian is separable, so its transform is the product of a
    p-factor and a q-factor, each normalized to 1 at frequency 0.  The field
    is transformed along q in full, and along p only on the q-frequencies
    up to the last whose factor exceeds 2^-52; the rest are set to 0.  That
    moves each value by at most 2^-52 ||W||_2, the root sum of squares of
    the n^2 values (sum W^2 is about n for a pure state).  A complex field
    is smoothed by linearity, S(Re w) + i S(Im w), the second term only when
    Im w is nonzero.  Variances must be finite and positive.
    """
    _require_positive(sp2=sp2, sq2=sq2)
    spec = w.spec
    gp = np.fft.ifftshift(np.exp(-spec.momentum_grid() ** 2 / (2 * sp2)))
    gq = np.fft.ifftshift(np.exp(-spec.position_grid() ** 2 / (2 * sq2)))
    p_factor = np.fft.fft(gp)[:, None] / gp.sum()
    q_factor = np.fft.rfft(gq) / gq.sum()
    q_band = q_factor[:np.flatnonzero(np.abs(q_factor) > _SMOOTH_FLOOR)[-1] + 1]
    values = w.values
    smoothed = _smooth_band(values.real, p_factor, q_band)
    if np.iscomplexobj(values) and np.any(values.imag):
        smoothed = smoothed + 1j * _smooth_band(values.imag, p_factor, q_band)
    return PhaseSpaceField(spec, smoothed)


class QuadraticSymbol:
    """Polynomial phase-space symbol of degree <= 2:
    c0 + cp*p + cq*q + cpp*p^2 + cqq*q^2 + cpq*p*q."""

    def __init__(self, c0=0.0, cp=0.0, cq=0.0, cpp=0.0, cqq=0.0, cpq=0.0):
        self.c = (float(c0), float(cp), float(cq), float(cpp), float(cqq), float(cpq))

    def __call__(self, p, q):
        c0, cp, cq, cpp, cqq, cpq = self.c
        return c0 + cp * p + cq * q + cpp * p ** 2 + cqq * q ** 2 + cpq * p * q

    def field(self, spec: GridSpec) -> PhaseSpaceField:
        p = spec.momentum_grid()[:, None]
        q = spec.position_grid()[None, :]
        return PhaseSpaceField(spec, self(p, q))

    def fine_field(self, spec: GridSpec) -> np.ndarray:
        p = spec.momentum_grid()[:, None]
        q = spec.fine_position_grid()[None, :]
        return np.asarray(self(p, q) + 0j)


def _linear_product(u: tuple, v: tuple) -> "QuadraticSymbol":
    """Product of two linear forms (c0, cp, cq) as a QuadraticSymbol."""
    u0, up, uq = u
    v0, vp, vq = v
    return QuadraticSymbol(c0=u0 * v0, cp=u0 * vp + up * v0,
                           cq=u0 * vq + uq * v0, cpp=up * vp, cqq=uq * vq,
                           cpq=up * vq + uq * vp)


def poisson_bracket(a: "QuadraticSymbol", b: "QuadraticSymbol") -> "QuadraticSymbol":
    """{a, b} = da/dp db/dq - da/dq db/dp, again of degree <= 2."""
    a0, ap, aq, app, aqq, apq = a.c
    b0, bp, bq, bpp, bqq, bpq = b.c
    da_p = (ap, 2 * app, apq)    # linear form in (1, p, q)
    da_q = (aq, apq, 2 * aqq)
    db_p = (bp, 2 * bpp, bpq)
    db_q = (bq, bpq, 2 * bqq)
    term1 = _linear_product(da_p, db_q)
    term2 = _linear_product(da_q, db_p)
    return QuadraticSymbol(*(x - y for x, y in zip(term1.c, term2.c)))


def moyal_poisson_check(a: "QuadraticSymbol", b: "QuadraticSymbol",
                        spec: GridSpec) -> dict:
    """For symbols of degree <= 2 the Moyal bracket equals the Poisson
    bracket: the Wigner symbol of (i/hbar)[A,B] must match
    da/dp db/dq - da/dq db/dp.

    The symbol of the commutator is probed on the interior half of the
    grid with coherent-state projectors: tr(C Pi(p0,q0)) equals the symbol
    smoothed by a Gaussian of variances (hbar/2, hbar/2), which for a
    polynomial symbol has the closed form c(p0,q0) + (cpp + cqq) hbar/2.
    This sidesteps the period-doubling artifacts a direct discrete Wigner
    transform of unbounded-operator kernels would produce.
    """
    ka = weyl_quantize(a.field(spec), fine_symbol=a.fine_field(spec),
                       compact=False)
    kb = weyl_quantize(b.field(spec), fine_symbol=b.fine_field(spec),
                       compact=False)
    comm = (1j / spec.hbar) * (ka @ kb - kb @ ka) * spec.dq

    br = poisson_bracket(a, b)
    # squeezed enough that a probe centered at +-L/4 still decays below
    # 1e-12 at the grid edge
    alpha2 = min(spec.hbar / 2,
                 (spec.length / 4 - spec.dq) ** 2 / (4 * math.log(1e13)))
    smear = br.c[3] * spec.hbar ** 2 / (4 * alpha2) + br.c[4] * alpha2
    probes_q = np.linspace(-spec.length / 4, spec.length / 4, _MOYAL_PROBES)
    p_half = math.pi * spec.hbar / spec.dq / 2
    probes_p = np.linspace(-p_half / 2, p_half / 2, _MOYAL_PROBES)

    worst = 0.0
    scale = 1.0
    for q0 in probes_q:
        for p0 in probes_p:
            phi = gaussian_packet(spec, alpha2, q0=float(q0), p0=float(p0))
            probe = complex(
                phi.samples.conj() @ (comm @ phi.samples)) * spec.dq ** 2
            expected = br(p0, q0) + smear
            worst = max(worst, abs(probe.real - expected), abs(probe.imag))
            scale = max(scale, abs(expected))
    return {"max_abs_error": worst, "relative_error": worst / scale}


def _circulant(c: np.ndarray) -> np.ndarray:
    """Matrix C[k, k'] = c[(k - k') mod n]."""
    n = len(c)
    rev = c[::-1]
    return sliding_window_view(np.concatenate([rev, rev]), n)[n - 1::-1].copy()


def grid_hamiltonian(spec: GridSpec, mass: float, potential) -> np.ndarray:
    """Sample-action matrix of P^2/(2m) + v(Q); real symmetric float64,
    eigensolve-ready.  ``potential`` takes the array of grid positions and
    returns v at each.  p^2 is even on the grid, so its transform is real up
    to rounding, which ``.real`` and the symmetrization drop."""
    p2 = spec.momentum_grid() ** 2 / (2 * mass)
    h = _circulant(np.fft.ifft(np.fft.ifftshift(p2)).real)
    q = spec.position_grid()
    h[np.diag_indices(spec.n)] += np.asarray(potential(q), dtype=float)
    return 0.5 * (h + h.T)
