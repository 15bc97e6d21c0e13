"""The FFT phase-space engine against dense sums written out from the
documented formulas.

Every reference here is an explicit O(n^2)-memory sum built from the grid
conventions in the qdesk.phasespace docstring (q_k = -L/2 + k dq,
p_m = (m - n/2) dp, dp dq n = 2 pi hbar, psi_hat = sum_k dq/sqrt(2 pi hbar)
exp(-i p q/hbar) psi); no qdesk function builds a reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdesk.phasespace import (
    GridSpec,
    GridWavefunction,
    PhaseSpaceField,
    QuadraticSymbol,
    from_momentum,
    gauss_smooth,
    grid_hamiltonian,
    to_momentum,
    weyl_quantize,
    wigner_transform,
)

GRIDS = [(64, 12.0, 0.5), (128, 24.0, 2.0), (256, 24.0, 1.0)]
TOL = 1e-12


def axes(n, length, hbar):
    dq = length / n
    dp = 2 * math.pi * hbar / length
    q = -length / 2 + dq * np.arange(n)
    p = dp * (np.arange(n) - n // 2)
    return q, p, dq, dp


def dft_matrix(n, length, hbar):
    """U[m, k] = dq/sqrt(2 pi hbar) exp(-i p_m q_k/hbar)."""
    q, p, dq, _ = axes(n, length, hbar)
    return dq / math.sqrt(2 * math.pi * hbar) * np.exp(-1j * np.outer(p, q) / hbar)


def upsample_matrix(n):
    """S[i, k]: the trigonometric interpolant of n periodic samples, with
    the Nyquist term split evenly onto frequencies -n/2 and +n/2, evaluated
    at the half-step points x_i = i/2 (in units of dq)."""
    nu = np.arange(-(n // 2), n // 2 + 1)
    weight = np.ones(len(nu))
    weight[[0, -1]] = 0.5
    analysis = np.exp(-2j * math.pi * np.outer(nu, np.arange(n)) / n)
    synthesis = np.exp(2j * math.pi * np.outer(np.arange(2 * n) / 2, nu) / n) / n
    return ((synthesis * weight) @ analysis).real


def wigner_oracle(kernel, n, length, hbar):
    """w(p_m, q_k) = 2 sum_r (dq/2) exp(2 i p_m r/hbar) kup(q_k - r, q_k + r)
    over half-steps r = l dq/2, l in (-n, n); kup = S K S^T is the kernel
    on the half-step grid, zero off it."""
    _, p, dq, _ = axes(n, length, hbar)
    s = upsample_matrix(n)
    fine = s @ kernel @ s.T
    lags = np.arange(1 - n, n)
    mid = 2 * np.arange(n)
    a, b = mid[None, :] - lags[:, None], mid[None, :] + lags[:, None]
    inside = (a >= 0) & (a < 2 * n) & (b >= 0) & (b < 2 * n)
    samples = np.where(inside, fine[np.clip(a, 0, 2 * n - 1), np.clip(b, 0, 2 * n - 1)], 0)
    phase = np.exp(2j * np.outer(p, lags * dq / 2) / hbar)
    return (dq * phase @ samples).real


def weyl_oracle(fine_symbol, n, length, hbar, compact):
    """<q_k|A|q_k'> = sum_m dp/(2 pi hbar) exp(i p_m (q_k - q_k')/hbar)
    a(p_m, (q_k + q_k')/2), the midpoint being half-step index k + k'."""
    _, p, dq, dp = axes(n, length, hbar)
    sep = np.arange(1 - n, n)
    summed = (dp / (2 * math.pi * hbar)
              * np.exp(1j * np.outer(sep * dq, p) / hbar)) @ fine_symbol
    k = np.arange(n)
    out = summed[k[:, None] - k[None, :] + n - 1, k[:, None] + k[None, :]]
    if compact:
        out[np.abs(k[:, None] - k[None, :]) > n // 2] = 0
    return out


def packet(q, q0, p0, alpha2, gamma, hbar):
    x = q - q0
    return np.exp(-x ** 2 / (4 * alpha2) + 1j * (gamma * x ** 2 + p0 * x) / hbar)


def normalized(v, dq):
    return v / math.sqrt(np.sum(np.abs(v) ** 2) * dq)


def two_packet_state(n, length, hbar):
    """Superposition of two chirped packets at -+L/12, well inside the grid."""
    q, _, dq, _ = axes(n, length, hbar)
    alpha2 = 0.2 * (length / 12) ** 2
    v = (packet(q, -length / 12, 0.5 * hbar, alpha2, 0.2 * hbar, hbar)
         + (0.6 - 0.3j) * packet(q, length / 12, -hbar, alpha2, -0.1 * hbar, hbar))
    return GridWavefunction(GridSpec(n, length, hbar), normalized(v, dq))


def rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("n,length,hbar", GRIDS)
class TestAgainstDenseSums:
    def test_momentum_maps(self, n, length, hbar):
        psi = two_packet_state(n, length, hbar)
        u = dft_matrix(n, length, hbar)
        assert rel_err(to_momentum(psi), u @ psi.samples) < TOL
        rng = np.random.default_rng(n)
        phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        back = from_momentum(psi.spec, phi)
        assert rel_err(back, np.linalg.solve(u, phi)) < TOL

    def test_grid_hamiltonian(self, n, length, hbar):
        q, p, _, _ = axes(n, length, hbar)
        mass = 0.7
        u = dft_matrix(n, length, hbar)
        ref = np.linalg.solve(u, (p ** 2 / (2 * mass))[:, None] * u) + np.diag(q ** 4 / 4)
        h = grid_hamiltonian(GridSpec(n, length, hbar), mass, lambda x: x ** 4 / 4)
        assert rel_err(h, ref) < TOL
        assert np.array_equal(h, h.conj().T)

    def test_wigner_transform(self, n, length, hbar):
        psi = two_packet_state(n, length, hbar)
        kernel = np.outer(psi.samples, psi.samples.conj())
        ref = wigner_oracle(kernel, n, length, hbar)
        from_state = wigner_transform(psi).values
        from_kernel = wigner_transform(kernel, psi.spec).values
        assert np.max(np.abs(from_state - ref)) < TOL
        assert np.max(np.abs(from_kernel - ref)) < TOL
        assert np.max(np.abs(from_kernel - from_state)) < TOL

    @pytest.mark.parametrize("compact", [True, False])
    def test_weyl_quantize(self, n, length, hbar, compact):
        psi = two_packet_state(n, length, hbar)
        field = wigner_transform(psi)
        fine = field.values @ upsample_matrix(n).T
        ref = weyl_oracle(fine, n, length, hbar, compact)
        assert rel_err(weyl_quantize(field, compact=compact), ref) < TOL

    @pytest.mark.parametrize("coefficient", ["cp", "cpp", "cq", "cqq"])
    def test_weyl_quantize_of_a_power_is_the_operator_power(self, n, length,
                                                            hbar, coefficient):
        # p^k -> P^k = U^-1 p^k U and q^k -> Q^k, as kernels per unit dq
        spec = GridSpec(n, length, hbar)
        q, p, dq, _ = axes(n, length, hbar)
        sym = QuadraticSymbol(**{coefficient: 1.0})
        got = weyl_quantize(sym.field(spec), fine_symbol=sym.fine_field(spec),
                            compact=False)
        power = len(coefficient) - 1
        if coefficient[1] == "p":
            u = dft_matrix(n, length, hbar)
            ref = np.linalg.solve(u, p[:, None] ** power * u) / dq
        else:
            ref = np.diag(q ** power) / dq
        assert rel_err(got, ref) < TOL

    def test_weyl_quantize_fine_symbol(self, n, length, hbar):
        spec = GridSpec(n, length, hbar)
        sym = QuadraticSymbol(c0=0.3, cpp=0.5, cq=-0.2, cpq=0.1)
        _, p, dq, _ = axes(n, length, hbar)
        fine_q = -length / 2 + (dq / 2) * np.arange(2 * n)
        fine = sym(p[:, None], fine_q[None, :]) + 0j
        ref = weyl_oracle(fine, n, length, hbar, compact=False)
        got = weyl_quantize(sym.field(spec), fine_symbol=sym.fine_field(spec),
                            compact=False)
        assert rel_err(got, ref) < TOL


@pytest.mark.parametrize("n", [2, 4, 8])
class TestWignerHermitianHalf:
    """wigner_transform folds lags n - j onto j and transforms the half
    j = 0..n/2; on these grids every row reaches g[0] and the Nyquist
    term g[n/2].  Pure states on them reach the grid edge, so the input is
    a random kernel."""

    def test_small_grids(self, n):
        length, hbar = 3.0, 0.8
        rng = np.random.default_rng(n)
        r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kernel = (r + r.conj().T) / 2
        assert np.array_equal(kernel, kernel.conj().T)
        got = wigner_transform(kernel, GridSpec(n, length, hbar)).values
        assert rel_err(got, wigner_oracle(kernel, n, length, hbar)) < TOL

    def test_mixed_kernel(self, n):
        length, hbar = 3.0, 0.8
        rng = np.random.default_rng(n + 1)
        v = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        kernel = (v * [0.5, 0.3, 0.2]) @ v.conj().T
        got = wigner_transform(kernel, GridSpec(n, length, hbar)).values
        assert rel_err(got, wigner_oracle(kernel, n, length, hbar)) < TOL


@pytest.mark.parametrize("compact", [True, False])
class TestWeylHermitianHalf:
    """weyl_quantize builds the kernel of a real symbol from separations
    0..n/2 and moves odd separations half a step along q; these cases
    reach the Nyquist row, the complex-symbol split and the fine-symbol
    tables."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_small_grids(self, n, compact):
        length, hbar = 3.0, 0.8
        values = np.random.default_rng(n).standard_normal((n, n))
        ref = weyl_oracle(values @ upsample_matrix(n).T, n, length, hbar, compact)
        got = weyl_quantize(PhaseSpaceField(GridSpec(n, length, hbar), values),
                            compact=compact)
        assert rel_err(got, ref) < TOL
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("n,length,hbar", GRIDS)
    def test_complex_symbol(self, n, length, hbar, compact):
        rng = np.random.default_rng(n + 1)
        values = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ref = weyl_oracle(values @ upsample_matrix(n).T, n, length, hbar, compact)
        got = weyl_quantize(PhaseSpaceField(GridSpec(n, length, hbar), values),
                            compact=compact)
        assert rel_err(got, ref) < TOL

    @pytest.mark.parametrize("n,length,hbar", GRIDS)
    def test_fine_symbol(self, n, length, hbar, compact):
        spec = GridSpec(n, length, hbar)
        fine = np.random.default_rng(n + 2).standard_normal((n, 2 * n))
        ref = weyl_oracle(fine, n, length, hbar, compact)
        field = PhaseSpaceField(spec, fine[:, ::2])
        got = weyl_quantize(field, fine_symbol=fine, compact=compact)
        assert rel_err(got, ref) < TOL
        assert np.array_equal(got, got.conj().T)

    @pytest.mark.parametrize("n,length,hbar", GRIDS)
    def test_real_symbol_gives_exactly_hermitian_kernel(self, n, length, hbar,
                                                        compact):
        field = wigner_transform(two_packet_state(n, length, hbar))
        kernel = weyl_quantize(field, compact=compact)
        assert np.array_equal(kernel, kernel.conj().T)


def gaussian_circulant(n, step, var):
    """C[i, j] = exp(-(d step)^2/(2 var)) / (row sum), d = i - j taken
    mod n into [-n/2, n/2)."""
    d = (np.arange(n)[:, None] - np.arange(n)[None, :] + n // 2) % n - n // 2
    c = np.exp(-(d * step) ** 2 / (2 * var))
    return c / c[0].sum()


def q_band_size(n, dq, sq2):
    """Number of rfft frequencies whose normalized Gaussian factor exceeds
    2^-52, from the factor's own DFT."""
    d = (np.arange(n) + n // 2) % n - n // 2
    g = np.exp(-(d * dq) ** 2 / (2 * sq2))
    factor = np.abs(np.fft.fft(g)[:n // 2 + 1]) / g.sum()
    return int(np.flatnonzero(factor > 2.0 ** -52)[-1]) + 1


# Variances (sp2, sq2) from (dq, dp, hbar, L).  A q-Gaussian narrower than a
# sample keeps every q-frequency; one of 3 samples keeps most of them; one
# of L/18, down to 2.6e-18 at the box edge, keeps the same few on any grid.
SMOOTHINGS = {
    "full": lambda dq, dp, hbar, length: (hbar / 2, dq ** 2 / 2),
    "partial": lambda dq, dp, hbar, length: (hbar / 2, (3 * dq) ** 2),
    "narrow": lambda dq, dp, hbar, length: (dp ** 2, (length / 18) ** 2),
}


@pytest.mark.parametrize("n,length,hbar", GRIDS)
@pytest.mark.parametrize("band", sorted(SMOOTHINGS))
class TestGaussSmooth:
    """gauss_smooth against the separable circulant sum Gp W Gq^T of the
    sampled Gaussians, over a full, a partial and a narrow q-band."""

    def setup_variances(self, band, n, length, hbar):
        _, _, dq, dp = axes(n, length, hbar)
        sp2, sq2 = SMOOTHINGS[band](dq, dp, hbar, length)
        keep = q_band_size(n, dq, sq2)
        if band == "full":
            assert keep == n // 2 + 1
        elif band == "partial":
            assert n // 4 < keep <= n // 2
        else:
            assert keep <= 32
        return sp2, sq2, dq, dp

    def reference(self, values, n, sp2, sq2, dq, dp):
        return gaussian_circulant(n, dp, sp2) @ values @ gaussian_circulant(n, dq, sq2).T

    def test_wigner_field(self, band, n, length, hbar):
        sp2, sq2, dq, dp = self.setup_variances(band, n, length, hbar)
        psi = two_packet_state(n, length, hbar)
        field = wigner_transform(psi)
        got = gauss_smooth(field, sp2, sq2).values
        assert got.dtype == np.float64
        assert rel_err(got, self.reference(field.values, n, sp2, sq2, dq, dp)) < TOL

    def test_white_noise_within_cut_bound(self, band, n, length, hbar):
        # a flat spectrum puts as much weight on the dropped q-band as
        # anywhere; the cut moves each value by at most 2^-52 ||W||_2
        sp2, sq2, dq, dp = self.setup_variances(band, n, length, hbar)
        values = np.random.default_rng(n).standard_normal((n, n))
        got = gauss_smooth(PhaseSpaceField(GridSpec(n, length, hbar), values),
                           sp2, sq2).values
        ref = self.reference(values, n, sp2, sq2, dq, dp)
        assert rel_err(got, ref) < TOL
        assert np.max(np.abs(got - ref)) <= 2.0 ** -52 * np.linalg.norm(values)

    def test_complex_field_by_linearity(self, band, n, length, hbar):
        sp2, sq2, dq, dp = self.setup_variances(band, n, length, hbar)
        rng = np.random.default_rng(n + 1)
        values = wigner_transform(two_packet_state(n, length, hbar)).values \
            + 1j * rng.standard_normal((n, n))
        got = gauss_smooth(PhaseSpaceField(GridSpec(n, length, hbar), values),
                           sp2, sq2).values
        ref = self.reference(values, n, sp2, sq2, dq, dp)
        assert rel_err(got.real, ref.real) < TOL
        assert rel_err(got.imag, ref.imag) < TOL


PACKET = st.tuples(
    st.floats(-3.0, 3.0),     # q0
    st.floats(-2.0, 2.0),     # p0 / hbar
    st.floats(0.4, 1.5),      # alpha2
    st.floats(-0.25, 0.25),   # gamma / hbar
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(hbar=st.sampled_from([0.5, 1.0, 2.0]), first=PACKET, second=PACKET,
       amplitude=st.floats(0.1, 1.0), angle=st.floats(0.0, 2 * math.pi),
       mixed=st.booleans())
def test_localized_states_marginals_and_round_trip(hbar, first, second,
                                                   amplitude, angle, mixed):
    """Two-packet states, pure (superposition) or mixed (ensemble): both
    Wigner marginals match the dense densities, and Weyl quantization
    inverts the Wigner transform.  The grid is wide enough that every
    kernel falls below 1e-11 of its peak at separation L/2, where the
    periodic Weyl kernel is cut."""
    n, length = 256, 48.0
    spec = GridSpec(n, length, hbar)
    q, _, dq, dp = axes(n, length, hbar)
    u = dft_matrix(n, length, hbar)
    a, b = (packet(q, q0, hbar * p0, alpha2, hbar * gamma, hbar)
            for q0, p0, alpha2, gamma in (first, second))
    if mixed:
        weight = amplitude / (1 + amplitude)
        parts = [(1 - weight, normalized(a, dq)), (weight, normalized(b, dq))]
    else:
        parts = [(1.0, normalized(a + amplitude * np.exp(1j * angle) * b, dq))]
    kernel = sum(t * np.outer(v, v.conj()) for t, v in parts)
    w = wigner_transform(kernel, spec).values
    cell = 2 * math.pi * hbar
    assert abs(w.sum() * dq * dp / cell - 1.0) <= 1e-6
    assert np.max(np.abs(w)) <= 2 + 1e-6
    q_marginal = w.sum(axis=0) * dp / cell
    p_marginal = w.sum(axis=1) * dq / cell
    assert np.max(np.abs(q_marginal - np.diag(kernel).real)) < 1e-10
    p_density = sum(t * np.abs(u @ v) ** 2 for t, v in parts)
    assert np.max(np.abs(p_marginal - p_density)) < 1e-10
    back = weyl_quantize(PhaseSpaceField(spec, w))
    assert np.max(np.abs(back - kernel)) < 1e-10 * np.max(np.abs(kernel))
