"""Tests for the phase-space grid layer: transforms, packets, and bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from qdesk import phasespace
from qdesk.phasespace import (
    GridSpec,
    GridWavefunction,
    PhaseSpaceField,
    QuadraticSymbol,
    evolve_free,
    from_momentum,
    gauss_smooth,
    gaussian_packet,
    grid_hamiltonian,
    isometry_check,
    momentum_moments,
    moyal_poisson_check,
    position_moments,
    pq_covariance,
    pseudo_classical_state,
    to_momentum,
    variance_from_entropic,
    weyl_quantize,
    wigner_transform,
)

SPEC = GridSpec(n=256, length=24.0, hbar=1.0)


def random_smooth_state(spec, rng):
    """Normalized state with random structure under a Gaussian envelope."""
    q = spec.position_grid()
    env = np.exp(-q ** 2 / 8)
    v = env * (rng.standard_normal(spec.n) + 1j * rng.standard_normal(spec.n))
    v /= math.sqrt(np.sum(np.abs(v) ** 2) * spec.dq)
    return GridWavefunction(spec, v)


def momentum_localized(spec, samples):
    """``samples`` with their momentum samples under a Gaussian envelope
    too, so that the state is resolved at both grid edges."""
    k = np.fft.fftfreq(spec.n, 1 / spec.n)
    v = np.fft.ifft(np.fft.fft(samples) * np.exp(-(k / 8) ** 2))
    v /= math.sqrt(np.sum(np.abs(v) ** 2) * spec.dq)
    return GridWavefunction(spec, v)


def dense_momentum_kernel(spec, power):
    """Kernel of P^power, solve(U, p^power U)/dq, from the dense grid Fourier
    matrix U[m, k] = dq/sqrt(2 pi hbar) exp(-i p_m q_k/hbar) with
    q_k = -L/2 + k dq and p_m = (m - n/2) dp written out."""
    n, dq = spec.n, spec.length / spec.n
    q = -spec.length / 2 + dq * np.arange(n)
    p = 2 * math.pi * spec.hbar / spec.length * (np.arange(n) - n // 2)
    u = dq / math.sqrt(2 * math.pi * spec.hbar) * np.exp(-1j * np.outer(p, q) / spec.hbar)
    return np.linalg.solve(u, p[:, None] ** power * u) / dq


def excited_state(spec):
    """First excited oscillator state on the grid."""
    q = spec.position_grid()
    v = q * np.exp(-q ** 2 / 2)
    v = v / math.sqrt(np.sum(np.abs(v) ** 2) * spec.dq)
    return GridWavefunction(spec, v.astype(complex))


class TestGridSpec:
    def test_nyquist_relation(self):
        assert abs(SPEC.dp * SPEC.dq * SPEC.n - 2 * np.pi * SPEC.hbar) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(n=100, length=16.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            GridSpec(n=64, length=-1.0)

    @pytest.mark.parametrize("length,hbar,name", [(math.nan, 1.0, "length"),
                                                  (math.inf, 1.0, "length"),
                                                  (16.0, math.nan, "hbar"),
                                                  (16.0, math.inf, "hbar")])
    def test_rejects_non_finite(self, length, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            GridSpec(16, length, hbar)

    def test_wavefunction_rejects_nan_samples(self):
        with pytest.raises(ValueError, match="samples have norm nan"):
            GridWavefunction(SPEC, np.full(SPEC.n, math.nan))


class TestFourier:
    def test_parseval_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(SPEC.n) + 1j * rng.standard_normal(SPEC.n)
            v /= math.sqrt(np.sum(np.abs(v) ** 2) * SPEC.dq)
            psi = GridWavefunction(SPEC, v)
            phi = to_momentum(psi)
            na = np.sum(np.abs(psi.samples) ** 2) * SPEC.dq
            nb = np.sum(np.abs(phi) ** 2) * SPEC.dp
            assert abs(na - nb) < 1e-8

    def test_momentum_roundtrip(self):
        psi = gaussian_packet(SPEC, alpha2=1.0, p0=0.7)
        back = from_momentum(SPEC, to_momentum(psi))
        assert np.max(np.abs(back - psi.samples)) < 1e-12

    def test_boost_shifts_momentum_mean(self):
        psi = gaussian_packet(SPEC, alpha2=1.0, p0=2.0)
        mean_p, _ = momentum_moments(psi)
        assert abs(mean_p - 2.0) < 1e-10


class TestPackets:
    def test_gaussian_moments(self):
        alpha2 = 0.8
        psi = gaussian_packet(SPEC, alpha2=alpha2, q0=0.5, p0=-1.0)
        mq, vq = position_moments(psi)
        mp, vp = momentum_moments(psi)
        assert abs(mq - 0.5) < 1e-10
        assert abs(mp + 1.0) < 1e-10
        assert abs(vq - alpha2) < 1e-8
        assert abs(vp - SPEC.hbar ** 2 / (4 * alpha2)) < 1e-8

    def test_kennard_saturation(self):
        psi = gaussian_packet(SPEC, alpha2=1.2)
        _, vq = position_moments(psi)
        _, vp = momentum_moments(psi)
        assert abs(math.sqrt(vq * vp) - SPEC.hbar / 2) < 1e-8

    def test_chirped_packet_covariance(self):
        psi = gaussian_packet(SPEC, alpha2=1.0, gamma=0.3)
        assert abs(pq_covariance(psi) - 0.6) < 1e-8

    def test_packet_rejects_grid_edge_support(self):
        with pytest.raises(ValueError, match="wide"):
            gaussian_packet(SPEC, alpha2=100.0)

    @pytest.mark.parametrize("alpha2", [math.nan, math.inf])
    def test_packet_rejects_non_finite_width(self, alpha2):
        with pytest.raises(ValueError, match="alpha2 must be finite and positive"):
            gaussian_packet(SPEC, alpha2)

    @pytest.mark.parametrize("n,hbar,resolved", [(512, 0.01, False),
                                                 (512, 0.12, False), (512, 0.13, True),
                                                 (1024, 0.06, False), (1024, 0.065, True)])
    def test_momentum_edge_boundary(self, n, hbar, resolved):
        # |psi_hat(p)| / peak = exp(-p^2 / (4 sp2)), sp2 = hbar^2/(4 alpha2)
        # + 4 gamma^2 alpha2; the samples at p = -pi hbar/dq hold both edges'
        # tails, up to twice that.  Packets pass iff it is at most 1e-12.
        spec = GridSpec(n=n, length=32.0, hbar=hbar)
        sp2 = hbar ** 2 / 4 + 4 * 0.3 ** 2
        ratio = math.exp(-(math.pi * hbar / spec.dq) ** 2 / (4 * sp2))
        assert 2 * ratio <= 1e-12 if resolved else ratio > 1e-12
        if resolved:
            gaussian_packet(spec, alpha2=1.0, gamma=0.3)
        else:
            with pytest.raises(ValueError, match="not resolved in momentum"):
                gaussian_packet(spec, alpha2=1.0, gamma=0.3)


class TestWigner:
    def test_pure_state_properties(self):
        psi = gaussian_packet(SPEC, alpha2=1.0, q0=1.0, p0=-0.5)
        w = wigner_transform(psi)
        assert abs(w.normalization() - 1.0) < 1e-8
        assert np.max(np.abs(w.values)) <= 2.0 + 1e-9

    def test_marginals(self):
        psi = gaussian_packet(SPEC, alpha2=0.9, q0=-0.7, p0=1.2)
        w = wigner_transform(psi)
        cell_p = SPEC.dp / (2 * math.pi * SPEC.hbar)
        cell_q = SPEC.dq / (2 * math.pi * SPEC.hbar)
        q_marg = np.sum(w.values, axis=0) * cell_p
        p_marg = np.sum(w.values, axis=1) * cell_q
        assert np.max(np.abs(q_marg - psi.density())) < 1e-6
        assert np.max(np.abs(p_marg - np.abs(to_momentum(psi)) ** 2)) < 1e-6

    def test_excited_state_center(self):
        w = wigner_transform(excited_state(SPEC))
        assert abs(w.values[SPEC.n // 2, SPEC.n // 2] + 2.0) < 1e-4

    def test_rejects_edge_supported_kernel(self):
        v = np.full(SPEC.n, 1.0 / math.sqrt(SPEC.length), dtype=complex)
        psi = GridWavefunction(SPEC, v)
        with pytest.raises(ValueError, match="edge"):
            wigner_transform(psi)

    def test_rejects_state_unresolved_in_momentum(self):
        # localized in position, white in momentum up to the band edge
        rng = np.random.default_rng(0)
        q = SPEC.position_grid()
        v = np.exp(-q ** 2 / 2) * (rng.standard_normal(SPEC.n)
                                   + 1j * rng.standard_normal(SPEC.n))
        psi = GridWavefunction(SPEC, v / math.sqrt(np.sum(np.abs(v) ** 2) * SPEC.dq))
        with pytest.raises(ValueError, match="not resolved in momentum"):
            wigner_transform(psi)

    @pytest.mark.parametrize("shape", [(32, 32), (128, 128), (64, 32)])
    def test_rejects_kernel_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="does not match the grid"):
            wigner_transform(np.zeros(shape, dtype=complex), GridSpec(64, 16.0))

    @pytest.mark.parametrize("positions", [1, 3, SPEC.n])
    def test_blocks_do_not_change_bits(self, monkeypatch, positions):
        psi = gaussian_packet(SPEC, alpha2=0.8, gamma=0.2, q0=0.5, p0=-0.3)
        chi = gaussian_packet(SPEC, alpha2=1.0, q0=-1.0, p0=0.6)
        mixed = 0.4 * psi.kernel() + 0.6 * chi.kernel()
        pure, kernel = wigner_transform(psi).values, wigner_transform(mixed, SPEC).values
        monkeypatch.setattr(phasespace, "_LAG_BLOCK_CELLS", positions * SPEC.n)
        assert np.array_equal(wigner_transform(psi).values, pure)
        assert np.array_equal(wigner_transform(mixed, SPEC).values, kernel)

    @pytest.mark.parametrize("n", [2, 4, 64, 512])
    def test_partners_fold_as_in_one_lag_block(self, n):
        # g[j] = c(j) + conj(c(n - j)) from all n lags of a block at once,
        # the partners conjugated in a copy
        spec = GridSpec(n, 4.0 if n < 64 else 24.0)
        rng = np.random.default_rng(n)
        s = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = np.outer(s, s.conj())
        for rows in (phasespace._pure_lags(s),
                     phasespace._kernel_lags((kernel + kernel.conj().T) / 2)):
            w = np.empty((n, n))
            step = phasespace._LAG_BLOCK_CELLS // n
            for k0 in range(0, n, step):
                k1 = min(n, k0 + step)
                c = rows(k0, k1, slice(None))
                g = c[:, :n // 2 + 1]
                g[:, 1:] += c[:, n - 1:n // 2 - 1:-1].conj()
                x = np.fft.irfft(g, n, axis=1) * (n * spec.dq)
                w[:n // 2, k0:k1] = x[:, n // 2:].T
                w[n // 2:, k0:k1] = x[:, :n // 2].T
            assert np.array_equal(phasespace._hermitian_wigner(rows, spec), w)

    def test_pure_state_kernel_is_exactly_hermitian(self):
        # a chirped packet: np.outer(psi, psi.conj()) rounds its two
        # triangles differently, by up to ~3e-17
        psi = gaussian_packet(SPEC, alpha2=0.8, gamma=0.3, q0=0.5, p0=-0.3)
        kernel = psi.kernel()
        assert np.array_equal(kernel, kernel.conj().T)
        assert np.max(np.abs(kernel - np.outer(psi.samples, psi.samples.conj()))) <= 1e-16
        pure = wigner_transform(psi).values
        assert np.max(np.abs(wigner_transform(kernel, SPEC).values - pure)) < 1e-12

    def test_isometry(self):
        psi = gaussian_packet(SPEC, alpha2=1.0)
        chi = gaussian_packet(SPEC, alpha2=0.8, q0=0.7, p0=0.4)
        res = isometry_check(psi.kernel(), chi.kernel(), SPEC)
        assert res["relative_error"] < 1e-6
        res2 = isometry_check(psi.kernel(), psi.kernel(), SPEC)
        assert res2["relative_error"] < 1e-6


class TestWignerLinearity:
    """A kernel that is not exactly Hermitian is transformed as
    W(H) + i W(A), H = (K + K^dag)/2, A = (K - K^dag)/2i; W(A) above 1e-8
    of max(1, max|W(H)|) is an error, below it W(H) is returned."""

    def mixture(self):
        psi = gaussian_packet(SPEC, alpha2=0.8, gamma=0.2, q0=1.0, p0=0.5)
        chi = gaussian_packet(SPEC, alpha2=0.9, q0=-1.5, p0=-0.4)
        return 0.3 * psi.kernel() + 0.7 * chi.kernel()

    def random_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.standard_normal((SPEC.n, SPEC.n)) + 1j * rng.standard_normal((SPEC.n, SPEC.n))
        return (r + r.conj().T) / 2

    def test_anti_hermitian_part_raises(self):
        b = self.random_hermitian(0)
        eps = 1e-6 / np.max(np.abs(wigner_transform(b, SPEC).values))
        with pytest.raises(ValueError, match="imaginary residue"):
            wigner_transform(self.mixture() + 1j * eps * b, SPEC)

    def test_exactly_hermitian_mixture_passes(self):
        # numpy's complex products need not round symmetrically (here they
        # do not), so outer products are made exactly Hermitian
        mixture = self.mixture()
        kernel = (mixture + mixture.conj().T) / 2
        assert np.array_equal(kernel, kernel.conj().T)
        w = wigner_transform(kernel, SPEC)
        assert abs(w.normalization() - 1.0) < 1e-8

    def test_residue_below_tolerance_returns_hermitian_part(self):
        # max|W(A)| = 1e-9 is too large for the norm bound to clear, so
        # W(A) is computed, and it lies below the tolerance
        b = self.random_hermitian(2)
        eps = 1e-9 / np.max(np.abs(wigner_transform(b, SPEC).values))
        assert SPEC.dq * (2 * SPEC.n - 1) * eps * np.linalg.norm(b) > 2e-8
        kernel = self.mixture() + 1j * eps * b
        hermitian = (kernel + kernel.conj().T) / 2
        got = wigner_transform(kernel, SPEC).values
        assert np.max(np.abs(got - wigner_transform(hermitian, SPEC).values)) <= 1e-15

    def test_rounding_noise_returns_hermitian_part(self):
        kernel = self.mixture()
        noisy = kernel + 1e-14j * np.max(np.abs(kernel)) * self.random_hermitian(1)
        assert not np.array_equal(noisy, noisy.conj().T)
        hermitian = (noisy + noisy.conj().T) / 2
        got = wigner_transform(noisy, SPEC).values
        assert np.max(np.abs(got - wigner_transform(hermitian, SPEC).values)) <= 1e-15


def full_spectrum_smooth(values, spec, sp2, sq2):
    """gauss_smooth with whole-field transforms: the q-spectrum of every
    row at once, its q-band copied out, and one inverse transform."""
    gp = np.fft.ifftshift(np.exp(-spec.momentum_grid() ** 2 / (2 * sp2)))
    gq = np.fft.ifftshift(np.exp(-spec.position_grid() ** 2 / (2 * sq2)))
    q_factor = np.fft.rfft(gq) / gq.sum()
    q_band = q_factor[:np.flatnonzero(np.abs(q_factor) > 2.0 ** -52)[-1] + 1]
    band = np.fft.rfft(values, axis=1)[:, :len(q_band)].copy()
    np.fft.fft(band, axis=0, out=band)
    band *= np.fft.fft(gp)[:, None] / gp.sum()
    band *= q_band
    np.fft.ifft(band, axis=0, out=band)
    return np.fft.irfft(band, spec.n, axis=1)


# the phase_space benchmark's grids and the CLI's default one
SMOOTH_GRIDS = [(512, 32.0, 1.0), (1024, 32.0, 0.5), (512, 32.0, 2.0),
                (1024, 48.0, 2.0), (1024, 32.0, 1.0)]


class TestHusimi:
    @pytest.mark.parametrize("n,length,hbar", SMOOTH_GRIDS)
    def test_row_blocks_bit_equal_to_full_transforms(self, n, length, hbar):
        spec = GridSpec(n, length, hbar)
        w = wigner_transform(gaussian_packet(spec, alpha2=1.0, gamma=0.3))
        got = gauss_smooth(w, hbar / 2, hbar / 2).values
        assert got.dtype == np.float64
        assert got.tobytes() == full_spectrum_smooth(w.values, spec, hbar / 2,
                                                     hbar / 2).tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_field_bit_equal_by_linearity(self, dtype):
        spec = GridSpec(512, 32.0, 1.0)
        real = wigner_transform(gaussian_packet(spec, alpha2=1.0)).values
        imag = np.random.default_rng(4).standard_normal((spec.n, spec.n))
        values = (real + 1j * imag).astype(dtype)
        got = gauss_smooth(PhaseSpaceField(spec, values), 0.3, 0.7).values
        assert got.dtype == dtype
        for part, ref_part in ((got.real, values.real), (got.imag, values.imag)):
            ref = full_spectrum_smooth(ref_part, spec, 0.3, 0.7)
            assert np.ascontiguousarray(part).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_real_dtypes_keep_full_transform_bits(self, dtype):
        # a float32 field is smoothed in single precision, an integer one
        # in double, as whole-field transforms do
        spec = GridSpec(512, 32.0, 1.0)
        w = wigner_transform(gaussian_packet(spec, alpha2=1.0, gamma=0.3))
        values = (1000 * w.values).astype(dtype)
        got = gauss_smooth(PhaseSpaceField(spec, values), 0.3, 0.7).values
        ref = full_spectrum_smooth(values, spec, 0.3, 0.7)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_blocks_cover_the_field_in_order(self):
        spec = GridSpec(512, 32.0, 1.0)
        w = wigner_transform(gaussian_packet(spec, alpha2=1.0, gamma=0.3))
        blocks = list(phasespace._smoothed_rows(w.values, spec, 0.5, 0.5))
        assert [len(b) for b in blocks] == [128] * 4
        stacked = np.concatenate(blocks)
        assert stacked.tobytes() == gauss_smooth(w, 0.5, 0.5).values.tobytes()

    def test_husimi_nonnegative(self):
        w = wigner_transform(excited_state(SPEC))
        h = gauss_smooth(w, SPEC.hbar / 2, SPEC.hbar / 2)
        assert np.min(h.values) >= -1e-8
        assert abs(h.normalization() - 1.0) < 1e-6

    def test_subcritical_smoothing_stays_negative(self):
        w = wigner_transform(excited_state(SPEC))
        h = gauss_smooth(w, SPEC.hbar / 4, SPEC.hbar / 4)
        assert np.min(h.values) < 0.0

    def test_rejects_nonpositive_variance(self):
        w = wigner_transform(gaussian_packet(SPEC, alpha2=1.0))
        with pytest.raises(ValueError):
            gauss_smooth(w, 0.0, 1.0)

    @pytest.mark.parametrize("sp2,sq2", [(math.nan, 0.5), (0.5, math.nan),
                                         (math.inf, 0.5), (0.5, math.inf),
                                         (-math.inf, 0.5), (0.5, -1.0)])
    def test_rejects_nonfinite_variance(self, sp2, sq2):
        w = wigner_transform(gaussian_packet(SPEC, alpha2=1.0))
        name = "sq2" if math.isfinite(sp2) and sp2 > 0 else "sp2"
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            gauss_smooth(w, sp2, sq2)

    def test_peak_allocation_within_budget(self):
        # the returned field, the q-band of the spectrum, which the
        # p-transforms run on in place, and one block of rows: the full
        # q-spectrum alone would take another field of bytes
        spec = GridSpec(n=1024, length=32.0)
        w = wigner_transform(gaussian_packet(spec, alpha2=1.0))
        tracemalloc.start()
        try:
            gauss_smooth(w, spec.hbar / 2, spec.hbar / 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * w.values.nbytes


class TestQuantization:
    def test_symbol_roundtrip(self):
        # a localized symbol survives quantize -> transform unchanged
        p = SPEC.momentum_grid()[:, None]
        q = SPEC.position_grid()[None, :]
        vals = np.exp(-(q - 0.5) ** 2 / 2 - (p + 0.7) ** 2 / 3)
        field = PhaseSpaceField(SPEC, vals)
        back = wigner_transform(weyl_quantize(field), SPEC)
        assert np.max(np.abs(back.values - field.values)) < 1e-6

    def test_operator_roundtrip(self):
        psi = gaussian_packet(SPEC, alpha2=1.0, q0=0.4, p0=0.6)
        op = psi.kernel()
        back = weyl_quantize(wigner_transform(psi))
        assert np.max(np.abs(back - op)) / np.max(np.abs(op)) < 1e-6

    def test_peak_allocation_within_budget(self):
        # O(n^2) budget: the returned kernel (16 n^2 bytes), the table of
        # separations 0..n/2 (8 n^2) and the FFT buffers of its odd rows.
        # 2.5 kernels leave no room for an n x 2n complex array (32 n^2).
        spec = GridSpec(n=512, length=32.0)
        field = wigner_transform(gaussian_packet(spec, alpha2=1.0))
        tracemalloc.start()
        try:
            kernel = weyl_quantize(field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * kernel.nbytes

    def test_pure_wigner_peak_allocation_within_budget(self):
        # the field (8 n^2 bytes), one L2-sized block of lags and its symbol
        # rows, each freed before the next; a block of all n positions would
        # need 2 fields
        spec = GridSpec(n=1024, length=32.0)
        psi = gaussian_packet(spec, alpha2=1.0)
        tracemalloc.start()
        try:
            field = wigner_transform(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * field.values.nbytes

    def test_kernel_wigner_peak_allocation_within_budget(self):
        # O(n^2) budget: the two n x n tables the lags read (2 kernels),
        # the FFT buffers that fill the half-step one, one block of lags
        # with its indices, and the field.  A 2n x 2n interpolated kernel
        # alone would take 4 kernels.
        spec = GridSpec(n=1024, length=32.0)
        kernel = gaussian_packet(spec, alpha2=1.0).kernel()
        tracemalloc.start()
        try:
            wigner_transform(kernel, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * kernel.nbytes

    def test_constant_symbol_gives_identity(self):
        sym = QuadraticSymbol(c0=1.0)
        op = weyl_quantize(sym.field(SPEC), fine_symbol=sym.fine_field(SPEC))
        assert np.max(np.abs(op - np.eye(SPEC.n) / SPEC.dq)) < 1e-10

    def test_position_symbol_gives_position_kernel(self):
        sym = QuadraticSymbol(cq=1.0)
        op = weyl_quantize(sym.field(SPEC), fine_symbol=sym.fine_field(SPEC))
        q = -SPEC.length / 2 + SPEC.dq * np.arange(SPEC.n)
        assert np.max(np.abs(op - np.diag(q) / SPEC.dq)) < 1e-10

    def test_pp_symbol_action_matches_momentum_kernel(self):
        spec = GridSpec(n=512, length=24.0)
        sym = QuadraticSymbol(cpp=1.0)
        op = weyl_quantize(sym.field(spec), fine_symbol=sym.fine_field(spec),
                           compact=False)
        ref = dense_momentum_kernel(spec, 2)
        psi = gaussian_packet(spec, alpha2=0.5, q0=0.5, p0=1.0)
        err = np.max(np.abs((op - ref) @ psi.samples * spec.dq))
        assert err < 1e-8

    def test_pp_times_fq_ordering_identity(self):
        # weyl(p^2 f(q)) acts like P f(Q) P - (hbar^2/4) f''(Q) on
        # localized states
        spec = GridSpec(n=512, length=24.0)
        q = spec.position_grid()
        f = np.exp(-q ** 2 / 4)
        fdd = (q ** 2 / 4 - 0.5) * np.exp(-q ** 2 / 4)
        p = spec.momentum_grid()
        field = PhaseSpaceField(spec, (p[:, None] ** 2) * f[None, :])
        fine_q = spec.fine_position_grid()
        fine = ((p[:, None] ** 2).astype(complex)
                * np.exp(-fine_q[None, :] ** 2 / 4))
        op = weyl_quantize(field, fine_symbol=fine, compact=False)
        pk = dense_momentum_kernel(spec, 1)
        ref = (pk @ np.diag(f / spec.dq) @ pk) * spec.dq ** 2 \
            - (spec.hbar ** 2 / 4) * np.diag(fdd / spec.dq)
        worst = 0.0
        for q0, p0 in ((-2.0, 0.0), (0.0, 2.0), (1.5, 0.0)):
            psi = gaussian_packet(spec, alpha2=0.25, q0=q0, p0=p0)
            err = np.max(np.abs((op - ref) @ psi.samples * spec.dq))
            worst = max(worst, err)
        assert worst < 1e-5


class TestUnitScaling:
    """Scaling L and hbar by s at fixed n keeps dp = 2 pi hbar/L and every
    phase p r/hbar (r = l dq/2); only dq becomes s dq.  Samples psi/sqrt(s)
    and kernels K/s keep their norms, so the Wigner sum
    dq sum_l exp(2ipr/hbar) K(q - r, q + r) is unchanged and the Weyl sum
    dp/(2 pi hbar) sum_m exp(ip(q - q')/hbar) a(p, (q + q')/2) scales by
    1/s.  Both hold on the grid exactly, so only rounding may differ."""

    TOL = 16 * np.finfo(float).eps

    @pytest.mark.parametrize("s", [0.3, 2.0, 7.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_transforms_map_onto_themselves(self, s, seed):
        spec = GridSpec(n=128, length=48.0, hbar=0.7)
        scaled = GridSpec(spec.n, s * spec.length, s * spec.hbar)
        rng = np.random.default_rng(seed)
        a, b = (random_smooth_state(spec, rng).samples for _ in range(2))
        t = rng.uniform()
        mixed = t * np.outer(a, a.conj()) + (1 - t) * np.outer(b, b.conj())

        def close(got, ref):
            return np.max(np.abs(got - ref)) <= self.TOL * np.max(np.abs(ref))

        # a fills the momentum band, which a wavefunction's edge check
        # rejects; kernels are taken as given, so only this leg filters it
        c = momentum_localized(spec, a).samples
        pure = wigner_transform(GridWavefunction(spec, c)).values
        assert close(wigner_transform(GridWavefunction(scaled, c / math.sqrt(s))).values,
                     pure)
        w = wigner_transform(mixed, spec).values
        assert close(wigner_transform(mixed / s, scaled).values, w)
        assert close(weyl_quantize(PhaseSpaceField(scaled, w)),
                     weyl_quantize(PhaseSpaceField(spec, w)) / s)


class TestMoyal:
    def test_canonical_bracket(self):
        spec = GridSpec(n=128, length=16.0)
        res = moyal_poisson_check(QuadraticSymbol(cp=1.0),
                                  QuadraticSymbol(cq=1.0), spec)
        assert res["relative_error"] < 1e-10

    def test_pp_q_bracket(self):
        spec = GridSpec(n=128, length=16.0)
        res = moyal_poisson_check(QuadraticSymbol(cpp=1.0),
                                  QuadraticSymbol(cq=1.0), spec)
        assert res["relative_error"] < 1e-6

    def test_self_bracket_vanishes(self):
        spec = GridSpec(n=128, length=16.0)
        a = QuadraticSymbol(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        res = moyal_poisson_check(a, a, spec)
        assert res["max_abs_error"] < 1e-8


def symmetrized_after_build(spec, mass, potential):
    """The grid Hamiltonian built unsymmetric, circulant c[(k - k') mod n]
    plus diag v, then symmetrized as (h + h^T)/2."""
    k = np.arange(spec.n)
    c = np.fft.ifft(np.fft.ifftshift(spec.momentum_grid() ** 2 / (2 * mass))).real
    h = c[(k[:, None] - k[None, :]) % spec.n]
    h[k, k] += potential(spec.position_grid())
    return 0.5 * (h + h.T)


POTENTIALS = {"harmonic": lambda q: 0.5 * q ** 2, "quartic": lambda q: q ** 4 / 4,
              "double_well": lambda q: -5 * q ** 2 + q ** 4 / 4}


class TestHamiltonianSpectrum:
    @pytest.mark.parametrize("n,length,hbar,mass", [
        (64, 12.0, 1.0, 1.0), (128, 16.0, 0.5, 0.7), (256, 24.0, 2.0, 3.0),
        (512, 20.0, 0.1, 0.01), (1024, 40.0, 1.0, 100.0), (2048, 64.0, 10.0, 1.0)])
    @pytest.mark.parametrize("potential", sorted(POTENTIALS))
    def test_bit_equal_to_symmetrizing_afterwards(self, n, length, hbar, mass, potential):
        spec = GridSpec(n, length, hbar)
        h = grid_hamiltonian(spec, mass, POTENTIALS[potential])
        ref = symmetrized_after_build(spec, mass, POTENTIALS[potential])
        assert h.tobytes() == ref.tobytes()

    def test_peak_allocation_within_budget(self):
        # the returned matrix and O(n) rows: no transpose sum beside it
        spec = GridSpec(n=1024, length=32.0)
        tracemalloc.start()
        try:
            h = grid_hamiltonian(spec, 1.0, POTENTIALS["harmonic"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * h.nbytes

    def test_grid_hamiltonian_real_symmetric(self):
        h = grid_hamiltonian(GridSpec(n=128, length=16.0), 0.7, lambda q: 0.5 * q ** 2)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_harmonic_levels(self):
        spec = GridSpec(n=512, length=24.0)
        h = grid_hamiltonian(spec, 1.0, lambda q: 0.5 * q ** 2)
        evals = np.sort(np.linalg.eigvalsh(h))
        for k in range(11):
            assert abs(evals[k] - (k + 0.5)) < 1e-6


class TestEntropicBound:
    def test_gaussian_near_equality(self):
        res = variance_from_entropic(gaussian_packet(SPEC, alpha2=1.0))
        assert abs(res["entropy"] - res["bound"]) < 1e-3

    def test_fuzz_margin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            res = variance_from_entropic(random_smooth_state(SPEC, rng))
            assert res["entropy"] - res["bound"] >= -1e-4

    def test_variance_chain(self):
        psi = gaussian_packet(SPEC, alpha2=0.7, gamma=0.2)
        res = variance_from_entropic(psi)
        assert res["bound"] <= res["entropy"] + 1e-4
        assert res["entropy"] <= res["cross_entropy"] + 1e-10
        assert abs(res["cross_entropy"] - res["gaussian_form"]) < 1e-3
        assert res["sigma_product"] >= res["implied_lower_bound"] - 1e-10

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_marginal_sums_match_whole_fields(self, n):
        # the entropies as summed over whole n x n fields w and wt; the sums
        # over the two marginals differ by rounding (4.4e-16 relative at
        # most on these states).  The odd packet has psi(0) = 0 exactly, so
        # 0 ln 0 must count as 0
        spec = GridSpec(n, 32.0)
        rng = np.random.default_rng(n)
        q = spec.position_grid()
        odd = q * np.exp(-q ** 2 / 4)
        odd /= math.sqrt(np.sum(odd ** 2) * spec.dq)
        assert odd[n // 2] == 0.0
        for psi in (gaussian_packet(spec, alpha2=1.0, gamma=0.3),
                    gaussian_packet(spec, alpha2=0.6, gamma=-0.2, q0=1.5, p0=0.7),
                    random_smooth_state(spec, rng), random_smooth_state(spec, rng),
                    GridWavefunction(spec, odd)):
            mean_q, var_q = position_moments(psi)
            mean_p, var_p = momentum_moments(psi)
            sp, sq = math.sqrt(var_p), math.sqrt(var_q)
            p = spec.momentum_grid()[:, None]
            w = (2 * math.pi * spec.hbar
                 * np.outer(np.abs(to_momentum(psi)) ** 2, psi.density()))
            wt = (spec.hbar / (sp * sq) * np.exp(-(p - mean_p) ** 2 / (2 * var_p)
                                                 - (q - mean_q) ** 2 / (2 * var_q)))
            cell = spec.dp * spec.dq / (2 * math.pi * spec.hbar)
            entropies = []
            for v in (w, np.maximum(wt, 1e-300)):
                mask = (w > 1e-300) & (v > 1e-300)
                entropies.append(float(-np.sum(w[mask] * np.log(v[mask])) * cell))
            res = variance_from_entropic(psi)
            assert np.allclose([res["entropy"], res["cross_entropy"]], entropies,
                               rtol=1e-14, atol=0)

    def test_pseudo_classical_nonnegative_normalized(self):
        field = pseudo_classical_state(gaussian_packet(SPEC, alpha2=1.0))
        assert np.min(field.values) >= 0.0
        assert abs(field.normalization() - 1.0) < 1e-10


class TestFreeEvolution:
    def test_gaussian_moment_closed_forms(self):
        spec = GridSpec(n=512, length=32.0)
        mass = 1.0
        psi = gaussian_packet(spec, alpha2=1.0, gamma=-0.3, p0=0.5)
        _, var_q0 = position_moments(psi)
        _, var_p0 = momentum_moments(psi)
        cov0 = pq_covariance(psi)
        tc = mass * abs(cov0) / var_p0
        for t in (0.0, tc / 2, tc, 2 * tc):
            phi = evolve_free(psi, t, mass=mass)
            mq, vq = position_moments(phi)
            _, vp = momentum_moments(phi)
            cov = pq_covariance(phi)
            assert abs(mq - 0.5 * t / mass) < 1e-5
            assert abs(vp - var_p0) < 1e-5
            assert abs(cov - (cov0 + t * var_p0 / mass)) < 1e-5
            vq_ref = var_q0 + 2 * t * cov0 / mass + t * t * var_p0 / mass ** 2
            assert abs(vq - vq_ref) < 1e-5
        assert abs(pq_covariance(evolve_free(psi, tc, mass=mass))) < 1e-5

    @pytest.mark.parametrize("mass,hbar", [(2.0, 1.0), (1.5, 0.5), (0.7, 2.0)])
    def test_moment_closed_forms_in_other_units(self, mass, hbar):
        # var_p stays, c_PQ gains t var_p/m, var_q gains 2t c_PQ/m + t^2 var_p/m^2
        spec = GridSpec(n=512, length=32.0, hbar=hbar)
        psi = gaussian_packet(spec, alpha2=1.0, gamma=-0.3)
        _, var_q0 = position_moments(psi)
        _, var_p0 = momentum_moments(psi)
        cov0 = pq_covariance(psi)
        for t in (0.7, 1.7):
            phi = evolve_free(psi, t, mass=mass)
            _, vq = position_moments(phi)
            _, vp = momentum_moments(phi)
            assert abs(vp - var_p0) < 1e-5
            assert abs(pq_covariance(phi) - (cov0 + t * var_p0 / mass)) < 1e-5
            vq_ref = var_q0 + 2 * t * cov0 / mass + t * t * var_p0 / mass ** 2
            assert abs(vq - vq_ref) < 1e-5

    @pytest.mark.parametrize("mass,hbar", [(2.0, 1.0), (1.5, 0.5), (0.7, 2.0)])
    def test_covariance_changes_sign_at_closed_form_time(self, mass, hbar):
        # c_PQ(t) = c0 + t var_p/m with c0 < 0 vanishes at t_c = m |c0|/var_p
        spec = GridSpec(n=512, length=32.0, hbar=hbar)
        psi = gaussian_packet(spec, alpha2=1.0, gamma=-0.3)
        _, var_p0 = momentum_moments(psi)
        tc = mass * abs(pq_covariance(psi)) / var_p0
        assert abs(pq_covariance(evolve_free(psi, tc, mass=mass))) < 1e-5
        before = pq_covariance(evolve_free(psi, 0.9 * tc, mass=mass))
        after = pq_covariance(evolve_free(psi, 1.1 * tc, mass=mass))
        assert before < 0 < after


class TestFieldIO:
    def test_csv_peak_allocation_within_budget(self, tmp_path):
        # one row of Python floats and its text at a time; the whole field
        # as a list would take about 32 bytes a cell, 8 MiB at n = 512
        spec = GridSpec(n=512, length=32.0)
        field = wigner_transform(gaussian_packet(spec, alpha2=1.0, gamma=0.3))
        tracemalloc.start()
        try:
            field.to_csv(tmp_path / "field.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_csv_shape(self, tmp_path):
        w = wigner_transform(gaussian_packet(SPEC, alpha2=1.0))
        path = tmp_path / "field.csv"
        w.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == SPEC.n ** 2 + 1
        assert lines[0] == "p,q,value"

    def test_csv_bytes_match_per_cell_writer(self, tmp_path):
        spec = GridSpec(n=16, length=4.0, hbar=0.7)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((16, 16)) * np.logspace(-300, 300, 16)
        vals[0, :4] = (-0.0, 1 / 3, 1e-310, 2.0)
        field = PhaseSpaceField(spec, vals + 1j * rng.standard_normal((16, 16)))
        reference = tmp_path / "reference.csv"
        with open(reference, "w") as fh:
            fh.write("p,q,value\n")
            for i, pv in enumerate(spec.momentum_grid()):
                for j, qv in enumerate(spec.position_grid()):
                    fh.write(f"{float(pv)!r},{float(qv)!r},"
                             f"{float(field.values[i, j].real)!r}\n")
        path = tmp_path / "field.csv"
        field.to_csv(path)
        assert path.read_bytes() == reference.read_bytes()
