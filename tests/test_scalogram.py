import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgscalo import pipeline, scalogram
from ecgscalo.config import PipelineConfig
from ecgscalo.ingest import SynthSpec, synth_ecg
from ecgscalo.scalogram import (GrayImage, Scalogram, WaveletTable, build_db4,
                                cwt, qmf, read_f32, scaling_filter,
                                to_grayscale, write_f32, write_pgm)

FS = 200.0


def cwt_direct(f, scales, table, fs):
    """The transform as first written: one np.correlate per scale over the
    zero-padded wave. Kept as the oracle for the FFT evaluation."""
    f = np.asarray(f, dtype=np.float64)
    out = np.empty((len(scales), f.size))
    for j, a in enumerate(scales):
        d = np.arange(int(scalogram.SUPPORT_END * a) + 1)
        kernel = table.sample(d / a)
        row = np.correlate(np.concatenate([f, np.zeros(d.size - 1)]),
                           kernel, mode="valid")
        out[j] = (1.0 / fs) / math.sqrt(a) * row
    return out


def assert_rows_close(fast, slow, rtol=1e-12):
    """Each row within ``rtol`` of that row's largest magnitude."""
    scale = np.max(np.abs(slow), axis=1, keepdims=True)
    assert np.all(np.abs(fast - slow) <= rtol * scale)


def synthetic_waves():
    """Feature waves of synthetic records: clean, noisy and gated."""
    cfg = PipelineConfig()
    specs = [SynthSpec(duration=20.0, bpm=bpm, noise_sigma=sigma, seed=seed)
             for seed, (bpm, sigma) in enumerate(
                 [(60.0, 0.0), (75.0, 0.05), (110.0, 0.1), (150.0, 0.02),
                  (20.0, 0.0)])]
    records = [synth_ecg(spec)[0] for spec in specs]
    return [pipeline.feature_wave(r, cfg, pipeline.preprocess(r, cfg))
            for r in records]


class TestFilterAdmissibility:
    def test_sum_is_sqrt2(self):
        h = scaling_filter()
        assert abs(h.sum() - np.sqrt(2.0)) <= 1e-12

    def test_orthonormal_at_even_shifts(self):
        h = scaling_filter()
        for m in range(4):
            inner = sum(h[k] * h[k + 2 * m] for k in range(h.size - 2 * m))
            assert abs(inner - (1.0 if m == 0 else 0.0)) <= 1e-12

    def test_four_vanishing_moments(self):
        g = qmf(scaling_filter())
        for p in range(4):
            moment = sum(g[k] * k ** p for k in range(g.size))
            assert abs(moment) <= 1e-8

    def test_eight_taps(self):
        assert scaling_filter().size == 8


class TestWaveletTable:
    @pytest.mark.parametrize("iterations", [8, 10])
    def test_zero_mean_and_unit_energy(self, iterations):
        table = build_db4(iterations)
        dt = 1.0 / table.resolution
        assert abs(np.sum(table.psi) * dt) <= 1e-6
        assert abs(np.sum(table.psi ** 2) * dt - 1.0) <= 1e-6

    def test_support_and_resolution(self):
        table = build_db4(8)
        assert table.resolution == 256
        # samples k / 256 for k < psi.size cover [0, 7) and no more
        assert 6 * 256 < table.psi.size <= 7 * 256

    def test_lookup_outside_support_is_zero(self):
        table = build_db4(8)
        assert np.all(table.sample(np.array([-0.5, 7.5, 100.0])) == 0.0)

    def test_too_coarse_rejected(self):
        with pytest.raises(ValueError):
            build_db4(3)


class TestCwt:
    def test_zero_wave_zero_matrix(self, db4_table):
        s = cwt(np.zeros(128), [1.0, 4.0], db4_table, fs=FS)
        assert np.all(s.coeffs == 0.0)
        assert s.coeffs.shape == (2, 128)

    def test_homogeneity(self, db4_table):
        rng = np.random.default_rng(7)
        f = rng.normal(size=200)
        base = cwt(f, [1.0, 3.0, 9.0], db4_table, fs=FS).coeffs
        scaled = cwt(2.75 * f, [1.0, 3.0, 9.0], db4_table, fs=FS).coeffs
        np.testing.assert_allclose(scaled, 2.75 * base, rtol=1e-12,
                                   atol=1e-15)

    def test_linearity(self, db4_table):
        rng = np.random.default_rng(8)
        f, g = rng.normal(size=150), rng.normal(size=150)
        scales = [2.0, 5.5]
        lhs = cwt(f + g, scales, db4_table, fs=FS).coeffs
        rhs = (cwt(f, scales, db4_table, fs=FS).coeffs
               + cwt(g, scales, db4_table, fs=FS).coeffs)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_matches_brute_force(self, db4_table, cwt_oracle):
        rng = np.random.default_rng(9)
        for _ in range(6):
            n = int(rng.integers(16, 120))
            f = rng.normal(size=n)
            scales = rng.uniform(0.5, 10.0, size=int(rng.integers(1, 5)))
            fast = cwt(f, scales, db4_table, fs=FS).coeffs
            slow = cwt_oracle(f, scales, db4_table, FS)
            rel = np.max(np.abs(fast - slow)) / np.max(np.abs(slow))
            assert rel <= 1e-9

    def test_shift_covariance_on_interior(self, db4_table):
        rng = np.random.default_rng(10)
        n, d = 256, 17
        f = rng.normal(size=n)
        scales = [1.0, 3.0, 7.5]
        base = cwt(f, scales, db4_table, fs=FS).coeffs
        shifted_in = np.zeros(n)
        shifted_in[d:] = f[:-d]
        shifted = cwt(shifted_in, scales, db4_table, fs=FS).coeffs
        reach = int(np.floor(7 * max(scales)))
        m = n - reach - d  # columns untouched by either boundary
        assert np.max(np.abs(shifted[:, d:d + m] - base[:, :m])) <= 1e-9

    def test_oversized_scale_rejected(self, db4_table):
        with pytest.raises(ValueError, match="scale"):
            cwt(np.ones(16), [32.0], db4_table, fs=FS)  # 7*32 > 8*16

    def test_bad_scale_lists(self, db4_table):
        with pytest.raises(ValueError):
            cwt(np.ones(16), [], db4_table, fs=FS)
        with pytest.raises(ValueError):
            cwt(np.ones(16), [0.0], db4_table, fs=FS)

    def test_one_nonempty_wave_only(self, db4_table):
        for f in (np.ones((2, 16)), 1.0, np.zeros(0)):
            shape = np.shape(f)
            with pytest.raises(ValueError,
                               match=re.escape(f"1-D, got shape {shape}")):
                cwt(f, [1.0, 2.0], db4_table, fs=FS)

    def test_scale_free_up_to_the_float_range(self, db4_table):
        """The wave is transformed at the power of two that puts its peak
        in [0.5, 1), so a finite wave near the float range cannot
        overflow, and a power-of-two factor passes through exactly."""
        f = np.random.default_rng(14).normal(size=1024)
        scales = np.arange(1.0, 65.0)
        base = cwt(f, scales, db4_table, fs=1.0).coeffs
        for k in (1016, -40):
            np.testing.assert_array_equal(
                cwt(np.ldexp(f, k), scales, db4_table, fs=1.0).coeffs,
                np.ldexp(base, k))


class TestFftEvaluation:
    def test_matches_direct_correlation_on_synthetic_waves(self, db4_table):
        cfg = PipelineConfig()
        scales = np.arange(1.0, cfg.scalogram.num_scales + 1)
        waves = synthetic_waves()
        assert waves[-1].is_noise_gated and not waves[0].is_noise_gated
        for wave in waves:
            fast = cwt(wave.samples, scales, db4_table, fs=FS)
            slow = cwt_direct(wave.samples, scales, db4_table, FS)
            assert_rows_close(fast.coeffs, slow)
            direct = Scalogram(coeffs=slow, scales=scales, fs=FS)
            np.testing.assert_array_equal(to_grayscale(fast).pixels,
                                          to_grayscale(direct).pixels)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(8, 1100), count=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_direct_correlation(self, db4_table, length, count, seed):
        rng = np.random.default_rng(seed)
        top = min(64.0, 8 * length / scalogram.SUPPORT_END)
        scales = rng.uniform(0.5, top, size=count)
        f = rng.standard_normal(length)
        fast = cwt(f, scales, db4_table, fs=FS).coeffs
        assert_rows_close(fast, cwt_direct(f, scales, db4_table, FS))

    def test_oversized_scale_rejected_after_memo_is_warm(self, db4_table):
        f = np.ones(16)
        cwt(f, [2.0], db4_table, fs=FS)
        for _ in range(2):
            with pytest.raises(ValueError, match="8x"):
                cwt(f, [2.0, 32.0], db4_table, fs=FS)


class TestCaches:
    def test_db4_table_is_cached_and_read_only(self):
        table = build_db4(8)
        assert build_db4(8) is table
        with pytest.raises(ValueError):
            table.psi[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.resolution = 1

    def test_cached_table_equals_fresh_design(self):
        fresh = build_db4.__wrapped__(9)
        cached = build_db4(9)
        assert fresh is not cached
        np.testing.assert_array_equal(cached.psi, fresh.psi)
        assert cached.resolution == fresh.resolution

    def test_iterations_get_their_own_entries(self):
        assert build_db4(8) is not build_db4(10)
        assert build_db4(8).psi.size != build_db4(10).psi.size

    def test_table_copies_its_samples(self):
        psi = np.array([0.0, 1.0, -1.0, 0.0])
        table = WaveletTable(psi=psi, resolution=1)
        psi[1] = 5.0
        assert table.psi[1] == 1.0

    def test_tables_never_share_spectra(self, db4_table):
        other = WaveletTable(psi=-db4_table.psi,
                             resolution=db4_table.resolution)
        f = np.random.default_rng(15).standard_normal(100)
        base = cwt(f, [1.0, 4.5], db4_table, fs=FS).coeffs
        negated = cwt(f, [1.0, 4.5], other, fs=FS).coeffs
        np.testing.assert_array_equal(negated, -base)
        key = (np.array([1.0, 4.5]).tobytes(), 100, FS)
        assert scalogram._kernel_spectra(other, *key)[1] \
            is not scalogram._kernel_spectra(db4_table, *key)[1]

    def test_memoised_spectra_are_read_only(self, db4_table):
        cwt(np.ones(40), [1.0, 2.0], db4_table, fs=FS)
        hits = scalogram._kernel_spectra.cache_info().hits
        _, spectra = scalogram._kernel_spectra(
            db4_table, np.array([1.0, 2.0]).tobytes(), 40, FS)
        assert scalogram._kernel_spectra.cache_info().hits == hits + 1
        assert not spectra.flags.writeable

    def test_memo_stays_bounded(self):
        table = build_db4.__wrapped__(8)
        rng = np.random.default_rng(16)
        info = scalogram._kernel_spectra.cache_info
        for i in range(50):
            length = 32 + i
            f = rng.standard_normal(length)
            scales = rng.uniform(0.5, 8.0, size=3)
            assert_rows_close(cwt(f, scales, table, fs=FS).coeffs,
                              cwt_direct(f, scales, table, FS))
            assert info().currsize <= info().maxsize
        assert info().currsize == info().maxsize == 4


class TestGrayscale:
    def test_all_zero_is_black(self):
        s = Scalogram(coeffs=np.zeros((3, 8)), scales=[1, 2, 3], fs=FS)
        assert np.all(to_grayscale(s).pixels == 0)

    def test_endpoints(self):
        s = Scalogram(coeffs=np.array([[0.0, 1.0]]), scales=[1.0], fs=FS)
        np.testing.assert_array_equal(to_grayscale(s).pixels, [[0, 255]])

    def test_midpoint_rounds_half_up(self):
        s = Scalogram(coeffs=np.array([[-2.0, 2.0, 0.0]]), scales=[1.0],
                      fs=FS)
        # 0 maps to 127.5, which rounds half-up to 128
        np.testing.assert_array_equal(to_grayscale(s).pixels,
                                      [[0, 255, 128]])

    def test_identity_on_full_range_integers(self):
        rng = np.random.default_rng(12)
        m = rng.integers(0, 256, size=(5, 9)).astype(np.float64)
        m[0, 0], m[-1, -1] = 0.0, 255.0
        s = Scalogram(coeffs=m, scales=np.arange(1, 6.0), fs=FS)
        np.testing.assert_array_equal(to_grayscale(s).pixels,
                                      m.astype(np.uint8))

    @pytest.mark.parametrize("exponent", [-1070, -1040, -1000, 900])
    def test_any_range_gives_the_same_pixels(self, exponent):
        # integers times a power of two are exact, even as subnormals
        m = np.random.default_rng(4).integers(-1000, 1000, size=(6, 40))
        pixels = to_grayscale(Scalogram(coeffs=m.astype(np.float64),
                                        scales=np.arange(1, 7.0), fs=FS))
        tiny = Scalogram(coeffs=np.ldexp(m.astype(np.float64), exponent),
                         scales=np.arange(1, 7.0), fs=FS)
        np.testing.assert_array_equal(to_grayscale(tiny).pixels,
                                      pixels.pixels)


class TestExport:
    def test_pgm_header_grammar(self, tmp_path):
        image = GrayImage(pixels=np.zeros((64, 1024), dtype=np.uint8))
        p = tmp_path / "img.pgm"
        write_pgm(image, p)
        assert p.read_bytes().startswith(b"P5\n1024 64\n255\n")

    def test_pgm_payload_size(self, tmp_path):
        image = GrayImage(pixels=np.arange(4, dtype=np.uint8).reshape(2, 2))
        p = tmp_path / "img.pgm"
        write_pgm(image, p)
        data = p.read_bytes()
        header = b"P5\n2 2\n255\n"
        assert data[:len(header)] == header
        assert len(data) - len(header) == 4
        assert data[len(header):] == bytes([0, 1, 2, 3])

    def test_f32_round_trip(self, tmp_path, db4_table):
        rng = np.random.default_rng(13)
        s = cwt(rng.normal(size=64), [1.0, 2.0], db4_table, fs=FS)
        p = tmp_path / "s.f32"
        write_f32(s, p)
        back = read_f32(p)
        np.testing.assert_array_equal(
            back.coeffs, s.coeffs.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.scales, s.scales)
        assert back.fs == s.fs
