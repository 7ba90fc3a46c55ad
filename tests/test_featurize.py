import numpy as np
import pytest

from ecgscalo import featurize, scalogram
from ecgscalo.featurize import FeatureWave, extract_feature_wave, gate_noise
from ecgscalo.ingest import SynthSpec, synth_ecg
from ecgscalo.rpeak import RPeaks

FS = 200.0


def peaks_of(indices, fs=FS):
    return RPeaks(indices=np.asarray(indices, dtype=np.int64), fs=fs)


class TestGate:
    def test_zero_peaks_gated(self):
        assert gate_noise(peaks_of([]), 30.0) is True

    def test_sixty_bpm_passes(self):
        # 30 beats in 30 s sits inside the 30..200 bpm plausibility band
        assert gate_noise(peaks_of(np.arange(30) * 200 + 100), 30.0) is False

    def test_three_hundred_bpm_gated(self):
        assert gate_noise(peaks_of(np.arange(150) * 40 + 20), 30.0) is True

    def test_band_is_closed(self):
        # 30 s window: the closed band is [15, 100] beats
        def count(n):
            return peaks_of(np.linspace(10, 5900, n).astype(int))

        assert gate_noise(count(15), 30.0) is False
        assert gate_noise(count(100), 30.0) is False
        assert gate_noise(count(14), 30.0) is True
        assert gate_noise(count(101), 30.0) is True

    def test_bad_duration(self):
        with pytest.raises(ValueError):
            gate_noise(peaks_of([1, 2]), 0.0)


class TestExtract:
    def test_gated_record_yields_zeros(self):
        wave = extract_feature_wave(np.ones(6000), peaks_of([]), 1024)
        assert wave.is_noise_gated
        assert wave.samples.shape == (1024,)
        assert np.all(wave.samples == 0.0)

    def test_window_arithmetic_at_60bpm(self):
        # ground-truth peaks every 200 samples; middle peak m = 15, so the
        # window runs peak 13 to peak 17: 4 * 200 + 1 = 801 raw samples
        rec, truth = synth_ecg(SynthSpec(duration=30.0, bpm=60.0))
        assert truth.size == 30
        m = truth.size // 2
        start, end = truth[m - 2], truth[m + 2]
        assert end - start + 1 == 801
        wave = extract_feature_wave(rec.samples, peaks_of(truth), 1024)
        assert not wave.is_noise_gated
        # first output sample sits exactly on the window start (an R apex)
        assert wave.samples[0] == rec.samples[start]

    def test_four_cycle_periodicity(self):
        # the window spans exactly four identical cycles, and the half-open
        # resample grid maps L/4 output steps onto one full cycle
        rec, truth = synth_ecg(SynthSpec(duration=30.0, bpm=60.0))
        wave = extract_feature_wave(rec.samples, peaks_of(truth), 1024)
        w = wave.samples
        for offset in (256, 512, 768):
            assert np.max(np.abs(w[: 1024 - offset] - w[offset:])) < 1e-6

    def test_output_length_fixed_across_rates(self):
        for bpm in (40.0, 60.0, 95.0, 180.0):
            rec, truth = synth_ecg(SynthSpec(duration=30.0, bpm=bpm))
            wave = extract_feature_wave(rec.samples, peaks_of(truth), 512)
            assert wave.samples.shape == (512,)

    def test_too_few_peaks_degenerates_to_gate(self):
        # five peaks in 8 s passes the rate gate but cannot span four
        # complete cycles, so the record is gated and flagged
        samples = np.ones(1600)
        wave = extract_feature_wave(samples,
                                    peaks_of([100, 400, 700, 1000, 1300]),
                                    256)
        assert wave.is_noise_gated
        assert np.all(wave.samples == 0.0)

    @pytest.mark.parametrize("indices", [
        [-1, 200, 400], [100, 300, 10**9],
        list(range(100, 2000, 200)) + [10**9]])
    def test_every_peak_must_lie_inside(self, indices):
        # gated, too few and accepted peak sets alike are rejected
        with pytest.raises(ValueError, match="outside the 2000-sample"):
            extract_feature_wave(np.ones(2000), peaks_of(indices), 256)

    def test_gated_wave_invariant(self):
        with pytest.raises(ValueError):
            FeatureWave(samples=np.ones(8), is_noise_gated=True)


class TestComposition:
    def test_gated_wave_gives_black_scalogram(self, db4_table):
        wave = extract_feature_wave(np.ones(6000), peaks_of([]), 256)
        scalo = scalogram.cwt(wave.samples, [1.0, 2.0, 5.0], db4_table, fs=FS)
        assert np.all(scalo.coeffs == 0.0)
        image = scalogram.to_grayscale(scalo)
        assert np.all(image.pixels == 0)
