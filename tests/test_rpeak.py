from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ecgscalo import rpeak
from ecgscalo.ingest import EcgRecord, SynthSpec, synth_ecg

FS = 200.0


class TestDerivative:
    def test_constant_gives_zero_interior(self):
        y = rpeak.pt_derivative(np.full(50, 3.7), FS)
        assert np.allclose(y[2:-2], 0.0)

    def test_ramp(self):
        # plugging x(n) = n into the five-point rule:
        # -(n-2) - 2(n-1) + 2(n+1) + (n+2) = 8, so y = 8/(8T) = 1/T = 200
        y = rpeak.pt_derivative(np.arange(100, dtype=float), FS)
        assert np.allclose(y[2:-2], 200.0)

    def test_negation(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=64)
        np.testing.assert_allclose(rpeak.pt_derivative(-x, FS),
                                   -rpeak.pt_derivative(x, FS))

    def test_length_preserved(self):
        assert rpeak.pt_derivative(np.ones(17), FS).size == 17


class TestSquare:
    def test_values(self):
        np.testing.assert_array_equal(rpeak.pt_square(np.array([-2.0, 3.0])),
                                      [4.0, 9.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        assert np.all(rpeak.pt_square(rng.normal(size=100)) >= 0.0)

    def test_zero(self):
        np.testing.assert_array_equal(rpeak.pt_square(np.array([0.0])), [0.0])


class TestIntegrate:
    def test_constant(self):
        y = rpeak.pt_integrate(np.ones(100), 30)
        assert np.allclose(y[29:], 1.0)
        assert y[0] == pytest.approx(1.0 / 30)

    def test_impulse_rectangle(self):
        x = np.zeros(100)
        x[0] = 1.0
        y = rpeak.pt_integrate(x, 30)
        assert np.allclose(y[:30], 1.0 / 30)
        assert np.allclose(y[30:], 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=257)
        n = 30
        y = rpeak.pt_integrate(x, n)
        # independent O(nN) double loop
        expected = np.empty_like(x)
        for i in range(x.size):
            acc = 0.0
            for k in range(n):
                if i - k >= 0:
                    acc += x[i - k]
            expected[i] = acc / n
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-15)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            rpeak.pt_integrate(np.ones(10), 0)


class TestBandpass:
    def test_zero_in_zero_out(self):
        assert np.all(rpeak.pt_bandpass(np.zeros(200)) == 0.0)

    def test_dc_gain_576(self):
        # product of the stage DC gains, 36 * 0 = 0: the composite rejects
        # DC; its 42-tap FIR-equivalent response sums to 0, so the step
        # response is exactly 0 once the transient clears
        y = rpeak.pt_bandpass(np.ones(300))
        assert np.allclose(y[60:], 0.0, atol=1e-9)

    def test_equals_filter_composition(self):
        from ecgscalo.dsp import apply_filter
        rng = np.random.default_rng(4)
        x = rng.normal(size=400)
        direct = rpeak.pt_bandpass(x)
        composed = apply_filter(rpeak.pt_highpass(),
                                apply_filter(rpeak.pt_lowpass(), x))
        np.testing.assert_array_equal(direct, composed)


class TestChain:
    def test_taps_match_standalone_stages(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=500)
        chain = rpeak.pt_chain(x, FS)
        bp = rpeak.pt_bandpass(x)
        np.testing.assert_array_equal(chain.bandpassed, bp)
        der = rpeak.pt_derivative(bp, FS)
        np.testing.assert_array_equal(chain.derivative, der)
        np.testing.assert_array_equal(chain.squared, rpeak.pt_square(der))
        np.testing.assert_array_equal(chain.integrated,
                                      rpeak.pt_integrate(der ** 2, 30))

    def test_lengths_and_nonnegative_square(self):
        chain = rpeak.pt_chain(np.ones(123), FS)
        for tap in (chain.bandpassed, chain.derivative, chain.squared,
                    chain.integrated):
            assert tap.size == 123
        assert np.all(chain.squared >= 0.0)


class TestDetect:
    def test_clean_60bpm(self, match_peaks):
        rec, truth = synth_ecg(SynthSpec(duration=30.0, bpm=60.0))
        peaks = rpeak.detect_rpeaks(rec)
        assert abs(peaks.count - 30) <= 1
        tp, fn, fp = match_peaks(truth, peaks.indices, tol=10)
        assert fn == 0 and fp == 0

    def test_all_zero_record(self):
        rec = EcgRecord(id="z", fs=FS, samples=np.zeros(2000))
        assert rpeak.detect_rpeaks(rec).count == 0

    def test_noisy_sweep(self, match_peaks):
        tp = fn = fp = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            bpm = rng.uniform(40.0, 180.0)
            sigma = rng.uniform(0.0, 0.10)
            rec, truth = synth_ecg(SynthSpec(
                duration=30.0, bpm=bpm, noise_sigma=sigma, seed=seed))
            p = rpeak.detect_rpeaks(rec)
            a, b, c = match_peaks(truth, p.indices, tol=10)
            tp, fn, fp = tp + a, fn + b, fp + c
        assert tp / (tp + fn) >= 0.99
        assert tp / (tp + fp) >= 0.99

    def test_scale_invariance(self):
        rec, _ = synth_ecg(SynthSpec(duration=30.0, bpm=80.0,
                                     noise_sigma=0.05, seed=9))
        base = rpeak.detect_rpeaks(rec).indices
        for alpha in (1e-300, 1e-200, 1e-150, 1e-3, 0.1, 42.0, 1e4,
                      1e150, 1e200, 1e300):
            scaled = EcgRecord(id="s", fs=FS, samples=alpha * rec.samples)
            np.testing.assert_array_equal(
                rpeak.detect_rpeaks(scaled).indices, base)

    def test_refractory_invariant(self):
        rec, _ = synth_ecg(SynthSpec(duration=30.0, bpm=180.0,
                                     noise_sigma=0.08, seed=13))
        peaks = rpeak.detect_rpeaks(rec)
        assert np.all(np.diff(peaks.indices) >= 0.2 * FS - 1e-9)

    def test_purity(self):
        rec, _ = synth_ecg(SynthSpec(duration=20.0, bpm=100.0,
                                     noise_sigma=0.05, seed=21))
        a = rpeak.detect_rpeaks(rec).indices
        b = rpeak.detect_rpeaks(rec).indices
        np.testing.assert_array_equal(a, b)

    def test_resampled_record(self, match_peaks):
        rec, truth = synth_ecg(SynthSpec(duration=30.0, bpm=75.0,
                                         noise_sigma=0.05, seed=17, fs=300.0))
        peaks = rpeak.detect_rpeaks(rec)
        assert peaks.fs == 300.0
        tp, fn, fp = match_peaks(truth, peaks.indices, tol=0.05 * 300)
        assert fn == 0 and fp == 0
        assert np.all(peaks.indices < rec.samples.size)

    def test_short_record_rejected(self):
        rec = EcgRecord(id="s", fs=FS, samples=np.ones(300))
        with pytest.raises(ValueError, match="too short"):
            rpeak.detect_rpeaks(rec)


class TestRPeaksType:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            rpeak.RPeaks(indices=np.array([5, 5, 9]), fs=FS)

    def test_count(self):
        assert rpeak.RPeaks(indices=np.array([1, 4, 9]), fs=FS).count == 3


@dataclass
class ReferenceThresholds:
    """Running signal/noise levels as the detector first kept them, as an
    object; the oracle's own copy of the threshold formulas."""

    signal: float
    noise: float
    fraction: float
    update: float

    @property
    def value(self):
        return self.noise + self.fraction * (self.signal - self.noise)

    def mark_signal(self, v):
        self.signal = self.update * v + (1.0 - self.update) * self.signal

    def mark_noise(self, v):
        self.noise = self.update * v + (1.0 - self.update) * self.noise


def reference_scan(mwi, thr, refr, searchback_factor):
    """The threshold loop as first written: np.mean over the RR list and a
    Python scan of the searchback candidates. Kept as the oracle for
    ``rpeak._threshold_scan``."""
    maxima = rpeak._local_maxima(mwi)
    anchors, rr_intervals = [], []

    def accept(idx, value):
        if anchors:
            rr_intervals.append(idx - anchors[-1])
            del rr_intervals[:-8]
        anchors.append(idx)
        thr.mark_signal(value)

    for pos, c in enumerate(maxima):
        if len(rr_intervals) >= 1 and anchors:
            rr_avg = float(np.mean(rr_intervals))
            if c - anchors[-1] > searchback_factor * rr_avg:
                lo = anchors[-1] + refr
                first = int(np.searchsorted(maxima, lo))
                back = [m for m in maxima[first:pos]
                        if mwi[m] > thr.value / 2.0]
                if back:
                    best = max(back, key=lambda m: mwi[m])
                    accept(int(best), float(mwi[best]))
        if anchors and c - anchors[-1] < refr:
            continue
        v = float(mwi[c])
        if v > thr.value:
            accept(int(c), v)
        else:
            thr.mark_noise(v)
    return anchors


def scans_agree(x):
    """Run both scans on the detector's integrated waveform of ``x``."""
    mwi = rpeak.pt_chain(np.concatenate([x, np.zeros(80)])).integrated
    signal, noise = float(np.max(mwi[:400])), float(np.mean(mwi[:400]))
    cfg = rpeak.DetectorConfig(threshold_fraction=0.25, update_factor=0.125,
                               searchback_factor=1.66)
    fast = rpeak._threshold_scan(mwi, signal, noise, cfg, 40)
    slow = reference_scan(
        mwi, ReferenceThresholds(signal=signal, noise=noise, fraction=0.25,
                                 update=0.125), 40, 1.66)
    assert fast == slow
    return fast


class TestThresholdScan:
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_no_maxima_in_fewer_than_three_samples(self, size):
        maxima = rpeak._local_maxima(np.arange(size, dtype=np.float64))
        assert maxima.size == 0 and maxima.dtype.kind == "i"

    def test_matches_reference_on_synthetic_records(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rec, _ = synth_ecg(SynthSpec(
                duration=30.0, bpm=rng.uniform(40.0, 190.0),
                noise_sigma=rng.uniform(0.0, 0.3), seed=seed))
            x = rec.samples.copy()
            # weaken a few 0.5 s stretches so that beats fall below the
            # threshold and the searchback has to find them
            for start in rng.integers(400, x.size - 100, 4):
                x[start:start + 100] *= 0.3
            scans_agree(x)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(400, 3000),
           spikes=st.integers(0, 40), noise=st.floats(0.0, 2.0))
    def test_matches_reference_on_random_signals(self, seed, n, spikes,
                                                 noise):
        rng = np.random.default_rng(seed)
        x = noise * rng.standard_normal(n)
        x[rng.integers(0, n, spikes)] += rng.uniform(0.2, 5.0, spikes)
        scans_agree(x)


def reference_refine(bp, anchors, half):
    """The refinement as first written: one argmax per accepted beat over
    its window clipped to the signal. Kept as the oracle for
    ``rpeak._refine``."""
    refined = []
    for c in anchors:
        lo, hi = max(0, c - half), min(bp.size, c + half + 1)
        refined.append(int(lo + np.argmax(bp[lo:hi])))
    return refined


class TestRefine:
    def test_matches_reference_on_synthetic_records(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            rec, _ = synth_ecg(SynthSpec(
                duration=30.0, bpm=rng.uniform(40.0, 190.0),
                noise_sigma=rng.uniform(0.0, 0.3), seed=seed))
            chain = rpeak.pt_chain(np.concatenate([rec.samples,
                                                   np.zeros(80)]))
            anchors = scans_agree(rec.samples)
            assert rpeak._refine(chain.bandpassed, anchors, 20).tolist() \
                == reference_refine(chain.bandpassed, anchors, 20)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           count=st.integers(0, 30), half=st.integers(0, 25),
           levels=st.integers(1, 5))
    def test_matches_reference_on_random_signals(self, seed, n, count, half,
                                                 levels):
        # few distinct levels make ties common; anchors reach both ends
        rng = np.random.default_rng(seed)
        bp = rng.integers(0, levels, n).astype(np.float64)
        anchors = sorted(rng.integers(0, n, count).tolist())
        assert rpeak._refine(bp, anchors, half).tolist() \
            == reference_refine(bp, anchors, half)


class TestDetectProperties:
    @settings(max_examples=60, deadline=None)
    @given(fs=st.sampled_from([200.0, 250.0, 300.0, 360.0]), data=st.data())
    def test_peaks_sorted_in_range_and_refractory(self, fs, data):
        n = data.draw(st.integers(int(2 * fs), int(5 * fs)))
        x = data.draw(hnp.arrays(np.float64, n, elements=st.floats(
            -1e6, 1e6, allow_nan=False, allow_infinity=False)))
        peaks = rpeak.detect_rpeaks(EcgRecord(id="h", fs=fs, samples=x))
        idx = peaks.indices
        assert np.all((idx >= 0) & (idx < n))
        assert np.all(np.diff(idx) > 0)
        # 200 Hz peaks are mapped back to fs by rounding, which can close
        # a gap by at most one sample
        slack = 0 if fs == rpeak.DESIGN_FS else 1
        assert np.all(np.diff(idx) >= rpeak.DetectorConfig.refractory_s * fs - slack)
