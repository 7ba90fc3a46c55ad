"""Pan-Tompkins style R-wave detection.

The chain is band-pass -> five-point derivative -> squaring -> moving-window
integration, followed by dual adaptive thresholds with searchback. The
integer-coefficient band-pass is the Pan-Tompkins low-pass/high-pass pair

    low-pass   (1 - z^-6)^2 / (1 - z^-1)^2
    high-pass  (-1 + 32 z^-16 - 32 z^-17 + z^-32) / (1 - z^-1)

The high-pass is the designed all-pass delay minus a 32-point moving
average, 32 z^-16 - (1 - z^-32)/(1 - z^-1), scaled by 32; the
``(1 + z^-1)`` denominator of the printed paper is a misprint that passes
DC. Each marginal denominator is cancelled by a zero of its own numerator,
so each filter, and hence the composite, is FIR-equivalent and bounded.
The filters are designed for 200 Hz; other rates are linearly resampled to
200 Hz for detection and the found indices mapped back.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from ecgscalo.dsp import RationalFilter, apply_filter
from ecgscalo.ingest import EcgRecord

DESIGN_FS = 200.0
# trailing zero-pad so beats near the record end produce complete
# integration bumps; indices past the record are discarded after refinement
TAIL_PAD = int(round(0.4 * DESIGN_FS))
# measured group delay of the band-pass cascade over 5-15 Hz is 20.3-21.5
# samples: the low-pass is linear phase (5 samples), the high-pass adds ~16
BANDPASS_DELAY = 21


@dataclass(frozen=True)
class DetectorConfig:
    """Detector parameters; the integration window is in samples at 200 Hz."""

    integration_window: int = 30
    refractory_s: float = 0.2
    threshold_fraction: float = 0.25
    update_factor: float = 0.125
    searchback_factor: float = 1.66
    init_window_s: float = 2.0

    def __post_init__(self):
        if self.integration_window < 1:
            raise ValueError("integration window must be >= 1")
        if not (self.refractory_s > 0 and self.init_window_s > 0):
            raise ValueError("refractory and init window must be positive")
        if not 0 < self.update_factor <= 1 or not 0 < self.threshold_fraction <= 1:
            raise ValueError("update/threshold factors must lie in (0, 1]")
        if not 0 < self.searchback_factor < np.inf:
            raise ValueError("searchback factor must be positive and finite")


@functools.cache
def pt_lowpass() -> RationalFilter:
    """Second-order integer low-pass, DC gain 36 (the FIR of 11 taps
    (1 + z^-1 + ... + z^-5)^2). Built once; the filter is immutable."""
    num = np.zeros(13)
    num[0], num[6], num[12] = 1.0, -2.0, 1.0
    return RationalFilter(num=num, den=np.array([1.0, -2.0, 1.0]))


@functools.cache
def pt_highpass() -> RationalFilter:
    """Integer high-pass, 32 z^-16 minus a 32-point moving sum.

    DC gain 0, passband gain 32 (exactly 32 at Nyquist); the impulse
    response is zero from sample 33 on, an FIR of 32 taps. Built once; the
    filter is immutable.
    """
    num = np.zeros(33)
    num[0], num[16], num[17], num[32] = -1.0, 32.0, -32.0, 1.0
    return RationalFilter(num=num, den=np.array([1.0, -1.0]))


@dataclass
class PtChainOutput:
    """Intermediate taps of the detection chain, all input-length."""

    bandpassed: np.ndarray
    derivative: np.ndarray
    squared: np.ndarray
    integrated: np.ndarray


@dataclass
class RPeaks:
    """Detected R-wave sample indices for one record."""

    indices: np.ndarray
    fs: float

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.fs <= 0:
            raise ValueError("fs must be positive")
        if self.indices.size and np.any(np.diff(self.indices) <= 0):
            raise ValueError("peak indices must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.indices.size)


def pt_bandpass(x) -> np.ndarray:
    """Low-pass then high-pass; linear, rejects DC (composite DC gain 0)."""
    return apply_filter(pt_highpass(), apply_filter(pt_lowpass(), x))


def pt_derivative(x, fs: float = DESIGN_FS) -> np.ndarray:
    """Five-point derivative y(n) = (-x(n-2) - 2x(n-1) + 2x(n+1) + x(n+2)) / (8T).

    Boundary samples treat x as zero outside its support.
    """
    x = np.asarray(x, dtype=np.float64)
    t = 1.0 / fs
    xp = np.pad(x, 2)
    return (-xp[:-4] - 2.0 * xp[1:-3] + 2.0 * xp[3:-1] + xp[4:]) / (8.0 * t)


def pt_square(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) ** 2


def pt_integrate(x, window: int = DetectorConfig.integration_window
                 ) -> np.ndarray:
    """Causal moving mean over ``window`` samples with zero-padded history."""
    if window < 1:
        raise ValueError("integration window must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    kernel = np.full(window, 1.0 / window)
    return np.convolve(x, kernel, mode="full")[: x.size]


def pt_chain(x, fs: float = DESIGN_FS,
             window: int = DetectorConfig.integration_window) -> PtChainOutput:
    """Run all four stages and keep every tap."""
    bp = pt_bandpass(x)
    der = pt_derivative(bp, fs)
    sq = pt_square(der)
    mwi = pt_integrate(sq, window)
    return PtChainOutput(bandpassed=bp, derivative=der, squared=sq,
                         integrated=mwi)


def detection_chain(record: EcgRecord, window: int) -> PtChainOutput:
    """The chain ``detect_rpeaks`` thresholds: the record linearly
    resampled to 200 Hz, followed by ``TAIL_PAD`` zeros.

    The resampled record is first scaled by the power of two that brings
    its peak into [0.5, 1): exactly, as is each stage after it, so the
    squaring stays in range and the peaks found do not depend on units.
    """
    x = record.samples
    if record.fs != DESIGN_FS:
        n200 = int(round(x.size * DESIGN_FS / record.fs))
        t200 = np.arange(n200) / DESIGN_FS
        x = np.interp(t200, np.arange(x.size) / record.fs, x)
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x)))[1])
    return pt_chain(np.concatenate([x, np.zeros(TAIL_PAD)]), DESIGN_FS, window)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices i with x[i-1] < x[i] >= x[i+1] (plateaus keep their first sample)."""
    return np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] >= x[2:])) + 1


def _threshold_scan(mwi: np.ndarray, signal: float, noise: float,
                    cfg: DetectorConfig, refr: int) -> list[int]:
    """Integrated-waveform maxima accepted as beats, in order.

    ``signal`` and ``noise`` are the initial running levels; the threshold
    is ``noise + cfg.threshold_fraction * (signal - noise)``, and each
    maximum moves the level of its kind by ``cfg.update_factor`` towards
    its value. A local maximum at least ``refr`` samples after the last
    accepted one is a beat if it exceeds the threshold and noise otherwise.
    When no beat has been accepted for ``cfg.searchback_factor`` times the
    mean of the last (up to 8) RR intervals, the largest maximum since the
    last beat's refractory period that exceeds half the threshold is
    accepted first.
    """
    fraction, update = cfg.threshold_fraction, cfg.update_factor
    maxima = _local_maxima(mwi)
    peak_values = mwi[maxima]
    # the loop reads positions and values as Python scalars, once
    positions = maxima.tolist()
    values = peak_values.tolist()
    anchors: list[int] = []
    rr: list[int] = []  # integer sums are exact: sum / len is np.mean's value

    def accept(idx: int, value: float) -> None:
        nonlocal signal
        if anchors:
            rr.append(idx - anchors[-1])
            del rr[:-8]
        anchors.append(idx)
        signal = update * value + (1.0 - update) * signal

    for pos, c in enumerate(positions):
        # searchback: no accepted peak for 1.66x the running RR average
        if rr and (c - anchors[-1]
                   > cfg.searchback_factor * (sum(rr) / len(rr))):
            first = bisect.bisect_left(positions, anchors[-1] + refr)
            back = peak_values[first:pos]
            above = np.flatnonzero(
                back > (noise + fraction * (signal - noise)) / 2.0)
            if above.size:
                # the first of the largest, as max() over the candidates
                best = first + int(above[np.argmax(back[above])])
                accept(positions[best], values[best])
        if anchors and c - anchors[-1] < refr:
            continue
        v = values[pos]
        if v > noise + fraction * (signal - noise):
            accept(c, v)
        else:
            noise = update * v + (1.0 - update) * noise
    return anchors


def _refine(bp: np.ndarray, anchors: list[int], half: int) -> np.ndarray:
    """Index of the first largest ``bp`` sample within +-``half`` of each
    anchor, the window clipped to the signal.

    One argmax over windows of the signal padded with -inf on both sides:
    padding never wins, so clipping and first-of-largest ties are kept.
    """
    padded = np.pad(bp, half, constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    idx = np.asarray(anchors, dtype=np.int64)
    return idx - half + windows[idx].argmax(axis=1)


def detect_rpeaks(record: EcgRecord,
                  cfg: DetectorConfig = DetectorConfig()) -> RPeaks:
    """Locate R waves with dual adaptive thresholds and searchback.

    Thresholding runs on the integrated waveform; each accepted detection is
    refined to the local maximum of the band-passed signal within +-0.1 s and
    compensated for the band-pass group delay, so reported indices line up
    with the R wave in the input record. Thresholds are initialized from the
    first ``cfg.init_window_s`` seconds of signal statistics, which makes the
    detected index set invariant to positive rescaling of the input.
    """
    if record.duration < 2.0:
        raise ValueError(
            f"record too short for detection ({record.duration:.3f} s < 2 s)")

    chain = detection_chain(record, cfg.integration_window)
    mwi, bp = chain.integrated, chain.bandpassed
    n = mwi.size - TAIL_PAD

    refr = int(round(cfg.refractory_s * DESIGN_FS))
    init_n = min(int(round(cfg.init_window_s * DESIGN_FS)), n)
    anchors = _threshold_scan(mwi, float(np.max(mwi[:init_n])),
                              float(np.mean(mwi[:init_n])), cfg, refr)

    # refine to the band-passed local maximum and undo the filter delay
    half = int(round(0.1 * DESIGN_FS))
    refined = _refine(bp, anchors, half) - BANDPASS_DELAY
    refined = np.sort(refined[(refined >= 0) & (refined < n)]).tolist()
    kept: list[int] = []
    for r in refined:
        if not kept or r - kept[-1] >= refr:
            kept.append(r)

    indices = np.asarray(kept, dtype=np.int64)
    if record.fs != DESIGN_FS:
        indices = np.round(indices * record.fs / DESIGN_FS).astype(np.int64)
        indices = np.unique(indices)
        indices = indices[indices < record.samples.size]
    return RPeaks(indices=indices, fs=record.fs)
