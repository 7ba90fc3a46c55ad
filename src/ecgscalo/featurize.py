"""Heart-rate noise gate and four-cycle feature-wave interception.

Records whose R-wave count falls outside a plausible sustained heart-rate
band are treated as noise and replaced by an all-zero feature wave. Accepted
records contribute the span of five consecutive R peaks (four complete RR
cycles) centred on the middle peak, resampled to a fixed length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ecgscalo.rpeak import RPeaks


@dataclass(frozen=True)
class GateConfig:
    """Closed band of plausible sustained heart rates, in beats per minute."""

    bpm_low: float = 30.0
    bpm_high: float = 200.0

    def __post_init__(self):
        if not 0 < self.bpm_low < self.bpm_high:
            raise ValueError("need 0 < bpm_low < bpm_high")


@dataclass
class FeatureWave:
    """Fixed-length 1-D sequence; all zeros when the record was gated."""

    samples: np.ndarray
    is_noise_gated: bool

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.is_noise_gated and np.any(self.samples != 0.0):
            raise ValueError("gated feature waves must be all zero")


def gate_noise(peaks: RPeaks, duration: float,
               gate: GateConfig = GateConfig()) -> bool:
    """True (gate as noise) iff the peak count is outside the closed band
    [ceil(duration * bpm_low / 60), floor(duration * bpm_high / 60)]."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    low = math.ceil(duration * gate.bpm_low / 60.0)
    high = math.floor(duration * gate.bpm_high / 60.0)
    return not (low <= peaks.count <= high)


def extract_feature_wave(samples, peaks: RPeaks, length: int,
                         gate: GateConfig = GateConfig()) -> FeatureWave:
    """Cut four cardiac cycles from the middle of a filtered record.

    The window runs from peak m-2 to peak m+2 where m is the middle peak
    index, then is resampled to ``length`` points by linear interpolation on
    the half-open span (step = span / length), so an input holding an exact
    number of cycles stays exactly periodic after resampling. Records that
    fail the gate, or that have fewer than six peaks, yield the zero wave.
    Every peak must lie inside the record, gated or not.
    """
    samples = np.asarray(samples, dtype=np.float64)
    outside = peaks.indices[(peaks.indices < 0)
                            | (peaks.indices >= samples.size)]
    if outside.size:
        raise ValueError(f"peak {outside[0]} falls outside the "
                         f"{samples.size}-sample record")
    duration = samples.size / peaks.fs
    gated = gate_noise(peaks, duration, gate) or peaks.count < 6
    if gated:
        return FeatureWave(samples=np.zeros(length), is_noise_gated=True)

    m = peaks.count // 2
    start = int(peaks.indices[m - 2])
    end = int(peaks.indices[m + 2])
    window = samples[start:end + 1]
    positions = np.arange(length) * ((end - start) / length)
    resampled = np.interp(positions, np.arange(window.size), window)
    return FeatureWave(samples=resampled, is_noise_gated=False)
