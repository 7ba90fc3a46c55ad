"""Seeded synthesis of challenge-shaped single-lead ECG records.

Records mimic the PhysioNet/CinC 2017 training set: 300 Hz, 9-60 s, int16
samples at 1000 units per mV in a MATLAB level-5 ``.mat`` file, with a JSON
sidecar giving the rate (the program reads a sidecar-less ``.mat`` at
200 Hz). The cohort plan -- kind, heart rate and duration of every record --
is fixed, so every seed gives the same amount of work and the same true beat
counts; the seed drives beat timing, wave morphology, baseline wander and
noise.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FS = 300.0
UNITS_PER_MV = 1000.0

# kind, mean heart rate (bpm), duration (s).  Kinds:
#   clean  -- regular rhythm in the 30-200 bpm band, light noise
#   irreg  -- irregular (AF-like) RR intervals in the band
#   noisy  -- in band, with heavy broadband noise and strong wander
#   fast   -- sustained rate above the band, so the gate fires
#   slow   -- sustained rate below the band, so the gate fires
PLAN: tuple[tuple[str, float, float], ...] = (
    ("clean", 62.0, 30.0), ("clean", 75.0, 9.0), ("clean", 48.0, 60.0),
    ("clean", 88.0, 30.0), ("clean", 110.0, 18.0), ("clean", 135.0, 30.0),
    ("clean", 70.0, 45.0), ("clean", 160.0, 12.0), ("clean", 55.0, 30.0),
    ("clean", 95.0, 60.0), ("clean", 120.0, 30.0), ("clean", 80.0, 24.0),
    ("clean", 66.0, 36.0), ("clean", 145.0, 30.0),
    ("irreg", 78.0, 30.0), ("irreg", 105.0, 30.0), ("irreg", 125.0, 15.0),
    ("irreg", 92.0, 60.0), ("irreg", 140.0, 30.0), ("irreg", 68.0, 21.0),
    ("noisy", 72.0, 30.0), ("noisy", 98.0, 30.0), ("noisy", 58.0, 60.0),
    ("noisy", 115.0, 12.0), ("noisy", 84.0, 30.0), ("noisy", 130.0, 45.0),
    ("fast", 240.0, 30.0), ("fast", 260.0, 15.0), ("fast", 250.0, 60.0),
    ("fast", 245.0, 30.0),
    ("slow", 22.0, 30.0), ("slow", 18.0, 60.0), ("slow", 25.0, 12.0),
    ("slow", 20.0, 30.0),
)


@dataclass
class Record:
    """One written record and its ground truth."""

    name: str
    path: Path
    kind: str
    bpm: float
    duration: float
    peaks: np.ndarray  # true R positions, samples at FS

    @property
    def true_count(self) -> int:
        return int(self.peaks.size)


def _beat_times(rng, kind: str, bpm: float, duration: float) -> np.ndarray:
    """R times in seconds; the count depends on the plan alone."""
    rr = 60.0 / bpm
    count = int(math.floor(duration / rr))
    if kind == "irreg":
        gaps = rng.uniform(0.7, 1.3, count - 1)
    else:
        gaps = 1.0 + rng.normal(0.0, 0.02, count - 1)
    span = duration - rr  # first and last beats sit at least rr/2 inside
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return rr / 2 + times * (span / times[-1])


def _bump(t: np.ndarray, centre: float, sigma: float, amp: float):
    return amp * np.exp(-0.5 * ((t - centre) / sigma) ** 2)


def synth_signal(rng, kind: str, bpm: float, duration: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Signal in mV and true R indices for one planned record."""
    n = int(round(duration * FS))
    t = np.arange(n) / FS
    beats = _beat_times(rng, kind, bpm, duration)
    x = np.zeros(n)
    r_amp = rng.uniform(0.8, 1.6)
    for i, tb in enumerate(beats):
        rr = (beats[i + 1] - tb) if i + 1 < beats.size else (tb - beats[i - 1])
        qt = 0.4 * math.sqrt(min(rr, 1.5))  # Bazett-like T placement
        lo = int(max(0, (tb - 0.3) * FS))
        hi = int(min(n, (tb + qt + 0.2) * FS))
        seg = t[lo:hi]
        amp = r_amp * rng.uniform(0.9, 1.1)
        wave = (_bump(seg, tb, 0.010, amp)
                + _bump(seg, tb - 0.022, 0.008, -0.12 * amp)
                + _bump(seg, tb + 0.025, 0.010, -0.25 * amp)
                + _bump(seg, tb + 0.6 * qt, 0.045, 0.25 * amp))
        if kind != "irreg" and rr > 0.4:
            wave += _bump(seg, tb - 0.16, 0.022, 0.12 * amp)
        x[lo:hi] += wave
    wander = rng.uniform(0.05, 0.15) if kind != "noisy" else rng.uniform(0.2, 0.4)
    x += wander * np.sin(2 * np.pi * rng.uniform(0.1, 0.4) * t
                         + rng.uniform(0, 2 * np.pi))
    sigma = 0.015 if kind != "noisy" else 0.12
    x += rng.normal(0.0, sigma, n)
    peaks = np.round(beats * FS).astype(np.int64)
    return x, peaks


def write_mat(path: Path, raw: np.ndarray) -> None:
    """Uncompressed level-5 MAT file holding one int16 row vector ``val``."""
    header = b"MATLAB 5.0 MAT-file, ecgscalo benchmark".ljust(116, b" ")
    header += b"\x00" * 8 + struct.pack("<H2s", 0x0100, b"IM")
    data = np.asarray(raw, dtype="<i2").tobytes()
    body = struct.pack("<II", 6, 8) + struct.pack("<II", 10, 0)
    body += struct.pack("<II", 5, 8) + struct.pack("<ii", 1, raw.size)
    body += struct.pack("<HH", 1, 3) + b"val\x00"
    body += struct.pack("<II", 3, len(data)) + data.ljust(
        -(-len(data) // 8) * 8, b"\x00")
    path.write_bytes(header + struct.pack("<II", 14, len(body)) + body)


def write_cohort(directory: Path, seed: int) -> list[Record]:
    """Write every planned record as ``.mat`` plus rate sidecar."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2017])
    records = []
    for i, (kind, bpm, duration) in enumerate(PLAN):
        x, peaks = synth_signal(rng, kind, bpm, duration)
        raw = np.clip(np.round(x * UNITS_PER_MV), -32768, 32767)
        name = f"B{i:05d}"
        path = directory / f"{name}.mat"
        write_mat(path, raw.astype(np.int16))
        path.with_suffix(".json").write_text(json.dumps(
            {"id": name, "fs": FS, "scale": 1.0 / UNITS_PER_MV}))
        records.append(Record(name=name, path=path, kind=kind, bpm=bpm,
                              duration=duration, peaks=peaks))
    return records
