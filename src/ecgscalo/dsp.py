"""Preprocessing filter design and frequency-response evaluation.

The Butterworth low-pass used for noise removal is designed as a cascade of
second-order sections (analog prototype, bilinear transform with frequency
prewarping, via scipy). Designs are cached per ``(order, fc, fs)`` and their
coefficient arrays are read-only, so every caller shares one design.
Rational filters with integer coefficients are kept verbatim as
numerator/denominator arrays in ascending powers of z^-1;
``magnitude_response`` evaluates them directly from the coefficients, which
gives the test suite an evaluation route independent of the design path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import signal as sig


@dataclass(frozen=True)
class RationalFilter:
    """Transfer function b(z^-1)/a(z^-1), coefficients in ascending delay."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "num", np.asarray(self.num, dtype=np.float64))
        object.__setattr__(self, "den", np.asarray(self.den, dtype=np.float64))
        if self.den.size == 0 or self.den[0] == 0:
            raise ValueError("denominator leading coefficient must be nonzero")
        if not (np.all(np.isfinite(self.num)) and np.all(np.isfinite(self.den))):
            raise ValueError("filter coefficients must be finite")


@dataclass(frozen=True)
class IirCascade:
    """Cascade of second-order sections (b0, b1, b2, a1, a2), a0 = 1.

    Every section must be strictly stable; ``gain`` multiplies the cascade
    output. Instances are immutable and ``sections`` is a read-only copy, so
    one design can safely filter many signals concurrently.
    """

    sections: np.ndarray  # shape (n, 5)
    gain: float = 1.0

    def __post_init__(self):
        secs = np.array(self.sections, dtype=np.float64, ndmin=2)
        if secs.shape[1] != 5:
            raise ValueError("each section needs (b0, b1, b2, a1, a2)")
        if not np.all(np.isfinite(secs)) or not np.isfinite(self.gain):
            raise ValueError("section coefficients must be finite")
        for b0, b1, b2, a1, a2 in secs:
            poles = np.roots([1.0, a1, a2])
            if poles.size and np.max(np.abs(poles)) >= 1.0:
                raise ValueError(f"unstable section (a1={a1}, a2={a2})")
        secs.flags.writeable = False
        object.__setattr__(self, "sections", secs)

    def to_sos(self) -> np.ndarray:
        """scipy-style (n, 6) array with the gain folded into section 0."""
        n = self.sections.shape[0]
        sos = np.empty((n, 6))
        sos[:, 0:3] = self.sections[:, 0:3]
        sos[:, 3] = 1.0
        sos[:, 4:6] = self.sections[:, 3:5]
        sos[0, 0:3] *= self.gain
        return sos


@functools.lru_cache(maxsize=32)
def design_butterworth_lowpass(order: int, fc: float, fs: float) -> IirCascade:
    """Design an order-``order`` Butterworth low-pass at cutoff ``fc`` Hz.

    The magnitude response is maximally flat with unity DC gain and -3.01 dB
    at ``fc``. Sections are normalized to unit DC gain individually, with the
    total gain split out. The design depends only on its arguments, so it is
    cached; the returned cascade is immutable.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < fc < fs / 2:
        raise ValueError(f"cutoff {fc} Hz must lie in (0, {fs / 2}) Hz")
    sos = sig.butter(order, fc, btype="low", fs=fs, output="sos")
    gain = 1.0
    sections = np.empty((sos.shape[0], 5))
    for i, row in enumerate(sos):
        b, a = row[:3], row[3:]
        g = np.sum(b) / np.sum(a)  # section DC gain; nonzero for a low-pass
        sections[i, 0:3] = b / g
        sections[i, 3:5] = a[1:]
        gain *= g
    return IirCascade(sections=sections, gain=gain)


def apply_filter(filt: IirCascade | RationalFilter, x) -> np.ndarray:
    """Run the direct-form difference equation with zero initial conditions.

    Output length equals input length and the operator is linear in x.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input signal contains non-finite samples")
    if isinstance(filt, IirCascade):
        return sig.sosfilt(filt.to_sos(), x)
    if isinstance(filt, RationalFilter):
        return sig.lfilter(filt.num, filt.den, x)
    raise TypeError(f"unsupported filter type {type(filt).__name__}")


def _limit_ratio(num: np.ndarray, den: np.ndarray, w: complex) -> complex:
    """num(w)/den(w) with L'Hopital handling of removable singularities."""
    b, a = num, den
    for _ in range(max(len(b), len(a)) + 1):
        nv = npoly.polyval(w, b)
        dv = npoly.polyval(w, a)
        if abs(dv) > 1e-9 * (1.0 + np.sum(np.abs(a))):
            return nv / dv
        if abs(nv) > 1e-9 * (1.0 + np.sum(np.abs(b))):
            return complex(np.inf)  # genuine pole on the unit circle
        if len(b) == 1 and len(a) == 1:
            break
        b = npoly.polyder(b) if len(b) > 1 else b
        a = npoly.polyder(a) if len(a) > 1 else a
    return complex(np.nan)


def magnitude_response(filt: IirCascade | RationalFilter, f, fs: float):
    """|H| at frequency ``f`` Hz, evaluated exactly from the coefficients.

    Accepts a scalar or an array of frequencies in [0, fs/2]. Removable
    0/0 singularities (e.g. pole-zero pairs on the unit circle) are resolved
    by the limit; genuine unit-circle poles return ``inf``.
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=np.float64))
    if np.any((f_arr < 0) | (f_arr > fs / 2)):
        raise ValueError("frequencies must lie in [0, fs/2]")
    w = np.exp(-2j * np.pi * f_arr / fs)

    if isinstance(filt, IirCascade):
        out = np.full(f_arr.shape, float(abs(filt.gain)))
        for b0, b1, b2, a1, a2 in filt.sections:
            num = npoly.polyval(w, [b0, b1, b2])
            den = npoly.polyval(w, [1.0, a1, a2])
            out *= np.abs(num / den)  # sections are strictly stable
        return out[0] if np.isscalar(f) or np.ndim(f) == 0 else out

    if not isinstance(filt, RationalFilter):
        raise TypeError(f"unsupported filter type {type(filt).__name__}")

    num = npoly.polyval(w, filt.num)
    den = npoly.polyval(w, filt.den)
    scale_d = 1.0 + np.sum(np.abs(filt.den))
    out = np.empty(f_arr.shape)
    plain = np.abs(den) > 1e-9 * scale_d
    out[plain] = np.abs(num[plain] / den[plain])
    for i in np.flatnonzero(~plain):
        out[i] = abs(_limit_ratio(filt.num, filt.den, w[i]))
    return out[0] if np.isscalar(f) or np.ndim(f) == 0 else out
