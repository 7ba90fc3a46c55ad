"""Preprocessing filter design, application and frequency-response evaluation.

Everything here is numpy. The Butterworth low-pass used for noise removal is
designed as a cascade of second-order sections (Oppenheim & Schafer,
*Discrete-Time Signal Processing*): the analog prototype poles
exp(j pi (2k + N + 1) / 2N), k = 0..N-1, are scaled to the prewarped cutoff
tan(pi fc / fs) and mapped through the bilinear transform
z = (1 + s) / (1 - s). Each conjugate pair becomes a section with both
zeros at z = -1; an odd order adds one first-order section first. Sections
are ordered by pole radius, the pair nearest the unit circle last, and each
has unit DC gain, so the cascade gain is exactly 1. Designs are cached per
``(order, fc, fs)`` and are immutable. A rational filter is an FIR kept as
numerator/denominator arrays in ascending powers of z^-1, as Pan-Tompkins
print theirs; its denominator must divide its numerator.

``apply_filter`` runs every filter from zero initial conditions by one exact
route: it convolves the input with the filter's taps, of which an n-sample
output sees only the first n. A rational filter's taps are the quotient
num / den (the Pan-Tompkins filters: 11 and 32 taps). A cascade's taps are
its impulse response, computed once per design by running each section's
difference equation on an impulse, and cut where a bound from the largest
pole radius puts the whole tail below ``TAIL_BOUND`` of the peak: 374 taps
for the default order 6 at 35 Hz and 300 Hz, over 4096 for order 8 at
0.7 Hz and 360 Hz. Short convolutions run through ``np.convolve``, long
ones through an FFT of length 2^p 3^q.

``magnitude_response`` evaluates |H| directly from the coefficients, which
gives the test suite an evaluation route independent of the design path and
of the taps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

TAIL_BOUND = 1e-17  # dropped impulse-response tail, relative to its peak
DIRECT_CONVOLVE_MAX = 64  # taps (or samples) up to which np.convolve wins


def fft_size(n: int) -> int:
    """Smallest 2^p * 3^q that is >= n, a fast transform length."""
    best = 1 << (n - 1).bit_length()
    p3 = 1
    while p3 < best:
        size = p3
        while size < n:
            size *= 2
        best = min(best, size)
        p3 *= 3
    return best


@dataclass(frozen=True)
class ButterworthConfig:
    """Noise-removal low-pass; ``design_butterworth_lowpass`` checks fs/2."""

    order: int = 6
    cutoff_hz: float = 35.0

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("Butterworth order must be >= 1")
        if not self.cutoff_hz > 0:
            raise ValueError(f"cutoff {self.cutoff_hz} Hz must be positive")


@dataclass(frozen=True)
class RationalFilter:
    """FIR written as b(z^-1)/a(z^-1), coefficients in ascending delay.

    ``taps`` is the quotient num / den; a denominator that leaves a
    remainder raises ``ValueError``. Instances are immutable and
    ``num``/``den``/``taps`` are read-only copies.
    """

    num: np.ndarray
    den: np.ndarray
    taps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        num = np.array(self.num, dtype=np.float64, ndmin=1)
        den = np.array(self.den, dtype=np.float64, ndmin=1)
        if den.size == 0 or den[0] == 0:
            raise ValueError("denominator leading coefficient must be nonzero")
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise ValueError("filter coefficients must be finite")
        taps, remainder = npoly.polydiv(num, den)
        if np.any(remainder != 0):
            raise ValueError("denominator does not divide the numerator: "
                             "the filter is not an FIR")
        for name, coeffs in (("num", num), ("den", den), ("taps", taps)):
            coeffs.flags.writeable = False
            object.__setattr__(self, name, coeffs)


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

    @functools.cached_property
    def taps(self) -> np.ndarray:
        """The impulse response, cut where its tail is provably negligible.

        With N poles of radius at most R and the cascade numerator b of
        degree M, |h[n]| <= |b|_1 C(n + N - 1, N - 1) R^(n - M) for n >= M.
        The response is cut at the first n from which that bound, summed
        over the whole tail, is at most ``TAIL_BOUND`` times the peak of h.
        The summed bound only shrinks as n grows, so each cut is found by
        galloping and bisection. The largest of h[0..M] is at most the
        peak, so its cut is as long as the recursion ever needs to run:
        each section's difference equation runs once, over that many
        samples.
        """
        num = np.array([self.gain])
        radius = 0.0
        for b0, b1, b2, a1, a2 in self.sections:
            num = np.convolve(num, [b0, b1, b2])
            radius = max(radius, *np.abs(np.roots([1.0, a1, a2])))
        degree, poles = num.size - 1, 2 * len(self.sections)
        if radius == 0.0:  # every pole at the origin: h is b itself
            num.flags.writeable = False
            return num
        log_l1, log_radius = np.log(np.sum(np.abs(num))), np.log(radius)
        k = np.arange(1, poles)

        def tail(n: int) -> float:
            """The bound on |h[n]| + |h[n + 1]| + ..., or inf."""
            ratio = radius * (n + poles) / (n + 1)  # bound[n+1] / bound[n]
            if n < degree or ratio >= 1.0:
                return np.inf
            log_bound = (log_l1 + np.log1p(n / k).sum()
                         + (n - degree) * log_radius)
            return np.exp(log_bound) / (1.0 - ratio)

        def cut(limit: float) -> int:
            """The first n with tail(n) <= limit."""
            lo, hi = -1, 1  # tail(lo) > limit, or lo is before the start
            while tail(hi) > limit:
                lo, hi = hi, 2 * hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if tail(mid) <= limit else (mid, hi)
            return hi

        head = self._impulse_response(num.size)  # h[0..M]: zero only if b is
        h = self._impulse_response(
            cut(TAIL_BOUND * np.max(np.abs(head))))
        taps = h[:cut(TAIL_BOUND * np.max(np.abs(h)))].copy()
        taps.flags.writeable = False
        return taps

    def _impulse_response(self, length: int) -> np.ndarray:
        """First ``length`` samples of the cascade's impulse response."""
        h = [1.0] + [0.0] * (length - 1)
        for b0, b1, b2, a1, a2 in self.sections.tolist():
            x1 = x2 = y1 = y2 = 0.0
            for i, v in enumerate(h):
                y = b0 * v + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
                x2, x1, y2, y1 = x1, v, y1, y
                h[i] = y
        return self.gain * np.array(h)


def _convolve(taps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """First ``x.size`` samples of ``x`` convolved with ``taps``.

    Long convolutions run through an FFT long enough not to wrap.
    """
    if min(taps.size, x.size) <= DIRECT_CONVOLVE_MAX:
        return np.convolve(x, taps)[:x.size]
    nfft = fft_size(x.size + taps.size - 1)
    spectrum = np.fft.rfft(x, nfft) * np.fft.rfft(taps, nfft)
    return np.fft.irfft(spectrum, nfft)[:x.size]


@functools.lru_cache(maxsize=32)
def design_butterworth_lowpass(order: int, fc: float, fs: float) -> IirCascade:
    """Design an order-``order`` Butterworth low-pass at cutoff ``fc`` Hz.

    The magnitude response is maximally flat with unity DC gain and -3.01 dB
    at ``fc``. Every section has unit DC gain, so ``gain`` is 1. The design
    depends only on its arguments, so it is cached; the returned cascade is
    immutable.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0 < fc < fs / 2:
        raise ValueError(f"cutoff {fc} Hz must lie in (0, {fs / 2}) Hz")
    # prototype poles -exp(j pi m / 2N) = exp(j pi (2k + N + 1) / 2N) for
    # m = 2k + 1 - N; m <= 0 keeps the real pole and one of each pair, from
    # the most damped (smallest radius after the mapping) outwards
    m = np.arange(order % 2 - 1, -order, -2)
    analog = -np.exp(1j * np.pi * m / (2 * order)) * np.tan(np.pi * (fc / fs))
    poles = (1.0 + analog) / (1.0 - analog)
    a1 = -2.0 * poles.real
    a2 = poles.real * poles.real + poles.imag * poles.imag
    b = np.outer((1.0 + a1 + a2) / 4.0, [1.0, 2.0, 1.0])
    if order % 2:  # the real pole: one zero at z = -1, one pole
        a1[0], a2[0] = -poles[0].real, 0.0
        b[0] = [(1.0 + a1[0]) / 2.0, (1.0 + a1[0]) / 2.0, 0.0]
    return IirCascade(sections=np.column_stack([b, a1, a2]))


def apply_filter(filt: IirCascade | RationalFilter, x) -> np.ndarray:
    """Run the filter's difference equation with zero initial conditions
    over one 1-D signal.

    Output length equals input length and the operator is linear in x.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"input signal must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input signal contains non-finite samples")
    if not isinstance(filt, (IirCascade, RationalFilter)):
        raise TypeError(f"unsupported filter type {type(filt).__name__}")
    if x.size == 0:
        return x.copy()
    # later taps never reach y; run at the power-of-two scale that puts the
    # peak in [0.5, 1), clamped so both factors are exact normal floats
    e = min(max(math.frexp(max(x.max(), -x.min()))[1], -1022), 1022)
    y = _convolve(filt.taps[:x.size], x * math.ldexp(1.0, -e))
    return np.multiply(y, math.ldexp(1.0, e), out=y)


def magnitude_response(filt: IirCascade | RationalFilter, f, fs: float):
    """|H| at frequency ``f`` Hz, evaluated exactly from the coefficients.

    Accepts a scalar or an array of frequencies in [0, fs/2].
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
    elif isinstance(filt, RationalFilter):
        out = np.abs(npoly.polyval(w, filt.taps))
    else:
        raise TypeError(f"unsupported filter type {type(filt).__name__}")
    return out[0] if np.isscalar(f) or np.ndim(f) == 0 else out
