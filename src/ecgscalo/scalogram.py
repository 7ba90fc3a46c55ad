"""db4 wavelet construction, discrete CWT scalograms, grayscale rendering.

The 8-tap db4 scaling filter is not hardcoded: it is constructed by spectral
factorization of the Daubechies half-band polynomial (roots inside the unit
circle, i.e. the extremal-phase factor), so correctness is enforced by the
admissibility checks rather than copied constants. The wavelet function is
sampled on a dyadic grid by the cascade algorithm; coefficients of the
transform are the plain discretized inner products

    W(a, b) = |a|^(-1/2) * dt * sum_k f[k] * psi((k - b) / a)

with the scale ``a`` measured in sampling periods, ``b`` on the sample grid
and f taken as zero outside its support. Rows of the coefficient matrix are
scales (smallest first), columns are shifts. The sums are evaluated by FFT:
one real transform of the zero-padded wave, multiplied by the conjugate
spectra of the dilated wavelet kernels, and one inverse transform. The
kernel spectra are cached per (table, scales, wave length, fs), and
``build_db4`` is cached per resolution, so repeated transforms at the same
scales and wave length pay only the two transforms.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from ecgscalo.dsp import fft_size

SUPPORT_END = 7.0  # the 8-tap family lives on [0, 7] in natural wavelet time
VANISHING_MOMENTS = 4


@dataclass(frozen=True)
class ScalogramConfig:
    num_scales: int = 64
    iterations: int = 10  # wavelet table resolution 2^iterations

    def __post_init__(self):
        if self.num_scales < 1 or self.iterations < 4:
            raise ValueError("need >= 1 scale and >= 4 wavelet iterations")


@dataclass(frozen=True, eq=False)
class WaveletTable:
    """Wavelet samples on a dyadic grid over the compact support [0, 7].

    ``resolution`` is samples per unit of natural wavelet time (2^K after K
    refinement levels). Values between grid points are read by
    nearest-sample lookup; arguments outside the support read zero.

    The table is immutable, ``psi`` is a read-only copy and tables hash by
    identity, so the kernel spectra ``cwt`` caches per table can never go
    stale.
    """

    psi: np.ndarray
    resolution: int

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.float64)
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    def sample(self, u) -> np.ndarray:
        idx = np.rint(np.asarray(u, dtype=np.float64) * self.resolution)
        idx = idx.astype(np.int64)
        valid = (idx >= 0) & (idx < self.psi.size)
        out = np.zeros(idx.shape)
        out[valid] = self.psi[idx[valid]]
        return out


@dataclass
class Scalogram:
    """CWT coefficients; rows are scales a_1..a_S, columns shift positions."""

    coeffs: np.ndarray
    scales: np.ndarray
    fs: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        self.scales = np.asarray(self.scales, dtype=np.float64)
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != self.scales.size:
            raise ValueError("coefficient rows must match the scale list")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("coefficients must be finite")


@dataclass
class GrayImage:
    """Single-channel 8-bit image, pixels in row-major order."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 2:
            raise ValueError("pixels must be a 2-D array")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def scaling_filter(vanishing_moments: int = VANISHING_MOMENTS) -> np.ndarray:
    """Orthonormal Daubechies scaling filter via spectral factorization.

    Builds the half-band magnitude polynomial, keeps the roots inside the
    unit circle and attaches the binomial factor ((1 + z^-1)/2)^N; the result
    is normalized so the coefficients sum to sqrt(2).
    """
    n = vanishing_moments
    # half-band remainder P(y) = sum_k C(n-1+k, k) y^k, y = sin^2(w/2)
    p = [math.comb(n - 1 + k, k) for k in range(n)]
    # express z^(n-1) P((2 - z - 1/z)/4) as a regular polynomial in z
    ybase = np.array([-1.0, 2.0, -1.0]) / 4.0  # z * y(z), ascending powers
    b = np.zeros(1)
    for k, coeff in enumerate(p):
        term = np.array([float(coeff)])
        for _ in range(k):
            term = npoly.polymul(term, ybase)
        term = np.concatenate([np.zeros(n - 1 - k), term])
        b = npoly.polyadd(b, term)
    roots = npoly.polyroots(b)
    inside = roots[np.abs(roots) < 1.0]
    if inside.size != n - 1:
        raise RuntimeError("spectral factorization lost a root pairing")

    q = np.array([1.0 + 0j])
    for r in inside:
        q = npoly.polymul(q, np.array([1.0, -r]))
    binom = np.array([1.0])
    for _ in range(n):
        binom = npoly.polymul(binom, np.array([0.5, 0.5]))
    h = np.real(npoly.polymul(binom, q))
    return h * (math.sqrt(2.0) / np.sum(h))


def qmf(h: np.ndarray) -> np.ndarray:
    """Quadrature-mirror high-pass g_k = (-1)^k h_{L-1-k}."""
    signs = np.where(np.arange(h.size) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


@functools.lru_cache(maxsize=8)
def build_db4(iterations: int) -> WaveletTable:
    """Sample the db4 wavelet at resolution 2^``iterations`` by the cascade.

    Starting from the box function, each refinement level convolves with the
    2^j-upsampled scaling filter; the final level applies the high-pass to
    produce the wavelet. The returned samples are the cell values of the
    level-``iterations`` piecewise-constant refinement, so the Riemann sums
    behind the zero-mean and unit-energy checks are exact. The table depends
    only on ``iterations``, so it is cached; it is immutable.
    """
    if iterations < 4:
        raise ValueError("need at least 4 refinement levels")
    h = scaling_filter(VANISHING_MOMENTS)
    g = qmf(h)
    root2 = math.sqrt(2.0)

    phi = np.array([1.0])
    for j in range(iterations - 1):
        up = np.zeros(7 * 2 ** j + 1)
        up[:: 2 ** j] = h
        phi = root2 * np.convolve(phi, up)
    up = np.zeros(7 * 2 ** (iterations - 1) + 1)
    up[:: 2 ** (iterations - 1)] = g
    psi = root2 * np.convolve(phi, up)
    return WaveletTable(psi=psi, resolution=2 ** iterations)


# one set is the default 64 scales of a 1024-sample wave, (64, 769)
# complex, about 0.8 MB
@functools.lru_cache(maxsize=4)
def _kernel_spectra(wavelet: WaveletTable, scale_bytes: bytes, length: int,
                    fs: float) -> tuple[int, np.ndarray]:
    """Transform length and per-scale conjugate kernel spectra for ``cwt``.

    Row j is the spectrum of the dilated kernel psi(d / a_j), d = 0..7 a_j,
    conjugated (so the product with the wave's spectrum correlates) and
    multiplied by the row prefactor dt / sqrt(a_j). The transform is long
    enough that the circular correlation never wraps onto the wave.
    ``scale_bytes`` is the float64 scale array's ``tobytes()``, a hashable
    cache key; the spectra are read-only.
    """
    scales = np.frombuffer(scale_bytes)
    reach = SUPPORT_END * float(np.max(scales))
    if reach > 8 * length:
        raise ValueError(
            f"scale {np.max(scales)} dilates the wavelet over {reach:.0f} "
            f"samples, more than 8x the {length}-sample wave")
    nfft = fft_size(length + int(reach))
    padded = np.zeros((scales.size, nfft))
    for j, a in enumerate(scales):
        d = np.arange(int(SUPPORT_END * a) + 1)
        padded[j, :d.size] = wavelet.sample(d / a)
    prefactor = (1.0 / fs) / np.sqrt(scales)
    spectra = np.conj(np.fft.rfft(padded, axis=1)) * prefactor[:, None]
    spectra.flags.writeable = False
    return nfft, spectra


def cwt(samples, scales, wavelet: WaveletTable, fs: float) -> Scalogram:
    """Coefficient matrix of the discretized wavelet transform.

    ``samples`` is a 1-D sequence; ``scales`` are the positive dilation
    factors in sampling periods. Each row is the cross-correlation of the
    signal with the dilated wavelet sampled at integer offsets, the signal
    being zero outside its support. The sums are evaluated by FFT on the
    wave scaled by the power of two that puts its peak in [0.5, 1) (clamped
    as in ``apply_filter``), and scaled back exactly.
    """
    f = np.asarray(samples, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError(f"wave must be nonempty and 1-D, got shape {f.shape}")
    scales = np.asarray(scales, dtype=np.float64)
    if scales.size == 0 or np.any(scales <= 0):
        raise ValueError("scales must be a nonempty list of positive reals")
    nfft, spectra = _kernel_spectra(wavelet, scales.tobytes(), f.size,
                                    float(fs))
    e = min(max(math.frexp(max(f.max(), -f.min()))[1], -1022), 1022)
    rows = np.fft.irfft(np.fft.rfft(f * math.ldexp(1.0, -e), nfft) * spectra,
                        nfft, axis=1)
    coeffs = rows[:, :f.size] * math.ldexp(1.0, e)
    return Scalogram(coeffs=coeffs, scales=scales, fs=fs)


def to_grayscale(s: Scalogram) -> GrayImage:
    """Affine min-max map of the coefficients onto [0, 255], half-up rounding.

    A flat matrix (max equals min, e.g. the all-zero scalogram of a gated
    record) renders as pure black. A range too narrow for a finite
    ``255 / range`` is lifted by an exact power of two first.
    """
    lo = float(np.min(s.coeffs))
    hi = float(np.max(s.coeffs))
    if hi == lo:
        return GrayImage(pixels=np.zeros(s.coeffs.shape, dtype=np.uint8))
    scaled, span = s.coeffs - lo, hi - lo
    if 255.0 / span == math.inf:
        exponent = -math.frexp(span)[1]
        span = math.ldexp(span, exponent)
        np.ldexp(scaled, exponent, out=scaled)
    scaled *= 255.0 / span
    scaled += 0.5  # >= 0.5, so the cast truncates to the half-up rounding
    return GrayImage(pixels=scaled.astype(np.uint8))


def write_pgm(image: GrayImage, path) -> None:
    """Binary P5 with maxval 255."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def write_f32(s: Scalogram, path) -> None:
    """Row-major little-endian float32 payload with a JSON sidecar."""
    path = Path(path)
    path.write_bytes(s.coeffs.astype("<f4").tobytes())
    sidecar = {"rows": int(s.coeffs.shape[0]), "cols": int(s.coeffs.shape[1]),
               "scales": [float(a) for a in s.scales], "fs": s.fs}
    path.with_suffix(".json").write_text(json.dumps(sidecar),
                                         encoding="utf-8")


def read_f32(path) -> Scalogram:
    path = Path(path)
    meta = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    data = np.frombuffer(path.read_bytes(), dtype="<f4").astype(np.float64)
    coeffs = data.reshape(meta["rows"], meta["cols"])
    return Scalogram(coeffs=coeffs, scales=np.asarray(meta["scales"]),
                     fs=float(meta["fs"]))
