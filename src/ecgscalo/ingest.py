"""Record and label loading plus synthetic ECG generation.

Supported on-disk formats, by extension ``.csv``, ``.raw16`` and ``.mat``:

* ``csv``    -- one decimal amplitude per line, ``.`` decimal separator.
* ``raw16``  -- little-endian signed 16-bit samples with a JSON sidecar
  ``<name>.json`` holding ``{"id": str, "fs": number, "scale": number}``.
  csv and mat5 records may have one with any of the keys. In every sidecar
  ``id`` is a string and ``fs`` and ``scale`` are finite and positive.
* ``mat5``   -- uncompressed MATLAB level-5 file containing a single int16
  matrix named ``val`` (the shape the 2017 challenge distributes). Anything
  else is rejected. The WFDB header ``<name>.hea`` the challenge ships
  beside each file may give the rate and scale.

Each of the id, rate and scale comes from the sidecar, else the header,
else the default: the file stem, ``default_fs``, and a scale of 1 (csv) or
``DEFAULT_MAT_SCALE`` (mat5).

Labels come as a two-column CSV (``id,symbol``) with symbols N / A / O / ~.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

DEFAULT_FS = 200.0  # Hz, used when no sidecar or header supplies a rate
DEFAULT_MAT_SCALE = 1e-3  # mV per ADC unit for challenge-style int16 data
FS_SOURCES = ("given", "sidecar", "header", "default")
# the one record extension of each format, as ``load_record`` infers it
FORMATS = {".csv": "csv", ".raw16": "raw16", ".mat": "mat5"}


class EcgClass(IntEnum):
    """The four admissible rhythm classes, in fixed scoring order."""

    Normal = 0
    AF = 1
    Other = 2
    Noise = 3


LABEL_SYMBOLS = {"N": EcgClass.Normal, "A": EcgClass.AF,
                 "O": EcgClass.Other, "~": EcgClass.Noise}
CLASS_SYMBOLS = {v: k for k, v in LABEL_SYMBOLS.items()}


class FormatError(ValueError):
    """Malformed input file; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass
class EcgRecord:
    """One single-lead ECG: identifier, sampling rate, real amplitudes.

    ``samples`` are stored in mV; ``scale`` records the mV-per-raw-unit
    factor that was applied at load time (1.0 when the source was already
    real-valued). ``fs_source`` says where ``fs`` came from: ``"given"`` by
    the caller, a JSON ``"sidecar"``, a WFDB ``"header"``, or the
    ``"default"`` rate of the loader when the file had neither.
    """

    id: str
    fs: float
    samples: np.ndarray
    scale: float = 1.0
    fs_source: str = "given"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not 0 < self.fs < math.inf:
            raise ValueError(f"fs {self.fs} is not a finite positive rate")
        if self.fs_source not in FS_SOURCES:
            raise ValueError(f"fs_source must be one of {FS_SOURCES}, got "
                             f"{self.fs_source!r}")
        if self.samples.size == 0:
            raise ValueError("record has no samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("record contains non-finite samples")

    @property
    def duration(self) -> float:
        return self.samples.size / self.fs


@dataclass
class SynthSpec:
    """Parameters for the synthetic QRS-train generator."""

    duration: float
    bpm: float
    amplitude: float = 1.0
    qrs_width: float = 0.08
    noise_sigma: float = 0.0
    seed: int = 0
    fs: float = 200.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.bpm <= 0:
            raise ValueError("heart rate must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be nonnegative")
        if self.fs <= 0 or self.qrs_width <= 0:
            raise ValueError("fs and qrs_width must be positive")


def _read_sidecar(path: Path, required: tuple[str, ...] = ()) -> dict:
    """The sidecar ``<name>.json``, or {} when there is none and no key is
    ``required``; a missing or bad one raises FormatError."""
    sidecar = path.with_suffix(".json")
    if not sidecar.exists():
        if required:
            raise FormatError(f"missing sidecar {sidecar}")
        return {}
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{sidecar.name}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{sidecar.name}: expected a JSON object")
    if missing := [key for key in required if key not in meta]:
        raise FormatError(f"{sidecar.name}: missing {', '.join(missing)}")
    if not isinstance(meta.get("id", ""), str):
        raise FormatError(f"{sidecar.name}: id {meta['id']!r} is not a string")
    meta.update({key: _header_number(meta[key], float, key, sidecar)
                 for key in ("fs", "scale") if key in meta})
    return meta


def load_record(path, fmt: str | None = None,
                default_fs: float = DEFAULT_FS) -> EcgRecord:
    """Load one record from disk.

    ``fmt`` is one of ``csv`` / ``raw16`` / ``mat5``; when omitted it is
    inferred from the file extension by ``FORMATS``. The id, rate and scale
    follow the precedence above; a raw16 sidecar must give all three.
    """
    path = Path(path)
    if fmt is None:
        ext = path.suffix.lower()
        fmt = FORMATS.get(ext)
        if fmt is None:
            raise FormatError(f"cannot infer format from extension {ext!r}")
    reader = {"csv": _read_csv, "raw16": _read_raw16,
              "mat5": _read_mat5}.get(fmt)
    if reader is None:
        raise ValueError(f"unknown format {fmt!r}")
    raw, layer = reader(path)
    sidecar = _read_sidecar(
        path, required=("id", "fs", "scale") if fmt == "raw16" else ())
    meta = {"id": path.stem, "fs": default_fs, **layer, **sidecar}
    return EcgRecord(
        id=meta["id"], fs=meta["fs"], scale=meta["scale"],
        samples=np.asarray(raw, dtype=np.float64) * meta["scale"],
        fs_source="sidecar" if "fs" in sidecar
        else "header" if "fs" in layer else "default")


def _read_csv(path: Path) -> tuple[list[float], dict]:
    data = path.read_bytes()
    values = []
    offset = 0
    for line in data.split(b"\n"):
        text = line.strip()
        if text:
            try:
                value = float(text)
            except ValueError:
                raise FormatError(
                    f"unparseable amplitude {text[:40]!r}", offset) from None
            if not math.isfinite(value):
                raise FormatError(
                    f"non-finite amplitude {text[:40]!r}", offset)
            values.append(value)
        elif offset + len(line) + 1 < len(data):
            # blank line in the middle of the file
            raise FormatError("blank line inside csv record", offset)
        offset += len(line) + 1
    if not values:
        raise FormatError("empty signal", 0)
    return values, {"scale": 1.0}


def _read_raw16(path: Path) -> tuple[np.ndarray, dict]:
    data = path.read_bytes()
    if len(data) == 0:
        raise FormatError("empty signal", 0)
    if len(data) % 2:
        raise FormatError("odd byte count for 16-bit samples",
                          len(data) - 1)
    return np.frombuffer(data, dtype="<i2"), {}


def write_raw16(record: EcgRecord, path) -> None:
    """Quantize a record back to little-endian int16 plus JSON sidecar;
    a sample outside the int16 range at the record's scale is an error."""
    path = Path(path)
    raw = np.round(record.samples / record.scale)
    if raw.min() < -32768 or raw.max() > 32767:
        peak = float(np.max(np.abs(record.samples)))
        raise ValueError(f"record {record.id}: a {peak:g} mV sample is "
                         f"{peak / record.scale:.0f} units at scale "
                         f"{record.scale:g}, outside int16")
    path.write_bytes(raw.astype("<i2").tobytes())
    sidecar = {"id": record.id, "fs": record.fs, "scale": record.scale}
    path.with_suffix(".json").write_text(json.dumps(sidecar), encoding="utf-8")


def _header_number(text, kind, what: str, source: Path):
    """One header or sidecar field as ``kind``; finite, positive, no bool."""
    try:
        value = kind(text)
        usable = not isinstance(text, bool) and 0 < value < math.inf
    except (TypeError, ValueError, OverflowError):
        usable = False
    if not usable:
        raise FormatError(f"{source.name}: {what} {text!r} is not a finite "
                          f"positive number")
    return value


def _read_wfdb_header(path: Path) -> dict:
    """fs, scale and sample count from the WFDB header ``<name>.hea``.

    The record line is ``name nsig fs[/counter[(base)]] [nsamp ...]`` and
    must declare one signal. The signal line's third field is the gain,
    ``gain[(baseline)][/mV]`` in ADC units per mV, so 1000/mV gives a scale
    of 1e-3 mV per unit; without it the header gives no scale. Lines
    starting with ``#`` are comments. Returns {} when there is no header;
    a malformed one raises FormatError.
    """
    hea = path.with_suffix(".hea")
    if not hea.exists():
        return {}
    try:
        text = hea.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{hea.name}: header is not ASCII",
                          exc.start) from None
    lines = [line.split() for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    if not lines or len(lines[0]) < 3:
        raise FormatError(f"{hea.name}: record line needs a name, a signal "
                          f"count and a sampling frequency")
    record_line = lines[0]
    nsig = _header_number(record_line[1], int, "signal count", hea)
    if nsig != 1 or len(lines) < 2:
        raise FormatError(f"{hea.name}: expected one signal line, the "
                          f"header declares {nsig} and has {len(lines) - 1}")
    out = {"fs": _header_number(record_line[2].split("/")[0], float,
                                "sampling frequency", hea)}
    if len(record_line) > 3:
        out["nsamp"] = _header_number(record_line[3], int, "sample count",
                                      hea)
    if len(lines[1]) > 2:
        gain_text, _, units = lines[1][2].partition("/")
        if units not in ("", "mV"):
            raise FormatError(f"{hea.name}: gain units {units!r}, not mV")
        gain = _header_number(gain_text.split("(")[0], float, "gain", hea)
        if not math.isfinite(32768.0 / gain):
            raise FormatError(f"{hea.name}: gain {gain_text!r} is too small")
        out["scale"] = 1.0 / gain
    return out


# MATLAB level-5 constants (only the subset this reader accepts)
_MI_INT8 = 1
_MI_INT16 = 3
_MI_INT32 = 5
_MI_UINT32 = 6
_MI_MATRIX = 14
_MI_COMPRESSED = 15
_MX_INT16_CLASS = 10


def _mat_tag(data: bytes, off: int) -> tuple[int, int, int, int]:
    """Decode one element tag; returns (type, nbytes, payload_off, next_off)."""
    if off + 8 > len(data):
        raise FormatError("truncated element tag", off)
    dtype, nbytes = struct.unpack_from("<II", data, off)
    if dtype >> 16:
        # small element: payload packed into the tag's second word
        small_bytes = dtype >> 16
        dtype &= 0xFFFF
        return dtype, small_bytes, off + 4, off + 8
    payload = off + 8
    advance = payload + ((nbytes + 7) // 8) * 8  # 8-byte padding
    return dtype, nbytes, payload, advance


def _read_mat5(path: Path) -> tuple[np.ndarray, dict]:
    data = path.read_bytes()
    if len(data) < 128:
        raise FormatError("file shorter than the 128-byte header", len(data))
    version, endian = struct.unpack_from("<H2s", data, 124)
    if endian != b"IM":
        raise FormatError("not little-endian or not a level-5 file", 126)
    if version != 0x0100:
        raise FormatError(f"unsupported version 0x{version:04x}", 124)

    dtype, nbytes, payload, _ = _mat_tag(data, 128)
    if dtype == _MI_COMPRESSED:
        raise FormatError("compressed elements are not supported", 128)
    if dtype != _MI_MATRIX:
        raise FormatError(f"expected a matrix element, got type {dtype}", 128)
    end = payload + nbytes
    if end > len(data):
        raise FormatError("matrix element overruns the file", 128)

    # array flags
    dtype, n, p, off = _mat_tag(data, payload)
    if dtype != _MI_UINT32 or n != 8:
        raise FormatError("malformed array-flags subelement", payload)
    flags = struct.unpack_from("<I", data, p)[0]
    if flags & 0xFF != _MX_INT16_CLASS:
        raise FormatError(
            f"only int16 matrices are supported (class {flags & 0xFF})", p)

    # dimensions
    dtype, n, p, off = _mat_tag(data, off)
    if dtype != _MI_INT32 or p + n > len(data):
        raise FormatError("malformed dimensions subelement", off)
    dims = struct.unpack_from(f"<{n // 4}i", data, p)
    if len(dims) != 2 or min(dims) not in (0, 1):
        raise FormatError(f"expected a vector, got dims {dims}", p)

    # array name
    dtype, n, p, off = _mat_tag(data, off)
    if dtype != _MI_INT8:
        raise FormatError("malformed array-name subelement", off)
    name = data[p:p + n].decode("ascii", errors="replace")
    if name != "val":
        raise FormatError(f"expected matrix named 'val', got {name!r}", p)

    # real part
    dtype, n, p, off = _mat_tag(data, off)
    if dtype != _MI_INT16:
        raise FormatError(f"expected int16 data, got type {dtype}", p)
    if p + n > len(data):
        raise FormatError("sample data overruns the file", p)
    count = n // 2
    if count != dims[0] * dims[1]:
        raise FormatError(
            f"dims {dims} disagree with {count} stored samples", p)
    if count == 0:
        raise FormatError("empty signal", p)
    header = _read_wfdb_header(path)
    nsamp = header.pop("nsamp", count)
    if nsamp != count:
        raise FormatError(f"{path.with_suffix('.hea').name} declares "
                          f"{nsamp} samples, the file holds {count}")
    raw = np.frombuffer(data, dtype="<i2", count=count, offset=p)
    return raw, {"scale": DEFAULT_MAT_SCALE, **header}


def load_labels(path) -> dict[str, EcgClass]:
    """Read a two-column ``id,symbol`` CSV into an id -> class map."""
    labels: dict[str, EcgClass] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise FormatError(
                    f"line {lineno}: expected two columns, got {len(parts)}")
            rec_id, symbol = parts[0].strip(), parts[1].strip()
            if symbol not in LABEL_SYMBOLS:
                raise FormatError(
                    f"line {lineno}: unknown label symbol {symbol!r}")
            if rec_id in labels:
                raise FormatError(f"line {lineno}: duplicate id {rec_id!r}")
            labels[rec_id] = LABEL_SYMBOLS[symbol]
    return labels


def synth_ecg(spec: SynthSpec) -> tuple[EcgRecord, np.ndarray]:
    """Generate a train of Gaussian QRS bumps plus seeded Gaussian noise.

    Returns ``(record, peak_indices)`` where ``peak_indices`` are the
    ground-truth R positions in samples. Peaks are laid out on
    ``[rr/2, duration - rr/2]`` so every beat is fully inside the record;
    the count lands within one of ``floor(duration * bpm / 60)``.

    The generator is a pure function of its spec: the same seed yields
    bit-identical sample arrays.
    """
    n = int(round(spec.duration * spec.fs))
    rr = 60.0 / spec.bpm
    times = np.arange(rr / 2, spec.duration - rr / 2 + 1e-12, rr)
    peak_indices = np.round(times * spec.fs).astype(np.int64)
    peak_indices = peak_indices[peak_indices < n]

    x = np.zeros(n)
    sigma_samples = spec.qrs_width * spec.fs / 2.0
    half = int(np.ceil(6 * sigma_samples))
    for idx in peak_indices:
        lo, hi = max(0, idx - half), min(n, idx + half + 1)
        k = np.arange(lo, hi)
        x[lo:hi] += spec.amplitude * np.exp(
            -((k - idx) ** 2) / (2.0 * sigma_samples ** 2))

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        x = x + rng.normal(0.0, spec.noise_sigma, n)

    record = EcgRecord(id=f"synth-{spec.seed}", fs=spec.fs, samples=x)
    return record, peak_indices
