import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecgscalo import ingest
from ecgscalo.ingest import EcgClass, EcgRecord, FormatError, SynthSpec


def write_minimal_mat(path, values):
    """Independent level-5 writer used only to author fixtures.

    Header, one uncompressed miMATRIX holding an int16 row vector named
    'val'; layout assembled by hand from the format description.
    """
    header = b"MATLAB 5.0 MAT-file, test fixture".ljust(116, b" ")
    header += b"\x00" * 8 + struct.pack("<H2s", 0x0100, b"IM")
    data = np.asarray(values, dtype="<i2").tobytes()
    body = struct.pack("<II", 6, 8) + struct.pack("<II", 10, 0)
    body += struct.pack("<II", 5, 8) + struct.pack("<ii", 1, len(values))
    body += struct.pack("<HH", 1, 3) + b"val\x00"  # small-element name
    padded = data.ljust(-(-len(data) // 8) * 8, b"\x00")
    body += struct.pack("<II", 3, len(data)) + padded
    path.write_bytes(header + struct.pack("<II", 14, len(body)) + body)


class TestLoadCsv:
    def test_two_values(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0\n-2.5\n")
        rec = ingest.load_record(p)
        assert rec.samples.tolist() == [1.0, -2.5]
        assert rec.samples.size == 2

    def test_default_fs_without_sidecar(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0.5\n")
        assert ingest.load_record(p).fs == 200.0

    def test_sidecar_scale_is_applied(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1\n-3\n")
        (tmp_path / "r.json").write_text(json.dumps({"scale": 2}))
        rec = ingest.load_record(p)
        assert (rec.samples.tolist(), rec.scale) == ([2.0, -6.0], 2.0)
        ingest.write_raw16(rec, tmp_path / "r.raw16")
        back = ingest.load_record(tmp_path / "r.raw16")
        assert back.samples.tolist() == [2.0, -6.0]

    def test_sidecar_overrides_fs(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("0.5\n")
        (tmp_path / "r.json").write_text(json.dumps({"id": "X", "fs": 300.0}))
        rec = ingest.load_record(p)
        assert rec.fs == 300.0 and rec.id == "X"

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("")
        with pytest.raises(FormatError, match="empty"):
            ingest.load_record(p)

    def test_malformed_line_names_byte_offset(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1.0\nbogus\n")
        with pytest.raises(FormatError, match="byte offset 4"):
            ingest.load_record(p)

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    def test_non_finite_value_names_byte_offset(self, tmp_path, token):
        p = tmp_path / "r.csv"
        p.write_text(f"1.0\n{token}\n")
        with pytest.raises(FormatError, match="non-finite.*byte offset 4"):
            ingest.load_record(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(st.lists(st.sampled_from(
        ["1", "-2.5", "0", ".", "e", "3e", "1e400", "-1e-400", "nan",
         "inf", "-Infinity", "1_0", "0x1", "+", "-", " ", "\t", ",",
         "\r", "\u00e9"]), max_size=4).map("".join), max_size=8),
        trailing=st.booleans())
    def test_random_lines_raise_only_format_error(self, tmp_path, lines,
                                                  trailing):
        p = tmp_path / "r.csv"
        p.write_bytes(("\n".join(lines) + "\n" * trailing).encode("utf-8"))
        try:
            rec = ingest.load_record(p)
        except FormatError:
            return
        assert rec.samples.size and np.all(np.isfinite(rec.samples))


class TestLoadRaw16:
    def test_hand_decoded_fixture(self, tmp_path):
        # bytes 00 01 ff ff are little-endian int16 values 256 and -1;
        # at scale 0.001 that decodes to 0.256 and -0.001
        p = tmp_path / "r.raw16"
        p.write_bytes(b"\x00\x01\xff\xff")
        (tmp_path / "r.json").write_text(
            json.dumps({"id": "r", "fs": 200.0, "scale": 0.001}))
        rec = ingest.load_record(p)
        np.testing.assert_allclose(rec.samples, [0.256, -0.001], rtol=1e-12)

    def test_missing_sidecar(self, tmp_path):
        p = tmp_path / "r.raw16"
        p.write_bytes(b"\x00\x01")
        with pytest.raises(FormatError, match="sidecar"):
            ingest.load_record(p)

    def test_odd_byte_count(self, tmp_path):
        p = tmp_path / "r.raw16"
        p.write_bytes(b"\x00\x01\xff")
        (tmp_path / "r.json").write_text(
            json.dumps({"id": "r", "fs": 200.0, "scale": 1.0}))
        with pytest.raises(FormatError, match="byte offset 2"):
            ingest.load_record(p)

    def test_round_trip_within_one_quantization_step(self, tmp_path):
        rng = np.random.default_rng(0)
        rec = EcgRecord(id="rt", fs=250.0,
                        samples=rng.uniform(-3, 3, 500), scale=0.001)
        ingest.write_raw16(rec, tmp_path / "rt.raw16")
        back = ingest.load_record(tmp_path / "rt.raw16")
        assert back.fs == 250.0
        assert np.max(np.abs(back.samples - rec.samples)) <= rec.scale

    def test_int16_extremes_round_trip(self, tmp_path):
        rec = EcgRecord(id="edge", fs=250.0, samples=[3.2767, -3.2768],
                        scale=1e-4)
        ingest.write_raw16(rec, tmp_path / "edge.raw16")
        assert (tmp_path / "edge.raw16").read_bytes() == b"\xff\x7f\x00\x80"

    @pytest.mark.parametrize("value", [5.0, -5.0, 3.2768, -3.2769])
    def test_write_rejects_samples_outside_int16(self, tmp_path, value):
        rec = EcgRecord(id="big", fs=250.0, samples=[0.0, value], scale=1e-4)
        with pytest.raises(ValueError, match=f"big: a {abs(value):g} mV"):
            ingest.write_raw16(rec, tmp_path / "big.raw16")
        assert not (tmp_path / "big.raw16").exists()


class TestLoadMat5:
    def test_fixture_round_trip(self, tmp_path):
        p = tmp_path / "m.mat"
        write_minimal_mat(p, [10, -10])
        (tmp_path / "m.json").write_text(json.dumps({"fs": 200.0}))
        rec = ingest.load_record(p)
        assert rec.samples.size == 2
        assert rec.fs == 200.0
        np.testing.assert_allclose(rec.samples, [0.010, -0.010])

    def test_longer_vector(self, tmp_path):
        values = list(range(-50, 50))
        p = tmp_path / "m.mat"
        write_minimal_mat(p, values)
        rec = ingest.load_record(p)
        np.testing.assert_allclose(rec.samples, np.array(values) * 1e-3)

    def test_wrong_name_rejected(self, tmp_path):
        p = tmp_path / "m.mat"
        write_minimal_mat(p, [1, 2])
        raw = bytearray(p.read_bytes())
        raw[raw.find(b"val"):raw.find(b"val") + 3] = b"xyz"
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="'xyz'"):
            ingest.load_record(p)

    def test_compressed_rejected(self, tmp_path):
        p = tmp_path / "m.mat"
        write_minimal_mat(p, [1, 2])
        raw = bytearray(p.read_bytes())
        raw[128] = 15  # miCOMPRESSED element type
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="compressed"):
            ingest.load_record(p)

    def test_truncated_names_offset(self, tmp_path):
        p = tmp_path / "m.mat"
        p.write_bytes(b"short")
        with pytest.raises(FormatError, match="byte offset"):
            ingest.load_record(p)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_file_raises_only_format_error(self, tmp_path, data):
        p = tmp_path / "m.mat"
        write_minimal_mat(p, list(range(-20, 20)))
        raw = bytearray(p.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
        else:
            for _ in range(data.draw(st.integers(1, 4), label="edits")):
                at = data.draw(st.integers(0, len(raw) - 1), label="at")
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        p.write_bytes(bytes(raw))
        try:
            rec = ingest.load_record(p)
        except FormatError:
            return
        assert rec.samples.size and np.all(np.isfinite(rec.samples))


CHALLENGE_HEADER = ("A00001 1 300 {n} 05:05:15 1/05/2000\n"
                    "A00001.mat 16+24 1000/mV 16 0 -127 0 0 ECG\n")


class TestWfdbHeader:
    def test_300hz_header_round_trip(self, tmp_path):
        values = list(range(-300, 300))
        p = tmp_path / "A00001.mat"
        write_minimal_mat(p, values)
        (tmp_path / "A00001.hea").write_text(
            CHALLENGE_HEADER.format(n=len(values)))
        rec = ingest.load_record(p)
        assert rec.fs == 300.0
        assert rec.scale == 1e-3
        assert rec.duration == 2.0
        np.testing.assert_allclose(rec.samples, np.array(values) * 1e-3)

    @pytest.mark.parametrize("gain,scale", [("1000/mV", 1e-3),
                                            ("200(0)/mV", 5e-3),
                                            ("500", 2e-3),
                                            ("2.5(-12)", 0.4)])
    def test_gain_to_scale(self, tmp_path, gain, scale):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [100, -100])
        (tmp_path / "r.hea").write_text(
            f"# comment line\nr 1 250/1(0) 2\nr.mat 16 {gain} 16 0\n")
        rec = ingest.load_record(p)
        assert rec.fs == 250.0
        assert rec.scale == scale
        np.testing.assert_allclose(rec.samples, [100 * scale, -100 * scale])

    def test_header_without_gain_or_length(self, tmp_path):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [7, 8, 9])
        (tmp_path / "r.hea").write_text("r 1 360\nr.mat 16\n")
        rec = ingest.load_record(p)
        assert rec.fs == 360.0
        assert rec.scale == ingest.DEFAULT_MAT_SCALE

    def test_sidecar_takes_precedence(self, tmp_path):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [1, 2])
        (tmp_path / "r.hea").write_text("r 1 300 2\nr.mat 16 200/mV\n")
        (tmp_path / "r.json").write_text(json.dumps({"fs": 128.0}))
        rec = ingest.load_record(p)
        assert rec.fs == 128.0
        assert rec.scale == 5e-3  # the sidecar gives no scale

    def test_no_header_keeps_defaults(self, tmp_path):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [1, 2])
        rec = ingest.load_record(p)
        assert rec.fs == ingest.DEFAULT_FS
        assert rec.scale == ingest.DEFAULT_MAT_SCALE

    @pytest.mark.parametrize("text,match", [
        ("", "record line"),
        ("r 1\nr.mat 16 1000/mV\n", "record line"),
        ("r 2 300 2\nr.mat 16\nr.mat 16\n", "one signal"),
        ("r 1 300 2\n", "one signal"),
        ("r one 300 2\nr.mat 16\n", "signal count"),
        ("r 1 fast 2\nr.mat 16\n", "sampling frequency"),
        ("r 1 nan 2\nr.mat 16\n", "sampling frequency"),
        ("r 1 -300 2\nr.mat 16\n", "sampling frequency"),
        ("r 1 0 2\nr.mat 16\n", "sampling frequency"),
        ("r 1 300 2.5\nr.mat 16\n", "sample count"),
        ("r 1 300 3\nr.mat 16\n", "declares 3 samples"),
        ("r 1 300 2\nr.mat 16 0/mV\n", "gain"),
        ("r 1 300 2\nr.mat 16 inf/mV\n", "gain"),
        ("r 1 300 2\nr.mat 16 1e-320/mV\n", "too small"),
        ("r 1 300 2\nr.mat 16 1000/uV\n", "units"),
        ("r 1 3\u00e900 2\nr.mat 16\n", "ASCII"),
    ])
    def test_malformed_fields(self, tmp_path, text, match):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [1, 2])
        (tmp_path / "r.hea").write_bytes(text.encode("utf-8"))
        with pytest.raises(FormatError, match=match):
            ingest.load_record(p)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.one_of(
        st.text(max_size=80),
        st.lists(st.sampled_from(["r", "1", "2", "300", "1000/mV", "200(0)",
                                  "/", "(", "-1", "0", "1e999", "nan",
                                  " ", "\n", "#", "r.mat", "16"]),
                 max_size=20).map("".join)))
    def test_random_header_raises_only_format_error(self, tmp_path, text):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [1, 2])
        (tmp_path / "r.hea").write_bytes(text.encode("utf-8"))
        try:
            rec = ingest.load_record(p)
        except FormatError:
            return
        assert rec.fs > 0 and np.all(np.isfinite(rec.samples))


class TestSidecarRules:
    """Sidecars get the checks WFDB headers get; each failure names it."""

    @pytest.mark.parametrize("ext,text,match", [
        ("csv", '{"fs": NaN}', "fs nan"),
        ("csv", '{"fs": 1e999}', "fs inf"),
        ("csv", '{"fs": -300}', "fs -300"),
        ("csv", '{"fs": true}', "fs True"),
        ("csv", '{"fs": "fast"}', "fs 'fast'"),
        ("csv", '{"fs": 300, "id": 7}', "id 7"),
        ("csv", "[1, 2]", "JSON object"),
        ("csv", '{"fs": 300', "not valid JSON"),
        ("csv", b'{"id": "\xff"}', "not valid JSON"),
        ("raw16", '{"id": "r", "fs": 200, "scale": 0}', "scale 0"),
        ("raw16", '{"fs": 200, "scale": 1}', "missing id"),
        ("raw16", '{"id": "r", "fs": 200}', "missing scale"),
        ("raw16", "{}", "missing id, fs, scale"),
        ("mat", '{"scale": 1e999}', "scale inf"),
        ("mat", '{"fs": [300]}', r"fs \[300\]"),
    ])
    def test_bad_sidecar_raises_format_error(self, tmp_path, ext, text,
                                             match):
        path = tmp_path / f"r.{ext}"
        if ext == "csv":
            path.write_text("0.5\n")
        elif ext == "raw16":
            path.write_bytes(b"\x00\x01")
        else:
            write_minimal_mat(path, [1, 2])
        sidecar = tmp_path / "r.json"
        if isinstance(text, bytes):
            sidecar.write_bytes(text)
        else:
            sidecar.write_text(text)
        with pytest.raises(FormatError, match=match) as err:
            ingest.load_record(path)
        assert "r.json" in str(err.value)


class TestLabels:
    def test_symbols(self, tmp_path):
        p = tmp_path / "REFERENCE.csv"
        p.write_text("A00001,N\nA00002,~\nA00003,A\nA00004,O\n")
        labels = ingest.load_labels(p)
        assert labels["A00001"] == EcgClass.Normal
        assert labels["A00002"] == EcgClass.Noise
        assert labels["A00003"] == EcgClass.AF
        assert labels["A00004"] == EcgClass.Other

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("A1,N\nA1,O\n")
        with pytest.raises(FormatError, match="line 2"):
            ingest.load_labels(p)

    def test_unknown_symbol_names_line(self, tmp_path):
        p = tmp_path / "l.csv"
        p.write_text("A1,N\nA2,Q\n")
        with pytest.raises(FormatError, match="line 2"):
            ingest.load_labels(p)


class TestSynth:
    def test_peak_count_60bpm(self):
        rec, peaks = ingest.synth_ecg(SynthSpec(duration=30.0, bpm=60.0))
        expected = int(30.0 * 60.0 / 60.0)
        assert abs(len(peaks) - expected) <= 1
        # 60 bpm on the 200 Hz grid puts peaks exactly 1 s apart
        assert np.all(np.diff(peaks) == 200)

    def test_apex_amplitude(self):
        rec, peaks = ingest.synth_ecg(
            SynthSpec(duration=30.0, bpm=60.0, amplitude=1.0))
        assert rec.samples.max() == 1.0
        assert np.all(rec.samples[peaks] == 1.0)

    def test_same_seed_bit_identical(self):
        spec = SynthSpec(duration=10.0, bpm=75.0, noise_sigma=0.1, seed=42)
        a, _ = ingest.synth_ecg(spec)
        b, _ = ingest.synth_ecg(spec)
        assert np.array_equal(a.samples, b.samples)

    def test_count_across_rates(self):
        for bpm in (40.0, 55.0, 120.0, 180.0):
            _, peaks = ingest.synth_ecg(SynthSpec(duration=30.0, bpm=bpm))
            assert abs(len(peaks) - int(30.0 * bpm / 60.0)) <= 1

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SynthSpec(duration=0.0, bpm=60.0)
        with pytest.raises(ValueError):
            SynthSpec(duration=10.0, bpm=60.0, noise_sigma=-0.1)


class TestRecordInvariants:
    def test_rejects_bad_fs(self):
        with pytest.raises(ValueError):
            EcgRecord(id="x", fs=0.0, samples=np.ones(4))

    @pytest.mark.parametrize("fs", [np.nan, np.inf])
    def test_rejects_non_finite_fs(self, fs):
        with pytest.raises(ValueError, match="finite"):
            EcgRecord(id="x", fs=fs, samples=np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EcgRecord(id="x", fs=200.0, samples=np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EcgRecord(id="x", fs=200.0, samples=np.array([1.0, np.nan]))


class TestFsSource:
    """Every loader says where the rate came from."""

    def test_given(self):
        assert EcgRecord(id="x", fs=300.0, samples=np.ones(4)).fs_source \
            == "given"

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError, match="fs_source"):
            EcgRecord(id="x", fs=300.0, samples=np.ones(4), fs_source="guess")

    @pytest.mark.parametrize("sidecar,source", [
        (None, "default"), ({"id": "X"}, "default"),
        ({"id": "X", "fs": 300.0}, "sidecar")])
    def test_csv(self, tmp_path, sidecar, source):
        p = tmp_path / "r.csv"
        p.write_text("0.5\n")
        if sidecar is not None:
            (tmp_path / "r.json").write_text(json.dumps(sidecar))
        assert ingest.load_record(p).fs_source == source

    def test_raw16(self, tmp_path):
        rec = EcgRecord(id="R", fs=250.0, samples=np.ones(4), scale=1e-3)
        ingest.write_raw16(rec, tmp_path / "r.raw16")
        assert ingest.load_record(tmp_path / "r.raw16").fs_source == "sidecar"

    @pytest.mark.parametrize("header,sidecar,fs,source", [
        (None, None, ingest.DEFAULT_FS, "default"),
        ("r 1 300 2\nr.mat 16 1000/mV\n", None, 300.0, "header"),
        ("r 1 300 2\nr.mat 16 1000/mV\n", {"fs": 128.0}, 128.0, "sidecar"),
        (None, {"scale": 1e-3}, ingest.DEFAULT_FS, "default")])
    def test_mat5(self, tmp_path, header, sidecar, fs, source):
        p = tmp_path / "r.mat"
        write_minimal_mat(p, [1, 2])
        if header is not None:
            (tmp_path / "r.hea").write_text(header)
        if sidecar is not None:
            (tmp_path / "r.json").write_text(json.dumps(sidecar))
        rec = ingest.load_record(p)
        assert (rec.fs, rec.fs_source) == (fs, source)
