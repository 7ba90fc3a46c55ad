import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecgscalo import pipeline, scalogram
from ecgscalo.config import PipelineConfig
from ecgscalo.ingest import EcgRecord, SynthSpec, synth_ecg

def test_feature_wave_transform_steps_one_sample(db4_table):
    """Four resampled RR cycles have no sampling rate, so the transform
    steps one wave sample, whatever rate the loader assumes."""
    record, _ = synth_ecg(SynthSpec(duration=20.0, bpm=75.0, seed=4))
    cfg = PipelineConfig()
    wave = pipeline.feature_wave(record, cfg, pipeline.preprocess(record, cfg))
    assert not wave.is_noise_gated
    want = scalogram.cwt(wave.samples, np.arange(1.0, 65.0), db4_table, fs=1.0)
    for fs_default in (200.0, 300.0):
        cfg = PipelineConfig(fs_default=fs_default)
        got = pipeline.feature_to_scalogram(wave, cfg, db4_table)
        assert got.fs == 1.0
        np.testing.assert_array_equal(got.coeffs, want.coeffs)


FAMILIES = ("noise", "zeros", "constant", "spikes", "sine")


def family_samples(family, n, fs, amplitude, rng):
    """``n`` finite samples of one input family at ``amplitude``."""
    if family == "noise":
        return amplitude * rng.standard_normal(n)
    if family == "zeros":
        return np.zeros(n)
    if family == "constant":
        return np.full(n, amplitude)
    if family == "spikes":
        x = np.zeros(n)
        where = rng.choice(n, size=int(rng.integers(1, 200)), replace=False)
        x[where] = amplitude * rng.choice([-1.0, 1.0], size=where.size)
        return x
    hz = rng.uniform(0.5, 0.45 * fs)
    return amplitude * np.sin(2 * np.pi * hz * np.arange(n) / fs)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       fs=st.floats(200.0, 500.0),
       duration=st.floats(5.0, 60.0),
       exponent=st.sampled_from([-300, -150, -3, 0, 3, 150, 300]),
       seed=st.integers(0, 2**32 - 1))
def test_run_record_is_finite_or_raises_value_error(db4_table, family, fs,
                                                    duration, exponent,
                                                    seed):
    """Any finite record gives finite coefficients and a full-size 8-bit
    image, or a ValueError; never a NaN and never another exception."""
    cfg = PipelineConfig()
    rng = np.random.default_rng(seed)
    n = int(duration * fs)
    samples = family_samples(family, n, fs, 10.0 ** exponent, rng)
    record = EcgRecord(id="fuzz", fs=fs, samples=samples)
    try:
        out = pipeline.run_record(record, cfg, db4_table)
    except ValueError:
        return
    assert np.all(np.isfinite(out.scalo.coeffs))
    assert out.image.pixels.dtype == np.uint8
    assert out.image.pixels.shape == (cfg.scalogram.num_scales,
                                      cfg.feature_length)


def test_tiny_amplitude_record_keeps_its_diagram():
    """An amplitude scale that ingest admits never blacks out the diagram:
    at 1e-310 mV per unit the samples are subnormal."""
    record, _ = synth_ecg(SynthSpec(duration=20.0, bpm=72.0,
                                    noise_sigma=0.02, seed=5))
    cfg = PipelineConfig()
    want = pipeline.run_record(record, cfg).image.pixels
    tiny = EcgRecord(id=record.id, fs=record.fs,
                     samples=record.samples * 1e-310)
    np.testing.assert_array_equal(pipeline.run_record(tiny, cfg).image.pixels,
                                  want)


@pytest.mark.parametrize("factor", [1e300, 1e305, 1e306])
def test_huge_amplitude_record_keeps_its_diagram(factor):
    """The filter and the transform run at an exact power-of-two scale, so
    a record near the top of the float range (largest sample about 1.05e305
    at 1e305) neither overflows nor loses its diagram."""
    record, _ = synth_ecg(SynthSpec(duration=20.0, bpm=72.0,
                                    noise_sigma=0.02, seed=5))
    cfg = PipelineConfig()
    want = pipeline.run_record(record, cfg).image.pixels
    huge = EcgRecord(id=record.id, fs=record.fs,
                     samples=record.samples * factor)
    np.testing.assert_array_equal(pipeline.run_record(huge, cfg).image.pixels,
                                  want)
