"""In-process composition of the pipeline stages.

The CLI drives exactly these functions, so chaining the stage commands
through files produces byte-identical results to running the whole chain
in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ecgscalo import classifier, dsp, featurize, rpeak, scalogram
from ecgscalo.config import PipelineConfig
from ecgscalo.ingest import EcgRecord


@dataclass
class StageOutputs:
    """Everything one record produces on its way to the classifier."""

    peaks: rpeak.RPeaks
    feature: featurize.FeatureWave
    scalo: scalogram.Scalogram
    image: scalogram.GrayImage


def preprocess(record: EcgRecord, cfg: PipelineConfig) -> np.ndarray:
    """Butterworth low-pass of the raw samples."""
    cascade = dsp.design_butterworth_lowpass(
        cfg.butterworth.order, cfg.butterworth.cutoff_hz, record.fs)
    return dsp.apply_filter(cascade, record.samples)


def detect(record: EcgRecord, cfg: PipelineConfig,
           filtered: np.ndarray) -> rpeak.RPeaks:
    """R peaks of the record's ``filtered`` samples."""
    clean = EcgRecord(id=record.id, fs=record.fs, samples=filtered,
                      scale=record.scale)
    return rpeak.detect_rpeaks(clean, cfg.detector)


def feature_wave(record: EcgRecord, cfg: PipelineConfig,
                 filtered: np.ndarray,
                 peaks: rpeak.RPeaks | None = None) -> featurize.FeatureWave:
    """Feature wave of the record's ``filtered`` samples; the peaks are
    detected on them unless given."""
    if peaks is None:
        peaks = detect(record, cfg, filtered)
    return featurize.extract_feature_wave(
        filtered, peaks, cfg.feature_length, cfg.gate)


def feature_to_scalogram(wave: featurize.FeatureWave, cfg: PipelineConfig,
                         wavelet: scalogram.WaveletTable | None = None
                         ) -> scalogram.Scalogram:
    """db4 CWT at one step per sample: the wave has no sampling rate."""
    if wavelet is None:
        wavelet = scalogram.build_db4(cfg.scalogram.iterations)
    scales = np.arange(1, cfg.scalogram.num_scales + 1, dtype=np.float64)
    return scalogram.cwt(wave.samples, scales, wavelet, fs=1.0)


def run_record(record: EcgRecord, cfg: PipelineConfig,
               wavelet: scalogram.WaveletTable | None = None) -> StageOutputs:
    """Record -> filtered -> peaks -> feature wave -> scalogram -> image."""
    filtered = preprocess(record, cfg)
    peaks = detect(record, cfg, filtered)
    wave = feature_wave(record, cfg, filtered, peaks)
    scalo = feature_to_scalogram(wave, cfg, wavelet)
    image = scalogram.to_grayscale(scalo)
    return StageOutputs(peaks=peaks, feature=wave, scalo=scalo, image=image)


def network_input(image: scalogram.GrayImage,
                  cfg: PipelineConfig) -> np.ndarray:
    """The image as ``cfg.network`` reads it: pixels rescaled to [0, 1] and
    area-averaged onto its grid by the classifier's input gate."""
    return classifier.check_batch(cfg.network, image.pixels[None, None])[0, 0]


def record_to_input(record: EcgRecord, cfg: PipelineConfig,
                    wavelet: scalogram.WaveletTable | None = None
                    ) -> np.ndarray:
    return network_input(run_record(record, cfg, wavelet).image, cfg)
