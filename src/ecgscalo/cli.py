"""Command-line interface composing the pipeline stages.

Every command takes ``--config`` (JSON) and ``--seed`` (overrides the config
seed); all randomness flows from that seed, never from the environment. On
failure a single machine-readable line naming the failing stage goes to
stderr and the exit code is nonzero. A record whose sampling rate comes
from no sidecar or header gets one machine-readable warning line on stderr
naming it and the assumed rate; the exit code is unaffected.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from ecgscalo import (classifier, dsp, featurize, ingest, metrics, pipeline,
                      rpeak, scalogram)
from ecgscalo.config import PipelineConfig, load_config, save_config
from ecgscalo.ingest import CLASS_SYMBOLS, EcgClass


class StageError(Exception):
    def __init__(self, stage: str, original: Exception):
        super().__init__(f"{stage}: {original}")
        self.stage = stage
        self.original = original


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def _write_samples_csv(samples: np.ndarray, path) -> None:
    # repr round-trips float64 exactly, keeping file and in-process
    # pipelines byte-identical
    Path(path).write_text(
        "".join(f"{float(v)!r}\n" for v in samples), encoding="utf-8")


def _load_cfg(args) -> PipelineConfig:
    with _stage("config"):
        cfg = load_config(args.config) if args.config else PipelineConfig()
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
    return cfg


def _load_record(path, cfg: PipelineConfig, fmt=None) -> ingest.EcgRecord:
    """Load one record; say on stderr when its rate is only the default."""
    record = ingest.load_record(path, fmt, default_fs=cfg.fs_default)
    if record.fs_source == "default":
        print(json.dumps({"warning": {
            "stage": "ingest", "record": record.id,
            "message": f"no sidecar or header gives the sampling rate of "
                       f"{path}; assuming the default {record.fs:g} Hz"}}),
            file=sys.stderr)
    return record


def cmd_preprocess(args) -> int:
    """Raw record in, Butterworth-filtered csv (with fs sidecar) out."""
    cfg = _load_cfg(args)
    with _stage("ingest"):
        record = _load_record(args.input, cfg, args.format)
    with _stage("preprocess"):
        filtered = pipeline.preprocess(record, cfg)
        _write_samples_csv(filtered, args.output)
        sidecar = {"id": record.id, "fs": record.fs, "scale": 1.0}
        Path(args.output).with_suffix(".json").write_text(
            json.dumps(sidecar), encoding="utf-8")
    return 0


def cmd_detect(args) -> int:
    """Detect R peaks on the record as given (chained after preprocess)."""
    cfg = _load_cfg(args)
    with _stage("ingest"):
        record = _load_record(args.input, cfg, args.format)
    with _stage("detect"):
        peaks = pipeline.detect(record, cfg, filtered=record.samples)
        Path(args.output).write_text(
            "".join(f"{i}\n" for i in peaks.indices), encoding="utf-8")
        if args.taps:
            taps_dir = Path(args.taps)
            taps_dir.mkdir(parents=True, exist_ok=True)
            chain = rpeak.detection_chain(record,
                                          cfg.detector.integration_window)
            for name in ("bandpassed", "derivative", "squared", "integrated"):
                _write_samples_csv(getattr(chain, name),
                                   taps_dir / f"{record.id}.{name}.csv")
    return 0


def cmd_featurize(args) -> int:
    """Feature wave of the record as given; peaks come from --peaks or a
    fresh detection pass (both yield identical output)."""
    cfg = _load_cfg(args)
    with _stage("ingest"):
        record = _load_record(args.input, cfg, args.format)
    with _stage("featurize"):
        peaks = None
        if args.peaks:
            indices = [int(line) for line in
                       Path(args.peaks).read_text().split()]
            peaks = rpeak.RPeaks(indices=np.asarray(indices, dtype=np.int64),
                                 fs=record.fs)
        wave = pipeline.feature_wave(record, cfg, filtered=record.samples,
                                     peaks=peaks)
        _write_samples_csv(wave.samples, args.output)
        flag = {"id": record.id, "is_noise_gated": wave.is_noise_gated}
        Path(args.output).with_suffix(".json").write_text(
            json.dumps(flag), encoding="utf-8")
        print(json.dumps(flag))
    return 0


def cmd_scalogram(args) -> int:
    """Time-frequency diagram: full chain from a raw record, or just the
    transform of an existing feature-wave csv (--from-wave)."""
    cfg = _load_cfg(args)
    with _stage("scalogram"):
        if args.from_wave:
            values = [float(line) for line in
                      Path(args.input).read_text().split()]
            sidecar = Path(args.input).with_suffix(".json")
            gated = (json.loads(sidecar.read_text())["is_noise_gated"]
                     if sidecar.exists()
                     else not any(v != 0.0 for v in values))
            wave = featurize.FeatureWave(samples=np.asarray(values),
                                         is_noise_gated=gated)
            scalo = pipeline.feature_to_scalogram(wave, cfg)
            image = scalogram.to_grayscale(scalo)
        else:
            record = _load_record(args.input, cfg, args.format)
            out = pipeline.run_record(record, cfg)
            scalo, image = out.scalo, out.image
        if args.image_format == "pgm":
            scalogram.write_pgm(image, args.output)
        else:
            scalogram.write_f32(scalo, args.output)
    return 0


def _labelled_inputs(data_dir, labels_path, cfg: PipelineConfig):
    """Yield (8-bit diagram, label) for each record file in path order,
    holding one record at a time; the labels file is no record."""
    with _stage("ingest"):
        labels = ingest.load_labels(labels_path)
        skip = Path(labels_path).resolve()
        paths = sorted(p for p in Path(data_dir).iterdir()
                       if p.suffix.lower() in ingest.FORMATS
                       and p.resolve() != skip)
        if not paths:
            raise FileNotFoundError(f"no record files under {data_dir}")
    for path in paths:
        with _stage("ingest"):
            record = _load_record(path, cfg)
            if record.id not in labels:
                raise ValueError(f"record {record.id} has no label")
        with _stage("pipeline"):
            pixels = pipeline.run_record(record, cfg).image.pixels
        yield pixels, labels[record.id]


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    dataset = list(_labelled_inputs(args.data_dir, args.labels, cfg))
    with _stage("train"):
        model = classifier.train(
            dataset, cfg.network, cfg.training,
            on_epoch=lambda e, loss: print(f"epoch {e}: loss {loss:.6f}"))
        classifier.save_model(model, args.model_out)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    with _stage("eval"):
        model = classifier.load_model(args.model)
        preds, truth = [], []
        for x, label in _labelled_inputs(args.data_dir, args.labels, cfg):
            preds.append(classifier.predict(model, x))
            truth.append(label)
        cm = metrics.confusion(preds, truth)
        report = metrics.challenge_f1(cm)
        print(metrics.format_confusion(cm))

        def fmt(v):
            return "absent" if v is None else f"{v:.4f}"

        for c in EcgClass:
            print(f"{c.name}: precision {fmt(report.precision[c])}, "
                  f"recall {fmt(report.recall[c])}, "
                  f"F1 {fmt(report.f1[c])}")
        print(f"F1 mean3 {fmt(report.mean3)}, mean4 {fmt(report.mean4)}")
        if args.report_out:
            Path(args.report_out).write_text(report.to_json(),
                                             encoding="utf-8")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_cfg(args)
    with _stage("ingest"):
        record = _load_record(args.record, cfg, args.format)
    with _stage("predict"):
        model = classifier.load_model(args.model)
        cls = classifier.predict(model,
                                 pipeline.run_record(record, cfg).image.pixels)
        print(CLASS_SYMBOLS[cls])
    return 0


def cmd_config(args) -> int:
    with _stage("config"):
        cfg = PipelineConfig()
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        save_config(cfg, args.output)
    return 0


def cmd_dump_filter(args) -> int:
    """Debugging aid: designed and fixed filter coefficients as JSON."""
    cfg = _load_cfg(args)
    with _stage("dsp"):
        fs = args.fs if args.fs else cfg.fs_default
        cascade = dsp.design_butterworth_lowpass(
            cfg.butterworth.order, cfg.butterworth.cutoff_hz, fs)
        lp, hp = rpeak.pt_lowpass(), rpeak.pt_highpass()
        dump = {
            "butterworth": {
                "order": cfg.butterworth.order,
                "cutoff_hz": cfg.butterworth.cutoff_hz,
                "fs": fs,
                "gain": cascade.gain,
                "sections": cascade.sections.tolist(),
            },
            "qrs_lowpass": {"num": lp.num.tolist(), "den": lp.den.tolist()},
            "qrs_highpass": {"num": hp.num.tolist(), "den": hp.den.tolist()},
        }
        text = json.dumps(dump, indent=2)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            print(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ecgscalo",
        description="Single-lead ECG classification via wavelet scalograms")
    parser.add_argument("--config", help="pipeline config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)
    record_format = argparse.ArgumentParser(add_help=False)
    record_format.add_argument(
        "--format", choices=tuple(dict.fromkeys(ingest.FORMATS.values())))

    p = sub.add_parser("preprocess", parents=[record_format],
                       help="Butterworth-filter a record to csv")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("detect", parents=[record_format],
                       help="emit R-peak indices as csv")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--taps", help="directory for the four intermediate taps")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("featurize", parents=[record_format],
                       help="emit the feature wave as csv")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--peaks", help="reuse R-peak indices from a detect run")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("scalogram", parents=[record_format],
                       help="emit the time-frequency diagram")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--image-format", choices=("pgm", "f32"), default="pgm")
    p.add_argument("--from-wave", action="store_true",
                   help="input is a feature-wave csv, not a record")
    p.set_defaults(func=cmd_scalogram)

    p = sub.add_parser("train", help="full pipeline plus training")
    p.add_argument("data_dir")
    p.add_argument("labels")
    p.add_argument("model_out")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a model over a labelled directory")
    p.add_argument("data_dir")
    p.add_argument("labels")
    p.add_argument("model")
    p.add_argument("report_out", nargs="?")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[record_format],
                       help="print N/A/O/~ for one record")
    p.add_argument("record")
    p.add_argument("model")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("init-config", help="write the default config JSON")
    p.add_argument("output")
    p.set_defaults(func=cmd_config)

    p = sub.add_parser("dump-filter",
                       help="write filter coefficients as JSON for debugging")
    p.add_argument("output", nargs="?")
    p.add_argument("--fs", type=float, help="design rate (default from config)")
    p.set_defaults(func=cmd_dump_filter)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as err:
        print(json.dumps({"error": {"stage": err.stage,
                                    "message": str(err.original)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
