"""The three workloads: what one operation is, how it is checked, and the
traced replay that splits it into per-module spans.

Every workload runs whole rounds of the same operations until the run
length is used up. The first round's outputs are checked against
independently derived answers (``checks``); every later round must repeat
them bit for bit. A traced run alternates untraced and traced rounds, so
its tracing overhead is the difference between the two in one process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ecgscalo import classifier, cli, dsp, ingest, pipeline, rpeak, scalogram
from ecgscalo.config import PipelineConfig

import checks
import cohort

now = time.perf_counter

CORPUS_RECORDS = 8528  # PhysioNet/CinC 2017 training set
BATCH = 16
STEPS_PER_ROUND = 3
PROBE_STEPS = 2  # train steps a traced run adds when its workload has none
SETUP_REPEATS = 5
TRAIN_SETUP_REPEATS = 3
SYMBOLS = "NAO~"  # class index order of the challenge
LOW_NOISE_KINDS = ("clean", "irreg")  # records scored for Se and PPV
CWT_ROWS, CWT_COLUMNS = 3, 6  # sampled coefficients per ungated record
LABEL_CHECKS = 12  # records per run whose printed label is re-derived
# the 16 training inputs: 6 regular, 4 irregular, 2 noisy, 4 gated records
TRAIN_PICK = (0, 1, 3, 5, 7, 9, 14, 15, 16, 18, 20, 22, 26, 27, 30, 31)
TRAIN_LABELS = {"clean": 0, "irreg": 1, "noisy": 2, "fast": 3, "slow": 3}
DETECTOR_FS = 200.0  # rate the detector resamples to before its filter chain
DETECTOR_TAIL_S = 0.4  # zero tail the detector appends before the chain
CONV_REPEATS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    workdir: Path
    records: list  # cohort.Record
    import_s: float


@dataclass
class Outcome:
    """Timed operations of one run plus everything the checks found."""

    latencies: list = field(default_factory=list)  # s per completed operation
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    samples_per_op: int = 1
    corpus_ops: int = CORPUS_RECORDS
    failures: list = field(default_factory=list)  # failed output checks
    errors: list = field(default_factory=list)  # operations that raised
    trace_overhead_ms: float | None = None  # traced minus untraced median
    not_measured: list = field(default_factory=list)


class Tracer:
    """Spans kept in memory as (name, seconds); summarised when the run ends."""

    def __init__(self):
        self.spans: list[tuple[str, float]] = []
        self.counts: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        start = now()
        try:
            yield
        finally:
            self.spans.append((name, now() - start))

    def add(self, name: str, seconds: float) -> None:
        self.spans.append((name, seconds))

    def medians_ms(self) -> dict[str, float]:
        by_name: dict[str, list[float]] = {}
        for name, seconds in self.spans:
            by_name.setdefault(name, []).append(seconds)
        return {name: 1000.0 * statistics.median(v)
                for name, v in by_name.items()}


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _repeat(fn, repeats: int):
    """Run ``fn`` several times; return its last result and median time."""
    times = []
    for _ in range(repeats):
        start = now()
        result = fn()
        times.append(now() - start)
    return result, statistics.median(times)


def _rounds(ctx: Context, tr: Tracer | None):
    """(round number, tracer of the round) until the run length is used.

    A traced run alternates untraced and traced rounds and runs at least
    one of each; the tracer is None in untraced rounds.
    """
    start = now()
    rnd = 0
    while rnd < (2 if tr else 1) or now() - start < ctx.seconds:
        yield rnd, (tr if rnd % 2 else None)
        rnd += 1


def _overhead(out: Outcome, traced_latencies) -> None:
    out.trace_overhead_ms = 1000.0 * (
        statistics.median(traced_latencies) - statistics.median(out.latencies))


# ---------------------------------------------------------------------------
# front end: record -> network input


def _frontend_traced(tr: Tracer, record, cfg, wavelet):
    """pipeline.run_record + network_input, one span per module call."""
    with tr.span("dsp.design"):
        cascade = dsp.design_butterworth_lowpass(
            cfg.butterworth.order, cfg.butterworth.cutoff_hz, record.fs)
    with tr.span("dsp.filter"):
        filtered = dsp.apply_filter(cascade, record.samples)
    with tr.span("rpeak.detect"):
        peaks = pipeline.detect(record, cfg, filtered)
    with tr.span("featurize.extract"):
        wave = pipeline.feature_wave(record, cfg, filtered, peaks)
    with tr.span("scalogram.cwt"):
        scalo = pipeline.feature_to_scalogram(wave, cfg, wavelet)
    with tr.span("scalogram.grayscale"):
        image = scalogram.to_grayscale(scalo)
    with tr.span("pipeline.network_input"):
        x = pipeline.network_input(image, cfg)
    return filtered, peaks, wave, x


def _chain_replay(tr: Tracer, record, filtered, cfg) -> None:
    """Time rpeak.pt_chain on the input the detector gives it: the filtered
    record resampled to 200 Hz plus its zero tail. Runs outside the
    operation, so it does not count toward the tracing overhead."""
    n = int(round(filtered.size * DETECTOR_FS / record.fs))
    x = np.interp(np.arange(n) / DETECTOR_FS,
                  np.arange(filtered.size) / record.fs, filtered)
    x = np.concatenate([x, np.zeros(int(round(DETECTOR_TAIL_S * DETECTOR_FS)))])
    with tr.span("rpeak.chain"):
        rpeak.pt_chain(x, DETECTOR_FS, cfg.detector.integration_window)


def _count(counts: dict, peaks, wave) -> None:
    counts["records"] = counts.get("records", 0) + 1
    counts["rpeak.peaks"] = counts.get("rpeak.peaks", 0) + int(peaks.count)
    counts["featurize.gated"] = (counts.get("featurize.gated", 0)
                                 + int(wave.is_noise_gated))


def _settle_counts(out: Outcome, tr: Tracer, counts: dict) -> None:
    """Counts of one round; every traced round must repeat them exactly."""
    if tr.counts and tr.counts != counts:
        out.failures.append(f"per-round counts changed: {tr.counts} then "
                            f"{counts}")
    tr.counts = counts


def _check_stages(out: Outcome, ctx: Context, rec, record, stages, x,
                  wavelet) -> None:
    gated = stages.feature.is_noise_gated
    out.failures += checks.check_gate(rec.name, rec.true_count, rec.duration,
                                      gated)
    out.failures += checks.check_input(rec.name, x, gated)
    out.failures += checks.check_image(rec.name, stages.image.pixels, gated)
    if record.fs != cohort.FS:
        out.failures.append(f"{rec.name}: loaded at {record.fs} Hz, "
                            f"written at {cohort.FS} Hz")
    if not gated:
        rng = np.random.default_rng([ctx.seed, int(rec.name[1:])])
        coeffs = stages.scalo.coeffs
        rows = rng.choice(coeffs.shape[0], CWT_ROWS, replace=False)
        cols = rng.choice(coeffs.shape[1], CWT_COLUMNS, replace=False)
        out.failures += checks.check_cwt(
            rec.name, stages.feature.samples, coeffs, stages.scalo.scales,
            rows, cols, wavelet.psi, wavelet.resolution, stages.scalo.fs)


def _frontend_tables(tracer=None):
    cfg = PipelineConfig()
    with _span(tracer, "scalogram.build_db4"):
        wavelet = scalogram.build_db4(cfg.scalogram.iterations)
    return cfg, wavelet


def prepare_cohort(ctx: Context, tr: Tracer | None) -> Outcome:
    """One operation: a .mat record read and turned into its network input."""
    out = Outcome()
    (cfg, wavelet), setup = _repeat(lambda: _frontend_tables(tr),
                                    SETUP_REPEATS)
    out.setup_s = ctx.import_s + setup
    first: dict[str, tuple] = {}
    traced = []
    for rnd, rt in _rounds(ctx, tr):
        counts: dict = {}
        for rec in ctx.records:
            out.attempted += 1
            start = now()
            try:
                if rt:
                    with rt.span("ingest.load"):
                        record = ingest.load_record(rec.path)
                    filtered, peaks, wave, x = _frontend_traced(
                        rt, record, cfg, wavelet)
                else:
                    record = ingest.load_record(rec.path)
                    stages = pipeline.run_record(record, cfg, wavelet)
                    x = pipeline.network_input(stages.image, cfg)
                    peaks = stages.peaks
            except Exception as exc:  # a failed operation, not a crash
                out.failed += 1
                out.errors.append(f"{rec.name}: {exc!r}")
                continue
            (traced if rt else out.latencies).append(now() - start)
            if rt:
                _chain_replay(rt, record, filtered, cfg)
                _count(counts, peaks, wave)
            if rt is None and rec.name not in first:
                _check_stages(out, ctx, rec, record, stages, x, wavelet)
                first[rec.name] = (x, peaks.indices)
            elif rec.name in first and not (
                    np.array_equal(x, first[rec.name][0])
                      and np.array_equal(peaks.indices, first[rec.name][1])):
                out.failures.append(f"{rec.name}: round {rnd} output differs "
                                    f"from round 0")
        if rnd == 0:
            out.failures += checks.check_peaks(
                [(r.peaks, first[r.name][1]) for r in ctx.records
                 if r.kind in LOW_NOISE_KINDS and r.name in first], cohort.FS)
        if rt:
            _settle_counts(out, rt, counts)
    if tr:
        _overhead(out, traced)
        xs = [first[ctx.records[i].name][0] for i in TRAIN_PICK]
        model = _probe_load_forward(tr, ctx, cfg, xs)
        _train_round(ctx, cfg, _train_dataset(ctx, xs), PROBE_STEPS, tr)
        _conv_replay(out, tr, model, xs)
    return out


# ---------------------------------------------------------------------------
# label_one: the `ecgscalo predict RECORD MODEL` command, in process


def _label_model(ctx: Context, cfg, xs):
    """The default-config network with its head standardised on the ungated
    inputs ``xs``: each logit has mean 0 and unit spread over them.

    Freshly initialised, every record's pooled features are nearly the same,
    so the head bias alone would pick one label for every record. After the
    standardisation the label depends on the input, which is what the label
    check needs to see.
    """
    model = classifier.init_model(cfg.network, ctx.seed)
    # one input at a time, so that the run's peak RSS stays that of predict
    logits = np.concatenate([classifier.forward(model, x[None, None])
                             for x in xs if np.any(x)])
    mean, spread = logits.mean(axis=0), logits.std(axis=0)
    model.params["head.w"] /= spread[:, None]
    model.params["head.b"] = (model.params["head.b"] - mean) / spread
    return model


def _predict_cli(path, model_path) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["predict", str(path), str(model_path)])
    if code != 0:
        raise RuntimeError(f"predict exited {code}: {stderr.getvalue()}")
    return stdout.getvalue().strip()


def _predict_traced(tr: Tracer, path, model_path):
    """cmd_predict's calls in its order, one span per module call; returns
    the symbol and the front-end outputs."""
    cfg = PipelineConfig()
    with tr.span("ingest.load"):
        record = ingest.load_record(path)
    with tr.span("classifier.load_model"):
        model = classifier.load_model(model_path)
    with tr.span("scalogram.build_db4"):
        wavelet = scalogram.build_db4(cfg.scalogram.iterations)
    filtered, peaks, wave, x = _frontend_traced(tr, record, cfg, wavelet)
    with tr.span("classifier.forward"):
        cls = classifier.predict(model, x)
    return SYMBOLS[int(cls)], (record, filtered, peaks, wave)


def label_one(ctx: Context, tr: Tracer | None) -> Outcome:
    """One operation: one `predict` call, checkpoint load to printed label."""
    out = Outcome()
    cfg, wavelet = _frontend_tables()
    xs = [pipeline.record_to_input(ingest.load_record(ctx.records[i].path),
                                   cfg, wavelet) for i in TRAIN_PICK]
    model = _label_model(ctx, cfg, xs)
    model_path = ctx.workdir / "model.bin"
    # every predict call loads its own tables and model, so writing the
    # checkpoint is the only program-side set-up
    _, out.setup_s = _repeat(
        lambda: classifier.save_model(model, model_path), SETUP_REPEATS)
    out.setup_s += ctx.import_s
    rng = np.random.default_rng([ctx.seed, 2])
    sampled = set(rng.choice(len(ctx.records), LABEL_CHECKS, replace=False))
    first: dict[str, str] = {}
    traced = []
    for rnd, rt in _rounds(ctx, tr):
        counts: dict = {}
        for i, rec in enumerate(ctx.records):
            out.attempted += 1
            start = now()
            try:
                if rt:
                    symbol, stages = _predict_traced(rt, rec.path, model_path)
                else:
                    symbol = _predict_cli(rec.path, model_path)
            except Exception as exc:  # a failed operation, not a crash
                out.failed += 1
                out.errors.append(f"{rec.name}: {exc!r}")
                continue
            (traced if rt else out.latencies).append(now() - start)
            if rt:
                record, filtered, peaks, wave = stages
                _chain_replay(rt, record, filtered, cfg)
                _count(counts, peaks, wave)
            if rec.name in first:
                if symbol != first[rec.name]:
                    out.failures.append(f"{rec.name}: round {rnd} printed "
                                        f"{symbol!r}, round 0 "
                                        f"{first[rec.name]!r}")
                continue
            first[rec.name] = symbol
            if symbol not in SYMBOLS:
                out.failures.append(f"{rec.name}: printed {symbol!r}")
            elif i in sampled:
                x = pipeline.record_to_input(ingest.load_record(rec.path), cfg)
                logits = checks.reference_logits(
                    model.params, model.config.stage_widths,
                    model.config.blocks_per_stage, x)
                out.failures += checks.check_label(rec.name, symbol, logits,
                                                   SYMBOLS)
        if rt:
            _settle_counts(out, rt, counts)
    if tr:
        _overhead(out, traced)
        _train_round(ctx, cfg, _train_dataset(ctx, xs), PROBE_STEPS, tr)
        _conv_replay(out, tr, model, xs)
    return out


# ---------------------------------------------------------------------------
# train_steps: classifier.train on the default network at batch 16


def _train_dataset(ctx: Context, xs):
    return [(x, TRAIN_LABELS[ctx.records[i].kind])
            for i, x in zip(TRAIN_PICK, xs)]


def _train_setup(ctx: Context, tr: Tracer | None):
    """Tables and the 16 network inputs that training consumes."""
    cfg, wavelet = _frontend_tables(tr)
    counts: dict = {}
    xs = []
    for i in TRAIN_PICK:
        path = ctx.records[i].path
        if tr:
            with tr.span("ingest.load"):
                record = ingest.load_record(path)
            filtered, peaks, wave, x = _frontend_traced(tr, record, cfg,
                                                        wavelet)
            _chain_replay(tr, record, filtered, cfg)
            _count(counts, peaks, wave)
        else:
            x = pipeline.record_to_input(ingest.load_record(path), cfg,
                                         wavelet)
        xs.append(x)
    return cfg, xs, counts


def _train_round(ctx: Context, cfg, dataset, steps: int,
                 tr: Tracer | None = None, capture: list | None = None):
    """One classifier.train call of ``steps`` epochs. An epoch of 16
    samples is one SGD step, so the on_epoch callback marks the end of
    every step. With a tracer or a capture list, calls to loss_and_grad go
    through a wrapper that times them or keeps (parameters, batch, labels,
    gradients) of each step."""
    stamps, losses, lags = [], [], []

    def on_epoch(_epoch, loss):
        stamps.append(now())
        losses.append(loss)

    real = classifier.loss_and_grad

    def spy(model, batch, labels):
        start = now()
        loss, grads = real(model, batch, labels)
        lags.append(now() - start)
        if capture is not None:
            capture.append(({k: v.copy() for k, v in model.params.items()},
                            batch, labels, grads))
        return loss, grads

    tcfg = dataclasses.replace(cfg.training, batch_size=BATCH, epochs=steps,
                               seed=ctx.seed)
    if tr or capture is not None:
        classifier.loss_and_grad = spy
    try:
        start = now()
        model = classifier.train(dataset, cfg.network, tcfg, on_epoch=on_epoch)
    finally:
        classifier.loss_and_grad = real
    step_times = list(np.diff([start] + stamps))
    if tr:
        for step, lag in zip(step_times, lags):
            tr.add("classifier.loss_and_grad", lag)
            tr.add("classifier.update", step - lag)
    return model, step_times, losses


def _gradient_check(label: str, model, params, batch, labels, grads,
                    seed: int) -> list[str]:
    """The gradients a step used against a central difference of the loss
    along one random unit direction in parameter space.

    The direction leaves parameters that are exactly zero alone. A gated
    record's all-zero input puts every unit whose bias is exactly zero (all
    of them at step 1, dead channels later) exactly on its ReLU kink, where
    the loss has only one-sided slopes; weights cannot move those units, so
    along this direction the loss is smooth.
    """
    rng = np.random.default_rng([seed, 3])
    direction = {k: rng.standard_normal(v.shape) * (v != 0)
                 for k, v in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}

    def loss_at(t):
        moved = dataclasses.replace(
            model, params={k: params[k] + t * direction[k] for k in params})
        return checks.mean_cross_entropy(classifier.forward(moved, batch),
                                         labels)

    return checks.check_gradient(label, grads, loss_at, direction)


def train_steps(ctx: Context, tr: Tracer | None) -> Outcome:
    """One operation: one SGD step of the real training loop."""
    out = Outcome(samples_per_op=BATCH,
                  corpus_ops=math.ceil(CORPUS_RECORDS / BATCH))
    (cfg, xs, counts), out.setup_s = _repeat(lambda: _train_setup(ctx, tr),
                                             TRAIN_SETUP_REPEATS)
    out.setup_s += ctx.import_s
    if tr:
        tr.counts = counts
    dataset = _train_dataset(ctx, xs)
    captured: list = []
    first_losses = None
    traced = []
    for rnd, rt in _rounds(ctx, tr):
        out.attempted += STEPS_PER_ROUND
        try:
            model, steps, losses = _train_round(
                ctx, cfg, dataset, STEPS_PER_ROUND, rt,
                captured if rnd == 0 else None)
        except Exception as exc:  # a failed operation, not a crash
            out.failed += STEPS_PER_ROUND
            out.errors.append(f"round {rnd}: {exc!r}")
            continue
        (traced if rt else out.latencies).extend(steps)
        if first_losses is None:
            first_losses = losses
            out.failures += checks.check_losses("training", losses)
        elif losses != first_losses:
            out.failures.append(f"round {rnd} losses {losses} differ from "
                                f"round 0 {first_losses}")
    for step, (params, batch, labels, grads) in enumerate(captured, 1):
        out.failures += _gradient_check(f"step {step}", model, params, batch,
                                        labels, grads, ctx.seed)
    if tr:
        _overhead(out, traced)
        model = _probe_load_forward(tr, ctx, cfg, xs)
        _conv_replay(out, tr, model, xs)
    return out


# ---------------------------------------------------------------------------
# layer probes: classifier layers a workload does not exercise itself


def _probe_load_forward(tr: Tracer, ctx: Context, cfg, xs):
    """classifier.load_model and the batch-1 forward pass via predict."""
    path = ctx.workdir / "model.bin"
    classifier.save_model(classifier.init_model(cfg.network, ctx.seed), path)
    for _ in range(CONV_REPEATS):
        with tr.span("classifier.load_model"):
            model = classifier.load_model(path)
    for x in xs[:8]:
        with tr.span("classifier.forward"):
            classifier.predict(model, x)
    return model


def _conv_layers(model, batch):
    """(parameter name, input shape, stride) of every convolution, in the
    order one forward pass runs them."""
    names = {id(v): k[:-2] for k, v in model.params.items()
             if k.endswith(".w")}
    real = classifier._conv_forward
    seen = []

    def spy(x, w, b, stride, *args, **kwargs):
        seen.append((names[id(w)], x.shape, stride))
        return real(x, w, b, stride, *args, **kwargs)

    classifier._conv_forward = spy
    try:
        classifier.forward(model, batch)
    finally:
        classifier._conv_forward = real
    return seen


def _conv_replay(out: Outcome, tr: Tracer, model, xs) -> None:
    """Forward and backward time of each conv layer at batch 16, replayed
    through the classifier's conv primitives with that layer's shapes."""
    batch = np.stack(xs[:BATCH])[:, None]
    try:
        layers = _conv_layers(model, batch)
        rng = np.random.default_rng(4)
        for name, shape, stride in layers:
            w, b = model.params[f"{name}.w"], model.params[f"{name}.b"]
            x = rng.standard_normal(shape)
            for _ in range(CONV_REPEATS):
                with tr.span(f"classifier.{name}.fwd"):
                    y, cache = classifier._conv_forward(x, w, b, stride)
                dy = rng.standard_normal(y.shape)
                with tr.span(f"classifier.{name}.bwd"):
                    classifier._conv_backward(dy, cache)
    except (AttributeError, TypeError, ValueError, KeyError) as exc:
        out.not_measured.append(f"classifier.<conv>.fwd/bwd: {exc!r}")


WORKLOADS = {"prepare_cohort": prepare_cohort, "label_one": label_one,
             "train_steps": train_steps}
