"""The benchmark's own tests: every output check can fail, every workload
finishes at a tiny run length, and the benchmark refuses to run without
the program's sources.

    python3 perfbench/selftest.py

Run from the repository root; exits non-zero if any test fails. Each
corrupted output is the kind of fault the check exists for: shifted peaks,
a flipped gate, an out-of-range pixel, a perturbed coefficient, logit or
gradient, a diverging loss.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import envinfo

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
envinfo.set_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import cohort  # noqa: E402
import workloads  # noqa: E402
from ecgscalo import classifier, ingest, pipeline  # noqa: E402

SEED = 7


@functools.cache
def _fixture():
    """The written cohort with the program's outputs for it."""
    work = Path(tempfile.mkdtemp(dir=_workdir()))
    records = cohort.write_cohort(work, SEED)
    cfg, wavelet = workloads._frontend_tables()
    outputs = {}
    for rec in records:
        record = ingest.load_record(rec.path)
        stages = pipeline.run_record(record, cfg, wavelet)
        outputs[rec.name] = (stages, pipeline.network_input(stages.image, cfg))
    ctx = workloads.Context(seed=SEED, seconds=0.0, workdir=work,
                            records=records, import_s=0.0)
    return ctx, cfg, wavelet, outputs


def _workdir() -> Path:
    path = HERE / "work"
    path.mkdir(exist_ok=True)
    return path


def _one(kind: str):
    ctx, _, _, outputs = _fixture()
    rec = next(r for r in ctx.records if r.kind == kind)
    return rec, outputs[rec.name]


def test_peaks_check_catches_shifted_peaks():
    ctx, _, _, outputs = _fixture()
    pairs = [(r.peaks, outputs[r.name][0].peaks.indices)
             for r in ctx.records if r.kind in workloads.LOW_NOISE_KINDS]
    assert checks.check_peaks(pairs, cohort.FS) == []
    shift = int(2 * checks.PEAK_TOLERANCE_S * cohort.FS)
    assert checks.check_peaks([(t, d + shift) for t, d in pairs], cohort.FS)
    dropped = [(t, d[::2]) for t, d in pairs]
    assert checks.check_peaks(dropped, cohort.FS)


def test_gate_check_catches_flipped_gate():
    ctx, _, _, outputs = _fixture()
    for rec in ctx.records:
        gated = outputs[rec.name][0].feature.is_noise_gated
        assert checks.check_gate(rec.name, rec.true_count, rec.duration,
                                 gated) == []
        assert checks.check_gate(rec.name, rec.true_count, rec.duration,
                                 not gated)
    kinds = {r.kind for r in ctx.records
             if outputs[r.name][0].feature.is_noise_gated}
    assert kinds == {"fast", "slow"}, kinds


def test_input_and_image_checks_catch_bad_pixels():
    rec, (stages, x) = _one("clean")
    assert checks.check_input(rec.name, x, False) == []
    assert checks.check_image(rec.name, stages.image.pixels, False) == []
    for bad in (x * 1.5, np.where(x == x.max(), np.nan, x), x[:, :-1]):
        assert checks.check_input(rec.name, bad, False)
    assert checks.check_input(rec.name, x, True)  # gated must be zero
    dim = np.minimum(stages.image.pixels, 254)
    assert checks.check_image(rec.name, dim, False)
    gated_rec, (gated_stages, gated_x) = _one("fast")
    assert checks.check_input(gated_rec.name, gated_x, True) == []
    assert checks.check_image(gated_rec.name, gated_stages.image.pixels,
                              True) == []
    assert checks.check_image(gated_rec.name, gated_stages.image.pixels + 1,
                              True)


def test_cwt_check_catches_a_perturbed_coefficient():
    rec, (stages, _) = _one("clean")
    _, _, wavelet, _ = _fixture()
    coeffs = stages.scalo.coeffs.copy()
    args = (stages.feature.samples, coeffs, stages.scalo.scales, [5, 40],
            [100, 700], wavelet.psi, wavelet.resolution, stages.scalo.fs)
    assert checks.check_cwt(rec.name, *args) == []
    coeffs[40, 700] *= 1 + 1e-6
    assert checks.check_cwt(rec.name, *args)


def test_label_check_catches_a_perturbed_logit():
    ctx, cfg, _, outputs = _fixture()
    xs = [outputs[ctx.records[i].name][1] for i in workloads.TRAIN_PICK]
    model = workloads._label_model(ctx, cfg, xs)
    classifier.save_model(model, ctx.workdir / "model.bin")
    printed = {}
    for rec in ctx.records:
        logits = checks.reference_logits(
            model.params, model.config.stage_widths,
            model.config.blocks_per_stage, outputs[rec.name][1])
        printed[rec.name] = workloads._predict_cli(rec.path,
                                                   ctx.workdir / "model.bin")
        assert checks.check_label(rec.name, printed[rec.name], logits,
                                  "NAO~") == []
    assert len(set(printed.values())) >= 3, printed  # labels follow inputs
    symbol = printed[rec.name]  # the last record, whose logits are at hand
    runner_up = int(np.argsort(logits)[-2])
    bumped = logits.copy()
    bumped[runner_up] += 2 * (logits.max() - logits[runner_up]) + 1e-3
    assert checks.check_label(rec.name, symbol, bumped, "NAO~")
    wrong = "NAO~"[("NAO~".index(symbol) + 1) % 4]
    assert checks.check_label(rec.name, wrong, logits, "NAO~")


def test_gradient_check_catches_a_perturbed_gradient():
    ctx, cfg, _, outputs = _fixture()
    xs = [outputs[ctx.records[i].name][1] for i in workloads.TRAIN_PICK]
    dataset = workloads._train_dataset(ctx, xs)
    captured = []
    model, _, losses = workloads._train_round(ctx, cfg, dataset, 2,
                                              capture=captured)
    assert checks.check_losses("training", losses) == []
    params, batch, labels, grads = captured[1]
    assert workloads._gradient_check("step 2", model, params, batch, labels,
                                     grads, SEED) == []
    scaled = {k: 1.01 * g for k, g in grads.items()}
    assert workloads._gradient_check("step 2", model, params, batch, labels,
                                     scaled, SEED)
    one_off = dict(grads)
    one_off["s0b1.conv2.w"] = grads["s0b1.conv2.w"] + 1e-3
    assert workloads._gradient_check("step 2", model, params, batch, labels,
                                     one_off, SEED)


def test_loss_check_catches_divergence():
    assert checks.check_losses("t", [1.4, 1.3]) == []
    assert checks.check_losses("t", [1.4, 1.5])
    assert checks.check_losses("t", [1.4, float("nan")])
    assert checks.check_losses("t", [])


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _declared(section: str) -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench[section]]


def test_every_workload_finishes_at_a_tiny_run_length():
    for workload in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(workload, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"]
            assert result["correct"] and result["failed"] == 0, done.stderr
            assert result["attempted"] >= 1
            missing = set(_declared(section)) - set(result["metrics"])
            assert not missing, (workload, trace, missing)


def test_refuses_to_run_without_the_program():
    bare = Path(tempfile.mkdtemp(dir=_workdir()))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "results",
                                                      "__pycache__"))
        done = _run("prepare_cohort", 0, cwd=bare)
        assert done.returncode != 0
        assert "metrics" not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"PASS {name}")
            except Exception:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}\n{traceback.format_exc()}")
    finally:
        if _fixture.cache_info().currsize:
            shutil.rmtree(_fixture()[0].workdir, ignore_errors=True)
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
