import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from ecgscalo import (classifier, cli, ingest, metrics, pipeline, rpeak,
                      scalogram)
from ecgscalo.classifier import NetworkConfig, TrainConfig
from ecgscalo.config import (ButterworthConfig, DetectorConfig,
                             PipelineConfig, ScalogramConfig, load_config,
                             save_config)
from ecgscalo.ingest import EcgRecord, SynthSpec, synth_ecg


def small_config(epochs=30, lr=0.08, seed=3):
    """Desk-size pipeline: 16x256 scalograms into a 16x64 tiny network."""
    return PipelineConfig(
        feature_length=256,
        scalogram=ScalogramConfig(num_scales=16, iterations=8),
        network=NetworkConfig(stage_widths=(4, 8), blocks_per_stage=(1, 1),
                              input_height=16, input_width=64),
        training=TrainConfig(learning_rate=lr, momentum=0.9, batch_size=4,
                             epochs=epochs, seed=seed))


def write_dataset(tmp_path, n_normal=4, n_noise=4):
    """Synthetic raw16 records: beating hearts labelled N, flat lines ~."""
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    lines = []
    for i in range(n_normal):
        rec, _ = synth_ecg(SynthSpec(duration=20.0, bpm=60.0 + 5.0 * i,
                                     noise_sigma=0.02, seed=i))
        ingest.write_raw16(EcgRecord(id=f"A{i:03d}", fs=200.0,
                                     samples=rec.samples, scale=1e-4),
                           data / f"A{i:03d}.raw16")
        lines.append(f"A{i:03d},N")
    for i in range(n_noise):
        flat = EcgRecord(id=f"Z{i:03d}", fs=200.0,
                         samples=np.full(4000, 1e-4), scale=1e-4)
        ingest.write_raw16(flat, data / f"Z{i:03d}.raw16")
        lines.append(f"Z{i:03d},~")
    labels = tmp_path / "REFERENCE.csv"
    labels.write_text("".join(line + "\n" for line in lines))
    return data, labels


class TestConfig:
    def test_round_trip_exact(self, tmp_path):
        cfg = small_config()
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_default_round_trip(self, tmp_path):
        cfg = PipelineConfig()
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_seed_override_flows_to_training(self):
        cfg = small_config(seed=3).with_seed(99)
        assert cfg.training.seed == 99
        assert cfg == small_config(seed=99)

    def test_conflicting_seeds_fail_in_config_stage(self, tmp_path, capsys):
        """A file from before ``training.seed`` became the only seed."""
        fields = asdict(PipelineConfig())
        fields["seed"] = 5  # training.seed stays 0
        self.assert_config_stage_names(tmp_path, capsys, fields, "'seed'")

    def test_stride_key_fails_in_config_stage(self, tmp_path, capsys):
        fields = asdict(PipelineConfig())
        fields["scalogram"]["stride"] = 1
        self.assert_config_stage_names(tmp_path, capsys, fields, "'stride'")

    @pytest.mark.parametrize("section,key,value,name", [
        ("butterworth", "order", 6.5, "ButterworthConfig.order"),
        ("butterworth", "order", True, "ButterworthConfig.order"),
        ("butterworth", "cutoff_hz", "35", "ButterworthConfig.cutoff_hz"),
        ("network", "stage_widths", "abc", "NetworkConfig.stage_widths"),
        ("network", "stage_widths", [8, 16.5, 32],
         "NetworkConfig.stage_widths"),
        (None, "butterworth", 5, "PipelineConfig.butterworth"),
        (None, "feature_length", 1024.0, "PipelineConfig.feature_length"),
        ("butterworth", "order", 0, "order must be >= 1"),  # a bad value
        (None, "fs_default", float("nan"), "fs_default must be positive"),
        ("detector", "searchback_factor", -1.0, "searchback factor"),
        ("training", "momentum", 1.5, "momentum"),
        ("training", "learning_rate", float("inf"), "learning rate"),
    ])
    def test_bad_value_fails_in_config_stage(self, tmp_path, capsys,
                                             section, key, value, name):
        fields = asdict(PipelineConfig())
        (fields[section] if section else fields)[key] = value
        self.assert_config_stage_names(tmp_path, capsys, fields, name)

    @staticmethod
    def assert_config_stage_names(tmp_path, capsys, fields, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(fields))
        rc = cli.main(["--config", str(bad), "preprocess",
                       str(tmp_path / "in.csv"), str(tmp_path / "out.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["stage"] == "config"
        assert key in err["error"]["message"]

    def test_incompatible_dimensions_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            PipelineConfig(feature_length=100)  # not divisible by 256

    def test_bad_detector_and_gate_values_rejected(self):
        from ecgscalo.config import DetectorConfig, GateConfig
        with pytest.raises(ValueError):
            DetectorConfig(integration_window=0)
        with pytest.raises(ValueError):
            DetectorConfig(update_factor=0.0)
        with pytest.raises(ValueError):
            GateConfig(bpm_low=200.0, bpm_high=30.0)

    @pytest.mark.parametrize("make", [
        lambda: ScalogramConfig(num_scales=0),
        lambda: ScalogramConfig(iterations=3),
        lambda: ButterworthConfig(order=0),
        lambda: ButterworthConfig(cutoff_hz=0.0),
        lambda: ButterworthConfig(cutoff_hz=float("nan")),
        lambda: PipelineConfig(fs_default=float("nan")),
        lambda: DetectorConfig(refractory_s=float("nan")),
        lambda: DetectorConfig(init_window_s=float("nan")),
        lambda: TrainConfig(learning_rate=float("nan")),
        lambda: TrainConfig(learning_rate=float("inf")),
        lambda: DetectorConfig(searchback_factor=-1.0),
        lambda: DetectorConfig(searchback_factor=0.0),
        lambda: DetectorConfig(searchback_factor=float("nan")),
        lambda: DetectorConfig(searchback_factor=float("inf")),
        lambda: TrainConfig(momentum=float("nan")),
        lambda: TrainConfig(momentum=-0.5),
        lambda: TrainConfig(momentum=1.0),
        lambda: TrainConfig(momentum=1.5),
    ], ids=["no_scales", "coarse_wavelet", "order_0", "cutoff_0",
            "cutoff_nan", "fs_default_nan", "refractory_nan",
            "init_window_nan", "learning_rate_nan", "learning_rate_inf",
            "searchback_negative", "searchback_0", "searchback_nan",
            "searchback_inf", "momentum_nan", "momentum_negative",
            "momentum_1", "momentum_1_5"])
    def test_stage_configs_check_themselves(self, make):
        with pytest.raises(ValueError):
            make()

    def test_init_config_command(self, tmp_path):
        out = tmp_path / "default.json"
        assert cli.main(["init-config", str(out)]) == 0
        assert load_config(out) == PipelineConfig()

    def test_init_config_seed_override(self, tmp_path):
        out = tmp_path / "seeded.json"
        assert cli.main(["--seed", "99", "init-config", str(out)]) == 0
        cfg = load_config(out)
        assert cfg.training.seed == 99

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = small_config(epochs=0, seed=3)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=1, n_noise=1)
        model_path = tmp_path / "m.bin"
        assert cli.main(["--config", str(cfg_path), "--seed", "7", "train",
                         str(data), str(labels), str(model_path)]) == 0
        model = classifier.load_model(model_path)
        assert model.meta["seed"] == 7
        fresh = classifier.init_model(cfg.network, 7)
        assert all(np.array_equal(model.params[k], v)
                   for k, v in fresh.params.items())

    def test_dump_filter_to_stdout(self, tmp_path, capsys):
        assert cli.main(["dump-filter", str(tmp_path / "f.json")]) == 0
        assert cli.main(["dump-filter"]) == 0
        printed = capsys.readouterr().out
        assert printed == (tmp_path / "f.json").read_text() + "\n"

    def test_dump_filter_coefficients(self, tmp_path):
        out = tmp_path / "filters.json"
        assert cli.main(["dump-filter", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert len(dump["butterworth"]["sections"]) == 3  # order 6 -> 3 SOS
        assert dump["qrs_highpass"]["num"][16] == 32.0
        assert dump["qrs_highpass"]["num"][17] == -32.0
        assert dump["qrs_highpass"]["den"] == [1.0, -1.0]
        assert dump["qrs_lowpass"]["den"] == [1.0, -2.0, 1.0]


class TestStageChaining:
    def test_files_match_in_process_bytes(self, tmp_path):
        cfg = small_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        rec, _ = synth_ecg(SynthSpec(duration=20.0, bpm=72.0,
                                     noise_sigma=0.02, seed=5))
        ingest.write_raw16(EcgRecord(id="R1", fs=200.0, samples=rec.samples,
                                     scale=1e-4), tmp_path / "R1.raw16")

        record = ingest.load_record(tmp_path / "R1.raw16")
        out = pipeline.run_record(record, cfg)
        scalogram.write_pgm(out.image, tmp_path / "direct.pgm")

        base = ["--config", str(cfg_path)]
        assert cli.main(base + ["preprocess", str(tmp_path / "R1.raw16"),
                                str(tmp_path / "filt.csv")]) == 0
        assert cli.main(base + ["detect", str(tmp_path / "filt.csv"),
                                str(tmp_path / "peaks.csv")]) == 0
        assert cli.main(base + ["featurize", str(tmp_path / "filt.csv"),
                                str(tmp_path / "wave.csv"),
                                "--peaks", str(tmp_path / "peaks.csv")]) == 0
        assert cli.main(base + ["scalogram", str(tmp_path / "wave.csv"),
                                str(tmp_path / "chained.pgm"),
                                "--from-wave"]) == 0

        assert ((tmp_path / "chained.pgm").read_bytes()
                == (tmp_path / "direct.pgm").read_bytes())

    def test_featurize_without_peaks_file_is_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(), cfg_path)
        rec, _ = synth_ecg(SynthSpec(duration=20.0, bpm=64.0,
                                     noise_sigma=0.01, seed=8))
        ingest.write_raw16(EcgRecord(id="R2", fs=200.0, samples=rec.samples,
                                     scale=1e-4), tmp_path / "R2.raw16")
        base = ["--config", str(cfg_path)]
        cli.main(base + ["preprocess", str(tmp_path / "R2.raw16"),
                         str(tmp_path / "f.csv")])
        cli.main(base + ["detect", str(tmp_path / "f.csv"),
                         str(tmp_path / "p.csv")])
        cli.main(base + ["featurize", str(tmp_path / "f.csv"),
                         str(tmp_path / "w1.csv"),
                         "--peaks", str(tmp_path / "p.csv")])
        cli.main(base + ["featurize", str(tmp_path / "f.csv"),
                         str(tmp_path / "w2.csv")])
        assert ((tmp_path / "w1.csv").read_bytes()
                == (tmp_path / "w2.csv").read_bytes())


class TestCommands:
    def test_scalogram_of_all_zero_record_is_black(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(), cfg_path)
        zero = tmp_path / "zero.csv"
        zero.write_text("0.0\n" * 4000)
        out = tmp_path / "zero.pgm"
        rc = cli.main(["--config", str(cfg_path), "scalogram", str(zero),
                       str(out)])
        assert rc == 0
        data = out.read_bytes()
        header = b"P5\n256 16\n255\n"
        assert data.startswith(header)
        assert set(data[len(header):]) == {0}

    def test_scalogram_f32_reads_back(self, tmp_path):
        cfg = small_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        data, _ = write_dataset(tmp_path, n_normal=1, n_noise=0)
        out = tmp_path / "A000.f32"
        rc = cli.main(["--config", str(cfg_path), "scalogram",
                       str(data / "A000.raw16"), str(out),
                       "--image-format", "f32"])
        assert rc == 0
        assert json.loads(out.with_suffix(".json").read_text())["fs"] == 1.0
        back = scalogram.read_f32(out)
        direct = pipeline.run_record(
            ingest.load_record(data / "A000.raw16"), cfg).scalo
        assert back.fs == 1.0
        assert np.array_equal(back.scales, direct.scales)
        assert np.array_equal(back.coeffs,
                              direct.coeffs.astype(np.float32))

    def test_default_rate_is_reported(self, tmp_path, capsys):
        rec, _ = synth_ecg(SynthSpec(duration=10.0, bpm=70.0, seed=2))
        cli._write_samples_csv(rec.samples, tmp_path / "bare.csv")
        rc = cli.main(["preprocess", str(tmp_path / "bare.csv"),
                       str(tmp_path / "out.csv")])
        assert rc == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        warning = json.loads(lines[0])["warning"]
        assert warning["stage"] == "ingest" and warning["record"] == "bare"
        assert "200 Hz" in warning["message"]

    def test_configured_default_rate_is_used(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = replace(PipelineConfig(), fs_default=300.0)
        save_config(cfg, cfg_path)
        rec, _ = synth_ecg(SynthSpec(duration=10.0, bpm=70.0, seed=2))
        cli._write_samples_csv(rec.samples, tmp_path / "bare.csv")
        loaded = cli._load_record(tmp_path / "bare.csv", cfg)
        assert (loaded.fs, loaded.fs_source) == (300.0, "default")
        capsys.readouterr()
        rc = cli.main(["--config", str(cfg_path), "preprocess",
                       str(tmp_path / "bare.csv"), str(tmp_path / "out.csv")])
        assert rc == 0
        warning = json.loads(capsys.readouterr().err)["warning"]
        assert "assuming the default 300 Hz" in warning["message"]
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert sidecar["fs"] == 300.0

    def test_record_with_sidecar_prints_nothing(self, tmp_path, capsys):
        rec, _ = synth_ecg(SynthSpec(duration=10.0, bpm=70.0, seed=2))
        ingest.write_raw16(EcgRecord(id="S1", fs=200.0, samples=rec.samples,
                                     scale=1e-4), tmp_path / "S1.raw16")
        rc = cli.main(["preprocess", str(tmp_path / "S1.raw16"),
                       str(tmp_path / "out.csv")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    def test_detect_writes_taps(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(), cfg_path)
        rec, _ = synth_ecg(SynthSpec(duration=10.0, bpm=70.0, seed=2))
        ingest.write_raw16(EcgRecord(id="T1", fs=200.0, samples=rec.samples,
                                     scale=1e-4), tmp_path / "T1.raw16")
        rc = cli.main(["--config", str(cfg_path), "detect",
                       str(tmp_path / "T1.raw16"),
                       str(tmp_path / "peaks.csv"),
                       "--taps", str(tmp_path / "taps")])
        assert rc == 0
        for name in ("bandpassed", "derivative", "squared", "integrated"):
            assert (tmp_path / "taps" / f"T1.{name}.csv").exists()
        indices = [int(v) for v in
                   (tmp_path / "peaks.csv").read_text().split()]
        assert len(indices) >= 9

    def test_taps_are_the_chain_the_detector_thresholds(self, tmp_path,
                                                        monkeypatch):
        rec, _ = synth_ecg(SynthSpec(duration=10.0, bpm=70.0, seed=2,
                                     fs=300.0))
        ingest.write_raw16(EcgRecord(id="T3", fs=300.0, samples=rec.samples,
                                     scale=1e-4), tmp_path / "T3.raw16")
        rc = cli.main(["detect", str(tmp_path / "T3.raw16"),
                       str(tmp_path / "peaks.csv"),
                       "--taps", str(tmp_path / "taps")])
        assert rc == 0
        tap = np.array([float(v) for v in
                        (tmp_path / "taps" / "T3.integrated.csv")
                        .read_text().split()])
        n = ingest.load_record(tmp_path / "T3.raw16").samples.size
        assert tap.size == round(n * 200 / 300) + 80

        thresholded = []
        real_scan = rpeak._threshold_scan

        def spy(mwi, *args):
            thresholded.append(mwi)
            return real_scan(mwi, *args)

        monkeypatch.setattr(rpeak, "_threshold_scan", spy)
        assert cli.main(["detect", str(tmp_path / "T3.raw16"),
                         str(tmp_path / "again.csv")]) == 0
        assert tap.tobytes() == thresholded[0].tobytes()

    def test_error_line_is_machine_readable(self, tmp_path, capsys):
        rc = cli.main(["preprocess", str(tmp_path / "missing.csv"),
                       str(tmp_path / "out.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["stage"] == "ingest"
        assert "message" in err["error"]

    def test_unlabeled_record_is_reported(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(epochs=1), cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=2, n_noise=1)
        labels.write_text("A000,N\nZ000,~\n")  # A001 left unlabeled
        rc = cli.main(["--config", str(cfg_path), "train", str(data),
                       str(labels), str(tmp_path / "m.bin")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "A001" in err["error"]["message"]

    def test_eval_fails_on_unlabeled_record_in_ingest(self, tmp_path,
                                                      capsys):
        cfg = small_config()
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=2, n_noise=1)
        labels.write_text("A000,N\nZ000,~\n")  # A001 left unlabeled
        model_path = tmp_path / "m.bin"
        classifier.save_model(classifier.init_model(cfg.network, 0),
                              model_path)
        rc = cli.main(["--config", str(cfg_path), "eval", str(data),
                       str(labels), str(model_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err.strip())["error"]
        assert err["stage"] == "ingest"
        assert err["message"] == "record A001 has no label"

    def test_featurize_rejects_a_peak_outside_the_record(self, tmp_path,
                                                         capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(), cfg_path)
        data, _ = write_dataset(tmp_path, n_normal=1, n_noise=0)
        base = ["--config", str(cfg_path)]
        assert cli.main(base + ["detect", str(data / "A000.raw16"),
                                str(tmp_path / "p.csv")]) == 0
        with open(tmp_path / "p.csv", "a") as fh:
            fh.write(f"{10**9}\n")
        rc = cli.main(base + ["featurize", str(data / "A000.raw16"),
                              str(tmp_path / "w.csv"),
                              "--peaks", str(tmp_path / "p.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())["error"]
        assert err["stage"] == "featurize"
        assert "1000000000" in err["message"]
        assert not (tmp_path / "w.csv").exists()


class TestEndToEnd:
    def test_train_eval_predict(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(epochs=30, lr=0.08), cfg_path)
        data, labels = write_dataset(tmp_path)
        model_path = tmp_path / "model.bin"
        base = ["--config", str(cfg_path)]

        rc = cli.main(base + ["train", str(data), str(labels),
                              str(model_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epoch 0: loss" in out

        rc = cli.main(base + ["eval", str(data), str(labels),
                              str(model_path), str(tmp_path / "rep.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "F1 1.0000" in out  # perfect fit on the training directory
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["f1"][0] == 1.0 and report["f1"][3] == 1.0

        rc = cli.main(base + ["predict", str(data / "A000.raw16"),
                              str(model_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "N"

        rc = cli.main(base + ["predict", str(data / "Z000.raw16"),
                              str(model_path)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "~"

    def test_train_matches_library_training(self, tmp_path, capsys):
        cfg = small_config(epochs=2)
        cfg_path = tmp_path / "cfg.json"
        save_config(cfg, cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=3, n_noise=2)
        assert cli.main(["--config", str(cfg_path), "train", str(data),
                         str(labels), str(tmp_path / "cli.bin")]) == 0
        truth = ingest.load_labels(labels)
        dataset = []
        for path in sorted(data.glob("*.raw16")):
            record = ingest.load_record(path)
            dataset.append((pipeline.record_to_input(record, cfg),
                            truth[record.id]))
        model = classifier.train(dataset, cfg.network, cfg.training)
        classifier.save_model(model, tmp_path / "lib.bin")
        assert ((tmp_path / "cli.bin").read_bytes()
                == (tmp_path / "lib.bin").read_bytes())

    def test_labels_inside_the_data_directory_are_no_record(self, tmp_path,
                                                            capsys):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(epochs=2), cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=2, n_noise=2)
        inside = data / "REFERENCE.csv"
        inside.write_bytes(labels.read_bytes())
        base = ["--config", str(cfg_path)]
        for name, path in (("out", labels), ("in", inside)):
            if name == "out":
                inside.rename(tmp_path / "moved.csv")
            assert cli.main(base + ["train", str(data), str(path),
                                    str(tmp_path / f"{name}.bin")]) == 0
            assert cli.main(base + ["eval", str(data), str(path),
                                    str(tmp_path / f"{name}.bin"),
                                    str(tmp_path / f"{name}.json")]) == 0
            if name == "out":
                (tmp_path / "moved.csv").rename(inside)
        assert ((tmp_path / "in.bin").read_bytes()
                == (tmp_path / "out.bin").read_bytes())
        assert ((tmp_path / "in.json").read_bytes()
                == (tmp_path / "out.json").read_bytes())

    def test_checkpoint_grid_wins_over_the_config(self, tmp_path, capsys):
        """A 16x64 network predicts and scores under the default config,
        which makes 64x1024 diagrams, exactly as the library does."""
        small = small_config()
        model = classifier.init_model(small.network, seed=4)
        model.params["head.b"][:] = [0.0, 0.0, 0.0, 0.1]
        model.params["head.w"][0, :] = 2.0  # bright diagrams read Normal
        model_path = tmp_path / "m.bin"
        classifier.save_model(model, model_path)
        data, labels = write_dataset(tmp_path, n_normal=2, n_noise=2)
        truth = ingest.load_labels(labels)
        cfg = PipelineConfig()
        preds, golds = [], []
        for path in sorted(data.glob("*.raw16")):
            record = ingest.load_record(path)
            pixels = pipeline.run_record(record, cfg).image.pixels
            assert pixels.shape == (64, 1024)
            want = classifier.predict(model, pixels)
            capsys.readouterr()
            assert cli.main(["predict", str(path), str(model_path)]) == 0
            assert (capsys.readouterr().out.strip()
                    == ingest.CLASS_SYMBOLS[want])
            preds.append(want)
            golds.append(truth[record.id])
        assert len(set(preds)) > 1
        assert cli.main(["eval", str(data), str(labels), str(model_path),
                         str(tmp_path / "rep.json")]) == 0
        want = metrics.challenge_f1(metrics.confusion(preds, golds))
        assert (tmp_path / "rep.json").read_text() == want.to_json()

    def test_training_is_reproducible_across_runs(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        save_config(small_config(epochs=3), cfg_path)
        data, labels = write_dataset(tmp_path, n_normal=2, n_noise=2)
        base = ["--config", str(cfg_path)]
        cli.main(base + ["train", str(data), str(labels),
                         str(tmp_path / "m1.bin")])
        cli.main(base + ["train", str(data), str(labels),
                         str(tmp_path / "m2.bin")])
        assert ((tmp_path / "m1.bin").read_bytes()
                == (tmp_path / "m2.bin").read_bytes())
