import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ecgscalo
from ecgscalo import classifier
from ecgscalo.classifier import (NetworkConfig, TrainConfig, check_batch,
                                 forward, gradient_check,
                                 init_model, load_model, loss_and_grad,
                                 predict, save_model, softmax_cross_entropy,
                                 train)
from ecgscalo.ingest import EcgClass

TINY = NetworkConfig(stage_widths=(4, 8), blocks_per_stage=(1, 1),
                     input_height=8, input_width=16)


def tiny_batch(seed=42, n=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 1.0, size=(n, 1, 8, 16))
    labels = rng.integers(0, 4, size=n)
    return x, labels


def loop_conv(x, w, b, stride, dy):
    """Nested-loop 'same' cross-correlation: y and, for the output gradient
    dy, the input, weight and bias gradients (dx, dw, db)."""
    batch, chans, height, width = x.shape
    out, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    h_out = (height + 2 * ph - kh) // stride + 1
    w_out = (width + 2 * pw - kw) // stride + 1
    y = np.zeros((batch, out, h_out, w_out))
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for n, o, r, c in np.ndindex(batch, out, h_out, w_out):
        y[n, o, r, c] = b[o]
        for ch, i, j in np.ndindex(chans, kh, kw):
            row, col = r * stride + i - ph, c * stride + j - pw
            if 0 <= row < height and 0 <= col < width:
                y[n, o, r, c] += w[o, ch, i, j] * x[n, ch, row, col]
                dx[n, ch, row, col] += dy[n, o, r, c] * w[o, ch, i, j]
                dw[o, ch, i, j] += dy[n, o, r, c] * x[n, ch, row, col]
    return y, dx, dw, dy.sum(axis=(0, 2, 3))


def assert_rel_close(got, want, rel):
    """Largest deviation within ``rel`` of the largest reference value."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestConvPrimitives:
    # every layer kind of the default net: (c_in, c_out, kernel, stride)
    KINDS = {"stem": (1, 4, 3, 1), "same": (4, 4, 3, 1),
             "down": (4, 8, 3, 2), "proj": (4, 8, 1, 2)}

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_matches_nested_loops(self, kind, batch):
        c_in, c_out, k, stride = self.KINDS[kind]
        rng = np.random.default_rng(batch)
        x = rng.standard_normal((batch, c_in, 6, 8))
        w = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        y, cache = classifier._conv_forward(x, w, b, stride)
        dy = rng.standard_normal(y.shape)
        want = loop_conv(x, w, b, stride, dy)
        got = (y,) + classifier._conv_backward(dy, cache)
        for g, ref in zip(got, want):
            assert_rel_close(g, ref, 1e-12)

    def test_input_gradient_can_be_skipped(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 1, 6, 8))
        w = rng.standard_normal((4, 1, 3, 3))
        y, cache = classifier._conv_forward(x, w, np.zeros(4), 1)
        dy = rng.standard_normal(y.shape)
        full = classifier._conv_backward(dy, cache)
        dx, dw, db = classifier._conv_backward(dy, cache, need_dx=False)
        assert dx is None
        np.testing.assert_array_equal(dw, full[1])
        np.testing.assert_array_equal(db, full[2])

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 3), c_in=st.integers(1, 4),
           c_out=st.integers(1, 4), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), height=st.integers(1, 9),
           width=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, batch, c_in, c_out, k, stride, height,
                              width, seed):
        # the conv is bilinear in (x, w), so <y - b, dy> = <x, dx> = <w, dw>;
        # relative to |y - b| |dy|, which bounds every term (Cauchy-Schwarz)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, c_in, height, width))
        w = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        y, cache = classifier._conv_forward(x, w, b, stride)
        dy = rng.standard_normal(y.shape)
        dx, dw, db = classifier._conv_backward(dy, cache)
        assert dx.shape == x.shape and dw.shape == w.shape
        np.testing.assert_allclose(db, dy.sum(axis=(0, 2, 3)), rtol=1e-12)
        ref = np.vdot(y - b[None, :, None, None], dy)
        scale = np.linalg.norm(y - b[None, :, None, None]) * np.linalg.norm(dy)
        assert abs(np.vdot(x, dx) - ref) <= 1e-10 * scale
        assert abs(np.vdot(w, dw) - ref) <= 1e-10 * scale


class TestForward:
    def test_logit_shape(self):
        model = init_model(TINY, seed=0)
        x, _ = tiny_batch()
        assert forward(model, x).shape == (2, 4)

    def test_zero_block_is_skip_path(self):
        # zeroed convolutions leave only the shortcut, and relu of an
        # already-relu'd tensor is the identity: the block passes x through
        cfg = NetworkConfig(stage_widths=(4,), blocks_per_stage=(1,),
                            input_height=8, input_width=16)
        model = init_model(cfg, seed=1)
        for key in ("s0b0.conv1.w", "s0b0.conv1.b",
                    "s0b0.conv2.w", "s0b0.conv2.b"):
            model.params[key][:] = 0.0
        x, _ = tiny_batch()
        got = forward(model, x)
        # reference: stem -> gap -> head with the block removed by hand
        t, _ = classifier._conv_forward(x, model.params["stem.w"],
                                        model.params["stem.b"], 1)
        t = np.maximum(t, 0.0)
        pooled = t.mean(axis=(2, 3))
        want = pooled @ model.params["head.w"].T + model.params["head.b"]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_zero_head_uniform_softmax(self):
        model = init_model(TINY, seed=2)
        model.params["head.w"][:] = 0.0
        model.params["head.b"][:] = 0.0
        x, _ = tiny_batch()
        logits = forward(model, x)
        assert np.all(logits == 0.0)
        # the loss gradient is (softmax - one-hot) / batch
        _, dlogits = softmax_cross_entropy(logits, np.zeros(len(x), int))
        probs = dlogits * len(x)
        probs[:, 0] += 1.0
        np.testing.assert_allclose(probs, 0.25)

    def test_duplicated_input_duplicates_logits(self):
        model = init_model(TINY, seed=3)
        x, _ = tiny_batch(n=3)
        doubled = np.concatenate([x, x[1:2]])
        logits = forward(model, doubled)
        np.testing.assert_array_equal(logits[1], logits[3])

    def test_shape_mismatch_names_dimensions(self):
        model = init_model(TINY, seed=4)
        with pytest.raises(ValueError, match=r"8, 16"):
            forward(model, np.zeros((1, 1, 8, 8)))

    def test_uint8_pixels_read_as_unit_interval(self):
        model = init_model(TINY, seed=4)
        pixels = np.random.default_rng(2).integers(
            0, 256, size=(2, 1, 8, 16)).astype(np.uint8)
        np.testing.assert_array_equal(forward(model, pixels),
                                      forward(model, pixels / 255))

    @pytest.mark.parametrize("cfg", [
        NetworkConfig((4,), (1,), 8, 16),
        NetworkConfig((4, 8), (2, 1), 8, 16),
        NetworkConfig((2, 4, 8), (1, 1, 1), 8, 16),
    ])
    def test_shape_algebra_across_configs(self, cfg):
        model = init_model(cfg, seed=6)
        x = np.random.default_rng(0).uniform(size=(3, 1, 8, 16))
        assert forward(model, x).shape == (3, 4)

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            NetworkConfig((4, 8, 16), (1, 1, 1), 10, 16)

    def test_five_classes_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig((4,), (1,), 8, 16, num_classes=5)


class TestLoss:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((5, 4)), np.zeros(5, int))
        assert loss == pytest.approx(np.log(4.0), rel=1e-12)

    def test_perfect_margin_loss_vanishes(self):
        logits = np.full((3, 4), -40.0)
        logits[np.arange(3), [0, 2, 3]] = 40.0
        loss, _ = softmax_cross_entropy(logits, [0, 2, 3])
        assert loss < 1e-12

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((2, 4)), [0, 4])

    def test_gradient_rows(self):
        logits = np.array([[0.0, 0.0, 0.0, 0.0]])
        _, d = softmax_cross_entropy(logits, [1])
        np.testing.assert_allclose(d, [[0.25, -0.75, 0.25, 0.25]])


class TestGradients:
    def test_finite_differences_small_net(self):
        cfg = NetworkConfig(stage_widths=(2, 4), blocks_per_stage=(1, 1),
                            input_height=8, input_width=16)
        model = init_model(cfg, seed=0)
        x, labels = tiny_batch(seed=42)
        report = gradient_check(model, x, labels, step=1e-5)
        assert max(report.values()) <= 1e-4

    def test_gradients_populated_for_every_parameter(self):
        model = init_model(TINY, seed=7)
        x, labels = tiny_batch()
        _, grads = loss_and_grad(model, x, labels)
        assert set(grads) == set(model.params)
        assert all(g.shape == model.params[k].shape for k, g in grads.items())


class TestTraining:
    def test_separable_set_reaches_high_accuracy(self, quadrant_dataset):
        data = quadrant_dataset(n_per_class=12, height=16, width=32, seed=11)
        net = NetworkConfig((4, 8), (1, 1), 16, 32)
        tcfg = TrainConfig(learning_rate=0.08, momentum=0.9, batch_size=8,
                           epochs=30, seed=7)
        model = train(data, net, tcfg)
        assert classifier.accuracy(model, data) >= 0.95

    def test_same_seed_bit_identical(self, quadrant_dataset):
        data = quadrant_dataset(n_per_class=6, height=16, width=32, seed=3)
        net = NetworkConfig((2, 4), (1, 1), 16, 32)
        tcfg = TrainConfig(learning_rate=0.02, epochs=4, seed=5)
        a = train(data, net, tcfg)
        b = train(data, net, tcfg)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_zero_learning_rate_is_identity(self, quadrant_dataset):
        data = quadrant_dataset(n_per_class=4, height=16, width=32, seed=3)
        net = NetworkConfig((2, 4), (1, 1), 16, 32)
        model = train(data, net, TrainConfig(learning_rate=0.0, epochs=5,
                                             seed=9))
        fresh = init_model(net, 9)
        assert all(np.array_equal(model.params[k], fresh.params[k])
                   for k in fresh.params)

    def test_divergence_reports_epoch_and_batch(self, quadrant_dataset):
        data = quadrant_dataset(n_per_class=4, height=16, width=32, seed=3)
        net = NetworkConfig((2, 4), (1, 1), 16, 32)
        # the step size overflows the weights on purpose
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(RuntimeError, match=r"epoch \d+, batch \d+"):
            train(data, net, TrainConfig(learning_rate=1e120, epochs=5,
                                         seed=1))

    def test_mixed_diagrams_and_floats_train_as_floats(self,
                                                       quadrant_dataset):
        diagrams = quadrant_dataset(n_per_class=4, height=32, width=64,
                                    seed=3)
        net = NetworkConfig((2, 4), (1, 1), 16, 32)
        floats = [(check_batch(net, img[None, None])[0, 0], label)
                  for img, label in diagrams]
        mixed = [pair if i % 2 else floats[i]
                 for i, pair in enumerate(diagrams)]
        tcfg = TrainConfig(learning_rate=0.02, epochs=3, batch_size=4, seed=5)
        a = train(floats, net, tcfg)
        b = train(mixed, net, tcfg)
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
        assert a.meta == b.meta

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train([], TINY, TrainConfig())

    def test_metadata(self, quadrant_dataset):
        data = quadrant_dataset(n_per_class=4, height=16, width=32, seed=3)
        net = NetworkConfig((2, 4), (1, 1), 16, 32)
        model = train(data, net, TrainConfig(learning_rate=0.01, epochs=3,
                                             seed=12))
        assert model.meta["seed"] == 12
        assert model.meta["epochs"] == 3
        assert np.isfinite(model.meta["final_loss"])


class TestPredict:
    def test_argmax(self):
        model = init_model(TINY, seed=8)
        model.params["head.w"][:] = 0.0
        model.params["head.b"][:] = np.array([5.0, 1.0, 1.0, 1.0])
        img = np.zeros((8, 16), dtype=np.uint8)
        assert predict(model, img) == EcgClass.Normal

    def test_tie_breaks_to_lower_index(self):
        model = init_model(TINY, seed=9)
        model.params["head.w"][:] = 0.0
        model.params["head.b"][:] = 1.0  # all logits equal
        img = np.zeros((8, 16), dtype=np.uint8)
        assert predict(model, img) == EcgClass.Normal

    def test_wrong_shape_names_dimensions(self):
        model = init_model(TINY, seed=8)
        with pytest.raises(ValueError, match=r"\(1, 1, 16, 8\).*8, 16"):
            predict(model, np.zeros((16, 8), dtype=np.uint8))

    def test_black_image_classified_noise_after_training(self,
                                                         quadrant_dataset):
        data = quadrant_dataset(n_per_class=12, height=16, width=32, seed=11)
        net = NetworkConfig((4, 8), (1, 1), 16, 32)
        model = train(data, net, TrainConfig(learning_rate=0.08, momentum=0.9,
                                             batch_size=8, epochs=30, seed=7))
        black = np.zeros((16, 32), dtype=np.uint8)
        assert predict(model, black) == EcgClass.Noise

    def test_non_finite_activation_raises_under_optimize(self, tmp_path):
        """``python -O`` strips asserts; the guard must still fire."""
        model = init_model(TINY, seed=8)
        for tensor in model.params.values():
            tensor *= 1e200
        save_model(model, tmp_path / "m.bin")
        script = (
            "import numpy as np\n"
            "from ecgscalo.classifier import load_model, predict\n"
            f"model = load_model({str(tmp_path / 'm.bin')!r})\n"
            "try:\n"
            "    print(predict(model, np.full((8, 16), 200, np.uint8)))\n"
            "except FloatingPointError as exc:\n"
            "    print('raised:', exc)\n")
        src = str(Path(ecgscalo.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: non-finite activation after")


def test_package_has_no_assert_statements():
    """Every check in the package survives ``python -O``."""
    package = Path(ecgscalo.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = init_model(TINY, seed=10)
        model.meta = {"seed": 10, "epochs": 0, "final_loss": 1.5}
        p = tmp_path / "m.bin"
        save_model(model, p)
        back = load_model(p)
        assert back.config == model.config
        assert back.meta == model.meta
        assert list(back.params) == list(model.params)
        assert all(np.array_equal(back.params[k], model.params[k])
                   for k in model.params)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError, match="magic"):
            load_model(p)

    def test_truncated_rejected(self, tmp_path):
        model = init_model(TINY, seed=11)
        p = tmp_path / "m.bin"
        save_model(model, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(p)

    @staticmethod
    def header_span(data):
        """Offsets of the first and one past the last JSON header byte."""
        start = len(classifier._CHECKPOINT_MAGIC) + 4
        return start, start + int.from_bytes(data[start - 4:start], "little")

    def saved(self, tmp_path):
        """A TINY checkpoint's path and bytes, and its header as a dict."""
        p = tmp_path / "m.bin"
        save_model(init_model(TINY, seed=11), p)
        data = p.read_bytes()
        start, end = self.header_span(data)
        return p, data, json.loads(data[start:end])

    def rewrite(self, p, data, header):
        """Write ``data`` to ``p`` with its header replaced by ``header``."""
        start, end = self.header_span(data)
        text = json.dumps(header).encode()
        p.write_bytes(data[:start - 4] + len(text).to_bytes(4, "little")
                      + text + data[end:])

    def test_trailing_bytes_rejected(self, tmp_path):
        p, data, _ = self.saved(tmp_path)
        p.write_bytes(data + bytes(16))
        with pytest.raises(ValueError, match="16 trailing bytes"):
            load_model(p)

    @pytest.mark.parametrize("kept", [2, 40])  # into the length, the JSON
    def test_short_header_rejected(self, tmp_path, kept):
        p, data, _ = self.saved(tmp_path)
        p.write_bytes(data[:len(classifier._CHECKPOINT_MAGIC) + kept])
        with pytest.raises(ValueError, match="truncated in the header"):
            load_model(p)

    @pytest.mark.parametrize("edit", ["reshape", "drop", "rename", "config"])
    def test_manifest_mismatch_rejected(self, tmp_path, edit):
        p, data, header = self.saved(tmp_path)
        manifest = header["params"]
        if edit == "reshape":  # same element count, wrong layout
            manifest[0][1] = [4, 1, 1, 1]
        elif edit == "drop":
            del manifest[0]
        elif edit == "rename":
            manifest[0][0] = "stem.weights"
        else:  # a different network under the same payload
            header["config"]["stage_widths"] = [4, 16]
        self.rewrite(p, data, header)
        with pytest.raises(ValueError, match="do not match"):
            load_model(p)

    @pytest.mark.parametrize("field, value", [
        ("stage_widths", [4.0, 8]), ("blocks_per_stage", [1, "1"]),
        ("input_height", 8.5), ("input_width", None)])
    def test_non_integer_sizes_rejected(self, tmp_path, field, value):
        p, data, header = self.saved(tmp_path)
        header["config"][field] = value
        self.rewrite(p, data, header)
        with pytest.raises(ValueError, match="positive integers"):
            load_model(p)

    def test_malformed_header_rejected(self, tmp_path):
        p, data, header = self.saved(tmp_path)
        del header["meta"]
        self.rewrite(p, data, header)
        with pytest.raises(ValueError, match="malformed"):
            load_model(p)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_checkpoint_rejected_or_intact(self, tmp_path, data):
        """Each cut or byte change either raises ValueError or loads the
        parameter names and shapes ``init_model`` gives."""
        p, blob, _ = self.saved(tmp_path)
        header_end = self.header_span(blob)[1]
        pos = data.draw(st.one_of(st.integers(0, header_end + 8),
                                  st.integers(0, len(blob) - 1)))
        if data.draw(st.booleans()):
            damaged = blob[:pos]
        else:
            byte = data.draw(st.integers(0, 255))
            damaged = blob[:pos] + bytes([byte]) + blob[pos + 1:]
        p.write_bytes(damaged)
        try:
            model = load_model(p)
        except ValueError:
            return
        want = init_model(TINY, seed=0).params
        assert [(k, v.shape) for k, v in model.params.items()] == [
            (k, v.shape) for k, v in want.items()]


class TestDownsample:
    """The input gate block-averages a uint8 diagram onto the grid."""

    def test_block_means(self):
        img = np.array([[0, 255, 255, 255],
                        [0, 0, 255, 255],
                        [255, 255, 0, 0],
                        [255, 255, 0, 0]], dtype=np.uint8)
        out = check_batch(NetworkConfig((4,), (1,), 2, 2), img[None, None])
        np.testing.assert_array_equal(out, [[[[0.25, 1.0], [1.0, 0.0]]]])

    def test_block_means_of_any_multiple(self):
        pixels = np.random.default_rng(5).integers(
            0, 256, size=(3, 1, 16, 64)).astype(np.uint8)
        out = check_batch(TINY, pixels)  # 2x the rows, 4x the columns
        want = np.empty((3, 1, 8, 16))
        for r in range(8):
            for c in range(16):
                block = pixels[:, :, 2 * r:2 * r + 2, 4 * c:4 * c + 4]
                want[:, :, r, c] = block.sum(axis=(2, 3)) / (8 * 255)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, want, rtol=1e-15, atol=0)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 1, 5, 4\).*multiple"
                                             r".*\[B, 1, 2, 2\]"):
            check_batch(NetworkConfig((4,), (1,), 2, 2),
                        np.zeros((1, 1, 5, 4), dtype=np.uint8))

    def test_float_input_must_sit_on_the_grid(self):
        with pytest.raises(ValueError, match=r"\(1, 1, 4, 4\) does not "
                                             r"match \[B, 1, 2, 2\]"):
            check_batch(NetworkConfig((4,), (1,), 2, 2), np.zeros((1, 1, 4, 4)))
