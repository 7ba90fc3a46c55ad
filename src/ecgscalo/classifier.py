"""From-scratch residual CNN over single-channel images.

Everything runs in float64 numpy: an initial 3x3 convolution, stages of
two-convolution residual blocks (stride-2 first block plus 1x1 projection
shortcut at each stage transition), global average pooling and a final
linear layer to the four rhythm classes. There are no normalization layers
in the default configuration, which keeps the network piecewise linear in
its parameters and lets the finite-difference gradient oracle match
backpropagation almost exactly.

Every convolution is one matmul per sample over im2col columns built in a
reused buffer, so the columns stay cache-sized rather than batch-sized. A
stride-1 input gradient is the forward convolution of the output gradient
with the flipped, channel-transposed kernel; the stem's is never computed.

Training is plain momentum SGD, serially deterministic: the shuffle order,
batch order and all reductions are fixed by the seed, so identical seeds
produce bit-identical models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from ecgscalo.ingest import EcgClass

_CHECKPOINT_MAGIC = b"ECGSCALO-MODEL-1\n"
NUM_CLASSES = len(EcgClass)


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description: stage widths, depths, input geometry."""

    stage_widths: tuple[int, ...] = (8, 16, 32)
    blocks_per_stage: tuple[int, ...] = (2, 2, 2)
    input_height: int = 64
    input_width: int = 256
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        object.__setattr__(self, "stage_widths", tuple(self.stage_widths))
        object.__setattr__(self, "blocks_per_stage",
                           tuple(self.blocks_per_stage))
        if self.num_classes != NUM_CLASSES:
            raise ValueError("classifier is fixed at four classes")
        if len(self.stage_widths) != len(self.blocks_per_stage):
            raise ValueError("one block count per stage is required")
        if not self.stage_widths:
            raise ValueError("need at least one stage")
        sizes = (*self.stage_widths, *self.blocks_per_stage,
                 self.input_height, self.input_width)
        if not all(isinstance(v, (int, np.integer)) and v >= 1
                   for v in sizes):
            raise ValueError("stage widths, depths and input sizes must be "
                             f"positive integers, not {sizes}")
        halvings = len(self.stage_widths) - 1
        if (self.input_height % (1 << halvings)
                or self.input_width % (1 << halvings)):
            raise ValueError(
                f"input {self.input_height}x{self.input_width} is not "
                f"divisible by 2^{halvings} stage halvings")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning rate must be finite and >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch size >= 1 and epochs >= 0 required")


@dataclass
class Model:
    """Parameter tensors keyed by layer name, plus training metadata."""

    config: NetworkConfig
    params: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def _blocks(config: NetworkConfig):
    """Yield (name, c_in, c_out, stride, has_projection) per residual block."""
    c_in = config.stage_widths[0]
    for i, (width, depth) in enumerate(zip(config.stage_widths,
                                           config.blocks_per_stage)):
        for j in range(depth):
            stride = 2 if (i > 0 and j == 0) else 1
            projection = stride != 1 or c_in != width
            yield f"s{i}b{j}", c_in, width, stride, projection
            c_in = width


def _param_shapes(config: NetworkConfig):
    """Yield (name, shape) of every parameter, in init and checkpoint order."""
    yield "stem.w", (config.stage_widths[0], 1, 3, 3)
    yield "stem.b", (config.stage_widths[0],)
    for name, c_in, c_out, _stride, proj in _blocks(config):
        yield f"{name}.conv1.w", (c_out, c_in, 3, 3)
        yield f"{name}.conv1.b", (c_out,)
        yield f"{name}.conv2.w", (c_out, c_out, 3, 3)
        yield f"{name}.conv2.b", (c_out,)
        if proj:
            yield f"{name}.proj.w", (c_out, c_in, 1, 1)
            yield f"{name}.proj.b", (c_out,)
    yield "head.w", (config.num_classes, config.stage_widths[-1])
    yield "head.b", (config.num_classes,)


def init_model(config: NetworkConfig, seed: int) -> Model:
    """Fan-in-scaled uniform weights, zero biases, from the seeded generator."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(config):
        bound = 1.0 / np.sqrt(int(np.prod(shape[1:])))
        params[name] = (np.zeros(shape) if name.endswith(".b")
                        else rng.uniform(-bound, bound, size=shape))
    return Model(config=config, params=params, meta={"seed": seed})


# ---------------------------------------------------------------------------
# layer primitives (forward returns a cache consumed by the backward pass)

def _taps(sample, cols, kw, stride):
    """Pair each tap k = i*kw + j of the column buffer [C, kh*kw, h_out,
    w_out] with the slice of the padded sample [C, Hp, Wp] that it sees."""
    h_out, w_out = cols.shape[2:]
    for k in range(cols.shape[1]):
        i, j = divmod(k, kw)
        yield cols[:, k], sample[:, i:i + stride * h_out:stride,
                                 j:j + stride * w_out:stride]


def _conv_forward(x, w, b, stride):
    """'Same'-padded cross-correlation, one column matmul per sample."""
    out, chans, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    h_out = (xp.shape[2] - kh) // stride + 1
    w_out = (xp.shape[3] - kw) // stride + 1
    cols = np.empty((chans, kh * kw, h_out, w_out))
    wm, flat = w.reshape(out, -1), cols.reshape(-1, h_out * w_out)
    y = np.empty((len(x), out, h_out * w_out))
    for n, sample in enumerate(xp):
        for col, tap in _taps(sample, cols, kw, stride):
            col[...] = tap
        np.matmul(wm, flat, out=y[n])
    y += b[None, :, None]
    return y.reshape(len(x), out, h_out, w_out), (xp, w, stride)


def _conv_backward(dy, cache, need_dx=True):
    """(dx, dw, db) from the cached padded input; dx is None if not needed."""
    xp, w, stride = cache
    batch, out, h_out, w_out = dy.shape
    chans, kh, kw = w.shape[1:]
    dyn = dy.reshape(batch, out, -1)
    cols = np.empty((chans, kh * kw, h_out, w_out))
    flat = cols.reshape(-1, h_out * w_out)
    dwt = np.zeros((flat.shape[0], out))
    for n, sample in enumerate(xp):
        for col, tap in _taps(sample, cols, kw, stride):
            col[...] = tap
        dwt += flat @ dyn[n].T
    dw, db = dwt.T.reshape(w.shape), dyn.sum(axis=(0, 2))
    if not need_dx:
        return None, dw, db
    if stride == 1:
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        return _conv_forward(dy, flipped, np.zeros(chans), 1)[0], dw, db
    dxp = np.zeros(xp.shape)
    for n, sample in enumerate(dxp):
        np.matmul(w.reshape(out, -1).T, dyn[n], out=flat)
        for col, tap in _taps(sample, cols, kw, stride):
            tap += col
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    return dxp[:, :, ph:xp.shape[2] - ph, pw:xp.shape[3] - pw], dw, db


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if np.any((labels < 0) | (labels >= logits.shape[1])):
        raise ValueError(f"labels must lie in [0, {logits.shape[1] - 1}]")
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    n = logits.shape[0]
    loss = -float(np.mean(logp[np.arange(n), labels]))
    dlogits = np.exp(logp)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def check_batch(config: NetworkConfig, x) -> np.ndarray:
    """The network's input gate and the only place pixels become floats: a
    uint8 batch of diagrams [B, 1, kH, mW], for whole k and m, is read as
    [0, 1] and block-averaged onto the H x W grid; any other input is read
    as float64 and must be [B, 1, H, W] already."""
    x = np.asarray(x)
    h, w = config.input_height, config.input_width
    if x.dtype == np.uint8 and x.ndim == 4:
        (kh, rh), (kw, rw) = divmod(x.shape[2], h), divmod(x.shape[3], w)
        if kh and kw and not rh and not rw:
            x = (x.astype(np.float64) / 255.0).reshape(
                *x.shape[:2], h, kh, w, kw).mean(axis=(3, 5))
    if x.shape[1:] != (1, h, w):
        kind = "a whole multiple of " if x.dtype == np.uint8 else ""
        raise ValueError(f"batch shape {x.shape} does not match {kind}"
                         f"[B, 1, {h}, {w}]")
    return x.astype(np.float64, copy=False)


def _unwind(tape: list, dy):
    """Pop and run the backward steps of ``tape`` last to first, so each
    step's cache is freed once it has been used."""
    while tape:
        dy = tape.pop()(dy)
    return dy


def _finite(t: np.ndarray, name: str) -> np.ndarray:
    if not np.all(np.isfinite(t)):
        raise FloatingPointError(f"non-finite activation after {name}")
    return t


def _run(model: Model, x: np.ndarray, grads: dict | None = None):
    """Shared forward pass.

    Returns the logits. Given a ``grads`` dict, it also returns a
    ``backward(dlogits)`` that fills it: every layer records its own
    backward step on a tape as it runs, and a residual block records one
    step that unwinds its main-path and shortcut sub-tapes.
    """
    p = model.params

    def conv(t, name, stride, tape, need_dx=True):
        y, cache = _conv_forward(t, p[f"{name}.w"], p[f"{name}.b"], stride)
        if grads is not None:
            def back(dy):
                dx, grads[f"{name}.w"], grads[f"{name}.b"] = _conv_backward(
                    dy, cache, need_dx)
                return dx
            tape.append(back)
        return y

    def relu(t, tape):
        if grads is not None:
            mask = t > 0
            tape.append(lambda dy: dy * mask)
        return np.maximum(t, 0.0)

    tape = []
    t = _finite(relu(conv(x, "stem", 1, tape, need_dx=False), tape), "stem")
    for name, _cin, _cout, stride, proj in _blocks(model.config):
        main, short = [], []
        inner = relu(conv(t, f"{name}.conv1", stride, main), main)
        inner = conv(inner, f"{name}.conv2", 1, main)
        shortcut = conv(t, f"{name}.proj", stride, short) if proj else t
        if grads is not None:
            def back(dy, main=main, short=short):  # bind this block's tapes
                dshort = _unwind(short, dy)
                return _unwind(main, dy) + dshort
            tape.append(back)
        t = _finite(relu(inner + shortcut, tape), name)
    pooled = t.mean(axis=(2, 3))
    logits = pooled @ p["head.w"].T + p["head.b"]
    if grads is None:
        return logits
    shape = t.shape

    def backward(dlogits):
        grads["head.w"] = dlogits.T @ pooled
        grads["head.b"] = dlogits.sum(axis=0)
        dpooled = dlogits @ p["head.w"]
        scale = 1.0 / (shape[2] * shape[3])
        _unwind(tape, np.broadcast_to(dpooled[:, :, None, None] * scale,
                                      shape).copy())
    return logits, backward


def forward(model: Model, batch) -> np.ndarray:
    """Logits [B, 4] for a batch that ``check_batch`` accepts; deterministic
    and stateless."""
    return _run(model, check_batch(model.config, batch))


def loss_and_grad(model: Model, batch, labels) -> tuple[float, dict[str, np.ndarray]]:
    """Mean softmax cross-entropy plus gradients for every parameter."""
    grads = dict.fromkeys(model.params)
    logits, backward = _run(model, check_batch(model.config, batch), grads)
    loss, dlogits = softmax_cross_entropy(logits, labels)
    backward(dlogits)
    return loss, grads


def gradient_check(model: Model, batch, labels,
                   step: float = 1e-5) -> dict[str, float]:
    """Central finite differences over every parameter scalar.

    Returns the maximum relative error per parameter tensor; backprop and the
    difference quotient share nothing but the forward pass.
    """
    x = check_batch(model.config, batch)
    _, grads = loss_and_grad(model, x, labels)
    report: dict[str, float] = {}
    for name, tensor in model.params.items():
        flat = tensor.ravel()
        worst = 0.0
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = softmax_cross_entropy(_run(model, x), labels)[0]
            flat[i] = keep - step
            down = softmax_cross_entropy(_run(model, x), labels)[0]
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            g = grads[name].ravel()[i]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-12)
            worst = max(worst, rel)
        report[name] = worst
    return report


def train(dataset, net: NetworkConfig, tcfg: TrainConfig,
          on_epoch=None) -> Model:
    """Momentum-SGD training over (image, label) pairs.

    Images are 2-D uint8 diagrams or float arrays on the network grid, as
    ``check_batch`` reads them. Each is checked before the first step and
    kept as given; each batch passes its images through the gate one by
    one, so a dataset may mix both kinds. Given the same seed the result is
    bit-identical: shuffle order, batching and update order are all fixed.
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    images, labels = zip(*dataset)
    images = [np.asarray(img)[None, None] for img in images]
    for img in images:
        check_batch(net, img)
    y_all = np.asarray([int(l) for l in labels], dtype=np.int64)
    if np.any((y_all < 0) | (y_all >= NUM_CLASSES)):
        raise ValueError(f"labels must lie in [0, {NUM_CLASSES - 1}]")

    model = init_model(net, tcfg.seed)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    rng = np.random.default_rng(tcfg.seed)
    n = len(images)
    final_loss = float("nan")

    for epoch in range(tcfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, tcfg.batch_size):
            sel = order[start:start + tcfg.batch_size]
            batch_no = start // tcfg.batch_size
            batch = np.concatenate([check_batch(net, images[i])
                                    for i in sel])
            try:
                loss, grads = loss_and_grad(model, batch, y_all[sel])
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"training diverged (epoch {epoch}, batch {batch_no}: "
                    f"{exc})") from exc
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged (epoch {epoch}, "
                    f"batch {batch_no}: loss={loss})")
            losses.append(loss)
            for k in model.params:
                velocity[k] = (tcfg.momentum * velocity[k]
                               - tcfg.learning_rate * grads[k])
                model.params[k] += velocity[k]
        final_loss = float(np.mean(losses))
        if on_epoch is not None:
            on_epoch(epoch, final_loss)

    model.meta = {"seed": tcfg.seed, "epochs": tcfg.epochs,
                  "final_loss": final_loss}
    return model


def predict(model: Model, image) -> EcgClass:
    """Class of a single image; ties break toward the lower class index."""
    logits = forward(model, np.asarray(image)[None, None])
    return EcgClass(int(np.argmax(logits[0])))


def accuracy(model: Model, dataset) -> float:
    hits = sum(1 for img, label in dataset
               if predict(model, img) == int(label))
    return hits / len(dataset)


def save_model(model: Model, path) -> None:
    """Versioned checkpoint: JSON header + float64 LE payloads in order."""
    manifest = [[name, list(t.shape)] for name, t in model.params.items()]
    header = json.dumps({"config": asdict(model.config),
                         "meta": model.meta,
                         "params": manifest}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for tensor in model.params.values():
            fh.write(tensor.astype("<f8").tobytes())


def load_model(path) -> Model:
    """Read a ``save_model`` checkpoint; any mismatch raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    offset = len(_CHECKPOINT_MAGIC) + 4
    if data[:offset - 4] != _CHECKPOINT_MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")
    hlen = int.from_bytes(data[offset - 4:offset], "little")
    if len(data) < offset + hlen:
        raise ValueError("checkpoint truncated in the header")
    header = json.loads(data[offset:offset + hlen].decode("utf-8"))
    offset += hlen
    try:
        config = NetworkConfig(**header["config"])
        manifest, meta = header["params"], header["meta"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed checkpoint header: {exc!r}") from None
    shapes = list(_param_shapes(config))
    if manifest != [[name, list(shape)] for name, shape in shapes]:
        raise ValueError("checkpoint parameters do not match its network")
    extra = len(data) - offset - 8 * sum(int(np.prod(s)) for _, s in shapes)
    if extra:
        raise ValueError(f"checkpoint has {extra} trailing bytes" if extra > 0
                         else f"checkpoint truncated by {-extra} bytes")
    params: dict[str, np.ndarray] = {}
    for name, shape in shapes:
        params[name] = np.frombuffer(data, "<f8", int(np.prod(shape)),
                                     offset).reshape(shape).copy()
        offset += params[name].nbytes
    return Model(config=config, params=params, meta=meta)
