"""Output checks that derive the expected answer, not a stored copy of it.

Every check returns a list of failure messages; an empty list is a pass.
None of them calls the code it checks: peaks are matched against the
synthesis ground truth, the gate is recomputed from the true beat count,
CWT coefficients are evaluated term by term, labels come from a forward
pass written here, and gradients are compared with finite differences.
"""

from __future__ import annotations

import math

import numpy as np

PEAK_TOLERANCE_S = 0.05  # a detection within +-50 ms of a true R wave counts
MIN_SE = MIN_PPV = 0.99
GATE_BPM = (30.0, 200.0)
GATE_MIN_PEAKS = 6
INPUT_SHAPE = (64, 256)
CWT_RTOL = 1e-9  # of the row's largest magnitude; both sides are float64 sums
LOGIT_TIE_MARGIN = 1e-8  # top-two reference logits closer than this are exempt
FD_STEP = 1e-6
FD_RTOL = 1e-3  # measured errors stay below 3e-5


def match_peaks(truth, detected, tol: float) -> tuple[int, int, int]:
    """Greedy nearest matching; returns (true pos., false neg., false pos.)."""
    detected = np.asarray(detected)
    used = np.zeros(detected.size, dtype=bool)
    tp = 0
    for t in truth:
        if detected.size == 0:
            break
        dist = np.abs(detected - t).astype(float)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] <= tol:
            tp += 1
            used[j] = True
    return tp, len(truth) - tp, int(detected.size) - tp


def check_peaks(pairs, fs: float) -> list[str]:
    """Se and PPV over (true, detected) index pairs of low-noise records."""
    tp = fn = fp = 0
    for truth, detected in pairs:
        a, b, c = match_peaks(truth, detected, PEAK_TOLERANCE_S * fs)
        tp, fn, fp = tp + a, fn + b, fp + c
    se = tp / (tp + fn) if tp + fn else 0.0
    ppv = tp / (tp + fp) if tp + fp else 0.0
    if se < MIN_SE or ppv < MIN_PPV:
        return [f"R peaks: Se {se:.4f}, PPV {ppv:.4f} over {tp + fn} beats "
                f"(need >= {MIN_SE} at +-{PEAK_TOLERANCE_S * 1000:.0f} ms)"]
    return []


def expected_gate(true_count: int, duration: float) -> bool:
    """Gate rule: count outside [ceil(d*30/60), floor(d*200/60)] or < 6."""
    low = math.ceil(duration * GATE_BPM[0] / 60.0)
    high = math.floor(duration * GATE_BPM[1] / 60.0)
    return not (low <= true_count <= high) or true_count < GATE_MIN_PEAKS


def check_gate(name: str, true_count: int, duration: float,
               gated: bool) -> list[str]:
    want = expected_gate(true_count, duration)
    if bool(gated) != want:
        return [f"{name}: gate {gated}, but {true_count} beats in "
                f"{duration} s give {want}"]
    return []


def check_input(name: str, x, gated: bool) -> list[str]:
    x = np.asarray(x)
    if x.shape != INPUT_SHAPE:
        return [f"{name}: input shape {x.shape}, want {INPUT_SHAPE}"]
    if not np.all(np.isfinite(x)):
        return [f"{name}: non-finite network input"]
    if x.min() < 0.0 or x.max() > 1.0:
        return [f"{name}: input outside [0, 1] ({x.min()}, {x.max()})"]
    if gated and np.any(x != 0.0):
        return [f"{name}: gated record has a non-zero input"]
    return []


def check_image(name: str, pixels, gated: bool) -> list[str]:
    pixels = np.asarray(pixels)
    lo, hi = int(pixels.min()), int(pixels.max())
    if gated and hi != 0:
        return [f"{name}: gated record renders non-black (max {hi})"]
    if not gated and (lo, hi) != (0, 255):
        return [f"{name}: ungated image spans {lo}..{hi}, want 0..255"]
    return []


def cwt_direct(f, a: float, b: int, psi, resolution: int, fs: float) -> float:
    """W(a, b) = a^-1/2 * dt * sum_k f[k] psi((k - b) / a), nearest sample."""
    f = np.asarray(f, dtype=np.float64)
    k = np.arange(f.size)
    idx = np.floor((k - b) / a * resolution + 0.5).astype(np.int64)
    valid = (idx >= 0) & (idx < psi.size)
    return float(np.sum(f[valid] * psi[idx[valid]]) / (math.sqrt(a) * fs))


def check_cwt(name: str, f, coeffs, scales, rows, columns, psi,
              resolution: int, fs: float) -> list[str]:
    """Compare sampled coefficients (rows x columns) with ``cwt_direct``."""
    for j in rows:
        scale = float(np.max(np.abs(coeffs[j]))) or 1.0
        for b in columns:
            want = cwt_direct(f, float(scales[j]), int(b), psi, resolution, fs)
            if abs(coeffs[j, b] - want) > CWT_RTOL * scale:
                return [f"{name}: CWT at scale {scales[j]}, shift {b} is "
                        f"{coeffs[j, b]!r}, direct sum gives {want!r}"]
    return []


def _conv(x, w, b, stride: int):
    """Cross-correlation of one image [C, H, W] with zero 'same' padding."""
    k = w.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    h_out = (x.shape[1] + 2 * pad - k) // stride + 1
    w_out = (x.shape[2] + 2 * pad - k) // stride + 1
    y = np.zeros((w.shape[0], h_out, w_out))
    for i in range(k):
        for j in range(k):
            tap = xp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
            y += np.tensordot(w[:, :, i, j], tap, axes=(1, 0))
    return y + b[:, None, None]


def reference_logits(params: dict, stage_widths, blocks_per_stage, x):
    """Forward pass of the residual net for one [H, W] input.

    Stem 3x3 conv, then per stage two-conv residual blocks (stride 2 in the
    first block of every stage after the first, 1x1 projection where the
    checkpoint has one), global average pooling and the linear head.
    """
    relu = lambda t: np.maximum(t, 0.0)  # noqa: E731
    t = relu(_conv(np.asarray(x, dtype=np.float64)[None],
                   params["stem.w"], params["stem.b"], 1))
    for i, depth in enumerate(blocks_per_stage):
        for j in range(depth):
            name = f"s{i}b{j}"
            stride = 2 if i > 0 and j == 0 else 1
            inner = relu(_conv(t, params[f"{name}.conv1.w"],
                               params[f"{name}.conv1.b"], stride))
            inner = _conv(inner, params[f"{name}.conv2.w"],
                          params[f"{name}.conv2.b"], 1)
            if f"{name}.proj.w" in params:
                short = _conv(t, params[f"{name}.proj.w"],
                              params[f"{name}.proj.b"], stride)
            else:
                short = t
            t = relu(inner + short)
    return params["head.w"] @ t.mean(axis=(1, 2)) + params["head.b"]


def check_label(name: str, printed: str, logits, symbols: str) -> list[str]:
    """The printed symbol is the argmax of the reference logits."""
    order = np.argsort(logits)[::-1]
    if logits[order[0]] - logits[order[1]] < LOGIT_TIE_MARGIN:
        return []
    want = symbols[int(order[0])]
    if printed != want:
        return [f"{name}: printed {printed!r}, reference logits "
                f"{np.round(logits, 6).tolist()} give {want!r}"]
    return []


def mean_cross_entropy(logits, labels) -> float:
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -float(np.mean(logp[np.arange(len(labels)), labels]))


def check_gradient(label: str, grads: dict, loss_at, direction: dict
                   ) -> list[str]:
    """Directional derivative of ``grads`` against a central difference.

    ``loss_at(t)`` is the loss at parameters + t * direction.
    """
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in direction)
    numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2.0 * FD_STEP)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
    if not err <= FD_RTOL:
        return [f"{label}: gradient . d = {analytic!r}, central difference "
                f"{numeric!r} (rel err {err:.2e} > {FD_RTOL})"]
    return []


def check_losses(label: str, losses) -> list[str]:
    losses = list(losses)
    if not losses or not all(math.isfinite(v) for v in losses):
        return [f"{label}: non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"{label}: final loss {losses[-1]!r} not below first "
                f"{losses[0]!r}"]
    return []
