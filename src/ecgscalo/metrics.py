"""Confusion matrix, per-class precision/recall, and challenge-style F1.

Class order everywhere is (Normal, AF, Other, Noise). Ratios with a zero
denominator are reported as ``None`` rather than silently coerced to zero,
so averaged scores never hide an empty class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ecgscalo.ingest import EcgClass

_CLASS_NAMES = [c.name for c in EcgClass]


@dataclass
class MetricsReport:
    precision: list[float | None]
    recall: list[float | None]
    f1: list[float | None]
    mean3: float | None  # Normal/AF/Other average, the challenge convention
    mean4: float | None

    def to_json(self) -> str:
        return json.dumps({
            "classes": _CLASS_NAMES,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "mean3": self.mean3,
            "mean4": self.mean4,
        }, indent=2)


def confusion(preds, labels) -> np.ndarray:
    """4x4 count matrix: rows are true classes, columns predictions."""
    preds = [int(p) for p in preds]
    labels = [int(t) for t in labels]
    if len(preds) != len(labels):
        raise ValueError(
            f"{len(preds)} predictions vs {len(labels)} labels")
    for v in (*preds, *labels):
        if not 0 <= v < 4:
            raise ValueError(f"class {v} is not one of 0..3")
    cm = np.zeros((4, 4), dtype=np.int64)
    for t, p in zip(labels, preds):
        cm[t, p] += 1
    return cm


def precision_recall(cm) -> tuple[list[float | None], list[float | None]]:
    cm = np.asarray(cm)
    precision: list[float | None] = []
    recall: list[float | None] = []
    for c in range(4):
        col = int(cm[:, c].sum())
        row = int(cm[c, :].sum())
        precision.append(int(cm[c, c]) / col if col else None)
        recall.append(int(cm[c, c]) / row if row else None)
    return precision, recall


def challenge_f1(cm) -> MetricsReport:
    """F1_c = 2 cm[c][c] / (row-sum_c + column-sum_c), plus both averages.

    ``mean3`` follows the competition ranking (Noise excluded); ``mean4``
    averages all four. An average is ``None`` if any constituent F1 is
    undefined.
    """
    cm = np.asarray(cm)
    precision, recall = precision_recall(cm)
    f1: list[float | None] = []
    for c in range(4):
        denom = int(cm[c, :].sum()) + int(cm[:, c].sum())
        f1.append(2.0 * int(cm[c, c]) / denom if denom else None)

    def mean_of(values):
        if any(v is None for v in values):
            return None
        return float(np.mean(values))

    return MetricsReport(precision=precision, recall=recall, f1=f1,
                         mean3=mean_of(f1[:3]), mean4=mean_of(f1))


def format_confusion(cm) -> str:
    """Aligned text table with class names on both axes."""
    cm = np.asarray(cm)
    width = max(len(n) for n in _CLASS_NAMES) + 2
    head = " " * width + "".join(f"{n:>{width}}" for n in _CLASS_NAMES)
    lines = [head]
    for c in range(4):
        row = "".join(f"{int(v):>{width}}" for v in cm[c])
        lines.append(f"{_CLASS_NAMES[c]:>{width}}" + row)
    return "\n".join(lines)
