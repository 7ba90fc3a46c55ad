"""Pipeline configuration: one JSON document holding every tunable default.

Each knob that the algorithms leave open (cutoffs, band limits, lengths,
scale counts, network and training shapes, the seed) is a field of a frozen
dataclass beside the code that reads it; ``PipelineConfig`` nests them all,
so a single file pins a reproducible run. ``load(save(cfg)) == cfg`` exactly.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

from ecgscalo.classifier import NetworkConfig, TrainConfig
from ecgscalo.dsp import ButterworthConfig
from ecgscalo.featurize import GateConfig
from ecgscalo.ingest import DEFAULT_FS
from ecgscalo.rpeak import DetectorConfig
from ecgscalo.scalogram import ScalogramConfig


@dataclass(frozen=True)
class PipelineConfig:
    fs_default: float = DEFAULT_FS  # rate of records without sidecar or header
    butterworth: ButterworthConfig = field(default_factory=ButterworthConfig)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    feature_length: int = 1024
    scalogram: ScalogramConfig = field(default_factory=ScalogramConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    training: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.fs_default > 0:
            raise ValueError("fs_default must be positive")
        if self.feature_length < 2:
            raise ValueError("feature_length must be >= 2")
        if (self.scalogram.num_scales % self.network.input_height
                or self.feature_length % self.network.input_width):
            raise ValueError(
                f"scalogram {self.scalogram.num_scales}x{self.feature_length}"
                f" must be an integer multiple of the network input "
                f"{self.network.input_height}x{self.network.input_width}")

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, training=replace(self.training, seed=seed))


def _fits(hint, value) -> bool:
    """Whether a JSON value has the type of a field annotated ``hint``."""
    if is_dataclass(hint):
        return isinstance(value, dict)
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_fits(item, v) for v in value)
    if hint in (int, float):  # a bool is no number; an int is a float
        kinds = (int, float) if hint is float else int
        return isinstance(value, kinds) and not isinstance(value, bool)
    return True  # an unknown key: the constructor names it


def _from_dict(cls, d: dict):
    """Rebuild dataclass ``cls``, and each dataclass field, from ``asdict``;
    a value of the wrong JSON type raises TypeError naming ``Class.field``."""
    hints = typing.get_type_hints(cls)
    for k, v in d.items():
        if not _fits(hints.get(k), v):
            raise TypeError(f"{cls.__name__}.{k} cannot be {json.dumps(v)}")
    return cls(**{k: _from_dict(hints[k], v)
                  if is_dataclass(hints.get(k)) else v
                  for k, v in d.items()})


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(cfg), indent=2),
                          encoding="utf-8")


def load_config(path) -> PipelineConfig:
    return _from_dict(PipelineConfig,
                      json.loads(Path(path).read_text(encoding="utf-8")))
