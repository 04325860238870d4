"""Experiment configuration: INI file with sections, flags override file values."""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

DATASETS = ("mnist", "emnist", "cifar10", "cifar100", "synthetic")
ALGORITHM_CHOICES = ("sub-fedavg-un", "sub-fedavg-hy", "fedavg", "standalone")
AGGREGATION_CHOICES = ("per-position", "strict-intersection")
DATA_ROOT_ENV = "SUBFED_DATA_ROOT"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    # [experiment]
    algorithm: str = "sub-fedavg-un"
    rounds: int = 50
    seed: int = 0
    output_dir: str = "runs"
    parallelism: int = 1  # per-client worker threads; 0 = every usable CPU

    # [data]
    dataset: str = "synthetic"
    data_root: str = ""
    clients: int = 100
    shard_size: int = 0  # 0 = dataset default (250; 125 for cifar100)
    shards_per_client: int = 2
    val_fraction: float = 0.1
    synth_classes: int = 10
    synth_per_class: int = 600
    synth_test_per_class: int = 100
    synth_separation: float = 0.35

    # [model]
    model: str = ""  # "" = dataset default

    # [training]
    sampling_rate: float = 0.1
    local_epochs: int = 5
    batch_size: int = 10
    learning_rate: float = 0.01
    momentum: float = 0.5

    # [pruning]
    rate_unstructured: float = 10.0
    rate_structured: float = 10.0
    target_unstructured: float = 30.0
    target_structured: float = 50.0
    eps_unstructured: float = 1e-4
    eps_structured: float = 0.05
    acc_threshold: float = 50.0
    aggregation: str = "per-position"

    def resolved_shard_size(self) -> int:
        if self.shard_size:
            return self.shard_size
        return 125 if self.dataset == "cifar100" else 250

    def resolved_model(self) -> str:
        if self.model:
            return self.model
        return {
            "mnist": "cnn5-mnist",
            "emnist": "cnn5-mnist",
            "cifar10": "lenet5-cifar",
            "cifar100": "lenet5-cifar",
            "synthetic": "synth-cnn",
        }[self.dataset]

    def resolved_data_root(self) -> Path | None:
        root = self.data_root or os.environ.get(DATA_ROOT_ENV, "")
        return Path(root) if root else None


_SECTIONS = {
    "experiment": ("algorithm", "rounds", "seed", "output_dir", "parallelism"),
    "data": (
        "dataset", "data_root", "clients", "shard_size", "shards_per_client",
        "val_fraction", "synth_classes", "synth_per_class", "synth_test_per_class",
        "synth_separation",
    ),
    "model": ("model",),
    "training": ("sampling_rate", "local_epochs", "batch_size", "learning_rate", "momentum"),
    "pruning": (
        "rate_unstructured", "rate_structured", "target_unstructured", "target_structured",
        "eps_unstructured", "eps_structured", "acc_threshold", "aggregation",
    ),
}
# [model] holds a single key also called "model"; the file spells it "name"
_FILE_KEY_ALIASES = {("model", "name"): "model"}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(field_name: str, raw: str):
    kind = _FIELD_TYPES[field_name]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"key '{field_name}': cannot parse {raw!r} as {kind}") from None


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def reject(msg):
        raise ConfigError(msg)

    for key, kind in _FIELD_TYPES.items():  # NaN passes every range check below
        if kind == "float" and not math.isfinite(getattr(cfg, key)):
            reject(f"key '{key}': must be a finite number, got {getattr(cfg, key)}")
    if cfg.algorithm not in ALGORITHM_CHOICES:
        reject(f"key 'algorithm': {cfg.algorithm!r} not in {ALGORITHM_CHOICES}")
    if cfg.dataset not in DATASETS:
        reject(f"key 'dataset': {cfg.dataset!r} not in {DATASETS}")
    if cfg.aggregation not in AGGREGATION_CHOICES:
        reject(f"key 'aggregation': {cfg.aggregation!r} not in {AGGREGATION_CHOICES}")
    if cfg.rounds < 1:
        reject(f"key 'rounds': must be >= 1, got {cfg.rounds}")
    if cfg.clients < 1:
        reject(f"key 'clients': must be >= 1, got {cfg.clients}")
    if not 0 < cfg.sampling_rate <= 1:
        reject(f"key 'sampling_rate': must lie in (0, 1], got {cfg.sampling_rate}")
    if cfg.local_epochs < 2:
        reject(f"key 'local_epochs': must be >= 2, got {cfg.local_epochs}")
    if cfg.batch_size < 1:
        reject(f"key 'batch_size': must be >= 1, got {cfg.batch_size}")
    if cfg.learning_rate <= 0:
        reject(f"key 'learning_rate': must be positive, got {cfg.learning_rate}")
    if not 0 <= cfg.momentum < 1:
        reject(f"key 'momentum': must lie in [0, 1), got {cfg.momentum}")
    for key in ("rate_unstructured", "rate_structured"):
        value = getattr(cfg, key)
        if not 0 <= value <= 100:
            reject(f"key '{key}': must lie in [0, 100], got {value}")
    for key in ("target_unstructured", "target_structured"):
        value = getattr(cfg, key)
        if not 0 <= value < 100:
            reject(f"key '{key}': must lie in [0, 100), got {value}")
    for key in ("eps_unstructured", "eps_structured"):
        if getattr(cfg, key) < 0:
            reject(f"key '{key}': must be non-negative")
    if not 0 <= cfg.acc_threshold <= 101:
        reject(f"key 'acc_threshold': must lie in [0, 101], got {cfg.acc_threshold}")
    if not 0 < cfg.val_fraction < 1:
        reject(f"key 'val_fraction': must lie in (0, 1), got {cfg.val_fraction}")
    if cfg.shard_size < 0:
        reject(f"key 'shard_size': must be >= 0, got {cfg.shard_size}")
    if cfg.shards_per_client < 1:
        reject(f"key 'shards_per_client': must be >= 1, got {cfg.shards_per_client}")
    if cfg.parallelism < 0:
        reject(f"key 'parallelism': must be >= 0, got {cfg.parallelism}")
    if cfg.dataset == "synthetic":
        if cfg.synth_classes < 2:
            reject(f"key 'synth_classes': must be >= 2, got {cfg.synth_classes}")
        if cfg.synth_per_class < 1 or cfg.synth_test_per_class < 1:
            reject("keys 'synth_per_class'/'synth_test_per_class': must be >= 1")
        if cfg.synth_separation < 0:
            reject(f"key 'synth_separation': must be >= 0, got {cfg.synth_separation}")
    else:
        if cfg.resolved_data_root() is None:
            reject(
                f"dataset {cfg.dataset!r} needs a data root: set [data] data_root, "
                f"--data-root, or ${DATA_ROOT_ENV}"
            )
    from .engine import Conv, SpecError, builtin_spec

    try:
        spec = builtin_spec(cfg.resolved_model())
    except SpecError as exc:
        raise ConfigError(f"key 'model': {exc}") from exc
    if cfg.algorithm == "sub-fedavg-hy" and not any(
        isinstance(d, Conv) and d.batch_norm for d in spec.layers
    ):
        reject(
            f"key 'algorithm': sub-fedavg-hy needs a model with BN conv layers, "
            f"and {spec.name!r} has none"
        )
    return cfg


def parse_config(path: str | Path | None = None, overrides: dict | None = None
                 ) -> ExperimentConfig:
    """Build a validated config: paper defaults, then the INI file, then overrides."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(
                    f"{path}: unknown section [{section}]; expected {sorted(_SECTIONS)}"
                )
            for key, raw in parser.items(section):
                field_name = _FILE_KEY_ALIASES.get((section, key), key)
                if field_name not in _SECTIONS[section]:
                    raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
                values[field_name] = _coerce(field_name, raw)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key '{key}'")
            values[key] = value
    return _validate(ExperimentConfig(**values))


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize the resolved config (provenance echo embedded in run outputs)."""
    lines = []
    for section, keys in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            file_key = "name" if (section, key) == ("model", "model") else key
            lines.append(f"{file_key} = {getattr(cfg, key)}")
        lines.append("")
    return "\n".join(lines)
