"""Experiment configuration: INI file with sections, flags override file values."""

from __future__ import annotations

import configparser
import math
import operator
import os
from dataclasses import Field, dataclass, field, fields
from pathlib import Path

DATASETS = ("mnist", "emnist", "cifar10", "cifar100", "synthetic")
ALGORITHM_CHOICES = ("sub-fedavg-un", "sub-fedavg-hy", "fedavg", "standalone")
AGGREGATION_CHOICES = ("per-position", "strict-intersection")
DATA_ROOT_ENV = "SUBFED_DATA_ROOT"


class ConfigError(ValueError):
    pass


def _key(section: str, default, **meta):
    """A config field and where it is set from: its INI `section`, and in
    `meta` any of `flag` (its `subfed run` option, if not `--<name-with-dashes>`;
    None for none), `choices`, `ini_key` (its INI key, if not its name) and
    the bounds `ge`, `gt`, `le`, `lt` its value must keep (see `_BOUNDS`)."""
    return field(default=default, metadata=dict(meta, section=section))


@dataclass
class ExperimentConfig:
    algorithm: str = _key("experiment", "sub-fedavg-un", choices=ALGORITHM_CHOICES)
    rounds: int = _key("experiment", 50, ge=1)
    seed: int = _key("experiment", 0)
    output_dir: str = _key("experiment", "runs", flag="--out")
    parallelism: int = _key("experiment", 1, ge=0)  # per-client worker threads; 0 = every usable CPU

    dataset: str = _key("data", "synthetic", choices=DATASETS)
    data_root: str = _key("data", "")
    clients: int = _key("data", 100, ge=1)
    shard_size: int = _key("data", 0, ge=0)  # 0 = dataset default (250; 125 for cifar100)
    shards_per_client: int = _key("data", 2, ge=1)
    val_fraction: float = _key("data", 0.1, flag=None, gt=0, lt=1)
    synth_classes: int = _key("data", 10, ge=2)
    synth_per_class: int = _key("data", 600, ge=1)
    synth_test_per_class: int = _key("data", 100, ge=1)
    synth_separation: float = _key("data", 0.35, ge=0)

    model: str = _key("model", "", ini_key="name")  # "" = dataset default

    sampling_rate: float = _key("training", 0.1, gt=0, le=1)
    local_epochs: int = _key("training", 5, flag="--epochs", ge=2)
    batch_size: int = _key("training", 10, ge=1)
    learning_rate: float = _key("training", 0.01, flag="--lr", gt=0)
    momentum: float = _key("training", 0.5, ge=0, lt=1)

    rate_unstructured: float = _key("pruning", 10.0, flag="--r-us", ge=0, le=100)
    rate_structured: float = _key("pruning", 10.0, flag="--r-s", ge=0, le=100)
    target_unstructured: float = _key("pruning", 30.0, flag="--p-us", ge=0, lt=100)
    target_structured: float = _key("pruning", 50.0, flag="--p-s", ge=0, lt=100)
    eps_unstructured: float = _key("pruning", 1e-4, flag="--eps-us", ge=0)
    eps_structured: float = _key("pruning", 0.05, flag="--eps-s", ge=0)
    acc_threshold: float = _key("pruning", 50.0, flag="--acc-th", ge=0, le=101)
    aggregation: str = _key("pruning", "per-position", choices=AGGREGATION_CHOICES)

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

    def resolved_parallelism(self) -> int:
        """Worker count: `parallelism`, or for 0 every CPU this process may
        run on."""
        if self.parallelism:
            return self.parallelism
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def validation_size(self, examples: int) -> int:
        """How many of a client's `examples` it holds out as its validation split."""
        return max(1, int(round(self.val_fraction * examples)))


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
# section -> {INI key: field}, in declaration order
_INI_KEYS: dict[str, dict] = {}
for _f in _FIELDS.values():
    _INI_KEYS.setdefault(_f.metadata["section"], {})[_f.metadata.get("ini_key", _f.name)] = _f
# a field's bound -> (the test its value must pass, the bound's sign in a message)
_BOUNDS = {"ge": (operator.ge, ">="), "gt": (operator.gt, ">"),
           "le": (operator.le, "<="), "lt": (operator.lt, "<")}
# how an int or float field's value is read from text (an INI value, a flag);
# a str field takes the text as it is
VALUE_TYPES = {"int": int, "float": float}


def run_flag(f: Field) -> str | None:
    """A field's `subfed run` option, or None if it is set only from a file."""
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def parse_value(key: str, raw: str):
    """A config key's value read from text, as its field's type."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown config key '{key}'")
    kind = _FIELDS[key].type
    try:
        return VALUE_TYPES.get(kind, str)(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse {raw!r} as {kind}") from None


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def reject(msg):
        raise ConfigError(msg)

    for key, f in _FIELDS.items():
        value = getattr(cfg, key)
        if f.type == "float" and not math.isfinite(value):
            reject(f"key '{key}': must be a finite number, got {value}")
        for bound, (holds, sign) in _BOUNDS.items():
            if bound in f.metadata and not holds(value, f.metadata[bound]):
                reject(f"key '{key}': must be {sign} {f.metadata[bound]}, got {value}")
        choices = f.metadata.get("choices")
        if choices and value not in choices:
            reject(f"key '{key}': {value!r} not in {choices}")
    examples = cfg.resolved_shard_size() * cfg.shards_per_client
    if cfg.validation_size(examples) == examples:
        reject(
            f"keys 'shard_size'/'shards_per_client'/'val_fraction': all {examples} of a "
            f"client's examples go to its validation split, leaving none to train on"
        )
    if cfg.dataset != "synthetic" and cfg.resolved_data_root() is None:
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
    if cfg.dataset == "synthetic":  # the split sizes of a file dataset show when it is read
        train = cfg.synth_per_class - cfg.synth_test_per_class  # per class
        if train < 1:
            reject(
                f"keys 'synth_per_class'/'synth_test_per_class': holding out "
                f"{cfg.synth_test_per_class} test examples of each class's "
                f"{cfg.synth_per_class} leaves none to train on"
            )
        shards = cfg.synth_classes * train // cfg.resolved_shard_size()
        if shards < cfg.clients * cfg.shards_per_client:
            reject(
                f"keys 'clients'/'shards_per_client'/'shard_size'/'synth_classes'/"
                f"'synth_per_class'/'synth_test_per_class': {cfg.clients} clients of "
                f"{cfg.shards_per_client} shards need {cfg.clients * cfg.shards_per_client} "
                f"shards of {cfg.resolved_shard_size()}, and the synthetic train split of "
                f"{cfg.synth_classes} x {train} examples holds {shards}"
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
            if section not in _INI_KEYS:
                raise ConfigError(
                    f"{path}: unknown section [{section}]; expected {sorted(_INI_KEYS)}"
                )
            for key, raw in parser.items(section):
                if key not in _INI_KEYS[section]:
                    raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
                name = _INI_KEYS[section][key].name
                values[name] = parse_value(name, raw)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _FIELDS:
                raise ConfigError(f"unknown config key '{key}'")
            values[key] = value
    return _validate(ExperimentConfig(**values))


def config_to_ini(cfg: ExperimentConfig) -> str:
    """Serialize the resolved config (provenance echo embedded in run outputs)."""
    lines = []
    for section, keys in _INI_KEYS.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {getattr(cfg, f.name)}" for key, f in keys.items())
        lines.append("")
    return "\n".join(lines)
