"""Model and training configuration: dataclasses, size registry, text schema.

`StageSpec` is the one stage description: config files, digests and the
model's attention and feed-forward modules all read it, and it holds every
check on a stage's own numbers (`model.stage_sizes` checks that p divides the
stage's map). `neuron.NeuronSpec` is likewise the one neuron description:
the five neuron keys (`tau`, `threshold`, `rest`, `surrogate_kind`,
`surrogate_width`) all map to `ModelConfig.neuron`.

The on-disk config format is plain text, one `key = value` per line, `#`
comments allowed. Unknown keys are a hard error: a typo must never silently
train the wrong model. One table, `_MODEL_FIELDS`, maps each model key to its
`ModelConfig` field and type; `model_config_from_values` and the canonical
serialization both read it. The canonical serialization (sorted keys,
normalized values) is what checkpoint digests are computed over.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .neuron import NeuronSpec
from .tensor import ConfigError


@dataclass(frozen=True)
class StemSpec:
    kernel: int = 7
    stride: int = 2
    padding: int = 3
    pool: bool = True  # 3x3 stride-2 max pool, padding 1

    def __post_init__(self):
        if self.kernel < 1 or self.stride < 1 or self.padding < 0:
            raise ConfigError(
                f"stem needs kernel >= 1, stride >= 1 and padding >= 0, got "
                f"kernel={self.kernel}, stride={self.stride}, padding={self.padding}"
            )


@dataclass(frozen=True)
class StageSpec:
    """One row of the architecture table; its stage's blocks are built from it and the stage's map size."""

    d: int
    heads: int
    p: int
    expansion: int = 4
    group_width: int = 64
    blocks: int = 1

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"stage {f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.d % self.heads:
            raise ConfigError(f"stage width d={self.d} not divisible by heads={self.heads}")
        if self.hidden % self.group_width:
            raise ConfigError(f"stage hidden width {self.hidden} not divisible by group width {self.group_width}")

    @property
    def d_head(self) -> int:
        return self.d // self.heads

    @property
    def hidden(self) -> int:
        """The FFN's expanded width d * R."""
        return self.d * self.expansion

    @property
    def groups(self) -> int:
        """Channel groups of the FFN's group-wise conv."""
        return self.hidden // self.group_width


@dataclass(frozen=True)
class ModelConfig:
    name: str = "custom"
    input_height: int = 224
    input_width: int = 224
    in_channels: int = 3
    num_classes: int = 1000
    time_steps: int = 4
    stem: StemSpec = field(default_factory=StemSpec)
    stages: tuple = ()
    neuron: NeuronSpec = field(default_factory=NeuronSpec)

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("model needs at least one stage")
        if self.time_steps < 1:
            raise ConfigError(f"time_steps must be >= 1, got {self.time_steps}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    lr: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.01
    seed: int = 0
    # stop once the running train accuracy reaches this level, if set
    target_train_acc: float | None = None

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ConfigError(f"training seed must be non-negative, got {self.seed}")
        for name in ("lr", "lr_min", "weight_decay", "target_train_acc"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"training {name} must be finite, got {value}")
        if self.lr <= 0 or self.lr_min < 0 or self.lr_min > self.lr:
            raise ConfigError(f"need 0 <= lr_min <= lr, got lr={self.lr}, lr_min={self.lr_min}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight decay must be >= 0, got {self.weight_decay}")
        if self.target_train_acc is not None and not 0.0 <= self.target_train_acc <= 1.0:
            raise ConfigError(f"training target_train_acc must lie in [0, 1], got {self.target_train_acc}")


_IMAGENET_STEM = StemSpec(kernel=7, stride=2, padding=3, pool=True)
_SMALL_STEM = StemSpec(kernel=3, stride=1, padding=1, pool=False)


def _imagenet(name, widths, heads):
    stages = tuple(
        StageSpec(d=w, heads=h, p=p, blocks=b) for w, h, p, b in zip(widths, heads, (4, 2, 1), (1, 2, 3))
    )
    return ModelConfig(name=name, stem=_IMAGENET_STEM, stages=stages)


REGISTRY = {
    "Ti": _imagenet("Ti", (64, 192, 384), (1, 3, 6)),
    "S": _imagenet("S", (64, 256, 512), (1, 4, 8)),
    "M": _imagenet("M", (64, 384, 768), (1, 6, 12)),
    "L": _imagenet("L", (128, 512, 1024), (1, 8, 16)),
    "Nano": ModelConfig(
        name="Nano",
        input_height=32,
        input_width=32,
        num_classes=10,
        stem=_SMALL_STEM,
        stages=(
            StageSpec(d=32, heads=1, p=4),
            StageSpec(d=64, heads=2, p=2),
            StageSpec(d=128, heads=4, p=1),
        ),
    ),
}


def registry_config(arch: str) -> ModelConfig:
    if arch not in REGISTRY:
        raise ConfigError(f"unknown architecture {arch!r}; registry has {sorted(REGISTRY)}")
    return REGISTRY[arch]


# -- text schema --------------------------------------------------------------

# key -> (part of ModelConfig, or None for a top-level field; field; type)
_MODEL_FIELDS = {
    "input_height": (None, "input_height", int),
    "input_width": (None, "input_width", int),
    "in_channels": (None, "in_channels", int),
    "num_classes": (None, "num_classes", int),
    "time_steps": (None, "time_steps", int),
    "stem_kernel": ("stem", "kernel", int),
    "stem_stride": ("stem", "stride", int),
    "stem_padding": ("stem", "padding", int),
    "stem_pool": ("stem", "pool", bool),
    "stages": (None, "stages", str),  # semicolon-separated d:heads:p:expansion:group_width:blocks
    "tau": ("neuron", "tau", float),
    "threshold": ("neuron", "u_th", float),
    "rest": ("neuron", "u_rest", float),
    "surrogate_kind": ("neuron", "surrogate", str),
    "surrogate_width": ("neuron", "width", float),
}

_MODEL_KEYS = {"arch": str, **{key: kind for key, (_, _, kind) in _MODEL_FIELDS.items()}}

_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "lr": float,
    "lr_min": float,
    "weight_decay": float,
    "seed": int,
    "target_train_acc": float,
}

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_value(key: str, raw: str, kind):
    try:
        if kind is bool:
            word = raw.strip().lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[word]
        return kind(raw.strip())
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw.strip()!r} as {kind.__name__}") from exc


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; unknown keys and malformed lines are hard errors."""
    values = {}
    known = {**_MODEL_KEYS, **_TRAIN_KEYS}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, known[key])
    return values


def _parse_stages(raw: str) -> tuple:
    names = [f.name for f in fields(StageSpec)]
    stages = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            numbers = [int(f) for f in part.split(":")]
        except ValueError:
            numbers = []
        if len(numbers) != len(names):
            raise ConfigError(f"stage spec {part!r} must be {':'.join(names)} integers")
        stages.append(StageSpec(*numbers))
    if not stages:
        raise ConfigError("stages key present but empty")
    return tuple(stages)


def model_config_from_values(values: dict) -> ModelConfig:
    """Build a ModelConfig from parsed key/values; `arch` seeds registry defaults."""
    cfg = registry_config(values["arch"]) if "arch" in values else None
    updates, parts = {}, {}
    for key, val in values.items():
        if key not in _MODEL_FIELDS:
            continue  # `arch` and the training keys
        part, name, _ = _MODEL_FIELDS[key]
        if key == "stages":
            val = _parse_stages(val)
        (updates if part is None else parts.setdefault(part, {}))[name] = val
    if cfg is None:
        if "stages" not in updates:
            raise ConfigError("config must provide either 'arch' or an explicit 'stages' line")
        cfg = ModelConfig(name="custom", stages=updates["stages"])
    for part, changes in parts.items():
        updates[part] = replace(getattr(cfg, part), **changes)
    return replace(cfg, **updates) if updates else cfg


def train_config_from_values(values: dict) -> TrainConfig:
    kwargs = {k: v for k, v in values.items() if k in _TRAIN_KEYS}
    return TrainConfig(**kwargs)


def _text_value(key: str, kind, value) -> str:
    if key == "stages":
        return ";".join(":".join(str(getattr(s, f.name)) for f in fields(s)) for s in value)
    if kind is bool:
        return str(value).lower()
    return repr(value) if kind is float else str(value)


def canonical_model_text(cfg: ModelConfig) -> str:
    """Normalized, sorted serialization; the checkpoint digest is taken over this."""
    lines = []
    for key, (part, name, kind) in sorted(_MODEL_FIELDS.items()):
        value = getattr(cfg if part is None else getattr(cfg, part), name)
        lines.append(f"{key} = {_text_value(key, kind, value)}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: ModelConfig) -> str:
    return hashlib.sha256(canonical_model_text(cfg).encode("utf-8")).hexdigest()


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path}: text is not valid UTF-8") from None
    return parse_config_text(text)
