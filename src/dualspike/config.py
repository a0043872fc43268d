"""Model and training configuration: dataclasses, size registry, text schema.

The on-disk config format is plain text, one `key = value` per line, `#`
comments allowed. Unknown keys are a hard error: a typo must never silently
train the wrong model. The canonical serialization (sorted keys, normalized
values) is what checkpoint digests are computed over.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .neuron import LIFParams, SurrogateSpec
from .tensor import ConfigError


@dataclass(frozen=True)
class StemSpec:
    kernel: int = 7
    stride: int = 2
    padding: int = 3
    pool: bool = True  # 3x3 stride-2 max pool, padding 1


@dataclass(frozen=True)
class StageSpec:
    d: int
    heads: int
    p: int
    expansion: int = 4
    group_width: int = 64
    blocks: int = 1

    def __post_init__(self):
        if self.d % self.heads:
            raise ConfigError(f"stage width d={self.d} not divisible by heads={self.heads}")
        if self.blocks < 1:
            raise ConfigError(f"stage needs at least one block, got {self.blocks}")
        if (self.d * self.expansion) % self.group_width:
            raise ConfigError(
                f"stage hidden width {self.d * self.expansion} not divisible by group width {self.group_width}"
            )


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
    lif: LIFParams = field(default_factory=LIFParams)
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)

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
        if self.lr <= 0 or self.lr_min < 0 or self.lr_min > self.lr:
            raise ConfigError(f"need 0 <= lr_min <= lr, got lr={self.lr}, lr_min={self.lr_min}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight decay must be >= 0, got {self.weight_decay}")


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

_MODEL_KEYS = {
    "arch": str,
    "input_height": int,
    "input_width": int,
    "in_channels": int,
    "num_classes": int,
    "time_steps": int,
    "stem_kernel": int,
    "stem_stride": int,
    "stem_padding": int,
    "stem_pool": bool,
    "stages": str,  # semicolon-separated d:heads:p:expansion:group_width:blocks
    "tau": float,
    "threshold": float,
    "rest": float,
    "surrogate_kind": str,
    "surrogate_width": float,
}

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
    stages = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) != 6:
            raise ConfigError(f"stage spec {part!r} must be d:heads:p:expansion:group_width:blocks")
        d, heads, p, r, g, blocks = (int(f) for f in fields)
        stages.append(StageSpec(d=d, heads=heads, p=p, expansion=r, group_width=g, blocks=blocks))
    if not stages:
        raise ConfigError("stages key present but empty")
    return tuple(stages)


def model_config_from_values(values: dict) -> ModelConfig:
    """Build a ModelConfig from parsed key/values; `arch` seeds registry defaults."""
    cfg = registry_config(values["arch"]) if "arch" in values else None
    if cfg is None:
        if "stages" not in values:
            raise ConfigError("config must provide either 'arch' or an explicit 'stages' line")
        cfg = ModelConfig(
            name="custom",
            stages=_parse_stages(values["stages"]),
            stem=StemSpec(),
        )
    updates = {}
    stem_updates = {}
    lif_updates = {}
    surr_updates = {}
    for key, val in values.items():
        if key == "arch":
            continue
        elif key == "stages":
            updates["stages"] = _parse_stages(val)
        elif key.startswith("stem_"):
            stem_updates[key.removeprefix("stem_")] = val
        elif key == "tau":
            lif_updates["tau"] = val
        elif key == "threshold":
            lif_updates["u_th"] = val
        elif key == "rest":
            lif_updates["u_rest"] = val
        elif key == "surrogate_kind":
            surr_updates["kind"] = val
        elif key == "surrogate_width":
            surr_updates["width"] = val
        elif key in _MODEL_KEYS:
            updates[key] = val
    if stem_updates:
        updates["stem"] = replace(cfg.stem, **stem_updates)
    if lif_updates:
        updates["lif"] = replace(cfg.lif, **lif_updates)
    if surr_updates:
        updates["surrogate"] = replace(cfg.surrogate, **surr_updates)
    if updates:
        cfg = replace(cfg, **updates)
    return cfg


def train_config_from_values(values: dict) -> TrainConfig:
    kwargs = {k: v for k, v in values.items() if k in _TRAIN_KEYS}
    return TrainConfig(**kwargs)


def canonical_model_text(cfg: ModelConfig) -> str:
    """Normalized, sorted serialization; the checkpoint digest is taken over this."""
    stages = ";".join(
        f"{s.d}:{s.heads}:{s.p}:{s.expansion}:{s.group_width}:{s.blocks}" for s in cfg.stages
    )
    pairs = {
        "in_channels": cfg.in_channels,
        "input_height": cfg.input_height,
        "input_width": cfg.input_width,
        "num_classes": cfg.num_classes,
        "rest": repr(cfg.lif.u_rest),
        "stages": stages,
        "stem_kernel": cfg.stem.kernel,
        "stem_padding": cfg.stem.padding,
        "stem_pool": str(cfg.stem.pool).lower(),
        "stem_stride": cfg.stem.stride,
        "surrogate_kind": cfg.surrogate.kind,
        "surrogate_width": repr(cfg.surrogate.width),
        "tau": repr(cfg.lif.tau),
        "threshold": repr(cfg.lif.u_th),
        "time_steps": cfg.time_steps,
    }
    return "\n".join(f"{k} = {v}" for k, v in sorted(pairs.items())) + "\n"


def config_digest(cfg: ModelConfig) -> str:
    return hashlib.sha256(canonical_model_text(cfg).encode("utf-8")).hexdigest()


def load_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
