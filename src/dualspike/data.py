"""Synthetic multi-class image data for desk-scale training runs.

Each class is a coarse per-channel block pattern upsampled to full
resolution; samples add i.i.d. Gaussian pixel noise on top. Patterns depend
only on SyntheticSpec.seed, so train and test splits share class structure while
drawing disjoint noise streams. Generation is byte-identical across runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import container
from .tensor import CheckpointError, ConfigError, ContractError

_MAGIC = b"DSDS"
_VERSION = 1
_SPLIT_CODES = {"train": 1, "test": 2}


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 10
    channels: int = 3
    height: int = 32
    width: int = 32
    coarse: int = 4
    noise: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        for name in ("channels", "height", "width", "coarse"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.height % self.coarse or self.width % self.coarse:
            raise ConfigError(
                f"coarse grid {self.coarse} must divide {self.height}x{self.width}"
            )
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(f"noise must be finite and non-negative, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"data seed must be non-negative, got {self.seed}")


@dataclass
class Dataset:
    spec: SyntheticSpec
    images: np.ndarray  # [N, C, H, W] float32
    labels: np.ndarray  # [N] int64

    def __len__(self) -> int:
        return self.images.shape[0]


def class_patterns(spec: SyntheticSpec) -> np.ndarray:
    """[classes, C, H, W] unit-std block patterns, a function of spec.seed only."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    raw = rng.standard_normal((spec.classes, spec.channels, spec.coarse, spec.coarse))
    raw /= raw.std(axis=(1, 2, 3), keepdims=True)
    bh = spec.height // spec.coarse
    bw = spec.width // spec.coarse
    return np.kron(raw, np.ones((1, 1, bh, bw)))


def generate_split(spec: SyntheticSpec, count: int, split: str) -> Dataset:
    if split not in _SPLIT_CODES:
        raise ContractError(f"split must be one of {sorted(_SPLIT_CODES)}, got {split!r}")
    if count < 1:
        raise ContractError(f"count must be positive, got {count}")
    patterns = class_patterns(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, _SPLIT_CODES[split]]))
    labels = (np.arange(count) % spec.classes).astype(np.int64)
    labels = labels[rng.permutation(count)]
    images = patterns[labels].astype(np.float32)
    if spec.noise > 0:
        images = images + spec.noise * rng.standard_normal(images.shape).astype(np.float32)
    return Dataset(spec=spec, images=images.astype(np.float32), labels=labels)


def iter_batches(images: np.ndarray, labels: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Yield (images, labels) minibatches in an order that `rng` shuffles."""
    n = images.shape[0]
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield images[idx], labels[idx]


# -- binary container ---------------------------------------------------------

_HEADER = "<IIIIIIdq"  # count, classes, channels, height, width, coarse, noise, seed


def serialize_dataset(ds: Dataset) -> bytes:
    spec = ds.spec
    if ds.images.dtype != np.float32 or ds.labels.dtype != np.int64:
        raise ContractError("dataset container stores float32 images and int64 labels")
    head = struct.pack(
        _HEADER,
        ds.images.shape[0],
        spec.classes,
        spec.channels,
        spec.height,
        spec.width,
        spec.coarse,
        spec.noise,
        spec.seed,
    )
    payload = head + ds.labels.astype("<i8").tobytes() + ds.images.astype("<f4").tobytes()
    return container.pack(_MAGIC, _VERSION, payload)


def save_dataset(path, ds: Dataset) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_dataset(ds))


def load_dataset(path) -> Dataset:
    """Read a dataset container; a header that fails a SyntheticSpec check is a CheckpointError naming the file."""
    r = container.read(path, _MAGIC, _VERSION, f"dataset file {path}")
    count, classes, channels, height, width, coarse, noise, seed = r.unpack(_HEADER)
    try:
        spec = SyntheticSpec(
            classes=classes, channels=channels, height=height, width=width, coarse=coarse, noise=noise, seed=seed
        )
    except ConfigError as exc:
        raise CheckpointError(f"dataset file {path}: header fails a check: {exc}") from None
    labels = r.array("<i8", count).astype(np.int64)
    images = r.array("<f4", count * channels * height * width)
    r.finish()
    images = images.reshape(count, channels, height, width).astype(np.float32)
    return Dataset(spec=spec, images=images, labels=labels)
