"""Multi-stage spiking vision network assembly and checkpoint I/O.

Feature maps flow between modules as real-valued currents shaped
[T, B, C, H, W]; every module re-spikes its input through its own LIF layer.
Images enter by direct encoding (the same frame repeated at every step) and
leave as per-step logits averaged over the time axis.

`eval_chunks` cuts a batch into near-equal chunks of 2-3 images
(EVAL_CHUNK_IMAGES sets the count): `predict` forwards each caller batch in
them, and the SOP audit traces each one on its own. At batch 64 the FFN's
hidden activation in Nano's stage 1 is about 134 MB, which glibc maps,
faults in and unmaps afresh for every op; a chunk's activations stay in
cache. In eval mode BN reads its running statistics and attention its rate
EMAs, or each image's own rate while an EMA is uninitialized, so an image's
logits do not depend on the other images of its forward, and the chunks give
the bits of one whole-batch forward. A batch of more than one image is never
cut into one-image chunks: a one-image forward lands on OpenBLAS's
small-matrix kernel, which rounds differently.

`_map_chunks` runs such chunks, and the audit's event replay its layers, on
the process's pinned workers (`parallel`): one per usable core, with NumPy's
bundled OpenBLAS at one thread from the pool's first start on. NumPy's loops
release the GIL, and with a chunk's arrays in cache the threads do not
serialise on the page faults of fresh large arrays. A chunk's own ops run in
its worker, unsplit. The logits are the same bits at one and at two OpenBLAS
threads, and at any worker count. Where the pool does not start (one usable
core, or an OpenBLAS whose thread count cannot be set) the chunks run in the
calling thread: threads that each drive a multi-threaded BLAS were slower
than one thread. Forwards also run there while `DualSpikeNet.forward` is
wrapped on the class, as a tracer or profiler does for every instance at
once: such a wrapper usually keeps one stack of open calls per process, which
overlapping forwards would corrupt.
"""

from __future__ import annotations

import copy
import struct

import numpy as np

from . import container, ops, parallel
from .attention import MultiHeadDualSpikeAttention
from .config import (
    ModelConfig, StageSpec, canonical_model_text, model_config_from_values, parse_config_text, registry_config,
)
from .ffn import GroupWiseFeedForward
from .layers import Conv2d, Linear, Module, RunContext, SpikingNeuron, synaptic_conv
from .neuron import NeuronSpec
from .ops import conv_output_size
from .tensor import (
    CheckpointError,
    ConfigError,
    ContractError,
    ShapeError,
    Tensor,
    add,
    no_grad,
    reshape,
    tensor_mean,
)

EVAL_CHUNK_IMAGES = 2  # images per chunk of an eval forward (2-3); keeps each activation in cache


def _map_chunks(fn, chunks: list, serial: bool = False) -> list:
    """[fn(c) for c in chunks], over the process's pinned workers (`parallel.run`), or in the
    calling thread when `serial` is set or `parallel.run` keeps the work there."""
    return [fn(c) for c in chunks] if serial else parallel.run(fn, chunks)


def eval_chunks(images) -> list:
    """One batch's max(1, m // EVAL_CHUNK_IMAGES) near-equal chunks of its m images, the larger first:
    5 images give 3 and 2, and a batch of 2-3 images stays whole."""
    bounds = ops.split_bounds(len(images), max(1, len(images) // EVAL_CHUNK_IMAGES))
    return [images[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def stage_sizes(cfg: ModelConfig) -> list:
    """(height, width) of each stage's feature map: stem conv, optional 3x3/2 pool, 3x3/2 downsamples.

    A stem or downsample that does not fit, or a p that does not divide the map, is a ConfigError naming the stage.
    """

    def shrink(hw, where, kernel, stride, padding):
        try:
            return tuple(conv_output_size(s, kernel, stride, padding) for s in hw)
        except ShapeError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    stem = cfg.stem
    hw = shrink((cfg.input_height, cfg.input_width), "stage 1 stem", stem.kernel, stem.stride, stem.padding)
    if stem.pool:
        hw = shrink(hw, "stage 1 stem pool", 3, 2, 1)
    sizes = []
    for i, spec in enumerate(cfg.stages):
        if i > 0:
            hw = shrink(hw, f"stage {i + 1} downsample", 3, 2, 1)
        if hw[0] % spec.p or hw[1] % spec.p:
            raise ConfigError(f"stage {i + 1}: patch size p={spec.p} must divide the {hw[0]}x{hw[1]} feature map")
        sizes.append(hw)
    return sizes


class Stem(Module):
    """Entry conv + BN (+ optional 3x3/2 max pool) on each step's real input."""

    def __init__(self, name, cfg: ModelConfig, *, rng, dtype):
        spec = cfg.stem
        self.conv = Conv2d(
            f"{name}.conv", cfg.in_channels, cfg.stages[0].d, spec.kernel,
            stride=spec.stride, padding=spec.padding, rng=rng, dtype=dtype,
        )
        self.bn = ops.BatchNormState(f"{name}.bn", cfg.stages[0].d, dtype=dtype)
        self.pool = spec.pool
        self.name = name

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        t, b = x.data.shape[:2]
        flat = reshape(x, (t * b,) + x.data.shape[2:])
        ctx.record(self.name, "stem", flat.data, None, conv=self.conv, bn=self.bn)
        out = ops.batchnorm(self.conv.forward(flat), self.bn, ctx.training)
        if self.pool:
            out = ops.maxpool2d(out, 3, 2, padding=1)
        return reshape(out, (t, b) + out.data.shape[1:])


class Downsample(Module):
    """Stage transition: SN -> 3x3 stride-2 conv -> BN."""

    def __init__(self, name, d_in, d_out, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.lif = SpikingNeuron(neuron)
        self.conv = Conv2d(f"{name}.conv", d_in, d_out, 3, stride=2, padding=1, rng=rng, dtype=dtype)
        self.bn = ops.BatchNormState(f"{name}.bn", d_out, dtype=dtype)

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        return synaptic_conv(self.name, x, self.conv, self.bn, ctx, self.lif)


class Classifier(Module):
    """SN -> global average pool -> FC per step; logits averaged over steps."""

    def __init__(self, name, d_in, num_classes, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.lif = SpikingNeuron(neuron)
        self.fc = Linear(f"{name}.fc", d_in, num_classes, rng=rng, dtype=dtype)

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        s = self.lif.forward(x, ctx)
        pooled = tensor_mean(s, axis=(3, 4), dtype=self.fc.weight.data.dtype)  # [T, B, D]
        logits = ctx.record(self.name, "linear", s, self.fc.forward(pooled), fc=self.fc)  # [T, B, classes]
        return tensor_mean(logits, axis=0)


class DualSpikeBlock(Module):
    """Attention and feed-forward sublayers with residual currents."""

    def __init__(self, name, spec: StageSpec, size: tuple, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.attn = MultiHeadDualSpikeAttention(f"{name}.attn", spec, size, neuron, rng=rng, dtype=dtype)
        self.ffn = GroupWiseFeedForward(f"{name}.ffn", spec, neuron, rng=rng, dtype=dtype)

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        y = add(self.attn.forward(x, ctx), x)
        return add(self.ffn.forward(y, ctx), y)


class DualSpikeNet(Module):
    """Stem, per-stage downsample (from stage 2 on) and blocks, classifier.

    `body` holds them as one flat list in forward order, and `forward` runs it.
    """

    def __init__(self, cfg: ModelConfig, *, dtype=np.float32, seed: int = 0):
        self.config = cfg
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ConfigError(f"model dtype must be float32 or float64, got {self.dtype}")
        rng = np.random.default_rng(seed)

        self.stage_sizes = stage_sizes(cfg)
        self.body = [Stem("stem", cfg, rng=rng, dtype=dtype)]
        for i, (spec, size) in enumerate(zip(cfg.stages, self.stage_sizes)):
            if i > 0:
                prev = cfg.stages[i - 1]
                self.body.append(Downsample(f"stage{i + 1}.down", prev.d, spec.d, cfg.neuron, rng=rng, dtype=dtype))
            self.body.extend(
                DualSpikeBlock(f"stage{i + 1}.block{j}", spec, size, cfg.neuron, rng=rng, dtype=dtype)
                for j in range(spec.blocks)
            )
        self.body.append(Classifier("classifier", cfg.stages[-1].d, cfg.num_classes, cfg.neuron, rng=rng, dtype=dtype))
        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ConfigError("parameter names are not unique")

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def param_table(self):
        """Per-parameter size listing, construction order."""
        return [(p.name, int(p.data.size)) for p in self.parameters()]

    # -- forward ---------------------------------------------------------

    def encode(self, images: np.ndarray) -> Tensor:
        """Direct encoding: replicate each frame across the time axis."""
        arr, cfg = np.asarray(images, dtype=self.dtype), self.config
        if arr.shape[1:] != (cfg.in_channels, cfg.input_height, cfg.input_width):  # any rank but 4 too
            raise ShapeError(
                f"expected images [B,{cfg.in_channels},{cfg.input_height},{cfg.input_width}], got {arr.shape}")
        if arr.shape[0] == 0:
            raise ShapeError(f"expected at least one image, got an empty batch of shape {arr.shape}")
        tiled = np.broadcast_to(arr[None], (cfg.time_steps,) + arr.shape)
        return Tensor(np.ascontiguousarray(tiled))

    def forward(self, images, ctx: RunContext) -> Tensor:
        x = self.encode(images)
        for module in self.body:
            x = module.forward(x, ctx)
        return x

    def predict(self, images, batch_size: int = 64) -> np.ndarray:
        """Class predictions without tape recording, `batch_size` images per caller batch.

        Each caller batch is forwarded in its `eval_chunks`, whose logits equal one forward of
        the batch bit for bit. The chunks of all caller batches run through `map_eval`.
        """
        if batch_size < 1:
            raise ContractError(f"batch size must be at least 1, got {batch_size}")
        images = np.asarray(images)
        chunks = [c for i in range(0, images.shape[0], batch_size) for c in eval_chunks(images[i : i + batch_size])]
        outs = self.map_eval(self._classify, chunks)
        return np.concatenate(outs) if outs else np.empty(0, dtype=np.int64)

    def map_eval(self, fn, chunks: list) -> list:
        """[fn(c) for c in chunks] without tape recording, on the process's workers (`_map_chunks`).
        They run in the calling thread where the pool does not start or while `forward` is wrapped
        on the class (a tracer's wrapper keeps one stack of open calls, which overlapping forwards
        would corrupt)."""
        with no_grad():  # the flag is a module global: set here once, read by every worker
            return _map_chunks(fn, chunks, serial=type(self).forward is not _FORWARD)

    def _classify(self, images) -> np.ndarray:
        return np.argmax(self.forward(images, RunContext(training=False)).data, axis=1)

    # -- state -----------------------------------------------------------

    def state_tensors(self):
        """Ordered name -> ndarray of everything persisted except EMAs."""
        entries = []
        for p in self.parameters():
            entries.append((p.name, p.data))
        for s in self.bn_states():
            entries.append((f"{s.name}.running_mean", s.running_mean))
            entries.append((f"{s.name}.running_var", s.running_var))
        return entries

    def snapshot(self):
        """`load_state` arguments holding the current state: a restore point."""
        tensors = {name: arr.copy() for name, arr in self.state_tensors()}
        emas = {e.name: (e.initialized, e.value) for e in self.rate_emas()}
        return tensors, emas

    def astype(self, dtype) -> "DualSpikeNet":
        """A copy of this model in float `dtype`, with its parameters, BN statistics and rate EMAs
        converted and zeroed gradients. It shares no array with this model and draws no weights."""
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ConfigError(f"model dtype must be float32 or float64, got {dtype}")
        memo = {}  # deepcopy takes each array from here: converted once, never copied in the old dtype
        for p in self.parameters():
            memo[id(p.data)] = p.data.astype(dtype)
            memo[id(p.grad)] = np.zeros(p.data.shape, dtype=dtype)
        for s in self.bn_states():
            memo[id(s.running_mean)] = s.running_mean.astype(dtype)
            memo[id(s.running_var)] = s.running_var.astype(dtype)
        twin = copy.deepcopy(self, memo)
        twin.dtype = dtype
        for e in twin.rate_emas():
            e.dtype = dtype
        return twin

    def load_state(self, tensors: dict, emas: dict):
        """Replace every parameter, BN statistic and rate EMA, or raise CheckpointError having changed nothing.

        Every name, shape and EMA entry (a rate in [0, 1]) is checked before the first write.
        """
        own = dict(self.state_tensors())
        if set(own) != set(tensors):
            missing = sorted(set(own) - set(tensors))
            extra = sorted(set(tensors) - set(own))
            raise CheckpointError(f"state name mismatch: missing={missing[:4]}, unexpected={extra[:4]}")
        for name, arr in own.items():
            if tensors[name].shape != arr.shape:
                raise CheckpointError(f"tensor {name}: shape {tensors[name].shape} != expected {arr.shape}")
        model_emas = {e.name: e for e in self.rate_emas()}
        if set(model_emas) != set(emas):
            missing = sorted(set(model_emas) - set(emas))
            raise CheckpointError(f"checkpoint lacks firing-rate EMA entries: {missing[:6]}")
        for name, (_, value) in emas.items():
            if not 0.0 <= value <= 1.0:  # false for NaN too
                raise CheckpointError(f"firing-rate EMA {name}: value {value} must be finite and lie in [0, 1]")
        for p in self.parameters():
            p.data = tensors[p.name].astype(self.dtype, copy=True)
            p.grad = np.zeros_like(p.data)
        for s in self.bn_states():
            s.running_mean = tensors[f"{s.name}.running_mean"].astype(s.running_mean.dtype, copy=True)
            s.running_var = tensors[f"{s.name}.running_var"].astype(s.running_var.dtype, copy=True)
        for name, (initialized, value) in emas.items():
            est = model_emas[name]
            est.initialized = bool(initialized)
            est.value = float(value)


_FORWARD = DualSpikeNet.forward  # the package's own forward; `map_eval` runs a class-level wrapper serially


def build(cfg_or_arch, *, dtype=np.float32, seed: int = 0) -> DualSpikeNet:
    cfg = registry_config(cfg_or_arch) if isinstance(cfg_or_arch, str) else cfg_or_arch
    return DualSpikeNet(cfg, dtype=dtype, seed=seed)


# -- checkpoint format ---------------------------------------------------------

_MAGIC = b"DSKC"
_VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"name too long: {name[:32]}...")
    return struct.pack("<H", len(raw)) + raw


def serialize_checkpoint(model: DualSpikeNet) -> bytes:
    cfg_text = canonical_model_text(model.config).encode("utf-8")
    parts = [struct.pack("<I", len(cfg_text)), cfg_text]

    tensors = model.state_tensors()
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        dt = np.dtype(arr.dtype)
        if dt not in _DTYPE_TAGS:
            raise CheckpointError(f"tensor {name}: unsupported dtype {dt}")
        parts.append(_pack_name(name))
        parts.append(struct.pack("<BB", _DTYPE_TAGS[dt], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
        parts.append(np.ascontiguousarray(arr).astype(dt.newbyteorder("<"), copy=False).tobytes())

    emas = model.rate_emas()
    parts.append(struct.pack("<I", len(emas)))
    for e in emas:
        parts.append(_pack_name(e.name))
        parts.append(struct.pack("<Bd", 1 if e.initialized else 0, e.value))

    return container.pack(_MAGIC, _VERSION, b"".join(parts))


def save_checkpoint(model: DualSpikeNet, path):
    blob = serialize_checkpoint(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def _read_name(r: container.Reader) -> str:
    (n,) = r.unpack("<H")
    return r.text(n)


def read_checkpoint(path):
    """Returns (config_text, tensors dict, emas dict). Verifies integrity."""
    r = container.read(path, _MAGIC, _VERSION, f"checkpoint {path}")
    cfg_text = r.text(r.u32())
    tensors = {}
    for _ in range(r.u32()):
        name = _read_name(r)
        tag, rank = r.unpack("<BB")
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"tensor {name}: unknown dtype tag {tag}")
        shape = r.unpack(f"<{rank}I")
        count = int(np.prod(shape, dtype=np.int64))
        tensors[name] = r.array(_TAG_DTYPES[tag].newbyteorder("<"), count).reshape(shape).astype(_TAG_DTYPES[tag])
    emas = {}
    for _ in range(r.u32()):
        name = _read_name(r)
        initialized, value = r.unpack("<Bd")
        emas[name] = (bool(initialized), value)
    r.finish()
    return cfg_text, tensors, emas


def load_checkpoint(path) -> DualSpikeNet:
    """Rebuild a model from the checkpoint's config echo, in its float dtype.

    An echo that fails a config check, or a state that does not fit the model
    the echo builds, is a CheckpointError naming the file, as a corrupt frame is.
    """
    cfg_text, tensors, emas = read_checkpoint(path)
    dtypes = sorted({str(arr.dtype) for arr in tensors.values()})
    if len(dtypes) != 1:
        raise CheckpointError(f"checkpoint {path} must hold one tensor dtype, found {dtypes}")
    try:
        model = DualSpikeNet(model_config_from_values(parse_config_text(cfg_text)), dtype=dtypes[0], seed=0)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path}: config echo fails a check: {exc}") from None
    try:
        model.load_state(tensors, emas)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    return model
