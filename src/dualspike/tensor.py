"""Dense/spike tensor types and a reverse-mode differentiation tape.

Everything is numpy underneath. A Tensor wraps an ndarray plus an optional
record of how it was produced; backward() walks the records once, in reverse
topological order, and accumulates gradients into reachable leaves.

What the tape holds: one `_Node` per op, with its parents' slots and its
backward closure. A slot is the parent's record, the parent itself where it
is a gradient-tracked leaf, or None; records never hold an intermediate
tensor. So an op's output array is freed once the caller's last reference
goes, unless a backward closure captured it, and each closure captures only
what it reads: `add` keeps shapes, `mul` an operand only where the other one
needs a gradient. In a batch-16 Nano train forward that frees the conv
outputs, the BN outputs that feed only a LIF or a residual add, the `add`
outputs and the attention's scaled currents as the forward goes; the
`train` benchmark's peak RSS fell from 1133 to about 660 MB on a 2-core
x86-64 machine, with the same bits. Spikes are one-byte `bool` arrays
(`SpikeTensor`), which ops convert to the other operand's float dtype only
where they compute (`_coerce`, `_as`), so the closures keep the one-byte
arrays; that took the peak to about 510 MB, again with the same bits.

A record may also carry a rebuild (`make_node`): its forward expression
again, which recomputes its output bit for bit into a new array from its
parents' slots and the arrays its backward reads (`rebuilt`). Train-mode
batch norm rebuilds from `xhat`, gamma and beta; `matmul` from its two
operands; `mul` by a 0-d constant from that constant and its other
operand's rebuild; `add` of same-shape operands from both rebuilds;
`reshape` reshapes its parent's; a tracked leaf copies its data.
`neuron.sn_forward` keeps no membrane values for its backward: it rebuilds
its input currents from these. In a batch-16 Nano train forward that holds
for all 21 LIFs, and the tape went from 418 to 222 MiB: the backward
closures hold BN's `xhat` (161 MiB), the convs' one-byte inputs (48 MiB)
and the matmul operands (14 MiB). The `train` benchmark's peak RSS fell
from about 508 to 321 MB on a 2-core x86-64 machine, with the same bits.

The first backward(..., free_graph=True) of a process, which is the first
training step, sets glibc's malloc to keep freed memory in the process
(`_keep_freed_memory`). Without it a train step's large temporaries go back
to the kernel when freed and fault in afresh when allocated: on a 2-core
x86-64 machine a batch-16 Nano step took about 53K minor page faults and
0.3 s of system time, and with the setting none from the third step on. The
setting holds for the whole process from then on, for every allocation, and
cannot be read back. Where glibc's `mallopt` is not found, or refuses a
value, it is a no-op. Processes that never free a graph (eval, audit, the
verify suites, gradcheck) keep the allocator they started with.

The ops that split over the process's pinned workers (`parallel`) allocate
their large arrays in the calling thread, and the workers write into slices
of them, so those arrays come from the heap this setting keeps. glibc gives
each worker thread an arena of its own; on a 2-core x86-64 machine, large
arrays allocated in the workers raised the `train` benchmark's peak RSS from
about 508 to 582 MB.
"""

from __future__ import annotations

import ctypes
import functools
import threading
import warnings

import numpy as np

DEFAULT_DTYPE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class EngineError(Exception):
    """Base class for engine failures."""


class ShapeError(EngineError):
    """Operand shapes are incompatible for the requested operation."""


class ConfigError(EngineError):
    """A structural configuration constraint is violated."""


class ContractError(EngineError):
    """A documented call contract is violated."""


class CheckpointError(EngineError):
    """Checkpoint or dataset file is malformed, corrupt, or incompatible."""


_grad_enabled = True
_no_grad_depth = 0  # open no_grad blocks over all threads; recording resumes when the last one closes
_no_grad_lock = threading.Lock()


class no_grad:
    """Context manager that suspends tape recording (inference mode).

    The flag is process-wide, so threads that a caller starts inside the block
    see it too. Blocks may overlap across threads: each one counts itself in and
    out, so an exit never restores a state another thread saved.
    """

    def __enter__(self):
        global _grad_enabled, _no_grad_depth
        with _no_grad_lock:
            _no_grad_depth += 1
            _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled, _no_grad_depth
        with _no_grad_lock:
            _no_grad_depth -= 1
            _grad_enabled = _no_grad_depth == 0
        return False


class _Node:
    """The tape's record of one op: its parents' slots (`_slot`), its backward closure, and where the op
    can recompute its output from what that closure reads, its rebuild (`make_node`)."""

    __slots__ = ("parents", "backward", "rebuild")

    def __init__(self, parents, backward, rebuild=None):
        self.parents = parents
        self.backward = backward
        self.rebuild = rebuild


class Tensor:
    """Multi-dimensional float array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _parents(self) -> tuple:
        """The parent slots of this tensor's record; () for a leaf."""
        return () if self._node is None else self._node.parents

    @property
    def _backward(self):
        """This tensor's backward closure; None for a leaf or a torn-down record."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = type(self).__name__
        return f"{tag}(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class SpikeTensor(Tensor):
    """Binary-valued tensor held one byte per element (`bool`). Produced only by spiking-neuron ops.

    Binarity is a dtype fact: the constructor checks that every value is 0 or
    1 before it casts to bool, and the spiking ops write bools directly. Ops
    convert the spikes to the other operand's float dtype only where they
    compute, so a backward closure keeps the one-byte array.
    """

    __slots__ = ()

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.bool_ and arr.size and not bool(((arr == 0) | (arr == 1)).all()):
            raise ContractError("SpikeTensor values must be exactly 0 or 1")
        super().__init__(arr, requires_grad=requires_grad, dtype=np.bool_)


class Parameter(Tensor):
    """Named trainable leaf; gradient buffer is pre-allocated to zeros."""

    __slots__ = ("name",)

    def __init__(self, name: str, value, dtype=None):
        super().__init__(value, requires_grad=True, dtype=dtype)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, dtype={self.data.dtype})"


# -- node construction ----------------------------------------------------


def _leaf(data, cls=Tensor):
    out = Tensor.__new__(cls)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._node = None
    return out


def _slot(t: Tensor):
    """What a record keeps of parent `t`: its record; `t` itself if a tracked leaf, where the
    gradient lands in its `.grad` (a leaf has no record, so no cycle); else None, as no gradient flows."""
    if t._node is not None:
        return t._node
    return t if t.requires_grad else None


def make_node(data, parents, backward, cls=Tensor, rebuild=None):
    """Create a tape node. `backward(grad)` returns one ndarray (or None) per parent.

    `rebuild(parents)`, where the op gives one, returns a new array with `data`'s values, bit for bit,
    recomputed by the forward's own expression from the record's parent slots and the arrays
    `backward` reads. An op gives one only where every parent it reads is `rebuildable`.
    """
    out = _leaf(data, cls)
    if _grad_enabled:
        slots = tuple(_slot(p) for p in parents)
        if any(s is not None for s in slots):
            out.requires_grad = True
            out._node = _Node(slots, backward, rebuild)
    return out


def rebuildable(t: Tensor) -> bool:
    """Whether `rebuilt` can recompute `t`'s data from its slot: a record with a rebuild, or a tracked leaf."""
    return t._node.rebuild is not None if t._node is not None else t.requires_grad


def rebuilt(slot) -> np.ndarray:
    """A new array with the data of the `rebuildable` tensor behind `slot` (see `_slot`): its record's
    rebuild, or a copy of a tracked leaf's data, which the slot keeps."""
    return slot.rebuild(slot.parents) if isinstance(slot, _Node) else slot.data.copy()


def _coerce(a, b):
    """Both operands as Tensors, and the dtype the op computes in.

    That is the dtype of the Tensor operand that is not one-byte spikes, or
    DEFAULT_DTYPE where there is none; a scalar or array operand is made in
    it. The op converts spikes with `_as` only where it computes, so its
    backward closure keeps the one-byte array. Two other dtypes must agree.
    """
    dtypes = {t.data.dtype for t in (a, b) if isinstance(t, Tensor) and t.data.dtype != np.bool_}
    if len(dtypes) > 1:
        raise ShapeError(f"mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly")
    dtype = dtypes.pop() if dtypes else np.dtype(DEFAULT_DTYPE)
    a = a if isinstance(a, Tensor) else _leaf(np.asarray(a, dtype=dtype))
    b = b if isinstance(b, Tensor) else _leaf(np.asarray(b, dtype=dtype))
    return a, b, dtype


def _as(arr: np.ndarray, dtype) -> np.ndarray:
    """`arr` in `dtype`. A converted copy keeps `arr`'s memory order (astype's order 'K'), so a
    strided spike view reaches BLAS with the strides, and gives the bits, of its float counterpart;
    NumPy's mixed-dtype matmul would skip BLAS."""
    return arr if arr.dtype == dtype else arr.astype(dtype, order="K")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# -- elementwise ops -------------------------------------------------------


def add(a, b):
    a, b, dtype = _coerce(a, b)
    data = _as(a.data, dtype) + _as(b.data, dtype)
    ashape, bshape = a.data.shape, b.data.shape

    def bw(g):
        return (_unbroadcast(g, ashape), _unbroadcast(g, bshape))

    def rebuild(parents):  # in place in the first operand's new array: the same sums as the forward's
        out = _as(rebuilt(parents[0]), dtype)
        out += _as(rebuilt(parents[1]), dtype)
        return out

    same = ashape == bshape and rebuildable(a) and rebuildable(b)
    return make_node(data, (a, b), bw, rebuild=rebuild if same else None)


def mul(a, b):
    a, b, dtype = _coerce(a, b)
    data = _as(a.data, dtype) * _as(b.data, dtype)
    ashape, bshape = a.data.shape, b.data.shape
    # each operand is kept only for the other's gradient: a constant factor keeps nothing else alive
    ad = a.data if _slot(b) is not None else None
    bd = b.data if _slot(a) is not None else None

    def bw(g):
        return (
            None if bd is None else _unbroadcast(g * _as(bd, dtype), ashape),
            None if ad is None else _unbroadcast(g * _as(ad, dtype), bshape),
        )

    # a tensor times a 0-d constant, which the backward keeps: the attention's scaled currents
    const, side = (bd, 0) if ad is None else (ad, 1)

    def rebuild(parents):  # in place in the tensor's new array: the same products as the forward's
        out = _as(rebuilt(parents[side]), dtype)
        out *= _as(const, dtype)
        return out

    scaled = const is not None and const.ndim == 0 and rebuildable((a, b)[side])
    return make_node(data, (a, b), bw, rebuild=rebuild if scaled else None)


# -- matmul ----------------------------------------------------------------


def matmul(a, b):
    """Batched matrix product over the last two axes; leading axes broadcast."""
    a, b, dtype = _coerce(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    ad, bd = a.data, b.data

    def product():  # the forward, and its rebuild from the operands the backward keeps
        return np.matmul(_as(ad, dtype), _as(bd, dtype))

    data = product()

    def bw(g):
        ga = np.matmul(g, _as(bd, dtype).swapaxes(-1, -2))
        gb = np.matmul(_as(ad, dtype).swapaxes(-1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return make_node(data, (a, b), bw, rebuild=lambda parents: product())


# -- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape):
    shape = tuple(shape)
    orig = a.data.shape
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(orig),)

    def rebuild(parents):
        return rebuilt(parents[0]).reshape(shape)

    cls = type(a) if isinstance(a, SpikeTensor) else Tensor
    return make_node(data, (a,), bw, cls=cls, rebuild=rebuild if rebuildable(a) else None)


def transpose(a: Tensor, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def bw(g):
        return (g.transpose(inv),)

    return make_node(data, (a,), bw, cls=type(a) if isinstance(a, SpikeTensor) else Tensor)


# -- reductions --------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, dtype=None):
    """Sum over `axis`. One-byte spikes sum in `dtype`, or as `_coerce` computes them, in DEFAULT_DTYPE."""
    if dtype is None and a.data.dtype == np.bool_:
        dtype = DEFAULT_DTYPE
    data = a.data.sum(axis=axis, dtype=dtype)
    shape = a.data.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(g.dtype, copy=False),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(sorted(a_ % len(shape) for a_ in ax)))
        return (np.broadcast_to(g, shape),)

    return make_node(data, (a,), bw)


def tensor_mean(a: Tensor, axis=None, dtype=None):
    """Mean over `axis`: the sum (in `dtype`, as `tensor_sum`) times 1/count."""
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for d in ax:
            count *= a.data.shape[d]
    s = tensor_sum(a, axis=axis, dtype=dtype)
    return mul(s, 1.0 / count)


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor, free_graph: bool = False):
    """Reverse-mode pass from a scalar loss.

    Accumulates into .grad of every reachable gradient-tracked leaf; repeated
    calls keep accumulating unless grads are zeroed. The pass drops its own
    reference to each record once the record's backward has run. With
    free_graph=True it also tears the record down, so the arrays its backward
    closure captured are freed as soon as the pass has consumed it; a later
    backward through a torn-down record raises ContractError. The first such
    call sets the process's allocator (see the module docstring).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if free_graph:
        _keep_freed_memory()

    root = loss._node if loss._node is not None else loss
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if isinstance(node, Tensor):  # a leaf
            continue
        if node.backward is None:  # a live record always has one: backward(free_graph=True) tore this down
            raise ContractError("backward through a graph that an earlier backward(free_graph=True) freed")
        for p in node.parents:
            if p is not None and id(p) not in visited:
                stack.append((p, False))

    # Every record and leaf still in `topo` is alive, so no id in `grads` can be reused.
    grads = {id(root): np.ones_like(loss.data)}
    touched_leaf = False
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if isinstance(node, _Node):
            parent_grads = node.backward(g)
            for p, pg in zip(node.parents, parent_grads):
                if p is None or pg is None:
                    continue
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else prev + pg
            if free_graph:
                node.parents = ()
                node.backward = node.rebuild = None
        elif node.requires_grad:
            touched_leaf = True
            if node.grad is None:
                node.grad = np.array(g, copy=True)
            else:
                np.add(node.grad, g, out=node.grad)

    if not touched_leaf:
        warnings.warn("backward reached no gradient-tracked leaves; all gradients are empty", stacklevel=2)


# glibc's mallopt parameter numbers
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's largest on 64-bit: mallopt refuses more
_TRIM_THRESHOLD = 2**31 - 1  # the largest C int, which mallopt takes


def _mallopt():
    """glibc's mallopt(param, value) -> 1 on success, 0 on refusal; None where it is not found."""
    try:
        fn = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: Windows has no CDLL(None)
        return None
    fn.argtypes, fn.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return fn


@functools.cache
def _keep_freed_memory() -> bool:
    """Keep freed memory in the process from now on; True where glibc took both settings.

    Blocks up to 32 MiB come from the heap, and the heap keeps up to 2 GiB
    free before it is trimmed, so the next step reuses pages that are
    already mapped. The settings hold for
    the whole process and cannot be read back. Only the pair helps: either
    threshold alone also turns off glibc's adaptive mmap threshold and faults as
    much as before, so the trim threshold is set only once the mmap one is.
    """
    mallopt = _mallopt()
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))
