"""Dense/spike tensor types and a reverse-mode differentiation tape.

Everything is numpy underneath. A Tensor wraps an ndarray plus an optional
record of how it was produced; backward() walks that record once, in reverse
topological order, and accumulates gradients into reachable leaves.

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


class _Freed(tuple):
    """Type of `_FREED`, an empty tuple distinct from a leaf's `()`."""


# The parents of a node whose graph backward(free_graph=True) tore down. It is
# empty, as a leaf's are, but a second backward must not take the node for one.
_FREED = _Freed()


class Tensor:
    """Multi-dimensional float array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        tag = type(self).__name__
        return f"{tag}(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class SpikeTensor(Tensor):
    """Binary-valued tensor. Produced only by spiking-neuron ops.

    The constructor validates binarity; internal spiking ops build instances
    from threshold comparisons and skip the scan.
    """

    __slots__ = ()

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        super().__init__(data, requires_grad=requires_grad, dtype=dtype)
        if self.data.size and not bool(((self.data == 0.0) | (self.data == 1.0)).all()):
            raise ContractError("SpikeTensor values must be exactly 0 or 1")


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
    out._parents = ()
    out._backward = None
    return out


def make_node(data, parents, backward, cls=Tensor):
    """Create a tape node. `backward(grad)` returns one ndarray (or None) per parent."""
    out = _leaf(data, cls)
    if _grad_enabled and any(p.requires_grad or p._parents for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _coerce(a, b):
    if not isinstance(a, Tensor):
        a = _leaf(np.asarray(a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = _leaf(np.asarray(b, dtype=a.data.dtype))
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"mixed dtypes {a.data.dtype} and {b.data.dtype}; cast explicitly")
    return a, b


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
    a, b = _coerce(a, b)
    data = a.data + b.data

    def bw(g):
        return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

    return make_node(data, (a, b), bw)


def mul(a, b):
    a, b = _coerce(a, b)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return (_unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape))

    return make_node(data, (a, b), bw)


# -- matmul ----------------------------------------------------------------


def matmul(a, b):
    """Batched matrix product over the last two axes; leading axes broadcast."""
    a, b = _coerce(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires rank >= 2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)
    ad, bd = a.data, b.data

    def bw(g):
        ga = np.matmul(g, bd.swapaxes(-1, -2))
        gb = np.matmul(ad.swapaxes(-1, -2), g)
        return (_unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape))

    return make_node(data, (a, b), bw)


# -- shape ops ---------------------------------------------------------------


def reshape(a: Tensor, shape):
    shape = tuple(shape)
    orig = a.data.shape
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(orig),)

    return make_node(data, (a,), bw, cls=type(a) if isinstance(a, SpikeTensor) else Tensor)


def transpose(a: Tensor, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = a.data.transpose(axes)

    def bw(g):
        return (g.transpose(inv),)

    return make_node(data, (a,), bw, cls=type(a) if isinstance(a, SpikeTensor) else Tensor)


# -- reductions --------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None):
    data = a.data.sum(axis=axis)
    shape = a.data.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(g.dtype, copy=False),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        g = np.expand_dims(g, tuple(sorted(a_ % len(shape) for a_ in ax)))
        return (np.broadcast_to(g, shape),)

    return make_node(data, (a,), bw)


def tensor_mean(a: Tensor, axis=None):
    if axis is None:
        count = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = 1
        for d in ax:
            count *= a.data.shape[d]
    s = tensor_sum(a, axis=axis)
    return mul(s, 1.0 / count)


# -- backward pass -----------------------------------------------------------


def backward(loss: Tensor, free_graph: bool = False):
    """Reverse-mode pass from a scalar loss.

    Accumulates into .grad of every reachable gradient-tracked leaf; repeated
    calls keep accumulating unless grads are zeroed. The pass drops its own
    reference to each node once the node's backward has run. With
    free_graph=True it also tears the node's record down, so the node's output
    array is freed as soon as the pass has consumed it and nothing outside the
    graph holds it; a later backward through a torn-down node raises
    ContractError. The first such call sets the process's allocator (see the
    module docstring).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if free_graph:
        _keep_freed_memory()

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is _FREED:
            raise ContractError("backward through a graph that an earlier backward(free_graph=True) freed")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    # Every node still in `topo` is alive, so no id in `grads` can be reused.
    grads = {id(loss): np.ones_like(loss.data)}
    touched_leaf = False
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is not None:
            parent_grads = node._backward(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not (p.requires_grad or p._parents):
                    continue
                prev = grads.get(id(p))
                grads[id(p)] = pg if prev is None else prev + pg
            if free_graph:
                node._parents = _FREED
                node._backward = None
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
