"""The process's parallelism: one worker thread per usable core, each pinned to its core.

Every hand-off to the workers goes through `run`: the ops that dominate a
train step (`ops.conv2d`, train-mode `ops.batchnorm`, `neuron.sn_forward`),
the AdamW update, `DualSpikeNet.map_eval` (`predict`'s chunks, the audit's
traces and the equivalence replay) and the Monte Carlo seed streams of
`verification`. `split` is the one rule for how many pieces an op cuts its
work into. An op splits only along an axis whose pieces are computed
independently (image chunks, channel ranges, neuron blocks, weight-gradient
rows or columns, groups, kernel offsets, parameters or seed streams), never
along a sum, so each output holds the bits the op gives in one thread. The
pieces write into slices of arrays the calling thread allocated: glibc gives
each thread its own arena, and large arrays allocated in the workers raised
the train benchmark's peak RSS from about 508 to 582 MB on a 2-core x86-64
machine.

The workers are a standard-library `ThreadPoolExecutor` of one thread per
usable core, all started when the pool starts, and each new worker pins
itself to the next core of the process's affinity set
(`os.sched_setaffinity` on its own thread). Where
the scheduler does not rebalance threads between CPUs, two unpinned threads
can share one CPU for the life of the process. The first
`width()` that returns 2 or more sets NumPy's bundled OpenBLAS to one thread
for the rest of the process, as `tensor._keep_freed_memory` sets the
allocator: a second OpenBLAS thread busy-waits on the other core between
calls, and pinning it only around each pooled call left that spinning in
place. Setting it before any op has split keeps an op's bits independent of
whether the pool has started yet: a float64 `_conv2d_cols` GEMM rounds
differently at two OpenBLAS threads and at one.

An op runs in its calling thread where the work is one piece, inside a
worker (a pooled op called from a `map_eval` forward, so no worker waits
on the pool), with one usable core, where OpenBLAS's thread count cannot be
set (threads that each drive a multi-threaded BLAS were slower than one
thread), and in a forked child, which drops the pool: its workers do not
exist there, and Python 3.11's `multiprocessing` forks by default.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_pool = None  # the running executor, or None before the first pooled op
_forked = False  # set in a forked child: everything runs in the calling thread there
_start_lock = threading.Lock()
_local = threading.local()  # `worker` is set on the pool's own threads


def split_bounds(total: int, parts: int) -> list:
    """Bounds [0, ..., total] of `parts` contiguous slices whose sizes differ by one at most, the larger first."""
    base, rem = divmod(total, parts)
    return [i * base + min(i, rem) for i in range(parts + 1)]


def split(total: int, least: int = 1) -> list:
    """`split_bounds` of `total` into one piece per worker, each at least `least` long where `total`
    allows, and one piece where it does not."""
    return split_bounds(total, max(1, min(total // least, width())))


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, or None where either is not found."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")))
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def width() -> int:
    """How many workers an op called in this thread splits its work over; 1 runs it in this thread."""
    if _forked or getattr(_local, "worker", False):
        return 1
    cores = _usable_cores()
    if cores < 2 or _openblas_threads() is None:
        return 1
    _blas_at_one_thread()
    return cores


@functools.cache
def _blas_at_one_thread():
    """Set NumPy's bundled OpenBLAS to one thread for the rest of the process, on the first call only."""
    _openblas_threads()[1](1)


def run(fn, items) -> list:
    """[fn(item) for item in items], on the workers when `width()` > 1 and there are several items.

    Returns in item order once every item has finished; where one raised, the
    first such exception in item order is raised then.
    """
    items = list(items)
    if len(items) < 2 or width() < 2:
        return [fn(item) for item in items]
    pool = _started()
    futures = [pool.submit(fn, item) for item in items]
    try:
        wait(futures)
    finally:  # an interrupt drops the items no worker has started: the process waits for its workers on exit
        for fut in futures:
            fut.cancel()
    return [fut.result() for fut in futures]


def over_chunks(bounds, body, buffers=tuple):
    """body(lo, hi, *buffers()) for each chunk [lo, hi) of `bounds`, in contiguous runs of chunks, one run per worker.

    Each run reuses its own buffers, which `buffers()` makes here, in the
    calling thread, once per run.
    """
    chunks = list(zip(bounds, bounds[1:]))
    runs = split(len(chunks))
    made = [buffers() for _ in runs[1:]]

    def chunk_run(k):
        for lo, hi in chunks[runs[k] : runs[k + 1]]:
            body(lo, hi, *made[k])

    run(chunk_run, range(len(runs) - 1))


def _started() -> ThreadPoolExecutor:
    """The running pool; the first call starts it, with every worker running and pinned on return.

    The executor starts a thread per submitted item only while none is idle, so one item per worker,
    each waiting for all the others, makes them all exist; left to itself it starts the second
    worker only once the first is busy.
    """
    global _pool
    with _start_lock:
        if _pool is None:
            n = _usable_cores()
            cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
            pool = ThreadPoolExecutor(n, initializer=_enter, initargs=(itertools.cycle(cores),))
            arrived = threading.Barrier(n)
            try:
                wait([pool.submit(arrived.wait) for _ in range(n)])
            except BaseException:  # a thread that could not start: release the ones waiting for it
                arrived.abort()
                pool.shutdown(wait=False)
                raise
            _pool = pool
        return _pool


def _enter(cores):
    """A new worker's first step: mark it as a worker and pin it to the next core."""
    _local.worker = True
    core = next(cores)
    try:
        if core is not None:
            os.sched_setaffinity(0, {core})
    except OSError:  # the core left this process's set since the pool read it: the worker runs unpinned
        pass


def _drop_pool():
    global _pool, _forked, _start_lock
    _pool, _forked, _start_lock = None, True, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks a running pool
    os.register_at_fork(after_in_child=_drop_pool)
