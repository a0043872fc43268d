"""The process's worker pool (`dualspike.parallel`): its edges, and the bits of the pooled ops at 1 and 2 workers."""

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from conftest import in_fresh_process, workers

from dualspike import model as model_module
from dualspike import ops, parallel
from dualspike.data import SyntheticSpec, generate_split
from dualspike.layers import RunContext
from dualspike.model import build
from dualspike.tensor import Tensor, backward, no_grad
from dualspike.training import AdamW


def multi_chunk_conv(seed=0):
    """A grouped 3x3 conv of 5 images, which CHUNK_ELEMENTS = `CHUNKED` runs as chunks of 2, 2 and 1:
    its output, dX and dW."""
    rng = np.random.default_rng(seed)
    x = Tensor((rng.random((5, 16, 12, 12)) < 0.3).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 8, 3, 3)).astype(np.float32), requires_grad=True)
    out = ops.conv2d(x, w, padding=1, groups=2)
    return (out.data, *out._node.backward(np.ones_like(out.data)))


CHUNKED = 2 * 16 * 12 * 12


class TestRun:
    def test_results_in_item_order_whatever_order_items_finish(self, monkeypatch):
        workers(monkeypatch, 2)
        gate = threading.Event()

        def item(i):
            if i == 0:
                gate.wait(5)  # item 0 finishes after item 1 has
            else:
                gate.set()
            return i * 10

        assert parallel.run(item, range(2)) == [0, 10]

    def test_raises_the_first_failure_once_every_item_has_finished(self, monkeypatch):
        workers(monkeypatch, 2)
        finished = []

        def item(i):
            if i < 2:
                raise ValueError(f"item {i}")
            finished.append(i)

        with pytest.raises(ValueError, match="item 0"):
            parallel.run(item, range(4))
        assert sorted(finished) == [2, 3]

    def test_one_item_runs_in_the_calling_thread(self, monkeypatch):
        workers(monkeypatch, 2)
        assert parallel.run(lambda _: threading.get_ident(), [0]) == [threading.get_ident()]


class TestPoolEdges:
    def test_pooled_op_inside_a_chunk_worker_runs_in_that_worker(self, monkeypatch):
        # a pooled op called from a `_map_chunks` worker splits nothing and submits nothing: no worker
        # waits on the pool, so two such forwards cannot deadlock it
        workers(monkeypatch, 2)
        monkeypatch.setattr(ops, "CHUNK_ELEMENTS", CHUNKED)
        want = multi_chunk_conv()
        runs, starts = [], []
        run, started = parallel.run, parallel._started

        def spy_run(fn, items):
            caller = threading.get_ident()

            def item(x):
                runs.append((caller, threading.get_ident()))
                return fn(x)

            return run(item, items)

        def spy_started():
            starts.append(threading.get_ident())
            return started()

        monkeypatch.setattr(parallel, "run", spy_run)
        monkeypatch.setattr(parallel, "_started", spy_started)
        results = []
        caller = threading.Thread(target=lambda: results.extend(  # daemon: a deadlock fails the test, not the run
            model_module._map_chunks(multi_chunk_conv, [0, 0])), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        outer = {worker for owner, worker in runs if owner == caller.ident}
        inner = [(owner, worker) for owner, worker in runs if owner != caller.ident]
        assert len(outer) >= 1 and caller.ident not in outer
        assert inner and all(owner == worker and owner in outer for owner, worker in inner)
        assert starts == [caller.ident]  # one submission: the chunk map's own
        for got in results:
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_forked_process_pool_after_a_pooled_op(self, monkeypatch):
        # Python 3.11's multiprocessing forks by default, so a process pool started after a pooled op
        # forks a running pool: the children drop it
        workers(monkeypatch, 2)
        monkeypatch.setattr(ops, "CHUNK_ELEMENTS", CHUNKED)
        multi_chunk_conv()
        with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
            child = pool.submit(_pool_state).result(timeout=60)
        assert child == (None, 1)

    @pytest.mark.parametrize("setup", ["os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
                                       "parallel._openblas_threads = lambda: None"],
                             ids=["one-usable-core", "blas-count-not-settable"])
    def test_nothing_pooled_and_blas_left_alone(self, setup):
        got = in_fresh_process(_UNPOOLED.format(setup=setup))
        assert got["pool"] is None and got["threads"] == got["threads_before"] and got["blas"] == got["blas_before"]

    @pytest.mark.skipif(parallel._usable_cores() < 2 or parallel._openblas_threads() is None,
                        reason="needs two usable cores and NumPy's bundled OpenBLAS")
    def test_workers_pinned_one_per_core_and_blas_at_one_thread_for_good(self):
        got = in_fresh_process(_STARTED)
        assert got["pinned"] == [[core] for core in got["cores"]]  # and the calling thread stays unpinned
        assert got["blas"] == [1, 1]


def _pool_state():
    return parallel._pool, parallel.width()


# a multi-chunk conv forward and backward, then the pool and OpenBLAS state; `setup` runs first
_UNPOOLED = """
import json, os, threading
import numpy as np
from dualspike import ops, parallel
from dualspike.tensor import Tensor
blas = parallel._openblas_threads()
blas_before, threads_before = blas and blas[0](), threading.active_count()
{setup}
ops.CHUNK_ELEMENTS = 2 * 16 * 12 * 12
x = Tensor((np.random.default_rng(0).random((5, 16, 12, 12)) < 0.3).astype(np.float32), requires_grad=True)
w = Tensor(np.ones((16, 8, 3, 3), dtype=np.float32), requires_grad=True)
out = ops.conv2d(x, w, padding=1, groups=2)
out._node.backward(np.ones_like(out.data))
print(json.dumps({{"pool": parallel._pool, "threads": threading.active_count(), "threads_before": threads_before,
                  "blas": blas and blas[0](), "blas_before": blas_before}}))
"""

# in a fresh process: each worker's affinity (a barrier holds every worker to one item), then
# OpenBLAS's thread count after that first pooled call and after a second one
_STARTED = """
import json, os, threading
from dualspike import parallel
n = parallel._usable_cores()
barrier = threading.Barrier(n)
def affinity(_):
    barrier.wait(30)
    return sorted(os.sched_getaffinity(0))
pinned = sorted(parallel.run(affinity, range(n)))
blas = [parallel._openblas_threads()[0]()]
parallel.run(lambda _: None, range(4))
blas.append(parallel._openblas_threads()[0]())
print(json.dumps({"pinned": pinned, "cores": sorted(os.sched_getaffinity(0)), "blas": blas}))
"""


def nano_steps(batch, steps):
    """Logits, loss, the 65 gradients, the BN running statistics and the rate EMAs of `steps` AdamW steps."""
    net = build("Nano", seed=0)
    opt = AdamW(net.parameters())
    rng = np.random.default_rng(batch)
    arrays = []
    for _ in range(steps):
        images = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, batch)
        opt.zero_grad()
        logits = net.forward(images, RunContext(training=True))
        loss = ops.cross_entropy(logits, labels)
        backward(loss, free_graph=True)
        arrays += [logits.data, loss.data, *(p.grad.copy() for p in net.parameters())]
        arrays += [a for s in net.bn_states() for a in (s.running_mean, s.running_var)]
        arrays.append(np.array([e.value for e in net.rate_emas()]))
        opt.step()
    return net, arrays


class TestSameBitsAtOneAndTwoWorkers:
    """Pooled ops split only along axes whose pieces are computed independently, so no output moves."""

    @pytest.fixture
    def width(self):
        """The worker count whose outputs are compared with one worker's."""
        return 2

    @pytest.mark.parametrize("batch, steps", [(5, 3), (16, 1)])
    def test_train_steps(self, monkeypatch, width, batch, steps):
        out = {}
        for n in (1, width):
            workers(monkeypatch, n)
            out[n] = nano_steps(batch, steps)[1]
        assert len(out[width]) == steps * (3 + 65 + 2 * len(build("Nano").bn_states()))
        for a, b in zip(out[1], out[width]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("channels", [2, 3, 5])
    @pytest.mark.parametrize("layout", ["c-order", "channels-last"])
    def test_train_batchnorm_at_few_channels_and_a_strided_gradient(self, monkeypatch, width, channels, layout):
        # a one-channel range would sum in another order, and so would a split of a strided gradient
        rng = np.random.default_rng(channels)
        x = (rng.standard_normal((16, channels, 12, 12)) * 3 + 1).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        if layout == "channels-last":  # the memory order of the attention's embedding gradients
            g = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        out = {}
        for n in (1, width):
            workers(monkeypatch, n)
            state = ops.BatchNormState("bn", channels, dtype=np.float32)
            y = ops.batchnorm(Tensor(x, requires_grad=True), state, training=True)
            out[n] = [y.data, *y._node.backward(g), state.running_mean, state.running_var]
        for a, b in zip(out[1], out[width]):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_eval_logits_and_predict_classes(self, monkeypatch, width):
        net = nano_steps(5, 1)[0]
        images = generate_split(SyntheticSpec(seed=0, noise=0.3), 65, "test").images
        out = {}
        for n in (1, width):
            workers(monkeypatch, n)
            with no_grad():
                logits = [net.forward(images[:b], RunContext(training=False)).data for b in (2, 5, 65)]
            out[n] = logits + [net.predict(images[:b]) for b in (2, 5, 65)]
        for a, b in zip(out[1], out[width]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSameBitsAtMoreWorkers(TestSameBitsAtOneAndTwoWorkers):
    """The same bits at 3 and 4 workers, the widths of a runner with more cores."""

    @pytest.fixture(params=[3, 4])
    def width(self, request):
        return request.param
