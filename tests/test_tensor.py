"""Tape engine: forward values, reverse-mode gradients, error contracts."""

import platform
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import attention, ffn, layers, model, ops, tensor
from dualspike.layers import RunContext
from dualspike.tensor import (
    ContractError,
    ShapeError,
    SpikeTensor,
    Tensor,
    add,
    backward,
    make_node,
    matmul,
    mul,
    no_grad,
    reshape,
    tensor_mean,
    tensor_sum,
    transpose,
)

from conftest import assert_grads_close, race


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestForwardValues:
    def test_matmul_hand_oracle(self):
        # [[1,1,0],[0,1,1]] @ [[1,0],[0,1],[1,1]] worked out by hand
        a = t([[1, 1, 0], [0, 1, 1]])
        b = t([[1, 0], [0, 1], [1, 1]])
        out = matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1, 1], [1, 2]])

    def test_batched_matmul(self, rng):
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((3, 4, 5))
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)

    def test_scalar_arithmetic(self):
        a = t([1.0, 2.0])
        np.testing.assert_array_equal(add(a, 1).data, [2, 3])
        np.testing.assert_array_equal(add(-1, a).data, [0, 1])
        np.testing.assert_array_equal(mul(a, 3).data, [3, 6])
        np.testing.assert_array_equal(mul(-1, a).data, [-1, -2])

    def test_reductions(self):
        a = t([[1.0, 2.0], [3.0, 4.0]])
        assert tensor_sum(a).item() == 10
        assert tensor_mean(a).item() == 2.5
        np.testing.assert_array_equal(tensor_sum(a, axis=0).data, [4, 6])
        np.testing.assert_array_equal(tensor_mean(a, axis=1).data, [1.5, 3.5])

    def test_reshape_transpose(self, rng):
        a = rng.standard_normal((2, 3, 4))
        at = Tensor(a)
        assert reshape(at, (6, 4)).data.shape == (6, 4)
        np.testing.assert_array_equal(transpose(at, (2, 0, 1)).data, a.transpose(2, 0, 1))


class TestGradients:
    def test_mul_add_chain_fd(self, rng):
        a = t(rng.standard_normal((3, 4)))
        b = t(rng.standard_normal((3, 4)))
        assert_grads_close(lambda: tensor_sum(mul(add(a, b), mul(a, b))), [a, b])

    def test_matmul_fd(self, rng):
        a = t(rng.standard_normal((2, 3)))
        b = t(rng.standard_normal((3, 4)))
        assert_grads_close(lambda: tensor_sum(mul(matmul(a, b), matmul(a, b))), [a, b])

    def test_batched_matmul_fd(self, rng):
        a = t(rng.standard_normal((2, 2, 3)))
        b = t(rng.standard_normal((2, 3, 2)))
        assert_grads_close(lambda: tensor_sum(matmul(a, b)), [a, b])

    def test_broadcast_add_backward(self):
        a = t(np.zeros((2, 3)))
        b = t(np.zeros((3,)))
        backward(tensor_sum(add(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(b.grad, [2, 2, 2])

    def test_broadcast_mul_fd(self, rng):
        a = t(rng.standard_normal((2, 3)))
        b = t(rng.standard_normal((1, 3)))
        assert_grads_close(lambda: tensor_sum(mul(a, b)), [a, b])

    def test_reshape_transpose_grad(self, rng):
        a = t(rng.standard_normal((2, 3, 4)))
        assert_grads_close(
            lambda: tensor_sum(mul(transpose(reshape(a, (6, 4)), (1, 0)), 2.0)), [a]
        )

    def test_mean_axis_grad(self):
        a = t(np.arange(12.0).reshape(3, 4))
        backward(tensor_sum(tensor_mean(a, axis=0)))
        np.testing.assert_allclose(a.grad, np.full((3, 4), 1 / 3))

    def test_accumulation_doubles(self):
        a = t([1.0, 2.0])
        backward(tensor_sum(mul(a, a)))
        first = a.grad.copy()
        backward(tensor_sum(mul(a, a)))
        np.testing.assert_allclose(a.grad, 2 * first)

    def test_free_graph_releases(self):
        a = t([1.0, 2.0])
        out = mul(a, a)
        loss = tensor_sum(out)
        backward(loss, free_graph=True)
        assert out._parents == () and out._backward is None

    @pytest.mark.parametrize("free_graph", [True, False])
    def test_free_graph_frees_each_output_once_consumed(self, free_graph):
        # a -> low -> mid -> mul(mid, b) -> loss; b is tracked, so the mul's backward reads mid's
        # output and its closure holds it. low's backward runs after the mul's and looks at it.
        a = t([1.0, 2.0])
        b = t([3.0, 3.0])
        freed_by_then = []

        def low_bw(g):
            freed_by_then.append(mid_data() is None)
            return (g,)

        low = make_node(a.data.copy(), (a,), low_bw)
        mid = mul(low, low)
        mid_data = weakref.ref(mid.data)
        loss = tensor_sum(mul(mid, b))
        del low, mid
        backward(loss, free_graph=free_graph)
        # without free_graph the loss's graph keeps the closure that captured mid's output
        assert freed_by_then == [free_graph]
        np.testing.assert_array_equal(a.grad, [6.0, 12.0])
        np.testing.assert_array_equal(b.grad, [1.0, 4.0])

    def test_record_keeps_no_output_that_no_backward_reads(self):
        # add's backward reads no operand, and mul keeps an operand only for the other's gradient
        a = t([1.0, 2.0])
        mid = add(a, a)
        mid_data = weakref.ref(mid.data)
        loss = tensor_sum(mul(mid, 3.0))
        del mid
        assert mid_data() is None
        backward(loss)
        np.testing.assert_array_equal(a.grad, [6.0, 6.0])

    def test_backward_from_a_freed_loss_raises(self):
        a = t([1.0, 2.0])
        loss = tensor_sum(mul(a, a))
        backward(loss, free_graph=True)
        first = a.grad.copy()
        with pytest.raises(ContractError, match="freed"):
            backward(loss, free_graph=True)
        np.testing.assert_array_equal(a.grad, first)
        assert loss.grad is None

    def test_backward_through_a_freed_node_raises_before_accumulating(self):
        a = t([1.0, 2.0])
        b = t([3.0, 4.0])
        mid = mul(a, a)
        backward(tensor_sum(mid), free_graph=True)
        with pytest.raises(ContractError, match="freed"):
            backward(tensor_sum(add(mul(mid, 2.0), b)))
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])
        assert b.grad is None and mid.grad is None

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_mul_grad_is_other_operand(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        a = t(rng.standard_normal((n, m)))
        b = t(rng.standard_normal((n, m)))
        backward(tensor_sum(mul(a, b)))
        np.testing.assert_allclose(a.grad, b.data)
        np.testing.assert_allclose(b.grad, a.data)


class TestErrorsAndModes:
    def test_matmul_inner_dim_error_names_shapes(self):
        a = t(np.zeros((2, 3)))
        b = t(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"2, 3.*4, 5"):
            matmul(a, b)

    def test_mixed_dtype_rejected(self):
        a = Tensor(np.zeros(3, dtype=np.float32))
        b = Tensor(np.zeros(3, dtype=np.float64))
        with pytest.raises(ShapeError):
            add(a, b)

    def test_backward_needs_scalar(self):
        a = t([1.0, 2.0])
        with pytest.raises(ShapeError):
            backward(mul(a, a))

    def test_disconnected_graph_warns(self):
        a = Tensor(np.ones(3))  # requires_grad=False
        with pytest.warns(UserWarning, match="no gradient-tracked leaves"):
            backward(tensor_sum(mul(a, a)))

    def test_tracked_leaf_slot_holds_the_leaf_which_has_no_record(self):
        # the gradient lands in the leaf's .grad, and no leaf-record cycle keeps either alive
        a = t([1.0, 2.0])
        c = Tensor(np.ones(2))  # untracked: its slot is empty
        out = mul(a, c)
        assert out._parents[0] is a and out._parents[1] is None
        assert a._node is None and a._parents == () and a._backward is None

    def test_no_grad_suppresses_tape(self):
        a = t([1.0, 2.0])
        with no_grad():
            out = mul(a, a)
        assert out._parents == ()

    def test_overlapping_no_grad_blocks_across_threads_resume_recording(self):
        # a closing block must not restore a flag another thread set: recording resumes once all have closed
        def blocks():
            for _ in range(200):
                with no_grad():
                    time.sleep(0)  # lets another thread enter or leave its block meanwhile

        race(blocks)
        a = t([1.0, 2.0])
        assert mul(a, a)._parents != ()


class TestTrainForwardTape:
    def test_conv_bn_and_add_outputs_die_with_the_forward(self, monkeypatch):
        # No backward reads these: conv's reads its input and weight, train-mode BN's its xhat, add's
        # nothing. So once the forward has returned, only the loss's graph is left, and it holds none
        # of them but the attention's token embeddings, which the matmul backward reads.
        outputs = {"conv2d": [], "batchnorm": [], "add": []}
        embeddings = []

        def watching(kind, fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                name = getattr(args[1], "name", "")
                refs = embeddings if name.endswith(("embed_map.bn", "embed_val.bn")) else outputs[kind]
                refs.append(weakref.ref(out.data))
                return out

            return wrapped

        monkeypatch.setattr(ops, "conv2d", watching("conv2d", ops.conv2d))
        monkeypatch.setattr(ops, "batchnorm", watching("batchnorm", ops.batchnorm))
        for owner in (layers, ffn, model):
            monkeypatch.setattr(owner, "add", watching("add", owner.add))
        net = model.build("Nano", seed=0)
        images = np.random.default_rng(0).standard_normal((2, 3, 32, 32)).astype(np.float32)
        logits = net.forward(images, RunContext(training=True))
        loss = ops.cross_entropy(logits, np.array([0, 1]))
        del logits
        assert all(outputs.values())
        alive = {kind: sum(ref() is not None for ref in refs) for kind, refs in outputs.items()}
        assert alive == {"conv2d": 0, "batchnorm": 0, "add": 0}
        assert len(embeddings) == 2 * len(net.config.stages) and all(ref() is not None for ref in embeddings)
        backward(loss, free_graph=True)  # the graph is whole without them
        assert all(np.isfinite(p.grad).all() and p.grad.any() for p in net.parameters())
        assert not any(ref() is not None for ref in embeddings)

    def test_spikes_stay_one_byte_on_the_tape(self, monkeypatch):
        # Every consumer converts spikes to the model dtype only where it computes, so each LIF
        # output is one byte per element, and no backward closure keeps a float copy of one.
        spikes = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                spikes.append(out.data)
                return out

            return wrapped

        for owner in (layers, attention):
            monkeypatch.setattr(owner, "sn_forward", recording(owner.sn_forward))
        net = model.build("Nano", seed=0)
        images = np.random.default_rng(0).standard_normal((3, 3, 32, 32)).astype(np.float32)
        loss = ops.cross_entropy(net.forward(images, RunContext(training=True)), np.array([0, 1, 2]))
        # six LIFs a block, one a downsample (every stage but the first) and the classifier's
        assert len(spikes) == 6 * sum(s.blocks for s in net.config.stages) + len(net.config.stages)
        assert all(s.dtype == np.bool_ and s.itemsize == 1 for s in spikes)
        held = closure_arrays(loss)
        assert sum(a.dtype == np.bool_ for a in held) >= len(spikes)  # the spikes the backwards read
        # a float array of a spike array's size holding only 0 and 1 would be a float copy of spikes
        sizes = {s.size for s in spikes}
        copies = [a.shape for a in held if a.dtype != np.bool_ and a.size in sizes and np.isin(a, (0, 1)).all()]
        assert copies == []


    def test_lif_backwards_keep_no_membrane_values_or_inputs(self, monkeypatch):
        # Each LIF backward rebuilds its input currents from the records that made them (batch norm,
        # the attention's scaled products, residual sums), so its closure holds no float array of its
        # input's size: neither the membrane values V of every step nor the input itself.
        lifs = []

        def recording(fn):
            def wrapped(current, *args, **kwargs):
                out = fn(current, *args, **kwargs)
                lifs.append((current.data.size, out))
                return out

            return wrapped

        for owner in (layers, attention):
            monkeypatch.setattr(owner, "sn_forward", recording(owner.sn_forward))
        net = model.build("Nano", seed=0)
        images = np.random.default_rng(0).standard_normal((3, 3, 32, 32)).astype(np.float32)
        net.forward(images, RunContext(training=True))
        assert len(lifs) == 6 * sum(s.blocks for s in net.config.stages) + len(net.config.stages)
        for size, out in lifs:
            held = closure_arrays(out, ancestors=False)
            assert [a.shape for a in held if a.dtype != np.bool_ and a.size == size] == []


def closure_arrays(loss: Tensor, ancestors: bool = True) -> list:
    """Every ndarray the backward closures on `loss`'s tape hold, through nested functions, lists and tuples;
    with ancestors=False, those of `loss`'s own record only."""
    arrays, seen = [], set()

    def visit(value):
        if id(value) in seen:
            return
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                visit(item)
        elif callable(value) and getattr(value, "__closure__", None):
            for cell in value.__closure__:
                try:
                    visit(cell.cell_contents)
                except ValueError:  # a cell not yet assigned
                    pass

    records, walked = [loss._node], set()  # apart from `seen`: a closure may hold a record (sn_forward's input's)
    while records:
        node = records.pop()
        if id(node) in walked:
            continue
        walked.add(id(node))
        visit(node.backward)
        if ancestors:
            records.extend(p for p in node.parents if isinstance(p, tensor._Node))
    return arrays


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rebuilds_to_its_data(out: Tensor) -> bool:
    """Whether `out`'s record rebuilds its data's bytes into a new array of its own."""
    again = tensor.rebuilt(out._node)
    return same_bytes(again, out.data) and not np.shares_memory(again, out.data)


class TestRebuild:
    """Each record's rebuild gives its output's bytes in a new array, from what its backward keeps."""

    @given(st.integers(1, 3), st.integers(1, 4), st.booleans(), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=30, deadline=None)
    def test_train_batchnorm_then_reshape(self, t_steps, channels, fortran, dtype):
        rng = np.random.default_rng(t_steps * 10 + channels)
        data = (rng.standard_normal((2 * t_steps, channels, 3, 2)) * 2 + 1).astype(dtype)
        x = Tensor(np.asfortranarray(data) if fortran else data, requires_grad=True)
        state = ops.BatchNormState("bn", channels, dtype=dtype)
        state.gamma.data[:] = rng.standard_normal(channels)
        state.beta.data[:] = rng.standard_normal(channels)
        bn = ops.batchnorm(x, state, True)
        assert rebuilds_to_its_data(bn) and rebuilds_to_its_data(reshape(bn, (t_steps, 2, channels, 3, 2)))
        assert tensor.rebuilt(bn._node).strides == bn.data.strides  # in the forward's memory order

    @given(st.integers(0, 2**31 - 1), st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=25, deadline=None)
    def test_scaled_attention_products(self, seed, dtype):
        # the attention's two products: strided one-byte spikes @ a float map, and one-byte spikes @ a
        # transposed float view, each times a 0-d constant
        rng = np.random.default_rng(seed)
        spikes = SpikeTensor(rng.random((2, 3, 1, 4, 8)) < 0.4)
        xh = transpose(spikes, (0, 1, 2, 4, 3))  # [2, 3, 1, 8, 4], strided like the attention's
        z = Tensor(rng.standard_normal((2, 3, 1, 4, 5)).astype(dtype), requires_grad=True)
        amap = SpikeTensor(rng.random((2, 3, 1, 8, 5)) < 0.4)
        zt = transpose(Tensor(rng.standard_normal((2, 3, 1, 4, 5)).astype(dtype), requires_grad=True), (0, 1, 2, 4, 3))
        for out in (mul(matmul(xh, z), np.float64(0.37)), mul(1.7, matmul(amap, zt))):
            assert rebuilds_to_its_data(out)

    def test_residual_sums_of_rebuilds_and_a_tracked_leaf(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 5, 2)).astype(np.float32), requires_grad=True)
        a = reshape(ops.batchnorm(x, ops.BatchNormState("a", 3, dtype=np.float32), True), (2, 2, 3, 5, 2))
        b = reshape(ops.batchnorm(x, ops.BatchNormState("b", 3, dtype=np.float32), True), (2, 2, 3, 5, 2))
        leaf = Tensor(rng.standard_normal((2, 2, 3, 5, 2)).astype(np.float32), requires_grad=True)
        before = leaf.data.copy()
        for out in (add(a, b), add(a, a), add(leaf, add(a, add(b, a))), add(add(a, b), add(b, leaf))):
            assert rebuilds_to_its_data(out)
        assert same_bytes(leaf.data, before)  # the sums run in place in new arrays, never in the leaf's

    def test_what_cannot_be_rebuilt(self, rng):
        x = t(rng.standard_normal((2, 3)))
        y = t(rng.standard_normal((2, 3)))
        assert tensor.rebuildable(x) and not tensor.rebuildable(t(np.ones(3), rg=False))
        assert not tensor.rebuildable(mul(x, y))  # no constant factor
        assert not tensor.rebuildable(mul(x, Tensor(np.full(3, 2.0))))  # not 0-d
        assert not tensor.rebuildable(add(x, t(np.ones(3))))  # broadcast
        assert not tensor.rebuildable(add(x, Tensor(np.ones((2, 3)))))  # an untracked operand
        assert not tensor.rebuildable(transpose(x, (1, 0)))
        # nor what is made from them
        assert not tensor.rebuildable(reshape(mul(x, y), (3, 2)))
        assert not tensor.rebuildable(add(x, mul(x, y))) and not tensor.rebuildable(mul(mul(x, y), 2.0))

    def test_a_freed_record_keeps_no_rebuild(self, rng):
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        out = reshape(ops.batchnorm(x, ops.BatchNormState("bn", 3), True), (2, 2, 3, 2, 2))
        backward(tensor_sum(out), free_graph=True)
        assert out._node.rebuild is None and not tensor.rebuildable(out)


class TestSpikeTensor:
    def test_binarity_enforced(self):
        SpikeTensor(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ContractError):
            SpikeTensor(np.array([0.5]))

    def test_shape_ops_preserve_class(self):
        s = SpikeTensor(np.array([[[0.0, 1.0]], [[1.0, 1.0]]]))
        for out in (reshape(s, (2, 2)), transpose(s, (2, 0, 1))):
            assert isinstance(out, SpikeTensor)

    def test_arithmetic_keeps_plain_tensor(self):
        s = SpikeTensor(np.array([0.0, 1.0]))
        for out in (add(s, 0.5), mul(s, 2.0)):
            assert type(out) is Tensor

    def test_binarity_is_a_dtype_fact(self):
        s = SpikeTensor(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32))
        assert s.data.dtype == np.bool_ and s.data.itemsize == 1
        np.testing.assert_array_equal(s.data, [[False, True], [True, False]])
        # the value check runs before the cast to bool, which would take each of these for True
        for bad in (2.0, 0.5, -1.0, np.nan):
            with pytest.raises(ContractError):
                SpikeTensor(np.array([0.0, bad]))

    def test_mean_of_spikes_is_a_float_rate(self):
        s = SpikeTensor(np.array([[1.0, 1.0], [0.0, 1.0]]))
        whole = tensor_mean(s).data
        assert whole.dtype == np.float64 and whole == 0.75
        rows = tensor_mean(s, axis=1, dtype=np.float32).data
        assert rows.dtype == np.float32 and rows.tolist() == [1.0, 0.5]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spike_operands_give_the_bits_of_float_spikes(self, rng, dtype):
        # matmul and mul convert one-byte spikes where they compute, forward and backward; a strided
        # spike view keeps its strides, so the products are those of the float spikes bit for bit
        spikes = rng.random((2, 5, 7)) < 0.4
        w = rng.standard_normal((2, 5, 3)).astype(dtype)
        v = rng.standard_normal((2, 5, 7)).astype(dtype)
        runs = []
        for s in (SpikeTensor(spikes, requires_grad=True), Tensor(spikes.astype(dtype), requires_grad=True)):
            wt, vt = Tensor(w, requires_grad=True), Tensor(v, requires_grad=True)
            prod = matmul(transpose(s, (0, 2, 1)), wt)  # [2, 7, 3], the spikes strided
            loss = add(tensor_sum(mul(prod, prod)), tensor_sum(mul(s, vt)))
            backward(loss)
            runs.append((prod.data, loss.data, s.grad, wt.grad, vt.grad))
        assert runs[0][0].dtype == dtype
        for a, b in zip(*runs):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.fixture
def fresh_allocator_setting():
    tensor._keep_freed_memory.cache_clear()
    yield
    tensor._keep_freed_memory.cache_clear()


def recording_mallopt(result, calls):
    def mallopt(param, value):
        calls.append((param, value))
        return result

    return mallopt


def freeing_steps(n=3):
    a = t([1.0, 2.0])
    for _ in range(n):
        a.grad = None
        backward(tensor_sum(mul(a, a)), free_graph=True)
        np.testing.assert_array_equal(a.grad, [2.0, 4.0])


@pytest.mark.usefixtures("fresh_allocator_setting")
class TestAllocatorSetting:
    def test_first_freeing_backward_sets_both_thresholds_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensor, "_mallopt", lambda: recording_mallopt(1, calls))
        freeing_steps()
        # M_MMAP_THRESHOLD to glibc's 64-bit maximum, then M_TRIM_THRESHOLD to the largest C int
        assert calls == [(-3, 32 * 1024 * 1024), (-1, 2**31 - 1)]
        assert tensor._keep_freed_memory() is True

    def test_missing_symbol_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(tensor, "_mallopt", lambda: None)
        freeing_steps()
        assert tensor._keep_freed_memory() is False

    def test_refused_mmap_threshold_leaves_the_trim_threshold(self, monkeypatch):
        # either threshold alone faults as much as neither, so a refusal stops at the first
        calls = []
        monkeypatch.setattr(tensor, "_mallopt", lambda: recording_mallopt(0, calls))
        freeing_steps()
        assert calls == [(-3, 32 * 1024 * 1024)]
        assert tensor._keep_freed_memory() is False

    def test_backward_that_keeps_the_graph_never_sets_it(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tensor, "_mallopt", lambda: recording_mallopt(1, calls))
        a = t([1.0, 2.0])
        backward(tensor_sum(mul(a, a)))
        backward(tensor_sum(mul(a, a)), free_graph=False)
        assert calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_mallopt_is_found(self):
        assert tensor._mallopt() is not None
