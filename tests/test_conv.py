"""Convolution and pooling against direct-loop oracles."""

import numpy as np
import pytest

from dualspike import ops, parallel, verification
from dualspike.layers import RunContext
from dualspike.model import DualSpikeNet, build
from dualspike.ops import conv2d, conv_output_size, cross_entropy, maxpool2d
from dualspike.tensor import ConfigError, ShapeError, Tensor, backward, mul, tensor_sum

from conftest import assert_grads_close, workers


def conv_reference(x, w, stride, padding, groups):
    """Naive nested-loop grouped convolution, the independent oracle."""
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w_in + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    og = o // groups
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oc in range(o):
            gi = oc // og
            for oi in range(ho):
                for oj in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[ni, gi * cg + ci, oi * stride + ki, oj * stride + kj]
                                    * w[oc, ci, ki, kj]
                                )
                    out[ni, oc, oi, oj] = acc
    return out


CASES = [
    # n, c, h, w, o, k, stride, padding, groups
    pytest.param(1, 2, 4, 4, 3, 2, 2, 0, 1, id="patchify-2x2"),
    pytest.param(2, 3, 6, 6, 4, 1, 1, 0, 1, id="pointwise"),
    pytest.param(2, 4, 5, 5, 4, 3, 1, 1, 2, id="3x3-grouped"),
    pytest.param(1, 3, 9, 9, 5, 3, 2, 1, 1, id="3x3-stride2"),
    pytest.param(1, 3, 15, 15, 4, 7, 2, 3, 1, id="7x7-stem-shape"),
    pytest.param(2, 6, 8, 8, 6, 4, 4, 0, 3, id="patchify-grouped"),
]


class TestConvForward:
    @pytest.mark.parametrize("n,c,h,w,o,k,s,p,g", CASES)
    def test_matches_loop_oracle(self, rng, n, c, h, w, o, k, s, p, g):
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((o, c // g, k, k))
        out = conv2d(Tensor(x), Tensor(wt), stride=s, padding=p, groups=g)
        np.testing.assert_allclose(out.data, conv_reference(x, wt, s, p, g), atol=1e-12)

    def test_pointwise_equals_matmul(self, rng):
        x = rng.standard_normal((2, 5, 3, 3))
        wt = rng.standard_normal((4, 5, 1, 1))
        out = conv2d(Tensor(x), Tensor(wt))
        expect = np.einsum("oc,nchw->nohw", wt[:, :, 0, 0], x)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_hand_example_2x2(self):
        # single channel 4x4, 2x2 kernel of ones, stride 2: block sums
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        wt = np.ones((1, 1, 2, 2))
        out = conv2d(Tensor(x), Tensor(wt), stride=2)
        np.testing.assert_array_equal(out.data, [[[[10, 18], [42, 50]]]])


def offsets_oracle(x, w, stride, padding, groups):
    """Reference oracle: the whole-batch per-offset lowering of overlapping kernels.

    One GEMM per (kernel offset, group) over all N*Ho*Wo columns of a
    channels-leading copy, added up in offset order. The chunked forward of
    `ops._conv2d_offsets` must reproduce it bit for bit.
    """
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w.shape
    og = o // groups
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w_in, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xg = np.ascontiguousarray(xp.transpose(1, 0, 2, 3)).reshape(groups, cg, n, *xp.shape[2:])
    acc = np.zeros((groups, og, n * ho * wo), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            win = xg[:, :, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
            xs = np.ascontiguousarray(win).reshape(groups, cg, n * ho * wo)
            wk = np.ascontiguousarray(w[:, :, di, dj]).reshape(groups, og, cg)
            for gi in range(groups):
                acc[gi] += np.matmul(wk[gi], xs[gi])
    return np.ascontiguousarray(acc.reshape(o, n, ho, wo).transpose(1, 0, 2, 3))


def offsets_backward_oracle(x, w, g, stride, padding, groups):
    """Reference oracle: the whole-batch backward of the per-offset lowering.

    Per kernel offset, a channels-leading copy of the padded input window and
    of g over all N*Ho*Wo columns; one GEMM per (offset, group) gives that
    offset's dW tap (K = N*Ho*Wo) and its dX columns, which are added in
    offset order into a zeroed padded buffer. The backward of
    `ops._conv2d_offsets`, with dX chunked, must reproduce both bit for bit.
    """
    n, c, h, w_in = x.shape
    o, cg, kh, kw = w.shape
    og = o // groups
    ho, wo = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2:]
    xg = np.ascontiguousarray(xp.transpose(1, 0, 2, 3)).reshape(groups, cg, n, hp, wp)
    gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, og, n * ho * wo)
    w6 = w.reshape(groups, og, cg, kh, kw)
    dw6 = np.zeros_like(w6)
    gp = np.zeros((groups, cg, n, hp, wp), dtype=x.dtype)
    dxs = np.empty((groups, cg, n * ho * wo), dtype=x.dtype)
    for di in range(kh):
        for dj in range(kw):
            si, sj = slice(di, di + stride * ho, stride), slice(dj, dj + stride * wo, stride)
            xs = np.ascontiguousarray(xg[:, :, :, si, sj]).reshape(groups, cg, n * ho * wo)
            wk_t = np.ascontiguousarray(w6[:, :, :, di, dj].swapaxes(1, 2))  # [g, cg, og]
            for gi in range(groups):
                dw6[gi, :, :, di, dj] += np.matmul(gt[gi], xs[gi].T)
                np.matmul(wk_t[gi], gt[gi], out=dxs[gi])
            gp[:, :, :, si, sj] += dxs.reshape(groups, cg, n, ho, wo)
    cropped = gp.reshape(c, n, hp, wp)[:, :, padding : padding + h, padding : padding + w_in]
    return np.ascontiguousarray(cropped.transpose(1, 0, 2, 3)), dw6.reshape(w.shape)


def conv_grads(x, w, g, stride, padding, groups):
    """(dx, dW) of conv2d on the tape for upstream gradient g."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = conv2d(xt, wt, stride=stride, padding=padding, groups=groups)
    backward(tensor_sum(mul(out, Tensor(g))))  # the conv node receives g itself
    return xt.grad, wt.grad


class TestConvBitExact:
    """The chunked offset-path forward and backward equal the whole-batch lowering bit for bit.

    Float32 at the model's group width (64 channels), on inputs whose chunk
    GEMMs are as wide as the model's: the contract `ops._conv2d_offsets`
    states and the benchmark's reference losses rest on.
    """

    @pytest.fixture(params=[None, 2], ids=["one-chunk", "chunks-of-2-2-1"])
    def chunking(self, request, monkeypatch):
        """Set CHUNK_ELEMENTS to two images of a layer, so 5 images run as chunks of 2, 2 and 1."""

        def set_for(c, o, l):
            if request.param is not None:
                monkeypatch.setattr(ops, "CHUNK_ELEMENTS", request.param * max(c, o) * l)

        return set_for

    @pytest.fixture(params=[1, 2, 3, 4], ids=lambda n: f"{n}-workers")
    def width(self, request, monkeypatch):
        """Split the pooled work over 1 to 4 workers. dW runs its (group, offset) pairs in contiguous
        runs: at 3 workers the 18 pairs of 2 groups split 6/6/6, so the middle run spans both groups."""
        workers(monkeypatch, request.param)

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_binary_spikes(self, rng, chunking, groups, stride):
        n, c, h = 5, 64 * groups, 24
        x = (rng.random((n, c, h, h)) < 0.25).astype(np.float32)
        w = rng.standard_normal((c, 64, 3, 3)).astype(np.float32)
        ho = conv_output_size(h, 3, stride, 1)
        chunking(c, c, ho * ho)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=1, groups=groups).data
        expect = offsets_oracle(x, w, stride, 1, groups)
        assert out.dtype == expect.dtype and np.array_equal(out, expect)

    def test_real_valued_stem(self, rng, chunking):
        n, h = 5, 32
        x = rng.standard_normal((n, 3, h, h)).astype(np.float32)
        w = rng.standard_normal((32, 3, 3, 3)).astype(np.float32)
        chunking(3, 32, h * h)
        out = conv2d(Tensor(x), Tensor(w), stride=1, padding=1).data
        assert np.array_equal(out, offsets_oracle(x, w, 1, 1, 1))

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("groups", [1, 2, 8])
    def test_backward_binary_spikes(self, rng, chunking, width, groups, stride):
        n, c, h = 5, 64 * groups, 24
        x = (rng.random((n, c, h, h)) < 0.25).astype(np.float32)
        w = rng.standard_normal((c, 64, 3, 3)).astype(np.float32)
        ho = conv_output_size(h, 3, stride, 1)
        g = rng.standard_normal((n, c, ho, ho)).astype(np.float32)
        chunking(c, c, ho * ho)
        dx, dw = conv_grads(x, w, g, stride, 1, groups)
        expect_dx, expect_dw = offsets_backward_oracle(x, w, g, stride, 1, groups)
        assert dx.dtype == expect_dx.dtype and dw.dtype == expect_dw.dtype
        assert np.array_equal(dx, expect_dx) and np.array_equal(dw, expect_dw)

    def test_backward_real_valued_stem(self, rng, chunking, width):
        n, h = 5, 32
        x = rng.standard_normal((n, 3, h, h)).astype(np.float32)
        w = rng.standard_normal((32, 3, 3, 3)).astype(np.float32)
        g = rng.standard_normal((n, 32, h, h)).astype(np.float32)
        chunking(3, 32, h * h)
        dx, dw = conv_grads(x, w, g, 1, 1, 1)
        expect_dx, expect_dw = offsets_backward_oracle(x, w, g, 1, 1, 1)
        assert np.array_equal(dx, expect_dx) and np.array_equal(dw, expect_dw)


def cols_oracle(x, w, g, k, groups):
    """Reference oracle: the non-overlapping (kernel == stride, no padding) lowering, spelled out.

    The columns [groups, (C/g)*k*k, N*Ho*Wo] are filled one kernel offset at a
    time from strided slices of x, in (channel, offset) row order and (image,
    position) column order. Per group, one GEMM gives the output, one gives dW
    (K = N*Ho*Wo) and one gives the dX columns, which each offset's slice of dX
    takes back. Returns (out, dx, dW); `ops._conv2d_cols` must reproduce all
    three bit for bit.
    """
    n, c, h, w_in = x.shape
    o, cg = w.shape[:2]
    og, ho, wo = o // groups, h // k, w_in // k
    cols = np.empty((groups, cg, k, k, n, ho, wo), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            cols[:, :, di, dj] = x[:, :, di::k, dj::k].reshape(n, groups, cg, ho, wo).transpose(1, 2, 0, 3, 4)
    cols = cols.reshape(groups, cg * k * k, n * ho * wo)
    wg = w.reshape(groups, og, cg * k * k)
    gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, og, n * ho * wo)
    out = np.stack([np.matmul(wg[gi], cols[gi]) for gi in range(groups)])
    dw = np.stack([np.matmul(gt[gi], cols[gi].T) for gi in range(groups)])
    dcols = np.stack([np.matmul(wg[gi].T, gt[gi]) for gi in range(groups)])
    dcols = dcols.reshape(groups, cg, k, k, n, ho, wo)
    dx = np.empty_like(x)
    for di in range(k):
        for dj in range(k):
            dx[:, :, di::k, dj::k] = dcols[:, :, di, dj].transpose(2, 0, 1, 3, 4).reshape(n, c, ho, wo)
    out = np.ascontiguousarray(out.reshape(o, n, ho, wo).transpose(1, 0, 2, 3))
    return out, dx, dw.reshape(w.shape)


class TestConvColsBitExact:
    """1x1 and patchify convs (the `_conv2d_cols` path) equal the spelled-out lowering bit for bit."""

    PARAMS = pytest.mark.parametrize(
        "c,o,h,k,groups",
        [
            pytest.param(64, 128, 16, 1, 1, id="1x1"),
            pytest.param(128, 128, 16, 1, 2, id="1x1-grouped"),
            pytest.param(32, 64, 16, 2, 1, id="patchify-2"),
            pytest.param(64, 64, 16, 4, 1, id="patchify-4"),
            pytest.param(64, 64, 16, 2, 2, id="patchify-2-grouped"),
        ],
    )

    @PARAMS
    def test_forward_and_backward(self, rng, c, o, h, k, groups):
        self.check(rng, c, o, h, k, groups)

    @PARAMS
    def test_forward_and_backward_in_chunks_of_two_images(self, rng, monkeypatch, c, o, h, k, groups):
        monkeypatch.setattr(ops, "CHUNK_ELEMENTS", 2 * max(c, o) * (h // k) ** 2)
        self.check(rng, c, o, h, k, groups)

    def check(self, rng, c, o, h, k, groups):
        n = 4
        x = (rng.random((n, c, h, h)) < 0.25).astype(np.float32)
        w = rng.standard_normal((o, c // groups, k, k)).astype(np.float32)
        g = rng.standard_normal((n, o, h // k, h // k)).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=k, groups=groups).data
        dx, dw = conv_grads(x, w, g, k, 0, groups)
        expect_out, expect_dx, expect_dw = cols_oracle(x, w, g, k, groups)
        assert out.dtype == dx.dtype == dw.dtype == np.float32
        assert np.array_equal(out, expect_out)
        assert np.array_equal(dx, expect_dx) and np.array_equal(dw, expect_dw)


class TestConvBackward:
    @pytest.mark.parametrize(
        "n,c,h,w,o,k,s,p,g",
        [
            (1, 2, 4, 4, 2, 2, 2, 0, 1),
            (1, 2, 5, 5, 4, 3, 1, 1, 2),
            (1, 2, 5, 5, 2, 3, 2, 1, 1),
        ],
    )
    def test_fd_gradients(self, rng, n, c, h, w, o, k, s, p, g):
        x = Tensor(rng.standard_normal((n, c, h, w)), requires_grad=True)
        wt = Tensor(rng.standard_normal((o, c // g, k, k)), requires_grad=True)
        proj = Tensor(rng.standard_normal((n, o) + (conv_output_size(h, k, s, p),) * 2))
        assert_grads_close(
            lambda: tensor_sum(mul(conv2d(x, wt, stride=s, padding=p, groups=g), proj)),
            [x, wt],
            atol=1e-8,
        )


class TestConvErrors:
    def test_kernel_too_large(self):
        with pytest.raises(ShapeError):
            conv_output_size(4, 7, 1, 0)

    def test_group_divisibility(self, rng):
        x = Tensor(rng.standard_normal((1, 6, 4, 4)))
        wt = Tensor(rng.standard_normal((4, 2, 1, 1)))
        with pytest.raises(ConfigError):
            conv2d(x, wt, groups=4)

    def test_weight_channel_mismatch(self, rng):
        x = Tensor(rng.standard_normal((1, 6, 4, 4)))
        wt = Tensor(rng.standard_normal((4, 5, 1, 1)))
        with pytest.raises(ShapeError):
            conv2d(x, wt)

    def test_input_rank(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((1, 3, 1, 1))))


class TestMaxPool:
    def test_hand_oracle(self):
        x = np.array([[[[1.0, 2, 5, 3], [4, 0, 1, 2], [7, 8, 2, 1], [0, 3, 4, 9]]]])
        out = maxpool2d(Tensor(x), 2, 2)
        np.testing.assert_array_equal(out.data, [[[[4, 5], [8, 9]]]])

    def test_stem_shape_3x3_s2_p1(self, rng):
        x = rng.standard_normal((2, 3, 16, 16))
        out = maxpool2d(Tensor(x), 3, 2, padding=1)
        assert out.data.shape == (2, 3, 8, 8)

    def test_padding_never_wins(self):
        x = -np.ones((1, 1, 2, 2))
        out = maxpool2d(Tensor(x), 3, 2, padding=1)
        assert (out.data == -1).all()

    def test_grad_routes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 2], [3, 0]]]]), requires_grad=True)
        backward(tensor_sum(maxpool2d(x, 2, 2)))
        np.testing.assert_array_equal(x.grad, [[[[0, 0], [1, 0]]]])

    def test_fd_gradients(self, rng):
        # distinct values keep argmax stable under the FD step
        vals = rng.permutation(36).astype(np.float64).reshape(1, 1, 6, 6)
        x = Tensor(vals, requires_grad=True)
        proj = Tensor(rng.standard_normal((1, 1, 3, 3)))
        assert_grads_close(lambda: tensor_sum(mul(maxpool2d(x, 2, 2), proj)), [x], atol=1e-7)


class TestSplitBounds:
    """`ops.split_bounds`, the one near-equal split: offset-path conv chunks, `predict` chunks, Monte Carlo streams;
    and `parallel.split`, its one piece per worker."""

    @pytest.mark.parametrize("total, parts", [
        (0, 1), (1, 1), (5, 3), (7, 3), (10, 4), (15, 16), (64, 32), (65, 32), (6250, 16), (100_003, 16),
    ])
    def test_sizes_differ_by_one_at_most_larger_first(self, total, parts):
        bounds = ops.split_bounds(total, parts)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == total and sizes.size == parts
        assert sizes.max() - sizes.min() <= 1
        assert list(sizes) == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("samples", [16, 2_000, 20_000, 100_000, 100_003])
    def test_monte_carlo_streams_draw_what_they_drew(self, samples):
        # each stream drew `base` draws, one more for the first `rem` streams; the suites' budgets are
        # max(16, ceil(samples / 16)) draws of the dual-spike product and `samples` draws of sdsa
        streams = verification._N_STREAMS
        for draws in (max(streams, -(-samples // 16)), samples):
            base, rem = divmod(draws, streams)
            old = [base + (1 if i < rem else 0) for i in range(streams)]
            assert list(np.diff(ops.split_bounds(draws, streams))) == old

    def test_five_images_in_three_chunks(self):
        assert ops.split_bounds(5, 3) == [0, 2, 4, 5]  # TestConvBitExact's 2-2-1 chunking

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    @pytest.mark.parametrize("least", [1, 2])
    @pytest.mark.parametrize("total", range(6))
    def test_split_gives_each_worker_a_piece_of_at_least_least(self, monkeypatch, width, least, total):
        # `parallel.split`: as many near-equal pieces as there are workers, each at least `least` long, fewer
        # where `total` is too short, and one where it is shorter than `least`; least 2 at 2, 3 and 5 channels
        # is train-mode batch norm's channel ranges
        monkeypatch.setattr(parallel, "width", lambda: width)
        bounds = parallel.split(total, least)
        sizes = np.diff(bounds)
        parts = sizes.size
        assert bounds[0] == 0 and bounds[-1] == total and 1 <= parts <= width
        assert sizes.max() - sizes.min() <= 1 and list(sizes) == sorted(sizes, reverse=True)
        assert parts == 1 or sizes.min() >= least
        assert parts == width or (parts + 1) * least > total  # no more pieces would fit


class TestNoImageGradient:
    """A conv whose input needs no gradient computes no dX: the stem's encoded images."""

    def step_gradients(self, monkeypatch, images_tracked):
        stem_grads = []
        conv = ops.conv2d

        def recording(x, weight, **kwargs):
            out = conv(x, weight, **kwargs)
            if weight.name == "stem.conv.weight":
                bw = out._node.backward
                out._node.backward = lambda g: stem_grads.append(bw(g)) or stem_grads[-1]
            return out

        monkeypatch.setattr(ops, "conv2d", recording)
        if images_tracked:  # the input then needs a gradient, and the stem computes dX as before
            encode = DualSpikeNet.encode
            monkeypatch.setattr(DualSpikeNet, "encode", lambda self, images: Tensor(
                encode(self, images).data, requires_grad=True))
        net = build("Nano", seed=0)
        rng = np.random.default_rng(7)
        images = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
        backward(cross_entropy(net.forward(images, RunContext(training=True)), rng.integers(0, 10, 3)),
                 free_graph=True)
        monkeypatch.undo()
        return stem_grads, [p.grad for p in net.parameters()]

    def test_stem_returns_none_for_the_images_and_the_same_gradients(self, monkeypatch):
        (stem,), grads = self.step_gradients(monkeypatch, images_tracked=False)
        (stem_tracked,), want = self.step_gradients(monkeypatch, images_tracked=True)
        assert stem[0] is None and stem_tracked[0].shape == (3 * 4, 3, 32, 32)
        assert np.array_equal(stem[1], stem_tracked[1])
        assert len(grads) == len(want) == 65
        for a, b in zip(grads, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("k", [1, 3])
    def test_untracked_input_gets_none_on_both_paths(self, rng, k):
        x = Tensor((rng.random((2, 4, 6, 6)) < 0.5).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 4, k, k)).astype(np.float32), requires_grad=True)
        out = conv2d(x, w, padding=k // 2)
        dx, dw = out._node.backward(np.ones_like(out.data))
        assert dx is None and dw.shape == w.data.shape
