"""Structured ops on the tape: convolution, pooling, batch norm, losses.

Convolution lowers to grouped GEMM over near-equal chunks of the batch of
about CHUNK_ELEMENTS activations. Non-overlapping kernels (1x1 and the
kernel==stride patchify used by token embeddings) regroup a chunk's input
into the GEMM columns with one reshape-and-transpose copy, and dcols into dX
with one copy back (`_conv2d_cols`). Overlapping kernels run one GEMM per
(kernel offset, group) with K = C/g, adding the offsets up in a fixed order;
both backwards chunk dX the same way and keep dW whole-batch. That avoids the
kh*kw column blowup and keeps each chunk's operands in cache. The offsets
are not fused into one K = C/g*kh*kw GEMM on purpose: that re-associates
the float32 sums, which flips spikes downstream and moves the training
losses; the chunked forward and backward keep the whole-batch lowering's
bits (see `_conv2d_offsets`). A conv takes one-byte spikes as they are and
converts them to the weight's dtype in its column or window copies, so its
backward closure keeps the one-byte input.

Batch norm runs its elementwise passes in place: the train-mode forward
keeps the variance's squares in its output array until the affine
overwrites them, and its backward has one full-size temporary. Every
product and sum is the one the plain expressions compute, in the same
order, so the bits are the same.

The chunks, the dW GEMMs and train-mode batch norm's channel ranges run
over the process's pinned workers (`parallel`), each piece writing into
arrays allocated here in the calling thread. A piece is never a part of a
sum, so no output changes with the worker count.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import parallel
from .parallel import split_bounds
from .tensor import (
    ConfigError,
    ContractError,
    Parameter,
    ShapeError,
    Tensor,
    _slot,
    make_node,
    matmul,  # Linear.forward calls ops.matmul
)


CHUNK_ELEMENTS = 1 << 20  # activations per image chunk of a conv's forward and dX


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(f"kernel {kernel} (stride {stride}, padding {padding}) does not fit input of size {size}")
    return out


def _pad_hw(x: np.ndarray, padding: int, value: float = 0.0) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), constant_values=value)


def conv2d(x: Tensor, weight: Tensor, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """Grouped 2-D convolution, no bias. x: [N,Cin,H,W], weight: [Cout,Cin/g,kh,kw]."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be [N,C,H,W], got {x.data.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be [O,C/g,kh,kw], got {weight.data.shape}")
    n, c, h, w = x.data.shape
    o, cg, kh, kw = weight.data.shape
    if groups < 1 or c % groups or o % groups:
        raise ConfigError(f"channels ({c} in, {o} out) not divisible by groups={groups}")
    if cg != c // groups:
        raise ShapeError(f"weight expects {cg} channels per group, input provides {c // groups} ({c} / {groups})")
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(w, kw, stride, padding)
    if kh == stride and kw == stride and padding == 0 and h % kh == 0 and w % kw == 0:
        return _conv2d_cols(x, weight, stride, padding, groups, ho, wo)
    return _conv2d_offsets(x, weight, stride, padding, groups, ho, wo)


def _image_chunks(n: int, c: int, o: int, l: int) -> list:
    """Bounds of a conv's near-equal image chunks of about CHUNK_ELEMENTS activations (`split_bounds`)."""
    return split_bounds(n, min(n, -(-n * max(c, o) * l // CHUNK_ELEMENTS)))


def _channels_leading(a: np.ndarray, padding: int = 0) -> np.ndarray:
    """A contiguous [C, N, H + 2p, W + 2p] copy of `a` [N, C, H, W], zero-padded by `padding`,
    copied over the workers by channel ranges."""
    n, c, h, w = a.shape
    out = (np.zeros if padding else np.empty)((c, n, h + 2 * padding, w + 2 * padding), dtype=a.dtype)

    def copy(c0, c1):
        np.copyto(out[c0:c1, :, padding : padding + h, padding : padding + w], a[:, c0:c1].swapaxes(0, 1))

    parallel.over_chunks(split_bounds(c, min(c, parallel.width())), copy)
    return out


def _conv2d_cols(x: Tensor, weight: Tensor, stride, padding, groups, ho, wo) -> Tensor:
    """Patchify path (kernel == stride, no padding): the columns are the input, regrouped.

    Per image chunk (`_image_chunks`), one reshape-and-transpose copy lays
    the chunk's input out as columns [g, (C/g)*kh*kw, m*Ho*Wo] in a reused
    buffer of the weight's dtype, so one-byte spikes are converted in that
    copy, and each group runs one wide GEMM. The backward chunks dX the same
    way, with the transposed kernel; dW is one GEMM per group over the
    columns of the whole batch (K = N*Ho*Wo), split over the workers by its
    rows or its columns. Chunk GEMMs stay on OpenBLAS's blocked kernel, which
    computes a column independently of the column count, so the chunks give
    the bits of whole-batch GEMMs (see `_conv2d_offsets`).
    """
    n, c, h, w = x.data.shape
    o, cg, kh, kw = weight.data.shape
    og, k, l = o // groups, cg * kh * kw, ho * wo
    xd, wd = x.data, weight.data
    wg = wd.reshape(groups, og, k)
    bounds = _image_chunks(n, c, o, l)
    cols = bounds[1] * l  # columns of the first chunk, the widest

    def regroup(src, dst, stage):  # src [m, C, H, W] as columns [g, cg, kh, kw, m, ho, wo] into dst
        # the transposing copy keeps src's dtype (into `stage`, a buffer of it), and a contiguous
        # copy converts: a converting copy straight from the strided view is several times slower
        six = src.reshape(len(src), groups, cg, ho, kh, wo, kw).transpose(1, 2, 4, 6, 0, 3, 5)
        if src.dtype != dst.dtype:
            staged = stage[: six.size].reshape(six.shape)
            np.copyto(staged, six)
            six = staged
        np.copyto(dst, six)

    def buffers(*sizes):  # one run's buffers: these of the weight's dtype, then a staging one of x's
        return lambda: [np.empty(size, dtype=wd.dtype) for size in sizes] + [np.empty(c * h * w * bounds[1], xd.dtype)]

    out = np.empty((n, o, ho, wo), dtype=wd.dtype)

    def forward_chunk(b0, b1, col_buf, prod_buf, stage):
        m = b1 - b0
        xcols = col_buf[: groups * k * m * l].reshape(groups, cg, kh, kw, m, ho, wo)
        regroup(xd[b0:b1], xcols, stage)
        prod = prod_buf[: o * m * l].reshape(groups, og, m * l)
        np.matmul(wg, xcols.reshape(groups, k, m * l), out=prod)
        out[b0:b1] = prod.reshape(o, m, ho, wo).transpose(1, 0, 2, 3)

    parallel.over_chunks(bounds, forward_chunk, buffers(groups * k * cols, o * cols))
    need_dx = _slot(x) is not None  # the images of the stem need none

    def bw(g):
        gt = _channels_leading(g).reshape(groups, og, n * l)
        xcols = np.empty((groups, cg, kh, kw, n, ho, wo), dtype=wd.dtype)
        parallel.over_chunks(bounds, lambda b0, b1, stage: regroup(xd[b0:b1], xcols[:, :, :, :, b0:b1], stage),
                             buffers())
        xcols = xcols.reshape(groups, k, n * l)
        dw = np.empty((groups, og, k), dtype=wd.dtype)

        # split by dW's rows or its columns, whichever splits the larger operand, so each worker packs
        # half of it; at least two rows or columns each: one would go to gemv, which rounds otherwise
        def dw_part(p0, p1):
            if og >= k:
                np.matmul(gt[:, p0:p1], xcols.swapaxes(-1, -2), out=dw[:, p0:p1])
            else:
                np.matmul(gt, xcols[:, p0:p1].swapaxes(-1, -2), out=dw[:, :, p0:p1])

        parallel.over_chunks(split_bounds(max(og, k), max(1, min(max(og, k) // 2, parallel.width()))), dw_part)
        del xcols
        if not need_dx:
            return (None, dw.reshape(wd.shape))
        dx = np.empty((n, c, h, w), dtype=wd.dtype)
        wt = wg.swapaxes(-1, -2)

        def dx_chunk(b0, b1, dcols_buf):
            m = b1 - b0
            dcols = dcols_buf[: groups * k * m * l].reshape(groups, k, m * l)
            np.matmul(wt, gt[:, :, b0 * l : b1 * l], out=dcols)
            dx[b0:b1].reshape(m, groups, cg, ho, kh, wo, kw)[...] = dcols.reshape(
                groups, cg, kh, kw, m, ho, wo).transpose(4, 0, 1, 5, 2, 6, 3)

        parallel.over_chunks(bounds, dx_chunk, lambda: [np.empty(groups * k * cols, dtype=wd.dtype)])
        return (dx, dw.reshape(wd.shape))

    return make_node(out, (x, weight), bw)


def _conv2d_offsets(x: Tensor, weight: Tensor, stride, padding, groups, ho, wo) -> Tensor:
    """Overlapping kernels: one wide GEMM per (kernel offset, group), chunk by chunk.

    The forward splits the batch into near-equal image chunks of about
    CHUNK_ELEMENTS activations (`_image_chunks`). Per chunk and group, each
    kernel offset copies the group's strided window into a reused
    channels-leading buffer [C/g, m*Ho*Wo] and contracts it against the
    matching kernel tap (K = C/g); the products are added in offset order,
    and the sum is written back to the group's channels of [N, C, Ho, Wo].
    A chunk's operands stay cache-sized, and neither a kh*kw column matrix
    nor a channels-leading copy of the whole batch is built. The window
    buffers take the weight's dtype, so one-byte spikes are converted in the
    window copy and never whole. The chunks run over the workers
    (`parallel.over_chunks`), each run of chunks in its own buffers.

    Bit-exact contract: each output is the same K-term GEMM sum, added over
    the offsets in the same order, as one GEMM per offset over all N*Ho*Wo
    columns gives; a batch that fits in one chunk runs exactly those GEMMs.
    Across chunks the bits hold where BLAS computes a column independently
    of the column count. OpenBLAS's blocked sgemm does, and chunks of about
    CHUNK_ELEMENTS keep the model's GEMMs on it; its small-matrix kernel and
    its float64 edge kernels can round differently. `tests/test_conv.py` and
    `tests/test_reference.py` pin the float32 bits.

    In the backward, dW stays whole-batch: one GEMM per (offset, group)
    reduces over all K = N*Ho*Wo columns in one call (splitting that K
    re-associates the sum and moves the training losses), reading each
    offset's window from one padded channels-leading copy of the input.
    Those GEMMs split over the workers by group, or by kernel offset where
    groups is 1. dX is chunked over the forward's image bounds: per chunk,
    the same per-(offset, group) GEMMs against the transposed taps, added in
    offset order into the zeroed chunk of dX where each window lies inside
    the input. Its bits hold across chunks as the forward's do. An input
    that needs no gradient (the encoded images at the stem) gets no dX.
    """
    n, c, h, w = x.data.shape
    o, cg, kh, kw = weight.data.shape
    og, l, taps = o // groups, ho * wo, kh * kw
    xd, wd = x.data, weight.data
    w6 = wd.reshape(groups, og, cg, kh, kw)
    hp, wp = h + 2 * padding, w + 2 * padding

    def offset_slices(tap):
        di, dj = divmod(tap, kw)
        return slice(di, di + stride * ho, stride), slice(dj, dj + stride * wo, stride)

    # contiguous per-offset taps; strided weight views would push matmul
    # off the BLAS kernel onto the slow ufunc loop
    w_off = [np.ascontiguousarray(w6[:, :, :, di, dj]) for di in range(kh) for dj in range(kw)]

    xp = np.zeros((n, c, hp, wp), dtype=xd.dtype) if padding else xd  # each chunk fills its own images
    bounds = _image_chunks(n, c, o, l)
    cols = bounds[1] * l  # columns of the first chunk, the widest
    out = np.empty((n, o, ho, wo), dtype=wd.dtype)

    def forward_chunk(b0, b1, xs_buf, acc_buf, prod_buf):
        m = b1 - b0
        if padding:
            xp[b0:b1, :, padding : padding + h, padding : padding + w] = xd[b0:b1]
        xs = xs_buf[: cg * m * l].reshape(cg, m, ho, wo)
        acc = acc_buf[: og * m * l].reshape(og, m * l)
        prod = prod_buf[: og * m * l].reshape(og, m * l)
        for gi in range(groups):
            acc.fill(0.0)  # zero, then add each offset, as the whole-batch lowering does (sign of zero sums)
            for tap, wk in enumerate(w_off):
                si, sj = offset_slices(tap)
                np.copyto(xs, xp[b0:b1, gi * cg : (gi + 1) * cg, si, sj].transpose(1, 0, 2, 3))
                np.matmul(wk[gi], xs.reshape(cg, m * l), out=prod)
                acc += prod
            out[b0:b1, gi * og : (gi + 1) * og] = acc.reshape(og, m, ho, wo).transpose(1, 0, 2, 3)

    parallel.over_chunks(bounds, forward_chunk, lambda: [np.empty(rows * cols, wd.dtype) for rows in (cg, og, og)])
    need_dx = _slot(x) is not None  # the images of the stem need none

    def weight_grad(gt):
        # One GEMM per (offset, group) over all N*Ho*Wo columns. The input is
        # padded once, channels-leading and in its own dtype (one byte for
        # spikes), so each offset's window copy into a [C, N*Ho*Wo] buffer of
        # the weight's dtype reads rows in order. Its buffers are freed on
        # return, before the dX buffers exist: lower peak memory.
        xpc = _channels_leading(xd, padding)
        dw6 = np.zeros_like(w6)

        def dw_taps(group_range, tap_range, xs):
            xsg = xs.reshape(groups, cg, n * l)
            rows = slice(group_range.start * cg, group_range.stop * cg)
            for tap in tap_range:
                si, sj = offset_slices(tap)
                np.copyto(xs[rows], xpc[rows, :, si, sj])
                for gi in group_range:
                    dw6[gi, :, :, tap // kw, tap % kw] += np.matmul(gt[gi], xsg[gi].T)

        if groups > 1:  # by group: each fills its own channel rows of one window buffer
            xs = np.empty((c, n, ho, wo), dtype=wd.dtype)
            parallel.over_chunks(range(groups + 1), lambda g0, g1: dw_taps(range(g0, g1), range(taps), xs))
        else:  # by kernel offset, each run of offsets in its own window buffer
            parallel.over_chunks(range(taps + 1), lambda t0, t1, xs: dw_taps(range(1), range(t0, t1), xs),
                                 lambda: [np.empty((c, n, ho, wo), dtype=wd.dtype)])
        return dw6.reshape(wd.shape)

    def bw(g):
        gt = _channels_leading(g).reshape(groups, og, n * l)
        dw = weight_grad(gt)
        if not need_dx:
            return (None, dw)
        wt_off = [np.ascontiguousarray(wo_.swapaxes(1, 2)) for wo_ in w_off]  # [g, cg, og]
        # dX: chunk by chunk over the forward's bounds, group by group. Each
        # GEMM reads the chunk's columns of gt in place (BLAS takes the row
        # stride, so no per-chunk copy of g); the offsets are added in order
        # into the zeroed chunk of dX, each offset's window clipped to the
        # input: per element, the sums of a zeroed padded buffer cropped
        # afterwards.
        dx = np.empty((n, c, h, w), dtype=wd.dtype)

        def inside(d, size, out_size):  # (output, input) slices of offset d's window that fall inside the input
            i0 = max(0, -(-(padding - d) // stride))
            i1 = max(i0, min(out_size, -(-(size + padding - d) // stride)))
            r0 = d + stride * i0 - padding
            return slice(i0, i1), slice(r0, r0 + stride * (i1 - i0), stride)

        clipped = [(inside(tap // kw, h, ho), inside(tap % kw, w, wo)) for tap in range(taps)]

        def dx_chunk(b0, b1, dxs_buf):
            m = b1 - b0
            dxs = dxs_buf[: cg * m * l].reshape(cg, m * l)
            dxc = dx[b0:b1].transpose(1, 0, 2, 3)
            dxc.fill(0.0)
            for gi in range(groups):
                dxg = dxc[gi * cg : (gi + 1) * cg]
                for wk_t, ((oi, ri), (oj, rj)) in zip(wt_off, clipped):
                    np.matmul(wk_t[gi], gt[gi, :, b0 * l : b1 * l], out=dxs)
                    dxg[:, :, ri, rj] += dxs.reshape(cg, m, ho, wo)[:, :, oi, oj]

        parallel.over_chunks(bounds, dx_chunk, lambda: [np.empty(cg * cols, dtype=wd.dtype)])
        return (dx, dw)

    return make_node(out, (x, weight), bw)


def maxpool2d(x: Tensor, window: int, stride: int, padding: int = 0) -> Tensor:
    """Max pooling over [N,C,H,W]; padded cells never win."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d input must be [N,C,H,W], got {x.data.shape}")
    n, c, h, w = x.data.shape
    ho = conv_output_size(h, window, stride, padding)
    wo = conv_output_size(w, window, stride, padding)
    xp = _pad_hw(x.data, padding, value=-np.inf)
    win = sliding_window_view(xp, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(n, c, ho, wo, window * window)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    out = np.ascontiguousarray(out)
    padded_shape, dtype = xp.shape, xp.dtype  # the backward routes by `idx`: it keeps neither x nor its padded copy

    def bw(g):
        gp = np.zeros(padded_shape, dtype=dtype)
        for o in range(window * window):
            di, dj = divmod(o, window)
            contrib = g * (idx == o)
            gp[:, :, di : di + stride * ho : stride, dj : dj + stride * wo : stride] += contrib
        if padding:
            return (gp[:, :, padding : padding + h, padding : padding + w],)
        return (gp,)

    return make_node(out, (x,), bw)


class BatchNormState:
    """Per-channel affine parameters plus running statistics.

    Layout contract: channel axis is axis 1; statistics reduce over every
    other axis. Running stats use the biased batch variance, momentum-mixed.
    """

    def __init__(self, name: str, channels: int, dtype=np.float64):
        if channels < 1:
            raise ConfigError(f"batch norm needs at least one channel, got {channels}")
        self.name = name
        self.channels = channels
        self.eps = 1e-5
        self.momentum = 0.1
        self.gamma = Parameter(f"{name}.gamma", np.ones(channels), dtype=dtype)
        self.beta = Parameter(f"{name}.beta", np.zeros(channels), dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def _eval_affine(state: BatchNormState):
    """Eval-mode batch norm as the per-channel affine x * scale + shift: (1/std, scale, shift)."""
    inv = 1.0 / np.sqrt(state.running_var + state.eps)
    return inv, state.gamma.data * inv, state.beta.data - state.gamma.data * state.running_mean * inv


def _channel_ranges(a: np.ndarray) -> list:
    """Bounds of the channel ranges a train-mode batch norm pass over `a` splits into, one per worker.

    A sum over a range of two or more channels gives the bits of the whole
    array's sum for those channels, in every memory order of a 4-D array; a
    one-channel range drops the channel axis and can sum in another order.
    """
    return split_bounds(a.shape[1], max(1, min(a.shape[1] // 2, parallel.width())))


def batchnorm(x: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Batch normalization with the fused backward formula."""
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm input needs a channel axis, got shape {x.data.shape}")
    if x.data.shape[1] != state.channels:
        raise ShapeError(f"batchnorm expects {state.channels} channels, got input shape {x.data.shape}")
    axes = (0,) + tuple(range(2, x.data.ndim))
    bshape = (1, state.channels) + (1,) * (x.data.ndim - 2)
    gamma, beta = state.gamma, state.beta
    gd = gamma.data.reshape(bshape)
    bd = beta.data.reshape(bshape)

    if training:
        xd = x.data
        count = xd.size // state.channels
        mu, var, inv = (np.empty(state.channels, dtype=xd.dtype) for _ in range(3))
        xhat, out = np.empty_like(xd), np.empty_like(xd)  # in x's memory order, as the plain expressions give

        def forward_channels(c0, c1):
            r = (slice(None), slice(c0, c1))
            rshape = (1, c1 - c0) + bshape[2:]
            mu[c0:c1] = xd[r].mean(axis=axes)
            np.subtract(xd[r], mu[c0:c1].reshape(rshape), out=xhat[r])
            # x.var(axes) without its second mean and subtraction: NumPy's var sums the squares of
            # x - mean and divides by the count as an intp (in float64 for a float32 sum), as this
            # does; `out` holds the squares until the affine overwrites them
            np.multiply(xhat[r], xhat[r], out=out[r])
            var[c0:c1] = out[r].sum(axis=axes)
            var[c0:c1] /= np.intp(count)
            inv[c0:c1] = 1.0 / np.sqrt(var[c0:c1] + state.eps)
            xhat[r] *= inv[c0:c1].reshape(rshape)
            np.multiply(xhat[r], gd[r], out=out[r])
            out[r] += bd[r]

        parallel.over_chunks(_channel_ranges(xd), forward_channels)
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu.astype(state.running_mean.dtype)
        state.running_var = (1.0 - m) * state.running_var + m * var.astype(state.running_var.dtype)

        def bw(g):
            # In place, one full-size temporary; the same products and sums as
            # dx = inv * ((g * gamma - mean(g * gamma)) - xhat * mean(g * gamma * xhat)).
            dbeta, dgamma = np.empty(state.channels, dtype=g.dtype), np.empty(state.channels, dtype=g.dtype)
            # in the memory orders of g * gamma and g * xhat: g's, and C order (xhat's)
            dx, tmp = np.empty_like(g), np.empty(g.shape, dtype=g.dtype)

            def backward_channels(c0, c1):
                r = (slice(None), slice(c0, c1))
                rshape = (1, c1 - c0) + bshape[2:]
                gr, xr, tr, dr = g[r], xhat[r], tmp[r], dx[r]
                dbeta[c0:c1] = gr.sum(axis=axes)
                np.multiply(gr, xr, out=tr)
                dgamma[c0:c1] = tr.sum(axis=axes)
                np.multiply(gr, gd[r], out=dr)
                mean_dxhat = dr.mean(axis=axes).reshape(rshape)
                np.multiply(dr, xr, out=tr)
                mean_dxhat_x = tr.sum(axis=axes).reshape(rshape) / count
                dr -= mean_dxhat
                np.multiply(xr, mean_dxhat_x, out=tr)
                dr -= tr
                dr *= inv[c0:c1].reshape(rshape)

            parallel.over_chunks(_channel_ranges(g), backward_channels)
            return (dx, dgamma, dbeta)

        return make_node(out, (x, gamma, beta), bw)

    inv, scale, shift = _eval_affine(state)
    scale = scale.reshape(bshape)
    out = np.multiply(x.data, scale)
    out += shift.reshape(bshape)
    xhat_scale = inv.reshape(bshape)
    rm = state.running_mean.reshape(bshape)

    def bw_eval(g):
        dbeta = g.sum(axis=axes)
        dgamma = (g * (x.data - rm) * xhat_scale).sum(axis=axes)
        dx = g * scale
        return (dx, dgamma, dbeta)

    return make_node(out, (x, gamma, beta), bw_eval)


def fold_bn(weight: np.ndarray, state: BatchNormState):
    """Fold eval-mode batch norm (its running statistics) into the preceding conv kernel.

    Returns (folded_kernel, folded_bias).
    """
    w = np.asarray(weight)
    if w.ndim != 4 or w.shape[0] != state.channels:
        raise ShapeError(f"fold_bn expects kernel [O={state.channels},C,kh,kw], got {w.shape}")
    _, scale, bias = _eval_affine(state)
    return w * scale[:, None, None, None], bias


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over rows of [N, K] logits; labels are int indices."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy expects [N, K] logits, got {logits.data.shape}")
    labels = np.asarray(labels)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match logits rows {n}")
    if labels.dtype.kind not in "iu":  # a bool array would index as a mask, a float one not at all
        raise ContractError(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ContractError(f"labels must lie in [0, {k})")
    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    logp = (z - zmax) - np.log(sez)
    loss = -logp[np.arange(n), labels].mean()
    probs = ez / sez

    def bw(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return make_node(np.asarray(loss, dtype=z.dtype), (logits,), bw)
