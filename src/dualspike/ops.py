"""Structured ops on the tape: convolution, pooling, batch norm, losses.

Convolution lowers to grouped GEMM. Non-overlapping kernels (1x1 and the
kernel==stride patchify used by token embeddings) regroup the input into the
GEMM columns with one reshape-and-transpose copy, and dcols into dX with one
copy back (`_conv2d_cols`). Overlapping kernels run one GEMM per (kernel
offset, group) with K = C/g, over near-equal chunks of the batch of about
CHUNK_ELEMENTS activations, adding the offsets up in a fixed order; their
backward chunks dX the same way and keeps dW whole-batch. That avoids the
kh*kw column blowup and keeps each chunk's operands in cache. The offsets
are not fused into one K = C/g*kh*kw GEMM on purpose: that re-associates
the float32 sums, which flips spikes downstream and moves the training
losses; the chunked forward and backward keep the whole-batch lowering's
bits (see `_conv2d_offsets`).

Batch norm runs its elementwise passes in place, with one full-size
temporary in the train-mode backward; every product and sum is the one the
plain expressions compute, in the same order, so the bits are the same.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ConfigError,
    ContractError,
    Parameter,
    ShapeError,
    Tensor,
    make_node,
    matmul,  # Linear.forward calls ops.matmul
)


CHUNK_ELEMENTS = 1 << 20  # activations per image chunk of the offset-path conv forward


def split_bounds(total: int, parts: int) -> list:
    """Bounds [0, ..., total] of `parts` contiguous slices whose sizes differ by one at most, the larger first."""
    base, rem = divmod(total, parts)
    return [i * base + min(i, rem) for i in range(parts + 1)]


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


def _conv2d_cols(x: Tensor, weight: Tensor, stride, padding, groups, ho, wo) -> Tensor:
    """Patchify path (kernel == stride, no padding): the columns are the input, regrouped.

    One reshape-and-transpose copy lays the input out as columns
    [g, (C/g)*kh*kw, N*Ho*Wo], so each group runs one wide GEMM;
    group-count-batched GEMMs keep the BLAS kernel saturated on one core. The
    backward regroups dcols into dX with one copy the other way.
    """
    n, c, h, w = x.data.shape
    o, cg, kh, kw = weight.data.shape
    og = o // groups
    xd, wd = x.data, weight.data
    wg = wd.reshape(groups, og, cg * kh * kw)

    def cols(src):  # [n, g, cg, ho, kh, wo, kw] -> [g, cg*kh*kw, n*ho*wo]
        six = src.reshape(n, groups, cg, ho, kh, wo, kw).transpose(1, 2, 4, 6, 0, 3, 5)
        return six.reshape(groups, cg * kh * kw, n * ho * wo)

    out = np.ascontiguousarray(np.matmul(wg, cols(xd)).reshape(o, n, ho, wo).transpose(1, 0, 2, 3))

    def bw(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, og, n * ho * wo)
        dw = np.matmul(gt, cols(xd).swapaxes(-1, -2))
        dcols = np.matmul(wg.swapaxes(-1, -2), gt).reshape(groups, cg, kh, kw, n, ho, wo)
        dx = dcols.transpose(4, 0, 1, 5, 2, 6, 3).reshape(n, c, h, w)
        dx = np.ascontiguousarray(dx)  # a copy already, except at k = 1, where the reshape is a strided view
        return (dx, dw.reshape(wd.shape))

    return make_node(out, (x, weight), bw)


def _conv2d_offsets(x: Tensor, weight: Tensor, stride, padding, groups, ho, wo) -> Tensor:
    """Overlapping kernels: one wide GEMM per (kernel offset, group), chunk by chunk.

    The forward splits the batch into near-equal image chunks (`split_bounds`)
    of about CHUNK_ELEMENTS activations. Per chunk, each kernel offset copies its
    strided window into one reused channels-leading buffer [C, m*Ho*Wo] and
    contracts it, group by group, against the matching kernel tap
    (K = C/g); the products are added into the chunk's output block in
    offset order, and the block is written back to [N, C, Ho, Wo]. A
    chunk's operands stay cache-sized, and neither a kh*kw column matrix
    nor a channels-leading copy of the whole batch is built.

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
    dX is chunked over the forward's image bounds: per chunk, the same
    per-(offset, group) GEMMs against the transposed taps, added in offset
    order into a zeroed padded chunk buffer that is cropped into dX. Its
    bits hold across chunks as the forward's do.
    """
    n, c, h, w = x.data.shape
    o, cg, kh, kw = weight.data.shape
    og = o // groups
    l = ho * wo
    xd, wd = x.data, weight.data
    w6 = wd.reshape(groups, og, cg, kh, kw)
    hp, wp = h + 2 * padding, w + 2 * padding

    def offset_slices(di, dj):
        return slice(di, di + stride * ho, stride), slice(dj, dj + stride * wo, stride)

    # contiguous per-offset taps; strided weight views would push matmul
    # off the BLAS kernel onto the slow ufunc loop
    w_off = [np.ascontiguousarray(w6[:, :, :, di, dj]) for di in range(kh) for dj in range(kw)]

    xp = _pad_hw(xd, padding)
    bounds = split_bounds(n, min(n, -(-n * max(c, o) * l // CHUNK_ELEMENTS)))
    cols = bounds[1] * l  # columns of the first chunk, the widest
    xs_buf = np.empty(c * cols, dtype=xd.dtype)
    acc_buf = np.empty(o * cols, dtype=xd.dtype)
    prod_buf = np.empty(og * cols, dtype=xd.dtype)
    out = np.empty((n, o, ho, wo), dtype=xd.dtype)
    for b0, b1 in zip(bounds, bounds[1:]):
        m = b1 - b0
        xs = xs_buf[: c * m * l].reshape(c, m, ho, wo)
        xsg = xs.reshape(groups, cg, m * l)
        acc = acc_buf[: o * m * l].reshape(groups, og, m * l)
        prod = prod_buf[: og * m * l].reshape(og, m * l)
        acc.fill(0.0)  # zero, then add each offset, as the whole-batch lowering does (sign of zero sums)
        for di in range(kh):
            for dj in range(kw):
                si, sj = offset_slices(di, dj)
                np.copyto(xs, xp[b0:b1, :, si, sj].transpose(1, 0, 2, 3))
                wk = w_off[di * kw + dj]
                for gi in range(groups):
                    np.matmul(wk[gi], xsg[gi], out=prod)
                    acc[gi] += prod
        out[b0:b1] = acc.reshape(o, m, ho, wo).transpose(1, 0, 2, 3)

    def bw(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(groups, og, n * l)
        wt_off = [np.ascontiguousarray(wo_.swapaxes(1, 2)) for wo_ in w_off]  # [g, cg, og]
        # dW: one GEMM per (offset, group) over all N*Ho*Wo columns. The input
        # is padded once, channels-leading, so each offset's window copy into
        # the reused [C, N*Ho*Wo] buffer reads rows in order.
        xpc = np.zeros((c, n, hp, wp), dtype=xd.dtype)
        xpc[:, :, padding : padding + h, padding : padding + w] = xd.transpose(1, 0, 2, 3)
        xs = np.empty((c, n, ho, wo), dtype=xd.dtype)
        xsg = xs.reshape(groups, cg, n * l)
        dw6 = np.zeros_like(w6)
        for di in range(kh):
            for dj in range(kw):
                si, sj = offset_slices(di, dj)
                np.copyto(xs, xpc[:, :, si, sj])
                for gi in range(groups):
                    dw6[gi, :, :, di, dj] += np.matmul(gt[gi], xsg[gi].T)
        del xpc, xs, xsg  # freed before the dX buffers exist: lower peak memory
        # dX: chunk by chunk over the forward's bounds. Each GEMM reads the
        # chunk's columns of gt in place (BLAS takes the row stride, so no
        # per-chunk copy of g); the offsets are added in order into a zeroed
        # padded chunk, which is cropped into [N, C, H, W].
        dx = np.empty((n, c, h, w), dtype=xd.dtype)
        gp_buf = np.empty(c * bounds[1] * hp * wp, dtype=xd.dtype)
        dxs_buf = np.empty(c * cols, dtype=xd.dtype)
        for b0, b1 in zip(bounds, bounds[1:]):
            m = b1 - b0
            gp = gp_buf[: c * m * hp * wp].reshape(groups, cg, m, hp, wp)
            dxs = dxs_buf[: c * m * l].reshape(groups, cg, m * l)
            gp.fill(0.0)
            for di in range(kh):
                for dj in range(kw):
                    si, sj = offset_slices(di, dj)
                    wk_t = wt_off[di * kw + dj]
                    for gi in range(groups):
                        np.matmul(wk_t[gi], gt[gi, :, b0 * l : b1 * l], out=dxs[gi])
                    gp[:, :, :, si, sj] += dxs.reshape(groups, cg, m, ho, wo)
            cropped = gp.reshape(c, m, hp, wp)[:, :, padding : padding + h, padding : padding + w]
            dx[b0:b1] = cropped.transpose(1, 0, 2, 3)
        return (dx, dw6.reshape(wd.shape))

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

    def bw(g):
        gp = np.zeros_like(xp)
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
        mu = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu.astype(state.running_mean.dtype)
        state.running_var = (1.0 - m) * state.running_var + m * var.astype(state.running_var.dtype)
        inv = 1.0 / np.sqrt(var + state.eps)
        xhat = np.subtract(x.data, mu.reshape(bshape))
        xhat *= inv.reshape(bshape)
        out = np.multiply(xhat, gd)
        out += bd
        count = x.data.size // state.channels

        def bw(g):
            # In place, one full-size temporary; the same products and sums as
            # dx = inv * ((g * gamma - mean(g * gamma)) - xhat * mean(g * gamma * xhat)).
            dbeta = g.sum(axis=axes)
            tmp = np.multiply(g, xhat)
            dgamma = tmp.sum(axis=axes)
            dx = np.multiply(g, gd)
            mean_dxhat = dx.mean(axis=axes).reshape(bshape)
            np.multiply(dx, xhat, out=tmp)
            mean_dxhat_x = tmp.sum(axis=axes).reshape(bshape) / count
            dx -= mean_dxhat
            np.multiply(xhat, mean_dxhat_x, out=tmp)
            dx -= tmp
            dx *= inv.reshape(bshape)
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
