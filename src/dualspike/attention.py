"""Dual-spike transformations and spiking self-attention.

The attention forward contracts binary spikes against a generalized linear
map f (conv + batch norm, foldable to one matrix) in both directions:

    dst(X, Y; f)   = X @ f(Y)        -- spike rows gate columns of f(Y)
    dst_t(X, Y; f) = X @ f(Y)^T

With X Bernoulli(rate) and f(Y) entries mean-0/var-1, the resulting current
has mean 0 and variance rate * fan_in, so dividing by sqrt(rate * fan_in)
restores unit variance before the next firing stage. Firing rates are not
known at eval time, so they are tracked with a slow EMA during training and
read at eval. Before an EMA has seen a training batch, eval scales each image
by its own rate, so an image's output never depends on its batch.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .config import StageSpec
from .layers import Conv2d, FiringRateEMA, Module, RunContext, check_firing_rate, synaptic_conv
from .neuron import NeuronSpec, sn_forward
from .tensor import ConfigError, ShapeError, Tensor, matmul, mul, reshape, transpose

RATE_FLOOR = 1e-4


# -- scales -----------------------------------------------------------------


def dst_scale(rate, fan_in: int):
    """1 / sqrt(rate * fan_in), with the rate floored to keep the scale finite.

    `rate` is a float or an array of rates (one per image at eval), and the scale has its shape.
    """
    if fan_in < 1:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    check_firing_rate(rate)
    return 1.0 / np.sqrt(np.maximum(rate, RATE_FLOOR) * fan_in)


def sdsa_scale(f_q: float, f_k: float, hw: int) -> float:
    """Scale for plain spike-product attention: Var(I) = HW * fq*fk*(1 - fq*fk)."""
    if hw < 1:
        raise ConfigError(f"HW must be positive, got {hw}")
    check_firing_rate(f_q)
    check_firing_rate(f_k)
    prod = f_q * f_k
    return 1.0 / np.sqrt(hw * max(prod * (1.0 - prod), RATE_FLOOR))


# -- multi-head module --------------------------------------------------------


class MultiHeadDualSpikeAttention(Module):
    """Multi-head DSSA block stage: SN, per-head attention, 1x1 merge.

    One patch-embedding conv serves all heads; its output channels are split
    head-wise. Firing-rate EMAs are shared across heads (one for the input
    spikes, one for the attention maps), so heads differ only through d_head.
    `size` is the stage's (height, width), which `model.stage_sizes` has
    checked against the stage's patch size p.
    """

    def __init__(self, name: str, spec: StageSpec, size: tuple, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.spec = spec
        self.height, self.width = size
        self.tokens = (self.height // spec.p) * (self.width // spec.p)  # reduced tokens, one per p x p patch
        self.neuron = neuron
        d, p = spec.d, spec.p
        self.conv_map = Conv2d(f"{name}.embed_map", d, d, p, stride=p, padding=0, rng=rng, dtype=dtype)
        self.bn_map = ops.BatchNormState(f"{name}.embed_map.bn", d, dtype=dtype)
        self.conv_val = Conv2d(f"{name}.embed_val", d, d, p, stride=p, padding=0, rng=rng, dtype=dtype)
        self.bn_val = ops.BatchNormState(f"{name}.embed_val.bn", d, dtype=dtype)
        self.conv_proj = Conv2d(f"{name}.proj", d, d, 1, rng=rng, dtype=dtype)
        self.bn_proj = ops.BatchNormState(f"{name}.proj.bn", d, dtype=dtype)
        self.rate_x = FiringRateEMA(f"{name}.rate_x", dtype)
        self.rate_attn = FiringRateEMA(f"{name}.rate_attn", dtype)

    def _fire(self, current: Tensor, ctx: RunContext) -> Tensor:
        return sn_forward(current, self.neuron, smooth=ctx.smooth)

    def _embed_tokens(self, spikes_4d: Tensor, conv: Conv2d, bn: ops.BatchNormState, ctx: RunContext, tb: tuple):
        """Conv_p + BN on [T*B,d,H,W] spikes -> per-head token features [T,B,h,np,dh]."""
        t, b = tb
        z = ops.batchnorm(conv.forward(spikes_4d), bn, ctx.training)
        return reshape(z, (t, b, self.spec.heads, self.spec.d_head, self.tokens))

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        spec, h, w = self.spec, self.height, self.width
        if x.data.ndim != 5 or x.data.shape[2:] != (spec.d, h, w):
            raise ShapeError(f"{self.name} expects [T,B,{spec.d},{h},{w}], got {x.data.shape}")
        t, b = x.data.shape[:2]

        s_in = self._fire(x, ctx)
        rate_in = self.rate_x.observe(s_in.data, ctx.training)

        s4 = reshape(s_in, (t * b, spec.d, h, w))
        # head-split token view of the input spikes: [T,B,h,HW,dh]
        xh = transpose(reshape(s_in, (t, b, spec.heads, spec.d_head, h * w)), (0, 1, 2, 4, 3))

        z_map = self._embed_tokens(s4, self.conv_map, self.bn_map, ctx, (t, b))  # [T,B,h,dh,np]
        c1 = dst_scale(rate_in, spec.d_head)
        # each product goes to the trace as it is made, so no local keeps it alive
        amap = self._fire(  # [T,B,h,HW,np] binary
            mul(ctx.record(f"{self.name}.attn", "dst_t", s_in, matmul(xh, z_map),
                           conv=self.conv_map, bn=self.bn_map, heads=spec.heads), c1),
            ctx,
        )

        rate_a = self.rate_attn.observe(amap.data, ctx.training)
        z_val = transpose(self._embed_tokens(s4, self.conv_val, self.bn_val, ctx, (t, b)), (0, 1, 2, 4, 3))
        c2 = dst_scale(rate_a, self.tokens)  # the output transformation sums over the reduced tokens
        s_out = self._fire(  # [T,B,h,HW,dh] binary
            mul(ctx.record(f"{self.name}.value", "dst", s_in, matmul(amap, z_val),
                           amap=amap, conv=self.conv_val, bn=self.bn_val, heads=spec.heads), c2),
            ctx,
        )

        merged = reshape(transpose(s_out, (0, 1, 2, 4, 3)), (t, b, spec.d, h, w))
        return synaptic_conv(f"{self.name}.proj", merged, self.conv_proj, self.bn_proj, ctx)
