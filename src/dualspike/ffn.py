"""Group-wise spiking feed-forward network.

Two 1x1 feed-forward layers (expand by R, contract back) around a residual
3x3 group-wise conv layer whose groups are fixed-width channel slices:

    ffl_i(X) = BN(Conv1x1(SN(X)))
    gwl(X)   = BN(GWConv3x3(SN(X))) + X
    gwsffn   = ffl2(gwl(ffl1(X)))
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .layers import Conv2d, Module, NeuronSpec, RunContext, SpikingNeuron
from .tensor import ConfigError, ShapeError, Tensor, add, reshape


@dataclass
class GWSFFNConfig:
    d: int
    expansion: int = 4
    group_width: int = 64

    def __post_init__(self):
        if self.expansion < 1:
            raise ConfigError(f"expansion ratio must be >= 1, got {self.expansion}")
        if self.hidden % self.group_width:
            raise ConfigError(
                f"hidden width {self.hidden} (d={self.d} x R={self.expansion}) "
                f"not divisible by group width {self.group_width}"
            )

    @property
    def hidden(self) -> int:
        return self.d * self.expansion

    @property
    def groups(self) -> int:
        return self.hidden // self.group_width


class GroupWiseFeedForward(Module):
    def __init__(self, name: str, cfg: GWSFFNConfig, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.cfg = cfg
        self.lif1 = SpikingNeuron(neuron)
        self.lif_g = SpikingNeuron(neuron)
        self.lif2 = SpikingNeuron(neuron)
        self.conv1 = Conv2d(f"{name}.ffl1", cfg.d, cfg.hidden, 1, rng=rng, dtype=dtype)
        self.bn1 = ops.BatchNormState(f"{name}.ffl1.bn", cfg.hidden, dtype=dtype)
        self.conv_g = Conv2d(
            f"{name}.gwl", cfg.hidden, cfg.hidden, 3, padding=1, groups=cfg.groups, rng=rng, dtype=dtype
        )
        self.bn_g = ops.BatchNormState(f"{name}.gwl.bn", cfg.hidden, dtype=dtype)
        self.conv2 = Conv2d(f"{name}.ffl2", cfg.hidden, cfg.d, 1, rng=rng, dtype=dtype)
        self.bn2 = ops.BatchNormState(f"{name}.ffl2.bn", cfg.d, dtype=dtype)

    def _synapse(self, x: Tensor, lif: SpikingNeuron, conv: Conv2d, bn, ctx: RunContext, tag: str) -> Tensor:
        t, b, c, h, w = x.data.shape
        s = lif.forward(x, ctx)
        s4 = reshape(s, (t * b, c, h, w))
        out = ops.batchnorm(conv.forward(s4), bn, ctx.training)
        ctx.record(f"{self.name}.{tag}", "conv", s4, out, conv=conv, bn=bn)
        o = out.data.shape[1]
        return reshape(out, (t, b, o, h, w))

    def ffl(self, x: Tensor, ctx: RunContext, which: int) -> Tensor:
        """Feed-forward layer `which` (1 expands d -> d*R, 2 contracts back)."""
        if which == 1:
            return self._synapse(x, self.lif1, self.conv1, self.bn1, ctx, "ffl1")
        if which == 2:
            return self._synapse(x, self.lif2, self.conv2, self.bn2, ctx, "ffl2")
        raise ConfigError(f"ffl index must be 1 or 2, got {which}")

    def gwl(self, x: Tensor, ctx: RunContext) -> Tensor:
        """Residual group-wise conv layer on the expanded width."""
        if x.data.shape[2] != self.cfg.hidden:
            raise ShapeError(f"gwl expects {self.cfg.hidden} channels, got shape {x.data.shape}")
        return add(self._synapse(x, self.lif_g, self.conv_g, self.bn_g, ctx, "gwl"), x)

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        if x.data.ndim != 5 or x.data.shape[2] != self.cfg.d:
            raise ShapeError(f"{self.name} expects [T,B,{self.cfg.d},H,W], got {x.data.shape}")
        return self.ffl(self.gwl(self.ffl(x, ctx, 1), ctx), ctx, 2)
