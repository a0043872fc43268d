"""Group-wise spiking feed-forward network.

Two 1x1 feed-forward layers (expand by R, contract back) around a residual
3x3 group-wise conv layer whose groups are fixed-width channel slices:

    ffl_i(X) = BN(Conv1x1(SN(X)))
    gwl(X)   = BN(GWConv3x3(SN(X))) + X
    gwsffn   = ffl2(gwl(ffl1(X)))
"""

from __future__ import annotations

from . import ops
from .config import StageSpec
from .layers import Conv2d, Module, RunContext, SpikingNeuron, synaptic_conv
from .neuron import NeuronSpec
from .tensor import ConfigError, ShapeError, Tensor, add


class GroupWiseFeedForward(Module):
    def __init__(self, name: str, spec: StageSpec, neuron: NeuronSpec, *, rng, dtype):
        self.name = name
        self.spec = spec
        d, hidden = spec.d, spec.hidden
        self.lif1 = SpikingNeuron(neuron)
        self.lif_g = SpikingNeuron(neuron)
        self.lif2 = SpikingNeuron(neuron)
        self.conv1 = Conv2d(f"{name}.ffl1", d, hidden, 1, rng=rng, dtype=dtype)
        self.bn1 = ops.BatchNormState(f"{name}.ffl1.bn", hidden, dtype=dtype)
        self.conv_g = Conv2d(f"{name}.gwl", hidden, hidden, 3, padding=1, groups=spec.groups, rng=rng, dtype=dtype)
        self.bn_g = ops.BatchNormState(f"{name}.gwl.bn", hidden, dtype=dtype)
        self.conv2 = Conv2d(f"{name}.ffl2", hidden, d, 1, rng=rng, dtype=dtype)
        self.bn2 = ops.BatchNormState(f"{name}.ffl2.bn", d, dtype=dtype)

    def _synapse(self, x: Tensor, lif: SpikingNeuron, conv: Conv2d, bn, ctx: RunContext, tag: str) -> Tensor:
        return synaptic_conv(f"{self.name}.{tag}", x, conv, bn, ctx, lif)

    def ffl(self, x: Tensor, ctx: RunContext, which: int) -> Tensor:
        """Feed-forward layer `which` (1 expands d -> d*R, 2 contracts back)."""
        if which == 1:
            return self._synapse(x, self.lif1, self.conv1, self.bn1, ctx, "ffl1")
        if which == 2:
            return self._synapse(x, self.lif2, self.conv2, self.bn2, ctx, "ffl2")
        raise ConfigError(f"ffl index must be 1 or 2, got {which}")

    def gwl(self, x: Tensor, ctx: RunContext) -> Tensor:
        """Residual group-wise conv layer on the expanded width."""
        if x.data.shape[2] != self.spec.hidden:
            raise ShapeError(f"gwl expects {self.spec.hidden} channels, got shape {x.data.shape}")
        return add(self._synapse(x, self.lif_g, self.conv_g, self.bn_g, ctx, "gwl"), x)

    def forward(self, x: Tensor, ctx: RunContext) -> Tensor:
        if x.data.ndim != 5 or x.data.shape[2] != self.spec.d:
            raise ShapeError(f"{self.name} expects [T,B,{self.spec.d},H,W], got {x.data.shape}")
        return self.ffl(self.gwl(self.ffl(x, ctx, 1), ctx), ctx, 2)
