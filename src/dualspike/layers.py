"""Thin layer wrappers over the engine ops plus the shared run context."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .neuron import LIFParams, SurrogateSpec, sn_forward
from .tensor import ConfigError, Parameter, Tensor, add


@dataclass
class RunContext:
    """Mode flags threaded through every forward pass.

    training  -- batch-norm statistics mode and firing-rate EMA updates
    smooth    -- replace hard spikes with the surrogate antiderivative
                 (finite-difference-checkable forward)
    audit     -- optional trace collector; layers append per-synapse records
    """

    training: bool = False
    smooth: bool = False
    audit: object = None


@dataclass(frozen=True)
class NeuronSpec:
    lif: LIFParams = field(default_factory=LIFParams)
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)


class Module:
    """Minimal parameter container; subclasses list their own pieces."""

    def parameters(self) -> list[Parameter]:
        raise NotImplementedError

    def bn_states(self) -> list[ops.BatchNormState]:
        return []


def he_normal(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    if fan_in < 1:
        raise ConfigError(f"fan_in must be positive, got {fan_in}")
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


class Conv2d(Module):
    """Grouped conv layer, no bias (batch norm always follows)."""

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, padding=0, groups=1, *, rng, dtype):
        if in_channels % groups or out_channels % groups:
            raise ConfigError(f"conv {name}: channels ({in_channels}->{out_channels}) not divisible by groups={groups}")
        shape = (out_channels, in_channels // groups, kernel, kernel)
        fan_in = (in_channels // groups) * kernel * kernel
        self.weight = Parameter(f"{name}.weight", he_normal(rng, shape, fan_in, dtype))
        self.stride = stride
        self.padding = padding
        self.groups = groups

    def forward(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, stride=self.stride, padding=self.padding, groups=self.groups)

    def parameters(self):
        return [self.weight]


class Linear(Module):
    def __init__(self, name, in_features, out_features, *, rng, dtype):
        self.weight = Parameter(f"{name}.weight", he_normal(rng, (in_features, out_features), in_features, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return add(ops.matmul(x, self.weight), self.bias)

    def parameters(self):
        return [self.weight, self.bias]


class SpikingNeuron(Module):
    """Stateful-over-time LIF layer applied to [T, ...] currents."""

    def __init__(self, neuron: NeuronSpec):
        self.neuron = neuron

    def forward(self, current: Tensor, ctx: RunContext) -> Tensor:
        return sn_forward(current, self.neuron.lif, self.neuron.surrogate, smooth=ctx.smooth)

    def parameters(self):
        return []
