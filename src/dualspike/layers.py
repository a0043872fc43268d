"""Module base with its one walk over owned pieces, thin layer wrappers, the run context.

`SpikingNeuron` hands its `neuron.NeuronSpec` to `sn_forward` as it is.
`synaptic_conv` is the one spike -> conv -> batch norm layer path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .neuron import NeuronSpec, sn_forward
from .tensor import ConfigError, ContractError, Parameter, Tensor, add, reshape


@dataclass
class RunContext:
    """Mode flags threaded through every forward pass.

    training  -- batch-norm statistics mode and firing-rate EMA updates
    smooth    -- replace hard spikes with the surrogate antiderivative
                 (finite-difference-checkable forward)
    audit     -- optional trace collector (`audit.AuditTrace`); every
                 synaptic layer hands it, through `record`, its input spikes,
                 the current it computed and its modules
    """

    training: bool = False
    smooth: bool = False
    audit: object = None

    def record(self, name, kind, spikes, current, **layer):
        """Pass a synaptic layer's current through, recording it in the audit trace if one is installed.

        Callers hand the current over where it is made, so no local keeps it alive.
        """
        if self.audit is not None:
            self.audit.record(name, kind, spikes, current, **layer)
        return current


def check_firing_rate(rate):
    """Raise ContractError unless `rate`, a float or an array of rates, lies in [0, 1]; NaN does not."""
    if not np.all((0.0 <= rate) & (rate <= 1.0)):
        raise ContractError(f"firing rate must lie in [0, 1], got {rate}")


class FiringRateEMA:
    """Slow exponential moving average of an observed firing rate.

    The first observation seeds the value directly; afterwards
    value <- MOMENTUM * value + (1 - MOMENTUM) * batch_rate. Eval-time
    observations never update; an uninitialized estimator at eval falls back
    to each image's own rate, so untrained models still scale sensibly and an
    image's output never depends on the other images of its batch.
    """

    MOMENTUM = 0.999

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.initialized = False

    def observe(self, spikes: np.ndarray, training: bool):
        """The rate to scale by for spikes [T, B, x, y, z]: the updated EMA in training, the stored value at eval.

        Training folds in the rate of the whole batch. An uninitialized estimator at
        eval returns each image's own rate over its T steps and neurons, shaped
        [1, B, 1, 1, 1] to broadcast over the spikes' axes, and stores nothing.
        """
        if training or self.initialized:
            rate = float(spikes.mean())
        else:
            rate = spikes.mean(axis=(0, 2, 3, 4), dtype=np.float64, keepdims=True)
        check_firing_rate(rate)
        if training:
            self.value = self.MOMENTUM * self.value + (1.0 - self.MOMENTUM) * rate if self.initialized else rate
            self.initialized = True
        return self.value if self.initialized else rate


def _walk(value):
    """Parameters, BN states and rate EMAs under `value`, depth first in assignment order."""
    if isinstance(value, (Parameter, FiringRateEMA, ops.BatchNormState)):
        yield value
    if isinstance(value, (Module, ops.BatchNormState)):
        for item in vars(value).values():
            yield from _walk(item)
    elif isinstance(value, list):
        for item in value:
            yield from _walk(item)


class Module:
    """Owns what `__init__` assigns to it.

    Parameters, BN states and rate EMAs are found by one depth-first walk
    over the attributes, in assignment order, through submodules, lists of
    them and BN states. That order is the checkpoint, optimizer and BN
    calibration order.
    """

    def _pieces(self, kind) -> list:
        return [x for x in _walk(self) if isinstance(x, kind)]

    def parameters(self) -> list[Parameter]:
        return self._pieces(Parameter)

    def bn_states(self) -> list[ops.BatchNormState]:
        return self._pieces(ops.BatchNormState)

    def rate_emas(self) -> list[FiringRateEMA]:
        return self._pieces(FiringRateEMA)


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


class Linear(Module):
    def __init__(self, name, in_features, out_features, *, rng, dtype):
        self.weight = Parameter(f"{name}.weight", he_normal(rng, (in_features, out_features), in_features, dtype))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_features), dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return add(ops.matmul(x, self.weight), self.bias)


class SpikingNeuron(Module):
    """Stateful-over-time LIF layer applied to [T, ...] currents."""

    def __init__(self, neuron: NeuronSpec):
        self.neuron = neuron

    def forward(self, current: Tensor, ctx: RunContext) -> Tensor:
        return sn_forward(current, self.neuron, smooth=ctx.smooth)


def synaptic_conv(name: str, x: Tensor, conv: Conv2d, bn, ctx: RunContext, lif: SpikingNeuron | None = None) -> Tensor:
    """Spike [T,B,C,H,W] `x` through `lif` (without one, `x` is spikes), conv, BN, record as `name`: [T,B,O,Ho,Wo]."""
    t, b = x.data.shape[:2]
    s = x if lif is None else lif.forward(x, ctx)
    s4 = reshape(s, (t * b,) + s.data.shape[2:])
    out = ops.batchnorm(conv.forward(s4), bn, ctx.training)
    ctx.record(name, "conv", s4, out, conv=conv, bn=bn)
    return reshape(out, (t, b) + out.data.shape[1:])
