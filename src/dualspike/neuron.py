"""Leaky integrate-and-fire dynamics with surrogate-gradient spiking.

Discrete update per step, for membrane u, input current I:

    v      = u + (I - (u - u_rest)) / tau      (charge)
    s      = H(v - u_th)                       (fire, H(0) = 1)
    u_next = s * u_rest + (1 - s) * v          (hard reset)

The reset uses a detached spike (reset path carries no gradient); the firing
nonlinearity backpropagates through a surrogate derivative. `smooth=True`
swaps the Heaviside for the surrogate's antiderivative and differentiates the
reset exactly, which makes the whole layer finite-difference checkable.

`NeuronSpec` is the one neuron description: tau, u_th and u_rest above, and
the surrogate's kind and width. Config files, digests and every spiking layer
read it, and it holds every check on those five numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parallel import over_chunks
from .tensor import ConfigError, ShapeError, SpikeTensor, Tensor, make_node

SURROGATE_KINDS = ("triangular", "sigmoid-derivative")
BLOCK_NEURONS = 1 << 16  # neurons per block of the sn_forward time loops; keeps a block's state in L2


@dataclass(frozen=True)
class NeuronSpec:
    """LIF constants, and the surrogate (kind, and width along the membrane axis) the spike trains through."""

    tau: float = 2.0
    u_th: float = 1.0
    u_rest: float = 0.0
    surrogate: str = "triangular"
    width: float = 1.0

    def __post_init__(self):
        for name in ("tau", "u_th", "u_rest"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"LIF {name} must be finite, got {getattr(self, name)}")
        if self.tau < 1.0:
            raise ConfigError(f"membrane time constant must be >= 1, got {self.tau}")
        if not self.u_th > self.u_rest:
            raise ConfigError(f"threshold {self.u_th} must exceed resting potential {self.u_rest}")
        if self.surrogate not in SURROGATE_KINDS:
            raise ConfigError(f"unknown surrogate kind {self.surrogate!r}; expected one of {SURROGATE_KINDS}")
        if not (np.isfinite(self.width) and self.width > 0):
            raise ConfigError(f"surrogate width must be positive and finite, got {self.width}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def surrogate_grad(v: np.ndarray, neuron: NeuronSpec) -> np.ndarray:
    """Pseudo-derivative of the firing nonlinearity at membrane values v."""
    z = (v - neuron.u_th) / neuron.width
    if neuron.surrogate == "triangular":
        return np.maximum(0.0, 1.0 - np.abs(z)) / neuron.width
    s = _sigmoid(z)
    return s * (1.0 - s) / neuron.width


def smooth_step(v: np.ndarray, neuron: NeuronSpec) -> np.ndarray:
    """Antiderivative of surrogate_grad: the smoothed stand-in for the Heaviside."""
    z = (v - neuron.u_th) / neuron.width
    if neuron.surrogate == "triangular":
        zc = np.clip(z, -1.0, 1.0)
        return np.where(zc < 0.0, 0.5 * (1.0 + zc) ** 2, 1.0 - 0.5 * (1.0 - zc) ** 2)
    return _sigmoid(z)


def sn_forward(current: Tensor, neuron: NeuronSpec = NeuronSpec(), smooth: bool = False) -> Tensor:
    """Run LIF over the leading time axis: [T, ...] currents -> [T, ...] spikes.

    Spikes are a one-byte `SpikeTensor` (bool); `smooth=True` outputs the
    surrogate antiderivative as a plain Tensor in the current's dtype.

    Fused into one tape node: the forward stores only membrane values V and
    outputs S, and the backward runs truncated-in-space BPTT. Both run the
    neurons in blocks of BLOCK_NEURONS, each block through all T steps in
    reused buffers, with the same expressions in the same order as the
    whole-array loop, so blocking changes no bits: forward and backward match
    the whole-array oracle tests/test_neuron.py::bptt_oracle exactly. The
    blocks run over the process's workers (`parallel.over_chunks`), each run
    of blocks in its own buffers. The reset and the backward's 1 - s read a
    block's spikes through a float buffer of the current's dtype, so every
    arithmetic loop runs on same-dtype kernels.
    """
    if current.data.ndim < 1 or current.data.shape[0] == 0:
        raise ShapeError(f"sn_forward needs a non-empty leading time axis, got shape {current.data.shape}")
    xd = current.data
    t_steps = xd.shape[0]
    inv_tau = 1.0 / neuron.tau
    v_hist = np.empty(xd.shape, dtype=xd.dtype)
    s_out = np.empty(xd.shape, dtype=xd.dtype if smooth else np.bool_)
    x2, v2, s2 = (a.reshape(t_steps, -1) for a in (xd, v_hist, s_out))
    size = x2.shape[1]
    block = max(1, min(size, BLOCK_NEURONS))
    blocks = list(range(0, size, block)) + [size]

    def forward_block(b0, b1, u_buf, tmp_buf, sf_buf):
        # The block runs all T steps before the next block starts. In place,
        # but the same expressions in the same order as
        # tests/test_neuron.py::bptt_oracle: v = ((x - u) + u_rest) * inv_tau + u,
        # u = s * u_rest + (1 - s) * v.
        u, tmp, sf = u_buf[: b1 - b0], tmp_buf[: b1 - b0], sf_buf[: b1 - b0]
        u.fill(neuron.u_rest)
        for t in range(t_steps):
            v, s = v2[t, b0:b1], s2[t, b0:b1]
            np.subtract(x2[t, b0:b1], u, out=v)
            v += neuron.u_rest
            v *= inv_tau
            v += u
            if smooth:
                s[...] = smooth_step(v, neuron)
            else:
                np.greater_equal(v, neuron.u_th, out=s)
                np.copyto(sf, s)
                s = sf
            np.subtract(1.0, s, out=tmp)
            tmp *= v
            np.multiply(s, neuron.u_rest, out=u)
            u += tmp

    over_chunks(blocks, forward_block, lambda: [np.empty(block, dtype=xd.dtype) for _ in range(3)])
    shape, dtype = xd.shape, xd.dtype  # the backward reads V and S, not the input

    def bw(g):
        d_current = np.empty(shape, dtype=dtype)
        g2, d2 = g.reshape(t_steps, -1), d_current.reshape(t_steps, -1)

        def backward_block(b0, b1, du_buf, dv_buf, tmp_buf):
            # The forward's block through all T steps backwards. Same
            # expressions in the same order as the whole-array BPTT:
            # dv = g * sg + du * (1 - s)  (the reset gate is detached), or with
            # the smooth reset du * ((1 - s) + sg * (u_rest - v)); then
            # d = dv * inv_tau and du = dv * (1 - inv_tau).
            du, dv, tmp = du_buf[: b1 - b0], dv_buf[: b1 - b0], tmp_buf[: b1 - b0]
            du.fill(0.0)
            for t in range(t_steps - 1, -1, -1):
                v, s = v2[t, b0:b1], s2[t, b0:b1]
                sg = surrogate_grad(v, neuron)
                np.copyto(tmp, s)  # spikes as floats: 1 - s on a same-dtype kernel
                np.subtract(1.0, tmp, out=tmp)
                if smooth:
                    np.subtract(neuron.u_rest, v, out=dv)
                    dv *= sg
                    tmp += dv
                tmp *= du
                np.multiply(g2[t, b0:b1], sg, out=dv)
                dv += tmp
                np.multiply(dv, inv_tau, out=d2[t, b0:b1])
                np.multiply(dv, 1.0 - inv_tau, out=du)

        over_chunks(blocks, backward_block, lambda: [np.empty(block, dtype=dtype) for _ in range(3)])
        return (d_current,)

    return make_node(s_out, (current,), bw, cls=Tensor if smooth else SpikeTensor)
