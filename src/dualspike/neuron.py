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
from .tensor import ConfigError, ShapeError, SpikeTensor, Tensor, _slot, make_node, rebuildable, rebuilt

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


def surrogate_grad(v: np.ndarray, neuron: NeuronSpec, out=None) -> np.ndarray:
    """Pseudo-derivative of the firing nonlinearity at membrane values v, into `out` where given (it may be v).

    The triangle is computed in place in `out`, with the same operations as out of place.
    """
    if neuron.surrogate == "triangular":
        z = np.subtract(v, neuron.u_th, out=out)
        z /= neuron.width
        np.abs(z, out=z)
        np.subtract(1.0, z, out=z)
        np.maximum(0.0, z, out=z)
        z /= neuron.width
        return z
    s = _sigmoid((v - neuron.u_th) / neuron.width)
    return np.divide(s * (1.0 - s), neuron.width, out=out)


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

    Fused into one tape node, which keeps only the output S. Forward and
    backward run the neurons in blocks of BLOCK_NEURONS, each block through
    all T steps in reused buffers, so the membrane values V never exist
    whole. The backward first rebuilds the input currents whole
    (`tensor.rebuilt`: the batch norm, matmul, scaled, summed or reshaped
    records that made them re-run their forward expressions on the arrays
    their own backwards keep), into the array that then takes the
    gradient. Each block re-runs its forward on its currents, reading the
    kept spikes instead of firing again, and then runs truncated-in-space
    BPTT over them. An input that cannot be rebuilt is kept instead, at
    V's size. Every step is the same expressions in the same order as the
    whole-array loop, so blocking and recomputing change no bits: spikes
    and gradients match the whole-array oracle
    tests/test_neuron.py::bptt_oracle byte for byte. The blocks run over
    the process's workers (`parallel.over_chunks`), each run of blocks in
    its own buffers. The reset and the backward's 1 - s read a block's
    spikes through a float buffer of the current's dtype, so every
    arithmetic loop runs on same-dtype kernels.
    """
    if current.data.ndim < 1 or current.data.shape[0] == 0:
        raise ShapeError(f"sn_forward needs a non-empty leading time axis, got shape {current.data.shape}")
    xd = current.data
    shape, dtype, t_steps = xd.shape, xd.dtype, xd.shape[0]
    inv_tau = 1.0 / neuron.tau
    s_out = np.empty(shape, dtype=dtype if smooth else np.bool_)
    x2, s2 = xd.reshape(t_steps, -1), s_out.reshape(t_steps, -1)
    size = x2.shape[1]
    block = max(1, min(size, BLOCK_NEURONS))
    blocks = list(range(0, size, block)) + [size]

    # The same expressions in the same order as tests/test_neuron.py::bptt_oracle, in place:
    # v = ((x - u) + u_rest) * inv_tau + u, then with keep = 1 - s, u = s * u_rest + keep * v.
    def charge(x, u, v):
        np.subtract(x, u, out=v)
        v += neuron.u_rest
        v *= inv_tau
        v += u

    def reset(su, keep, v, u):  # su holds s * u_rest
        np.multiply(keep, v, out=u)
        np.add(su, u, out=u)

    def forward_block(b0, b1, v_buf, u_buf, tmp_buf, sf_buf):
        v, u, tmp, sf = (a[: b1 - b0] for a in (v_buf, u_buf, tmp_buf, sf_buf))
        u.fill(neuron.u_rest)
        for t in range(t_steps):
            charge(x2[t, b0:b1], u, v)
            s = s2[t, b0:b1]
            if smooth:
                s[...] = smooth_step(v, neuron)
            else:
                np.greater_equal(v, neuron.u_th, out=s)
                np.copyto(sf, s.view(np.uint8))  # as bytes: NumPy's integer cast is the faster one
                s = sf
            if t + 1 < t_steps:  # the last step's membrane is never read
                np.subtract(1.0, s, out=tmp)
                np.multiply(s, neuron.u_rest, out=sf)
                reset(sf, tmp, v, u)

    over_chunks(blocks, forward_block, lambda: [np.empty(block, dtype=dtype) for _ in range(4)])
    source = _slot(current)  # the backward rebuilds the input from its record, not from the array
    kept = None if rebuildable(current) else x2  # the input, where it cannot be rebuilt

    def bw(g):
        # the input currents as a new C-ordered [T, -1] array; each block overwrites its own with its gradient
        d2 = kept.copy() if kept is not None else np.ascontiguousarray(rebuilt(source)).reshape(t_steps, -1)
        g2 = g.reshape(t_steps, -1)

        def backward_block(b0, b1, v_buf, keep_buf, s_buf, u_buf, tmp_buf, du_buf):
            # The block's forward again from its rebuilt currents, reading the kept spikes:
            # v[t] holds V, and keep[t] 1 - s. Then, for all T steps at once, the surrogate gradient
            # sg in place of V and the factor of du into keep: 1 - s (the reset gate is detached),
            # or with the smooth reset (1 - s) + (u_rest - v) * sg. Then the whole-array BPTT's
            # expressions in its order: dv = g * sg + keep * du in place of g * sg,
            # du = dv * (1 - inv_tau), and at the end d = dv * inv_tau.
            n = b1 - b0
            v, keep, sf = (a[: t_steps * n].reshape(t_steps, n) for a in (v_buf, keep_buf, s_buf))
            u, tmp, du = (a[:n] for a in (u_buf, tmp_buf, du_buf))
            if smooth:
                sf, su = s2[:, b0:b1], sf  # the smooth spikes are floats already
            else:
                np.copyto(sf, s2[:, b0:b1].view(np.uint8))  # spikes as floats: same-dtype kernels
                su = sf
            np.subtract(1.0, sf, out=keep)
            np.multiply(sf, neuron.u_rest, out=su)
            u.fill(neuron.u_rest)
            for t in range(t_steps):
                charge(d2[t, b0:b1], u, v[t])
                if t + 1 < t_steps:
                    reset(su[t], keep[t], v[t], u)
            if smooth:
                np.subtract(neuron.u_rest, v, out=su)
            surrogate_grad(v, neuron, out=v)
            if smooth:
                su *= v
                keep += su
            v *= g2[:, b0:b1]
            du.fill(0.0)
            for t in range(t_steps - 1, -1, -1):
                np.multiply(keep[t], du, out=tmp)
                v[t] += tmp
                np.multiply(v[t], 1.0 - inv_tau, out=du)
            np.multiply(v, inv_tau, out=d2[:, b0:b1])

        sizes = [t_steps * block] * 3 + [block] * 3
        over_chunks(blocks, backward_block, lambda: [np.empty(n, dtype=dtype) for n in sizes])
        return (d2.reshape(shape),)

    return make_node(s_out, (current,), bw, cls=Tensor if smooth else SpikeTensor)
