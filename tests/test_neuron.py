"""LIF dynamics, surrogate gradients, the fused LIF layer against a step-by-step oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import neuron, ops
from dualspike.neuron import (
    SURROGATE_KINDS,
    NeuronSpec,
    smooth_step,
    sn_forward,
    surrogate_grad,
)
from dualspike.tensor import (
    ConfigError,
    ShapeError,
    SpikeTensor,
    Tensor,
    add,
    backward,
    matmul,
    mul,
    reshape,
    tensor_sum,
    transpose,
)

from conftest import assert_grads_close


def bptt_oracle(current, g, spec, smooth):
    """Reference oracle: the whole-array LIF forward and BPTT loop, one time step per iteration.

    Returns (spikes, membrane values v, d_current for upstream gradient g).
    Same expressions in the same order as the blocked `sn_forward`, which
    must reproduce all three bit for bit.
    """
    inv_tau = 1.0 / spec.tau
    u = np.full(current.shape[1:], spec.u_rest, dtype=current.dtype)
    v_hist, s_out = np.empty_like(current), np.empty_like(current)
    for t in range(current.shape[0]):
        v = ((current[t] - u) + spec.u_rest) * inv_tau + u
        s = smooth_step(v, spec) if smooth else (v >= spec.u_th).astype(v.dtype)
        v_hist[t], s_out[t] = v, s
        u = s * spec.u_rest + (1.0 - s) * v
    d_current = np.empty_like(current)
    du = np.zeros(current.shape[1:], dtype=current.dtype)
    for t in range(current.shape[0] - 1, -1, -1):
        v, s = v_hist[t], s_out[t]
        sg = surrogate_grad(v, spec)
        if smooth:
            dv = g[t] * sg + du * ((1.0 - s) + sg * (spec.u_rest - v))
        else:
            dv = g[t] * sg + du * (1.0 - s)
        d_current[t] = dv * inv_tau
        du = dv * (1.0 - inv_tau)
    return s_out, v_hist, d_current


def run_lif(current, spec=NeuronSpec()):
    """Spikes of sn_forward and the oracle's (spikes, membrane values) for a [T, 1] current list."""
    cur = np.array(current, dtype=np.float64).reshape(-1, 1)
    spikes, v, _ = bptt_oracle(cur, np.zeros_like(cur), spec, smooth=False)
    out = sn_forward(Tensor(cur), spec)
    assert np.array_equal(out.data, spikes)
    return out.data[:, 0], v[:, 0]


class TestSingleStep:
    def test_threshold_crossing_fires_and_resets(self):
        # tau=2 from rest: v0 = (2 - 0)/2 = 1.0 == threshold, fires, resets to rest;
        # then v1 = (1 - 0)/2 = 0.5 stays below (without the reset v1 = 1 + (1 - 1)/2 would fire)
        s, v = run_lif([2.0, 1.0])
        np.testing.assert_array_equal(v, [1.0, 0.5])
        np.testing.assert_array_equal(s, [1.0, 0.0])

    def test_exact_threshold_fires(self):
        # boundary convention: v == threshold counts as a spike
        spec = NeuronSpec()
        s, v = run_lif([spec.tau * spec.u_th], spec)
        assert v[0] == spec.u_th
        assert s[0] == 1.0

    def test_subthreshold_integrates(self):
        # tau=2: v0 = 0.5/2 = 0.25 carries over, v1 = 0.25 + (0.5 - 0.25)/2 = 0.375
        s, v = run_lif([0.5, 0.5])
        np.testing.assert_array_equal(v, [0.25, 0.375])
        np.testing.assert_array_equal(s, [0.0, 0.0])

    def test_leak_pulls_toward_rest(self):
        # u_rest=-1, tau=2 from rest: v0 = -1 + (2 - 0)/2 = 0.0 stays below threshold;
        # zero current then leaks half the way back to rest: v1 = 0 + (0 - (0 + 1))/2 = -0.5
        spec = NeuronSpec(tau=2.0, u_rest=-1.0, u_th=1.0)
        s, v = run_lif([2.0, 0.0], spec)
        np.testing.assert_array_equal(v, [0.0, -0.5])
        np.testing.assert_array_equal(s, [0.0, 0.0])

    def test_output_is_spike_tensor(self):
        assert isinstance(sn_forward(Tensor(np.zeros((1, 3)))), SpikeTensor)


class TestSequences:
    def test_constant_drive_at_tau_threshold_fires_every_step(self):
        spec = NeuronSpec()
        cur = Tensor(np.full((6, 2), spec.tau * spec.u_th))
        out = sn_forward(cur, spec)
        np.testing.assert_array_equal(out.data, 1.0)

    def test_zero_current_never_fires(self):
        out = sn_forward(Tensor(np.zeros((5, 3))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_integrate_then_fire_timing(self):
        # I=1.2, tau=2 from rest: v1=0.6, v2=0.6+(1.2-0.6)/2=0.9, v3=0.9+0.15=1.05 -> fires at t=2
        out = sn_forward(Tensor(np.full((4, 1), 1.2)))
        np.testing.assert_array_equal(out.data[:, 0], [0, 0, 1, 0])

    def test_empty_time_axis_rejected(self):
        with pytest.raises(ShapeError):
            sn_forward(Tensor(np.zeros((0, 3))))
        with pytest.raises(ShapeError):
            sn_forward(Tensor(np.float64(1.0)))

    def test_fused_matches_stepwise_forward(self, rng):
        cur = rng.standard_normal((5, 4, 3)) * 2
        spikes, _, _ = bptt_oracle(cur, np.zeros_like(cur), NeuronSpec(), smooth=False)
        assert np.array_equal(sn_forward(Tensor(cur)).data, spikes)

    @pytest.mark.parametrize("smooth", [False, True])
    def test_fused_matches_stepwise_backward(self, rng, smooth):
        cur_data = rng.standard_normal((4, 3, 2)) * 2
        g = rng.standard_normal((4, 3, 2))
        cur = Tensor(cur_data.copy(), requires_grad=True)
        backward(tensor_sum(mul(sn_forward(cur, smooth=smooth), Tensor(g))))
        _, _, expect = bptt_oracle(cur_data, g, NeuronSpec(), smooth)
        assert np.array_equal(cur.grad, expect)

    @pytest.mark.parametrize("smooth", [False, True])
    def test_neuron_blocks_match_one_block_and_stepwise(self, rng, monkeypatch, smooth):
        spec = NeuronSpec(tau=3.0, u_th=1.0, u_rest=-0.25)
        cur_data = (rng.standard_normal((5, 4, 3)) * 2).astype(np.float32)
        g = rng.standard_normal((5, 4, 3)).astype(np.float32)
        runs = []
        for block in (neuron.BLOCK_NEURONS, 5):  # 12 neurons: one block, then blocks of 5, 5 and 2
            monkeypatch.setattr(neuron, "BLOCK_NEURONS", block)
            cur = Tensor(cur_data.copy(), requires_grad=True)
            out = sn_forward(cur, spec, smooth=smooth)
            backward(tensor_sum(mul(out, Tensor(g))))
            runs.append((out.data, cur.grad))
        spikes, _, expect = bptt_oracle(cur_data, g, spec, smooth)
        for out, grad in runs:
            assert out.dtype == (np.float32 if smooth else np.bool_) and np.array_equal(out, spikes)
            assert np.array_equal(grad, expect)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", SURROGATE_KINDS)
    @pytest.mark.parametrize("smooth", [False, True])
    def test_blocked_backward_matches_whole_array_bptt(self, rng, monkeypatch, smooth, kind, dtype):
        monkeypatch.setattr(neuron, "BLOCK_NEURONS", 5)  # 12 neurons: blocks of 5, 5 and 2
        spec = NeuronSpec(tau=3.0, u_th=1.0, u_rest=-0.25, surrogate=kind, width=1.5)
        cur_data = (rng.standard_normal((5, 4, 3)) * 2).astype(dtype)
        g = rng.standard_normal((5, 4, 3)).astype(dtype)
        cur = Tensor(cur_data.copy(), requires_grad=True)
        out = sn_forward(cur, spec, smooth=smooth)
        backward(tensor_sum(mul(out, Tensor(g))))
        spikes, _, expect = bptt_oracle(cur_data, g, spec, smooth)
        assert np.array_equal(out.data, spikes)
        assert cur.grad.dtype == dtype and np.array_equal(cur.grad, expect)

    @given(st.integers(1, 5), st.integers(0, 2**31 - 1), st.sampled_from([0.0, -0.25]), st.booleans(),
           st.sampled_from(SURROGATE_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_gradient_bytes_match_the_oracle_on_signed_zeros(self, t_steps, seed, u_rest, smooth, kind):
        # currents and gradients full of +0 and -0, and currents that bring v to zero or to the threshold
        # exactly: the in-place loops must give the oracle's bytes, the signs of zeros included
        rng = np.random.default_rng(seed)
        spec = NeuronSpec(u_rest=u_rest, surrogate=kind)
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -0.5, 1e-45, -1e-45], dtype=np.float32)
        cur_data, g = (rng.choice(values, (t_steps, 40)) for _ in range(2))
        cur = Tensor(cur_data.copy(), requires_grad=True)
        out = sn_forward(cur, spec, smooth=smooth)
        grad = out._node.backward(g)[0]
        spikes, _, expect = bptt_oracle(cur_data, g, spec, smooth)
        assert np.array_equal(out.data, spikes) and grad.tobytes() == expect.tobytes()

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_outputs_always_binary(self, t_steps, seed):
        rng = np.random.default_rng(seed)
        cur = Tensor(rng.standard_normal((t_steps, 3)) * 3)
        out = sn_forward(cur)
        assert isinstance(out, SpikeTensor)
        assert np.isin(out.data, (0.0, 1.0)).all()

    @given(st.integers(1, 2), st.floats(-2, 4), st.floats(0.01, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_single_step_monotone_in_current(self, t_steps, base, bump):
        # before its first spike a neuron's v rises with a constant drive, so the
        # stronger drive has fired by every step at which the weaker one has
        out = sn_forward(Tensor(np.array([[base, base + bump]] * t_steps)))
        fired = np.maximum.accumulate(out.data, axis=0)
        assert (fired[:, 1] >= fired[:, 0]).all()


class TestRebuiltCurrents:
    """The backward rebuilds V from the records that made the current: the same bits as from a leaf current."""

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("block", [neuron.BLOCK_NEURONS, 40, 7])  # one block, half a step's, uneven ones
    def test_rebuildable_current_gives_the_bits_of_the_same_values_as_a_leaf(self, monkeypatch, smooth, block):
        monkeypatch.setattr(neuron, "BLOCK_NEURONS", block)
        rng = np.random.default_rng(block)
        spec = NeuronSpec(tau=3.0, u_rest=-0.25)
        x = Tensor((rng.standard_normal((8, 2, 4, 5)) * 2).astype(np.float32), requires_grad=True)
        state = ops.BatchNormState("bn", 2, dtype=np.float32)
        state.gamma.data[:] = [1.5, 2.0]
        bn = reshape(ops.batchnorm(x, state, True), (4, 2, 2, 4, 5))
        spikes = SpikeTensor(rng.random((4, 2, 2, 4, 4)) < 0.4)
        prod = mul(matmul(transpose(spikes, (0, 1, 2, 4, 3)), bn), np.float32(2.5))  # [4, 2, 2, 4, 5]
        # batch norm of an input in Fortran order: its output, and so its rebuild, is in that order too
        fortran = ops.batchnorm(Tensor(np.asfortranarray(x.data), requires_grad=True), state, True)
        g = rng.standard_normal((4, 2, 2, 4, 5)).astype(np.float32)
        for current in (bn, prod, add(bn, prod), fortran, mul(bn, bn)):  # the last cannot be rebuilt: it is kept
            leaf = Tensor(current.data.copy(), requires_grad=True)
            runs = [sn_forward(c, spec, smooth=smooth) for c in (current, leaf)]
            g = g.reshape(current.data.shape)
            grads = [out._node.backward(g)[0] for out in runs]
            assert grads[0].flags.c_contiguous
            assert runs[0].data.tobytes() == runs[1].data.tobytes()
            assert grads[0].dtype == np.float32 and grads[0].tobytes() == grads[1].tobytes()
            spikes_expected, _, expect = bptt_oracle(current.data, g, spec, smooth)
            assert np.array_equal(runs[0].data, spikes_expected) and np.array_equal(grads[0], expect)


class TestSurrogates:
    def test_triangular_peak_and_support(self):
        spec = NeuronSpec(surrogate="triangular", width=1.0)
        assert surrogate_grad(np.array([spec.u_th]), spec)[0] == 1.0
        assert surrogate_grad(np.array([spec.u_th + 1.0]), spec)[0] == 0.0
        assert surrogate_grad(np.array([spec.u_th - 1.5]), spec)[0] == 0.0

    def test_triangular_width_scales_peak(self):
        spec = NeuronSpec(surrogate="triangular", width=2.0)
        assert surrogate_grad(np.array([spec.u_th]), spec)[0] == 0.5

    def test_sigmoid_derivative_peak(self):
        spec = NeuronSpec(surrogate="sigmoid-derivative", width=1.0)
        np.testing.assert_allclose(surrogate_grad(np.array([spec.u_th]), spec)[0], 0.25)

    @pytest.mark.parametrize("kind", ["triangular", "sigmoid-derivative"])
    @pytest.mark.parametrize("width", [0.5, 1.0, 2.0])
    def test_unit_mass(self, kind, width):
        # any valid pseudo-derivative integrates to 1 over the membrane axis
        spec = NeuronSpec(surrogate=kind, width=width)
        v = np.linspace(spec.u_th - 60, spec.u_th + 60, 400_001)
        mass = np.trapezoid(surrogate_grad(v, spec), v)
        np.testing.assert_allclose(mass, 1.0, atol=1e-4)

    @pytest.mark.parametrize("kind", ["triangular", "sigmoid-derivative"])
    def test_smooth_step_is_antiderivative(self, kind):
        spec = NeuronSpec(surrogate=kind, width=1.0)
        v = np.linspace(-1.5, 3.5, 101)
        h = 1e-6
        fd = (smooth_step(v + h, spec) - smooth_step(v - h, spec)) / (2 * h)
        np.testing.assert_allclose(fd, surrogate_grad(v, spec), atol=1e-6)

    def test_smooth_step_limits(self):
        spec = NeuronSpec(surrogate="triangular", width=1.0)
        vals = smooth_step(np.array([spec.u_th - 1, spec.u_th, spec.u_th + 1]), spec)
        np.testing.assert_allclose(vals, [0.0, 0.5, 1.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown surrogate kind 'rectangle'"):
            NeuronSpec(surrogate="rectangle")

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError, match="surrogate width must be positive and finite, got 0.0"):
            NeuronSpec(width=0.0)


class TestGradientFlow:
    def test_spiking_backward_uses_surrogate(self):
        cur = Tensor(np.array([[2.0]]), requires_grad=True)
        out = sn_forward(cur)
        backward(tensor_sum(out))
        # v=1 at threshold: surrogate peak 1, dI = sg/tau = 0.5
        np.testing.assert_allclose(cur.grad, [[0.5]])

    def test_smooth_mode_fd(self, rng):
        cur = Tensor(rng.standard_normal((3, 4)) * 1.5, requires_grad=True)
        proj = Tensor(rng.standard_normal((3, 4)))
        assert_grads_close(
            lambda: tensor_sum(mul(sn_forward(cur, smooth=True), proj)),
            [cur],
            atol=1e-6,
            rtol=1e-4,
        )

    def test_smooth_mode_fd_sigmoid(self, rng):
        spec = NeuronSpec(surrogate="sigmoid-derivative", width=1.0)
        cur = Tensor(rng.standard_normal((4, 3)) * 1.5, requires_grad=True)
        proj = Tensor(rng.standard_normal((4, 3)))
        assert_grads_close(
            lambda: tensor_sum(mul(sn_forward(cur, spec, smooth=True), proj)),
            [cur],
            atol=1e-6,
            rtol=1e-4,
        )

    def test_detached_reset_blocks_state_gradient(self):
        # two steps, spike at t=0: with the reset gate detached, the only
        # path from x[0] to s[1] is through the (1-s)*v carry, which is zero
        # exactly at the spike; gradient of s[1] w.r.t. x[0] must be 0
        cur = Tensor(np.array([[2.0], [0.0]]), requires_grad=True)
        out = sn_forward(cur)
        backward(tensor_sum(mul(out, Tensor(np.array([[0.0], [1.0]])))))
        assert cur.grad[0, 0] == 0.0


class TestParamValidation:
    def test_tau_floor(self):
        with pytest.raises(ConfigError, match="membrane time constant must be >= 1, got 0.5"):
            NeuronSpec(tau=0.5)

    def test_threshold_above_rest(self):
        with pytest.raises(ConfigError, match="threshold 0.0 must exceed resting potential 0.0"):
            NeuronSpec(u_th=0.0, u_rest=0.0)

    def test_spike_class_by_mode(self):
        cur = Tensor(np.array([[3.0]]))
        assert isinstance(sn_forward(cur), SpikeTensor)
        assert not isinstance(sn_forward(cur, smooth=True), SpikeTensor)
