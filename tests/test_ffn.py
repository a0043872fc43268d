"""Group-wise spiking FFN: config arithmetic, residual path, shapes."""

import numpy as np
import pytest

from dualspike.config import StageSpec
from dualspike.ffn import GroupWiseFeedForward
from dualspike.layers import RunContext
from dualspike.neuron import NeuronSpec, sn_forward
from dualspike.tensor import ConfigError, ShapeError, Tensor, backward, mul, no_grad, tensor_mean


def ffn_stage(d, expansion):
    """A stage whose FFN has width d, expansion R and the default group width 64; one head, p = 1."""
    return StageSpec(d=d, heads=1, p=1, expansion=expansion)


def build_ffn(spec, seed=0):
    rng = np.random.default_rng(seed)
    return GroupWiseFeedForward("ffn", spec, NeuronSpec(), rng=rng, dtype=np.float64)


class TestConfig:
    """The FFN's widths come from its StageSpec, which holds their checks."""

    def test_hidden_and_groups(self):
        ffn = build_ffn(ffn_stage(192, 4))
        assert ffn.conv1.weight.data.shape[0] == ffn.conv2.weight.data.shape[1] == 768
        assert ffn.conv_g.groups == 12

    def test_group_width_must_tile_hidden(self):
        with pytest.raises(ConfigError, match="hidden width 48 not divisible by group width 64"):
            ffn_stage(48, 1)

    def test_expansion_validated(self):
        with pytest.raises(ConfigError, match="expansion must be >= 1"):
            ffn_stage(64, 0)


class TestForward:
    def test_shape_preserved(self, rng):
        ffn = build_ffn(ffn_stage(32, 4))
        x = Tensor(rng.standard_normal((2, 2, 32, 4, 4)))
        with no_grad():
            out = ffn.forward(x, RunContext(training=False))
        assert out.data.shape == (2, 2, 32, 4, 4)

    def test_channel_contract(self, rng):
        ffn = build_ffn(ffn_stage(32, 2))
        with pytest.raises(ShapeError):
            ffn.forward(Tensor(rng.standard_normal((2, 2, 16, 4, 4))), RunContext())

    def test_gwl_residual_identity_when_conv_silenced(self, rng):
        # zero the group conv weight: gwl(x) must reduce to BN(0) + x = beta + x
        ffn = build_ffn(ffn_stage(64, 1))
        ffn.conv_g.weight.data[:] = 0.0
        x = Tensor(rng.standard_normal((2, 1, 64, 3, 3)))
        with no_grad():
            out = ffn.gwl(x, RunContext(training=False))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_gwl_groups_do_not_mix(self, rng):
        # perturb channels of group 0 only; eval-mode gwl output for the other
        # group's channels must not move (minus the residual change itself)
        ffn = build_ffn(ffn_stage(32, 4))  # hidden 128, 2 groups
        ctx = RunContext(training=False)
        x = rng.standard_normal((2, 1, 128, 3, 3))
        x2 = x.copy()
        x2[:, :, :64] += rng.standard_normal((2, 1, 64, 3, 3))
        with no_grad():
            a = ffn.gwl(Tensor(x), ctx).data
            b = ffn.gwl(Tensor(x2), ctx).data
        np.testing.assert_allclose(
            b[:, :, 64:] - x2[:, :, 64:], a[:, :, 64:] - x[:, :, 64:], atol=1e-12
        )

    def test_ffl_matches_manual_pointwise(self, rng):
        ffn = build_ffn(ffn_stage(16, 4))
        x = Tensor(rng.standard_normal((2, 1, 16, 2, 2)))
        with no_grad():
            out = ffn.ffl(x, RunContext(training=False), 1)
        s = sn_forward(Tensor(x.data)).data
        w = ffn.conv1.weight.data[:, :, 0, 0]
        z = np.einsum("oc,tbchw->tbohw", w, s)
        inv = 1.0 / np.sqrt(ffn.bn1.running_var + ffn.bn1.eps)
        expect = z * (ffn.bn1.gamma.data * inv)[None, None, :, None, None]
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_ffl_index_validated(self, rng):
        ffn = build_ffn(ffn_stage(16, 4))
        with pytest.raises(ConfigError):
            ffn.ffl(Tensor(rng.standard_normal((1, 1, 16, 2, 2))), RunContext(), 3)

    def test_parameter_count_closed_form(self):
        # conv1 d*h + gwl 9*h*gw... per group: h/g groups of (gw x gw x 3 x 3)
        # weights + 3 BN gamma/beta pairs; conv2 h*d
        ffn = build_ffn(ffn_stage(32, 4))
        h = 32 * 4
        expect = 32 * h + 2 * h + h * 64 * 9 + 2 * h + h * 32 + 2 * 32
        assert sum(p.data.size for p in ffn.parameters()) == expect

    def test_gradients_flow_to_all_parameters(self, rng):
        ffn = build_ffn(ffn_stage(8, 8))
        x = Tensor(rng.standard_normal((2, 2, 8, 3, 3)) * 2)
        out = ffn.forward(x, RunContext(training=True, smooth=True))
        backward(tensor_mean(mul(out, out)))
        for p in ffn.parameters():
            assert p.grad is not None, p.name
            assert np.isfinite(p.grad).all(), p.name
