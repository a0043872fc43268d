"""Dual-spike transformations, scales, rate tracking, multi-head module."""

import re

import numpy as np
import pytest

from dualspike import attention
from dualspike.attention import (
    FiringRateEMA,
    MultiHeadDualSpikeAttention,
    dst_scale,
    sdsa_scale,
)
from dualspike.audit import AuditTrace
from dualspike.config import StageSpec
from dualspike.layers import RunContext
from dualspike.neuron import NeuronSpec, sn_forward
from dualspike.tensor import (
    ContractError,
    ShapeError,
    SpikeTensor,
    Tensor,
    no_grad,
)


class TestScales:
    def test_dst_scale_values(self):
        assert dst_scale(0.25, 64) == 0.25
        np.testing.assert_allclose(dst_scale(0.5, 8), 0.5)

    def test_dst_scale_floors_tiny_rates(self):
        # rate floor 1e-4 keeps the scale finite for silent inputs
        np.testing.assert_allclose(dst_scale(1e-6, 100), 10.0)
        np.testing.assert_allclose(dst_scale(0.0, 100), 10.0)

    def test_dst_scale_per_image_rates(self):
        # one rate per image at eval: each scale has the bits of the float call, and any bad entry is rejected
        rates = np.array([0.25, 0.5, 0.0, 1e-6]).reshape(1, 4, 1, 1, 1)
        scales = dst_scale(rates, 64)
        assert scales.shape == rates.shape
        assert scales.ravel().tolist() == [dst_scale(float(r), 64) for r in rates.ravel()]
        for bad in (1.5, -0.1, np.nan):
            with pytest.raises(ContractError):
                dst_scale(np.array([0.25, bad]), 64)

    def test_output_scale_uses_reduced_tokens(self, monkeypatch, rng):
        # at a stored attention-map rate of 0.5, a 14x14 map scales by 1/sqrt(0.5 * 196) at p = 1
        # and by 1/sqrt(0.5 * 1) at p = 14, where one token covers the whole map
        scales = []

        def spy(rate, fan_in):
            scales.append(dst_scale(rate, fan_in))
            return scales[-1]

        monkeypatch.setattr(attention, "dst_scale", spy)
        for p, expect in ((1, 1 / np.sqrt(98)), (14, 1 / np.sqrt(0.5))):
            mod = build_attention(stage(4, p=p), (14, 14))
            mod.rate_attn.value, mod.rate_attn.initialized = 0.5, True
            scales.clear()
            with no_grad():
                mod.forward(Tensor(rng.standard_normal((2, 1, 4, 14, 14)) * 2), RunContext(training=False))
            np.testing.assert_allclose(scales[-1], expect)

    def test_sdsa_scale_value(self):
        np.testing.assert_allclose(sdsa_scale(0.5, 0.5, 64), 1 / np.sqrt(12))

    def test_sdsa_scale_floors_degenerate_product(self):
        # fq*fk = 1 makes the Bernoulli-product variance 0; floor takes over
        np.testing.assert_allclose(sdsa_scale(1.0, 1.0, 4), 1 / np.sqrt(4e-4))

    def test_sdsa_scale_rejects_bad_rate(self):
        with pytest.raises(ContractError):
            sdsa_scale(1.5, 0.5, 4)

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_every_rate_reader_shares_one_range_check(self, bad):
        readers = [
            lambda: dst_scale(bad, 4),
            lambda: sdsa_scale(bad, 0.5, 4),
            lambda: sdsa_scale(0.5, bad, 4),
            lambda: FiringRateEMA("e").observe(np.full((2, 1, 1, 1, 5), bad), training=True),
        ]
        for read in readers:
            with pytest.raises(ContractError, match=re.escape(f"firing rate must lie in [0, 1], got {bad}")):
                read()


def spike_array(*rates, n=10):
    """Binary spikes [2, B, 1, 1, n/2]: image b has round(rates[b] * n) ones among its n entries."""
    flat = np.zeros((len(rates), n))
    for b, rate in enumerate(rates):
        flat[b, : round(rate * n)] = 1.0
    return flat.reshape(len(rates), 2, 1, 1, n // 2).swapaxes(0, 1)


class TestFiringRateEMA:
    def test_first_observation_seeds(self):
        ema = FiringRateEMA("e")
        assert ema.observe(spike_array(0.5), training=True) == 0.5
        assert ema.initialized

    def test_training_reads_whole_batch_rate(self):
        ema = FiringRateEMA("e")
        assert ema.observe(spike_array(0.2, 0.6), training=True) == 0.4

    def test_momentum_mix(self):
        ema = FiringRateEMA("e")
        ema.observe(spike_array(0.5), training=True)
        np.testing.assert_allclose(ema.observe(spike_array(0.3), training=True), 0.999 * 0.5 + 0.001 * 0.3)

    def test_eval_returns_stored_without_update(self):
        ema = FiringRateEMA("e")
        ema.observe(spike_array(0.4), training=True)
        assert ema.observe(spike_array(0.9, 0.1), training=False) == 0.4
        assert ema.value == 0.4

    def test_uninitialized_eval_falls_back_to_each_images_rate(self):
        ema = FiringRateEMA("e")
        rates = ema.observe(spike_array(0.7, 0.2, 0.0).astype(np.float32), training=False)
        assert rates.shape == (1, 3, 1, 1, 1) and rates.dtype == np.float64
        np.testing.assert_allclose(rates.ravel(), [0.7, 0.2, 0.0], rtol=1e-15)
        # an image's rate does not depend on the other images of its batch
        assert ema.observe(spike_array(0.7).astype(np.float32), training=False).item() == rates[0, 0].item()
        assert not ema.initialized and ema.value == 0.0

    def test_rate_range_contract(self):
        ema = FiringRateEMA("e")
        with pytest.raises(ContractError):
            ema.observe(np.full((2, 1, 1, 1, 5), 1.5), training=True)
        with pytest.raises(ContractError):
            ema.observe(np.full((2, 1, 1, 1, 5), -0.1), training=True)
        assert not ema.initialized
        with pytest.raises(ContractError):  # the per-image fallback checks each image's rate
            ema.observe(np.stack([spike_array(0.4)[:, 0], np.full((2, 1, 1, 5), np.nan)], axis=1), training=False)
        ema.observe(spike_array(0.4), training=True)
        with pytest.raises(ContractError):  # an initialized estimator checks the rate at eval too
            ema.observe(np.full((2, 1, 1, 1, 5), 1.5), training=False)
        assert ema.value == 0.4


def identity_attention(d, tokens, gain_map=1.0, gain_val=1.0):
    """Single-head, p=1 module over a column of tokens whose embeddings are f(Y) = gain * Y exactly."""
    mod = build_attention(stage(d), (tokens, 1))
    for conv, bn, gain in ((mod.conv_map, mod.bn_map, gain_map), (mod.conv_val, mod.bn_val, gain_val)):
        conv.weight.data[...] = gain * np.eye(d)[:, :, None, None]
        bn.eps = 0.0  # eval BN at running stats (0, 1) is then the identity
    return mod


def lif_traffic(monkeypatch, mod, x, training=False):
    """(current, spikes) at the module's three LIFs in order: input, attention map, output."""
    seen = []

    def spy(current, *args, **kwargs):
        out = sn_forward(current, *args, **kwargs)
        seen.append((current.data, out))
        return out

    monkeypatch.setattr(attention, "sn_forward", spy)
    with no_grad():
        mod.forward(Tensor(x), RunContext(training=training))
    return seen


def token_input(tokens):
    """Module input [1,1,d,HW,1] whose single-step input spikes are the given [HW, d] token rows."""
    return 2.0 * np.asarray(tokens, dtype=np.float64).T[None, None, :, :, None]  # v = x/2 fires at x = 2


class TestDualSpikeTransforms:
    """Hand oracles for the two binary products inside the module's forward."""

    TOKENS = [[1, 0, 1], [0, 1, 1], [1, 0, 0]]  # 5 of 9 spikes; X @ X^T = [[2,1,1],[1,2,0],[1,0,1]]

    def test_dst_t_is_cooccurrence_for_identity(self, monkeypatch):
        mod = identity_attention(3, 3)
        (_, s_in), (cur, _), _ = lif_traffic(monkeypatch, mod, token_input(self.TOKENS))
        np.testing.assert_array_equal(s_in.data[0, 0, :, :, 0].T, self.TOKENS)
        c1 = dst_scale(5 / 9, 3)
        np.testing.assert_allclose(cur[0, 0, 0], c1 * np.array([[2, 1, 1], [1, 2, 0], [1, 0, 1]]), rtol=1e-12)

    def test_dst_hand_oracle(self, monkeypatch):
        # gain 2: currents 2*c1*{2, 1, 0} = 3.10 / 1.55 / 0 and only co-occurrence 2 fires at one step
        mod = identity_attention(3, 3, gain_map=2.0)
        _, (_, amap), (cur, _) = lif_traffic(monkeypatch, mod, token_input(self.TOKENS))
        np.testing.assert_array_equal(amap.data[0, 0, 0], [[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        c2 = dst_scale(2 / 9, 3)  # three tokens at p = 1
        np.testing.assert_allclose(cur[0, 0, 0], c2 * np.array([[1, 0, 1], [0, 1, 1], [0, 0, 0]]), rtol=1e-12)

    def test_dst_applies_map(self, monkeypatch):
        mod = identity_attention(3, 3, gain_map=2.0, gain_val=3.0)
        _, _, (cur, _) = lif_traffic(monkeypatch, mod, token_input(self.TOKENS))
        c2 = dst_scale(2 / 9, 3)  # three tokens at p = 1
        np.testing.assert_allclose(cur[0, 0, 0], 3.0 * c2 * np.array([[1, 0, 1], [0, 1, 1], [0, 0, 0]]), rtol=1e-12)

    def test_binarity_contract(self, rng):
        with pytest.raises(ContractError):
            SpikeTensor(np.array([[0.5, 1.0]]))
        mod = build_attention(stage(2), (1, 2))
        with pytest.raises(ContractError):
            AuditTrace().record(
                "attn", "dst_t", np.full((1, 1, 2, 1, 2), 0.5), None, conv=mod.conv_map, bn=mod.bn_map, heads=1
            )

    def test_attn_map_temporal_integration_oracle(self, monkeypatch):
        # all-ones tokens, d=3: rate 1, c1=1/sqrt(3), score (x @ x^T) = 3,
        # current 3/sqrt(3)=1.732; tau=2: v1=0.866 (no spike), v2=1.299 (spike)
        mod = identity_attention(3, 2)
        (_, s_in), (_, amap), _ = lif_traffic(monkeypatch, mod, np.full((2, 1, 3, 2, 1), 10.0))
        np.testing.assert_array_equal(s_in.data, 1.0)
        assert isinstance(amap, SpikeTensor)
        np.testing.assert_array_equal(amap.data[0], 0.0)
        np.testing.assert_array_equal(amap.data[1], 1.0)

    def test_dssa_shapes_and_binarity(self, monkeypatch, rng):
        mod = build_attention(stage(8, heads=2, p=2), (4, 4))
        traffic = lif_traffic(monkeypatch, mod, rng.standard_normal((3, 2, 8, 4, 4)) * 2, training=True)
        shapes = [(3, 2, 8, 4, 4), (3, 2, 2, 16, 4), (3, 2, 2, 16, 4)]  # input, map [HW, np], output [HW, dh]
        for (_, spikes), shape in zip(traffic, shapes, strict=True):
            assert isinstance(spikes, SpikeTensor)
            assert spikes.data.shape == shape
        assert mod.rate_x.initialized and mod.rate_attn.initialized


def stage(d, heads=1, p=1):
    """A valid stage for attention-only tests: R = 1 and one FFN group pass the FFN's checks for any d."""
    return StageSpec(d=d, heads=heads, p=p, expansion=1, group_width=d)


def build_attention(spec, size, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return MultiHeadDualSpikeAttention("attn", spec, size, NeuronSpec(), rng=rng, dtype=dtype)


class TestMultiHeadModule:
    def test_preserves_stage_shape(self, rng):
        for d, size, p, heads in [(64, 8, 4, 1), (192, 4, 2, 3), (384, 2, 1, 6)]:
            mod = build_attention(stage(d, heads=heads, p=p), (size, size))
            x = Tensor(rng.standard_normal((2, 1, d, size, size)))
            with no_grad():
                out = mod.forward(x, RunContext(training=False))
            assert out.data.shape == (2, 1, d, size, size)

    def test_manual_replication_p1_two_heads(self, rng):
        """Replicate the whole module with explicit per-head numpy loops."""
        spec, height, width = stage(4, heads=2), 2, 2
        mod = build_attention(spec, (height, width), seed=3)
        x_data = rng.standard_normal((2, 1, 4, 2, 2)) * 2
        with no_grad():
            out = mod.forward(Tensor(x_data), RunContext(training=False)).data

        # stage 1: input spikes
        s_in = sn_forward(Tensor(x_data)).data
        rate_in = s_in.mean()

        def embed(conv, bn):
            # 1x1 conv + eval BN, computed pixel-by-pixel
            w = conv.weight.data[:, :, 0, 0]  # [out, in]
            z = np.einsum("oc,tbchw->tbohw", w, s_in)
            inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
            return (z - bn.running_mean[None, None, :, None, None]) * (
                bn.gamma.data * inv
            )[None, None, :, None, None] + bn.beta.data[None, None, :, None, None]

        z_map = embed(mod.conv_map, mod.bn_map)
        z_val = embed(mod.conv_val, mod.bn_val)

        dh, hw = spec.d_head, height * width
        c1 = dst_scale(rate_in, dh)
        scores = np.zeros((2, 1, spec.heads, hw, hw))
        for h in range(spec.heads):
            for q in range(hw):
                for k in range(hw):
                    qi, qj = divmod(q, width)
                    ki, kj = divmod(k, width)
                    for t in range(2):
                        scores[t, 0, h, q, k] = np.dot(
                            s_in[t, 0, h * dh : (h + 1) * dh, qi, qj],
                            z_map[t, 0, h * dh : (h + 1) * dh, ki, kj],
                        )
        amap = sn_forward(Tensor(scores * c1)).data
        rate_a = amap.mean()

        c2 = dst_scale(rate_a, hw)  # p = 1: every position is a token
        val = np.zeros((2, 1, spec.heads, hw, dh))
        for h in range(spec.heads):
            for q in range(hw):
                for k in range(hw):
                    ki, kj = divmod(k, width)
                    val[:, 0, h, q] += (
                        amap[:, 0, h, q, k, None] * z_val[:, 0, h * dh : (h + 1) * dh, ki, kj]
                    )
        s_out = sn_forward(Tensor(val * c2)).data

        merged = np.zeros((2, 1, 4, 2, 2))
        for h in range(spec.heads):
            for q in range(hw):
                qi, qj = divmod(q, width)
                merged[:, 0, h * dh : (h + 1) * dh, qi, qj] = s_out[:, 0, h, q]
        wp = mod.conv_proj.weight.data[:, :, 0, 0]
        proj = np.einsum("oc,tbchw->tbohw", wp, merged)
        bn = mod.bn_proj
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        expect = proj * (bn.gamma.data * inv)[None, None, :, None, None] + (
            bn.beta.data - bn.gamma.data * bn.running_mean * inv
        )[None, None, :, None, None]

        np.testing.assert_allclose(out, expect, atol=1e-10)

    def test_reduced_tokens(self, monkeypatch, rng):
        # one token per p x p patch of 14x14, and the output transformation's fan-in is that count
        fans = []

        def spy(rate, fan_in):
            fans.append(fan_in)
            return dst_scale(rate, fan_in)

        monkeypatch.setattr(attention, "dst_scale", spy)
        for p, tokens in ((1, 196), (2, 49), (14, 1)):
            mod = build_attention(stage(4, p=p), (14, 14))
            assert mod.tokens == tokens
            fans.clear()
            with no_grad():
                mod.forward(Tensor(rng.standard_normal((2, 1, 4, 14, 14)) * 2), RunContext(training=True))
            assert fans == [4, tokens]  # d_head for the attention map, then the reduced tokens

    def test_rate_emas_shared_across_heads(self, rng):
        mod = build_attention(stage(8, heads=2, p=2), (4, 4))
        assert len(mod.rate_emas()) == 2
        x = Tensor(rng.standard_normal((2, 2, 8, 4, 4)))
        mod.forward(x, RunContext(training=True))
        assert mod.rate_x.initialized and mod.rate_attn.initialized
        assert 0.0 <= mod.rate_x.value <= 1.0

    def test_input_shape_contract(self, rng):
        mod = build_attention(stage(8, heads=2, p=2), (4, 4))
        with pytest.raises(ShapeError):
            mod.forward(Tensor(rng.standard_normal((2, 2, 8, 4, 6))), RunContext())

    def test_parameter_names_unique(self):
        mod = build_attention(stage(8, heads=2, p=2), (4, 4))
        names = [p.name for p in mod.parameters()]
        assert len(names) == len(set(names))
