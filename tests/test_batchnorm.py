"""Batch normalization, folding, linear layer, and the loss."""

import numpy as np
import pytest

from dualspike import ops
from dualspike.layers import Linear, RunContext
from dualspike.model import build
from dualspike.ops import (
    BatchNormState,
    batchnorm,
    conv2d,
    cross_entropy,
    fold_bn,
)
from dualspike.tensor import ContractError, ShapeError, Tensor, backward, mul, no_grad, tensor_sum

from conftest import assert_grads_close


class TestForward:
    def test_fresh_eval_is_near_identity(self, rng):
        st = BatchNormState("bn", 3)
        x = rng.standard_normal((4, 3, 2, 2))
        out = batchnorm(Tensor(x), st, training=False)
        np.testing.assert_allclose(out.data, x / np.sqrt(1 + st.eps), rtol=1e-12)

    def test_train_normalizes_with_biased_variance(self, rng):
        st = BatchNormState("bn", 5)
        x = rng.standard_normal((8, 5, 3, 3)) * 4 + 2
        out = batchnorm(Tensor(x), st, training=True).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0, atol=1e-12)
        # biased (population) variance hits 1 up to eps, unbiased would not
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1, atol=1e-4)

    def test_constant_batch_returns_beta(self):
        st = BatchNormState("bn", 2)
        st.beta.data[:] = [3.0, -1.0]
        x = np.full((4, 2, 2, 2), 7.0)
        out = batchnorm(Tensor(x), st, training=True).data
        np.testing.assert_allclose(out[:, 0], 3.0)
        np.testing.assert_allclose(out[:, 1], -1.0)

    def test_running_stats_momentum_mix(self, rng):
        st = BatchNormState("bn", 3)
        x = rng.standard_normal((16, 3, 4, 4)) * 2 + 5
        batchnorm(Tensor(x), st, training=True)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # biased
        np.testing.assert_allclose(st.running_mean, 0.1 * mu, rtol=1e-12)
        np.testing.assert_allclose(st.running_var, 0.9 + 0.1 * var, rtol=1e-12)

    def test_eval_does_not_touch_stats(self, rng):
        st = BatchNormState("bn", 3)
        before = st.running_mean.copy(), st.running_var.copy()
        batchnorm(Tensor(rng.standard_normal((4, 3, 2, 2))), st, training=False)
        np.testing.assert_array_equal(st.running_mean, before[0])
        np.testing.assert_array_equal(st.running_var, before[1])

    def test_channel_mismatch(self, rng):
        st = BatchNormState("bn", 3)
        with pytest.raises(ShapeError):
            batchnorm(Tensor(rng.standard_normal((2, 4, 2, 2))), st, training=True)


class TestBackward:
    def test_train_mode_fd(self, rng):
        st = BatchNormState("bn", 3)
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        proj = Tensor(rng.standard_normal(x.data.shape))
        assert_grads_close(
            lambda: tensor_sum(mul(batchnorm(x, st, training=True), proj)),
            [x, st.gamma, st.beta],
            atol=1e-7,
        )

    def test_eval_mode_fd(self, rng):
        st = BatchNormState("bn", 3)
        st.running_mean = rng.standard_normal(3)
        st.running_var = rng.random(3) + 0.5
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        proj = Tensor(rng.standard_normal(x.data.shape))
        assert_grads_close(
            lambda: tensor_sum(mul(batchnorm(x, st, training=False), proj)),
            [x, st.gamma, st.beta],
            atol=1e-7,
        )


def bn_train_oracle(x, gamma, beta, eps, g):
    """Reference oracle: train-mode batch norm, forward and backward, as whole-array expressions.

    The in-place `ops.batchnorm` must reproduce out, dx, dgamma and dbeta bit for bit.
    """
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    gd, bd = gamma.reshape(bshape), beta.reshape(bshape)
    mu, var = x.mean(axis=axes), x.var(axis=axes)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(bshape)) * inv.reshape(bshape)
    out = gd * xhat + bd
    dbeta = g.sum(axis=axes)
    dgamma = (g * xhat).sum(axis=axes)
    dxhat = g * gd
    mean_dxhat = dxhat.mean(axis=axes).reshape(bshape)
    mean_dxhat_x = (dxhat * xhat).sum(axis=axes).reshape(bshape) / (x.size // x.shape[1])
    dx = inv.reshape(bshape) * (dxhat - mean_dxhat - xhat * mean_dxhat_x)
    return out, dx, dgamma, dbeta


def bn_eval_oracle(x, st):
    """Reference oracle: eval-mode batch norm as one whole-array expression."""
    bshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    inv = 1.0 / np.sqrt(st.running_var + st.eps)
    scale = (st.gamma.data * inv).reshape(bshape)
    shift = (st.beta.data - st.gamma.data * st.running_mean * inv).reshape(bshape)
    return x * scale + shift


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestBitExact:
    """The in-place batch norm equals the whole-array expressions bit for bit."""

    def state(self, rng, dtype, channels=6):
        st = BatchNormState("bn", channels, dtype=dtype)
        st.gamma.data[:] = rng.standard_normal(channels) + 1.0
        st.beta.data[:] = rng.standard_normal(channels)
        st.running_mean = rng.standard_normal(channels).astype(dtype)
        st.running_var = (rng.random(channels) + 0.5).astype(dtype)
        return st

    def check_train(self, rng, dtype, x_data):
        """Train-mode batch norm of `x_data` against the oracle: out, dx, dgamma, dbeta and the running
        variance, which mixes in the batch variance as x.var gives it."""
        st = self.state(rng, dtype, x_data.shape[1])
        running_var = st.running_var * (1.0 - st.momentum) + st.momentum * x_data.var(axis=(0, 2, 3))
        g = rng.standard_normal(x_data.shape).astype(dtype)
        expect = bn_train_oracle(x_data, st.gamma.data, st.beta.data, st.eps, g)
        x = Tensor(x_data, requires_grad=True)
        out = batchnorm(x, st, training=True)
        backward(tensor_sum(mul(out, Tensor(g))))  # the batch norm node receives g itself
        for got, want in zip((out.data, x.grad, st.gamma.grad, st.beta.grad), expect):
            assert got.dtype == dtype and np.array_equal(got, want)
        assert np.array_equal(st.running_var, running_var)

    def test_train_forward_and_backward(self, rng, dtype):
        self.check_train(rng, dtype, (rng.standard_normal((8, 6, 16, 16)) * 3 + 1).astype(dtype))

    def test_train_at_a_count_not_a_power_of_two(self, rng, dtype):
        # 5 * 7 * 3 = 105 values per channel: the variance's division by the count rounds
        self.check_train(rng, dtype, (rng.standard_normal((5, 6, 7, 3)) * 3 + 1).astype(dtype))

    def test_train_on_nano_activations(self, rng, monkeypatch, dtype):
        # the inputs of every batch norm of a batch-3 Nano train forward, one per shape
        inputs = {}

        def recording(x, state, training):
            inputs.setdefault(x.data.shape, x.data.copy())
            return batchnorm(x, state, training)

        monkeypatch.setattr(ops, "batchnorm", recording)
        net = build("Nano", dtype=dtype, seed=0)
        with no_grad():
            net.forward(rng.standard_normal((3, 3, 32, 32)), RunContext(training=True))
        assert len(inputs) >= 5
        for x_data in inputs.values():
            self.check_train(rng, dtype, x_data)

    def test_eval_forward(self, rng, dtype):
        st = self.state(rng, dtype)
        x = (rng.standard_normal((8, 6, 16, 16)) * 3 + 1).astype(dtype)
        out = batchnorm(Tensor(x), st, training=False).data
        assert out.dtype == dtype and np.array_equal(out, bn_eval_oracle(x, st))


class TestFolding:
    def test_conv_bn_fold_equivalence(self, rng):
        st = BatchNormState("bn", 4)
        st.running_mean = rng.standard_normal(4)
        st.running_var = rng.random(4) + 0.3
        st.gamma.data[:] = rng.standard_normal(4)
        st.beta.data[:] = rng.standard_normal(4)
        w = rng.standard_normal((4, 3, 3, 3))
        x = rng.standard_normal((2, 3, 8, 8))

        through = batchnorm(conv2d(Tensor(x), Tensor(w), stride=1, padding=1), st, training=False).data
        folded, bias = fold_bn(w, st)
        direct = conv2d(Tensor(x), Tensor(folded), stride=1, padding=1).data + bias[None, :, None, None]
        assert np.abs(through - direct).max() <= 1e-5

    def test_fold_shape_contract(self, rng):
        st = BatchNormState("bn", 2)
        with pytest.raises(ShapeError):
            fold_bn(rng.standard_normal((3, 1, 1, 1)), st)


class TestLinearAndLoss:
    def test_linear_value_and_grads(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        fc = Linear("fc", 3, 5, rng=rng, dtype=np.float64)
        w, b = fc.weight, fc.bias
        b.data[...] = rng.standard_normal(5)
        out = fc.forward(x)
        np.testing.assert_allclose(out.data, x.data @ w.data + b.data)
        assert_grads_close(lambda: tensor_sum(mul(fc.forward(x), fc.forward(x))), [x, w, b])

    def test_uniform_logits_loss_is_log_classes(self):
        logits = Tensor(np.zeros((6, 10)))
        labels = np.arange(6) % 10
        loss = cross_entropy(logits, labels)
        np.testing.assert_allclose(loss.item(), np.log(10), rtol=1e-12)

    def test_loss_grad_is_softmax_minus_onehot(self, rng):
        z = rng.standard_normal((3, 4))
        logits = Tensor(z, requires_grad=True)
        labels = np.array([1, 3, 0])
        backward(cross_entropy(logits, labels))
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(4)[labels]
        np.testing.assert_allclose(logits.grad, (p - onehot) / 3, rtol=1e-10)

    def test_loss_fd(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        labels = np.array([0, 2, 5, 1])
        assert_grads_close(lambda: cross_entropy(logits, labels), [logits])

    def test_extreme_logits_stay_finite(self):
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        assert np.isfinite(cross_entropy(logits, np.array([0, 0])).item())

    @pytest.mark.parametrize(
        "labels, expect",
        [
            (np.array([True, False]), None),  # would index as a mask and score labels [0, 0]: 2.5067
            (np.array([1.0, 0.0]), None),
            (np.array([1, 0], dtype=np.int64), 0.0067153),
            (np.array([1, 0], dtype=np.uint8), 0.0067153),
        ],
        ids=["bool", "float", "int64", "uint8"],
    )
    def test_labels_must_be_integers(self, labels, expect):
        logits = Tensor(np.array([[0.0, 5.0], [5.0, 0.0]]))
        if expect is None:
            with pytest.raises(ContractError, match="integer"):
                cross_entropy(logits, labels)
        else:
            np.testing.assert_allclose(cross_entropy(logits, labels).item(), expect, rtol=1e-4)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
