"""Synthetic data generation, optimizer arithmetic, the training loop."""

import binascii
import functools
import json
import struct

import numpy as np
import pytest

from dualspike import attention, layers, training, verification
from dualspike.config import ModelConfig, StageSpec, StemSpec, TrainConfig
from dualspike.data import (
    Dataset,
    SyntheticSpec,
    class_patterns,
    generate_split,
    iter_batches,
    load_dataset,
    save_dataset,
    serialize_dataset,
)
from dualspike.layers import FiringRateEMA, RunContext
from dualspike.model import DualSpikeNet, build, load_checkpoint
from dualspike.ops import cross_entropy
from dualspike.tensor import CheckpointError, ConfigError, ContractError, Parameter, Tensor, backward, make_node
from dualspike.training import (
    AdamW,
    cosine_lr,
    evaluate,
    train,
)


class TestSyntheticData:
    def test_generation_is_deterministic(self):
        spec = SyntheticSpec(seed=4)
        a = generate_split(spec, 64, "train")
        b = generate_split(spec, 64, "train")
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_splits_are_disjoint_streams(self):
        spec = SyntheticSpec(seed=4)
        a = generate_split(spec, 64, "train")
        b = generate_split(spec, 64, "test")
        assert not np.array_equal(a.images, b.images)

    def test_noise_free_images_are_class_patterns(self):
        spec = SyntheticSpec(noise=0.0, seed=2)
        ds = generate_split(spec, 40, "train")
        patterns = class_patterns(spec)
        np.testing.assert_array_equal(ds.images, patterns[ds.labels].astype(np.float32))

    def test_labels_are_balanced(self):
        ds = generate_split(SyntheticSpec(seed=0), 320, "train")
        counts = np.bincount(ds.labels, minlength=10)
        assert (counts == 32).all()

    def test_patterns_are_unit_scale(self):
        pats = class_patterns(SyntheticSpec(seed=9))
        np.testing.assert_allclose(pats.std(axis=(1, 2, 3)), 1.0, atol=1e-12)

    def test_classes_linearly_separable_at_working_noise(self):
        # the training acceptance run leans on this: a plain least-squares
        # probe must already crack the task at the default noise level
        ds = generate_split(SyntheticSpec(noise=0.3, seed=0), 320, "train")
        flat = ds.images.reshape(320, -1).astype(np.float64)
        onehot = np.eye(10)[ds.labels]
        w, *_ = np.linalg.lstsq(flat, onehot, rcond=None)
        acc = (np.argmax(flat @ w, axis=1) == ds.labels).mean()
        assert acc > 0.95

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(classes=1)
        with pytest.raises(ConfigError):
            SyntheticSpec(coarse=5)
        with pytest.raises(ConfigError):
            SyntheticSpec(noise=-0.1)

    @pytest.mark.parametrize("field, value, message", [
        ("noise", float("nan"), "noise must be finite"),
        ("noise", float("inf"), "noise must be finite"),
        ("seed", -1, "data seed must be non-negative"),
    ])
    def test_spec_rejects_non_finite_noise_and_negative_seed(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            SyntheticSpec(**{field: value})

    @pytest.mark.parametrize("field", ["channels", "height", "width", "coarse"])
    def test_spec_rejects_sizes_below_one(self, field):
        with pytest.raises(ConfigError, match=f"{field} must be at least 1, got 0"):
            SyntheticSpec(**{field: 0})

    def test_split_name_contract(self):
        with pytest.raises(ContractError):
            generate_split(SyntheticSpec(), 8, "validation")

    def test_iter_batches_covers_every_sample_once(self, rng):
        images = np.arange(20, dtype=np.float32).reshape(10, 2, 1, 1)
        labels = np.arange(10)
        seen = []
        for bi, bl in iter_batches(images, labels, 3, rng=rng):
            assert bi.shape[0] == bl.shape[0] <= 3
            seen.extend(bl.tolist())
        assert sorted(seen) == list(range(10))


class TestDatasetContainer:
    def test_round_trip(self, tmp_path):
        ds = generate_split(SyntheticSpec(noise=0.25, seed=6), 32, "test")
        path = tmp_path / "d.dsds"
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.spec == ds.spec
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_dtype_contract(self):
        ds = generate_split(SyntheticSpec(seed=6), 8, "test")
        bad = Dataset(spec=ds.spec, images=ds.images.astype(np.float64), labels=ds.labels)
        with pytest.raises(ContractError):
            serialize_dataset(bad)

    def test_bit_flip_detected(self, tmp_path):
        ds = generate_split(SyntheticSpec(seed=6), 8, "test")
        blob = bytearray(serialize_dataset(ds))
        blob[len(blob) // 2] ^= 0x01
        path = tmp_path / "d.dsds"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity"):
            load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.dsds"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_dataset(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "d.dsds"
        path.write_bytes(b"DS")
        with pytest.raises(CheckpointError, match="truncated"):
            load_dataset(path)

    def test_truncated_header(self, tmp_path):
        # valid magic, version and CRC around a payload shorter than the header
        body = b"DSDS" + struct.pack("<I", 1) + b"\x00" * 10
        path = tmp_path / "d.dsds"
        path.write_bytes(body + struct.pack("<I", binascii.crc32(body)))
        with pytest.raises(CheckpointError, match="truncated"):
            load_dataset(path)

    def test_unsupported_version(self, tmp_path):
        ds = generate_split(SyntheticSpec(seed=6), 4, "test")
        blob = bytearray(serialize_dataset(ds))
        blob[4:8] = struct.pack("<I", 9)
        body = bytes(blob[:-4])
        path = tmp_path / "d.dsds"
        path.write_bytes(body + struct.pack("<I", binascii.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="version 9"):
            load_dataset(path)


class TestOptimizer:
    def test_decay_partition_by_name(self):
        # with zero gradients an AdamW step is pure decay, so only `.weight` tensors may move
        params = [
            Parameter("stem.conv.weight", np.ones(2)),
            Parameter("stem.bn.gamma", np.ones(2)),
            Parameter("stem.bn.beta", np.ones(2)),
            Parameter("classifier.fc.bias", np.ones(2)),
        ]
        AdamW(params, lr=0.1, weight_decay=0.5).step()
        assert [p.name for p in params if not np.array_equal(p.data, np.ones(2))] == ["stem.conv.weight"]

    def test_single_step_oracle(self):
        w = Parameter("m.weight", np.array([1.0]))
        b = Parameter("m.bias", np.array([1.0]))
        w.grad[...] = 0.5
        b.grad[...] = 0.5
        opt = AdamW([w, b], lr=0.1, weight_decay=0.01)
        opt.step()
        mhat = 0.5  # first-step bias correction cancels exactly
        vhat = 0.25
        base_update = mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(w.data, 1.0 - 0.1 * (base_update + 0.01 * 1.0))
        np.testing.assert_allclose(b.data, 1.0 - 0.1 * base_update)

    def test_zero_grad_means_pure_decay(self):
        w = Parameter("m.weight", np.array([2.0]))
        opt = AdamW([w], lr=0.5, weight_decay=0.1)
        opt.step()
        np.testing.assert_allclose(w.data, 2.0 - 0.5 * 0.1 * 2.0)

    def test_requires_params(self):
        with pytest.raises(ContractError):
            AdamW([])

    def test_cosine_schedule_endpoints(self):
        assert cosine_lr(0, 100, 1e-3, 1e-5) == 1e-3
        assert cosine_lr(99, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(50, 101, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2)
        assert cosine_lr(500, 100, 1e-3, 1e-5) == pytest.approx(1e-5)
        assert cosine_lr(0, 1, 1e-3, 1e-5) == 1e-3


TINY = ModelConfig(
    name="tiny",
    input_height=8,
    input_width=8,
    in_channels=2,
    num_classes=3,
    time_steps=2,
    stem=StemSpec(kernel=3, stride=1, padding=1, pool=False),
    stages=(StageSpec(d=8, heads=2, p=2, expansion=8, group_width=64),),
)

TINY_DATA = SyntheticSpec(classes=3, channels=2, height=8, width=8, coarse=4, noise=0.2, seed=1)


class TestTrainLoop:
    def test_evaluate_counts_matches(self):
        class Stub:
            def predict(self, images, batch_size=64):
                return np.array([0, 1, 2, 0])

        acc = evaluate(Stub(), np.zeros((4, 1)), np.array([0, 1, 0, 0]))
        assert acc == 0.75

    def test_snapshot_restore_round_trip(self):
        model = DualSpikeNet(TINY, seed=0)
        snap = model.snapshot()
        for p in model.parameters():
            p.data += 1.0
        model.rate_emas()[0].initialized = True
        model.rate_emas()[0].value = 0.42
        model.load_state(*snap)
        for name, arr in model.state_tensors():
            np.testing.assert_array_equal(arr, snap[0][name])
        assert not model.rate_emas()[0].initialized

    def test_two_epoch_run(self, tmp_path):
        model = DualSpikeNet(TINY, seed=0)
        train_ds = generate_split(TINY_DATA, 24, "train")
        eval_ds = generate_split(TINY_DATA, 12, "test")
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0)
        log = tmp_path / "log.jsonl"
        ckpt = tmp_path / "model.dskc"
        result = train(model, train_ds, cfg, eval_ds=eval_ds, log_path=log, checkpoint_path=ckpt)

        assert result.epochs_run == 2
        assert not result.diverged and not result.stopped_early
        assert 0.0 <= result.train_accuracy <= 1.0
        assert 0.0 <= result.eval_accuracy <= 1.0

        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert [r["record"] for r in records] == ["epoch", "epoch", "final"]
        assert records == result.history
        for r in records[:2]:
            assert np.isfinite(r["loss"])
            assert 0.0 <= r["rate_min"] <= r["rate_mean"] <= r["rate_max"] <= 1.0

        clone = load_checkpoint(ckpt)
        np.testing.assert_array_equal(clone.predict(eval_ds.images), model.predict(eval_ds.images))

    def test_divergence_restores_last_finished_epoch(self, monkeypatch):
        """A non-finite loss mid-epoch 2 aborts and rolls back that epoch's steps."""
        model = DualSpikeNet(TINY, seed=0)
        real_iter, real_loss = training.iter_batches, training.cross_entropy
        after_epoch1 = {}
        calls = {"epochs": 0, "losses": 0}

        def iter_batches(*args):
            calls["epochs"] += 1
            if calls["epochs"] == 2:
                after_epoch1["tensors"] = {n: a.copy() for n, a in model.state_tensors()}
                after_epoch1["emas"] = [(e.initialized, e.value) for e in model.rate_emas()]
            return real_iter(*args)

        def cross_entropy(logits, labels):
            calls["losses"] += 1
            if calls["losses"] == 4:  # second step of epoch 2, after one epoch-2 update
                return Tensor(np.array(np.nan))
            return real_loss(logits, labels)

        monkeypatch.setattr(training, "iter_batches", iter_batches)
        monkeypatch.setattr(training, "cross_entropy", cross_entropy)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=0)
        result = train(model, generate_split(TINY_DATA, 16, "train"), cfg)

        assert [r["record"] for r in result.history] == ["epoch", "abort", "final"]
        assert result.diverged and result.epochs_run == 1
        state = dict(model.state_tensors())
        assert state.keys() == after_epoch1["tensors"].keys()
        for name, arr in after_epoch1["tensors"].items():
            np.testing.assert_array_equal(state[name], arr, err_msg=name)
        assert [(e.initialized, e.value) for e in model.rate_emas()] == after_epoch1["emas"]

    def test_early_stop_evaluates_the_train_split_once(self, monkeypatch):
        # the frozen accuracy that stops the run is its final train accuracy: eval mode changes no state
        calls = []

        def counting_evaluate(*args):
            calls.append(evaluate(*args))
            return calls[-1]

        monkeypatch.setattr(training, "evaluate", counting_evaluate)
        model = DualSpikeNet(TINY, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=0, target_train_acc=0.0)
        result = train(model, generate_split(TINY_DATA, 16, "train"), cfg)
        assert result.stopped_early and result.epochs_run == 1
        assert len(calls) == 1 and result.train_accuracy == calls[0]
        assert result.history[-1]["train_acc"] == calls[0]

    def test_training_is_deterministic(self):
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=3)
        histories = []
        for _ in range(2):
            model = DualSpikeNet(TINY, seed=1)
            result = train(model, generate_split(TINY_DATA, 16, "train"), cfg)
            histories.append(result.history)
        assert histories[0] == histories[1]

    def test_untrained_nano_scores_at_chance(self):
        model = build("Nano", seed=3)
        ds = generate_split(SyntheticSpec(seed=0), 160, "test")
        acc = evaluate(model, ds.images, ds.labels)
        assert 0.02 <= acc <= 0.18  # 3 sigma around 1/10 for 160 balanced draws

    def test_train_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=1e-3, lr_min=1e-2)
        with pytest.raises(ConfigError):
            TrainConfig(weight_decay=-0.1)


FD_STEP = 1e-5  # train-mode BN's curvature needs a finer central difference than gradcheck's 1e-3
FD_COORDS = 100


def two_stage_config(pool: bool) -> ModelConfig:
    return ModelConfig(
        input_height=16,
        input_width=16,
        num_classes=3,
        time_steps=2,
        stem=StemSpec(kernel=3, stride=1, padding=1, pool=pool),
        stages=(
            StageSpec(d=8, heads=2, p=2, expansion=2, group_width=8),
            StageSpec(d=16, heads=2, p=1, expansion=2, group_width=16),
        ),
    )


class TestTrainStepGradient:
    @pytest.mark.parametrize("pool", [False, True])
    def test_whole_network_gradient_matches_central_differences(self, monkeypatch, pool):
        # The gradient a training step uses: train-mode BN batch statistics, stem (and pool),
        # downsample, classifier and cross entropy, through backward(free_graph=True) as train()
        # calls it. Smooth spikes make the loss differentiable; the held rate EMAs make it a
        # function of the weights.
        model = DualSpikeNet(two_stage_config(pool), dtype=np.float64, seed=0)
        rng = np.random.default_rng(1)
        for state in model.bn_states():  # off the identity affine, so a backward that reads xhat must get it right
            state.gamma.data += 0.2 * rng.standard_normal(state.gamma.data.shape)
            state.beta.data += 0.2 * rng.standard_normal(state.beta.data.shape)
        images = rng.standard_normal((4, 3, 16, 16))
        labels = np.array([0, 1, 2, 1])
        ctx = RunContext(training=True, smooth=True)
        model.forward(images, ctx)  # seeds the rate EMAs, which MOMENTUM = 1 then holds
        monkeypatch.setattr(FiringRateEMA, "MOMENTUM", 1.0)
        monkeypatch.setattr(verification, "_FD_STEP", FD_STEP)
        monkeypatch.setattr(verification, "backward", functools.partial(backward, free_graph=True))
        report = verification.gradcheck(
            lambda: cross_entropy(model.forward(images, ctx), labels), model.parameters(), coords=FD_COORDS, seed=1
        )
        assert report.passed, report.failures


def float_spike_lif(sn_forward):
    """Reference oracle: the LIF layer with its spikes handed on as floats of the current's dtype, as
    every consumer took them before spikes were one byte. The rate EMAs then take the float mean."""

    def lif(current, neuron, smooth=False):
        out = sn_forward(current, neuron, smooth=smooth)
        if smooth:
            return out
        return make_node(out.data.astype(current.data.dtype), (out,), lambda g: (g,))

    return lif


def nano_steps(batch, steps):
    """Logits, loss, every gradient and the rate EMAs of `steps` AdamW steps of a Nano at `batch`."""
    net = build("Nano", seed=0)
    opt = AdamW(net.parameters())
    rng = np.random.default_rng(batch)
    ctx = RunContext(training=True)
    arrays = []
    for _ in range(steps):
        images = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
        labels = rng.integers(0, 10, batch)
        opt.zero_grad()
        logits = net.forward(images, ctx)
        loss = cross_entropy(logits, labels)
        arrays += [logits.data, loss.data]
        backward(loss, free_graph=True)
        arrays += [p.grad.copy() for p in net.parameters()]
        arrays.append(np.array([e.value for e in net.rate_emas()]))
        opt.step()
    return arrays


class TestOneByteSpikeBits:
    @pytest.mark.parametrize("batch, steps", [(5, 3), (16, 1)])
    def test_train_steps_equal_the_float_spike_oracle(self, monkeypatch, batch, steps):
        # At batch 5 the spike arrays hold no power-of-two count of elements, so a batch rate that
        # reduced the one-byte spikes in float64 would round differently from the float32 mean
        got = nano_steps(batch, steps)
        for owner in (layers, attention):
            monkeypatch.setattr(owner, "sn_forward", float_spike_lif(owner.sn_forward))
        want = nano_steps(batch, steps)
        assert len(got) == len(want) == steps * (3 + len(build("Nano").parameters()))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
