"""Network assembly: registry, parameter budget, spatial plan, checkpoints."""

import struct
import threading
import time
import zlib

import numpy as np
import pytest
from conftest import calibrated_nano, race, workers

from dualspike import parallel
from dualspike import tensor as tensor_module
from dualspike.config import REGISTRY, ModelConfig, StageSpec, StemSpec, canonical_model_text, registry_config
from dualspike.data import SyntheticSpec, generate_split
from dualspike.layers import RunContext
from dualspike.model import (
    DualSpikeNet,
    build,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    serialize_checkpoint,
)
from dualspike.tensor import CheckpointError, ConfigError, ContractError, ShapeError, Tensor, no_grad


def closed_form_params(cfg: ModelConfig) -> int:
    """Independent parameter budget, summed term by term."""
    d0 = cfg.stages[0].d
    total = cfg.in_channels * d0 * cfg.stem.kernel**2 + 2 * d0
    for i, s in enumerate(cfg.stages):
        if i > 0:
            total += cfg.stages[i - 1].d * s.d * 9 + 2 * s.d
        hidden = s.d * s.expansion
        attn = s.d * s.d * (2 * s.p**2 + 1) + 6 * s.d
        ffn = 2 * s.d * hidden + hidden * s.group_width * 9 + 4 * hidden + 2 * s.d
        total += s.blocks * (attn + ffn)
    total += cfg.stages[-1].d * cfg.num_classes + cfg.num_classes
    return total


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


class TestRegistry:
    def test_variant_table(self):
        rows = {
            "Ti": ((64, 192, 384), (1, 3, 6)),
            "S": ((64, 256, 512), (1, 4, 8)),
            "M": ((64, 384, 768), (1, 6, 12)),
            "L": ((128, 512, 1024), (1, 8, 16)),
        }
        for arch, (widths, heads) in rows.items():
            cfg = registry_config(arch)
            assert tuple(s.d for s in cfg.stages) == widths
            assert tuple(s.heads for s in cfg.stages) == heads
            assert tuple(s.p for s in cfg.stages) == (4, 2, 1)
            assert tuple(s.blocks for s in cfg.stages) == (1, 2, 3)
            assert all(s.expansion == 4 and s.group_width == 64 for s in cfg.stages)
            assert cfg.num_classes == 1000 and cfg.time_steps == 4

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            registry_config("XL")

    def test_parameter_budgets(self):
        expected = {
            "Ti": 11_181_992,
            "S": 17_814_824,
            "M": 35_602_472,
            "L": 60_376_680,
            "Nano": 908_074,
        }
        for arch, count in expected.items():
            assert closed_form_params(REGISTRY[arch]) == count, arch

    def test_built_models_match_closed_form(self):
        for arch in ("Nano", "Ti"):
            model = build(arch)
            assert model.param_count() == closed_form_params(REGISTRY[arch]), arch

    def test_spatial_plan(self):
        assert build("Ti").stage_sizes == [(56, 56), (28, 28), (14, 14)]
        assert build("Nano").stage_sizes == [(32, 32), (16, 16), (8, 8)]

    def test_patch_must_divide_feature_map(self):
        bad = ModelConfig(
            name="bad",
            input_height=10,
            input_width=10,
            num_classes=10,
            stem=StemSpec(kernel=3, stride=1, padding=1, pool=False),
            stages=(StageSpec(d=8, heads=1, p=4, expansion=8, group_width=64),),
        )
        with pytest.raises(ConfigError):
            DualSpikeNet(bad)

    def test_build_determinism(self):
        a, b = build("Nano", seed=5), build("Nano", seed=5)
        for (na, pa), (nb, pb) in zip(a.state_tensors(), b.state_tensors()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
        c = build("Nano", seed=6)
        assert any(
            not np.array_equal(pa, pc)
            for (_, pa), (_, pc) in zip(a.state_tensors(), c.state_tensors())
        )


class TestForwardSurface:
    def test_encode_replicates_time_axis(self, rng):
        model = DualSpikeNet(TINY, seed=1)
        imgs = rng.standard_normal((3, 2, 8, 8)).astype(np.float32)
        enc = model.encode(imgs)
        assert enc.data.shape == (2, 3, 2, 8, 8)
        np.testing.assert_array_equal(enc.data[0], enc.data[1])

    def test_encode_shape_contract(self, rng):
        model = DualSpikeNet(TINY, seed=1)
        with pytest.raises(ShapeError):
            model.encode(rng.standard_normal((3, 2, 8, 7)).astype(np.float32))
        with pytest.raises(ShapeError):
            model.encode(rng.standard_normal((2, 8, 8)).astype(np.float32))

    def test_logit_shape_and_predict(self, rng):
        model = DualSpikeNet(TINY, seed=1)
        imgs = rng.standard_normal((5, 2, 8, 8)).astype(np.float32)
        logits = model.forward(imgs, RunContext(training=False))
        assert logits.data.shape == (5, 3)
        preds = model.predict(imgs, batch_size=2)
        np.testing.assert_array_equal(preds, np.argmax(logits.data, axis=1))

    def test_predict_leaves_the_allocator_alone(self, rng, monkeypatch):
        # the malloc setting belongs to processes that train; eval never frees a graph
        calls = []
        monkeypatch.setattr(tensor_module, "_keep_freed_memory", lambda: calls.append(1))
        model = DualSpikeNet(TINY, seed=1)
        model.predict(rng.standard_normal((5, 2, 8, 8)).astype(np.float32), batch_size=2)
        assert calls == []

    def test_predict_empty(self):
        model = DualSpikeNet(TINY, seed=1)
        assert model.predict(np.empty((0, 2, 8, 8), dtype=np.float32)).shape == (0,)

    def test_forward_rejects_an_empty_batch(self):
        # it used to reach the offset-path conv and divide by its zero chunk count
        model = build("Nano", seed=0)
        with pytest.raises(ShapeError, match=r"empty batch of shape \(0, 3, 32, 32\)"):
            model.forward(np.empty((0, 3, 32, 32), dtype=np.float32), RunContext(training=False))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_predict_batch_size_must_be_positive(self, rng, batch_size):
        model = DualSpikeNet(TINY, seed=1)
        imgs = rng.standard_normal((3, 2, 8, 8)).astype(np.float32)
        with pytest.raises(ContractError, match="batch size"):
            model.predict(imgs, batch_size=batch_size)


def recorded_predict(model, images, batch_size):
    """`predict`'s classes, the logits of each forward it made in image order, and the ids of the threads that ran them.

    Workers may finish their chunks in any order, so each forward is placed by the row of `images` its input starts at.
    """
    forwards, forward = [], model.forward

    def recording(x, ctx=None):
        out = forward(x, ctx)
        first = next(i for i in range(len(images)) if np.array_equal(images[i : i + len(x)], x))
        forwards.append((first, out.data, threading.get_ident()))
        return out

    model.forward = recording
    try:
        classes = model.predict(images, batch_size=batch_size)
    finally:
        del model.forward
    forwards.sort(key=lambda f: f[0])
    return classes, [logits for _, logits, _ in forwards], {thread for _, _, thread in forwards}


def bundled_openblas():
    """Whether NumPy was built against the scipy-openblas wheel, whose thread count `predict` pins."""
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].startswith("scipy-openblas")


class TestChunkedPredict:
    """`predict` forwards each caller batch in chunks of 2-3 images; the bits must not move."""

    @pytest.mark.parametrize("make", [lambda: calibrated_nano(0), lambda: build("Nano", seed=3)],
                             ids=["calibrated", "fresh"])
    def test_chunked_logits_equal_whole_batch_forward(self, make):
        # a fresh model's rate EMAs are uninitialized: eval attention then scales each image by its own rate
        model = make()
        images = generate_split(SyntheticSpec(seed=0, noise=0.3), 65, "test").images
        with no_grad():
            whole = model.forward(images, RunContext(training=False)).data
        for batch in (2, 3, 5, 8, 16, 32, 64, 65):
            classes, logits, _ = recorded_predict(model, images[:batch], batch)
            assert np.array_equal(np.concatenate(logits), whole[:batch]), batch
            assert np.array_equal(classes, np.argmax(whole[:batch], axis=1)), batch
            assert all(2 <= len(chunk) <= 3 for chunk in logits), (batch, [len(c) for c in logits])
        # one-image forwards round differently (OpenBLAS's small-matrix kernel) but keep the classes
        assert np.array_equal(model.predict(images, batch_size=1), np.argmax(whole, axis=1))

    def test_chunks_are_near_equal_larger_first(self):
        model = calibrated_nano(0)
        images = generate_split(SyntheticSpec(seed=0, noise=0.3), 7, "test").images
        for batch, sizes in ((5, [3, 2]), (7, [3, 2, 2])):
            _, logits, _ = recorded_predict(model, images[:batch], batch)
            assert [len(chunk) for chunk in logits] == sizes, batch


@pytest.mark.skipif(not bundled_openblas(), reason="NumPy is not built against the bundled scipy-openblas")
class TestThreadedPredict:
    """The chunks run on one thread per core with OpenBLAS pinned to one thread, and the count comes back."""

    IMAGES = generate_split(SyntheticSpec(seed=0, noise=0.3), 8, "test").images

    @pytest.fixture
    def two_cores(self, monkeypatch):
        # the pinned path is taken on a one-core machine too
        workers(monkeypatch, 2)

    def test_blas_thread_count_restored_after_return(self, two_cores):
        get_threads, _ = parallel._openblas_threads()
        before = get_threads()
        model, seen = calibrated_nano(0), []
        forward = model.forward

        def pinned(x, ctx=None):
            seen.append(get_threads())
            return forward(x, ctx)

        model.forward = pinned
        model.predict(self.IMAGES, batch_size=8)
        assert seen == [1] * 4
        assert get_threads() == before

    def test_blas_thread_count_restored_after_raise(self, two_cores):
        get_threads, _ = parallel._openblas_threads()
        before = get_threads()
        model, calls = calibrated_nano(0), []
        forward = model.forward

        def failing(x, ctx=None):
            calls.append(len(x))
            if len(calls) == 2:
                raise RuntimeError("forward failed")
            return forward(x, ctx)

        model.forward = failing
        with pytest.raises(RuntimeError, match="forward failed"):
            model.predict(self.IMAGES, batch_size=8)
        assert get_threads() == before

    def test_without_pin_chunks_run_in_calling_thread(self, two_cores, monkeypatch):
        model = calibrated_nano(0)
        threaded = model.predict(self.IMAGES, batch_size=8)
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: None)
        classes, logits, threads = recorded_predict(model, self.IMAGES, 8)
        assert threads == {threading.get_ident()}
        assert len(logits) == 4
        assert np.array_equal(classes, threaded)

    @staticmethod
    def indexing_model(slow_first=0.0):
        """A tiny net whose stub forward gives each image its index as its class.

        The chunk holding image 0 sleeps `slow_first` seconds first. Returns the net and 16 images.
        """
        model = DualSpikeNet(TINY, seed=1)

        def indexed(x, ctx=None):
            first = int(x[0, 0, 0, 0])
            if first == 0:
                time.sleep(slow_first)
            return Tensor(np.eye(16)[first : first + len(x)])

        model.forward = indexed
        return model, np.broadcast_to(np.arange(16.0)[:, None, None, None], (16, 2, 8, 8))

    def test_classes_in_image_order_whatever_order_chunks_finish(self, two_cores):
        model, images = self.indexing_model(slow_first=0.2)  # the first chunk finishes last
        assert np.array_equal(model.predict(images, batch_size=8), np.arange(16))

    def test_concurrent_predict_calls_restore_blas_thread_count(self, two_cores):
        # more callers than cores, switching threads often: an unguarded save/restore leaves the pin behind
        get_threads, _ = parallel._openblas_threads()
        before = get_threads()
        model, images = self.indexing_model()
        results = []

        def caller():
            for _ in range(20):
                results.append(model.predict(images, batch_size=8))

        race(caller)
        assert len(results) == 80 and all(np.array_equal(r, np.arange(16)) for r in results)
        assert get_threads() == before

    @pytest.mark.skipif(parallel._usable_cores() < 2, reason="needs two usable cores")
    def test_chunks_run_on_several_threads(self):
        # a silent fall-back to the calling thread fails here
        _, logits, threads = recorded_predict(calibrated_nano(0), self.IMAGES, 8)
        assert len(logits) == 4
        assert len(threads) >= 2 and threading.get_ident() not in threads


def trained_tiny(rng, seed=2, dtype=np.float32):
    """Tiny net with moved BN stats and seeded rate EMAs."""
    model = DualSpikeNet(TINY, seed=seed, dtype=dtype)
    imgs = rng.standard_normal((4, 2, 8, 8)).astype(np.float32) * 2
    model.forward(imgs, RunContext(training=True))
    return model, imgs


class TestCheckpoint:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        model, imgs = trained_tiny(rng)
        path = tmp_path / "m.dskc"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        for (na, a), (nb, b) in zip(model.state_tensors(), clone.state_tensors()):
            assert na == nb
            np.testing.assert_array_equal(a, b)
        for ea, eb in zip(model.rate_emas(), clone.rate_emas()):
            assert (ea.name, ea.initialized, ea.value) == (eb.name, eb.initialized, eb.value)
        np.testing.assert_array_equal(model.predict(imgs), clone.predict(imgs))

    def test_float64_round_trip_keeps_dtype(self, rng, tmp_path):
        model, imgs = trained_tiny(rng, dtype=np.float64)
        path = tmp_path / "m64.dskc"
        save_checkpoint(model, path)
        clone = load_checkpoint(path)
        assert clone.dtype == np.float64
        for (na, a), (nb, b) in zip(model.state_tensors(), clone.state_tensors()):
            assert na == nb and b.dtype == np.float64
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(model.predict(imgs), clone.predict(imgs))

    def test_mixed_dtypes_rejected(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        first = model.parameters()[0]
        first.data = first.data.astype(np.float64)
        path = tmp_path / "mixed.dskc"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="one tensor dtype"):
            load_checkpoint(path)

    def test_serialization_deterministic(self, rng):
        model, _ = trained_tiny(rng)
        assert serialize_checkpoint(model) == serialize_checkpoint(model)

    def test_config_echo_round_trip(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        path = tmp_path / "m.dskc"
        save_checkpoint(model, path)
        cfg_text, _, emas = read_checkpoint(path)
        assert "stages = 8:2:2:8:64:1" in cfg_text
        assert canonical_model_text(load_checkpoint(path).config) == canonical_model_text(TINY) == cfg_text
        assert len(emas) == 2

    def test_bad_magic(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        blob = serialize_checkpoint(model)
        path = tmp_path / "m.dskc"
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_bit_flip_detected(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        blob = bytearray(serialize_checkpoint(model))
        blob[len(blob) // 2] ^= 0x40
        path = tmp_path / "m.dskc"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            read_checkpoint(path)

    def test_truncation_detected(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        body = serialize_checkpoint(model)[:-24]
        path = tmp_path / "m.dskc"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="truncate"):
            read_checkpoint(path)

    def test_unsupported_version(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        body = bytearray(serialize_checkpoint(model)[:-4])
        body[4:8] = struct.pack("<I", 99)
        path = tmp_path / "m.dskc"
        path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="version 99"):
            read_checkpoint(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        model, _ = trained_tiny(rng)
        body = serialize_checkpoint(model)[:-4] + b"\x00" * 8
        path = tmp_path / "m.dskc"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
        with pytest.raises(CheckpointError, match="trailing"):
            read_checkpoint(path)

    def test_load_state_name_mismatch(self):
        model = DualSpikeNet(TINY, seed=0)
        with pytest.raises(CheckpointError, match="mismatch"):
            model.load_state({}, {})

    @pytest.mark.parametrize("fault", ["parameter_shape", "bn_shape", "emas", "ema_value"])
    def test_failed_load_state_changes_nothing(self, rng, fault):
        # each fault sits in the last entry of its kind, checked after the others would have been written
        model, _ = trained_tiny(rng)
        before = model.snapshot()
        tensors, emas = trained_tiny(rng, seed=3)[0].snapshot()
        if fault == "emas":
            emas.pop(next(reversed(emas)))
        elif fault == "ema_value":
            emas[next(reversed(emas))] = (True, 2.0)
        else:
            name = model.parameters()[-1].name if fault == "parameter_shape" else next(reversed(tensors))
            tensors[name] = np.zeros(tensors[name].size + 1, dtype=tensors[name].dtype)
        with pytest.raises(CheckpointError):
            model.load_state(tensors, emas)
        after = model.snapshot()
        assert list(after[0]) == list(before[0])
        for name, arr in before[0].items():
            assert after[0][name].dtype == arr.dtype and after[0][name].tobytes() == arr.tobytes(), name
        assert after[1] == before[1]
