"""Operation counting, the 0.9 pJ/SOP energy model, event-driven equivalence."""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualspike import attention, audit, layers, parallel, tensor
from dualspike.data import SyntheticSpec, generate_split
from dualspike.audit import (
    ENERGY_PER_SOP_PJ,
    AuditTrace,
    LayerTrace,
    _conv_sops,
    _dst_sops,
    _dst_t_sops,
    _linear_sops,
    audit_model,
    estimate_energy,
    verify_spike_driven,
)
from dualspike.layers import Conv2d, Linear
from dualspike.model import build
from dualspike.tensor import ContractError, ShapeError, SpikeTensor

from conftest import calibrated_nano, race, workers


def conv_record(spikes, conv):
    return LayerTrace("probe", "conv", np.asarray(spikes, dtype=bool), conv=conv)


def make_conv(cin, cout, k, stride=1, padding=0, groups=1):
    rng = np.random.default_rng(0)
    return Conv2d("probe", cin, cout, k, stride=stride, padding=padding, groups=groups, rng=rng, dtype=np.float64)


class TestEnergyModel:
    def test_constant(self):
        assert ENERGY_PER_SOP_PJ == 0.9
        assert estimate_energy(1.0) == 0.9
        assert estimate_energy(0.0) == 0.0

    def test_linearity(self):
        np.testing.assert_allclose(
            estimate_energy(2.73) + estimate_energy(1.11), estimate_energy(3.84)
        )

    def test_published_rows_within_rounding(self):
        # SOP counts already rounded to 2 decimals upstream, so the recomputed
        # energy may differ from the published figure by one final-digit unit
        rows = [(2.73, 2.46), (3.74, 3.37), (6.07, 5.46), (9.74, 8.76)]
        for gsops, mj in rows:
            assert abs(estimate_energy(gsops) - mj) <= 0.01, (gsops, mj)

    def test_rejects_bad_input(self):
        with pytest.raises(ContractError):
            estimate_energy(-1.0)
        with pytest.raises(ContractError):
            estimate_energy(float("nan"))


class TestSOPCounting:
    def test_silent_conv_is_free(self):
        conv = make_conv(3, 4, 3, padding=1)
        assert _conv_sops(conv_record(np.zeros((2, 3, 8, 8)), conv)) == 0

    def test_single_spike_interior_fan_out(self):
        # interior spike is read by all 9 windows of a padded 3x3 conv,
        # each accumulating into 7 output channels
        conv = make_conv(1, 7, 3, padding=1)
        spikes = np.zeros((1, 1, 5, 5))
        spikes[0, 0, 2, 2] = 1
        assert _conv_sops(conv_record(spikes, conv)) == 9 * 7

    def test_single_spike_corner_fan_out(self):
        conv = make_conv(1, 7, 3, padding=1)
        spikes = np.zeros((1, 1, 5, 5))
        spikes[0, 0, 0, 0] = 1
        assert _conv_sops(conv_record(spikes, conv)) == 4 * 7

    def test_grouped_conv_fan_out(self):
        # with 2 groups a spike only feeds its own group's 3 output channels
        conv = make_conv(2, 6, 1, groups=2)
        spikes = np.zeros((1, 2, 4, 4))
        spikes[0, 1, 1, 1] = 1
        assert _conv_sops(conv_record(spikes, conv)) == 3

    def test_linear_is_nnz_times_fan_out(self, rng):
        fc = Linear("fc", 6, 10, rng=rng, dtype=np.float64)
        spikes = (rng.random((2, 3, 6, 2, 2)) < 0.4).astype(bool)
        rec = LayerTrace("cls", "linear", spikes, fc=fc)
        assert _linear_sops(rec) == int(spikes.sum()) * 10

    def test_dst_t_pairs_factorize(self):
        spikes = np.zeros((2, 1, 2, 2, 2), dtype=bool)
        spikes[0].flat[[0, 3, 5]] = True  # 3 spikes
        spikes[1].flat[[0, 1, 2, 4, 7]] = True  # 5 spikes
        rec = LayerTrace("attn", "dst_t", spikes)
        assert _dst_t_sops(rec) == 3 * 3 + 5 * 5

    # d = 2 on a 4x4 map with p = 2: four patches holding 3, 0, 2 and 1 input spikes
    @pytest.mark.parametrize("heads, columns, sops", [
        (1, [[2, 1, 0, 1]], (2 * 3 + 1 * 0 + 0 * 2 + 1 * 1) * 2),
        (2, [[2, 1, 0, 1], [0, 3, 1, 0]], (2 * 3 + 1 * 0 + 0 * 2 + 1 * 1 + 0 * 3 + 3 * 0 + 1 * 2 + 0 * 1) * 1),
    ], ids=["one-head", "two-heads"])
    def test_dst_pair_count_hand_oracle(self, heads, columns, sops):
        # pairs = per head and patch, attention spikes in its column x input spikes in the patch; each adds d_head
        spikes = np.zeros((1, 1, 2, 4, 4), dtype=bool)
        for c, i, j in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 2, 0), (1, 3, 1), (0, 3, 3)]:
            spikes[0, 0, c, i, j] = True
        amap = np.zeros((1, 1, heads, 16, 4), dtype=bool)  # [T,B,h,HW,np]
        for h, counts in enumerate(columns):
            for token, n in enumerate(counts):
                amap[0, 0, h, :n, token] = True
        rec = LayerTrace("val", "dst", spikes, conv=make_conv(2, 2, 2, stride=2), amap=amap, heads=heads)
        assert _dst_sops(rec) == sops

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_more_spikes_never_fewer_sops(self, data):
        base = data.draw(st.integers(0, 2**16 - 1))
        extra = data.draw(st.integers(0, 2**16 - 1))
        a = np.array([(base >> i) & 1 for i in range(16)], dtype=bool)
        b = a | np.array([(extra >> i) & 1 for i in range(16)], dtype=bool)
        conv = make_conv(1, 3, 3, padding=1)
        sa = _conv_sops(conv_record(a.reshape(1, 1, 4, 4), conv))
        sb = _conv_sops(conv_record(b.reshape(1, 1, 4, 4), conv))
        assert sa <= sb
        ra = LayerTrace("t", "dst_t", a.reshape(1, 1, 1, 4, 4))
        rb = LayerTrace("t", "dst_t", b.reshape(1, 1, 1, 4, 4))
        assert _dst_t_sops(ra) <= _dst_t_sops(rb)


class TestTraceContract:
    def test_non_binary_spikes_rejected(self):
        trace = AuditTrace()
        with pytest.raises(ContractError, match="binary"):
            trace.record("x", "linear", np.array([0.5, 2.0, 0.0]), None)
        with pytest.raises(ContractError, match="binary"):
            trace.record("x", "conv", np.array([[1.0, np.nan]]), None)
        with pytest.raises(ContractError, match="binary"):
            trace.record("x", "dst", np.ones((1, 2)), None, amap=np.array([[0.0, 0.5]]))
        assert trace.records == []

    def test_binary_spikes_stored_as_bool(self):
        trace = AuditTrace()
        trace.record("x", "linear", np.array([1.0, 0.0, 1.0], dtype=np.float32), None)
        trace.record("y", "linear", np.array([True, False]), None)
        trace.record("z", "linear", SpikeTensor(np.array([0.0, 1.0])), None)
        assert [r.spikes.tolist() for r in trace.records] == [[True, False, True], [True, False], [False, True]]

    def test_one_byte_spikes_taken_as_a_view_without_a_scan(self):
        class Unscannable(np.ndarray):
            def __eq__(self, other):
                raise AssertionError("one-byte spikes were scanned")

        s = SpikeTensor(np.array([[0.0, 1.0, 1.0]]))
        s.data = s.data.view(Unscannable)
        out = AuditTrace()._bool(s)
        assert out.dtype == np.bool_ and np.shares_memory(out, s.data) and out.tolist() == [[False, True, True]]
        with pytest.raises(ContractError, match="binary"):  # a float operand is still scanned
            AuditTrace()._bool(np.array([0.0, 0.5], dtype=np.float32))


@pytest.fixture(scope="module")
def nano_report():
    model = build("Nano", seed=0)
    rng = np.random.default_rng(7)
    images = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
    return audit_model(model, images)


class TestAuditReport:
    def test_totals_are_row_sums(self, nano_report):
        assert nano_report.sops_total == sum(r["sops"] for r in nano_report.rows)
        assert nano_report.stem_macs_total == sum(r["macs"] for r in nano_report.rows)

    def test_per_image_scaling(self, nano_report):
        t = nano_report.totals_dict()
        assert t["sops_per_image"] == nano_report.sops_total / 2
        np.testing.assert_allclose(
            t["energy_mj_per_image"], t["sops_giga_per_image"] * 0.9
        )

    def test_row_contents(self, nano_report):
        kinds = {r["kind"] for r in nano_report.rows}
        assert kinds == {"stem", "conv", "linear", "dst_t", "dst"}
        for r in nano_report.rows:
            if r["kind"] == "stem":
                assert r["sops"] == 0 and r["macs"] > 0
            else:
                assert 0.0 <= r["rate"] <= 1.0
                assert r["spike_count"] <= r["numel"]
            if r["kind"] in ("dst_t", "dst"):
                assert "dropped_bias_l1" in r

    def test_jsonl_round_trips(self, nano_report):
        lines = nano_report.to_jsonl().strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert rows[-1]["record"] == "totals"
        assert len(rows) == len(nano_report.rows) + 1

    def test_fresh_model_sops_add_over_image_splits(self):
        # uninitialized rate EMAs: eval attention scales each image by its own rate, so no image's
        # spikes depend on the others audited with it
        model = build("Nano", seed=0)
        assert not any(e.initialized for e in model.rate_emas())
        images = generate_split(SyntheticSpec(seed=0, noise=0.3), 4, "test").images
        halves = [audit_model(model, images[i : i + 2]).sops_total for i in (0, 2)]
        assert audit_model(model, images).sops_total == sum(halves)

    def test_count_only_trace_keeps_no_currents(self, calibrated, monkeypatch):
        """audit_model's trace holds no layer's current, and counts the same as a trace that keeps them."""
        model, images = calibrated
        run_traced, traces = audit.run_traced, []

        def keep_trace(*args):
            traces.append(run_traced(*args))
            return traces[-1]

        monkeypatch.setattr(audit, "run_traced", keep_trace)
        report = audit_model(model, images)
        monkeypatch.setattr(audit, "run_traced", lambda m, x: keep_trace(m, x, AuditTrace(currents=True)))
        kept = audit_model(model, images)
        count_only, with_currents = traces
        assert all(rec.current is None for rec in count_only.records)
        assert all(rec.current is not None for rec in with_currents.records if rec.kind != "stem")
        assert report.rows == kept.rows and report.sops_total == kept.sops_total > 0


@pytest.fixture(scope="module")
def calibrated():
    model = calibrated_nano(3)
    images = np.random.default_rng(5).standard_normal((1, 3, 32, 32)).astype(np.float32)
    return model, images


def failed_layers(report):
    return [r["name"] for r in report.rows if not r["passed"]]


class TestEventDrivenEquivalence:
    def test_calibrated_nano_passes_with_every_layer_firing(self, calibrated):
        model, images = calibrated
        rows = audit_model(model, images).rows
        assert all(r["spike_count"] > 0 for r in rows if r["kind"] != "stem")
        report = verify_spike_driven(model, images, tolerance=1e-6)
        assert report.passed
        assert max(r["max_deviation"] for r in report.rows) <= 1e-6
        assert [(r["name"], r["kind"]) for r in report.rows] == [(r["name"], r["kind"]) for r in rows[1:]]
        assert all(r["spikes"] > 0 for r in report.rows)

    def test_scaled_conv_output_fails(self, calibrated, monkeypatch):
        model, images = calibrated
        forward = layers.Conv2d.forward
        monkeypatch.setattr(layers.Conv2d, "forward", lambda self, x: tensor.mul(forward(self, x), 1.5))
        report = verify_spike_driven(model, images)
        assert not report.passed
        # every layer behind a conv fails; the classifier's current is not a conv output
        assert failed_layers(report) == [r["name"] for r in report.rows if r["kind"] != "linear"]

    def test_zeroed_attention_head_fails(self, calibrated, monkeypatch):
        model, images = calibrated
        product = attention.matmul
        calls = []

        def zero_one_head(a, b):
            out = product(a, b)
            calls.append(out.data.shape)
            if len(calls) == 3:  # stage 2's score, after stage 1's score and value products
                data = out.data.copy()
                data[:, :, -1] = 0.0  # the last of its two heads
                return tensor.Tensor(data)
            return out

        monkeypatch.setattr(attention, "matmul", zero_one_head)
        report = verify_spike_driven(model, images)
        assert not report.passed
        assert failed_layers(report) == ["stage2.block0.attn.attn"]

    @pytest.mark.parametrize("wrong", ["eps", "bias"])
    def test_wrong_bn_fold_fails(self, calibrated, monkeypatch, wrong):
        model, images = calibrated
        fold = audit.fold_bn

        def wrong_fold(weight, state, training=False):
            if wrong == "bias":
                folded, bias = fold(weight, state)
                return folded, np.zeros_like(bias)
            scale = state.gamma.data / np.sqrt(state.running_var)
            return weight * scale[:, None, None, None], state.beta.data - state.running_mean * scale

        monkeypatch.setattr(audit, "fold_bn", wrong_fold)
        report = verify_spike_driven(model, images)
        assert not report.passed
        assert failed_layers(report) == [r["name"] for r in report.rows if r["kind"] != "linear"]

    def test_conv_and_linear_replay_adds_equal_sops(self, calibrated, monkeypatch):
        """The replay adds one table row of F floats per spike it gathers: count those scalar adds per
        record and hold them against the closed-form SOP count of the same (twin) trace."""
        model = calibrated[0]
        images = np.random.default_rng(6).standard_normal((2, 3, 32, 32)).astype(np.float32)
        traces, replaying, adds = [], [], {}
        run_traced, spike_rows = audit.run_traced, audit._spike_rows

        def keep_trace(*args):
            traces.append(run_traced(*args))
            return traces[-1]

        def count_adds(mask, table):
            adds[replaying[-1]] = adds.get(replaying[-1], 0) + int(np.count_nonzero(mask)) * table.shape[-1]
            return spike_rows(mask, table)

        monkeypatch.setattr(audit, "run_traced", keep_trace)
        monkeypatch.setattr(audit, "_spike_rows", count_adds)
        for kind, check in list(audit._CHECK_FNS.items()):
            monkeypatch.setitem(audit._CHECK_FNS, kind, lambda rec, check=check: replaying.append(rec.name) or check(rec))
        assert verify_spike_driven(model, images).passed
        (trace,) = traces
        records = [rec for rec in trace.records if rec.kind in ("conv", "linear")]
        assert {rec.kind for rec in records} == {"conv", "linear"}
        for rec in records:
            assert adds[rec.name] == audit._SOP_FNS[rec.kind](rec) > 0, rec.name

    def test_nano_passes(self):
        model = build("Nano", seed=1)
        rng = np.random.default_rng(11)
        images = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        report = verify_spike_driven(model, images, tolerance=1e-6)
        assert report.passed
        assert all(r["max_deviation"] <= 1e-6 for r in report.rows)
        kinds = {r["kind"] for r in report.rows}
        assert kinds == {"conv", "linear", "dst_t", "dst"}


def rank_pass_spike_rows(mask, table):
    """Reference oracle for `audit._spike_rows`: the rank-pass kernel it replaced, kept for its outputs.

    Pass j scatters every mask row's j-th spike into the result at once (`out[rows] += ...`), so each
    row sums its table rows one at a time, in column order, from zero.
    """
    r, k = mask.shape[-2:]
    f = table.shape[-1]
    rows, cols = np.divmod(np.flatnonzero(mask), k)
    picks = cols if table.ndim == 2 else rows // r * k + cols
    table = table.reshape(-1, f)
    out = np.zeros((mask.size // k, f), dtype=table.dtype)
    if rows.size:
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        rank = np.arange(rows.size) - np.repeat(first, np.diff(first, append=rows.size))
        order = np.argsort(rank, kind="stable")
        lo = 0
        for hi in np.cumsum(np.bincount(rank)):
            sel = order[lo:hi]
            out[rows[sel]] += table[picks[sel]]
            lo = hi
    return out.reshape(mask.shape[:-1] + (f,))


def spike_rows_case(case, rng):
    """(mask, float64 table) of one named case; tables span many magnitudes, so summation order shows in the bits."""
    lead = (2, 3, 2) if case == "leading-axes" else ()
    r, k, f = 37, 24, 5
    mask = rng.random(lead + (r, k)) < {"dense": 0.6}.get(case, 0.15)
    if case == "all-zero":
        mask[:] = False
    elif case == "silent-rows":
        mask[::3] = False
    elif case == "full-row":
        mask[5] = True
        mask[6, -1] = True
    table = rng.standard_normal(lead + (k, f)) * 10.0 ** rng.integers(-6, 7, lead + (k, f))
    return mask, table


class TestSpikeRowsKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["sparse", "dense", "all-zero", "silent-rows", "full-row", "leading-axes"])
    def test_bits_equal_the_rank_pass_oracle(self, case, dtype):
        rng = np.random.default_rng([ord(c) for c in case])
        for _ in range(5):
            mask, table = spike_rows_case(case, rng)
            table = table.astype(dtype)
            out = audit._spike_rows(mask, table)
            expected = rank_pass_spike_rows(mask, table)
            assert out.dtype == expected.dtype == dtype and out.shape == expected.shape == mask.shape[:-1] + (5,)
            assert out.tobytes() == expected.tobytes(), case
        if case == "full-row":  # all K of row 5 summed one at a time, in column order
            row = np.zeros(5, dtype=dtype)
            for c in range(table.shape[0]):
                row += table[c]
            assert audit._spike_rows(mask, table)[5].tobytes() == row.tobytes()

    def test_strided_window_mask(self, rng):
        # `_event_conv` hands the kernel a strided channels-last window view of the padded spikes
        padded = rng.random((2, 9, 9, 6)) < 0.3
        window = padded[:, 1:8:2, 0:7:2, 2:5]
        table = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-6, 7, (3, 4))
        assert not window.flags.c_contiguous
        assert audit._spike_rows(window, table).tobytes() == rank_pass_spike_rows(window, table).tobytes()


class TestFloat64Twin:
    """The equivalence check's float64 twin is the model's own state, converted; no weights are drawn."""

    def loaded_twin(self, model):
        twin = build(model.config, dtype=np.float64)
        twin.load_state(*model.snapshot())
        return twin

    def test_state_equals_a_built_and_loaded_twin(self, calibrated):
        model = calibrated[0]
        twin, want = model.astype(np.float64), self.loaded_twin(model)
        assert twin.dtype == np.float64
        for (name, a), (name_b, b), (_, own) in zip(twin.state_tensors(), want.state_tensors(), model.state_tensors()):
            assert name == name_b and a.dtype == b.dtype == np.float64 and np.array_equal(a, b)
            assert not np.shares_memory(a, own)
        assert [(e.name, e.initialized, e.value, e.dtype) for e in twin.rate_emas()] == [
            (e.name, e.initialized, e.value, e.dtype) for e in want.rate_emas()]
        assert all(p.grad.dtype == np.float64 and not p.grad.any() for p in twin.parameters())

    def test_equivalence_rows_equal_those_of_a_built_and_loaded_twin(self, calibrated, monkeypatch):
        model, images = calibrated
        rows = verify_spike_driven(model, images).rows
        monkeypatch.setattr(type(model), "astype", lambda m, dtype: self.loaded_twin(m))
        assert json.dumps(rows) == json.dumps(verify_spike_driven(model, images).rows)


class TestEmptyBatch:
    EMPTY = np.empty((0, 3, 32, 32), dtype=np.float32)

    def test_audit_rejects_an_empty_batch(self):
        with pytest.raises(ShapeError, match=r"empty batch of shape \(0, 3, 32, 32\)"):
            audit_model(build("Nano", seed=0), self.EMPTY)

    def test_equivalence_check_rejects_an_empty_batch(self):
        with pytest.raises(ShapeError, match=r"empty batch of shape \(0, 3, 32, 32\)"):
            verify_spike_driven(build("Nano", seed=0), self.EMPTY)


@pytest.fixture(scope="module")
def fresh_and_calibrated(calibrated):
    return {"fresh": build("Nano", seed=0), "calibrated": calibrated[0]}


class TestThreadedAudit:
    """The audit's chunks and the replay's layers run on threads; the rows are those of one thread."""

    IMAGES = generate_split(SyntheticSpec(seed=0, noise=0.3), 5, "test").images

    @pytest.mark.parametrize("batch", [1, 4, 5])
    @pytest.mark.parametrize("which", ["fresh", "calibrated"])
    def test_rows_equal_at_one_and_two_cores(self, fresh_and_calibrated, monkeypatch, which, batch):
        model, images = fresh_and_calibrated[which], self.IMAGES[:batch]
        out = {}
        for n in (1, 2):
            workers(monkeypatch, n)
            report = audit_model(model, images)
            out[n] = report.rows, report.to_jsonl(), verify_spike_driven(model, images).rows
        assert out[1][0] == out[2][0]
        assert out[1][1] == out[2][1]
        assert json.dumps(out[1][2]) == json.dumps(out[2][2])
        assert [r["name"] for r in out[2][2]] == [r["name"] for r in out[2][0][1:]]

    def test_chunk_counts_sum_to_one_whole_batch_trace(self, calibrated, monkeypatch):
        # 5 images trace as 3 + 2; one count-only trace of all 5 counts the same
        workers(monkeypatch, 2)
        model = calibrated[0]
        whole = audit.run_traced(model, self.IMAGES)
        report = audit_model(model, self.IMAGES)
        assert [r["name"] for r in report.rows] == [rec.name for rec in whole.records]
        for row, rec in zip(report.rows, whole.records):
            assert row["numel"] == rec.spikes.size
            if rec.kind != "stem":
                assert row["sops"] == audit._SOP_FNS[rec.kind](rec) and row["spike_count"] == rec.spikes.sum()

    def test_scaled_conv_output_fails_the_same_layers_at_two_cores(self, calibrated, monkeypatch):
        model, images = calibrated
        forward = layers.Conv2d.forward
        monkeypatch.setattr(layers.Conv2d, "forward", lambda self, x: tensor.mul(forward(self, x), 1.5))
        reports = {}
        for n in (1, 2):
            workers(monkeypatch, n)
            reports[n] = verify_spike_driven(model, images)
        assert not reports[2].passed
        assert failed_layers(reports[2]) == failed_layers(reports[1]) == [
            r["name"] for r in reports[2].rows if r["kind"] != "linear"]

    def test_concurrent_audits_count_alike_and_restore_blas_threads(self, calibrated, monkeypatch):
        # more callers than cores, switching threads often: each audit's chunk traces stay its own
        model, images = calibrated[0], self.IMAGES[:4]
        expected = audit_model(model, images).to_jsonl()
        workers(monkeypatch, 2)
        blas = parallel._openblas_threads()
        before = blas and blas[0]()
        results = []
        race(lambda: results.extend(audit_model(model, images).to_jsonl() for _ in range(2)))
        assert results == [expected] * 8
        assert (blas and blas[0]()) == before

    @pytest.mark.skipif(parallel._usable_cores() < 2 or parallel._openblas_threads() is None,
                        reason="needs two usable cores and NumPy's bundled OpenBLAS")
    def test_chunks_and_replay_run_on_several_threads(self, calibrated, monkeypatch):
        # a silent fall-back to the calling thread fails here
        model = calibrated[0]
        seen = {"trace": set(), "replay": set()}
        run_traced, spike_rows = audit.run_traced, audit._spike_rows

        def traced(*args):
            seen["trace"].add(threading.get_ident())
            return run_traced(*args)

        def replayed(mask, table):
            seen["replay"].add(threading.get_ident())
            return spike_rows(mask, table)

        monkeypatch.setattr(audit, "run_traced", traced)
        audit_model(model, self.IMAGES[:4])
        monkeypatch.setattr(audit, "run_traced", run_traced)  # the twin's one forward runs in this thread
        monkeypatch.setattr(audit, "_spike_rows", replayed)
        verify_spike_driven(model, self.IMAGES[:2])
        for where, threads in seen.items():
            assert len(threads) >= 2 and threading.get_ident() not in threads, where
