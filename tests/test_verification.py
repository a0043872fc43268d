"""Monte Carlo moment checks, conv-token equivalence, gradient checking."""

import json
import os
import threading

import numpy as np
import pytest
from conftest import in_fresh_process, workers

from dualspike import parallel, verification
from dualspike.attention import dst_scale
from dualspike.layers import Linear
from dualspike.tensor import ContractError, ShapeError, Tensor, mul, tensor_mean as tmean
from dualspike.verification import (
    MCReport,
    _dst_mc,
    build_block_fragment,
    conv_equiv,
    gradcheck,
    registry_patch_cases,
    run_suites,
    sdsa_moments_mc,
    sdsa_scaled_variance,
    SUITES,
    suite_conv_equiv,
)


class TestMCReportGates:
    def base(self, **kw):
        args = dict(samples=1000, mean=0.01, mean_stderr=0.01, variance=1.04,
                    predicted_mean=0.0, predicted_variance=1.0)
        args.update(kw)
        return MCReport(**args)

    def test_pass(self):
        assert self.base().passed

    def test_mean_gate_is_three_stderr(self):
        assert self.base(mean=0.03).mean_ok
        assert not self.base(mean=0.031).mean_ok

    def test_variance_gate_is_relative(self):
        assert self.base(variance=1.049).variance_ok
        assert not self.base(variance=1.051).variance_ok
        assert self.base(variance=1.09, variance_rtol=0.1).variance_ok


def law(f_x, m, transposed=False):
    """The moment-law reading of `_dst_mc`: rate f_x, scale 1, predicted variance f_x * m within 5%."""
    return (f_x, transposed, 1.0, f_x * m, 0.05)


def post_scale(rate, fan_in):
    """The post-scale reading of `_dst_mc`: scaled by dst_scale, predicted variance 1 within 10%."""
    return (rate, False, dst_scale(rate, fan_in), 1.0, 0.1)


class TestMomentLaw:
    def test_standard_form(self):
        (rep,) = _dst_mc(256, [law(0.3, 256)], samples=80_000, seed=0)
        assert rep.predicted_mean == 0.0
        assert rep.predicted_variance == pytest.approx(76.8)
        assert rep.passed, rep.as_dict()

    def test_transposed_form(self):
        (rep,) = _dst_mc(256, [law(0.3, 256, transposed=True)], samples=80_000, seed=1)
        assert rep.passed, rep.as_dict()

    def test_degenerate_rate_rejected(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ContractError):
                _dst_mc(64, [law(bad, 64)], samples=100_000, seed=0)

    def test_bad_plan_rejected(self):
        with pytest.raises(ContractError):
            _dst_mc(64, [law(0.5, 64)], samples=4, seed=0)

    def test_jobs_do_not_change_results(self):
        (a,) = _dst_mc(64, [law(0.2, 64)], samples=40_000, seed=3, jobs=1)
        (b,) = _dst_mc(64, [law(0.2, 64)], samples=40_000, seed=3, jobs=4)
        assert (a.mean, a.variance, a.mean_stderr) == (b.mean, b.variance, b.mean_stderr)

    def test_seed_changes_samples(self):
        (a,) = _dst_mc(64, [law(0.2, 64)], samples=40_000, seed=3)
        (b,) = _dst_mc(64, [law(0.2, 64)], samples=40_000, seed=4)
        assert a.mean != b.mean


class TestJobsContract:
    @pytest.fixture
    def no_streams(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("seed streams were run")

        monkeypatch.setattr(parallel, "run", refuse)

    @pytest.mark.parametrize("jobs", [0, -1, 17])
    def test_out_of_range_rejected_before_any_pool(self, no_streams, jobs):
        for suite in ("theorem1", "scaling", "sdsa"):
            with pytest.raises(ContractError, match="jobs"):
                run_suites([suite], samples=1_000, jobs=jobs)

    def test_bounds_accepted(self):
        assert verification.check_jobs(1) == 1
        assert verification.check_jobs(16) == 16


class TestSamplesContract:
    @pytest.mark.parametrize("samples", [0, 15])
    def test_too_few_rejected(self, samples):
        for sample in (
            lambda: _dst_mc(64, [law(0.2, 64)], samples=samples, seed=0),
            lambda: _dst_mc(64, [post_scale(0.2, 64)], samples=samples, seed=0),
            lambda: sdsa_moments_mc(0.2, 0.4, 49, samples=samples),
        ):
            with pytest.raises(ContractError, match="bad sampling plan"):
                sample()

    def test_floor_accepted(self):
        assert verification.check_samples(16) == 16
        assert _dst_mc(64, [post_scale(0.2, 64)], samples=16, seed=0)[0].samples >= 16
        assert sdsa_moments_mc(0.2, 0.4, 49, samples=16).samples == 16


class TestScaledVariance:
    def test_attention_scale_normalizes(self):
        (rep,) = _dst_mc(128, [post_scale(0.25, 128)], samples=80_000, seed=0)
        assert rep.predicted_variance == 1.0
        assert 0.9 <= rep.variance <= 1.1
        assert rep.passed

    def test_rate_contract(self):
        with pytest.raises(ContractError, match="non-degenerate"):
            _dst_mc(128, [(1.0, False, 1.0, 1.0, 0.1)], samples=100_000, seed=0)

    @pytest.mark.parametrize("verdict", [False, True])
    def test_scaled_rows_pass_on_variance_ok(self, monkeypatch, verdict):
        """A scaled row's verdict is its report's variance_ok, whatever the variance and the mean read."""
        monkeypatch.setattr(MCReport, "variance_ok", property(lambda self: verdict))
        rows = run_suites(["scaling", "sdsa"], samples=3_200)
        scaled = [r for r in rows if r["suite"] == "scaling" or r["case"]["scaled"]]
        assert len(scaled) == 6 and all(r["predicted_variance"] == 1.0 for r in scaled)
        assert all(r["passed"] is r["variance_ok"] is verdict for r in scaled)


class TestSpikeProductAttention:
    def test_raw_moments(self):
        rep = sdsa_moments_mc(0.5, 0.5, 64, samples=120_000, seed=0)
        assert rep.predicted_mean == pytest.approx(16.0)
        assert rep.predicted_variance == pytest.approx(12.0)
        assert rep.passed, rep.as_dict()

    def test_scaled_variance_near_one(self):
        rep = sdsa_scaled_variance(sdsa_moments_mc(0.2, 0.4, 196, samples=120_000, seed=0), 0.2, 0.4, 196)
        assert rep.predicted_variance == 1.0
        assert 0.9 <= rep.variance <= 1.1

    def test_jobs_deterministic(self):
        a = sdsa_moments_mc(0.3, 0.6, 49, samples=30_000, seed=5)
        b = sdsa_moments_mc(0.3, 0.6, 49, samples=30_000, seed=5, jobs=2)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_rate_contract(self):
        with pytest.raises(ContractError):
            sdsa_moments_mc(0.0, 0.5, 64)


class TestConvEquivalence:
    def test_reference_case(self, rng):
        inp = rng.standard_normal((8, 8, 3))
        kern = rng.standard_normal((2, 2, 5, 3))
        ok, dev = conv_equiv(inp, kern, stride=2)
        assert ok and dev <= 1e-6

    def test_negative_tolerance_always_fails(self, rng):
        inp = rng.standard_normal((4, 4, 2))
        kern = rng.standard_normal((2, 2, 2, 2))
        ok, _ = conv_equiv(inp, kern, stride=2, tolerance=-1.0)
        assert not ok

    def test_overlap_out_of_contract(self, rng):
        inp = rng.standard_normal((8, 8, 3))
        kern = rng.standard_normal((3, 3, 5, 3))
        with pytest.raises(ContractError):
            conv_equiv(inp, kern, stride=2)

    def test_non_tiling_rejected(self, rng):
        inp = rng.standard_normal((7, 7, 3))
        kern = rng.standard_normal((2, 2, 5, 3))
        with pytest.raises(ContractError):
            conv_equiv(inp, kern, stride=2)

    def test_shape_contracts(self, rng):
        with pytest.raises(ShapeError):
            conv_equiv(rng.standard_normal((8, 8, 3)), rng.standard_normal((2, 2, 5, 4)), 2)
        with pytest.raises(ShapeError):
            conv_equiv(rng.standard_normal((8, 8)), rng.standard_normal((2, 2, 5, 3)), 2)

    def test_registry_cases_unique_and_tiling(self):
        cases = registry_patch_cases()
        assert len(cases) == len(set(cases)) == 13
        assert (56, 4, 64) in cases and (8, 1, 128) in cases
        assert all(size % p == 0 for size, p, _ in cases)

    def test_suite_covers_registry(self):
        rows = suite_conv_equiv(seed=0)
        assert len(rows) == 14  # reference case + 13 registry combos
        assert all(r["passed"] for r in rows)


class TestGradcheck:
    def test_linear_loss_passes(self, rng):
        fc = Linear("probe", 6, 4, rng=rng, dtype=np.float64)
        x = rng.standard_normal((3, 6))

        def loss_fn():
            out = fc.forward(Tensor(x))
            return tmean(mul(out, out))

        rep = gradcheck(loss_fn, fc.parameters(), coords=20, seed=0)
        assert rep.passed
        assert rep.coords == 20
        assert rep.worst_rel_err < 1e-6

    def test_rejects_float32(self, rng):
        fc = Linear("probe", 6, 4, rng=rng, dtype=np.float32)
        with pytest.raises(ContractError):
            gradcheck(lambda: tmean(fc.forward(Tensor(np.ones((2, 6))))), fc.parameters())

    def test_detects_wrong_gradient(self, rng):
        fc = Linear("probe", 4, 3, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 4))
        calls = {"n": 0}

        def loss_fn():
            # inject a value-only perturbation the tape never sees: FD and
            # analytic gradients must then disagree
            calls["n"] += 1
            out = fc.forward(Tensor(x))
            shifted = Tensor(out.data * 2.0)
            return tmean(mul(shifted, shifted))

        with pytest.warns(UserWarning, match="no gradient-tracked leaves"):
            rep = gradcheck(loss_fn, fc.parameters(), coords=10, seed=0)
        assert not rep.passed
        assert rep.failures

    def test_block_fragment_deterministic(self):
        loss_a, _ = build_block_fragment(seed=2)
        loss_b, _ = build_block_fragment(seed=2)
        assert loss_a().item() == loss_b().item()


class TestSuiteRunner:
    def test_theorem1_with_overrides(self):
        rows = run_suites(["theorem1"], samples=40_000, seed=0, fx=0.5, m=100)
        assert len(rows) == 2  # standard and transposed forms
        for row in rows:
            assert row["suite"] == "theorem1"
            assert row["predicted_variance"] == pytest.approx(50.0)
            assert row["passed"]

    def test_unknown_suite(self):
        with pytest.raises(ContractError, match="unknown verification suite"):
            run_suites(["nonsense"])

    def test_sdsa_rows_serialize(self):
        rows = run_suites(["sdsa"], samples=20_000)
        for row in rows:
            back = json.loads(json.dumps(row))
            assert back["passed"] is row["passed"] is True
            assert type(row["mean_ok"]) is bool and type(row["variance"]) is float

    def test_overrides_reach_only_theorem1(self):
        rows = run_suites(["conv-equiv", "theorem1"], samples=20_000, fx=0.5, m=100)
        assert [r["suite"] for r in rows][-2:] == ["theorem1", "theorem1"]
        assert rows == run_suites(["conv-equiv"]) + run_suites(["theorem1"], samples=20_000, fx=0.5, m=100)

    def test_registry_of_suites(self):
        assert set(SUITES) == {"theorem1", "scaling", "conv-equiv", "sdsa", "gradcheck"}


class TestSuitePool:
    SAMPLES = 3_200

    def test_rows_equal_across_jobs(self):
        one = run_suites(sorted(SUITES), samples=self.SAMPLES, seed=0, jobs=1)
        two = run_suites(sorted(SUITES), samples=self.SAMPLES, seed=0, jobs=2)
        assert one == two
        assert repr(one) == repr(two)  # same Python scalar types, not only equal values

    @pytest.mark.parametrize("order", [(1, 2, 16), (16, 2, 1)])
    def test_rows_equal_across_jobs_in_a_fresh_process(self, order):
        # the first call meets OpenBLAS at its default thread count, before any op has split
        digests = in_fresh_process(_ROWS_AT_JOBS.format(order=order, samples=self.SAMPLES))
        assert len(digests) == 3 and len(set(digests)) == 1

    def test_starts_no_process(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", refuse)
        rows = run_suites(sorted(SUITES), samples=self.SAMPLES, jobs=2)
        assert len(rows) == 35

    def test_streams_run_on_the_pool_threads(self, monkeypatch):
        """At jobs 2 on two workers, the two runs of eight streams run at once, each on its own worker."""
        workers(monkeypatch, 2)
        (want,) = _dst_mc(64, [law(0.2, 64)], samples=self.SAMPLES, seed=0, jobs=1)
        chunk = verification._dst_chunk
        both = threading.Barrier(2)  # each stream waits for a stream of the other run
        threads = []

        def counting(*args):
            both.wait(30)
            threads.append((threading.get_ident(), getattr(parallel._local, "worker", False)))
            return chunk(*args)

        monkeypatch.setattr(verification, "_dst_chunk", counting)
        (rep,) = _dst_mc(64, [law(0.2, 64)], samples=self.SAMPLES, seed=0, jobs=2)
        assert len(threads) == 16 and all(worker for _, worker in threads)
        assert len({ident for ident, _ in threads}) == 2
        assert rep == want

    def test_scaled_sdsa_rows_reuse_the_unscaled_draws(self, monkeypatch):
        chunk = verification._sdsa_chunk
        calls = []

        def counting(*args):
            calls.append(args[1])
            return chunk(*args)

        monkeypatch.setattr(verification, "_sdsa_chunk", counting)
        rows = run_suites(["sdsa"], samples=self.SAMPLES, seed=0)
        cases = [r for r in rows if not r["case"]["scaled"]]
        assert len(cases) == 2 and len(rows) == 4
        assert len(calls) == 16 * len(cases)  # one pass over the 16 seed streams per case
        assert sum(calls) == self.SAMPLES * len(cases)
        for raw, scaled in zip(rows[::2], rows[1::2]):
            scale = scaled["case"]["scale"]
            assert scaled["samples"] == raw["samples"]
            assert scaled["variance"] == raw["variance"] * scale * scale


# in a fresh process: a SHA-256 digest of the rows of every suite at each `jobs` of `order`, in that order
_ROWS_AT_JOBS = """
import hashlib, json
from dualspike.verification import SUITES, run_suites
digests = [hashlib.sha256(repr(run_suites(sorted(SUITES), samples={samples}, jobs=j)).encode()).hexdigest()
           for j in {order}]
print(json.dumps(digests))
"""


# Reference oracle: the per-case samplers as they were before cases shared a draw. Each case drew its
# own uniforms and normals from the case's seed streams, so the suites' rows must equal rows built
# one case at a time from these.


def _oracle_dst_chunk(rng, draws, f_x, m, p, q, transposed):
    x = (rng.random((draws, p, m)) < f_x).astype(np.float64)
    if transposed:
        z = rng.standard_normal((draws, q, m))  # rows of f(Y); contraction against columns
        cur = np.matmul(x, z.swapaxes(-1, -2))
    else:
        z = rng.standard_normal((draws, m, q))
        cur = np.matmul(x, z)
    return cur.ravel(), cur.mean(axis=(1, 2))


def _oracle_scaled_chunk(rng, draws, rate, fan_in, p, q, scale):
    x = (rng.random((draws, p, fan_in)) < rate).astype(np.float64)
    z = rng.standard_normal((draws, fan_in, q))
    cur = np.matmul(x, z) * scale
    return cur.ravel(), cur.mean(axis=(1, 2))


def _oracle_report(chunk, args, samples, seed, predicted_var, rtol):
    draws = max(16, -(-samples // 16))  # at least one draw per stream; p·q = 16 entries per draw
    seeds = np.random.SeedSequence(seed).spawn(16)
    base, rem = divmod(draws, 16)
    chunks = [chunk(np.random.default_rng(s), base + (i < rem), *args) for i, s in enumerate(seeds)]
    entries = np.concatenate([c[0] for c in chunks])
    draw_means = np.concatenate([c[1] for c in chunks])
    return MCReport(samples=entries.size, mean=float(entries.mean()),
                    mean_stderr=float(draw_means.std(ddof=1) / np.sqrt(draw_means.size)),
                    variance=float(entries.var()), predicted_mean=0.0, predicted_variance=predicted_var,
                    variance_rtol=rtol)


def _oracle_theorem1_rows(samples, seed, fx_grid=(0.1, 0.3, 0.5), m_grid=(64, 256)):
    rows = []
    for f in fx_grid:
        for m in m_grid:
            for transposed in (False, True):
                rep = _oracle_report(_oracle_dst_chunk, (f, m, 4, 4, transposed), samples, seed, f * m, 0.05)
                rows.append(verification._case("theorem1", {"f_x": f, "m": m, "transposed": transposed},
                                               rep.as_dict(), rep.passed))
    return rows


def _oracle_scaling_rows(samples, seed):
    rows = []
    for rate, d in ((0.15, 64), (0.3, 256)):
        rep = _oracle_report(_oracle_scaled_chunk, (rate, d, 4, 4, dst_scale(rate, d)), samples, seed, 1.0, 0.1)
        rows.append(verification._case("scaling", {"role": "attn_map", "rate": rate, "fan_in": d,
                                                   "scale": dst_scale(rate, d)},
                                       rep.as_dict(), rep.variance_ok))
    for rate, hw, p in ((0.1, 784, 2), (0.25, 3136, 4)):
        fan = hw // (p * p)
        rep = _oracle_report(_oracle_scaled_chunk, (rate, fan, 4, 4, dst_scale(rate, fan)), samples, seed + 1, 1.0, 0.1)
        rows.append(verification._case("scaling", {"role": "output", "rate": rate, "hw": hw, "p": p,
                                                   "scale": dst_scale(rate, fan)},
                                       rep.as_dict(), rep.variance_ok))
    return rows


class TestSharedDraws:
    SAMPLES = 3_200

    @pytest.mark.parametrize("seed", [0, 7])
    def test_theorem1_rows_equal_per_case_oracle(self, seed):
        rows = run_suites(["theorem1"], samples=self.SAMPLES, seed=seed)
        oracle = _oracle_theorem1_rows(self.SAMPLES, seed)
        assert rows == oracle
        assert repr(rows) == repr(oracle)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_scaling_rows_equal_per_case_oracle(self, seed):
        rows = run_suites(["scaling"], samples=self.SAMPLES, seed=seed)
        oracle = _oracle_scaling_rows(self.SAMPLES, seed)
        assert rows == oracle
        assert repr(rows) == repr(oracle)

    def test_override_rows_unchanged(self):
        rows = run_suites(["theorem1"], samples=30_000, seed=0, fx=0.5, m=100)
        oracle = _oracle_theorem1_rows(30_000, 0, fx_grid=(0.5,), m_grid=(100,))
        assert len(rows) == 2
        assert repr(rows) == repr(oracle)

    def test_single_reading_samplers_equal_oracle(self):
        assert _dst_mc(64, [law(0.3, 64, transposed=True)], samples=self.SAMPLES, seed=2) == [_oracle_report(
            _oracle_dst_chunk, (0.3, 64, 4, 4, True), self.SAMPLES, 2, 0.3 * 64, 0.05)]
        assert _dst_mc(96, [post_scale(0.2, 96)], samples=self.SAMPLES, seed=2) == [_oracle_report(
            _oracle_scaled_chunk, (0.2, 96, 4, 4, dst_scale(0.2, 96)), self.SAMPLES, 2, 1.0, 0.1)]

    @pytest.mark.parametrize("suite, passes", [("theorem1", 2), ("scaling", 3)])
    def test_one_pass_per_shared_draw(self, monkeypatch, suite, passes):
        """theorem1 draws once per fan-in (2, not 12 cases); scaling's two output cases share a draw (3, not 4)."""
        chunk = verification._dst_chunk
        calls = []

        def counting(*args):
            calls.append(args[1])
            return chunk(*args)

        monkeypatch.setattr(verification, "_dst_chunk", counting)
        run_suites([suite], samples=self.SAMPLES, seed=0)
        assert len(calls) == 16 * passes
        assert sum(calls) == passes * self.SAMPLES // 16

    def test_multi_reading_validates_every_rate(self):
        with pytest.raises(ContractError, match="non-degenerate"):
            run_suites(["theorem1"], samples=self.SAMPLES, fx=1.5)
        with pytest.raises(ContractError, match="bad sampling plan: m=0"):
            run_suites(["theorem1"], samples=self.SAMPLES, m=0)
        for bad in (0.0, 1.0, float("nan")):
            with pytest.raises(ContractError, match="non-degenerate"):
                _dst_mc(64, [law(0.3, 64), law(bad, 64, transposed=True)], samples=self.SAMPLES, seed=0)
            with pytest.raises(ContractError, match="non-degenerate"):
                _dst_mc(196, [post_scale(0.2, 196), (bad, False, 1.0, 1.0, 0.1)], samples=self.SAMPLES, seed=0)
