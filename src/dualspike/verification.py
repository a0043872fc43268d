"""Statistical and numerical verification suites.

Monte-Carlo checks sample the moment law for dual-spike currents (mean 0,
variance rate * fan_in when the linear-map entries are mean-0/var-1), the
post-scale unit-variance property, and the spike-product attention variance.
The first two sample one product of spikes and normals through one sampler,
`_dst_mc`. Unscaled rows pass on `MCReport.passed` (mean within 3 standard
errors, variance within rtol); scaled rows (`scaling`, scaled `sdsa`) pass on
the variance alone, |variance - 1| <= 0.1 (`MCReport.variance_ok`).
Deterministic checks cover the token-mapping equivalence between stride-p
convolution and a single matrix product, and finite-difference agreement of
the backward pass through a full attention + feed-forward block.

Every sampler decomposes its draw budget into a fixed number of seed streams,
so results are bit-identical for any worker count. A sampler maps its streams
over the executor it is given, or runs them inline when given none; it never
starts a pool itself. `run_suites` is the one place that does: a `verify` call
at `jobs` > 1 starts at most one process pool, on its first Monte Carlo draw
(so `conv-equiv` and `gradcheck` alone start none), and shuts it down when the
call returns or raises. The scaled `sdsa` rows rescale the draws of the
unscaled rows instead of drawing them again. Cases that share a seed and a
shape always drew the same numbers, so they read one draw: `theorem1` draws
once per fan-in for all its rates and both product forms, and the two
`output` cases of `scaling` share one. On a 2-core machine the five suites at
default samples take about 1.5 s at `jobs` 1 and 1.35 s at `jobs` 2.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .attention import dst_scale, sdsa_scale
from .config import REGISTRY, StageSpec
from .layers import RunContext
from .model import DualSpikeBlock, stage_sizes
from .neuron import NeuronSpec
from .tensor import ContractError, ShapeError, Tensor, backward, mul, tensor_mean

_N_STREAMS = 16  # fixed decomposition; --jobs never changes results
_Q = 4  # rows of spikes and columns of weights in each sampled [q, m] x [m, q] product


@dataclass
class MCReport:
    samples: int
    mean: float
    mean_stderr: float
    variance: float
    predicted_mean: float
    predicted_variance: float
    variance_rtol: float = 0.05

    @property
    def mean_ok(self) -> bool:
        return abs(self.mean - self.predicted_mean) <= 3.0 * self.mean_stderr

    @property
    def variance_ok(self) -> bool:
        return abs(self.variance - self.predicted_variance) <= self.variance_rtol * self.predicted_variance

    @property
    def passed(self) -> bool:
        return self.mean_ok and self.variance_ok

    def as_dict(self) -> dict:
        return {
            "samples": int(self.samples),
            "mean": float(self.mean),
            "mean_stderr": float(self.mean_stderr),
            "variance": float(self.variance),
            "predicted_mean": float(self.predicted_mean),
            "predicted_variance": float(self.predicted_variance),
            "mean_ok": bool(self.mean_ok),
            "variance_ok": bool(self.variance_ok),
            "passed": bool(self.passed),
        }


def check_jobs(jobs: int) -> int:
    """Return `jobs` if it lies in 1.._N_STREAMS; more workers than seed streams would sit idle."""
    if not 1 <= jobs <= _N_STREAMS:
        raise ContractError(f"jobs must lie in 1..{_N_STREAMS}, got {jobs}")
    return jobs


def check_rate(f_x: float) -> float:
    """Return `f_x` if it is a non-degenerate firing rate, in (0, 1); NaN is not."""
    if not 0.0 < f_x < 1.0:
        raise ContractError(f"Monte Carlo check needs a non-degenerate rate in (0, 1), got {f_x}")
    return f_x


def check_fan_in(m: int) -> int:
    """Return `m` if the sampled product has at least one input."""
    if m < 1:
        raise ContractError(f"bad sampling plan: m={m}, need at least 1")
    return m


def check_samples(samples: int) -> int:
    """Return `samples` if it gives each of the _N_STREAMS seed streams a draw."""
    if samples < _N_STREAMS:
        raise ContractError(f"bad sampling plan: samples={samples}, need at least {_N_STREAMS}")
    return samples


def _split_draws(total: int):
    base, rem = divmod(total, _N_STREAMS)
    return [base + (1 if i < rem else 0) for i in range(_N_STREAMS)]


def _run_chunk(task):
    chunk, seed_seq, draws, args = task
    return chunk(np.random.default_rng(seed_seq), draws, *args)


class _SuitePool:
    """The process pool of one `run_suites` call, started on its first `map`."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._executor = None

    def map(self, fn, tasks):
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor.map(fn, tasks)

    def shutdown(self):
        if self._executor is not None:
            self._executor.shutdown()


def _mc_moments(chunk, args, *, draws, seed, pool, predicted) -> list[MCReport]:
    """Run chunk(rng, draws, *args) on each seed stream and pool each of its readings' moments.

    The chunk returns one (entries, per-draw means) pair per reading, and
    `predicted` holds one (mean, variance, variance rtol) per reading. The
    draw budget is split over _N_STREAMS fixed seed streams, mapped over
    `pool` (anything with an executor's `map`; None runs them inline) and
    collected in stream order, so the reports are the same for every pool size.
    """
    seeds = np.random.SeedSequence(seed).spawn(_N_STREAMS)
    tasks = [(chunk, s, d, args) for s, d in zip(seeds, _split_draws(draws))]
    chunks = list((map if pool is None else pool.map)(_run_chunk, tasks))
    reports = []
    for i, (predicted_mean, predicted_var, rtol) in enumerate(predicted):
        entries = np.concatenate([c[i][0] for c in chunks])
        draw_means = np.concatenate([c[i][1] for c in chunks])
        reports.append(MCReport(
            samples=entries.size,
            mean=float(entries.mean()),
            mean_stderr=float(draw_means.std(ddof=1) / math.sqrt(draw_means.size)),
            variance=float(entries.var()),
            predicted_mean=predicted_mean,
            predicted_variance=predicted_var,
            variance_rtol=rtol,
        ))
    return reports


# -- moment law for dual-spike currents ----------------------------------------


def _dst_chunk(rng, draws, m, readings):
    """Draw spikes' uniforms [draws, q, m] and normals [draws, m, q] once (q = _Q); read them once per reading.

    A reading (rate, transposed, scale, ...) spikes where the uniforms fall
    below `rate` and multiplies by the normals, or, transposed, by the same
    normals laid out as rows of f(Y) [draws, q, m] and contracted against their
    columns; the current is then times `scale`. Cases that share a seed and a
    shape always drew these same numbers, so reading one draw changes no bit.
    """
    u = rng.random((draws, _Q, m))
    z = rng.standard_normal((draws, m, _Q))
    zt = z.reshape(draws, _Q, m).swapaxes(-1, -2)
    out = []
    for rate, transposed, scale, *_ in readings:
        cur = np.matmul((u < rate).astype(np.float64), zt if transposed else z) * scale
        out.append((cur.ravel(), cur.mean(axis=(1, 2))))
    return out


def _dst_mc(m, readings, *, samples, seed, pool) -> list[MCReport]:
    """One report per (rate, transposed, scale, predicted variance, rtol) reading of one draw at fan-in m.

    The predicted mean is 0: the moment law reads (f_x, transposed, 1, f_x * m,
    0.05), the post-scale check (rate, False, dst_scale(rate, m), 1, 0.1).
    """
    for rate, *_ in readings:
        check_rate(rate)
    check_fan_in(m)
    check_samples(samples)
    return _mc_moments(
        _dst_chunk, (m, readings), draws=max(_N_STREAMS, math.ceil(samples / (_Q * _Q))),
        seed=seed, pool=pool, predicted=[(0.0, var, rtol) for *_, var, rtol in readings],
    )


def _sdsa_chunk(rng, draws, f_q, f_k, hw):
    qs = rng.random((draws, hw)) < f_q
    ks = rng.random((draws, hw)) < f_k
    cur = (qs & ks).sum(axis=1).astype(np.float64)
    return [(cur, cur)]


def sdsa_moments_mc(f_q: float, f_k: float, hw: int, samples: int = 100_000, seed: int = 0, pool=None) -> MCReport:
    """Spike-product attention current: mean HW*fq*fk, variance HW*fq*fk*(1-fq*fk)."""
    check_rate(f_q)
    check_rate(f_k)
    check_samples(samples)
    prod = f_q * f_k
    return _mc_moments(
        _sdsa_chunk, (f_q, f_k, hw), draws=samples,
        seed=seed, pool=pool, predicted=[(prod * hw, hw * prod * (1.0 - prod), 0.05)],
    )[0]


def sdsa_scaled_variance(base: MCReport, f_q: float, f_k: float, hw: int) -> MCReport:
    """The report `base` of sdsa_moments_mc(f_q, f_k, hw) with every draw times sdsa_scale; draws nothing."""
    scale = sdsa_scale(f_q, f_k, hw)
    return MCReport(
        samples=base.samples,
        mean=base.mean * scale,
        mean_stderr=base.mean_stderr * scale,
        variance=base.variance * scale * scale,
        predicted_mean=base.predicted_mean * scale,
        predicted_variance=1.0,
        variance_rtol=0.1,
    )


# -- conv / token-matmul equivalence --------------------------------------------


def conv_equiv(inp: np.ndarray, kernel: np.ndarray, stride: int, tolerance: float = 1e-6):
    """Check stride-p, padding-0 conv == patch-token matrix product.

    inp:    [H, W, C_in], kernel: [kh, kw, C_out, C_in], stride == kh == kw.
    Overlapping or padded configurations are out of contract.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if inp.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(f"expected input [H,W,C] and kernel [kh,kw,O,C], got {inp.shape} and {kernel.shape}")
    h, w, c = inp.shape
    kh, kw, c_out, c_in = kernel.shape
    if c != c_in:
        raise ShapeError(f"channel mismatch: input has {c}, kernel expects {c_in}")
    if not (kh == kw == stride):
        raise ContractError(f"mapping is defined for kernel == stride (non-overlapping), got k={kh}x{kw}, stride={stride}")
    if h % stride or w % stride:
        raise ContractError(f"stride {stride} must tile the {h}x{w} input exactly")

    ho, wo = h // stride, w // stride
    # explicit token construction, channel-major then kernel row/col
    tokens = np.empty((ho * wo, c * kh * kw))
    for oi in range(ho):
        for oj in range(wo):
            patch = inp[oi * stride : (oi + 1) * stride, oj * stride : (oj + 1) * stride, :]
            tokens[oi * wo + oj] = patch.transpose(2, 0, 1).ravel()
    wmat = kernel.transpose(3, 0, 1, 2).reshape(c * kh * kw, c_out)
    linear_side = tokens @ wmat

    x_nchw = Tensor(inp.transpose(2, 0, 1)[None])
    w_ock = Tensor(kernel.transpose(2, 3, 0, 1))
    conv_side = ops.conv2d(x_nchw, w_ock, stride=stride).data[0].reshape(c_out, ho * wo).T

    max_dev = float(np.max(np.abs(conv_side - linear_side))) if linear_side.size else 0.0
    return max_dev <= tolerance, max_dev


# -- finite-difference gradient check --------------------------------------------


@dataclass
class GradcheckReport:
    coords: int
    worst_rel_err: float
    tolerance: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and np.isfinite(self.worst_rel_err)

    def as_dict(self) -> dict:
        return {
            "coords": self.coords,
            "worst_rel_err": self.worst_rel_err,
            "tolerance": self.tolerance,
            "failures": self.failures,
            "passed": self.passed,
        }


_FD_STEP = 1e-3  # central-difference step of gradcheck
_FD_TOL = 1e-3  # largest relative error gradcheck passes


def gradcheck(loss_fn, params, coords: int = 120, seed: int = 0) -> GradcheckReport:
    """Compare backward-pass gradients against central finite differences.

    loss_fn runs a fresh forward and returns a scalar Tensor; it must be
    deterministic in the parameter values. Coordinates are sampled across all
    parameters proportionally to size.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ContractError(f"gradcheck requires float64 parameters, {p.name} is {p.data.dtype}")
        p.grad[...] = 0.0
    loss = loss_fn()
    backward(loss)
    analytic = {id(p): p.grad.copy() for p in params}

    sizes = np.array([p.data.size for p in params])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    flat_idx = rng.choice(total, size=min(coords, total), replace=False)
    bounds = np.cumsum(sizes)

    worst = 0.0
    failures = []
    for fi in flat_idx:
        pi = int(np.searchsorted(bounds, fi, side="right"))
        local = int(fi - (bounds[pi - 1] if pi else 0))
        p = params[pi]
        flat = p.data.reshape(-1)
        orig = flat[local]
        flat[local] = orig + _FD_STEP
        f_plus = loss_fn().item()
        flat[local] = orig - _FD_STEP
        f_minus = loss_fn().item()
        flat[local] = orig
        fd = (f_plus - f_minus) / (2.0 * _FD_STEP)
        an = float(analytic[id(p)].reshape(-1)[local])
        if not (np.isfinite(fd) and np.isfinite(an)):
            failures.append({"param": p.name, "index": local, "fd": fd, "analytic": an, "rel_err": float("inf")})
            continue
        scale = max(abs(fd), abs(an))
        if scale < 1e-9:
            continue
        rel = abs(fd - an) / scale
        worst = max(worst, rel)
        if rel > _FD_TOL:
            failures.append({"param": p.name, "index": local, "fd": fd, "analytic": an, "rel_err": rel})
    return GradcheckReport(coords=len(flat_idx), worst_rel_err=worst, tolerance=_FD_TOL, failures=failures)


def build_block_fragment(seed: int = 0):
    """Small attention + FFN block fragment (T = 2 steps of 2 images) for gradient checking.

    Returns (loss_fn, params). Scales and BN statistics are frozen (eval
    mode, pre-seeded EMAs) so the loss is smooth in the parameters; spiking
    nonlinearities run in smoothed mode.
    """
    rng = np.random.default_rng(seed)
    spec = StageSpec(d=16, heads=2, p=2, expansion=2, group_width=16)
    block = DualSpikeBlock("fragment", spec, (8, 8), NeuronSpec(), rng=rng, dtype=np.float64)
    x = rng.standard_normal((2, 2, spec.d, 8, 8))

    # warm up statistics with a hard-spike training pass, then freeze
    block.forward(Tensor(x), RunContext(training=True))
    params = block.parameters()
    ctx = RunContext(training=False, smooth=True)

    def loss_fn():
        out = block.forward(Tensor(x), ctx)
        return tensor_mean(mul(out, out))

    return loss_fn, params


# -- suites -----------------------------------------------------------------------


def _case(suite: str, case: dict, report_dict: dict, passed: bool) -> dict:
    return {"record": "case", "suite": suite, "case": case, **report_dict, "passed": bool(passed)}


def suite_theorem1(samples: int = 100_000, seed: int = 0, pool=None, fx=None, m=None):
    fx_grid = [fx] if fx is not None else [0.1, 0.3, 0.5]
    m_grid = [m] if m is not None else [64, 256]
    forms = [(f, transposed) for f in fx_grid for transposed in (False, True)]
    reports = {}
    for mm in m_grid:  # every rate and form of one fan-in reads one draw
        readings = [(f, transposed, 1.0, f * mm, 0.05) for f, transposed in forms]
        reps = _dst_mc(mm, readings, samples=samples, seed=seed, pool=pool)
        reports.update({(f, mm, transposed): rep for (f, transposed), rep in zip(forms, reps)})
    rows = []
    for f in fx_grid:
        for mm in m_grid:
            for transposed in (False, True):
                rep = reports[f, mm, transposed]
                rows.append(_case("theorem1", {"f_x": f, "m": mm, "transposed": transposed}, rep.as_dict(), rep.passed))
    return rows


def suite_scaling(samples: int = 100_000, seed: int = 0, pool=None):
    rows = []
    for rate, d in ((0.15, 64), (0.3, 256)):
        scale = dst_scale(rate, d)
        (rep,) = _dst_mc(d, [(rate, False, scale, 1.0, 0.1)], samples=samples, seed=seed, pool=pool)
        rows.append(_case("scaling", {"role": "attn_map", "rate": rate, "fan_in": d,
                                      "scale": scale}, rep.as_dict(), rep.variance_ok))
    outputs = ((0.1, 784, 2), (0.25, 3136, 4))
    (fan,) = {hw // (p * p) for _, hw, p in outputs}  # both reduce to 196 tokens, so they read one draw
    readings = [(rate, False, dst_scale(rate, fan), 1.0, 0.1) for rate, _, _ in outputs]
    reps = _dst_mc(fan, readings, samples=samples, seed=seed + 1, pool=pool)
    for (rate, hw, p), (_, _, scale, _, _), rep in zip(outputs, readings, reps):
        rows.append(_case("scaling", {"role": "output", "rate": rate, "hw": hw, "p": p,
                                      "scale": scale}, rep.as_dict(), rep.variance_ok))
    return rows


def registry_patch_cases():
    """Unique (spatial, p, channels) combos across registry stage entries."""
    return sorted({
        (size, st.p, st.d) for cfg in REGISTRY.values() for (size, _), st in zip(stage_sizes(cfg), cfg.stages)
    })


def suite_conv_equiv(seed: int = 0):
    rows = []
    rng = np.random.default_rng(seed)
    # reference case: 4x4 input, 2x2 kernel, stride 2
    base_cases = [(4, 2, 3, 5)] + [(size, p, c, c) for size, p, c in registry_patch_cases()]
    for size, p, c_in, c_out in base_cases:
        inp = rng.standard_normal((size, size, c_in))
        kern = rng.standard_normal((p, p, c_out, c_in))
        ok, dev = conv_equiv(inp, kern, stride=p)
        rows.append(_case("conv-equiv", {"size": size, "p": p, "c_in": c_in, "c_out": c_out},
                          {"max_deviation": dev}, ok))
    return rows


def suite_sdsa(samples: int = 100_000, seed: int = 0, pool=None):
    rows = []
    for f_q, f_k, hw in ((0.5, 0.5, 64), (0.2, 0.4, 196)):
        rep = sdsa_moments_mc(f_q, f_k, hw, samples=samples, seed=seed, pool=pool)
        rows.append(_case("sdsa", {"f_q": f_q, "f_k": f_k, "hw": hw, "scaled": False}, rep.as_dict(), rep.passed))
        srep = sdsa_scaled_variance(rep, f_q, f_k, hw)
        rows.append(_case("sdsa", {"f_q": f_q, "f_k": f_k, "hw": hw, "scaled": True,
                                   "scale": sdsa_scale(f_q, f_k, hw)}, srep.as_dict(), srep.variance_ok))
    return rows


def suite_gradcheck(seed: int = 0, coords: int = 120):
    loss_fn, params = build_block_fragment(seed=seed)
    rep = gradcheck(loss_fn, params, coords=coords, seed=seed)
    return [_case("gradcheck", {"coords": coords, "fragment": "attention+ffn"}, rep.as_dict(), rep.passed)]


SUITES = {
    "theorem1": suite_theorem1,
    "scaling": lambda samples, seed, pool, **_: suite_scaling(samples=samples, seed=seed, pool=pool),
    "conv-equiv": lambda seed, **_: suite_conv_equiv(seed=seed),
    "sdsa": lambda samples, seed, pool, **_: suite_sdsa(samples=samples, seed=seed, pool=pool),
    "gradcheck": lambda seed, **_: suite_gradcheck(seed=seed),
}


def run_suites(names, samples: int = 100_000, seed: int = 0, jobs: int = 1, fx=None, m=None):
    """Rows of the named suites in order; `fx` and `m` reach only theorem1.

    At `jobs` > 1 the suites share one process pool of `jobs` workers, started
    on the first Monte Carlo draw and shut down when this call returns or raises.
    """
    check_jobs(jobs)
    for name in names:
        if name not in SUITES:
            raise ContractError(f"unknown verification suite {name!r}; have {sorted(SUITES)} or 'all'")
    pool = _SuitePool(jobs) if jobs > 1 else None
    try:
        return [row for name in names for row in SUITES[name](samples=samples, seed=seed, pool=pool, fx=fx, m=m)]
    finally:
        if pool is not None:
            pool.shutdown()
