"""Benchmark entry point: one workload, one process, one result line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The package is imported from `src/` next to
this directory and nowhere else. With `--trace 0` the ops are timed with no
tracing; with `--trace 1` every op runs twice, untraced on one lane and traced
on a second, identically set-up lane, and the outputs must match bit for bit.
Earlier stdout lines carry the human-readable report (the descriptive metric
names, output checks and machine facts); the last line is the result object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPS = 3
MIN_CYCLES = 3  # the first op of a process is slow (first-touch allocation); the median absorbs it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("train", "predict", "audit-verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def prepare():
    """Pin BLAS threads to nproc in this process's own environment and put `src/` first on the path.

    Must run before NumPy is imported. Returns nproc.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)  # this process and its workers only
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return nproc


def machine_facts(np, nproc, seed, dtype):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "model_dtype": str(dtype),
        "seed": seed,
    }


def p50(values):
    return statistics.median(values)


def timing(values, unit, scale):
    """Median with sample count, plus the highest percentile with >= 10 samples beyond it."""
    out = {"value": p50(values) * scale, "unit": unit, "n": len(values)}
    if len(values) >= 20:
        ordered = sorted(values)
        out["tail"] = {"pct": round(100.0 * (len(values) - 10) / len(values), 1), "value": ordered[-11] * scale}
    return out


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []

    def op(self, wl, lane, kind, span):
        """Run and check one op.

        Returns (value, timings, wall seconds of the call), or Nones if it raised.
        """
        from workloads import WrongOutput

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            value, times = wl.run(lane, kind, span)
        except Exception as exc:  # the op itself raised: failed, no timing
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None, None, None
        wall = time.perf_counter() - t0
        try:
            wl.check(lane, kind, value)
        except WrongOutput as exc:
            self.failed += 1
            self.wrong.append(f"{kind}: {exc}")
        except Exception as exc:  # output could not be consumed, e.g. not serialisable
            self.failed += 1
            self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
        return value, times, wall

    def mismatch(self, kind, what):
        self.failed += 1
        self.wrong.append(f"{kind}: {what}")

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "op_fail_share": self.failed / self.attempted if self.attempted else 0.0,
            "wrong_outputs": self.wrong[:20],
            "op_errors": sorted(set(self.errors))[:20],
        }


def setup(wl, seed):
    """SETUP_REPS full set-ups; returns (median seconds, last lane)."""
    secs, lane = [], None
    for _ in range(SETUP_REPS):
        lane = None  # free the previous lane before building the next
        t0 = time.perf_counter()
        lane = wl.setup(seed)
        secs.append(time.perf_counter() - t0)
    return p50(secs), lane


def measure(wl, lane, seconds, counter):
    """Closed loop of untraced cycles until the next one would overrun `seconds`.

    Every op's timings are samples of their own, except the keys a workload
    lists in `summed`, which are added up over a cycle (one verification pass).
    """
    from workloads import noop_span

    summed = getattr(wl, "summed", ())
    samples = {}
    cycle_secs = []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        acc = {}
        for kind in wl.kinds:
            _, times, _ = counter.op(wl, lane, kind, noop_span)
            for k, v in (times or {}).items():
                if k in summed:
                    acc[k] = acc.get(k, 0.0) + v
                else:
                    samples.setdefault(k, []).append(v)
        cycle_secs.append(time.perf_counter() - t0)
        for k, v in acc.items():
            samples.setdefault(k, []).append(v)
        if len(cycle_secs) >= MIN_CYCLES and time.perf_counter() + p50(cycle_secs) > deadline:
            return samples


def slot_values(wl, samples):
    """op1..op4 in ms: the medians of the workload's four separately timed figures (see README)."""
    return [p50(samples[slot]) * 1000.0 for slot in wl.slots]


def throughput(values, images):
    """Images per second at the median op time."""
    return {"value": images / p50(values), "unit": "img/s", "n": len(values)}


def named_metrics(wl, samples):
    """The workload's metrics under their descriptive names, as ROADMAP uses them."""
    if wl.name == "train":
        return {
            "train_img_per_s": throughput(samples["step"], 16),
            "train_step_p50_ms": timing(samples["step"], "ms", 1000.0),
            "train_forward_p50_ms": timing(samples["forward"], "ms", 1000.0),
            "train_backward_p50_ms": timing(samples["backward"], "ms", 1000.0),
            "train_adamw_p50_ms": timing(samples["adamw"], "ms", 1000.0),
        }
    if wl.name == "predict":
        return {f"predict_b{b}_img_per_s": throughput(samples[f"b{b}"], b) for b in (8, 16, 32, 64)}
    return {
        "audit_p50_ms": timing(samples["audit"], "ms", 1000.0),
        "equiv_p50_ms": timing(samples["equiv"], "ms", 1000.0),
        "verify_j1_s": timing(samples["verify_j1"], "s", 1.0),
        "verify_j2_s": timing(samples["verify_j2"], "s", 1.0),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dualspike" / "__init__.py").is_file():
        print(f"error: dualspike sources not found at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = prepare()

    import numpy as np

    import dualspike

    if Path(dualspike.__file__).resolve().parent != (SRC / "dualspike").resolve():
        print(f"error: imported dualspike from {dualspike.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import reference
    import workloads

    import_s = time.perf_counter() - T_START
    wl = workloads.make(args.workload, nproc)
    wl.expected = reference.load(wl.name, args.seed)
    counter = Counter()
    setup_s, lane = setup(wl, args.seed)
    facts = machine_facts(np, nproc, args.seed, lane.model.dtype)
    facts["reference_outputs"] = wl.expected is not None
    facts["verify_jobs"] = (1, min(2, nproc)) if wl.name == "audit-verify" else None

    if args.trace:
        import traced

        result = traced.run(wl, lane, args, counter, OUT, facts)
    else:
        samples = measure(wl, lane, args.seconds, counter)
        slots = slot_values(wl, samples)
        rss = peak_rss_mb()
        metrics = {
            "setup_s": {"value": import_s + setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "op_ok_share": {"value": 1.0 - counter.failed / counter.attempted, "unit": "ratio"},
        }
        for i, v in enumerate(slots, 1):
            metrics[f"op{i}_p50_ms"] = {"value": v, "unit": "ms"}
        report = {
            "record": "report",
            "workload": wl.name,
            "trace": 0,
            "metrics": {
                **named_metrics(wl, samples),
                "setup_s": {"value": import_s + setup_s, "unit": "s", "import_s": import_s, "setup_rep_s": setup_s},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
                "op_fail_share": {"value": counter.failed / counter.attempted, "unit": "ratio"},
            },
            "slots": dict(zip((f"op{i}_p50_ms" for i in range(1, 5)), wl.slots)),
            "checks": counter.summary(),
            "facts": facts,
        }
        print(json.dumps(report))
        result = {"correct": not counter.wrong, "metrics": metrics}

    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": counter.attempted,
                "failed": counter.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
