"""Acceptance gate: the nine headline guarantees, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Each test also prints a short PASS line with the measured numbers.
The training criterion builds and fits the Nano model from scratch and takes
a few minutes of CPU time; everything else finishes in seconds.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dualspike.audit import estimate_energy, verify_spike_driven
from dualspike.config import REGISTRY, TrainConfig
from dualspike.data import SyntheticSpec, generate_split
from dualspike.model import build
from dualspike.training import evaluate, train
from dualspike.verification import (
    suite_conv_equiv,
    suite_gradcheck,
    suite_scaling,
    suite_sdsa,
    suite_theorem1,
)


def test_criterion_1_parameter_budget():
    published = {"Ti": 11.14e6, "S": 17.76e6, "M": 35.52e6, "L": 60.38e6}
    gaps = {}
    for arch, target in published.items():
        model = build(arch)
        count = model.param_count()
        gap = abs(count - target) / target
        gaps[arch] = (count, gap)
        if gap > 0.02:
            # reconciliation listing, layer by layer, for the failing variant
            for name, size in model.param_table():
                print(f"  {name}  {size}")
        assert gap <= 0.02, f"{arch}: {count} vs published {target:.0f} ({gap:.2%})"
    detail = ", ".join(f"{a} {c} ({g:.2%})" for a, (c, g) in gaps.items())
    print(f"PASS criterion 1: parameter budgets within 2% of the published table: {detail}")


def test_criterion_2_energy_model():
    rows = [(2.73, 2.46), (3.74, 3.37), (6.07, 5.46), (9.74, 8.76)]
    for gsops, mj in rows:
        got = estimate_energy(gsops)
        # the published SOP column is itself rounded, so allow one unit in
        # the last printed digit
        assert abs(got - mj) <= 0.01, f"{gsops} GSOPs -> {got} mJ, published {mj}"
    print("PASS criterion 2: 0.9 pJ/SOP model reproduces all four published energy rows")


def test_criterion_3_moment_law_monte_carlo():
    start = time.time()
    worst = 0.0
    rows = suite_theorem1(samples=100_000, seed=0)
    cases = [(r["case"]["f_x"], r["case"]["m"], r["case"]["transposed"]) for r in rows]
    assert cases == [(f_x, m, t) for f_x in (0.1, 0.3, 0.5) for m in (64, 256) for t in (False, True)]
    for row in rows:
        f_x, m = row["case"]["f_x"], row["case"]["m"]
        assert row["predicted_variance"] == f_x * m, row
        assert row["mean_ok"], row
        assert row["variance_ok"], row
        worst = max(worst, abs(row["variance"] - f_x * m) / (f_x * m))
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: mean within 3 stderr of 0 and variance within 5% of fx*m "
        f"on the full grid, both forms (worst variance gap {worst:.2%}, {elapsed:.1f}s)"
    )


def test_criterion_4_scaling_normalization():
    rows = suite_scaling(samples=100_000, seed=0)
    for row in rows:
        assert row["passed"], row
        assert 0.9 <= row["variance"] <= 1.1, row
    sdsa_rows = suite_sdsa(samples=100_000, seed=0)
    for row in sdsa_rows:
        assert row["passed"], row
    print(
        f"PASS criterion 4: scaled current variance in [0.9, 1.1] for {len(rows)} "
        f"attention/output cases; spike-product law and scaling confirmed on "
        f"{len(sdsa_rows)} cases"
    )


def test_criterion_5_spike_driven_equivalence():
    model = build("Nano", seed=11)
    rng = np.random.default_rng(11)
    images = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
    report = verify_spike_driven(model, images, tolerance=1e-6)
    assert report.passed
    kinds = {r["kind"] for r in report.rows}
    assert {"conv", "linear", "dst_t", "dst"} <= kinds
    worst = max(r["max_deviation"] for r in report.rows)
    print(
        f"PASS criterion 5: event-driven accumulation matches dense compute on every "
        f"synaptic layer (worst deviation {worst:.2e}, tolerance 1e-6)"
    )


def test_criterion_6_conv_linear_equivalence():
    rows = suite_conv_equiv(seed=0)
    assert any(r["case"]["size"] == 4 and r["case"]["p"] == 2 for r in rows)
    for row in rows:
        assert row["passed"], row
        assert row["max_deviation"] <= 1e-6, row
    print(
        f"PASS criterion 6: patch conv == token matmul on the reference case and all "
        f"{len(rows) - 1} registry configurations"
    )


def test_criterion_7_gradient_integrity():
    rows = suite_gradcheck(seed=0, coords=120)
    row = rows[0]
    assert row["coords"] >= 100
    assert row["passed"], row
    assert row["worst_rel_err"] <= 1e-3
    print(
        f"PASS criterion 7: analytic gradients match finite differences on "
        f"{row['coords']} coordinates (worst rel err {row['worst_rel_err']:.2e})"
    )


def test_criterion_8_desk_scale_learning():
    start = time.time()
    spec = SyntheticSpec(seed=0, noise=0.3)
    train_ds = generate_split(spec, 320, "train")
    test_ds = generate_split(spec, 160, "test")
    model = build("Nano", seed=0)
    cfg = TrainConfig(epochs=30, batch_size=16, lr=1e-3, seed=0, target_train_acc=0.9)
    result = train(model, train_ds, cfg)
    elapsed = time.time() - start

    assert not result.diverged
    assert result.epochs_run <= 50
    assert result.train_accuracy >= 0.90, result
    eval_acc = evaluate(model, test_ds.images, test_ds.labels)
    assert eval_acc >= 0.80, eval_acc
    for ema in model.rate_emas():
        assert ema.initialized and 0.0 <= ema.value <= 1.0
    assert elapsed < 1800.0
    print(
        f"PASS criterion 8: train acc {result.train_accuracy:.3f}, held-out acc "
        f"{eval_acc:.3f} after {result.epochs_run} epochs in {elapsed:.0f}s "
        f"(spike binarity is enforced at tensor construction throughout)"
    )


def test_criterion_9_cli_determinism(tmp_path):
    # the subprocess imports this checkout's package, whatever PYTHONPATH the test run inherited
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "dualspike.cli", *args],
            capture_output=True, check=True, env=env,
        )
        return proc.stdout

    commands = [
        ["build", "--arch", "Nano"],
        ["verify", "theorem1", "--fx", "0.3", "--m", "64", "--samples", "20000", "--seed", "7"],
    ]
    for cmd in commands:
        assert run(cmd) == run(cmd), cmd

    out_a, out_b = str(tmp_path / "a.dsds"), str(tmp_path / "b.dsds")
    run(["dataset", "--count", "16", "--out", out_a])
    run(["dataset", "--count", "16", "--out", out_b])
    with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
        assert fa.read() == fb.read()
    print("PASS criterion 9: repeated CLI invocations are byte-identical (stdout and files)")
