"""The benchmark's reference losses hold in Tier-1.

`perfbench/reference.json` pins the `train` workload's losses. A change that
re-associates float32 sums in the forward (a fused GEMM, folded batch norm)
flips spikes and moves those losses; this test makes it fail here, before a
benchmark run reports `correct: false`. Both files are loaded by path and
only read.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STEPS = 2


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)  # its dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def test_first_train_steps_match_reference(monkeypatch):
    workloads = _load_workloads(monkeypatch)
    expected = json.loads((PERFBENCH / "reference.json").read_text())["train"]["0"][:STEPS]
    train = workloads.Train()
    lane = train.setup(0)
    losses = [float(train.run(lane, "step")[0][1]) for _ in range(STEPS)]
    for step, (loss, ref) in enumerate(zip(losses, expected), start=1):
        assert math.isclose(loss, ref, rel_tol=workloads.LOSS_RTOL, abs_tol=0.0), (step, loss, ref)
