"""The benchmark's three workloads and the output check of every op.

Each workload is a closed loop with one client: the next op starts only after
the previous one returned. A lane is one independently set-up copy of a
workload's model and data; the traced run keeps a second lane so that its
traced ops see the same state as the untraced ones and their outputs can be
compared bit for bit.

An op's outputs are checked outside its timed region. `WrongOutput` marks an
output with a wrong value (the run is then not correct); any other exception,
such as a result that cannot be serialised the way the CLI writes it, marks
the op as failed. Where `reference.json` has an entry for the workload seed,
the caller sets it as `expected` and the checks compare against it too; each
workload's `reference_output` makes that entry.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import dualspike
from dualspike import audit, data, ops, tensor, training, verification
from dualspike.layers import RunContext

NOISE = 0.3
TRAIN_IMAGES = 320  # the criterion-8 split
TRAIN_BATCH = 16
TRAIN_LR, TRAIN_LR_MIN, TRAIN_WD = 1e-3, 1e-5, 0.01
SCHEDULE_EPOCHS = 30  # criterion 8's cosine schedule length
PREDICT_IMAGES = 64
CALIBRATION_IMAGES = 16
AUDIT_IMAGES = 4
EQUIV_IMAGES = 2
EQUIV_TOLERANCE = 1e-6
SUITE_SEED = 0  # the CLI default; see README for why the suites do not take the workload seed
SUITE_ORDER = ("theorem1", "scaling", "conv-equiv", "sdsa", "gradcheck")
REFERENCE_STEPS = 8  # train losses recorded per seed; a 30 s run makes about 7 steps
LOSS_RTOL = 1e-5  # bit-equal on the recording machine; the slack absorbs BLAS rounding elsewhere


class WrongOutput(Exception):
    """An op returned a value that fails its output check."""


def noop_span(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _spec(seed):
    return data.SyntheticSpec(seed=seed, noise=NOISE)


def _calibrate(model, images):
    """Set BN running statistics and firing-rate EMAs from one train-mode pass.

    A freshly built model keeps BN running statistics at (0, 1), so in eval
    mode its spikes die out before stage 3 and every logit is exactly zero.
    One no-grad train-mode forward at momentum 1 gives each BN the batch
    statistics it sees in training and seeds the attention rate EMAs, so the
    eval-mode ops exercise every layer.
    """
    states = model.bn_states()
    saved = [s.momentum for s in states]
    for s in states:
        s.momentum = 1.0
    with tensor.no_grad():
        model.forward(images, RunContext(training=True))
    for s, m in zip(states, saved):
        s.momentum = m


def same(a, b):
    """Exact equality of op outputs: arrays bit for bit, containers element-wise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and a.tobytes() == b.tobytes()
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same(vars(a), vars(b))
    return type(a) is type(b) and bool(a == b)


# -- train ----------------------------------------------------------------------


@dataclass
class TrainLane:
    images: np.ndarray
    labels: np.ndarray
    model: object
    opt: object
    rng: np.random.Generator
    batches: object = None
    step: int = 0


class Train:
    """AdamW steps at batch 16 on the criterion-8 split, as `training.train` runs them."""

    name = "train"
    kinds = ("step",)
    slots = ("step", "forward", "backward", "adamw")
    expected = None  # reference losses at steps 1, 2, ...

    def make_data(self, seed):
        ds = data.generate_split(_spec(seed), TRAIN_IMAGES, "train")
        return ds.images, ds.labels

    def setup(self, seed):
        images, labels = self.make_data(seed)
        model = dualspike.build("Nano", seed=seed)
        opt = training.AdamW(model.parameters(), lr=TRAIN_LR, weight_decay=TRAIN_WD)
        return TrainLane(images, labels, model, opt, np.random.default_rng(seed))

    def _next_batch(self, lane):
        while True:
            if lane.batches is None:
                lane.batches = data.iter_batches(lane.images, lane.labels, TRAIN_BATCH, lane.rng)
            try:
                return next(lane.batches)
            except StopIteration:
                lane.batches = None

    def run(self, lane, kind, span=noop_span):
        """One train step. Returns ((step, loss), {timing name: seconds})."""
        total = SCHEDULE_EPOCHS * math.ceil(TRAIN_IMAGES / TRAIN_BATCH)
        t0 = time.perf_counter()
        images, labels = span("data.batch_wait", self._next_batch, lane)
        t1 = time.perf_counter()
        lane.opt.lr = training.cosine_lr(lane.step, total, TRAIN_LR, TRAIN_LR_MIN)
        lane.opt.zero_grad()
        logits = lane.model.forward(images, RunContext(training=True))
        loss = ops.cross_entropy(logits, labels)
        t2 = time.perf_counter()
        tensor.backward(loss, free_graph=True)
        t3 = time.perf_counter()
        lane.opt.step()
        t4 = time.perf_counter()
        lane.step += 1
        times = {"step": t4 - t0, "forward": t2 - t1, "backward": t3 - t2, "adamw": t4 - t3}
        return (lane.step, loss.data.copy()), times

    def check(self, lane, kind, value):
        step, loss = value
        if not np.isfinite(loss).all():
            raise WrongOutput(f"step {step}: loss is {loss}")
        if self.expected is not None and step <= len(self.expected):
            ref = self.expected[step - 1]
            if not math.isclose(float(loss), ref, rel_tol=LOSS_RTOL, abs_tol=0.0):
                raise WrongOutput(f"step {step}: loss {float(loss)!r}, reference {ref!r}")

    def reference_output(self, lane):
        """Losses of the first REFERENCE_STEPS steps of a fresh lane."""
        return [float(self.run(lane, "step")[0][1]) for _ in range(REFERENCE_STEPS)]


# -- predict ----------------------------------------------------------------------


@dataclass
class PredictLane:
    images: np.ndarray
    model: object
    calls: dict = field(default_factory=dict)  # batch -> calls made, to rotate through the images
    reference: np.ndarray = None  # classes from the first batch-64 call


class Predict:
    """Eval-mode `DualSpikeNet.predict` under no_grad at batch 64, 8, 16 and 32."""

    name = "predict"
    # short calls recur within a cycle, so their medians rest on more samples
    kinds = ("b64", "b8", "b16", "b8", "b32", "b8", "b16")
    sweep = ("b8", "b16", "b32", "b64")
    slots = ("b8", "b64", "b16", "b32")
    expected = None  # reference classes of the 64 images

    def make_data(self, seed):
        test = data.generate_split(_spec(seed), PREDICT_IMAGES, "test")
        calib = data.generate_split(_spec(seed), CALIBRATION_IMAGES, "train")
        return test.images, calib.images

    def setup(self, seed):
        images, calibration = self.make_data(seed)
        model = dualspike.build("Nano", seed=seed)
        _calibrate(model, calibration)
        return PredictLane(images, model)

    def run(self, lane, kind, span=noop_span):
        batch = int(kind[1:])
        k = lane.calls.get(batch, 0)
        lane.calls[batch] = k + 1
        start = (k * batch) % PREDICT_IMAGES
        images = lane.images[start : start + batch]
        t0 = time.perf_counter()
        preds = lane.model.predict(images, batch_size=batch)
        t1 = time.perf_counter()
        return (start, preds), {kind: t1 - t0}

    def check(self, lane, kind, value):
        start, preds = value
        batch = int(kind[1:])
        if preds.shape != (batch,):
            raise WrongOutput(f"batch {batch}: {preds.shape} predictions for {batch} images")
        if lane.reference is None and batch == PREDICT_IMAGES:
            lane.reference = preds
        if lane.reference is not None and not same(preds, lane.reference[start : start + batch]):
            raise WrongOutput(f"batch {batch}: classes of images {start}..{start + batch - 1} differ from batch 64")
        if self.expected is not None and preds.tolist() != self.expected[start : start + batch]:
            raise WrongOutput(f"batch {batch}: classes of images {start}..{start + batch - 1} differ from the reference")

    def reference_output(self, lane):
        """Classes of all the images at batch 64."""
        return lane.model.predict(lane.images, batch_size=PREDICT_IMAGES).tolist()


# -- audit-verify ---------------------------------------------------------------------


@dataclass
class AuditLane:
    images: np.ndarray
    model: object
    references: dict = field(default_factory=dict)


class AuditVerify:
    """SOP audit, spike-driven equivalence, and the five verification suites at jobs 1 and 2."""

    name = "audit-verify"
    slots = ("audit", "equiv", "verify_j1", "verify_j2")
    expected = None  # reference sops_total of the audit
    summed = ("verify_j1", "verify_j2")  # one pass = the five suite ops of a cycle

    def __init__(self, nproc):
        self.jobs2 = min(2, nproc)
        # audit and equivalence run before each pass, so they get two samples per cycle
        self.kinds = tuple(k for tag in ("j1", "j2") for k in ("audit", "equiv", *(f"suite.{s}.{tag}" for s in SUITE_ORDER)))

    def make_data(self, seed):
        test = data.generate_split(_spec(seed), AUDIT_IMAGES, "test")
        calib = data.generate_split(_spec(seed), CALIBRATION_IMAGES, "train")
        return test.images, calib.images

    def setup(self, seed):
        images, calibration = self.make_data(seed)
        model = dualspike.build("Nano", seed=seed)
        _calibrate(model, calibration)
        return AuditLane(images, model)

    def _reference(self, lane, key, value, what):
        ref = lane.references.setdefault(key, value)
        if not same(ref, value):
            raise WrongOutput(f"{what} differs from the first call in this run")

    def run(self, lane, kind, span=noop_span):
        if kind == "audit":
            t0 = time.perf_counter()
            report = audit.audit_model(lane.model, lane.images[:AUDIT_IMAGES])
            t1 = time.perf_counter()
            return (report.sops_total, report.rows), {"audit": t1 - t0}
        if kind == "equiv":
            t0 = time.perf_counter()
            eq = audit.verify_spike_driven(lane.model, lane.images[:EQUIV_IMAGES], tolerance=EQUIV_TOLERANCE)
            t1 = time.perf_counter()
            return eq, {"equiv": t1 - t0}
        _, suite, jobs_tag = kind.split(".")
        jobs = 1 if jobs_tag == "j1" else self.jobs2
        t0 = time.perf_counter()
        rows = span("verification." + suite.replace("-", "_"), verification.run_suites, [suite], seed=SUITE_SEED, jobs=jobs)
        t1 = time.perf_counter()
        return rows, {f"verify_{jobs_tag}": t1 - t0}

    def check(self, lane, kind, value):
        if kind == "audit":
            if self.expected is not None and value[0] != self.expected:
                raise WrongOutput(f"audit sops_total {value[0]}, reference {self.expected}")
            self._reference(lane, "audit", value, "audit sops_total or rows")
            return
        if kind == "equiv":
            if not value.passed:
                bad = [r["name"] for r in value.rows if not r["passed"]]
                raise WrongOutput(f"spike-driven equivalence failed at {EQUIV_TOLERANCE}: {bad}")
            return
        suite = kind.split(".")[1]
        failed = [r["case"] for r in value if not r["passed"]]
        if failed:
            raise WrongOutput(f"{suite}: cases failed: {failed}")
        self._reference(lane, suite, value, f"{suite} rows (jobs 1 and 2 alike)")
        for row in value:
            json.dumps(row, sort_keys=True)  # as `dualspike verify --out` writes it

    def reference_output(self, lane):
        """sops_total of the audit of the lane's images."""
        return audit.audit_model(lane.model, lane.images[:AUDIT_IMAGES]).sops_total


def make(name, nproc):
    if name == "train":
        return Train()
    if name == "predict":
        return Predict()
    if name == "audit-verify":
        return AuditVerify(nproc)
    raise ValueError(f"unknown workload {name!r}")
