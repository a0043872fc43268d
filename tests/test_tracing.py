"""The benchmark's span tracer still fits the package: it wraps, times and restores.

`perfbench/spans.py` wraps package functions and methods by name. A rename
in the package must fail here, not in the next traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from dualspike import attention, audit, data, ffn, layers, model, neuron, ops, parallel, tensor, training, verification
from dualspike.config import ModelConfig, StageSpec, StemSpec
from dualspike.layers import RunContext
from dualspike.model import DualSpikeNet

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

TWO_STAGE = ModelConfig(
    name="two-stage",
    input_height=8,
    input_width=8,
    in_channels=2,
    num_classes=3,
    time_steps=2,
    stem=StemSpec(kernel=3, stride=1, padding=1, pool=True),
    stages=(
        StageSpec(d=8, heads=2, p=2, expansion=8, group_width=64),
        StageSpec(d=16, heads=2, p=1, expansion=4, group_width=64),
    ),
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    """Every module-level object, class attribute and dict entry of the wrapped modules."""
    out = {}
    for mod in (attention, audit, data, ffn, layers, model, neuron, ops, tensor, training, verification):
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.update(((mod.__name__, name, a), v) for a, v in vars(value).items())
            elif isinstance(value, dict):
                out.update(((mod.__name__, name, k), v) for k, v in value.items())
    return out


def _train_step():
    net = DualSpikeNet(TWO_STAGE, seed=0)
    images = np.random.default_rng(1).standard_normal((2, 2, 8, 8)).astype(np.float32)
    logits = net.forward(images, RunContext(training=True))
    tensor.backward(ops.cross_entropy(logits, np.array([0, 2])))  # looked up at call time, as callers do
    return logits.data.copy(), [(p.name, p.grad.copy()) for p in net.parameters()]


def test_tracer_install_times_a_step_and_uninstall_restores():
    spans = _load_spans()
    expected_logits, expected_grads = _train_step()
    before = _bindings()

    tracer = spans.Tracer()
    try:  # an install that fails part way still undoes what it patched
        tracer.install()
        wrapped = [k for k, v in _bindings().items() if before.get(k) is not v]
        logits, grads = _train_step()
    finally:
        tracer.uninstall()

    np.testing.assert_array_equal(logits, expected_logits)
    assert [n for n, _ in grads] == [n for n, _ in expected_grads]
    for (name, g), (_, e) in zip(grads, expected_grads):
        np.testing.assert_array_equal(g, e, err_msg=name)

    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    assert ("dualspike.model", "Stem", "forward") in wrapped
    assert ("dualspike.layers", "sn_forward") in wrapped

    names = {span[1] for span in tracer.spans}
    assert {
        "model.forward",
        "model.stem",
        "model.down",
        "model.block",
        "model.classifier",
        "attention",
        "ffn.ffl",
        "ffn.gwl",
        "neuron.sn_forward",
        "ops.batchnorm.train",
        "ops.conv2d",
        "ops.cross_entropy",
        "ops.maxpool2d",
        "tensor.matmul",
        "tensor.backward",
        "tape.node",
        "layer:stem",
        "layer:stage2.down",
        "layer:stage1.block0.attn.attn",
        "layer:stage1.block0.attn.value",
        "layer:stage2.block0.attn.proj",
        "layer:stage1.block0.ffn.gwl",
        "layer:classifier",
    } <= names


def test_traced_predict_forwards_its_chunks_one_after_another(monkeypatch):
    # the tracer keeps one stack of open spans per process, so overlapping chunk forwards would corrupt it
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)  # threads would be used on a one-core machine too
    spans = _load_spans()
    net = DualSpikeNet(TWO_STAGE, seed=0)
    images = np.random.default_rng(1).standard_normal((8, 2, 8, 8)).astype(np.float32)
    with tensor.no_grad():
        net.forward(images, RunContext(training=True))  # initializes the rate EMAs, so predict cuts chunks
    assert all(e.initialized for e in net.rate_emas())
    expected = net.predict(images, batch_size=8)

    tracer = spans.Tracer()
    tracer.op = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads, if any, would interleave inside the forwards
    try:
        tracer.install()
        classes = net.predict(images, batch_size=8)
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)

    np.testing.assert_array_equal(classes, expected)
    forwards = sorted((s for s in tracer.spans if s[1] == "model.forward"), key=lambda s: s[2])
    assert len(forwards) == 4
    assert all(s[4] is None for s in forwards)
    assert all(a[3] <= b[2] for a, b in zip(forwards, forwards[1:]))  # no two forwards overlap
    for sid, name, start, end, parent, op, creator in tracer.spans:
        if parent is not None:
            assert tracer.spans[parent][2] <= start <= end <= tracer.spans[parent][3], name
    for attn in (s for s in tracer.spans if s[1] == "attention"):
        layers_in = [s[1] for s in tracer.spans if s[4] == attn[0] and s[1].startswith(spans.LAYER)]
        assert [n.rsplit(".", 1)[1] for n in layers_in] == ["attn", "value", "proj"]


def test_traced_audit_and_replay_run_one_after_another(monkeypatch):
    # the audit's chunk traces and the replay's layers use threads untraced; under the tracer's one span stack
    # they must run in the calling thread
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
    spans = _load_spans()
    net = DualSpikeNet(TWO_STAGE, seed=0)
    images = np.random.default_rng(1).standard_normal((5, 2, 8, 8)).astype(np.float32)
    with tensor.no_grad():
        net.forward(images, RunContext(training=True))  # calibrates BN and the rate EMAs, so every layer fires
    expected = audit.audit_model(net, images).to_jsonl(), audit.verify_spike_driven(net, images[:2]).rows

    tracer = spans.Tracer()
    tracer.op = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads, if any, would interleave inside the traces and replays
    try:
        tracer.install()
        report = audit.audit_model(net, images)
        equivalence = audit.verify_spike_driven(net, images[:2])
    finally:
        tracer.uninstall()
        sys.setswitchinterval(interval)

    assert report.to_jsonl() == expected[0]
    assert equivalence.rows == expected[1] and equivalence.passed
    traces = sorted((s for s in tracer.spans if s[1] == "audit.trace"), key=lambda s: s[2])
    replays = sorted((s for s in tracer.spans if s[1].startswith("audit.replay.")), key=lambda s: s[2])
    assert len(traces) == 3  # the audit's 3 + 2 image chunks, then the twin's whole forward
    assert len(replays) == len(equivalence.rows)
    for group in (traces, replays):
        assert all(a[3] <= b[2] for a, b in zip(group, group[1:]))  # no two overlap
    for sid, name, start, end, parent, op, creator in tracer.spans:
        if parent is not None:
            assert tracer.spans[parent][2] <= start <= end <= tracer.spans[parent][3], name
