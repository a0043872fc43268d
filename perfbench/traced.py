"""The traced run (`--trace 1`): per-module and per-layer attribution.

Every op runs first untraced on the set-up lane and then traced on a second,
identically set-up lane; the two outputs must match bit for bit, and the two
wall times give the tracing overhead. Per-module figures are in ms per train
step on `train`, ms per image on `predict` (over all its ops) and ms per
cycle on `audit-verify`. On `predict` the figures are also given per batch
size, 8, 16, 32 and 64, as ms per image for each module and layer.
"""

from __future__ import annotations

import dataclasses
import os
import json
import resource
import statistics
import time

import numpy as np

import workloads
from dualspike import audit
from spans import LAYER, Tracer

# modules timed forward and backward (backward: tape nodes their forward made)
FWD_BWD = (
    "ops.conv2d.offsets",
    "ops.conv2d.cols",
    "ffn.gwl",
    "ffn.ffl",
    "neuron.sn_forward",
    "ops.batchnorm.train",
    "model.stem",
    "model.down",
    "attention",
    "tensor.matmul",
)
FWD_ONLY = ("ops.batchnorm.eval", "model.classifier")
CALLS = {  # metric -> span name, total time per unit
    "tensor.backward.ms": "tensor.backward",
    "training.adamw_step_ms": "training.adamw_step",
    "data.batch_wait_ms": "data.batch_wait",
    "audit.trace_ms": "audit.trace",
    "audit.sop_count_ms": "audit.sop_count",
    "audit.replay.conv_ms": "audit.replay.conv",
    "audit.replay.linear_ms": "audit.replay.linear",
    "audit.replay.dst_t_ms": "audit.replay.dst_t",
    "audit.replay.dst_ms": "audit.replay.dst",
    "verification.theorem1_ms": "verification.theorem1",
    "verification.scaling_ms": "verification.scaling",
    "verification.sdsa_ms": "verification.sdsa",
    "verification.conv_equiv_ms": "verification.conv_equiv",
    "verification.gradcheck_ms": "verification.gradcheck",
}
COUNTS = ("tensor.nodes", "verification.pool_starts", "audit.sops_total")
RATIOS = ("audit.sop_per_mac", "trace.overhead_share")


def per_layer_names():
    """Every per-layer metric the traced run reports, in BENCHMARK.json order."""
    names = []
    for n in FWD_BWD:
        names += [f"{n}.fwd_ms", f"{n}.bwd_ms"]
    names += [f"{n}.fwd_ms" for n in FWD_ONLY]
    names += list(CALLS) + ["tensor.backward.self_ms", "data.generate_split_ms"]
    return names + list(COUNTS) + list(RATIOS)


def unit_of(name):
    if name in COUNTS:
        return "count"
    if name in RATIOS:
        return "ratio"
    return "ms"


def sop_accounting(model, images):
    """(SOPs, dense MACs) over the synaptic layers of one eval-mode pass.

    Dense MACs are the audit's own SOP formulas evaluated with every input
    spike set, i.e. the accumulations a dense engine attempts.
    """
    trace = audit.run_traced(model, images)
    sops = dense = 0
    for rec in trace.records:
        if rec.kind == "stem":
            continue
        count = audit._SOP_FNS[rec.kind]
        full = dataclasses.replace(
            rec,
            spikes=np.ones_like(rec.spikes),
            amap=None if rec.amap is None else np.ones_like(rec.amap),
        )
        sops += count(rec)
        dense += count(full)
    return sops, dense


def run(wl, lane, args, counter, out_dir, facts):
    p50 = statistics.median
    traced_lane = wl.setup(args.seed)
    for each in (lane, traced_lane):  # warm-up cycle on both lanes, so they stay in step
        for kind in wl.kinds:
            counter.op(wl, each, kind, workloads.noop_span)

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        made = wl.make_data(args.seed)
    finally:
        tracer.uninstall()
    if not workloads.same(made, wl.make_data(args.seed)):
        counter.mismatch("setup", "traced data generation differs from untraced")

    op_kind = {}
    walls = {}  # kind -> [(untraced s, traced s)]
    cycle_secs = []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        for kind in wl.kinds:
            plain, _, wall_u = counter.op(wl, lane, kind, workloads.noop_span)
            op = len(op_kind)
            op_kind[op] = kind
            tracer.op = op
            tracer.install()
            try:
                traced, _, wall_t = counter.op(wl, traced_lane, kind, tracer.span)
            finally:
                tracer.uninstall()
            if plain is None or traced is None:
                continue
            if not workloads.same(plain, traced):
                counter.mismatch(kind, "traced output differs from untraced")
            walls.setdefault(kind, []).append((wall_u, wall_t))
        cycle_secs.append(time.perf_counter() - t0)
        if time.perf_counter() + p50(cycle_secs) > deadline:
            break

    mix = list(op_kind)
    if wl.name == "predict":
        units = sum(int(op_kind[op][1:]) for op in mix)
    else:
        units = len(mix) // len(wl.kinds)  # train: steps; audit-verify: cycles
    fwd, bwd, self_t = tracer.totals(mix)
    ms = 1000.0 / units

    metrics = {}
    for n in FWD_BWD:
        metrics[f"{n}.fwd_ms"] = fwd[n] * ms
        metrics[f"{n}.bwd_ms"] = bwd[n] * ms
    for n in FWD_ONLY:
        metrics[f"{n}.fwd_ms"] = fwd[n] * ms
    for metric, span in CALLS.items():
        metrics[metric] = fwd[span] * ms
    metrics["tensor.backward.self_ms"] = self_t["tensor.backward"] * ms
    metrics["data.generate_split_ms"] = tracer.totals(["setup"])[0]["data.generate_split"] * 1000.0
    metrics["tensor.nodes"] = sum(tracer.nodes[op] for op in mix) / units
    metrics["verification.pool_starts"] = sum(tracer.pool_starts[op] for op in mix) / units

    audit_images = lane.images[: workloads.AUDIT_IMAGES]
    report = audit.audit_model(lane.model, audit_images)
    sops, dense = sop_accounting(lane.model, audit_images)
    if sops != report.sops_total:
        counter.mismatch("audit", f"SOP recount {sops} differs from audit_model {report.sops_total}")
    metrics["audit.sops_total"] = report.sops_total
    metrics["audit.sop_per_mac"] = sops / dense
    mix_walls = [w for pairs in walls.values() for w in pairs]
    overhead = sum(t for _, t in mix_walls) / sum(u for u, _ in mix_walls) - 1.0
    metrics["trace.overhead_share"] = overhead

    unit = {"train": "ms per train step", "predict": "ms per image", "audit-verify": "ms per cycle"}[wl.name]
    rates = tracer.layer_rates(mix)
    audited = {row["name"]: row for row in report.rows}
    traced_layers = sorted(n[len(LAYER) :] for n in fwd if n.startswith(LAYER))
    rows = []
    for name in list(audited) + [n for n in traced_layers if n not in audited]:  # extras: the gradcheck fragment
        row = audited.get(name, {})
        rows.append(
            {
                "record": "layer",
                "name": name,
                "kind": row.get("kind"),
                "fwd_ms": fwd[LAYER + name] * ms,
                "bwd_ms": bwd[LAYER + name] * ms,
                "rate": row.get("rate"),
                "sops": row.get("sops"),
                "traced_rate": rates.get(LAYER + name),
                "unit": unit,
            }
        )

    extra = {
        "overhead": {
            kind: {"untraced_s": p50([u for u, _ in w]), "traced_s": p50([t for _, t in w]), "pairs": len(w)}
            for kind, w in walls.items()
        },
        "overhead_share": overhead,
        "units": units,
        "unit": unit,
    }
    if wl.name == "train":
        step = sum(t for _, t in walls["step"]) / units
        gwl_fwd, gwl_bwd = tracer.nested(mix, "ops.conv2d.offsets", "ffn.gwl")
        att_fwd, att_bwd = tracer.nested(mix, "tensor.matmul", "attention")
        extra["step_shares"] = {
            "traced_step_ms": step * 1000.0,
            "gwl_conv": (gwl_fwd + gwl_bwd) / units / step,
            "conv2d_offsets_all": (fwd["ops.conv2d.offsets"] + bwd["ops.conv2d.offsets"]) / units / step,
            "sn_forward": (fwd["neuron.sn_forward"] + bwd["neuron.sn_forward"]) / units / step,
            "batchnorm": (fwd["ops.batchnorm.train"] + bwd["ops.batchnorm.train"]) / units / step,
            "attention_matmuls": (att_fwd + att_bwd) / units / step,
            "forward_ms": sum(fwd[n] for n in ("model.forward", "ops.cross_entropy")) * ms,
            "backward_ms": fwd["tensor.backward"] * ms,
        }
    if wl.name == "predict":
        extra["sweep"] = sweep_rows(tracer, op_kind, walls, wl.sweep)

    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{args.seed}"
    tracer.write_spans(f"{stem}-spans.jsonl")
    with open(f"{stem}-layers.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    print(
        json.dumps(
            {
                "record": "trace-report",
                "workload": wl.name,
                "trace": 1,
                "per_layer": {name: {"value": metrics[name], "unit": unit_of(name)} for name in per_layer_names()},
                **extra,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "checks": counter.summary(),
                "files": [os.path.relpath(f"{stem}-{part}.jsonl") for part in ("spans", "layers")],
                "facts": facts,
            }
        )
    )
    return {
        "correct": not counter.wrong,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)} for name in per_layer_names()},
    }


def sweep_rows(tracer, op_kind, walls, sizes):
    """ms per image for each module and layer at each batch size, plus which grew most."""
    rows = {}
    for kind in sizes:
        ops = [op for op, k in op_kind.items() if k == kind]
        images = int(kind[1:]) * len(ops)
        fwd, _, _ = tracer.totals(ops)
        rows[kind] = {
            "untraced_img_per_s": images / sum(u for u, _ in walls[kind]),
            "modules_ms_per_image": {n: fwd[n] * 1000.0 / images for n in FWD_BWD + FWD_ONLY + ("model.forward",)},
            "layers_ms_per_image": {
                n[len(LAYER) :]: v * 1000.0 / images for n, v in sorted(fwd.items()) if n.startswith(LAYER)
            },
        }
    first, last = rows[sizes[0]]["modules_ms_per_image"], rows[sizes[-1]]["modules_ms_per_image"]
    growth = {n: last[n] - first[n] for n in first if n != "model.forward"}
    rows["growth_ms_per_image"] = dict(sorted(growth.items(), key=lambda kv: -kv[1]))
    return rows
