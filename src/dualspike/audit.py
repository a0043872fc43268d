"""Spike-driven operation audit: SOP counting, energy, event-path equivalence.

A SOP is one weight accumulation on the event-driven evaluation path: for a
synaptic layer fed by binary spikes, the number of (spike, weight) pairs that
actually fire. Counts are computed in closed form from spike counts.

Each synaptic layer hands the trace its input spikes and the current it
computed: the batch-norm output of a conv, the two attention products before
their scales, and the per-step classifier logits. The SOP count reads only
the spikes, so its trace drops the currents. The equivalence check keeps
them: it runs the traced forward on a float64 twin of the model and replays
every layer event-driven, adding only the (batch-norm-folded) weight rows
that spikes select; the replay must match the currents the twin's forward
computed.

The stem convolution sees real-valued input, so it is counted in MACs and
reported separately, excluded from the headline SOP/energy totals. Residual
adds, max pooling, and the folded BN affine are not synaptic events. The FC
bias and the folded BN bias are added in the replay but never counted as
SOPs; the dropped-bias magnitude of each attention transformation is
reported per layer.

Both checks use every usable core. The audit traces a batch in the
near-equal chunks `predict` forwards (`model.eval_chunks`), each into its own
count-only trace, and sums each layer's counts over the chunks; every count
is a sum over images, and an eval-mode image's spikes do not depend on the
other images of its forward. The float64 twin forwards its images whole
(one-image chunks would land on another BLAS kernel), and its layers are
replayed one per thread. Both fall back to the calling thread where a tracer
has wrapped what they call, as `predict` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .layers import RunContext
from .model import _map_chunks, eval_chunks
from .ops import conv_output_size, fold_bn
from .tensor import ContractError, SpikeTensor, no_grad

ENERGY_PER_SOP_PJ = 0.9


def estimate_energy(sops_giga: float) -> float:
    """Energy in mJ for a SOP count given in units of 10^9, at 0.9 pJ per SOP."""
    if not np.isfinite(sops_giga) or sops_giga < 0:
        raise ContractError(f"SOP count must be a finite non-negative number, got {sops_giga}")
    return float(sops_giga) * ENERGY_PER_SOP_PJ


@dataclass
class LayerTrace:
    name: str
    kind: str  # stem | conv | linear | dst_t | dst
    spikes: np.ndarray  # bool, layout depends on kind
    current: np.ndarray = None  # what the layer computed; None for the stem and in a count-only trace
    conv: object = None
    bn: object = None
    fc: object = None
    amap: np.ndarray = None
    heads: int = None  # attention records; the patch size p is the embedding conv's stride


class AuditTrace:
    """Collects per-synapse records during a forward pass. Counting reads only the spikes, so each
    layer's current is kept only when `currents` is set, as the equivalence check sets it."""

    def __init__(self, currents: bool = False):
        self.currents = currents
        self.records: list[LayerTrace] = []

    def _bool(self, spikes):
        """A synaptic layer's operand as bools. One-byte spikes (a SpikeTensor, or a bool array) are
        binary by their dtype and taken as a view; anything else is scanned, and a value other than 0
        or 1 breaks the binary-operand contract."""
        arr = spikes.data if isinstance(spikes, SpikeTensor) else np.asarray(spikes)
        if arr.dtype == np.bool_:
            return arr.view()
        if not ((arr == 0) | (arr == 1)).all():
            raise ContractError("audited synaptic operands must be binary spikes (0 or 1)")
        return arr.astype(bool)

    def record(self, name, kind, spikes, current, **layer):
        """Append one layer: its input spikes (the stem's real input as given), the current it computed
        if currents are kept, its modules."""
        spikes = np.asarray(spikes) if kind == "stem" else self._bool(spikes)
        if "amap" in layer:
            layer["amap"] = self._bool(layer["amap"])
        kept = current.data if self.currents and current is not None else None
        self.records.append(LayerTrace(name, kind, spikes, kept, **layer))


# -- SOP counting --------------------------------------------------------------


def _windows(spikes: np.ndarray, conv):
    """Per kernel offset (di, dj, window): the [N,Ho,Wo,C] channels-last view of the zero-padded
    [N,C,H,W] spikes that the offset's kernel tap reads at each output position."""
    k, stride, pad = conv.weight.data.shape[-1], conv.stride, conv.padding
    n, c, h, w = spikes.shape
    ho = conv_output_size(h, k, stride, pad)
    wo = conv_output_size(w, k, stride, pad)
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=spikes.dtype)
    xp[:, pad : pad + h, pad : pad + w] = spikes.transpose(0, 2, 3, 1)
    for di in range(k):
        for dj in range(k):
            yield di, dj, xp[:, di : di + stride * ho : stride, dj : dj + stride * wo : stride]


def _conv_sops(rec: LayerTrace) -> int:
    og = rec.conv.weight.data.shape[0] // rec.conv.groups
    return og * sum(int(np.count_nonzero(win)) for _, _, win in _windows(rec.spikes, rec.conv))


def _linear_sops(rec: LayerTrace) -> int:
    out_features = rec.fc.weight.data.shape[1]
    return int(rec.spikes.sum(dtype=np.int64)) * out_features


def _dst_t_sops(rec: LayerTrace) -> int:
    # pairs factorize: sum over (t,b) of nnz(X tokens) * nnz(patchified Y); X = Y here
    t, b = rec.spikes.shape[:2]
    n = rec.spikes.reshape(t * b, -1).sum(axis=1, dtype=np.int64)
    return int((n * n).sum())


def _patch_counts(x_spikes: np.ndarray, p: int) -> np.ndarray:
    """Spike count per p x p patch: [T,B,d,H,W] -> [T*B, tokens]."""
    t, b, d, h, w = x_spikes.shape
    patches = x_spikes.reshape(t * b, d, h // p, p, w // p, p)
    return patches.sum(axis=(1, 3, 5), dtype=np.int64).reshape(t * b, -1)


def _dst_sops(rec: LayerTrace) -> int:
    t, b = rec.amap.shape[:2]
    col = rec.amap.sum(axis=3, dtype=np.int64)  # [T,B,h,np] presynaptic pair counts per token
    patch = _patch_counts(rec.spikes, rec.conv.stride).reshape(t, b, 1, -1)
    pairs = int((col * patch).sum())
    return pairs * (rec.spikes.shape[2] // rec.heads)  # each pair adds one d_head-wide row


def _stem_macs(rec: LayerTrace) -> int:
    conv = rec.conv
    o, cg, kh, kw = conv.weight.data.shape
    n, c, h, w = rec.spikes.shape
    ho = conv_output_size(h, kh, conv.stride, conv.padding)
    wo = conv_output_size(w, kw, conv.stride, conv.padding)
    return n * ho * wo * o * cg * kh * kw


_SOP_FNS = {"conv": _conv_sops, "linear": _linear_sops, "dst_t": _dst_t_sops, "dst": _dst_sops}


@dataclass
class AuditReport:
    batch: int
    time_steps: int
    rows: list = field(default_factory=list)
    sops_total: int = 0
    stem_macs_total: int = 0

    @property
    def sops_per_image(self) -> float:
        return self.sops_total / self.batch

    @property
    def sops_giga_per_image(self) -> float:
        return self.sops_per_image / 1e9

    @property
    def energy_mj_per_image(self) -> float:
        return estimate_energy(self.sops_giga_per_image)

    def totals_dict(self) -> dict:
        return {
            "record": "totals",
            "batch": self.batch,
            "time_steps": self.time_steps,
            "sops_total": self.sops_total,
            "sops_per_image": self.sops_per_image,
            "sops_giga_per_image": self.sops_giga_per_image,
            "energy_mj_per_image": self.energy_mj_per_image,
            "stem_macs_total": self.stem_macs_total,
            "stem_macs_per_image": self.stem_macs_total / self.batch,
        }

    def to_jsonl(self) -> str:
        lines = [json.dumps(row, sort_keys=True) for row in self.rows]
        lines.append(json.dumps(self.totals_dict(), sort_keys=True))
        return "\n".join(lines) + "\n"


def run_traced(model, images, trace=None) -> AuditTrace:
    """An eval-mode forward of `images` recorded into `trace` (a fresh count-only AuditTrace if None)."""
    trace = AuditTrace() if trace is None else trace
    with no_grad():
        model.forward(np.asarray(images), RunContext(training=False, audit=trace))
    return trace


def _layer_rows(model, images) -> list:
    """One row per audited layer of a count-only traced forward of `images`: SOPs (MACs for the stem),
    spike count and operand size, each a sum over the images. The caller sets the rate."""
    rows = []
    for rec in run_traced(model, images).records:
        if rec.kind == "stem":
            sops, macs, nnz = 0, _stem_macs(rec), 0
        else:
            sops, macs, nnz = _SOP_FNS[rec.kind](rec), 0, int(rec.spikes.sum(dtype=np.int64))
        row = {"record": "layer", "name": rec.name, "kind": rec.kind, "sops": sops, "macs": macs,
               "spike_count": nnz, "numel": int(rec.spikes.size), "rate": None}
        if rec.kind in ("dst_t", "dst"):
            _, bias = fold_bn(rec.conv.weight.data.astype(np.float64), rec.bn)
            row["dropped_bias_l1"] = float(np.abs(bias).mean())
        rows.append(row)
    return rows


def audit_model(model, images) -> AuditReport:
    """Eval-mode forward with operation counting. Totals are per batch; the
    report exposes per-image figures (time axis summed, not averaged).

    The images are traced in their `eval_chunks` through `DualSpikeNet.map_eval`, one count-only
    trace per chunk, and each layer's counts are summed over the chunks in chunk order.
    """
    images = np.asarray(images)
    chunks = model.map_eval(lambda chunk: _layer_rows(model, chunk), eval_chunks(images))
    report = AuditReport(batch=images.shape[0], time_steps=model.config.time_steps)
    for parts in zip(*chunks):  # one layer, chunk by chunk
        row = dict(parts[0])
        for key in ("sops", "macs", "spike_count", "numel"):
            row[key] = sum(part[key] for part in parts)
        row["rate"] = row["spike_count"] / row["numel"]
        report.sops_total += row["sops"]
        report.stem_macs_total += row["macs"]
        report.rows.append(row)
    return report


# -- event-driven replay against the forward's currents ------------------------


def _spike_rows(mask: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Event-driven product of a binary mask [..., R, K] and a table [..., K, F] -> [..., R, F].

    Row r of the result sums the table rows that the spikes of mask row r
    select. A table with leading axes has the mask's leading axes, one
    [K, F] table per leading index. One np.flatnonzero finds every spike.
    The rows that have spikes sit in a compact accumulator, most spikes
    first, and pass j adds each row's j-th spike: the rows that still have
    one are a contiguous prefix, so a pass gathers its table rows and adds
    them in one slice, with no scatter. Each add is one (spike, table row)
    pair, and each row sums its spikes one at a time in column order from
    zero, as a row-by-row loop would. The accumulator is written into the
    result once, at the end.
    """
    r, k = mask.shape[-2:]
    f = table.shape[-1]
    rows, cols = np.divmod(np.flatnonzero(mask), k)  # row-major: a row's spikes in column order
    picks = cols if table.ndim == 2 else rows // r * k + cols
    table = table.reshape(-1, f)
    out = np.zeros((mask.size // k, f), dtype=table.dtype)
    if rows.size:
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first spike
        counts = np.diff(starts, append=rows.size)
        order = np.argsort(-counts, kind="stable")
        starts, counts = starts[order], counts[order]
        acc = np.zeros((starts.size, f), dtype=table.dtype)
        for j, n in enumerate(np.searchsorted(-counts, -np.arange(counts[0]))):  # n rows have a j-th spike
            acc[:n] += table[picks[starts[:n] + j]]
        out[rows[starts]] = acc
    return out.reshape(mask.shape[:-1] + (f,))


def _event_conv(rec: LayerTrace, spikes: np.ndarray) -> np.ndarray:
    """Conv + folded BN of [N,C,H,W] spikes, event-driven, channels last [N,Ho,Wo,O]: per (kernel
    offset, group), each output position adds the folded weight rows of the spikes in its window."""
    groups = rec.conv.groups
    w, bias = fold_bn(rec.conv.weight.data.astype(np.float64), rec.bn)
    o, cg = w.shape[:2]
    og = o // groups
    acc = None
    for di, dj, win in _windows(spikes, rec.conv):
        if acc is None:
            acc = np.zeros((groups, win[..., 0].size, og))
        for gi in range(groups):
            tap = np.ascontiguousarray(w[gi * og : (gi + 1) * og, :, di, dj].T)  # [cg, og]
            acc[gi] += _spike_rows(win[..., gi * cg : (gi + 1) * cg], tap).reshape(-1, og)
    out = acc.transpose(1, 0, 2).reshape(win.shape[:3] + (o,))
    out += bias
    return out


def _deviation(current: np.ndarray, event: np.ndarray) -> float:
    return float(np.max(np.abs(current - event) / np.maximum(1.0, np.abs(current)))) if current.size else 0.0


def _check_conv(rec: LayerTrace) -> float:
    return _deviation(rec.current.transpose(0, 2, 3, 1), _event_conv(rec, rec.spikes))


def _check_linear(rec: LayerTrace) -> float:
    t, b, d, h, w = rec.spikes.shape
    pool = h * w
    weight = np.repeat(rec.fc.weight.data.astype(np.float64), pool, axis=0)  # one row per (channel, position)
    event = _spike_rows(rec.spikes.reshape(t, b, d * pool), weight) / pool + rec.fc.bias.data
    return _deviation(rec.current, event)


def _tokens(rec: LayerTrace) -> np.ndarray:
    """The embedding z [T,B,h,dh,np] of the input spikes, replayed event-driven (its BN shift included)."""
    t, b, d = rec.spikes.shape[:3]
    z = _event_conv(rec, rec.spikes.reshape((t * b,) + rec.spikes.shape[2:]))  # [T*B, Ho, Wo, d]
    return z.reshape(t, b, -1, rec.heads, d // rec.heads).transpose(0, 1, 3, 4, 2)


def _check_dst_t(rec: LayerTrace) -> float:
    t, b, d = rec.spikes.shape[:3]
    tokens = rec.spikes.reshape(t, b, rec.heads, d // rec.heads, -1).swapaxes(-1, -2)  # [T,B,h,HW,dh]
    return _deviation(rec.current, _spike_rows(tokens, _tokens(rec)))


def _check_dst(rec: LayerTrace) -> float:
    return _deviation(rec.current, _spike_rows(rec.amap, _tokens(rec).swapaxes(-1, -2)))


_CHECK_FNS = {"conv": _check_conv, "linear": _check_linear, "dst_t": _check_dst_t, "dst": _check_dst}
_OWN_CHECK_FNS = dict(_CHECK_FNS)  # while an entry differs (a tracer's wrapper), the replay runs serially


@dataclass
class EquivalenceReport:
    passed: bool
    tolerance: float
    rows: list


def verify_spike_driven(model, images, tolerance: float = 1e-6) -> EquivalenceReport:
    """Replay every audited synaptic layer event-driven against the current the forward computed,
    on a float64 twin of the model (same tensors, statistics and rate EMAs). Each row carries the
    layer's input spike count: a layer with none passes without adding a single weight row.

    The twin forwards the images whole; its layers are replayed on one thread per usable core
    (`_map_chunks`), in the calling thread while a `_CHECK_FNS` entry is not the package's own.
    """
    twin = model.astype(np.float64)
    trace = run_traced(twin, np.asarray(images), AuditTrace(currents=True))
    records = [rec for rec in trace.records if rec.kind != "stem"]
    devs = _map_chunks(lambda rec: _CHECK_FNS[rec.kind](rec), records, serial=_CHECK_FNS != _OWN_CHECK_FNS)
    rows = [{"record": "layer", "name": rec.name, "kind": rec.kind, "spikes": int(rec.spikes.sum(dtype=np.int64)),
             "max_deviation": dev, "passed": dev <= tolerance} for rec, dev in zip(records, devs)]
    return EquivalenceReport(passed=all(r["passed"] for r in rows), tolerance=tolerance, rows=rows)
