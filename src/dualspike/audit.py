"""Spike-driven operation audit: SOP counting, energy, event-path equivalence.

A SOP is one weight accumulation on the event-driven evaluation path: for a
synaptic layer fed by binary spikes, the number of (spike, weight) pairs that
actually fire. Counts are computed in closed form from spike counts; the
equivalence checker additionally recomputes each audited layer two ways,
dense algebra vs. an accumulation that touches only nonzero spikes, both on
batch-norm-folded weights in float64.

The stem convolution sees real-valued input, so it is counted in MACs and
reported separately, excluded from the headline SOP/energy totals. Residual
adds, max pooling, and the folded BN affine are not synaptic events. The FC
bias and the folded BN bias are added on both sides of the equivalence check
but never counted as SOPs; the dropped-bias magnitude of each attention
transformation is reported per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .layers import RunContext
from .ops import _im2col, conv_output_size, fold_bn
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
    conv: object = None
    bn: object = None
    fc: object = None
    amap: np.ndarray = None
    cfg: object = None


class AuditTrace:
    """Collects per-synapse records during a forward pass."""

    def __init__(self):
        self.records: list[LayerTrace] = []

    def _bool(self, spikes):
        """A synaptic layer's operand as bools. A SpikeTensor is binary by construction; anything else is
        scanned, and a value other than 0 or 1 breaks the binary-operand contract."""
        if isinstance(spikes, SpikeTensor):
            return spikes.data.astype(bool)
        arr = np.asarray(spikes)
        if not ((arr == 0) | (arr == 1)).all():
            raise ContractError("audited synaptic operands must be binary spikes (0 or 1)")
        return arr.astype(bool)

    def add_stem(self, name, x_real, conv, bn):
        self.records.append(LayerTrace(name, "stem", np.asarray(x_real), conv=conv, bn=bn))

    def add_conv(self, name, spikes, conv, bn):
        self.records.append(LayerTrace(name, "conv", self._bool(spikes), conv=conv, bn=bn))

    def add_linear(self, name, spikes, fc):
        self.records.append(LayerTrace(name, "linear", self._bool(spikes), fc=fc))

    def add_dst_t(self, name, x_spikes, conv, bn, cfg):
        self.records.append(LayerTrace(name, "dst_t", self._bool(x_spikes), conv=conv, bn=bn, cfg=cfg))

    def add_dst(self, name, amap, x_spikes, conv, bn, cfg):
        self.records.append(
            LayerTrace(name, "dst", self._bool(x_spikes), conv=conv, bn=bn, cfg=cfg, amap=self._bool(amap))
        )


# -- SOP counting --------------------------------------------------------------


def _conv_sops(rec: LayerTrace) -> int:
    conv = rec.conv
    kh = conv.weight.data.shape[-1]
    og = conv.weight.data.shape[0] // conv.groups
    total = 0
    spikes = rec.spikes
    step = max(1, (32 << 20) // max(1, spikes[0].size * kh * kh))
    for i in range(0, spikes.shape[0], step):
        cols, _, _ = _im2col(spikes[i : i + step].astype(np.uint8), kh, kh, conv.stride, conv.padding, conv.groups)
        total += int(cols.sum(dtype=np.int64)) * og
    return total


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
    cfg = rec.cfg
    t, b = rec.amap.shape[:2]
    col = rec.amap.sum(axis=3, dtype=np.int64)  # [T,B,h,np] presynaptic pair counts per token
    patch = _patch_counts(rec.spikes, cfg.p).reshape(t, b, 1, -1)
    pairs = int((col * patch).sum())
    return pairs * cfg.d_head


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

    def to_table(self) -> str:
        header = f"{'layer':<28} {'kind':<7} {'rate':>8} {'SOPs':>14} {'MACs':>14}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row['name']:<28} {row['kind']:<7} {row['rate']:>8.4f} {row['sops']:>14d} {row['macs']:>14d}"
            )
        t = self.totals_dict()
        lines.append("-" * len(header))
        lines.append(
            f"per image: {t['sops_giga_per_image']:.6f} GSOPs, {t['energy_mj_per_image']:.6f} mJ "
            f"(stem: {t['stem_macs_per_image']:.3e} MACs, excluded)"
        )
        return "\n".join(lines)


def run_traced(model, images) -> AuditTrace:
    trace = AuditTrace()
    with no_grad():
        model.forward(np.asarray(images), RunContext(training=False, audit=trace))
    return trace


def audit_model(model, images) -> AuditReport:
    """Eval-mode forward with operation counting. Totals are per batch; the
    report exposes per-image figures (time axis summed, not averaged)."""
    images = np.asarray(images)
    trace = run_traced(model, images)
    report = AuditReport(batch=images.shape[0], time_steps=model.config.time_steps)
    for rec in trace.records:
        if rec.kind == "stem":
            macs = _stem_macs(rec)
            report.stem_macs_total += macs
            row = {"record": "layer", "name": rec.name, "kind": rec.kind, "sops": 0, "macs": macs,
                   "spike_count": 0, "numel": int(rec.spikes.size), "rate": 0.0}
        else:
            sops = _SOP_FNS[rec.kind](rec)
            report.sops_total += sops
            nnz = int(rec.spikes.sum(dtype=np.int64))
            row = {"record": "layer", "name": rec.name, "kind": rec.kind, "sops": sops, "macs": 0,
                   "spike_count": nnz, "numel": int(rec.spikes.size), "rate": nnz / rec.spikes.size}
            if rec.kind in ("dst_t", "dst"):
                _, bias = fold_bn(rec.conv.weight.data.astype(np.float64), rec.bn)
                row["dropped_bias_l1"] = float(np.abs(bias).mean())
        report.rows.append(row)
    return report


# -- dense vs. event-driven equivalence -----------------------------------------


def _dense_conv(x: np.ndarray, w: np.ndarray, stride, padding, groups) -> np.ndarray:
    n, c = x.shape[:2]
    o = w.shape[0]
    kh = w.shape[-1]
    cols, ho, wo = _im2col(x, kh, kh, stride, padding, groups)
    wg = w.reshape(groups, o // groups, -1)
    return np.matmul(wg[None], cols).reshape(n, o, ho, wo)


def _event_conv(spikes: np.ndarray, w: np.ndarray, stride, padding, groups) -> np.ndarray:
    """Accumulate kernel columns only where input spikes are nonzero."""
    n, c, h, wdt = spikes.shape
    o, cg, kh, kw = w.shape
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(wdt, kw, stride, padding)
    og = o // groups
    out = np.zeros((n, o, ho, wo), dtype=w.dtype)
    pad = ((0, 0), (padding, padding), (padding, padding))
    for i in range(n):
        xp = np.pad(spikes[i], pad) if padding else spikes[i]
        po = out[i].transpose(1, 2, 0)  # [Ho, Wo, O] view for row scatter
        for ch in range(c):
            gi = ch // cg
            osl = slice(gi * og, (gi + 1) * og)
            wch = w[osl, ch - gi * cg]  # [og, kh, kw]
            for di in range(kh):
                for dj in range(kw):
                    window = xp[ch, di : di + stride * ho : stride, dj : dj + stride * wo : stride]
                    ii, jj = np.nonzero(window)
                    if ii.size:
                        po[ii, jj, osl] += wch[:, di, dj]
    return out


def _fold64(rec: LayerTrace):
    return fold_bn(rec.conv.weight.data.astype(np.float64), rec.bn)


def _deviation(dense: np.ndarray, event: np.ndarray) -> float:
    return float(np.max(np.abs(dense - event) / np.maximum(1.0, np.abs(dense)))) if dense.size else 0.0


def _check_conv(rec: LayerTrace) -> float:
    w, bias = _fold64(rec)
    x = rec.spikes
    t_fold = x.reshape((-1,) + x.shape[-3:]) if x.ndim == 5 else x
    dense = _dense_conv(t_fold.astype(np.float64), w, rec.conv.stride, rec.conv.padding, rec.conv.groups)
    event = _event_conv(t_fold, w, rec.conv.stride, rec.conv.padding, rec.conv.groups)
    b = bias[None, :, None, None]
    return _deviation(dense + b, event + b)


def _check_linear(rec: LayerTrace) -> float:
    w = rec.fc.weight.data.astype(np.float64)
    b = rec.fc.bias.data.astype(np.float64)
    t, bb, d, h, wdt = rec.spikes.shape
    pool = h * wdt
    flat = rec.spikes.reshape(t * bb, d, pool)
    dense = flat.astype(np.float64).mean(axis=2) @ w + b
    event = np.zeros_like(dense)
    for i in range(t * bb):
        d_idx, _ = np.nonzero(flat[i])
        event[i] = w[d_idx].sum(axis=0) / pool + b
    return _deviation(dense, event)


def _tokens_from_conv(rec: LayerTrace, sample: np.ndarray) -> tuple:
    """(dense_tokens, event_tokens), each [tokens, d] for one [d,H,W] sample."""
    w, _ = _fold64(rec)
    conv = rec.conv
    x = sample[None]
    dense = _dense_conv(x.astype(np.float64), w, conv.stride, conv.padding, conv.groups)[0]
    event = _event_conv(x, w, conv.stride, conv.padding, conv.groups)[0]
    d = dense.shape[0]
    return dense.reshape(d, -1).T, event.reshape(d, -1).T


def _gated_rows(mask_rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """For each binary row, sum the table rows its nonzero entries select."""
    out = np.zeros((mask_rows.shape[0], table.shape[1]), dtype=table.dtype)
    for i in range(mask_rows.shape[0]):
        (idx,) = np.nonzero(mask_rows[i])
        if idx.size:
            out[i] = table[idx].sum(axis=0)
    return out


def _check_dst_t(rec: LayerTrace) -> float:
    cfg = rec.cfg
    t, b = rec.spikes.shape[:2]
    dev = 0.0
    for ti in range(t):
        for bi in range(b):
            sample = rec.spikes[ti, bi]
            z_dense, z_event = _tokens_from_conv(rec, sample)  # [np, d]
            x_tok = sample.reshape(cfg.d, cfg.hw).T  # [HW, d] binary
            for hd in range(cfg.heads):
                cols = slice(hd * cfg.d_head, (hd + 1) * cfg.d_head)
                dense = x_tok[:, cols].astype(np.float64) @ z_dense[:, cols].T
                # spike k of token row i selects column k of the event-side table
                event = _gated_rows(x_tok[:, cols], z_event[:, cols].T)
                dev = max(dev, _deviation(dense, event))
    return dev


def _check_dst(rec: LayerTrace) -> float:
    cfg = rec.cfg
    t, b = rec.amap.shape[:2]
    dev = 0.0
    for ti in range(t):
        for bi in range(b):
            z_dense, z_event = _tokens_from_conv(rec, rec.spikes[ti, bi])  # [np, d]
            for hd in range(cfg.heads):
                cols = slice(hd * cfg.d_head, (hd + 1) * cfg.d_head)
                a = rec.amap[ti, bi, hd]  # [HW, np]
                dense = a.astype(np.float64) @ z_dense[:, cols]
                event = _gated_rows(a, z_event[:, cols])
                dev = max(dev, _deviation(dense, event))
    return dev


_CHECK_FNS = {"conv": _check_conv, "linear": _check_linear, "dst_t": _check_dst_t, "dst": _check_dst}


@dataclass
class EquivalenceReport:
    passed: bool
    tolerance: float
    rows: list

    def to_jsonl(self) -> str:
        lines = [json.dumps(row, sort_keys=True) for row in self.rows]
        lines.append(json.dumps({"record": "summary", "passed": self.passed, "tolerance": self.tolerance},
                                sort_keys=True))
        return "\n".join(lines) + "\n"


def verify_spike_driven(model, images, tolerance: float = 1e-6) -> EquivalenceReport:
    """Recompute every audited synaptic layer dense vs. event-driven."""
    trace = run_traced(model, np.asarray(images))
    rows = []
    passed = True
    for rec in trace.records:
        if rec.kind == "stem":
            continue
        dev = _CHECK_FNS[rec.kind](rec)
        ok = dev <= tolerance
        passed = passed and ok
        rows.append({"record": "layer", "name": rec.name, "kind": rec.kind,
                     "max_deviation": dev, "passed": ok})
    return EquivalenceReport(passed=passed, tolerance=tolerance, rows=rows)
