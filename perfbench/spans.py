"""In-memory span tracer installed from outside the dualspike package.

Wrappers go in at the names the callers bind (for example
`dualspike.layers.sn_forward`, which `SpikingNeuron.forward` looks up, and
`dualspike.ops.conv2d`, which `Conv2d.forward` looks up), so the package
itself is unchanged and uninstalling restores the original objects.

Every span records (id, name, start, end, parent id, op id). Tape nodes are
timed in backward: the `make_node` wrapper swaps each node's `_backward` for a
timed closure that remembers which forward spans were open when the node was
made, so backward time lands on the module whose forward created the node.
Layers are spans too, named `layer:` plus the audit's layer name
(`layer:stage1.block0.ffn.gwl`, `layer:stage2.down`, ...), so per-layer time
comes from the same `totals` as per-module time. Inside an attention forward
a layer span opens at each of the three LIFs and closes at the next one or
when the attention returns.
Spans stay in memory until `write_spans` is called once at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

_ATTN_ROLES = ("attn", "value", "proj")  # order of the three LIFs in the attention forward
_NODE = "tape.node"
LAYER = "layer:"  # name prefix of the per-layer spans


class Tracer:
    def __init__(self):
        # span: [id, name, start, end, parent, op, creator names (tape nodes only)]
        self.spans = []
        self._open = []  # ids of open spans, innermost last
        self._names = []  # names of open spans, parallel to _open
        self.op = None
        self._attn = None  # [attention module name, LIFs seen, open layer span] inside an attention forward
        self.layer_spikes = defaultdict(lambda: [0, 0])  # (op, layer span) -> [spikes, neurons] of its LIF
        self.nodes = defaultdict(int)  # op -> tape nodes created
        self.pool_starts = defaultdict(int)  # op -> process pools created
        self._saved = []

    # -- spans -----------------------------------------------------------

    def open(self, name, creator=None):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([sid, name, 0.0, 0.0, parent, self.op, creator])
        self._open.append(sid)
        self._names.append(name)
        self.spans[sid][2] = time.perf_counter()
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._open.pop()
        self._names.pop()

    def span(self, name, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def _layer(self):
        """Name of the innermost open layer span, or None."""
        return next((n for n in reversed(self._names) if n.startswith(LAYER)), None)

    # -- wrappers --------------------------------------------------------

    def _wrap_fn(self, fn, name):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapped

    def _wrap_layer(self, fn, name, label_of):
        """A layer span inside an optional module span, for a method whose layer is known on entry."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            layer = LAYER + label_of(*args, **kwargs)
            if name is None:
                return self.span(layer, fn, *args, **kwargs)
            return self.span(name, self.span, layer, fn, *args, **kwargs)

        return wrapped

    def _wrap_attention(self, fn):
        @functools.wraps(fn)
        def wrapped(module, *args, **kwargs):
            prev = self._attn
            self._attn = [module.name, 0, None]
            sid = self.open("attention")
            try:
                return fn(module, *args, **kwargs)
            finally:
                if self._attn[2] is not None:
                    self.close(self._attn[2])
                self.close(sid)
                self._attn = prev

        return wrapped

    def _wrap_sn(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            attn = self._attn
            if attn is not None and attn[1] < len(_ATTN_ROLES):
                if attn[2] is not None:
                    self.close(attn[2])
                attn[2] = self.open(f"{LAYER}{attn[0]}.{_ATTN_ROLES[attn[1]]}")
                attn[1] += 1
            out = self.span("neuron.sn_forward", fn, *args, **kwargs)
            layer = self._layer()
            if layer is not None:
                fired = self.layer_spikes[(self.op, layer)]
                fired[0] += int(np.count_nonzero(out.data))
                fired[1] += out.data.size
            return out

        return wrapped

    def _wrap_batchnorm(self, fn):
        @functools.wraps(fn)
        def wrapped(x, state, training):
            return self.span("ops.batchnorm.train" if training else "ops.batchnorm.eval", fn, x, state, training)

        return wrapped

    def _wrap_make_node(self, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            bw = out._backward
            if bw is not None:
                self.nodes[self.op] += 1
                out._backward = self._timed_backward(bw, tuple(self._names))
            return out

        return wrapped

    def _timed_backward(self, bw, creator):
        def timed(g):
            sid = self.open(_NODE, creator)
            try:
                return bw(g)
            finally:
                self.close(sid)

        return timed

    def _counting_pool(self, *args, **kwargs):
        self.pool_starts[self.op] += 1
        return ProcessPoolExecutor(*args, **kwargs)

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def install(self):
        """Wrap the dualspike entry points at the names their callers bind."""
        from dualspike import attention, audit, data, ffn, layers, model, neuron, ops, tensor, training, verification

        for owner, attr, name in (
            (ops, "conv2d", "ops.conv2d"),
            (ops, "_conv2d_offsets", "ops.conv2d.offsets"),
            (ops, "_conv2d_cols", "ops.conv2d.cols"),
            (ops, "maxpool2d", "ops.maxpool2d"),
            (ops, "cross_entropy", "ops.cross_entropy"),
            (tensor, "matmul", "tensor.matmul"),
            (attention, "matmul", "tensor.matmul"),
            (ops, "matmul", "tensor.matmul"),
            (tensor, "backward", "tensor.backward"),
            (verification, "backward", "tensor.backward"),
            (model.DualSpikeNet, "forward", "model.forward"),
            (model.DualSpikeBlock, "forward", "model.block"),
            (ffn.GroupWiseFeedForward, "gwl", "ffn.gwl"),
            (ffn.GroupWiseFeedForward, "ffl", "ffn.ffl"),
            (training.AdamW, "step", "training.adamw_step"),
            (data, "generate_split", "data.generate_split"),
            (audit, "run_traced", "audit.trace"),
            (audit, "audit_model", "audit.audit_model"),
            (audit, "verify_spike_driven", "audit.verify_spike_driven"),
            (audit, "_stem_macs", "audit.sop_count"),
        ):
            self._patch(owner, attr, self._wrap_fn(owner.__dict__[attr], name))
        for kind, fn in list(audit._SOP_FNS.items()):
            self._patch(audit._SOP_FNS, kind, self._wrap_fn(fn, "audit.sop_count"))
        for kind, fn in list(audit._CHECK_FNS.items()):
            self._patch(audit._CHECK_FNS, kind, self._wrap_fn(fn, f"audit.replay.{kind}"))
        self._patch(ops, "batchnorm", self._wrap_batchnorm(ops.batchnorm))
        for owner in (layers, attention):
            self._patch(owner, "sn_forward", self._wrap_sn(owner.sn_forward))
        for owner in (tensor, ops, neuron):
            self._patch(owner, "make_node", self._wrap_make_node(owner.make_node))
        self._patch(verification, "ProcessPoolExecutor", self._counting_pool)

        self._patch(model.Stem, "forward", self._wrap_layer(model.Stem.forward, "model.stem", lambda m, *a: m.name))
        self._patch(
            model.Downsample, "forward", self._wrap_layer(model.Downsample.forward, "model.down", lambda m, *a: m.name)
        )
        self._patch(
            model.Classifier,
            "forward",
            self._wrap_layer(model.Classifier.forward, "model.classifier", lambda m, *a: m.name),
        )
        self._patch(
            ffn.GroupWiseFeedForward,
            "_synapse",
            self._wrap_layer(
                ffn.GroupWiseFeedForward._synapse, None, lambda m, x, lif, conv, bn, ctx, tag: f"{m.name}.{tag}"
            ),
        )
        self._patch(
            attention.MultiHeadDualSpikeAttention,
            "forward",
            self._wrap_attention(attention.MultiHeadDualSpikeAttention.forward),
        )

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def totals(self, ops):
        """Seconds per span name over the given op ids.

        Returns (fwd, bwd, self_time): fwd is inclusive time of the outermost
        span of each name, bwd sums the backward time of tape nodes whose
        creating forward spans include that name, and self_time is a span's
        duration minus the time its child spans cover.
        """
        ops = set(ops)
        fwd, bwd, self_time = defaultdict(float), defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for sid, name, start, end, parent, op, creator in self.spans:
            if parent is not None:
                child[parent] += end - start
        for sid, name, start, end, parent, op, creator in self.spans:
            if op not in ops:
                continue
            dur = end - start
            self_time[name] += dur - child[sid]
            if name == _NODE:
                for n in set(creator):
                    bwd[n] += dur
                continue
            if not self._inside(parent, name):
                fwd[name] += dur
        return fwd, bwd, self_time

    def _inside(self, sid, name):
        """Whether span `sid` or one of its ancestors is named `name`."""
        while sid is not None:
            if self.spans[sid][1] == name:
                return True
            sid = self.spans[sid][4]
        return False

    def nested(self, ops, name, ancestor):
        """(fwd, bwd) seconds of the spans named `name` that run inside a span named `ancestor`."""
        ops = set(ops)
        fwd = bwd = 0.0
        for sid, n, start, end, parent, op, creator in self.spans:
            if op not in ops:
                continue
            if n == _NODE:
                if name in creator and ancestor in creator[: creator.index(name)]:
                    bwd += end - start
            elif n == name and self._inside(parent, ancestor) and not self._inside(parent, name):
                fwd += end - start
        return fwd, bwd

    def layer_rates(self, ops):
        """Per layer span name: firing rate of the layer's LIF over the given op ids."""
        ops = set(ops)
        fired = defaultdict(lambda: [0, 0])
        for (op, layer), (spikes, size) in self.layer_spikes.items():
            if op in ops:
                fired[layer][0] += spikes
                fired[layer][1] += size
        return {layer: spikes / size for layer, (spikes, size) in fired.items() if size}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, creator in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                if creator is not None:
                    rec["creator"] = list(creator)
                fh.write(json.dumps(rec) + "\n")
