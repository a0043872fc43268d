"""Optimizer, schedule, and the desk-scale training loop.

AdamW applies decoupled decay to synapse weights only; normalization
affine terms and biases are exempt. The loop logs one JSONL record per
epoch, aborts on non-finite loss by restoring the last finished epoch,
and can stop early once a frozen train-split evaluation clears a target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainConfig
from .data import Dataset, iter_batches
from .layers import RunContext
from .model import DualSpikeNet, save_checkpoint
from .ops import cross_entropy
from .tensor import ContractError, backward


class AdamW:
    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.01):
        if not params:
            raise ContractError("optimizer needs at least one parameter")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = 0.9, 0.999
        self.eps = 1e-8
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._decay = [p.name.endswith(".weight") for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0

    def step(self):
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, m, v, decayed in zip(self.params, self._m, self._v, self._decay):
            g = p.grad.astype(p.data.dtype, copy=False)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            update = (m / c1) / (np.sqrt(v / c2) + self.eps)
            if decayed and self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update


def cosine_lr(step: int, total_steps: int, base: float, minimum: float) -> float:
    if total_steps <= 1:
        return base
    frac = min(max(step, 0), total_steps - 1) / (total_steps - 1)
    return minimum + 0.5 * (base - minimum) * (1.0 + math.cos(math.pi * frac))


@dataclass
class TrainResult:
    epochs_run: int
    train_accuracy: float
    eval_accuracy: float | None
    diverged: bool
    stopped_early: bool
    history: list = field(default_factory=list)


def evaluate(model: DualSpikeNet, images, labels, batch_size: int = 64) -> float:
    preds = model.predict(images, batch_size=batch_size)
    return float((preds == np.asarray(labels)).mean())


def train(
    model: DualSpikeNet,
    train_ds: Dataset,
    cfg: TrainConfig,
    *,
    eval_ds: Dataset | None = None,
    log_path=None,
    checkpoint_path=None,
) -> TrainResult:
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.parameters(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    steps_per_epoch = math.ceil(len(train_ds) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch

    history = []
    log_fh = open(log_path, "w") if log_path else None

    def emit(record):
        history.append(record)
        if log_fh:
            log_fh.write(json.dumps(record, sort_keys=True) + "\n")
            log_fh.flush()

    snap = model.snapshot()
    ctx = RunContext(training=True)
    diverged = False
    stopped_early = False
    epochs_run = 0
    global_step = 0

    try:
        for epoch in range(cfg.epochs):
            losses = []
            correct = 0
            seen = 0
            for images, labels in iter_batches(train_ds.images, train_ds.labels, cfg.batch_size, rng):
                opt.lr = cosine_lr(global_step, total_steps, cfg.lr, cfg.lr_min)
                opt.zero_grad()
                logits = model.forward(images, ctx)
                loss = cross_entropy(logits, labels)
                loss_val = float(loss.item())
                if not np.isfinite(loss_val):
                    diverged = True
                    break
                backward(loss, free_graph=True)
                opt.step()
                losses.append(loss_val)
                correct += int((np.argmax(logits.data, axis=1) == labels).sum())
                seen += labels.shape[0]
                global_step += 1

            if diverged:
                model.load_state(*snap)
                emit({"record": "abort", "epoch": epoch, "reason": "non-finite loss; restored last finished epoch"})
                break

            epochs_run = epoch + 1
            snap = model.snapshot()
            rates = [e.value for e in model.rate_emas() if e.initialized]
            running_acc = correct / max(seen, 1)
            emit(
                {
                    "record": "epoch",
                    "epoch": epoch,
                    "lr": opt.lr,
                    "loss": float(np.mean(losses)) if losses else float("nan"),
                    "train_acc": running_acc,
                    "rate_mean": float(np.mean(rates)) if rates else None,
                    "rate_min": float(np.min(rates)) if rates else None,
                    "rate_max": float(np.max(rates)) if rates else None,
                }
            )

            if cfg.target_train_acc is not None and running_acc >= cfg.target_train_acc:
                frozen = evaluate(model, train_ds.images, train_ds.labels, cfg.batch_size)
                if frozen >= cfg.target_train_acc:
                    stopped_early = True
                    break

        # eval changes no state, so an early stop's frozen accuracy is the final one
        train_acc = frozen if stopped_early else evaluate(model, train_ds.images, train_ds.labels, cfg.batch_size)
        eval_acc = evaluate(model, eval_ds.images, eval_ds.labels, cfg.batch_size) if eval_ds is not None else None
        emit(
            {
                "record": "final",
                "epochs_run": epochs_run,
                "train_acc": train_acc,
                "eval_acc": eval_acc,
                "diverged": diverged,
                "stopped_early": stopped_early,
            }
        )
    finally:
        if log_fh:
            log_fh.close()

    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return TrainResult(
        epochs_run=epochs_run,
        train_accuracy=train_acc,
        eval_accuracy=eval_acc,
        diverged=diverged,
        stopped_early=stopped_early,
        history=history,
    )
