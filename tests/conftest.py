import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dualspike
from dualspike import parallel, tensor
from dualspike.layers import RunContext
from dualspike.model import build
from dualspike.tensor import Tensor, backward


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fd_grad(fn, arrays, eps=1e-6):
    """Central finite-difference gradients of scalar fn w.r.t. each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = fn()
            flat[i] = orig - eps
            fm = fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * eps)
        grads.append(g)
    return grads


def engine_grads(build_loss, leaves):
    """Run backward on build_loss() and return grads in leaf order."""
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    backward(loss)
    return [leaf.grad.copy() for leaf in leaves]


def assert_grads_close(build_loss, leaves, atol=1e-7, rtol=1e-5):
    """Engine gradients must match finite differences on float64 leaves."""
    an = engine_grads(build_loss, leaves)
    fd = fd_grad(lambda: float(build_loss().item()), [l.data for l in leaves])
    for a, f, leaf in zip(an, fd, leaves):
        np.testing.assert_allclose(a, f, atol=atol, rtol=rtol, err_msg=f"gradient mismatch for leaf {leaf!r}")


SRC = str(Path(dualspike.__file__).resolve().parents[1])


def in_fresh_process(code):
    """Run `code` in a new interpreter that imports this checkout's package; returns the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def workers(monkeypatch, n):
    """Split pooled ops and chunk maps over `n` workers, as on an n-core machine. From 2 on, the pool
    is running on return, so OpenBLAS is already at the one thread it keeps for the rest of the process."""
    monkeypatch.setattr(parallel, "_usable_cores", lambda: n)
    if parallel.width() >= 2:
        parallel._started()


def calibrated_nano(seed):
    """Nano whose BN statistics and rate EMAs come from one no-grad train-mode forward at BN
    momentum 1, so every layer fires in eval mode (a fresh model's deep layers stay silent)."""
    model = build("Nano", seed=seed)
    states = model.bn_states()
    for s in states:
        s.momentum = 1.0
    images = np.random.default_rng(seed).standard_normal((8, 3, 32, 32)).astype(np.float32)
    with tensor.no_grad():
        model.forward(images, RunContext(training=True))
    for s in states:
        s.momentum = 0.1
    return model


def race(target, threads=4):
    """Run `target` on `threads` threads at once, switching between them every microsecond; all must finish."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=target) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
