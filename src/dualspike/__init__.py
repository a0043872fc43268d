"""Spiking vision transformer with dual-spike self-attention.

Pure NumPy engine: LIF neurons with surrogate-gradient training, spike/spike
attention without softmax, firing-rate-calibrated scaling, a spike-driven
compute audit, and statistical verification suites. The package top level
exports only `build`; every other name is imported from its module
(`dualspike.training`, `dualspike.audit`, ...).
"""

from .model import build

__version__ = "0.1.0"

__all__ = ["__version__", "build"]
