"""Spiking vision transformer with dual-spike self-attention.

Pure NumPy engine: LIF neurons with surrogate-gradient training, spike/spike
attention without softmax, firing-rate-calibrated scaling, a spike-driven
compute audit, and statistical verification suites.
"""

from .attention import (
    DSSAConfig,
    FiringRateEMA,
    MultiHeadDualSpikeAttention,
    attn_map_scale,
    dst_scale,
    output_scale,
    sdsa_scale,
)
from .audit import AuditReport, audit_model, estimate_energy, verify_spike_driven
from .config import (
    REGISTRY,
    ModelConfig,
    StageSpec,
    StemSpec,
    TrainConfig,
    config_digest,
    registry_config,
)
from .data import Dataset, SyntheticSpec, generate_split, load_dataset, save_dataset
from .ffn import GroupWiseFeedForward, GWSFFNConfig
from .layers import RunContext
from .model import DualSpikeNet, build, load_checkpoint, save_checkpoint
from .neuron import LIFParams, SurrogateSpec, lif_step, sn_forward, surrogate_grad
from .tensor import (
    CheckpointError,
    ConfigError,
    ContractError,
    EngineError,
    Parameter,
    ShapeError,
    SpikeTensor,
    Tensor,
    backward,
    no_grad,
)
from .training import AdamW, TrainResult, cosine_lr, evaluate, train
from .verification import (
    conv_equiv,
    dst_moments_mc,
    gradcheck,
    post_scale_variance,
    run_suites,
    sdsa_moments_mc,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AuditReport",
    "CheckpointError",
    "ConfigError",
    "ContractError",
    "DSSAConfig",
    "Dataset",
    "DualSpikeNet",
    "EngineError",
    "FiringRateEMA",
    "GWSFFNConfig",
    "GroupWiseFeedForward",
    "LIFParams",
    "ModelConfig",
    "MultiHeadDualSpikeAttention",
    "Parameter",
    "REGISTRY",
    "RunContext",
    "ShapeError",
    "SpikeTensor",
    "StageSpec",
    "StemSpec",
    "SurrogateSpec",
    "SyntheticSpec",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "attn_map_scale",
    "audit_model",
    "backward",
    "build",
    "config_digest",
    "conv_equiv",
    "cosine_lr",
    "dst_moments_mc",
    "dst_scale",
    "estimate_energy",
    "evaluate",
    "generate_split",
    "gradcheck",
    "lif_step",
    "load_checkpoint",
    "load_dataset",
    "no_grad",
    "output_scale",
    "post_scale_variance",
    "registry_config",
    "run_suites",
    "save_checkpoint",
    "save_dataset",
    "sdsa_moments_mc",
    "sdsa_scale",
    "sn_forward",
    "surrogate_grad",
    "train",
    "verify_spike_driven",
]
