"""Config schema: one key table drives parsing and the canonical text; malformed files exit 2."""

import dataclasses

import numpy as np
import pytest

from dualspike.cli import main
from dualspike.config import (
    REGISTRY,
    ModelConfig,
    StageSpec,
    StemSpec,
    canonical_model_text,
    config_digest,
    model_config_from_values,
    parse_config_text,
    train_config_from_values,
)
from dualspike.model import stage_sizes
from dualspike.neuron import NeuronSpec
from dualspike.tensor import ConfigError
from dualspike.verification import registry_patch_cases

from test_tracing import TWO_STAGE

# Checkpoints echo the canonical text and `load_checkpoint` rebuilds the model from it,
# so these digests may change only together with the checkpoint format.
DIGESTS = {
    "Nano": "b920022adc2f11aca4ae80ba39449905be4efa91b8db4de6748b428acd5bb9a8",
    "Ti": "474650e847d8ff00b3b06cb04c5113332dbd3ea8c011ac9fae0e1e4ae39521a3",
    "S": "0668d872a46d8d88bc64d9ef45501b7d3c450326878711ddd69a333cbe70308a",
    "M": "0291c79094bdf18eacbebaaab27b6e66b31b141a42467f46931e87c3645c6a49",
    "L": "43c43dd978a994d7d0dac5a1af58918faac5be450a73b5abda1f970eb7cc4448",
}

EVERY_KEY_TEXT = """\
input_height = 24
input_width = 16
in_channels = 2
num_classes = 5
time_steps = 3
stem_kernel = 5
stem_stride = 2
stem_padding = 2
stem_pool = true
stages = 16:2:2:8:32:1;24:3:1:4:32:2
tau = 3.5
threshold = 0.75
rest = -0.25
surrogate_kind = sigmoid-derivative
surrogate_width = 2.5
"""

EVERY_KEY_CONFIG = ModelConfig(
    name="custom",
    input_height=24,
    input_width=16,
    in_channels=2,
    num_classes=5,
    time_steps=3,
    stem=StemSpec(kernel=5, stride=2, padding=2, pool=True),
    stages=(
        StageSpec(d=16, heads=2, p=2, expansion=8, group_width=32, blocks=1),
        StageSpec(d=24, heads=3, p=1, expansion=4, group_width=32, blocks=2),
    ),
    neuron=NeuronSpec(tau=3.5, u_th=0.75, u_rest=-0.25, surrogate="sigmoid-derivative", width=2.5),
)


def _from_text(text):
    return model_config_from_values(parse_config_text(text))


@pytest.mark.parametrize("arch", sorted(DIGESTS))
def test_registry_digests_pinned(arch):
    assert config_digest(REGISTRY[arch]) == DIGESTS[arch]


@pytest.mark.parametrize("arch", sorted(REGISTRY))
def test_registry_round_trip(arch):
    cfg = REGISTRY[arch]
    back = _from_text(canonical_model_text(cfg))
    assert back == dataclasses.replace(cfg, name="custom")
    assert canonical_model_text(back) == canonical_model_text(cfg)


def test_every_key_digest_pinned():
    # every key off its default, so the neuron keys' canonical text is pinned beyond the registry's defaults
    assert config_digest(EVERY_KEY_CONFIG) == "56ed996cda1d60e3b18367f249b9a5d128d862c5e759136c3b2a3a3b3abcd42f"


def test_every_key_sets_its_field_and_round_trips():
    cfg = _from_text(EVERY_KEY_TEXT)
    assert cfg == EVERY_KEY_CONFIG
    assert _from_text(canonical_model_text(cfg)) == cfg
    keys = [line.split(" = ")[0] for line in canonical_model_text(cfg).splitlines()]
    assert keys == sorted(line.split(" = ")[0] for line in EVERY_KEY_TEXT.splitlines())


def test_arch_seeds_defaults_that_keys_override():
    cfg = _from_text("arch = Nano\nthreshold = 1.5\nstem_pool = true\n")
    nano = REGISTRY["Nano"]
    assert cfg == dataclasses.replace(
        nano,
        neuron=dataclasses.replace(nano.neuron, u_th=1.5),
        stem=dataclasses.replace(nano.stem, pool=True),
    )


def test_stage_spec_derived_widths():
    spec = StageSpec(d=192, heads=3, p=2, expansion=4, group_width=64)
    assert (spec.d_head, spec.hidden, spec.groups) == (64, 768, 12)
    # derived, not stored: the fields, and so the `stages` text and every digest, stay as they were
    assert [f.name for f in dataclasses.fields(StageSpec)] == ["d", "heads", "p", "expansion", "group_width", "blocks"]
    assert "stages = 192:3:2:4:64:1\n" in canonical_model_text(dataclasses.replace(EVERY_KEY_CONFIG, stages=(spec,)))


def test_stage_sizes():
    assert stage_sizes(REGISTRY["Ti"]) == [(56, 56), (28, 28), (14, 14)]
    assert stage_sizes(REGISTRY["Nano"]) == [(32, 32), (16, 16), (8, 8)]
    assert stage_sizes(TWO_STAGE) == [(4, 4), (2, 2)]
    assert stage_sizes(EVERY_KEY_CONFIG) == [(6, 4), (3, 2)]


def test_registry_patch_cases_pinned():
    assert registry_patch_cases() == [
        (8, 1, 128), (14, 1, 384), (14, 1, 512), (14, 1, 768), (14, 1, 1024),
        (16, 2, 64), (28, 2, 192), (28, 2, 256), (28, 2, 384), (28, 2, 512),
        (32, 4, 32), (56, 4, 64), (56, 4, 128),
    ]


# one line added to `arch = Nano`, and a fragment of the error it must give
MALFORMED = [
    ("stages = 32:1:4:4:64:x", "stage spec '32:1:4:4:64:x'"),
    ("stages = 32:1:4", "stage spec '32:1:4'"),
    ("stages = 32:0:4:4:64:1", "heads must be >= 1"),
    ("stages = 32:1:0:4:64:1", "p must be >= 1"),
    ("stages = 32:1:4:4:0:1", "group_width must be >= 1"),
    ("stages = 32:1:4:0:64:1", "expansion must be >= 1"),
    ("stages = 30:4:4:4:64:1", "stage width d=30 not divisible by heads=4"),
    ("stages = 32:1:4:3:64:1", "stage hidden width 96 not divisible by group width 64"),
    ("stem_stride = 0", "stride=0"),
    ("stem_kernel = 0", "kernel=0"),
    ("stem_padding = -1", "padding=-1"),
    ("stem_kernel = 99", "stage 1 stem: kernel 99"),
    ("input_height = 0", "stage 1 stem"),
    ("input_height = 30", "stage 1: patch size p=4"),
    ("tau = nan", "tau must be finite"),
    ("tau = inf", "tau must be finite"),
    ("threshold = inf", "u_th must be finite"),
    ("rest = -inf", "u_rest must be finite"),
    ("surrogate_width = nan", "surrogate width"),
]


@pytest.mark.parametrize("line,message", MALFORMED)
def test_malformed_config_is_config_error(line, message):
    with pytest.raises(ConfigError, match=message):
        stage_sizes(_from_text(f"arch = Nano\n{line}\n"))


@pytest.mark.parametrize("line,message", MALFORMED)
def test_malformed_config_file_exits_two(capsys, tmp_path, line, message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"arch = Nano\n{line}\n")
    code = main(["build", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["tau", "u_th", "u_rest"])
def test_lif_params_reject_non_finite(name, value):
    with pytest.raises(ConfigError, match="finite"):
        NeuronSpec(**{name: value})


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_surrogate_width_rejects_non_finite(value):
    with pytest.raises(ConfigError, match="finite"):
        NeuronSpec(width=value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["lr", "lr_min", "weight_decay", "target_train_acc"])
def test_train_config_text_rejects_non_finite(key, value):
    with pytest.raises(ConfigError, match=f"training {key} must be finite"):
        train_config_from_values(parse_config_text(f"{key} = {value}\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag,key", [("--lr", "lr"), ("--target-acc", "target_train_acc")])
def test_train_flags_reject_non_finite(capsys, flag, key, value):
    # a tiny run, so that a value the check lets through costs one short epoch
    code = main(["train", "--arch", "Nano", "--epochs=1", "--train-count=2", "--test-count=2", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and f"training {key} must be finite" in err


def test_train_config_text_rejects_negative_seed():
    with pytest.raises(ConfigError, match="training seed must be non-negative, got -1"):
        train_config_from_values(parse_config_text("seed = -1\n"))


@pytest.mark.parametrize("value", ["1.5", "-2.0", "1.0001", "-0.0001"])
def test_train_config_text_rejects_target_acc_out_of_range(value):
    with pytest.raises(ConfigError, match=r"training target_train_acc must lie in \[0, 1\]"):
        train_config_from_values(parse_config_text(f"target_train_acc = {value}\n"))


@pytest.mark.parametrize("value", ["0", "0.5", "1"])
def test_train_config_accepts_target_acc_in_range(value):
    cfg = train_config_from_values(parse_config_text(f"target_train_acc = {value}\n"))
    assert cfg.target_train_acc == float(value)


@pytest.mark.parametrize("value", ["1.5", "-2.0"])
def test_target_acc_flag_rejects_out_of_range(capsys, value):
    code = main(["train", "--arch", "Nano", "--epochs=1", "--train-count=2", "--test-count=2", f"--target-acc={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error:") and "training target_train_acc must lie in [0, 1]" in err
