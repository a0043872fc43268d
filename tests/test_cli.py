"""Command line behavior: output shape, exit codes, determinism."""

import json
import struct

import numpy as np
import pytest

from dualspike import cli, container, data, layers, model
from dualspike.cli import main
from dualspike.config import REGISTRY, canonical_model_text, config_digest, model_config_from_values, parse_config_text
from dualspike.data import SyntheticSpec, generate_split, load_dataset
from dualspike.model import build, load_checkpoint, save_checkpoint, serialize_checkpoint
from dualspike.tensor import mul

from conftest import calibrated_nano

TINY_TEXT = """\
# small model for command tests
in_channels = 2
input_height = 8
input_width = 8
num_classes = 3
time_steps = 2
stem_kernel = 3
stem_stride = 1
stem_padding = 1
stem_pool = false
stages = 8:2:2:8:64:1
epochs = 1
lr = 0.001
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_nano_summary(self, capsys):
        code, out, _ = run(capsys, "build", "--arch", "Nano")
        assert code == 0
        assert "arch: Nano" in out
        assert "parameters: 908074" in out
        assert f"config_digest: {config_digest(REGISTRY['Nano'])}" in out

    def test_table_lists_parameters(self, capsys):
        code, out, _ = run(capsys, "build", "--arch", "Nano", "--table")
        assert code == 0
        assert "stem.conv.weight" in out
        assert "classifier.fc.bias" in out

    def test_out_writes_loadable_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "nano.dskc")
        code, out, _ = run(capsys, "build", "--arch", "Nano", "--out", ckpt)
        assert code == 0 and ckpt in out
        assert load_checkpoint(ckpt).param_count() == 908074

    def test_config_file_equivalent_to_arch(self, capsys, tmp_path):
        path = tmp_path / "nano.cfg"
        path.write_text(canonical_model_text(REGISTRY["Nano"]))
        _, out_file, _ = run(capsys, "build", "--config", str(path))
        _, out_arch, _ = run(capsys, "build", "--arch", "Nano")
        digest = [l for l in out_file.splitlines() if l.startswith("config_digest")]
        assert digest == [l for l in out_arch.splitlines() if l.startswith("config_digest")]

    def test_missing_model_source_is_config_error(self, capsys):
        code, _, err = run(capsys, "build")
        assert code == 2
        assert "config error" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code, _, err = run(capsys, "build", "--config", str(path))
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize("command", ["build", "train", "audit"])
    def test_arch_beside_config_is_config_error(self, capsys, tiny_config, command):
        # the file says what to build; before, `--arch Ti` beside it was dropped without a word
        code, out, err = run(capsys, command, "--arch", "Ti", "--config", tiny_config)
        assert (code, out) == (2, "")
        assert err == "config error: --arch does not apply with --config, whose file gives the model's config\n"

    def test_bad_arch_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--arch", "XL"])
        assert exc.value.code == 2


class TestCountFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--arch", "Nano", "--time-steps", "0"],
            ["train", "--arch", "Nano", "--epochs", "0"],
            ["train", "--arch", "Nano", "--batch-size", "-2"],
            ["train", "--arch", "Nano", "--train-count", "0"],
            ["eval", "--checkpoint", "m.dskc", "--batch-size", "0"],
            ["eval", "--checkpoint", "m.dskc", "--test-count", "0"],
            ["audit", "--arch", "Nano", "--batch", "0"],
            ["audit", "--arch", "Nano", "--batch", "-1"],
            ["audit", "--arch", "Nano", "--batch", "two"],
            ["dataset", "--count", "0", "--out", "d.dsds"],
        ],
    )
    def test_counts_must_be_positive(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    def test_time_steps_override_applies(self, capsys, tmp_path, tiny_config):
        ckpt = tmp_path / "t1.dskc"
        code, _, _ = run(capsys, "build", "--config", tiny_config, "--time-steps", "1", "--out", str(ckpt))
        assert code == 0
        assert load_checkpoint(ckpt).config.time_steps == 1


def write_dataset(path, labels=(0, 0), **header):
    """A dataset container of one blank 2x8x8 image per label whose header holds `header` over valid values."""
    fields = {"count": len(labels), "classes": 3, "channels": 2, "height": 8, "width": 8, "coarse": 4, "noise": 0.3,
              "seed": 0}
    fields.update(header)
    arrays = np.asarray(labels, "<i8").tobytes() + np.zeros(len(labels) * 2 * 8 * 8, "<f4").tobytes()
    path.write_bytes(container.pack(data._MAGIC, data._VERSION, struct.pack(data._HEADER, *fields.values()) + arrays))


def write_checkpoint(path, edit):
    """A checkpoint of the TINY_TEXT model whose (config echo, rest of payload) bytes pass through `edit`."""
    payload = serialize_checkpoint(build(model_config_from_values(parse_config_text(TINY_TEXT))))[8:-4]
    (n,) = struct.unpack_from("<I", payload)
    echo, rest = edit(payload[4 : 4 + n], payload[4 + n :])
    path.write_bytes(container.pack(model._MAGIC, model._VERSION, struct.pack("<I", len(echo)) + echo + rest))


class TestBadInputs:
    @pytest.mark.parametrize("argv", [
        ["build", "--arch", "Nano", "--seed", "-1"],
        ["verify", "conv-equiv", "--seed", "-1"],
        ["train", "--arch", "Nano", "--seed", "-1"],
        ["train", "--arch", "Nano", "--data-seed", "-1"],
        ["eval", "--checkpoint", "m.dskc", "--data-seed", "-1"],
        ["audit", "--arch", "Nano", "--seed", "-1"],
        ["audit", "--arch", "Nano", "--data-seed", "-1"],
        ["dataset", "--count", "2", "--out", "d.dsds", "--data-seed", "-1"],
    ])
    def test_negative_seed_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a non-negative seed, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("command", ["train", "audit", "dataset"])
    def test_bad_noise_exits_two(self, capsys, tmp_path, tiny_config, command, noise):
        dest = tmp_path / "d.dsds"
        source = ["--count", "2", "--out", str(dest)] if command == "dataset" else ["--config", tiny_config]
        code, out, err = run(capsys, command, *source, f"--noise={noise}")
        assert (code, out) == (2, "")
        assert err.startswith("config error:") and f"noise must be finite and non-negative, got {noise}" in err
        assert not dest.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("argv, code, message", [
        (["eval", "--checkpoint", "{path}"], 1, "error: cannot read checkpoint"),
        (["audit", "--config", "{cfg}", "--dataset", "{path}"], 1, "error: cannot read dataset file"),
        (["build", "--config", "{path}"], 2, "config error: cannot read config file"),
    ], ids=["checkpoint", "dataset", "config"])
    def test_unreadable_input_file_is_one_line_error(self, capsys, tmp_path, tiny_config, kind, argv, code, message):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        got, out, err = run(capsys, *(a.format(path=path, cfg=tiny_config) for a in argv))
        assert (got, out) == (code, "")
        assert err.startswith(f"{message} {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["build", "--config", "{cfg}", "--out", "{bad}"],
        ["train", "--config", "{cfg}", "--out", "{bad}"],
        ["train", "--config", "{cfg}", "--log", "{bad}", "--out", "{kept}"],
        ["audit", "--config", "{cfg}", "--out", "{bad}"],
        ["verify", "conv-equiv", "--out", "{bad}"],
        ["dataset", "--count", "2", "--out", "{bad}"],
    ], ids=["build-out", "train-out", "train-log", "audit-out", "verify-out", "dataset-out"])
    def test_unwritable_output_path_is_one_line_error(self, capsys, monkeypatch, tmp_path, tiny_config, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the output paths were checked")

        for name in ("build", "generate_split", "run_suites"):
            monkeypatch.setattr(cli, name, no_work)
        bad, kept = tmp_path / "missing" / "out", tmp_path / "kept"  # `kept` passes its check before `bad` fails
        kept.write_bytes(b"an earlier run's output")
        paths = dict(cfg=tiny_config, bad=bad, kept=kept)
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {bad}: No such file or directory\n"
        assert kept.read_bytes() == b"an earlier run's output"

    def test_config_file_not_utf8_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(TINY_TEXT.encode() + b"# \xff\n")
        code, out, err = run(capsys, "build", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"config error: config file {path}: text is not valid UTF-8\n"

    @pytest.mark.parametrize("header, message", [
        ({"noise": float("nan")}, "noise must be finite and non-negative, got nan"),
        ({"classes": 1}, "need at least 2 classes, got 1"),
        ({"seed": -1}, "data seed must be non-negative, got -1"),
        ({"coarse": 0}, "coarse must be at least 1, got 0"),
        ({"channels": 0}, "channels must be at least 1, got 0"),
    ], ids=["nan-noise", "one-class", "negative-seed", "coarse-0", "channels-0"])
    def test_dataset_header_failing_a_check_exits_one(self, capsys, tmp_path, tiny_config, header, message):
        path = tmp_path / "bad.dsds"
        write_dataset(path, **header)
        code, out, err = run(capsys, "audit", "--config", tiny_config, "--dataset", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: dataset file {path}: header fails a check: {message}\n"

    @pytest.mark.parametrize("command", ["eval", "train", "audit"])
    @pytest.mark.parametrize("labels, message", [
        ((), " holds no images"),
        ((0, 3), ": labels must lie in [0, 3)"),
        ((-1, 2), ": labels must lie in [0, 3)"),
    ], ids=["no-images", "label-3-of-3-classes", "label-minus-1"])
    def test_dataset_without_images_or_with_bad_labels_exits_one(self, capsys, tmp_path, tiny_config, command,
                                                                  labels, message):
        # before, an empty file gave a NaN accuracy and a mislabelled one a silent accuracy from eval, both exit 0
        path, ckpt = tmp_path / "bad.dsds", str(tmp_path / "tiny.dskc")
        write_dataset(path, labels)
        assert run(capsys, "build", "--config", tiny_config, "--out", ckpt)[0] == 0
        model = ["--checkpoint", ckpt] if command == "eval" else ["--config", tiny_config]
        code, out, err = run(capsys, command, *model, "--dataset", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: dataset file {path}{message}\n"

    @pytest.mark.parametrize("command", ["eval", "audit"])
    @pytest.mark.parametrize("edit, message", [
        (lambda echo, rest: (echo.replace(b"tau = 2.0", b"tau = nan"), rest),
         "config echo fails a check: LIF tau must be finite, got nan"),
        (lambda echo, rest: (b"\xff" + echo, rest), "text is not valid UTF-8"),
        (lambda echo, rest: (echo, rest.replace(b"stem.conv.weight", b"\xfftem.conv.weight", 1)),
         "text is not valid UTF-8"),
        (lambda echo, rest: (echo.replace(b"num_classes = 3", b"num_classes = 7"), rest),
         "tensor classifier.fc.weight: shape (8, 3) != expected (8, 7)"),
        (lambda echo, rest: (echo, rest.replace(b"stem.conv.weight", b"stem.conv.weighx", 1)),
         "state name mismatch: missing=['stem.conv.weight'], unexpected=['stem.conv.weighx']"),
        (lambda echo, rest: (echo, rest.replace(b"attn.rate_x", b"attn.rate_y", 1)),
         "checkpoint lacks firing-rate EMA entries: ['stage1.block0.attn.rate_x']"),
        (lambda echo, rest: (echo, rest.replace(b"attn.rate_x" + struct.pack("<Bd", 0, 0.0),
                                                b"attn.rate_x" + struct.pack("<Bd", 1, 2.0))),
         "firing-rate EMA stage1.block0.attn.rate_x: value 2.0 must be finite and lie in [0, 1]"),
        (lambda echo, rest: (echo, rest.replace(b"attn.rate_attn" + struct.pack("<Bd", 0, 0.0),
                                                b"attn.rate_attn" + struct.pack("<Bd", 0, float("nan")))),
         "firing-rate EMA stage1.block0.attn.rate_attn: value nan must be finite and lie in [0, 1]"),
    ], ids=["nan-tau-echo", "non-utf8-echo", "non-utf8-tensor-name", "num-classes-7-echo", "renamed-tensor",
            "renamed-ema", "ema-value-2", "ema-value-nan"])
    def test_checkpoint_failing_a_check_exits_one(self, capsys, tmp_path, command, edit, message):
        path = tmp_path / "bad.dskc"
        write_checkpoint(path, edit)
        code, out, err = run(capsys, command, "--checkpoint", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: checkpoint {path}: {message}\n"


class TestVerify:
    def test_theorem1_overrides(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--fx", "0.5", "--m", "100",
                           "--samples", "30000")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        cases, summary = lines[:-1], lines[-1]
        assert len(cases) == 2
        assert all(c["predicted_variance"] == 50.0 for c in cases)
        assert summary == {"cases": 2, "failed": 0, "suites": ["theorem1"]}

    def test_stdout_is_deterministic(self, capsys):
        args = ("verify", "theorem1", "--fx", "0.3", "--m", "64", "--samples", "20000")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file_mirrors_cases(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        _, out, _ = run(capsys, "verify", "conv-equiv", "--out", str(path))
        stdout_rows = [json.loads(l) for l in out.strip().splitlines()][:-1]
        file_rows = [json.loads(l) for l in path.read_text().splitlines()]
        assert stdout_rows == file_rows
        assert all(r["passed"] for r in file_rows)

    @pytest.mark.parametrize("jobs", ["0", "-1", "17"])
    def test_jobs_range_enforced(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conv-equiv", "--jobs", jobs])
        assert exc.value.code == 2
        assert "jobs must lie in 1..16" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["theorem1", "scaling", "sdsa"])
    @pytest.mark.parametrize("samples", ["0", "15"])
    def test_samples_floor_enforced(self, capsys, suite, samples):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--samples", samples])
        assert exc.value.code == 2
        assert "need at least 16" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--fx", "1.5", "non-degenerate rate in (0, 1)"),
        ("--fx", "0", "non-degenerate rate in (0, 1)"),
        ("--fx", "nan", "non-degenerate rate in (0, 1)"),
        ("--fx", "abc", "invalid float value"),
        ("--m", "0", "m=0, need at least 1"),
        ("--m", "-3", "m=-3, need at least 1"),
    ])
    def test_grid_overrides_checked_at_parse(self, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theorem1", flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["scaling", "sdsa", "conv-equiv", "gradcheck"])
    @pytest.mark.parametrize("flag, value", [("--fx", "0.5"), ("--m", "100")])
    def test_grid_overrides_need_theorem1(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "verify", suite, flag, value)
        assert code == 2 and out == ""
        assert "override the theorem1 grid" in err

    def test_suite_choice_enforced(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2


class TestDataset:
    def test_writes_container(self, capsys, tmp_path):
        path = str(tmp_path / "d.dsds")
        code, out, _ = run(capsys, "dataset", "--count", "16", "--out", path)
        assert code == 0
        assert json.loads(out)["count"] == 16
        ds = load_dataset(path)
        ref = generate_split(SyntheticSpec(noise=0.3, seed=0), 16, "train")
        np.testing.assert_array_equal(ds.images, ref.images)
        np.testing.assert_array_equal(ds.labels, ref.labels)


class TestTrainEvalAudit:
    def test_train_then_eval(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "tiny.dskc")
        log = str(tmp_path / "log.jsonl")
        code, out, _ = run(
            capsys, "train", "--config", tiny_config, "--batch-size", "8",
            "--train-count", "12", "--test-count", "12", "--log", log, "--out", ckpt,
        )
        assert code == 0
        record = json.loads(out.strip().splitlines()[-1])
        assert record["epochs_run"] == 1  # epochs came from the config file
        assert not record["diverged"]
        assert 0.0 <= record["train_acc"] <= 1.0

        code, out, _ = run(capsys, "eval", "--checkpoint", ckpt, "--test-count", "12")
        assert code == 0
        assert json.loads(out)["count"] == 12

    def test_eval_of_trained_checkpoint_does_not_warn(self, capsys, tmp_path):
        ckpt = str(tmp_path / "calibrated.dskc")
        save_checkpoint(calibrated_nano(3), ckpt)
        code, out, err = run(capsys, "eval", "--checkpoint", ckpt, "--test-count", "4")
        assert code == 0
        assert json.loads(out)["count"] == 4
        assert err == ""

    def test_train_returns_one_when_target_missed(self, capsys, tiny_config):
        code, out, _ = run(
            capsys, "train", "--config", tiny_config, "--batch-size", "8",
            "--train-count", "12", "--test-count", "12", "--target-acc", "1.0",
        )
        record = json.loads(out.strip().splitlines()[-1])
        if record["train_acc"] < 1.0:
            assert code == 1
        else:  # a lucky perfect run still satisfies the contract
            assert code == 0

    def test_audit_batch_beyond_split_is_config_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "audit", "--arch", "Nano", "--batch", "8", "--test-count", "2")
        assert (code, out) == (2, "")
        assert "--batch 8 exceeds the 2 test images" in err
        path = str(tmp_path / "d.dsds")
        run(capsys, "dataset", "--count", "3", "--out", path)
        code, out, err = run(capsys, "audit", "--arch", "Nano", "--batch", "4", "--dataset", path)
        assert (code, out) == (2, "")
        assert "--batch 4 exceeds the 3 test images" in err

    def test_audit_totals_and_equivalence(self, capsys, tmp_path):
        rows_path = tmp_path / "audit.jsonl"
        code, out, _ = run(
            capsys, "audit", "--arch", "Nano", "--batch", "2",
            "--out", str(rows_path), "--check-equivalence",
        )
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        totals, equiv = lines
        assert totals["record"] == "totals"
        assert totals["sops_total"] >= 0
        np.testing.assert_allclose(
            totals["energy_mj_per_image"], totals["sops_giga_per_image"] * 0.9
        )
        assert equiv.pop("max_deviation") <= 1e-6
        # a fresh model's BN statistics silence its deep layers in eval mode
        silent = equiv.pop("silent_layers")
        stage3 = ["stage3.block0.attn.attn", "stage3.block0.attn.value", "stage3.block0.attn.proj",
                  "stage3.block0.ffn.ffl1", "stage3.block0.ffn.gwl", "stage3.block0.ffn.ffl2"]
        assert set(stage3 + ["classifier"]) <= set(silent)
        assert equiv == {"equivalence_passed": True, "tolerance": 1e-6, "failed_layers": []}
        file_rows = [json.loads(l) for l in rows_path.read_text().splitlines()]
        assert file_rows[-1]["record"] == "totals"
        assert sum(r.get("sops", 0) for r in file_rows[:-1]) == totals["sops_total"]

    def test_audit_rejects_model_flags_beside_checkpoint(self, capsys, tmp_path, tiny_config):
        # the checkpoint's config echo builds the model, so these flags would be ignored
        ckpt = str(tmp_path / "tiny.dskc")
        assert run(capsys, "build", "--config", tiny_config, "--out", ckpt)[0] == 0
        for flag in (["--arch", "Nano"], ["--config", tiny_config], ["--time-steps", "9"]):
            code, out, err = run(capsys, "audit", "--checkpoint", ckpt, *flag, "--batch", "1", "--test-count", "1")
            assert (code, out) == (2, ""), flag
            assert f"{flag[0]} does not apply with --checkpoint" in err
        code, out, _ = run(capsys, "audit", "--checkpoint", ckpt, "--batch", "1", "--test-count", "1")
        assert code == 0 and json.loads(out)["time_steps"] == 2

    def test_audit_rejects_seed_beside_checkpoint(self, capsys, tmp_path, tiny_config):
        # the seed only draws a fresh model's weights; a checkpoint holds its own
        ckpt = str(tmp_path / "tiny.dskc")
        assert run(capsys, "build", "--config", tiny_config, "--out", ckpt)[0] == 0
        code, out, err = run(capsys, "audit", "--checkpoint", ckpt, "--seed", "5", "--batch", "1", "--test-count", "1")
        assert (code, out) == (2, "")
        assert err == "config error: --seed does not apply with --checkpoint, which holds the model's config and state\n"

    def test_train_reads_config_seed_unless_flag_given(self, capsys, tmp_path, tiny_config):
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(TINY_TEXT + "seed = 7\n")

        def trained(config, *flags):
            ckpt = tmp_path / "m.dskc"
            argv = ["train", "--config", config, "--train-count", "2", "--test-count", "2", "--out", str(ckpt), *flags]
            assert run(capsys, *argv)[0] == 0
            return ckpt.read_bytes()

        from_file = trained(str(seeded))
        assert from_file == trained(tiny_config, "--seed", "7")
        assert trained(str(seeded), "--seed", "0") == trained(tiny_config) != from_file

    def test_audit_calibrated_checkpoint_has_no_silent_layers(self, capsys, tmp_path):
        ckpt = str(tmp_path / "calibrated.dskc")
        save_checkpoint(calibrated_nano(3), ckpt)
        code, out, err = run(capsys, "audit", "--checkpoint", ckpt, "--batch", "2", "--check-equivalence")
        assert code == 0
        assert err == ""
        equiv = json.loads(out.strip().splitlines()[-1])
        assert equiv["equivalence_passed"] is True
        assert equiv["silent_layers"] == []

    def test_audit_equivalence_failure_names_layers(self, capsys, monkeypatch):
        forward = layers.Conv2d.forward
        monkeypatch.setattr(layers.Conv2d, "forward", lambda self, x: mul(forward(self, x), 1.5))
        code, out, _ = run(capsys, "audit", "--arch", "Nano", "--batch", "1", "--check-equivalence")
        assert code == 1
        equiv = json.loads(out.strip().splitlines()[-1])
        assert equiv["equivalence_passed"] is False
        assert equiv["max_deviation"] > 1e-6
        assert "stage1.block0.ffn.gwl" in equiv["failed_layers"]
