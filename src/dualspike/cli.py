"""Command line front end.

Subcommands: build, train, eval, audit, verify. Output is deterministic for
fixed flags; JSON records are emitted with sorted keys. Exit codes: 0 on
success, 1 when a check or training target fails, 2 for configuration
errors (argparse uses 2 as well).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .audit import audit_model, verify_spike_driven
from .config import (
    TrainConfig,
    config_digest,
    load_config_file,
    model_config_from_values,
    registry_config,
    train_config_from_values,
)
from .data import SyntheticSpec, generate_split, load_dataset, save_dataset
from .model import build, load_checkpoint, save_checkpoint
from .tensor import CheckpointError, ConfigError, ContractError, EngineError
from .training import evaluate, train
from .verification import SUITES, check_fan_in, check_jobs, check_rate, check_samples, run_suites

_ARCHES = ("Ti", "S", "M", "L", "Nano")
_SPLIT_COUNTS = {"train": 320, "test": 160}  # default images of a generated split


def _checked(check, convert=int):
    """An argparse type that converts the text and holds it to a verification `check`; a breach exits 2."""

    def parse(text: str):
        try:
            return check(convert(text))
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value: 'abc'"
    return parse


def _int_at_least(low: int, what: str):
    """An argparse type for an integer of at least `low`; anything else exits 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative seed")


def _check_writable(*paths):
    """Fail before any work, naming the path, if an output path cannot be written.

    An existing file is opened for appending, so it is neither truncated nor removed.
    """
    for path in filter(None, paths):
        existed = os.path.exists(path)
        try:
            with open(path, "ab"):
                pass
        except OSError as exc:
            raise EngineError(f"cannot write {path}: {exc.strerror}") from None
        if not existed:
            os.remove(path)


def _print_json(obj):
    print(json.dumps(obj, sort_keys=True))


def _model_cfg(args):
    """Model config plus any train keys found in a config file."""
    if args.config and args.arch:
        raise ConfigError("--arch does not apply with --config, whose file gives the model's config")
    if args.config:
        values = load_config_file(args.config)
        cfg = model_config_from_values(values)
    elif args.arch:
        values = {}
        cfg = registry_config(args.arch)
    else:
        raise ConfigError("provide --arch or --config")
    if args.time_steps is not None:
        cfg = dataclasses.replace(cfg, time_steps=args.time_steps)
    return cfg, values


def _train_cfg(args, file_values) -> TrainConfig:
    cfg = train_config_from_values(file_values)
    flags = {
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "lr": args.lr,
        "seed": args.seed,
        "target_train_acc": args.target_acc,
    }
    return dataclasses.replace(cfg, **{field: val for field, val in flags.items() if val is not None})


def _dataset_for(args, cfg, split: str):
    """The --dataset file, checked against the model's input and classes, or a generated split."""
    if args.dataset:
        ds = load_dataset(args.dataset)
        image = (ds.spec.channels, ds.spec.height, ds.spec.width)
        expected = (cfg.in_channels, cfg.input_height, cfg.input_width)
        if image != expected:
            shapes = ["x".join(map(str, s)) for s in (image, expected)]
            raise CheckpointError(f"dataset file {args.dataset}: images are {shapes[0]}, the model takes {shapes[1]}")
        if ds.spec.classes > cfg.num_classes:
            raise CheckpointError(
                f"dataset file {args.dataset}: {ds.spec.classes} classes, more than the model's {cfg.num_classes}")
        return ds
    spec = SyntheticSpec(
        classes=cfg.num_classes,
        channels=cfg.in_channels,
        height=cfg.input_height,
        width=cfg.input_width,
        noise=args.noise,
        seed=args.data_seed,
    )
    return generate_split(spec, getattr(args, f"{split}_count"), split)


def cmd_build(args) -> int:
    cfg, _ = _model_cfg(args)
    _check_writable(args.out)
    model = build(cfg, seed=args.seed or 0)
    print(f"arch: {cfg.name}")
    print(f"config_digest: {config_digest(cfg)}")
    if args.table:
        for name, size in model.param_table():
            print(f"  {name}  {size}")
    print(f"parameters: {model.param_count()}")
    if args.out:
        save_checkpoint(model, args.out)
        print(f"checkpoint: {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg, file_values = _model_cfg(args)
    tcfg = _train_cfg(args, file_values)
    _check_writable(args.out, args.log)
    model = build(cfg, seed=tcfg.seed)
    train_ds = _dataset_for(args, cfg, "train")
    eval_ds = None if args.dataset else _dataset_for(args, cfg, "test")
    result = train(
        model,
        train_ds,
        tcfg,
        eval_ds=eval_ds,
        log_path=args.log,
        checkpoint_path=args.out,
    )
    _print_json(
        {
            "diverged": result.diverged,
            "epochs_run": result.epochs_run,
            "eval_acc": result.eval_accuracy,
            "stopped_early": result.stopped_early,
            "train_acc": result.train_accuracy,
        }
    )
    if result.diverged:
        return 1
    if tcfg.target_train_acc is not None and result.train_accuracy < tcfg.target_train_acc:
        return 1
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = _dataset_for(args, model.config, "test")
    acc = evaluate(model, ds.images, ds.labels, batch_size=args.batch_size)
    _print_json({"count": len(ds), "eval_acc": acc})
    return 0


def cmd_audit(args) -> int:
    _check_writable(args.out)
    if args.checkpoint:
        flags = (("--arch", args.arch), ("--config", args.config), ("--time-steps", args.time_steps),
                 ("--seed", args.seed))
        for flag, value in flags:
            if value is not None:
                raise ConfigError(f"{flag} does not apply with --checkpoint, which holds the model's config and state")
        model = load_checkpoint(args.checkpoint)
        cfg = model.config
    else:
        cfg, _ = _model_cfg(args)
        model = build(cfg, seed=args.seed or 0)
    ds = _dataset_for(args, cfg, "test")
    if args.batch > len(ds):
        raise ConfigError(f"--batch {args.batch} exceeds the {len(ds)} test images")
    images = ds.images[: args.batch]
    report = audit_model(model, images)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_jsonl())
    _print_json(report.totals_dict())
    if args.check_equivalence:
        eq = verify_spike_driven(model, images[: min(args.batch, 2)])
        _print_json({
            "equivalence_passed": eq.passed,
            "tolerance": eq.tolerance,
            "max_deviation": max((r["max_deviation"] for r in eq.rows), default=0.0),
            "failed_layers": [r["name"] for r in eq.rows if not r["passed"]],
            "silent_layers": [r["name"] for r in eq.rows if r["spikes"] == 0],
        })
        if not eq.passed:
            return 1
    return 0


def cmd_verify(args) -> int:
    if args.suite not in ("theorem1", "all") and (args.fx is not None or args.m is not None):
        raise ConfigError(f"--fx and --m override the theorem1 grid; suite {args.suite!r} has none")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    _check_writable(args.out)
    rows = run_suites(names, samples=args.samples, seed=args.seed, jobs=args.jobs, fx=args.fx, m=args.m)
    for row in rows:
        _print_json(row)
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    failed = [r for r in rows if not r["passed"]]
    _print_json({"cases": len(rows), "failed": len(failed), "suites": names})
    return 1 if failed else 0


def cmd_dataset(args) -> int:
    _check_writable(args.out)
    spec = SyntheticSpec(noise=args.noise, seed=args.data_seed)
    ds = generate_split(spec, args.count, args.split)
    save_dataset(args.out, ds)
    _print_json({"count": len(ds), "path": args.out, "split": args.split})
    return 0


def _add_model_flags(p):
    p.add_argument("--arch", choices=_ARCHES, help="registry architecture")
    p.add_argument("--config", help="config file (key = value lines)")
    p.add_argument("--time-steps", type=_positive_int, dest="time_steps")
    p.add_argument("--seed", type=_seed, help="weight seed (default 0; train: overrides the config file's seed)")


def _add_data_flags(p, *splits, dataset=True):
    """The synthetic data's --noise and --data-seed, the image count of each of `splits` the command
    generates, and --dataset where the command also reads a dataset file."""
    if dataset:
        p.add_argument("--dataset", help="dataset container file; omit for synthetic data")
    for split in splits:
        p.add_argument(f"--{split}-count", type=_positive_int, default=_SPLIT_COUNTS[split], dest=f"{split}_count")
    p.add_argument("--noise", type=float, default=0.3)
    p.add_argument("--data-seed", type=_seed, default=0, dest="data_seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualspike", description="Spiking attention network tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a model and report its size")
    _add_model_flags(p)
    p.add_argument("--table", action="store_true", help="print the per-parameter listing")
    p.add_argument("--out", help="write an initial checkpoint")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("train", help="train on a dataset")
    _add_model_flags(p)
    _add_data_flags(p, "train", "test")
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--batch-size", type=_positive_int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--target-acc", type=float, dest="target_acc")
    p.add_argument("--log", help="JSONL training log path")
    p.add_argument("--out", help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    _add_data_flags(p, "test")
    p.add_argument("--batch-size", type=_positive_int, default=64, dest="batch_size")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="spike-driven compute audit")
    _add_model_flags(p)
    _add_data_flags(p, "test")
    p.add_argument("--checkpoint")
    p.add_argument("--batch", type=_positive_int, default=4)
    p.add_argument("--out", help="JSONL per-layer rows")
    p.add_argument("--check-equivalence", action="store_true", dest="check_equivalence")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify", help="statistical and numerical verification")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--samples", type=_checked(check_samples), default=100_000,
                   help="Monte Carlo draws per case (at least 16)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=_checked(check_jobs), default=1,
                   help="most seed streams a Monte Carlo draw runs at once, on the worker threads (1-16)")
    p.add_argument("--fx", type=_checked(check_rate, float), help="override the firing-rate grid, in (0, 1) (theorem1)")
    p.add_argument("--m", type=_checked(check_fan_in), help="override the fan-in grid, at least 1 (theorem1)")
    p.add_argument("--out", help="JSONL case records")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dataset", help="write a synthetic dataset container")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    _add_data_flags(p, dataset=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dataset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
