"""Run every workload and print each metric by name and unit with its output checks.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--trace]

Each workload runs as its own `run.py` process, one after the other. With
`--trace` the traced run of each workload follows its timed run and the
per-layer metrics and the tracing overhead are printed too. Exits 1 if any
run failed or returned a wrong output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train", "predict", "audit-verify")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return None, None
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    report = next(r for r in lines if r.get("record") in ("report", "trace-report"))
    return report, lines[-1]


def show_checks(result, report):
    checks = report["checks"]
    print(f"  checks: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
          f" op_fail_share={checks['op_fail_share']:.4f}")
    for msg in checks["wrong_outputs"] + checks["op_errors"]:
        print(f"    - {msg}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", action="store_true", help="also run the traced run of each workload")
    args = p.parse_args(argv)

    ok = True
    for workload in WORKLOADS:
        report, result = run(workload, args.seed, args.seconds, 0)
        if report is None:
            ok = False
            continue
        print(f"== {workload} (seed {args.seed})")
        for name, m in report["metrics"].items():
            n = f"  n={m['n']}" if "n" in m else ""
            tail = f"  p{m['tail']['pct']}={m['tail']['value']:.4f}" if "tail" in m else ""
            print(f"  {name:26s} {m['value']:14.4f} {m['unit']:6s}{n}{tail}")
        for name, slot in report["slots"].items():
            m = result["metrics"][name]
            print(f"  {name:26s} {m['value']:14.4f} {m['unit']:6s}  ({slot})")
        show_checks(result, report)
        ok = ok and result["correct"]
        if not args.trace:
            continue
        report, result = run(workload, args.seed, args.seconds, 1)
        if report is None:
            ok = False
            continue
        print(f"== {workload} traced ({report['unit']})")
        for name, m in report["per_layer"].items():
            print(f"  {name:34s} {m['value']:16.4f} {m['unit']}")
        for key in ("step_shares", "overhead"):
            if key in report:
                print(f"  {key}: {json.dumps(report[key])}")
        if "sweep" in report:
            for size, row in report["sweep"].items():
                if size.startswith("b"):
                    print(f"  sweep {size}: {row['untraced_img_per_s']:.2f} img/s untraced")
            growth = list(report["sweep"]["growth_ms_per_image"].items())[:4]
            print(f"  ms/image growth b8 -> b64: {json.dumps(dict(growth))}")
        print(f"  layer rows and spans: {', '.join(report['files'])}")
        show_checks(result, report)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
