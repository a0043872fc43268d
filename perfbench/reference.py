"""Reference outputs per workload seed, and the script that records them.

    python3 perfbench/reference.py --seeds 0-15

Run from the root of a checkout. For each workload and seed it sets up a
fresh lane the way `run.py` does and stores what the workload's
`reference_output` returns: the train losses of the first steps, the
predicted classes of the 64 predict images, and the audit's `sops_total`.
`run.py` checks every op of a run against the entry for its seed, so an
optimisation that changes these outputs makes the run incorrect even when it
changes them the same way in every op. Seeds without an entry are checked
only against the run's own earlier ops. Re-record only when a change to the
outputs is intended, and say so where the change is described.
"""

import argparse
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent / "reference.json"


def load(workload, seed):
    """The recorded output for this workload and seed, or None."""
    with open(PATH) as fh:
        return json.load(fh)[workload].get(str(seed))


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="inclusive range, e.g. 0-15")
    args = p.parse_args(argv)

    import run

    nproc = run.prepare()
    import workloads

    table = {}
    for name in ("train", "predict", "audit-verify"):
        wl = workloads.make(name, nproc)
        table[name] = {}
        for seed in args.seeds:
            table[name][str(seed)] = wl.reference_output(wl.setup(seed))
            print(name, seed, flush=True)
    with open(PATH, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
