"""Recorded task losses per workload and seed, and the tool that records them.

A run checks its first session's `task_loss` and `baseline_loss` against
`reference.json` when the seed is recorded there.  A change that is meant to
alter results (a bug fix in a decoder, say) records them again:

    python3 bench/reference.py --seeds 0-31

runs one full-size session per workload and seed, in this process, and
rewrites the table.
Say in CHANGES.md why the losses moved.
"""

import argparse
import json
import os
import shutil
import sys

FILE = "reference.json"


def load(bench_dir):
    path = os.path.join(bench_dir, FILE)
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def parse_seeds(text):
    """'0-9' or '0,3,7' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def main(argv=None):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(bench_dir), "src"))
    import workloads

    p = argparse.ArgumentParser(description="record task losses per workload and seed")
    p.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-31"))
    args = p.parse_args(argv)
    table = {}
    workdir = os.path.join(os.path.dirname(bench_dir), ".bench_work", f"reference-{os.getpid()}")
    try:
        for name in workloads.WORKLOADS:
            table[name] = {}
            for seed in args.seeds:
                wl = workloads.make(name, seed, workdir)
                wl.prepare()
                tally = workloads.Tally()
                out = wl.session(tally)
                if tally.failed:
                    print(f"{name} seed {seed}: {tally.errors}", file=sys.stderr)
                    return 1
                table[name][str(seed)] = {k: out[k] for k in ("task_loss", "baseline_loss")
                                          if k in out}
                print(name, seed, table[name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(bench_dir, FILE), "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
