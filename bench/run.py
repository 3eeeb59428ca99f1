"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload robust-cv --seed 0 --seconds 25 --trace 0

With --trace 0 the sessions run untraced and the last line of standard
output reports the end-to-end metrics listed in BENCHMARK.json.  With
--trace 1 untraced and traced sessions alternate, and the last line reports
the per-layer metrics.  The line before it, prefixed `detail: `, holds the
machine record, every metric of the workload with its unit, and the
failures seen.  See bench/README.md.

The program is imported from `src/` of the checkout this file sits in; the
run fails (exit code 2, no result) when that is missing.
"""

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, build the inputs and warm up, then exit; times set-up")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "surrloss", "__init__.py")):
        print(f"bench: no surrloss package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"bench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
