"""Check that two checkouts of this repository give the same results, seed by
seed.

    python3 tools/same_results.py OLD NEW [--seeds N]

OLD and NEW are directories that each hold a checkout (for instance the
parent commit, unpacked with `git archive` or `git clone`, and the working
tree).  For each checkout and each job below, a fresh Python process with that
checkout's `src` first on its path runs seeds 0..N-1 (default N = 32):

- robust, ranking, histogram: the experiment at the sizes of the benchmark's
  full-size session (`bench/workloads.py`, read-only), one repetition from
  seed0 = seed, and every method's `per_seed` values;
- sweep: `model_selection.sweep` over the robust, ranking and histogram
  experiments' kernel and lambda grids on their generated inputs, with a
  scorer that hashes every fold's training indices, columns and weight block.

The report gives, per job, how many seeds are equal (==) on both sides and
each seed that is not; the exit status is 1 if any seed differs.  It uses the
standard library and NumPy only and writes no file.
"""

import argparse
import json
import os
import subprocess
import sys

JOBS = ("robust", "ranking", "histogram", "sweep")

# Run in the child process: prints one JSON object {seed: result} for a job.
_CHILD = r"""
import hashlib, json, sys
import numpy as np
from surrloss import experiments as ex, kernels, model_selection
import workloads

job, seeds = sys.argv[1], range(int(sys.argv[2]))
runs = {"robust": ex.run_robust_experiment, "ranking": ex.run_ranking_experiment,
        "histogram": ex.run_histogram_experiment}


def sweep_hash(X, kernel_grid, lambdas, seed):
    h = hashlib.sha256()

    def score(tr, cols, A):
        for a in (tr, cols, A):
            h.update(np.ascontiguousarray(a).tobytes())
        return np.zeros(A.shape[1])

    model_selection.sweep(X, kernel_grid, lambdas, ex.FOLDS, seed, score)
    return h.hexdigest()


def gauss(sigmas):
    return [kernels.gaussian(s) for s in sigmas]


def result(seed):
    size = {name: workloads.WORKLOADS[name + "-cv"].sizes["full"] for name in runs}
    if job != "sweep":
        return {r.method: r.per_seed
                for r in runs[job](**size[job], repetitions=1, seed0=seed)}
    rob, rank, hist = size["robust"], size["ranking"], size["histogram"]
    return {
        "robust": sweep_hash(ex.gen_robust_data(rob["n_grid"][0], seed)[0],
                             gauss(ex.ROBUST_SIGMAS), ex.ROBUST_LAMBDAS, seed),
        "ranking": sweep_hash(ex.gen_ranking_data(rank["items"], rank["n_train"], seed)[0],
                              [kernels.linear()], ex.RANKING_LAMBDAS, seed),
        "histogram": sweep_hash(ex.gen_histogram_data(hist["dim"], hist["n_train"], seed)[0],
                                gauss(ex.HISTOGRAM_SIGMAS), ex.HISTOGRAM_LAMBDAS, seed),
    }


print(json.dumps({seed: result(seed) for seed in seeds}))
"""


def run_job(tree, job, seeds):
    """{seed: result} of one job, from a fresh process on `tree`'s sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, job, str(seeds)], env=env,
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{job} on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def differing_seeds(old, new):
    """The seeds, in order, whose results are not == on both sides."""
    return [seed for seed in old if old[seed] != new.get(seed)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seeds", type=int, default=32, help="run seeds 0..N-1")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    same = True
    for job in JOBS:
        old, new = (run_job(tree, job, args.seeds) for tree in (args.old, args.new))
        bad = differing_seeds(old, new)
        same &= not bad
        print(f"{job}: {args.seeds - len(bad)}/{args.seeds} seeds ==")
        for seed in bad:
            print(f"  seed {seed}: old {old[seed]} new {new[seed]}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
