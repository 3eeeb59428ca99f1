"""Check that two checkouts of this repository give the same results, seed by
seed.

    python3 tools/same_results.py OLD NEW [--seeds N]

OLD and NEW are directories that each hold a checkout (for instance the
parent commit, unpacked with `git archive` or `git clone`, and the working
tree).  For each checkout and each job below, a fresh Python process with that
checkout's `src` first on its path runs seeds 0..N-1 (default N = 32):

- robust, ranking, histogram: the experiment at the sizes of the benchmark's
  full-size session (`bench/workloads.py`, read-only), one repetition from
  seed0 = seed, and every method's `per_seed` values; robust also records,
  under "selections", what each `experiments._robust_cv` call of the run
  returned: [sigma, lambda, gamma] for the decoder and [sigma, lambda] for
  KRR;
- sweep: `model_selection.sweep` over the robust, ranking and histogram
  experiments' kernel and lambda grids on their generated inputs, with a
  scorer that hashes every fold's training indices, columns and weight block;
- cli: a matrix of `surrloss` commands, each run through `cli.main` in the
  one process on CSVs generated from the seed: train, predict and cv for
  every output kind with the Gaussian and the linear kernel, the scalar
  decode options, usage errors, the three experiments with `--curve`, the
  four checks at 2 trials (the comparison and consistency batteries are the
  main users of the labelled `ZeroOne` and of `FiniteTable`; consistency
  fails at 2 trials, exit 3, and that result is compared too), `--help` and
  `--version`.  Each
  gives its exit code (or the error it raised out of `cli.main`), its stdout
  and stderr (the temporary directory's path replaced by <tmp>) and the
  sha256 of each file it writes; an experiment report is hashed without its
  `wall_time_s` fields, which are timings.

The report gives, per job, how many seeds are equal (==) on both sides and,
for each seed that is not, each differing entry; the exit status is 1 if any
seed differs.  It uses the standard library and NumPy only, and writes only
in a temporary directory that the cli job removes.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

JOBS = ("robust", "ranking", "histogram", "sweep", "cli")

# The child process: this directory, then the checkout's src and bench, on its path.
_CHILD = "import sys, same_results; same_results.child(sys.argv[1], int(sys.argv[2]))"


def child(job, seeds):
    """Print one JSON object {seed: result} of `job` on seeds 0..seeds-1."""
    os.environ["COLUMNS"] = "80"  # argparse's help width
    run = {"sweep": _sweep_hashes, "cli": _cli_results}.get(job, _experiment)
    print(json.dumps({seed: run(job, seed) for seed in range(seeds)}))


def _full_size(name):
    import workloads  # bench/workloads.py, read-only
    return workloads.WORKLOADS[name + "-cv"].sizes["full"]


def _experiment(job, seed):
    from surrloss import experiments
    run = getattr(experiments, f"run_{job}_experiment")
    selections, robust_cv = [], experiments._robust_cv

    def recording(*args):
        (kernel, lam, gamma), (k_kernel, k_lam) = out = robust_cv(*args)
        selections.append([[kernel.sigma, lam, gamma], [k_kernel.sigma, k_lam]])
        return out

    experiments._robust_cv = recording
    try:
        result = {r.method: r.per_seed
                  for r in run(**_full_size(job), repetitions=1, seed0=seed)}
    finally:
        experiments._robust_cv = robust_cv
    return dict(result, selections=selections) if selections else result


def _sweep_hashes(job, seed):
    from surrloss import experiments as ex, kernels, model_selection

    def sweep_hash(X, kernel_grid, lambdas):
        h = hashlib.sha256()

        def score(tr, cols, A):
            for a in (tr, cols, A):
                h.update(np.ascontiguousarray(a).tobytes())
            return np.zeros(A.shape[1])

        model_selection.sweep(X, kernel_grid, lambdas, ex.FOLDS, seed, score)
        return h.hexdigest()

    def gauss(sigmas):
        return [kernels.gaussian(s) for s in sigmas]

    rob, rank, hist = (_full_size(name) for name in ("robust", "ranking", "histogram"))
    return {
        "robust": sweep_hash(ex.gen_robust_data(rob["n_grid"][0], seed)[0],
                             gauss(ex.ROBUST_SIGMAS), ex.ROBUST_LAMBDAS),
        "ranking": sweep_hash(ex.gen_ranking_data(rank["items"], rank["n_train"], seed)[0],
                              [kernels.linear()], ex.RANKING_LAMBDAS),
        "histogram": sweep_hash(ex.gen_histogram_data(hist["dim"], hist["n_train"], seed)[0],
                                gauss(ex.HISTOGRAM_SIGMAS), ex.HISTOGRAM_LAMBDAS),
    }


def _write_inputs(d, seed):
    """The CSVs and --config files of the cli matrix, generated from the seed:
    24 training rows of each output kind and 8 queries, two inputs each."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(32, 2))
    targets = {"scalar": (["y"], np.tanh(X[:24, :1] + 0.1 * rng.normal(size=(24, 1)))),
               "label": (["y"], np.array(["a", "b", "c"])[(X[:24] > 0).sum(axis=1)][:, None]),
               "simplex": (["p0", "p1", "p2"], rng.dirichlet(np.ones(3), size=24)),
               "ratings": (["r0", "r1", "r2", "r3"], rng.integers(1, 6, size=(24, 4)))}
    train = X[:24].tolist()
    tables = {f"{kind}.csv": (["x0", "x1"] + header, [x + y for x, y in zip(train, Y.tolist())])
              for kind, (header, Y) in targets.items()}
    tables["query.csv"] = (["x0", "x1"], X[24:].tolist())
    for name, (header, rows) in tables.items():
        with open(os.path.join(d, name), "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
    for name, text in (("empty.csv", ""), ("list.json", "[1, 2]"),
                       ("sigma.json", '{"sigma": 2.0}'), ("unknown.json", '{"gamma": 1.0}')):
        with open(os.path.join(d, name), "w", encoding="utf-8") as f:
            f.write(text)


def _cli_matrix(seed):
    """(name, argv, files it writes) of each command, in order: a predict reads
    the model that a train before it wrote.  {d} is the temporary directory."""
    m = []
    for kind in ("scalar", "label", "simplex", "ratings"):
        for kernel in ("gaussian", "linear"):
            tag = f"{kind}-{kernel}"
            m += [(f"train {tag}", ["train", "--in", f"{{d}}/{kind}.csv", "--kind", kind,
                                    "--kernel", kernel, "--out", f"{{d}}/{tag}.model"],
                   [f"{tag}.model"]),
                  (f"predict {tag}", ["predict", "--model", f"{{d}}/{tag}.model",
                                      "--in", "{d}/query.csv", "--out", f"{{d}}/{tag}.csv"],
                   [f"{tag}.csv"]),
                  (f"cv {tag}", ["cv", "--in", f"{{d}}/{kind}.csv", "--kind", kind,
                                 "--kernel", kernel, "--folds", "3", "--seed", str(seed),
                                 "--out", f"{{d}}/{tag}.cv.json"], [f"{tag}.cv.json"])]
    predict = ["predict", "--model", "{d}/scalar-gaussian.model", "--in", "{d}/query.csv",
               "--out", "{d}/scalar-option.csv"]
    for option in (["--loss", "squared"], ["--loss", "absolute"], ["--gamma", "0.5"],
                   ["--bound", "5", "--grid-points", "64", "--refine-iters", "3"]):
        m.append((f"predict scalar {' '.join(option)}", predict + option, ["scalar-option.csv"]))
    m.append(("cv scalar --loss absolute --sigmas 0.5,2",
              ["cv", "--in", "{d}/scalar.csv", "--kind", "scalar", "--loss", "absolute",
               "--sigmas", "0.5,2", "--out", "{d}/scalar-absolute.cv.json"],
              ["scalar-absolute.cv.json"]))
    train = ["train", "--kind", "scalar", "--out", "{d}/usage.model"]
    label = ["predict", "--model", "{d}/label-gaussian.model", "--in", "{d}/query.csv",
             "--out", "{d}/usage.csv"]
    for name, argv in (
            ("train without targets", train + ["--in", "{d}/query.csv"]),
            ("cv without targets", ["cv", "--in", "{d}/query.csv", "--kind", "label"]),
            ("train on an empty csv", train + ["--in", "{d}/empty.csv"]),
            ("train on a missing file", train + ["--in", "{d}/missing.csv"]),
            ("train linear --sigma", train + ["--in", "{d}/scalar.csv", "--kernel", "linear",
                                              "--sigma", "2"]),
            ("cv --folds 1", ["cv", "--in", "{d}/scalar.csv", "--kind", "scalar",
                              "--folds", "1"]),
            ("predict label --loss squared", label + ["--loss", "squared"]),
            ("predict label --bound", label + ["--bound", "5"]),
            ("predict ratings --gamma", ["predict", "--model", "{d}/ratings-linear.model",
                                         "--in", "{d}/query.csv", "--out", "{d}/usage.csv",
                                         "--gamma", "2"]),
            ("config without a path", train + ["--in", "{d}/scalar.csv", "--config"]),
            ("config not an object", train + ["--in", "{d}/scalar.csv",
                                              "--config", "{d}/list.json"]),
            ("config without a subcommand", ["--config", "{d}/sigma.json"]),
            ("config with an unknown key", train + ["--in", "{d}/scalar.csv",
                                                    "--config", "{d}/unknown.json"]),
            ("train with a config", train + ["--in", "{d}/scalar.csv",
                                             "--config", "{d}/sigma.json"]),
            ("no subcommand", []),
            ("an unknown kind", ["train", "--in", "{d}/scalar.csv", "--kind", "tree"])):
        m.append((name, argv, ["usage.model", "usage.csv"]))
    for which, size in (("robust", ["--n-grid", "20"]), ("ranking", []), ("histogram", [])):
        m.append((f"experiment {which}",
                  ["experiment", which, "--reps", "1", "--seed", str(seed), *size,
                   "--out", f"{{d}}/{which}.json", "--curve", f"{{d}}/{which}.curve.csv"],
                  [f"{which}.json", f"{which}.curve.csv"]))
    for which in ("equivalence", "fisher", "comparison", "consistency"):
        m.append((f"check {which}", ["check", which, "--trials", "2", "--seed", str(seed),
                                     "--out", f"{{d}}/{which}.json"], [f"{which}.json"]))
    return m + [(" ".join(argv), argv, [])
                for argv in (["--help"], ["--version"], ["train", "--help"])]


def _file_hash(path):
    """sha256 of the file, an experiment report without its timings; None if absent."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        data = f.read()
    if b'"wall_time_s"' in data:
        report = json.loads(data)
        for r in report["results"]:
            del r["wall_time_s"]
        data = json.dumps(report, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _cli_results(job, seed):
    from surrloss import cli
    d = tempfile.mkdtemp(prefix="same_results-")
    try:
        _write_inputs(d, seed)
        out = {}
        for name, argv, files in _cli_matrix(seed):
            for f in files:  # an output that a failing command leaves absent reads None
                if os.path.exists(os.path.join(d, f)):
                    os.remove(os.path.join(d, f))
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main([a.replace("{d}", d) for a in argv])
                except Exception as e:  # an error out of main is a result to compare
                    code = f"raised {type(e).__name__}: {e}".replace(d, "<tmp>")
            out[name] = {"code": code, "stdout": stdout.getvalue().replace(d, "<tmp>"),
                         "stderr": stderr.getvalue().replace(d, "<tmp>"),
                         "files": {f: _file_hash(os.path.join(d, f)) for f in files}}
        return out
    finally:
        shutil.rmtree(d)


def run_job(tree, job, seeds):
    """{seed: result} of one job, from a fresh process on `tree`'s sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.abspath(__file__)), os.path.join(tree, "src"),
         os.path.join(tree, "bench")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, job, str(seeds)], env=env,
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{job} on {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def differing_seeds(old, new):
    """The seeds, in order, whose results are not == on both sides."""
    return [seed for seed in old if old[seed] != new.get(seed)]


def differences(old, new):
    """(entry, old value, new value) of each entry of one seed's results that
    differs: per key when both results are dicts, else the whole result."""
    if not (isinstance(old, dict) and isinstance(new, dict)):
        return [("", old, new)]
    return [(f" [{key}]", old.get(key), new.get(key)) for key in dict.fromkeys([*old, *new])
            if old.get(key) != new.get(key)]


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
            for entry, was, now in differences(old[seed], new.get(seed)):
                print(f"  seed {seed}{entry}: old {was} new {now}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
