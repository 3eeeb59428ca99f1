"""Command-line interface.

Subcommands: train, predict, cv, experiment {robust,ranking,histogram},
check {fisher,comparison,equivalence,consistency}.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 failed check.

`--config PATH` reads a JSON object of option values for the chosen
subcommand, keyed by option destination (`sigma`, `lam`, ...); flags on the
command line win over it.

CSV conventions (UTF-8, comma separator, '.' decimal, header row):
inputs are columns x0..xd; scalar targets a column y; label targets a column
y; rating profiles columns r0..r{M-1}; histograms columns p0..p{d-1}.
Predicted rankings are written as columns rank0..rank{M-1} (rank of item i,
1 = top).
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__, decoders, experiments, kernels, losses, model_selection, oracle, surrogate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _distinct(values):
    """A grid point given twice would be run twice and reported twice."""
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeats a value: {', '.join(map(str, values))}")
    return values


def _float_list(text):
    return _distinct(tuple(float(t) for t in text.split(",") if t.strip()))


def _int_list(text):
    values = tuple(int(t) for t in text.split(",") if t.strip())
    if not values:
        raise argparse.ArgumentTypeError("needs at least one value")
    return _distinct(values)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# CSV I/O

def _numbered(header, prefix):
    cols = [(int(name[len(prefix):]), i) for i, name in enumerate(header)
            if name.startswith(prefix) and name[len(prefix):].isdigit()]
    return [i for _, i in sorted(cols)]


def read_dataset(path, kind):
    """Returns (X, Y); Y is None when the file only carries inputs.

    Blank lines are skipped; a data row with fewer fields than the header is
    a ValueError naming the file and its 1-based line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        rows = []
        for row in reader:
            if not row:
                continue
            if rows and len(row) < len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"the header has {len(rows[0])}")
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: empty csv")
    header, data = rows[0], rows[1:]
    x_cols = _numbered(header, "x")
    if not x_cols:
        raise ValueError(f"{path}: no x0..xd input columns")
    X = np.array([[float(row[i]) for i in x_cols] for row in data])
    if kind == "scalar" or kind == "label":
        if "y" not in header:
            return X, None
        yc = header.index("y")
        if kind == "scalar":
            return X, np.array([float(row[yc]) for row in data])
        return X, [row[yc] for row in data]
    prefix = "r" if kind == "ratings" else "p"
    cols = _numbered(header, prefix)
    if not cols:
        return X, None
    Y = np.array([[float(row[i]) for i in cols] for row in data])
    return X, Y


def write_predictions(path, preds, kind):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        if kind in ("scalar", "label"):
            writer.writerow(["y"])
            for p in preds:
                writer.writerow([p])
        else:  # simplex histograms or rankings
            prefix, dtype = ("p", float) if kind == "simplex" else ("rank", int)
            preds = np.asarray(preds, dtype=dtype)
            writer.writerow([f"{prefix}{j}" for j in range(preds.shape[1])])
            writer.writerows(preds.tolist())


def _report(out, payload):
    payload = {"surrloss_version": __version__, **payload}
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


def _write_curve_csv(path, results):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["n", "method", "mean", "std"])
        for r in results:
            writer.writerow([r.n, r.method, r.metric_mean, r.metric_std])


# ---------------------------------------------------------------------------
# Subcommands

def _kernel_from_args(args):
    if args.kernel == "linear":
        return kernels.linear()
    return kernels.gaussian(args.sigma)


def cmd_train(args):
    X, Y = read_dataset(args.data, args.kind)
    if Y is None:
        raise ValueError("training csv has no target columns")
    surrogate.check_outputs(Y, args.kind)
    model = surrogate.fit(X, Y, _kernel_from_args(args), args.lam)
    surrogate.save_model(model, args.out, args.kind)
    print(f"saved model for {model.n} training points to {args.out} "
          f"(factor jitter {model.factor.jitter:g})")
    return EXIT_OK


_LOSSES = {"cauchy": lambda args: losses.Cauchy(args.gamma),
           "squared": lambda args: losses.SquaredError(),
           "absolute": lambda args: losses.AbsoluteError(),
           "zero_one": lambda args: losses.ZeroOne(),
           "hellinger": lambda args: losses.SquaredHellinger(),
           "rank": lambda args: losses.RankLoss()}


_DEFAULT_LOSS = {"scalar": "cauchy", "label": "zero_one",
                 "simplex": "hellinger", "ratings": "rank"}


def _decoder_from_outputs(Y, kind, args):
    if kind == "scalar":
        # The grid spans [-bound, bound]; a target outside it would be
        # predicted as the clipped bound, without a word.
        top = float(np.max(np.abs(Y)))
        if top > args.bound:
            raise ValueError(f"scalar targets reach max |y| = {top:g}, outside "
                             f"--bound {args.bound:g}; set --bound to at least {top:g}")
        return decoders.ScalarGrid(bound=args.bound, grid_points=args.grid_points,
                                   refine_iters=args.refine_iters)
    if kind == "label":
        return decoders.Exhaustive(sorted(set(Y)))
    if kind == "simplex":
        return decoders.SimplexHellinger()
    return decoders.RankingFas(items=np.asarray(Y).shape[1])


def cmd_predict(args):
    model, kind = surrogate.load_model(args.model)
    X, _ = read_dataset(args.data, kind)
    if args.loss is None:
        args.loss = _DEFAULT_LOSS[kind]
    loss = _LOSSES[args.loss](args)
    decoder = _decoder_from_outputs(model.Y, kind, args)
    preds = decoders.predict_batch(model, decoder, loss, X)
    write_predictions(args.out, preds, kind)
    print(f"wrote {len(X)} predictions to {args.out}")
    return EXIT_OK


def cmd_cv(args):
    X, Y = read_dataset(args.data, args.kind)
    if Y is None:
        raise ValueError("cv csv has no target columns")
    surrogate.check_outputs(Y, args.kind)
    if args.loss is None:
        args.loss = _DEFAULT_LOSS[args.kind]
    loss = _LOSSES[args.loss](args)
    scoring = losses.AbsoluteError() if args.kind == "scalar" else loss
    if args.kind == "ratings":
        scoring = losses.RankLoss(normalize=True)
    kernel_grid = (kernels.linear(),) if args.kernel == "linear" else tuple(
        kernels.gaussian(s) for s in args.sigmas)
    plan = model_selection.CvPlan(folds=args.folds, seed=args.seed,
                                  lambda_grid=args.lambdas,
                                  kernel_grid=kernel_grid, scoring=scoring)
    decoder = _decoder_from_outputs(Y, args.kind, args)
    report = model_selection.cross_validate(X, Y, plan, decoder, loss)
    rows = [{"kernel": surrogate.kernel_to_json(r.kernel), "lambda": r.lam,
             "mean": r.mean, "std": r.std} for r in report.rows]
    sel = report.selected
    _report(args.out, {
        "command": "cv",
        "config": {"kind": args.kind, "folds": args.folds, "seed": args.seed,
                   "loss": args.loss, "lambdas": list(args.lambdas)},
        "rows": rows,
        "selected": {"kernel": surrogate.kernel_to_json(sel.kernel), "lambda": sel.lam,
                     "mean": sel.mean, "std": sel.std},
    })
    return EXIT_OK


def _result_json(results):
    return [{"method": r.method, "n": r.n, "mean": r.metric_mean,
             "std": r.metric_std, "seeds": r.seeds, "wall_time_s": r.wall_time,
             "per_seed": r.per_seed} for r in results]


# Each experiment's own size option; the runner's default applies when unset.
_EXPERIMENT_SIZE = {"robust": "n_grid", "ranking": "items", "histogram": "dim"}


def _experiment_metadata(which):
    folds = experiments.FOLDS
    if which == "robust":
        return {"metric": "mean |f(x) - sin(6 pi x)| on a uniform "
                          f"{experiments.ROBUST_TEST_POINTS}-point grid",
                "cv": {"sigmas": list(experiments.ROBUST_SIGMAS),
                       "lambdas": list(experiments.ROBUST_LAMBDAS),
                       "gammas": list(experiments.ROBUST_GAMMAS), "folds": folds}}
    if which == "ranking":
        return {"metric": "mean normalized rank loss on held-out profiles",
                "cv": {"lambdas": list(experiments.RANKING_LAMBDAS), "folds": folds}}
    return {"metric": "mean squared Hellinger (dH) and Gaussian-kernel (dG) test losses",
            "cv": {"sigmas": list(experiments.HISTOGRAM_SIGMAS),
                   "lambdas": list(experiments.HISTOGRAM_LAMBDAS), "folds": folds}}


def cmd_experiment(args):
    stray = [f"--{dest.replace('_', '-')}" for which, dest in _EXPERIMENT_SIZE.items()
             if which != args.which and getattr(args, dest) is not None]
    if stray:
        raise ValueError(f"experiment {args.which} takes no {' or '.join(stray)}")
    dest = _EXPERIMENT_SIZE[args.which]
    size = {} if getattr(args, dest) is None else {dest: getattr(args, dest)}
    run = getattr(experiments, f"run_{args.which}_experiment")
    results = run(repetitions=args.reps, seed0=args.seed, **size)
    payload = {
        "command": f"experiment {args.which}",
        "config": {"seed": args.seed, "reps": args.reps, **size},
        "metadata": _experiment_metadata(args.which),
        "results": _result_json(results),
    }
    _report(args.out, payload)
    if args.curve:
        _write_curve_csv(args.curve, results)
    return EXIT_OK


# Each check's battery, which returns (report, passed), and its trials when
# --trials is not given; the batteries take no default.
_CHECKS = {"fisher": (oracle.fisher_battery, 50),
           "comparison": (oracle.comparison_battery, 1000),
           "equivalence": (oracle.equivalence_battery, 100),
           "consistency": (oracle.consistency_battery, 20)}


def cmd_check(args):
    battery, default_trials = _CHECKS[args.which]
    if args.trials is None:
        args.trials = default_trials
    rep, ok = battery(args.trials, seed=args.seed)
    _report(args.out, {"command": f"check {args.which}",
                       "config": {"trials": args.trials, "seed": args.seed},
                       "result": rep, "pass": bool(ok)})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------

def _add_decode_options(p):
    """The loss and scalar-grid options shared by `predict` and `cv`."""
    p.add_argument("--loss", choices=tuple(_LOSSES), default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--bound", type=float, default=3.0)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--refine-iters", type=int, default=40)


def build_parser():
    parser = _Parser(prog="surrloss", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("train", help="fit a model from csv data")
    p.add_argument("--in", dest="data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--kind", choices=surrogate.OUTPUT_KINDS, required=True)
    p.add_argument("--kernel", choices=("gaussian", "linear"), default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-2)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode predictions for csv queries")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="data", required=True)
    p.add_argument("--out", required=True)
    _add_decode_options(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("cv", help="cross-validate a hyperparameter grid")
    p.add_argument("--in", dest="data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--kind", choices=surrogate.OUTPUT_KINDS, required=True)
    p.add_argument("--kernel", choices=("gaussian", "linear"), default="gaussian")
    p.add_argument("--sigmas", type=_float_list, default=(0.1, 1.0, 10.0))
    p.add_argument("--lambdas", type=_float_list, default=(1e-4, 1e-2, 1.0))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_decode_options(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("experiment", help="run a synthetic experiment")
    p.add_argument("which", choices=("robust", "ranking", "histogram"))
    p.add_argument("--out", default=None)
    p.add_argument("--curve", default=None, help="csv path for the learning curve")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=_positive_int, default=20)
    p.add_argument("--n-grid", type=_int_list, default=None, help="robust only")
    p.add_argument("--items", type=int, default=None, help="ranking only")
    p.add_argument("--dim", type=int, default=None, help="histogram only")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("check", help="run a theory check battery")
    p.add_argument("which", choices=tuple(_CHECKS))
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_positive_int, default=None)
    p.set_defaults(func=cmd_check)
    return parser


def _apply_config(argv, parser):
    """Replace `--config PATH` by the options of the JSON object in PATH.

    Keys are option destinations of the selected subcommand (`sigma`, `lam`,
    `grid_points`, ...).  Each becomes its flag, placed right after the
    subcommand name, so argparse converts and checks the value and any flag
    given on the command line, which comes later, wins.  A key that is not an
    option of the subcommand is a usage error.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        parser.error("--config needs a path")
    with open(argv[i + 1], encoding="utf-8") as f:
        config = json.load(f)
    argv = argv[:i] + argv[i + 2:]
    if not isinstance(config, dict):
        parser.error("--config file must hold a JSON object")
    pos = next((j for j, a in enumerate(argv) if a in parser.commands), None)
    if pos is None:
        parser.error("--config needs a subcommand")
    sub = parser.commands[argv[pos]]
    flags = {a.dest: a.option_strings[-1] for a in sub._actions
             if a.option_strings and a.dest != "help"}
    unknown = sorted(set(config) - set(flags))
    if unknown:
        sub.error(f"config keys that are not options of {argv[pos]!r}: {', '.join(unknown)}")
    tokens = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        tokens += [flags[key], str(value)]
    return argv[:pos + 1] + tokens + argv[pos + 1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(argv, parser)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK
    except np.linalg.LinAlgError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RuntimeError as e:
        if isinstance(e.__cause__, np.linalg.LinAlgError):
            print(f"numerical failure: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
