"""Command-line interface.

Subcommands: train, predict, cv, experiment {robust,ranking,histogram},
check {fisher,comparison,equivalence,consistency}.

Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 failed check.

`--config PATH` reads a JSON object of option values for the chosen
subcommand, keyed by option destination (`sigma`, `lam`, ...); flags on the
command line win over it.

CSV conventions (UTF-8, comma separator, '.' decimal, header row):
inputs are columns x0..x{d-1}; each output kind's row of `_KINDS` names its
target and prediction columns: y for scalars and labels, p0..p{d-1} for
histograms, and rating profiles r0..r{M-1} predicted as rank0..rank{M-1}
(rank of item i, 1 = top).  Numbered columns appear each exactly once, with
no gap, and y at most once.  A row that does not parse is an error naming
the file and its 1-based line.
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

def _numbered(path, header, prefix):
    """Positions of the columns prefix0..prefix{d-1}, [] if there are none;
    a gap or a repeat is a ValueError naming the file and the columns."""
    cols = sorted((int(name[len(prefix):]), i) for i, name in enumerate(header)
                  if name.startswith(prefix) and name[len(prefix):].isdigit())
    names = [header[i] for _, i in cols]
    if names != [f"{prefix}{k}" for k in range(len(cols))]:
        raise ValueError(f"{path}: columns {', '.join(names)} are not "
                         f"{prefix}0..{prefix}{len(cols) - 1}, each exactly once")
    return [i for _, i in cols]


def read_dataset(path, kind):
    """Returns (X, Y); Y is None when the file only carries inputs.

    Blank lines are skipped.  A header that names y more than once, a data
    row with fewer or more fields than the header, or a numeric cell that is
    not a number is a ValueError naming the file (and the row's 1-based line).
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"the header has {len(rows[0])}")
            rows.append(row)
            lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: empty csv")
    header, data = rows[0], rows[1:]
    if header.count("y") > 1:
        raise ValueError(f"{path}: the header names column y {header.count('y')} times")

    def floats(cols):
        try:
            return np.array([[float(row[i]) for i in cols] for row in data])
        except ValueError:  # find the bad cell only now
            for row, line in zip(data, lines[1:]):
                for i in cols:
                    try:
                        float(row[i])
                    except ValueError:
                        raise ValueError(f"{path}: line {line}: column {header[i]} holds "
                                         f"{row[i]!r}, which is not a number") from None
            raise

    x_cols = _numbered(path, header, "x")
    if not x_cols:
        raise ValueError(f"{path}: no x0..x{{d-1}} input columns")
    X = floats(x_cols)
    target = _KINDS[kind]["target"]
    if target != "y":
        cols = _numbered(path, header, target)
        return X, floats(cols) if cols else None
    if "y" not in header:
        return X, None
    yc = header.index("y")
    if kind == "scalar":
        return X, floats([yc]).reshape(-1)
    return X, [row[yc] for row in data]


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_predictions(path, preds, kind):
    column = _KINDS[kind]["prediction"]
    if column == "y":
        _write_csv(path, ["y"], ([p] for p in preds))
    else:
        preds = np.asarray(preds)
        _write_csv(path, [f"{column}{j}" for j in range(preds.shape[1])], preds.tolist())


def _report(out, payload):
    payload = {"surrloss_version": __version__, **payload}
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands

def _bandwidth(args, dest, default):
    """The --sigma or --sigmas value of a gaussian kernel, `default` when it is
    unset; None for the linear kernel, which takes neither."""
    value = getattr(args, dest)
    if args.kernel == "linear":
        if value is not None:
            raise ValueError(f"--kernel linear takes no --{dest}")
        return None
    return default if value is None else value


def _training_set(args):
    """(X, Y) of the csv `--in` for `--kind`, with Y checked for the kind
    (`surrogate.check_outputs`); a file without target columns is a
    ValueError naming it."""
    X, Y = read_dataset(args.data, args.kind)
    if Y is None:
        raise ValueError(f"{args.data}: no target columns")
    return X, surrogate.check_outputs(Y, args.kind)


def cmd_train(args):
    sigma = _bandwidth(args, "sigma", 1.0)
    kernel = kernels.linear() if sigma is None else kernels.gaussian(sigma)
    X, Y = _training_set(args)
    model = surrogate.fit(X, Y, kernel, args.lam)
    surrogate.save_model(model, args.out, args.kind)
    print(f"saved model for {model.n} training points to {args.out} "
          f"(factor jitter {model.factor.jitter:g})")
    return EXIT_OK


_LOSSES = {"cauchy": lambda args: losses.Cauchy(1.0 if args.gamma is None else args.gamma),
           "squared": lambda args: losses.SquaredError(),
           "absolute": lambda args: losses.AbsoluteError(),
           "zero_one": lambda args: losses.ZeroOne(),
           "hellinger": lambda args: losses.SquaredHellinger(),
           "rank": lambda args: losses.RankLoss()}
_SCALAR_OPTIONS = ("bound", "grid_points", "refine_iters")  # ScalarGrid's fields


def _scalar_decoder(Y, options):
    decoder = decoders.ScalarGrid(**options)
    # The grid spans [-bound, bound]; a target outside it would be
    # predicted as the clipped bound, without a word.
    top = float(np.max(np.abs(Y)))
    if top > decoder.bound:
        raise ValueError(f"scalar targets reach max |y| = {top:g}, outside "
                         f"--bound {decoder.bound:g}; set --bound to at least {top:g}")
    return decoder


def _label_order(label):
    """Sort key of a label's identity (`losses._hashable`): numbers, then
    strings, then sequences, element by element, then anything else (None)
    by its repr.  On the labels a blob can hold (JSON values) it is a total
    order, and sorted()'s order wherever sorted() can order them."""
    key = losses._hashable(label)
    if isinstance(key, tuple):
        return 2, tuple(map(_label_order, key))
    rank = 0 if isinstance(key, (int, float)) else 1 if isinstance(key, str) else 3
    return rank, repr(key) if rank == 3 else key


# Each kind's CSV target (y, or a numbered prefix) and prediction column, default --loss,
# decoder of the training outputs and set scalar options, and CV scoring loss (None: --loss).
_KINDS = {
    "scalar": dict(target="y", prediction="y", loss="cauchy", decoder=_scalar_decoder,
                   scoring=losses.AbsoluteError()),
    "label": dict(target="y", prediction="y", loss="zero_one", scoring=None, decoder=lambda Y, _:
                  decoders.Exhaustive(sorted(losses.group_outputs(Y)[0], key=_label_order))),
    "simplex": dict(target="p", prediction="p", loss="hellinger", scoring=None,
                    decoder=lambda Y, _: decoders.SimplexHellinger()),
    "ratings": dict(target="r", prediction="rank", loss="rank",
                    decoder=lambda Y, _: decoders.RankingFas(items=np.shape(Y)[1]),
                    scoring=losses.RankLoss(normalize=True)),
}


def _decoder_and_loss(Y, kind, args):
    """(decoder of the training outputs Y, decode loss: `--loss` or the kind's default);
    a decoder option that neither the kind's decoder nor the loss reads is a ValueError."""
    options = {dest: getattr(args, dest) for dest in _SCALAR_OPTIONS
               if getattr(args, dest) is not None}
    if options and kind != "scalar":
        raise ValueError(f"--{next(iter(options)).replace('_', '-')} applies only to "
                         f"scalar outputs, not {kind}")
    args.loss = args.loss or _KINDS[kind]["loss"]
    if kind == "label" and args.loss != "zero_one":  # Exhaustive would call it on the labels
        raise ValueError(f"--loss {args.loss} does not apply to label outputs; use zero_one")
    if args.loss != "cauchy" and args.gamma is not None:
        raise ValueError(f"--gamma applies only to --loss cauchy, not {args.loss}")
    loss = _LOSSES[args.loss](args)
    return _KINDS[kind]["decoder"](Y, options), loss


def cmd_predict(args):
    model, kind = surrogate.load_model(args.model)
    X, _ = read_dataset(args.data, kind)
    decoder, loss = _decoder_and_loss(model.Y, kind, args)
    preds = decoders.predict_batch(model, decoder, loss, X)
    write_predictions(args.out, preds, kind)
    print(f"wrote {len(X)} predictions to {args.out}")
    return EXIT_OK


def cmd_cv(args):
    sigmas = _bandwidth(args, "sigmas", (0.1, 1.0, 10.0))
    kernel_grid = (kernels.linear(),) if sigmas is None else tuple(map(kernels.gaussian, sigmas))
    X, Y = _training_set(args)
    if not 2 <= args.folds <= len(X):
        raise ValueError(f"--folds must be between 2 and the {len(X)} data rows, "
                         f"got {args.folds}")
    decoder, loss = _decoder_and_loss(Y, args.kind, args)
    report = model_selection.cross_validate(X, Y, kernel_grid, args.lambdas, args.folds,
                                            args.seed, decoder, loss,
                                            _KINDS[args.kind]["scoring"] or loss)
    rows = [{"kernel": surrogate.kernel_to_json(r.kernel), "lambda": r.lam,
             "mean": r.mean, "std": r.std} for r in report.rows]
    sel = report.selected
    config = {"kind": args.kind, "folds": args.folds, "seed": args.seed, "loss": args.loss,
              "kernels": [surrogate.kernel_to_json(k) for k in kernel_grid],
              "lambdas": list(args.lambdas)}
    if args.loss == "cauchy":
        config["gamma"] = loss.gamma
    if args.kind == "scalar":
        config.update({dest: getattr(decoder, dest) for dest in _SCALAR_OPTIONS})
    _report(args.out, {
        "command": "cv",
        "config": config,
        "rows": rows,
        "selected": {"kernel": surrogate.kernel_to_json(sel.kernel), "lambda": sel.lam,
                     "mean": sel.mean, "std": sel.std},
    })
    return EXIT_OK


def _result_json(results):
    return [{"method": r.method, "n": r.n, "mean": r.metric_mean,
             "std": r.metric_std, "seeds": r.seeds, "wall_time_s": r.wall_time,
             "per_seed": r.per_seed} for r in results]


# Each experiment's size option (unset: the runner's default), its least value, what the
# option is called and why, and the report's metric and cross-validation grid.
_EXPERIMENTS = {
    "robust": dict(size="n_grid", least=experiments.FOLDS, name="--n-grid sizes",
                   why="the experiment's cross-validation folds",
                   metric="mean |f(x) - sin(6 pi x)| on a uniform "
                          f"{experiments.ROBUST_TEST_POINTS}-point grid",
                   cv={"sigmas": experiments.ROBUST_SIGMAS, "lambdas": experiments.ROBUST_LAMBDAS,
                       "gammas": experiments.ROBUST_GAMMAS}),
    "ranking": dict(size="items", least=2, name="--items",
                    why="as a ranking orders two items or more",
                    metric="mean normalized rank loss on held-out profiles",
                    cv={"lambdas": experiments.RANKING_LAMBDAS}),
    "histogram": dict(size="dim", least=2, name="--dim", why="as a histogram has two bins or more",
                      metric="mean squared Hellinger (dH) and Gaussian-kernel (dG) test losses",
                      cv={"sigmas": experiments.HISTOGRAM_SIGMAS,
                          "lambdas": experiments.HISTOGRAM_LAMBDAS}),
}


def cmd_experiment(args):
    stray = [f"--{row['size'].replace('_', '-')}" for which, row in _EXPERIMENTS.items()
             if which != args.which and getattr(args, row["size"]) is not None]
    if stray:
        raise ValueError(f"experiment {args.which} takes no {' or '.join(stray)}")
    row = _EXPERIMENTS[args.which]
    value = getattr(args, row["size"])
    if value is not None and int(np.min(value)) < row["least"]:
        raise ValueError(f"{row['name']} must be at least {row['least']}, {row['why']}, "
                         f"got {int(np.min(value))}")
    size = {} if value is None else {row["size"]: value}
    run = getattr(experiments, f"run_{args.which}_experiment")
    results = run(repetitions=args.reps, seed0=args.seed, **size)
    _report(args.out, {
        "command": f"experiment {args.which}",
        "config": {"seed": args.seed, "reps": args.reps, **size},
        "metadata": {"metric": row["metric"], "cv": {**row["cv"], "folds": experiments.FOLDS}},
        "results": _result_json(results),
    })
    if args.curve:
        _write_csv(args.curve, ["n", "method", "mean", "std"],
                   ([r.n, r.method, r.metric_mean, r.metric_std] for r in results))
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
    """The loss and decoder options of `predict` and `cv`; None is the default."""
    p.add_argument("--loss", choices=tuple(_LOSSES), default=None)
    p.add_argument("--gamma", type=float, default=None, help="cauchy loss only; 1.0 when unset")
    p.add_argument("--bound", type=float, default=None, help="scalar only")
    p.add_argument("--grid-points", type=int, default=None, help="scalar only")
    p.add_argument("--refine-iters", type=int, default=None, help="scalar only")


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
    p.add_argument("--sigma", type=float, default=None, help="gaussian only")
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
    p.add_argument("--sigmas", type=_float_list, default=None, help="gaussian only")
    p.add_argument("--lambdas", type=_float_list, default=(1e-4, 1e-2, 1.0))
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_decode_options(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("experiment", help="run a synthetic experiment")
    p.add_argument("which", choices=tuple(_EXPERIMENTS))
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
    except (ValueError, OSError, RuntimeError) as e:  # LinAlgError is a ValueError
        numerical = isinstance(e, np.linalg.LinAlgError) or (
            isinstance(e, RuntimeError) and isinstance(e.__cause__, np.linalg.LinAlgError))
        print(f"{'numerical failure' if numerical else 'error'}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL if numerical else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
