"""The one stage-name -> function map of the benchmark.

Per-layer metric names are `<module>.<stage>.<quantity>` and never change.
A refactor that moves or deletes a function edits the `targets` of its stage
here; `resolve()` runs at start-up and fails loudly on any target that no
longer exists, instead of reporting zeros.

Counts marked "computed" are derived from argument and result shapes (n^2
Gram entries, n^3/3 factor flop, 2 n^2 k solve flop, C*n exhaustive loss
evaluations), not read from hardware counters.
"""

import importlib
import re
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "surrloss"
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# -- observers: (tracer, target name, args, kwargs, result) -> None ---------

def _gram(tr, target, args, kwargs, result):
    tr.add("kernels.gram.entries", result.shape[0] * result.shape[0])  # computed


def _cross(tr, target, args, kwargs, result):
    tr.add("kernels.cross.entries", int(np.size(result)))  # computed


def _factor(tr, target, args, kwargs, result):
    n = result.order
    tr.add("kernels.factor.gflop", n ** 3 / 3.0 / 1e9)  # computed
    tr.add("kernels.factor.jitter_retries", int(result.jitter > 0))


def _solve(tr, target, args, kwargs, result):
    n = _arg(args, kwargs, 0, "factor").order
    k = 1 if np.ndim(result) == 1 else result.shape[1]
    tr.add("kernels.solve.rhs_cols", k)
    tr.add("kernels.solve.gflop", 2.0 * n * n * k / 1e9)  # computed


def _fit(tr, target, args, kwargs, result):
    if tr.inside("model_selection.cv"):
        tr.add("model_selection.cv.fold_fits", 1)


def _alpha(tr, target, args, kwargs, result):
    queries = result.shape[1] if isinstance(result, np.ndarray) else 1
    tr.add("surrogate.alpha.queries", queries)


def _scalar(tr, target, args, kwargs, result):
    spec = _arg(args, kwargs, 3, "spec")
    points = np.asarray(result[0])
    grid = np.linspace(-spec.bound, spec.bound, spec.grid_points)
    tr.add("decoders.scalar.queries", points.shape[0])
    tr.add("decoders.scalar.polish_wins", int(np.count_nonzero(~np.isin(points, grid))))
    tr.add("decoders.scalar.boundary_hits",
           int(np.count_nonzero(np.abs(points) >= spec.bound)))


def _polish(tr, target, args, kwargs, result):
    tr.add("decoders.scalar.polish_evals", int(np.size(_arg(args, kwargs, 0, "points"))))


def _exhaustive(tr, target, args, kwargs, result):
    candidates = _arg(args, kwargs, 0, "candidates")
    y_train = _arg(args, kwargs, 3, "y_train")
    tr.add("decoders.exhaustive.loss_evals", len(candidates) * len(y_train))  # computed


def _peel(tr, target, args, kwargs, result):
    tr.scratch["peel_order"] = np.asarray(result)


def _ranking(tr, target, args, kwargs, result):
    order = tr.scratch.pop("peel_order", None)
    if order is None:
        return
    peel_ranks = np.empty(order.shape[0], dtype=np.int64)
    peel_ranks[order] = np.arange(1, order.shape[0] + 1)
    tr.add("decoders.ranking.guard_wins", int(not np.array_equal(result, peel_ranks)))


def _guard(tr, target, args, kwargs, result):
    if target.endswith("ranking_objective"):
        tr.add("decoders.ranking.objective_calls", 1)


def _simplex(tr, target, args, kwargs, result):
    tr.add("decoders.simplex.queries", int(np.shape(result)[0]))


def _simplex_fallback(tr, target, args, kwargs, result):
    tr.add("decoders.simplex.fallbacks", 1)


def _experiments_cv(tr, target, args, kwargs, result):
    sigmas = _arg(args, kwargs, 2, "sigmas")
    lambdas = _arg(args, kwargs, 3, "lambdas")
    points = len(sigmas) * len(lambdas)
    if target.endswith("_robust_cv"):
        # Cauchy decoder over (sigma, lambda, gamma) plus KRR over (sigma, lambda).
        points *= len(_arg(args, kwargs, 4, "gammas")) + 1
    tr.add("experiments.cv.grid_points", points)  # computed


# -- the map ----------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """A layer boundary.

    `targets` are `module.attr` names inside the package.  A sub-stage
    reports only its self time, as `<name>_s`; a main stage reports
    `<name>.calls` and `<name>.self_s`.  A leaf keeps no spans.  `within`
    restricts recording to calls whose innermost open span is that stage.
    `metrics` lists the extra (name, unit, better) the observer produces.
    """

    name: str
    targets: tuple
    sub: bool = False
    leaf: bool = False
    within: str = None
    observe: object = None
    metrics: tuple = ()

    @property
    def calls_metric(self):
        return None if self.sub else f"{self.name}.calls"

    @property
    def time_metric(self):
        return f"{self.name}_s" if self.sub else f"{self.name}.self_s"


STAGES = (
    Stage("kernels.gram", ("kernels.gram_matrix",), observe=_gram,
          metrics=(("kernels.gram.entries", "count", "lower"),)),
    Stage("kernels.cross", ("kernels.cross_kernel", "kernels.cross_kernel_batch"),
          observe=_cross, metrics=(("kernels.cross.entries", "count", "lower"),)),
    Stage("kernels.factor", ("kernels.factor_shifted",), observe=_factor,
          metrics=(("kernels.factor.gflop", "GFLOP", "lower"),
                   ("kernels.factor.jitter_retries", "count", "lower"))),
    Stage("kernels.solve", ("kernels.solve_spd",), observe=_solve,
          metrics=(("kernels.solve.rhs_cols", "count", "lower"),
                   ("kernels.solve.gflop", "GFLOP", "lower"))),
    Stage("surrogate.fit", ("surrogate.fit",), observe=_fit),
    Stage("surrogate.alpha", ("surrogate.alpha_weights", "surrogate.alpha_weights_batch"),
          observe=_alpha, metrics=(("surrogate.alpha.queries", "count", "lower"),)),
    Stage("surrogate.save", ("surrogate.save_model",)),
    Stage("surrogate.load", ("surrogate.load_model",)),
    Stage("decoders.predict", ("decoders.predict",)),
    Stage("decoders.predict_batch", ("decoders.predict_batch",)),
    Stage("decoders.scalar", ("decoders.decode_scalar_grid_batch",), observe=_scalar,
          metrics=(("decoders.scalar.queries", "count", "lower"),
                   ("decoders.scalar.boundary_hits", "count", "lower"))),
    Stage("decoders.scalar.table", ("decoders._loss_matrix",), sub=True),
    Stage("decoders.scalar.polish", ("decoders._objective_batch",), sub=True,
          observe=_polish, metrics=(("decoders.scalar.polish_evals", "count", "lower"),)),
    Stage("decoders.exhaustive", ("decoders.decode_exhaustive",), observe=_exhaustive,
          metrics=(("decoders.exhaustive.loss_evals", "count", "lower"),)),
    Stage("decoders.ranking", ("decoders.decode_ranking_fas",), observe=_ranking,
          metrics=(("decoders.ranking.guard_wins", "count", "lower"),)),
    Stage("decoders.ranking.aggregate", ("decoders.aggregate_pair_costs",), sub=True),
    Stage("decoders.ranking.peel", ("accel.fas_peel",), sub=True, observe=_peel),
    Stage("decoders.ranking.guard", ("decoders.profile_sort_ranks", "decoders.ranking_objective"),
          sub=True, leaf=True, within="decoders.ranking", observe=_guard,
          metrics=(("decoders.ranking.objective_calls", "count", "lower"),)),
    Stage("decoders.simplex", ("decoders.decode_simplex_hellinger_batch",), observe=_simplex,
          metrics=(("decoders.simplex.queries", "count", "lower"),)),
    Stage("decoders.simplex.fallback", ("decoders.decode_simplex_hellinger",), sub=True,
          within="decoders.simplex", observe=_simplex_fallback,
          metrics=(("decoders.simplex.fallbacks", "count", "lower"),)),
    Stage("losses.rank_loss", ("losses.rank_loss",), leaf=True),
    Stage("losses.hellinger", ("losses.squared_hellinger",), leaf=True),
    Stage("model_selection.cv", ("model_selection.cross_validate",),
          metrics=(("model_selection.cv.fold_fits", "count", "lower"),)),
    Stage("experiments.run", ("experiments.run_robust_experiment",
                              "experiments.run_ranking_experiment",
                              "experiments.run_histogram_experiment")),
    Stage("experiments.cv", ("experiments._robust_cv", "experiments._histogram_cv"),
          observe=_experiments_cv, metrics=(("experiments.cv.grid_points", "count", "lower"),)),
    Stage("experiments.baseline", ("experiments.krr_predict_batch",
                                   "experiments._best_training_sort",
                                   "experiments._kde_decode_batch")),
    Stage("cli.train", ("cli.cmd_train",)),
    Stage("cli.predict", ("cli.cmd_predict",)),
    Stage("cli.read_dataset", ("cli.read_dataset",)),
    Stage("cli.write_predictions", ("cli.write_predictions",)),
)

# Ratios computed from summed totals over the traced sessions: (name, numerator, base).
RATIOS = (
    ("decoders.scalar.polish_win_ratio", "decoders.scalar.polish_wins", "decoders.scalar.queries"),
)

# Per-session figures of the traced run itself.
BENCH_METRICS = (
    ("bench.traced_wall_s", "s", "lower"),
    ("bench.untraced_wall_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.other_s", "s", "lower"),
    ("bench.spans", "count", "lower"),
)


def per_layer_catalogue(stages=STAGES):
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for stage in stages:
        if stage.calls_metric:
            out.append((stage.calls_metric, "count", "lower"))
        out.append((stage.time_metric, "s", "lower"))
        out.extend(stage.metrics)
    out.extend((name, "ratio", "higher") for name, _, _ in RATIOS)
    out.extend(BENCH_METRICS)
    return out


# Which end-to-end metric each layer should move, and on which workload.
LAYER_MAP = (
    ("kernels.gram", ("train_s", "predict_qps", "peak_rss_mb"), ("label-serve",)),
    ("kernels.cross", ("predict_qps", "predict_one_p50_ms"), ("label-serve",)),
    ("kernels.factor", ("wall_s",), ("robust-cv", "histogram-cv")),
    ("kernels.solve", ("wall_s",), ("robust-cv",)),
    ("kernels.solve", ("predict_one_p90_ms",), ("label-serve",)),
    ("surrogate.fit", ("train_s", "predict_qps"), ("label-serve",)),
    ("surrogate.alpha", ("train_s", "predict_qps"), ("label-serve",)),
    ("surrogate.save", ("train_s",), ("label-serve",)),
    ("surrogate.load", ("predict_qps",), ("label-serve",)),
    ("decoders.scalar", ("wall_s",), ("robust-cv",)),
    ("decoders.exhaustive", ("predict_qps", "predict_one_p50_ms"), ("label-serve",)),
    ("decoders.ranking", ("wall_s",), ("ranking-cv",)),
    ("decoders.simplex", ("wall_s",), ("histogram-cv",)),
    ("losses.rank_loss", ("wall_s",), ("ranking-cv",)),
    ("losses.hellinger", ("wall_s",), ("histogram-cv",)),
    ("model_selection.cv", ("wall_s",), ("ranking-cv",)),
    ("experiments.cv", ("wall_s",), ("robust-cv", "histogram-cv")),
    ("cli.read_dataset", ("train_s", "predict_qps"), ("label-serve",)),
    ("cli.write_predictions", ("predict_qps",), ("label-serve",)),
)


@dataclass(frozen=True)
class Target:
    name: str
    module: object
    attr: str
    func: object = field(repr=False)


class StageMapError(RuntimeError):
    pass


def resolve(stages=STAGES, package=PACKAGE):
    """Bind every target to the function its module holds now.

    Returns a list of (stage, targets).  Call before any tracer is
    installed, so the originals are captured.  Raises StageMapError naming
    every target that does not resolve.
    """
    missing, out = [], []
    for stage in stages:
        targets = []
        for name in stage.targets:
            mod_name, _, attr = name.rpartition(".")
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
                func = getattr(module, attr)
            except (ImportError, AttributeError) as e:
                missing.append(f"{stage.name}: {name} ({e})")
                continue
            if not callable(func):
                missing.append(f"{stage.name}: {name} is not callable")
                continue
            targets.append(Target(name, module, attr, func))
        out.append((stage, tuple(targets)))
    if missing:
        raise StageMapError("stage map does not resolve:\n  " + "\n  ".join(missing))
    return out
