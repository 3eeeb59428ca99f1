"""The four benchmark workloads and their output checks.

Each workload builds its inputs from the seed, then runs identical sessions:
one session is one call of the paper experiment, or one train -> predict ->
serve cycle of the CLI.  Every call goes through a module attribute of the
package, so the tracer's wrappers see it.  A session reports the operations
it attempted and those that failed or failed an output check; an exception
inside an operation is counted, not raised.

Why each workload exists is the `why` of its entry in BENCHMARK.json.
"""

import contextlib
import csv
import io
import math
import os
import time

import numpy as np

from surrloss import cli, decoders, experiments, losses, surrogate

SIMPLEX_ATOL = 1e-9


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Tally:
    """Operations attempted and failed in one session."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    @contextlib.contextmanager
    def op(self, name):
        self.attempted += 1
        try:
            yield
        except Exception as e:  # counted against failed_frac, the run goes on
            self.fail(f"{name}: {type(e).__name__}: {e}")


class OutputCheck:
    """Wraps one module function for a session and checks every output."""

    def __init__(self, module, attr, check):
        self.module, self.attr, self.check = module, attr, check
        self.checked = 0
        self.bad = []

    @contextlib.contextmanager
    def installed(self):
        original = getattr(self.module, self.attr)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            for problem in self.check(args, kwargs, result):
                self.bad.append(problem)
            self.checked += 1
            return result

        setattr(self.module, self.attr, wrapper)
        try:
            yield self
        finally:
            setattr(self.module, self.attr, original)

    def require_clean(self):
        require(self.checked > 0, f"no call of {self.attr} was checked")
        require(not self.bad, f"{len(self.bad)} bad outputs, first: {self.bad[:1]}")


def _results(results):
    return {r.method: r for r in results}


def _finite_result(result):
    # The metric is a mean of |prediction - target| terms, so it is finite
    # exactly when every prediction is.
    values = [result.metric_mean, *result.per_seed]
    require(all(math.isfinite(v) for v in values), f"{result.method}: non-finite metric")
    return result.metric_mean


class Experiment:
    """Shared shape of the three experiment workloads."""

    name = None
    sizes = {}

    def __init__(self, seed, workdir, size="full"):
        self.kwargs = dict(self.sizes[size], repetitions=1, seed0=seed)

    def prepare(self):
        """The experiments generate their data from seed0 themselves."""

    def session(self, tally):
        out = {}
        with tally.op(self.name):
            out.update(self.run())
        return out


class RobustCv(Experiment):
    name = "robust-cv"
    sizes = {"full": {"n_grid": (300,)}, "tiny": {"n_grid": (40,)}}

    def run(self):
        res = _results(experiments.run_robust_experiment(**self.kwargs))
        return {"task_loss": _finite_result(res["alg1_cauchy"]),
                "baseline_loss": _finite_result(res["krr"])}


def _check_rankings(args, kwargs, result):
    decoder = args[1] if len(args) > 1 else kwargs["decoder"]
    if not isinstance(decoder, decoders.RankingFas):
        return []
    expected = np.arange(1, decoder.items + 1)
    return [f"not a permutation: {list(r)}" for r in result
            if not np.array_equal(np.sort(np.asarray(r)), expected)]


class RankingCv(Experiment):
    name = "ranking-cv"
    sizes = {"full": {"items": 8, "n_train": 80, "n_test": 40},
             "tiny": {"items": 5, "n_train": 20, "n_test": 8}}

    def run(self):
        check = OutputCheck(decoders, "predict_batch", _check_rankings)
        with check.installed():
            res = _results(experiments.run_ranking_experiment(**self.kwargs))
        check.require_clean()
        return {"task_loss": _finite_result(res["alg1_fas"]),
                "baseline_loss": _finite_result(res["best_train_sort"])}


def _check_simplex(args, kwargs, result):
    P = np.asarray(result, dtype=float)
    ok = (np.all(np.isfinite(P), axis=1) & np.all(P >= 0.0, axis=1)
          & (np.abs(P.sum(axis=1) - 1.0) <= SIMPLEX_ATOL))
    return [f"row {q} is off the simplex" for q in np.nonzero(~ok)[0]]


def _hellinger_objective(Y, alphas):
    """F(Y[i]) = sum_j alphas_j dH(Y[i], Y[j]) for every training row i."""
    R = np.sqrt(Y)
    D = ((R[:, None, :] - R[None, :, :]) ** 2).sum(axis=-1)
    return D @ alphas


class HistogramCv(Experiment):
    name = "histogram-cv"
    sizes = {"full": {"dim": 8, "n_train": 120, "n_test": 60},
             "tiny": {"dim": 4, "n_train": 25, "n_test": 10}}
    # The simplex decoder falls back to an exhaustive scan of the training
    # histograms when every b_j <= 0, which the experiment's data never
    # produces.  A session also decodes this many queries with all-negative
    # weights over this many training histograms, so the fallback runs.
    fallback = {"full": {"rows": 30, "queries": 2}, "tiny": {"rows": 10, "queries": 1}}

    def __init__(self, seed, workdir, size="full"):
        super().__init__(seed, workdir, size)
        self.seed = seed
        self.dim = self.sizes[size]["dim"]
        self.fallback_rows = self.fallback[size]["rows"]
        self.fallback_queries = self.fallback[size]["queries"]

    def prepare(self):
        _, self.Y_fallback = experiments.gen_histogram_data(self.dim, self.fallback_rows,
                                                            self.seed)
        rng = np.random.default_rng(self.seed)
        self.A_fallback = -rng.uniform(0.1, 1.0, size=(self.fallback_rows,
                                                       self.fallback_queries))

    def run(self):
        check = OutputCheck(decoders, "decode_simplex_hellinger_batch", _check_simplex)
        with check.installed():
            res = _results(experiments.run_histogram_experiment(**self.kwargs))
            P = decoders.decode_simplex_hellinger_batch(self.A_fallback, self.Y_fallback)
        check.require_clean()
        for q in range(self.fallback_queries):
            objective = _hellinger_objective(self.Y_fallback, self.A_fallback[:, q])
            rows = np.nonzero(np.all(self.Y_fallback == P[q], axis=1))[0]
            require(rows.size > 0, f"fallback query {q} is not a training histogram")
            best = objective.min()
            require(objective[rows[0]] - best <= 1e-9 * abs(best),
                    f"fallback query {q}: objective {objective[rows[0]]} > minimum {best}")
        return {"task_loss": _finite_result(res["alg1_hellinger:dH"]),
                "baseline_loss": _finite_result(res["kde_gaussian:dH"])}


def _quiet(argv):
    """cli.main with its console output captured; returns (code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().strip()


class LabelServe:
    """Train and batch-predict through the CLI, then serve single queries."""

    name = "label-serve"
    labels = 5
    dim = 8
    sizes = {"full": {"n": 1000, "queries": 300, "singles": 100},
             "tiny": {"n": 120, "queries": 40, "singles": 10}}
    # Gaussian kernel exp(-|x - x'|^2 / sigma): sigma near the within-cluster
    # squared distance (2 * dim for unit noise).
    train_args = ["--kernel", "gaussian", "--sigma", "16", "--lambda", "1e-3"]

    def __init__(self, seed, workdir, size="full"):
        self.seed = seed
        self.workdir = workdir
        sizes = self.sizes[size]
        self.n, self.queries, self.singles = sizes["n"], sizes["queries"], sizes["singles"]
        self.train_csv = os.path.join(workdir, "train.csv")
        self.query_csv = os.path.join(workdir, "query.csv")
        self.model_json = os.path.join(workdir, "model.json")
        self.pred_csv = os.path.join(workdir, "pred.csv")

    def prepare(self):
        rng = np.random.default_rng(self.seed)
        centers = rng.normal(0.0, 2.0, size=(self.labels, self.dim))
        y_train = rng.integers(0, self.labels, size=self.n)
        X_train = centers[y_train] + rng.normal(size=(self.n, self.dim))
        y_query = rng.integers(0, self.labels, size=self.queries)
        self.X_query = centers[y_query] + rng.normal(size=(self.queries, self.dim))
        self.truth = [f"c{k}" for k in y_query]
        self.train_labels = {f"c{k}" for k in y_train}
        os.makedirs(self.workdir, exist_ok=True)
        header = [f"x{j}" for j in range(self.dim)]
        with open(self.train_csv, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(header + ["y"])
            for x, k in zip(X_train, y_train):
                w.writerow([repr(float(v)) for v in x] + [f"c{k}"])
        with open(self.query_csv, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows([[repr(float(v)) for v in x] for x in self.X_query])

    def session(self, tally):
        out = {}
        preds = None
        with tally.op("cli train"):
            t0 = time.perf_counter()
            code, err = _quiet(["train", "--in", self.train_csv, "--out", self.model_json,
                                "--kind", "label", *self.train_args])
            out["train_s"] = time.perf_counter() - t0
            require(code == 0, f"exit code {code}: {err}")
        with tally.op("cli predict"):
            t0 = time.perf_counter()
            code, err = _quiet(["predict", "--model", self.model_json, "--in", self.query_csv,
                                "--out", self.pred_csv])
            out["predict_s"] = time.perf_counter() - t0
            require(code == 0, f"exit code {code}: {err}")
            with open(self.pred_csv, newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))
            require(rows and rows[0] == ["y"], "prediction csv has no y header")
            preds = [row[0] for row in rows[1:]]
            require(len(preds) == self.queries, f"{len(preds)} predictions for {self.queries} rows")
            unseen = set(preds) - self.train_labels
            require(not unseen, f"labels never seen in training: {sorted(unseen)}")
            out["task_loss"] = sum(p != t for p, t in zip(preds, self.truth)) / self.queries
        model = None
        with tally.op("load_model"):
            t0 = time.perf_counter()
            model, kind = surrogate.load_model(self.model_json)
            out["load_s"] = time.perf_counter() - t0
            require(kind == "label", f"model kind {kind!r}")
        decoder = decoders.Exhaustive(sorted(set(model.Y))) if model is not None else None
        loss = losses.ZeroOne()
        one_ms = []
        for q in range(self.singles):
            with tally.op("predict one"):
                require(model is not None and preds is not None, "no model or batch predictions")
                t0 = time.perf_counter()
                y = decoders.predict(model, decoder, loss, self.X_query[q])
                one_ms.append(1000.0 * (time.perf_counter() - t0))
                require(y == preds[q], f"row {q}: single {y!r} != batch {preds[q]!r}")
        out["one_ms"] = one_ms
        return out


WORKLOADS = {w.name: w for w in (RobustCv, LabelServe, RankingCv, HistogramCv)}


def make(name, seed, workdir, size="full"):
    return WORKLOADS[name](seed, workdir, size)


def warmup(name, seed, workdir):
    """One untimed session at tiny size: loads BLAS and touches every code path."""
    wl = make(name, seed, os.path.join(workdir, "warmup"), "tiny")
    wl.prepare()
    tally = Tally()
    wl.session(tally)
    if tally.failed:
        raise RuntimeError(f"warm-up of {name} failed: {tally.errors[:3]}")
