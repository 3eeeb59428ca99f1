"""Deterministic k-fold cross-validation over kernel and lambda grids.

Scoring uses the task loss on held-out folds.  Selection (`select_best`) takes
the minimal mean validation loss; exact ties prefer the largest lambda (most
regularized), then kernel-grid order.  Folds and grid points may be evaluated
in any order; aggregation is by index, so the report is independent of
execution order.
"""

from dataclasses import dataclass

import numpy as np

from . import decoders, surrogate


@dataclass(frozen=True)
class CvPlan:
    folds: int
    seed: int
    lambda_grid: tuple
    kernel_grid: tuple
    scoring: object  # loss callable (y_true_output, predicted) -> float

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("need at least 2 folds")
        if len(self.lambda_grid) == 0 or len(self.kernel_grid) == 0:
            raise ValueError("grids must be non-empty")
        if any(l <= 0 for l in self.lambda_grid):
            raise ValueError("lambdas must be positive")


@dataclass(frozen=True)
class CvRow:
    kernel: object
    lam: float
    mean: float
    std: float


@dataclass(frozen=True)
class CvReport:
    rows: list
    selected: CvRow


def kfold_split(n, k, seed):
    """k disjoint index arrays partitioning range(n), sizes differing by <= 1."""
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, k)]


def _score_fold(Xtr, Ytr, Xva, Yva, kernel, lam, decoder, loss, scoring):
    model = surrogate.fit(Xtr, Ytr, kernel, lam)
    preds = decoders.predict_batch(model, decoder, loss, Xva)
    vals = [scoring(pred, yv) for pred, yv in zip(preds, _iter_outputs(Yva))]
    return float(np.mean(vals))


def _iter_outputs(Y):
    if isinstance(Y, np.ndarray) and Y.ndim == 2:
        return [Y[i] for i in range(Y.shape[0])]
    return list(Y)


def _take_outputs(Y, idx):
    if isinstance(Y, np.ndarray):
        return Y[idx]
    return [Y[i] for i in idx]


def cross_validate(X, Y, plan, decoder, loss):
    """Mean/std held-out loss for every (kernel, lambda) grid point.

    `loss` parameterizes the decoder (it is what `predict` minimizes);
    `plan.scoring` is the loss used to score validation predictions.
    Any fit failure propagates annotated with its grid point.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = X.shape[0]
    folds = kfold_split(n, plan.folds, plan.seed)
    all_idx = np.arange(n)
    rows = []
    for kernel in plan.kernel_grid:
        for lam in plan.lambda_grid:
            scores = []
            for f, va in enumerate(folds):
                tr = np.setdiff1d(all_idx, va)
                try:
                    s = _score_fold(
                        X[tr], _take_outputs(Y, tr), X[va], _take_outputs(Y, va),
                        kernel, lam, decoder, loss, plan.scoring,
                    )
                except Exception as e:
                    raise RuntimeError(
                        f"cv failure at kernel={kernel}, lambda={lam}, fold={f}: {e}"
                    ) from e
                scores.append(s)
            scores = np.asarray(scores)
            rows.append(CvRow(kernel=kernel, lam=float(lam),
                              mean=float(scores.mean()), std=float(scores.std())))
    return CvReport(rows=rows, selected=select_best((r.mean, r.lam, r) for r in rows))


def select_best(points):
    """The choice of lowest mean; exact ties prefer the larger lambda (most
    regularized), then the earlier point.

    `points` yields (mean, lambda, choice) in the caller's grid order, which
    settles full ties.  Every CV sweep in the package selects through here.
    """
    return min(points, key=lambda p: (p[0], -p[1]))[2]
