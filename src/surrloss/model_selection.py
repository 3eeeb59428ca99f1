"""Deterministic k-fold cross-validation over kernel and lambda grids.

There is one CV engine, `sweep`.  The held-out weights
A = (K + n_tr*lambda*I)^-1 K_x depend only on (kernel, lambda, fold), not on
the loss or the decoder, so for each (kernel, fold) the sweep builds the Gram
and cross-kernel matrices once and takes every lambda's A from one `eigh`
(`kernels.ridge_path`).  A caller's `score` closure decodes each A and
returns one fold score per method, so one sweep serves every method that
shares the grid.  Selection (`select_best`) takes the minimal mean validation
loss; exact ties prefer the largest lambda (most regularized), then grid
order.
"""

from dataclasses import dataclass

import numpy as np

from . import decoders, kernels


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
        if not all(0 < l < np.inf for l in self.lambda_grid):
            raise ValueError("lambdas must be positive and finite")


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


def fold_splits(n, k, seed):
    """(train, validation) sorted index arrays for each of `kfold_split`'s folds."""
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, va), va) for va in kfold_split(n, k, seed)]


def sweep(X, kernel_grid, lambdas, folds, seed, score):
    """Fold scores at every (kernel, lambda, fold) of a k-fold sweep.

    `score(fold, tr, va, A)` gets the fold's index, its train and validation
    index arrays and the (n_tr, n_va) held-out weights for one lambda, and
    returns one score per method.  A caller that needs per-fold tables (which
    depend on the fold's outputs only) builds them up front from
    `fold_splits(n, folds, seed)` and indexes them by `fold`.  Returns a
    (kernels, lambdas, folds, methods) array.  Any failure is re-raised as a
    RuntimeError naming its grid point and caused by the original exception.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    splits = fold_splits(X.shape[0], folds, seed)
    scores = []
    for kernel in kernel_grid:
        for fi, (tr, va) in enumerate(splits):
            at = f"kernel={kernel}, fold={fi}"
            try:
                K = kernels.gram_matrix(kernel, X[tr])
                KX = kernels.cross_kernel_batch(kernel, X[tr], X[va])
                path = kernels.ridge_path(K, KX, [tr.size * lam for lam in lambdas])
                for lam, A in zip(lambdas, path):
                    at = f"kernel={kernel}, lambda={lam}, fold={fi}"
                    scores.append(np.ravel(score(fi, tr, va, A)))
            except Exception as e:
                raise RuntimeError(f"cv failure at {at}: {e}") from e
    shape = (len(kernel_grid), len(splits), len(lambdas), -1)
    return np.array(scores, dtype=float).reshape(shape).transpose(0, 2, 1, 3)


def _take_outputs(Y, idx):
    if isinstance(Y, np.ndarray):
        return Y[idx]
    return [Y[i] for i in idx]


def cross_validate(X, Y, plan, decoder, loss):
    """Mean/std held-out loss for every (kernel, lambda) grid point.

    `loss` parameterizes the decoder (it is what `predict` minimizes);
    `plan.scoring` is the loss used to score validation predictions.  A loss
    the decoder does not minimise is a ValueError before any fold is fit.
    """
    decoders.check_loss(decoder, loss)

    def score(fold, tr, va, A):
        preds = decoders.decode_batch(decoder, loss, _take_outputs(Y, tr), A)
        return np.mean([plan.scoring(p, Y[i]) for p, i in zip(preds, va)])

    s = sweep(X, plan.kernel_grid, plan.lambda_grid, plan.folds, plan.seed, score)[..., 0]
    rows = [CvRow(kernel=kernel, lam=float(lam), mean=float(s[ki, li].mean()),
                  std=float(s[ki, li].std()))
            for ki, kernel in enumerate(plan.kernel_grid)
            for li, lam in enumerate(plan.lambda_grid)]
    return CvReport(rows=rows, selected=select_best((r.mean, r.lam, r) for r in rows))


def select_best(points):
    """The choice of lowest mean; exact ties prefer the larger lambda (most
    regularized), then the earlier point.

    `points` yields (mean, lambda, choice) in the caller's grid order, which
    settles full ties.  Every CV sweep in the package selects through here.
    """
    return min(points, key=lambda p: (p[0], -p[1]))[2]
