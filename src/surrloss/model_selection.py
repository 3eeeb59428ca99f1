"""Deterministic k-fold cross-validation over kernel and lambda grids.

There is one CV engine, `sweep`, and every cross-validation is given to it as
(kernel grid, lambda grid, folds, seed).  The held-out weights
A = (K_TT + n_tr*lambda*I)^-1 K_TV depend only on (kernel, lambda, fold), not
on the loss or the decoder, so for each kernel `kernels.fold_ridge_paths`
yields every fold's (train, validation, A), A one (n_tr, L*n_va) block for
all lambdas: a Gaussian kernel from one `eigh` of the full Gram, shared by
all folds, a linear one from the thin SVD of each fold's training inputs, so
a linear sweep never builds an n x n matrix.  A caller's `score` closure
decodes a fold's block in one call, so one sweep serves every method that
shares the grid.  Selection (`select_best`) takes the minimal mean
validation loss; exact ties prefer the largest lambda (most regularized),
then grid order.
"""

from dataclasses import dataclass

import numpy as np

from . import decoders, kernels, losses


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


def sweep(X, kernel_grid, lambdas, folds, seed, score):
    """Fold scores at every (kernel, lambda, fold) of a k-fold sweep.

    Empty grids, a lambda outside (0, inf) and folds outside [2, n] are each
    a ValueError before any kernel is solved.  Per (kernel, fold),
    `score(tr, cols, A)` gets the fold's (train, validation, A) from
    `kernels.fold_ridge_paths`, the validation indices tiled L times so that
    `cols` names the row of each column of A, block l of n_va columns for
    lambda l; a fold's working set is a few L*n*n_va floats, O(n^2) for a
    fixed grid.  It returns one loss per method and column, and the sweep
    averages each lambda's block.  Returns a (kernels, lambdas, folds,
    methods) array.  Any failure after the checks is re-raised as a
    RuntimeError naming its kernel and fold (fold 0 for a failure of the
    kernel's shared spectrum) and caused by the original exception.
    """
    X = kernels._as_input_matrix(X)
    if len(kernel_grid) == 0:
        raise ValueError("the kernel grid must be non-empty")
    kernels._check_lambdas(lambdas)
    parts = kfold_split(X.shape[0], folds, seed)
    scores = []
    for kernel in kernel_grid:
        fi = 0
        try:
            for tr, va, A in kernels.fold_ridge_paths(kernel, X, parts, lambdas):
                col_losses = score(tr, np.tile(va, len(lambdas)), A)
                scores.append(np.reshape(col_losses, (-1, len(lambdas), va.size)).mean(axis=2))
                fi += 1
        except Exception as e:
            raise RuntimeError(f"cv failure at kernel={kernel}, fold={fi}: {e}") from e
    shape = (len(kernel_grid), folds, -1, len(lambdas))
    return np.array(scores, dtype=float).reshape(shape).transpose(0, 3, 1, 2)


def cross_validate(X, Y, kernel_grid, lambdas, folds, seed, decoder, loss, scoring):
    """Mean/std held-out loss for every (kernel, lambda) grid point of a
    `sweep` over (kernel_grid, lambdas, folds, seed).

    `loss` parameterizes the decoder (it is what `predict` minimizes);
    `scoring` scores the validation predictions (`losses.loss_rows`).
    A loss the decoder does not minimise is a ValueError before any fold is fit.
    """
    decoders.check_loss(decoder, loss)

    def score(tr, cols, A):
        preds = decoders.decode_batch(decoder, loss, losses.take_outputs(Y, tr), A)
        return losses.loss_rows(scoring, preds, losses.take_outputs(Y, cols))

    s = sweep(X, kernel_grid, lambdas, folds, seed, score)[..., 0]
    rows = [CvRow(kernel=kernel, lam=float(lam), mean=float(s[ki, li].mean()),
                  std=float(s[ki, li].std()))
            for ki, kernel in enumerate(kernel_grid)
            for li, lam in enumerate(lambdas)]
    return CvReport(rows=rows, selected=select_best((r.mean, r.lam, r) for r in rows))


def select_best(points):
    """The choice of lowest mean; exact ties prefer the larger lambda (most
    regularized), then the earlier point.

    `points` yields (mean, lambda, choice) in the caller's grid order, which
    settles full ties.  Every CV sweep in the package selects through here.
    """
    return min(points, key=lambda p: (p[0], -p[1]))[2]
