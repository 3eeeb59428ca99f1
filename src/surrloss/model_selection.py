"""Deterministic k-fold cross-validation over kernel and lambda grids.

There is one CV engine, `sweep`, and every cross-validation is given to it as
(kernel grid, lambda grid, folds, seed).  The held-out weights
A = (K_TT + n_tr*lambda*I)^-1 K_TV depend only on (kernel, lambda, fold), not
on the loss or the decoder, so for each kernel `kernels.fold_ridge_paths`
yields every fold's (train, validation, A), A one (n_tr, L*n_va) block for
all lambdas: a Gaussian kernel from one `eigh` of the full Gram, shared by
all folds, a linear one from the thin SVD of each fold's training inputs, so
a linear sweep never builds an n x n matrix.  The sweep runs fold by fold
and hands a caller's `score` closure every kernel's block of the fold side
by side, so it decodes the fold's whole (kernel, lambda) grid in one call
and one sweep serves every method that shares the grid.  Selection
(`select_best`) takes the minimal mean validation loss; exact ties prefer
the largest lambda (most regularized), then grid order.
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
    a ValueError before any kernel is solved.  The sweep runs fold by fold:
    it keeps one `kernels.fold_ridge_paths` generator per kernel and
    advances them together, so work that depends only on a fold's training
    outputs is done once per fold, whatever the number S of kernels.  Per
    fold, `score(tr, cols, A)` gets the fold's training indices and one
    (n_tr, S*L*n_va) block A, kernel-major: block s*L + l of n_va columns
    holds kernel s's weights at lambda l, and `cols`, the validation indices
    tiled S*L times, names the row of each column.  With one kernel A is the
    path's own block.  With more, A is a view of one buffer, allocated once
    per sweep for the largest fold, and each kernel's block is copied into
    it as it comes; nothing is concatenated.  The next fold overwrites A,
    so `score` copies what it keeps.  `score` returns one loss per method
    and column, and the sweep averages each (kernel, lambda) block.
    Returns a (kernels, lambdas, folds, methods) array.

    Memory: every Gaussian path takes its spectrum when it is opened and
    holds it to the end, so S spectra, S*n*n floats, are alive at once; the
    buffer and a fold's working set add a few S*L*n*n_va floats: O(n^2) for
    a fixed grid.  The buffer is allocated once, before the spectra:
    allocating it per fold, or after the spectra, left the tracemalloc peak
    as it was but raised a robust trial's resident peak (ru_maxrss) by about
    1.5 MB on some seeds, above that of a sweep scoring one kernel at a time.

    Any failure after the checks is re-raised as a RuntimeError caused by
    the original exception: a failure of a kernel's path names that kernel
    and the fold (fold 0 for its shared spectrum); a failure of `score`
    names the fold and the kernels of its block.
    """
    X = kernels._as_input_matrix(X)
    if len(kernel_grid) == 0:
        raise ValueError("the kernel grid must be non-empty")
    L = kernels._check_lambdas(lambdas).size
    S = len(kernel_grid)
    parts = kfold_split(X.shape[0], folds, seed)

    def path_failure(kernel, fi, e):
        return RuntimeError(f"cv failure at kernel={kernel}, fold={fi}: {e}")

    paths, scores = [], []
    if S > 1:  # before the spectra: see Memory above
        buf = np.empty(S * L * max((X.shape[0] - va.size) * va.size for va in parts))
    for kernel in kernel_grid:  # a Gaussian path takes its spectrum here
        try:
            paths.append(kernels.fold_ridge_paths(kernel, X, parts, lambdas))
        except Exception as e:
            raise path_failure(kernel, 0, e) from e
    for fi in range(folds):
        for si, (kernel, path) in enumerate(zip(kernel_grid, paths)):
            try:
                tr, va, block = next(path)
            except Exception as e:
                raise path_failure(kernel, fi, e) from e
            if S == 1:
                A = block
            else:
                width = block.shape[1]
                A = buf[:tr.size * S * width].reshape(tr.size, S * width)
                A[:, si * width:(si + 1) * width] = block
            del block  # a copied block is freed before the next kernel's is made
        try:
            col_losses = score(tr, np.tile(va, S * L), A)
            scores.append(np.reshape(col_losses, (-1, S, L, va.size)).mean(axis=3))
        except Exception as e:
            raise RuntimeError(f"cv failure at fold={fi}, kernels={list(kernel_grid)}: "
                               f"{e}") from e
        del A
    return np.array(scores, dtype=float).transpose(2, 3, 0, 1)


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
