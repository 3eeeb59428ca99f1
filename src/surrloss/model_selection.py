"""Deterministic k-fold cross-validation over kernel and lambda grids.

There is one CV engine, `sweep`, and every cross-validation is given to it as
(kernel grid, lambda grid, folds, seed).  The held-out weights
A = (K_TT + n_tr*lambda*I)^-1 K_TV depend only on (kernel, lambda, fold), not
on the loss or the decoder.  The sweep is one loop over the folds: for each
kernel, `kernels.fold_weights` writes the fold's A at every lambda straight
into that kernel's slice of one block, a Gaussian kernel from one `eigh` of
the full Gram shared by all folds (`fold_spectra`, which a caller that runs
several sweeps over one X may take once and hand to each), a linear one
from the thin SVD of the fold's training inputs, so a linear sweep never
builds an n x n matrix.  A caller's `score` closure gets the fold's whole
(kernel, lambda) grid as that one block, so it decodes it in one call and
one sweep serves every method that shares the grid.  Selection
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


def _kernel_failure(kernel, fold, e):
    return RuntimeError(f"cv failure at kernel={kernel}, fold={fold}: {e}")


def fold_spectra(X, kernel_grid):
    """Each kernel's `kernels.fold_spectrum` of X, in grid order: what every
    fold of a `sweep` over the grid shares.  A failure is re-raised as a
    RuntimeError, caused by the original exception, that names the kernel
    and fold 0."""
    X = kernels._as_input_matrix(X)
    spectra = []
    for kernel in kernel_grid:
        try:
            spectra.append(kernels.fold_spectrum(kernel, X))
        except Exception as e:
            raise _kernel_failure(kernel, 0, e) from e
    return spectra


def _check_spectra(spectra, kernel_grid, n):
    """A ValueError unless `spectra` holds one spectrum per kernel: None
    exactly for a linear kernel, else an (evals, U) pair with n rows in U."""
    if len(spectra) != len(kernel_grid):
        raise ValueError(f"need one spectrum per kernel: {len(kernel_grid)} kernels, "
                         f"{len(spectra)} spectra")
    for kernel, spectrum in zip(kernel_grid, spectra):
        linear = kernel.kind == "linear"
        if linear and spectrum is None:
            continue
        if (linear or spectrum is None or len(spectrum) != 2 or np.ndim(spectrum[1]) != 2
                or len(spectrum[1]) != n):
            want = "None" if linear else f"an (evals, U) pair with {n} rows in U"
            raise ValueError(f"the spectrum of {kernel} must be {want}")


def sweep(X, kernel_grid, lambdas, folds, seed, score, spectra=None):
    """Fold scores at every (kernel, lambda, fold) of a k-fold sweep.

    Empty grids, a lambda outside (0, inf), folds outside [2, n] and
    `spectra` that are not one per kernel (`_check_spectra`) are each a
    ValueError before any kernel is solved.  Unless the caller hands in
    `spectra`, each kernel's `kernels.fold_spectrum` of X, in grid order
    (`fold_spectra`), the sweep takes them itself.  It then runs fold by
    fold over the `kfold_split` folds, so work that depends only on a fold's
    training outputs is done once per fold, whatever the number S of
    kernels.  Per fold, `kernels.fold_weights` writes each kernel's weights
    straight into its slice of one (n_tr, S, L, n_va) block, and
    `score(tr, cols, A)` gets the fold's training indices and that block as
    an (n_tr, S*L*n_va) matrix A, kernel-major: block s*L + l of n_va
    columns holds kernel s's weights at lambda l, and `cols`, the validation
    indices tiled S*L times, names the row of each column.  A is a view of
    one buffer, allocated once per sweep for the largest fold; the next fold
    overwrites it, so `score` copies what it keeps.  `score` returns one loss
    per method and column, and the sweep averages each (kernel, lambda)
    block.  Returns a (kernels, lambdas, folds, methods) array.

    Memory: every Gaussian spectrum is held to the end, so S spectra,
    S*n*n floats, are alive at once, whether the sweep takes them or its
    caller hands them in; the buffer adds S*L*n_tr*n_va floats and a
    Gaussian fold's working set about 2*L*n*n_va more: O(n^2) for a fixed
    grid.  CLI `cv` at n = 1,000 (d = 3, three sigmas, three lambdas, five
    folds) peaks at 45.8 MB under tracemalloc, of which the spectra are
    24 MB and the buffer 11.5 MB.  A sweep that takes its own spectra
    allocates the buffer before them: allocating it per fold, or after the
    spectra, left the tracemalloc peak as it was but raised a robust trial's
    resident peak (ru_maxrss) by about 1.5 MB on some seeds.

    Any failure after the checks is re-raised as a RuntimeError caused by
    the original exception: a failure of a kernel's spectrum or weights
    names that kernel and the fold (fold 0 for its spectrum); a failure of
    `score` names the fold and the kernels of its block.
    """
    X = kernels._as_input_matrix(X)
    if len(kernel_grid) == 0:
        raise ValueError("the kernel grid must be non-empty")
    lambdas = kernels._check_lambdas(lambdas)
    n, S, L = X.shape[0], len(kernel_grid), lambdas.size
    parts = kfold_split(n, folds, seed)
    if spectra is not None:
        _check_spectra(spectra, kernel_grid, n)

    buf = np.empty(S * L * max((n - va.size) * va.size for va in parts))  # see Memory
    if spectra is None:
        spectra = fold_spectra(X, kernel_grid)
    scores = []
    for fi, va in enumerate(parts):
        tr = np.delete(np.arange(n), va)
        A = buf[:tr.size * S * L * va.size].reshape(tr.size, S, L, va.size)
        for si, (kernel, spectrum) in enumerate(zip(kernel_grid, spectra)):
            try:
                kernels.fold_weights(kernel, spectrum, X, tr, va, lambdas, A[:, si])
            except Exception as e:
                raise _kernel_failure(kernel, fi, e) from e
        try:
            col_losses = score(tr, np.tile(va, S * L), A.reshape(tr.size, -1))
            scores.append(np.reshape(col_losses, (-1, S, L, va.size)).mean(axis=3))
        except Exception as e:
            raise RuntimeError(f"cv failure at fold={fi}, kernels={list(kernel_grid)}: "
                               f"{e}") from e
    return np.array(scores, dtype=float).transpose(2, 3, 0, 1)


def cross_validate(X, Y, kernel_grid, lambdas, folds, seed, decoder, loss, scoring):
    """Mean/std held-out loss for every (kernel, lambda) grid point of a
    `sweep` over (kernel_grid, lambdas, folds, seed).

    `loss` parameterizes the decoder (it is what `predict` minimizes);
    `scoring` scores the validation predictions (`losses.loss_rows`).
    A loss the decoder does not minimise is a ValueError before any fold is fit.
    """
    decoder.check_loss(loss)

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
