"""Input kernels, Gram matrices, and SPD solves for the ridge system.

Two kernels act on feature vectors, the rows of an (n, d) input array:
Gaussian and linear (`KernelSpec`).  Every input array, in fitting and in
cross-validation alike, is shaped and checked by `_as_input_matrix`.  One
evaluator, `_evaluate`, holds both kernels' GEMM-form formulas: the Gram
(`gram_matrix`, then mirrored) and the (n, Q) cross-kernel of a batch
(`cross_kernel_batch`) are both its values.  The single-query
`cross_kernel` keeps the difference form ||x - x_i||^2, which gives
k(x, x) = 1 exactly; the GEMM form's ||x||^2 + ||x||^2 - 2 x.x need not
cancel to 0.

A fitted model holds one Cholesky factor L of K + shift*I and the inverses of
L's diagonal blocks, built together by one blocked pass of GEMMs over a copy
of K (`factor_shifted`).  `solve_spd` runs the forward and back
substitutions block by block: each diagonal block is one product with its
stored inverse, each off-diagonal panel one GEMV/GEMM, so every step stays in
NumPy's BLAS and the package needs no other linear-algebra library.
Cross-validation, which needs each fold's training Gram at many shifts, takes
them all from spectra instead, in two steps that `model_selection.sweep`
calls: `fold_spectrum` takes what every fold shares, and `fold_weights`
writes one fold's weights at every shift into a view the caller owns.  A
Gaussian kernel takes one `eigh` of the full n x n Gram for every fold: with
M = (K + sI)^-1, a fold's weights (K_TT + sI)^-1 K_TV are the block product
-M_TV M_VV^-1.  A linear kernel takes the thin SVD of each fold's training
inputs, which costs O(n d^2) and never forms an n x n matrix.

Convention: the Gaussian kernel is exp(-||x - x'||^2 / sigma) -- sigma divides
the *squared* distance and there is no factor 2.  This differs from several
common parameterizations, so all bandwidth grids in this package use it.

Everything here is immutable after construction and safe to share across
threads.
"""

from dataclasses import dataclass

import numpy as np

# Relative jitter ladder for near-singular Gram matrices, scaled by the
# largest diagonal entry of the shifted matrix.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)

# Order of the diagonal blocks of the Cholesky pass and the triangular solves.
# Factoring and inverting them costs about n * SOLVE_BLOCK^2 flops, small next
# to the n^3 / 3 of the GEMM updates between them.
SOLVE_BLOCK = 128


@dataclass(frozen=True)
class KernelSpec:
    """A kernel on feature vectors: 'gaussian' (with bandwidth sigma) or
    'linear'.  Inputs are the rows of a (n, d) array; a 1-d array is n
    one-dimensional inputs (`_as_input_matrix`)."""

    kind: str
    sigma: float = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError("gaussian kernel needs sigma > 0")


def gaussian(sigma):
    return KernelSpec("gaussian", sigma=sigma)


def linear():
    return KernelSpec("linear")


def _check_vector(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def _as_input_matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty list of input vectors")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs have non-finite entries")
    return X


def sq_distances(X, Z=None):
    """(n, m) matrix of ||x_i - z_j||^2 for the rows of X (n, d) and Z (m, d).

    Computed in the GEMM form ||x||^2 + ||z||^2 - 2 X Z^T and clamped at 0, so
    memory stays O(n m): no (n, m, d) difference tensor.  With Z omitted,
    Z = X and the diagonal is exactly 0.
    """
    X = np.asarray(X, dtype=float)
    xx = np.einsum("ij,ij->i", X, X)
    if Z is None:
        D, zz = X @ X.T, xx
    else:
        Z = np.asarray(Z, dtype=float)
        D, zz = X @ Z.T, np.einsum("ij,ij->i", Z, Z)
    D *= -2.0
    D += xx[:, None]
    D += zz[None, :]
    np.maximum(D, 0.0, out=D)
    if Z is None:
        np.fill_diagonal(D, 0.0)
    return D


def _mirror_lower(K):
    """Copy K's lower triangle onto its upper one, in place: exactly symmetric.

    One SOLVE_BLOCK-wide panel at a time: the diagonal block through a
    block-sized mask, the rest as the transposed panel below it.  A whole-K
    masked copy would buffer all of K (source and target overlap) and build
    an (n, n) mask.
    """
    n = K.shape[0]
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        D = K[s:e, s:e]
        np.copyto(D, D.T, where=np.tri(e - s, k=-1, dtype=bool).T)
        K[s:e, e:] = K[e:, s:e].T
    return K


def _evaluate(spec, X, Z=None):
    """(n, m) matrix of k(x_i, z_j) for the rows of the checked X (n, d) and
    Z (m, d), Z = X when omitted: X Z^T, or the Gaussian of `sq_distances`.
    The one evaluator of both kernels' formulas."""
    if spec.kind == "linear":
        return X @ (X if Z is None else Z).T
    K = sq_distances(X, Z)
    K /= -spec.sigma
    return np.exp(K, out=K)


def gram_matrix(spec, X):
    """n x n matrix K[i, j] = k(x_i, x_j), exactly symmetric by construction.
    The zero diagonal of `sq_distances` makes a Gaussian's unit diagonal
    exact: exp(-0) = 1."""
    return _mirror_lower(_evaluate(spec, _as_input_matrix(X)))


def cross_kernel(spec, X, x):
    """Length-n vector with entries k(x, x_i)."""
    X = _as_input_matrix(X)
    x = _check_vector(x, "query")
    if x.shape[0] != X.shape[1]:
        raise ValueError(f"query dimension {x.shape[0]} != training dimension {X.shape[1]}")
    if spec.kind == "linear":
        return X @ x
    sq = ((X - x[None, :]) ** 2).sum(axis=1)
    return np.exp(-sq / spec.sigma)


def cross_kernel_batch(spec, X, Xq):
    """(n, Q) matrix of k(x_q, x_i) for a batch of Q queries."""
    X = _as_input_matrix(X)
    Xq = _as_input_matrix(Xq)
    if Xq.shape[1] != X.shape[1]:
        raise ValueError(f"query dimension {Xq.shape[1]} != training dimension {X.shape[1]}")
    return _evaluate(spec, X, Xq)


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of K + shift*I + jitter*I, exactly 0 above the
    diagonal, with the lower triangular inverses of its diagonal blocks of
    order SOLVE_BLOCK (the last one may be smaller)."""

    order: int
    lower: np.ndarray
    jitter: float
    block_inverses: tuple


def _lower_inverse(L):
    """Inverse of the lower triangular L by the GEMM recursion
    [[L11, 0], [L21, L22]]^-1 = [[X11, 0], [-X22 L21 X11, X22]], Xii = Lii^-1.
    A leaf of at most 32 rows is one `np.linalg.inv`, whose row pivoting can
    leave rounding above the diagonal; `np.tril` drops it."""
    m = L.shape[0]
    if m <= 32:
        return np.tril(np.linalg.inv(L))
    h = m // 2
    X11, X22 = _lower_inverse(L[:h, :h]), _lower_inverse(L[h:, h:])
    return np.block([[X11, np.zeros((h, m - h))], [-(X22 @ L[h:, :h] @ X11), X22]])


def _cholesky_in_place(A):
    """Overwrite the SPD A with its lower Cholesky factor, left-looking and
    blocked (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd
    ed., ch. 10), and return the inverses of its diagonal blocks.  Raises
    numpy.linalg.LinAlgError at the first diagonal block that is not positive
    definite, with A's strict upper triangle as it was."""
    n = A.shape[0]
    inverses = []
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        update = A[s:, :s] @ A[s:e, :s].T  # for the whole block column at once
        L = np.linalg.cholesky(A[s:e, s:e] - update[:e - s])
        np.copyto(A[s:e, s:e], L, where=np.tri(e - s, dtype=bool))
        inverses.append(_lower_inverse(L))
        A[e:, s:e] = (A[e:, s:e] - update[e - s:]) @ inverses[-1].T
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        A[s:e, e:] = 0.0
        A[s:e, s:e] = np.tril(A[s:e, s:e])
    return tuple(inverses)


def factor_shifted(K, shift):
    """Cholesky-factor the symmetric K + shift*I, walking a jitter ladder on
    failure: each rung factors (K + shift*I) + jitter*I until a diagonal block
    is not positive definite (`_cholesky_in_place`).  The ladder is relative
    to the largest diagonal entry of the shifted matrix; jitter stays 0
    whenever the unshifted factorization succeeds.  Raises
    numpy.linalg.LinAlgError after the full ladder fails.
    """
    A = np.array(K, dtype=float)  # factored in place
    del K  # a Gram the caller no longer holds is freed before it is factored
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("K must be square")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    n = A.shape[0]
    diagonal = A.diagonal() + shift
    scale = float(diagonal.max(initial=0.0)) or 1.0  # 1 if no entry is positive
    for rel in (0.0,) + JITTER_LADDER:
        A.flat[::n + 1] = diagonal + rel * scale
        try:
            inverses = _cholesky_in_place(A)
        except np.linalg.LinAlgError:
            _mirror_lower(A.T)  # the lower triangle again, from the untouched upper
            continue
        return SpdFactor(order=n, lower=A, jitter=rel * scale, block_inverses=inverses)
    raise np.linalg.LinAlgError(
        f"matrix of order {n} not positive definite after jitter ladder {JITTER_LADDER}"
    )


def solve_spd(factor, b):
    """Solve A sol = b, A = K + shift*I + jitter*I, through the stored factor.

    b may be a vector or a matrix of stacked right-hand sides (columns).
    Forward substitution L y = b, then back substitution L^T sol = y, one
    block of SOLVE_BLOCK rows at a time.  Forward, a block's rows subtract
    the panel of L left of its diagonal block times the rows already solved
    (one GEMV, or GEMM for several columns), then take the product with the
    block's stored inverse.  Back, a block takes the product with the
    transposed inverse, and the transposed panel then updates the rows
    above it.  Both passes read L through views, so the factor is never
    copied; the only n-sized buffer is the result.

    Error bound.  Solving with an exact Cholesky factor is backward stable, so
    the relative error of sol is at most about n * u * cond(A) (u = 1.1e-16;
    Higham, "Accuracy and Stability of Numerical Algorithms", 2nd ed.,
    Thm. 10.4).  The inverses X of the diagonal blocks L_kk of order m come
    from `_lower_inverse`'s GEMM recursion, whose residual X L_kk - I is, as
    for substitution, at most about m * u * cond(L_kk) (Higham, Sec. 14.2).
    Multiplying by them instead of substituting, here and in the panels of
    the factor, can add a factor up to cond(L_kk) <= sqrt(cond(A)).
    For the ridge system A = K + n*lambda*I,
    cond(A) <= 1 + lambda_max(K) / (n*lambda); a Gaussian kernel has
    lambda_max(K) <= n, so cond(A) <= 1 + 1/lambda and, at lambda = 1e-3 and
    n = 1000, the bound is about 1e3 * 1.1e-16 * 1001^1.5 = 3.5e-9.  Jitter
    only enters where A is nearly singular, and there cond(A) is large.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.order:
        raise ValueError(f"rhs length {b.shape[0]} != factor order {factor.order}")
    L = factor.lower
    sol = np.array(b)
    blocks = list(zip(range(0, factor.order, SOLVE_BLOCK), factor.block_inverses))
    for s, inv in blocks:
        e = s + inv.shape[0]
        rhs = sol[s:e] - L[s:e, :s] @ sol[:s] if s else sol[s:e]
        sol[s:e] = inv @ rhs
    for s, inv in reversed(blocks):
        e = s + inv.shape[0]
        sol[s:e] = inv.T @ sol[s:e]
        if s:
            sol[:s] -= L[s:e, :s].T @ sol[s:e]
    return sol


def _spectrum(spec, X):
    """(evals, U) with K = U diag(evals) U^T for the Gram K of the rows of the
    checked (n, d) matrix X.

    Gaussian: `eigh` of the Gram, eigenvalues below 0 (rounding on a positive
    semidefinite K) clamped to 0; U is (n, n) and the Gram is dropped once
    `eigh` returns.  Linear: the thin SVD X = U S V^T, so evals = S^2 and U is
    (n, min(n, d)); K = X X^T is never formed.  Either way evals >= 0.
    """
    if spec.kind == "linear":
        U, S, _ = np.linalg.svd(X, full_matrices=False)
        return S * S, U
    evals, U = np.linalg.eigh(gram_matrix(spec, X))
    np.maximum(evals, 0.0, out=evals)
    return evals, U


def _check_lambdas(lambdas):
    """The lambda grid as a float array: non-empty, every value in (0, inf)."""
    lambdas = np.array([float(lam) for lam in lambdas])
    if lambdas.size == 0 or not all(0 < lam < np.inf for lam in lambdas):
        raise ValueError("lambdas must be a non-empty list of positive finite values")
    return lambdas


def fold_spectrum(spec, X):
    """The spectrum that every fold of a cross-validation of X (n, d) shares:
    for a Gaussian kernel the clamped `eigh` (evals, U) of the full n x n
    Gram (`_spectrum`); for a linear kernel None, since each fold takes the
    thin SVD of its own training inputs (`fold_weights`)."""
    return None if spec.kind == "linear" else _spectrum(spec, X)


def fold_weights(spec, spectrum, X, tr, va, lambdas, out):
    """Write the ridge weights (K_TT + n_tr*lambda_l*I)^-1 K_TV of the fold
    with training rows `tr` and validation rows `va` of the checked (n, d)
    matrix X into the (n_tr, L, n_va) view `out`, out[:, l] for the l-th of
    the L checked `lambdas`.  Each out[i] must be one contiguous run of
    L*n_va floats, as in a slice of `model_selection.sweep`'s block, so that
    out reshapes to (n_tr, L*n_va) without a copy.  `spectrum` is
    `fold_spectrum(spec, X)`.

    Gaussian.  With K = U diag(e) U^T the clamped spectrum of the full Gram
    and M = (K + sI)^-1 = U diag(1 / (e + s)) U^T, the T rows of
    (K + sI) M = I read (K_TT + sI) M_TV + K_TV M_VV = 0, so

        (K_TT + sI)^-1 K_TV = -M_TV M_VV^-1,

    exact for any partition and any s > 0 (the block-inverse identity behind
    exact fast CV for kernel ridge regression; An, Liu & Venkatesh, Pattern
    Recognition 40(8), 2007).  With shifts s_l = n_tr*lambda_l (folds may
    differ in size by one, and with them the shifts), one
    (n, n) @ (n, L*n_va) product forms M[:, V] for every shift, one batched
    `np.linalg.inv` inverts the L SPD blocks M_VV, and one batched product
    writes M_TV M_VV^-1 straight into `out`, negated in place: no per-fold
    Gram, spectrum or cross-kernel.  Besides U the working set is about
    2*L*n*n_va floats, so memory stays O(n^2).

    Linear.  Rifkin & Lippert's spectral path ("Notes on Regularized Least
    Squares", MIT-CSAIL-TR-2007-025) on the thin SVD of X_T, whose U
    (n_tr, r), r = min(n_tr, d), spans K_TV = X_T X_V^T: the blocks
    diag(1 / (evals + s_l)) U^T K_TV, side by side, take one
    (n_tr, r) @ (r, L*n_va) product with U.  A fold's SVD costs O(n d^2), so
    one shared n x n spectrum would save nothing, and the linear route never
    forms an n x n matrix.

    With evals >= 0 and every shift > 0 both systems are positive definite,
    so no jitter is needed.
    """
    if spectrum is None:
        evals, U = _spectrum(spec, X[tr])
        UtKX = U.T @ cross_kernel_batch(spec, X[tr], X[va])
        scaled = UtKX[:, None, :] / (evals[:, None, None] + tr.size * lambdas[None, :, None])
        np.matmul(U, scaled.reshape(U.shape[1], -1), out=out.reshape(tr.size, -1))
        return
    evals, U = spectrum
    n, L = U.shape[0], lambdas.size
    scale = 1.0 / (evals[:, None] + tr.size * lambdas[None, :])  # (n, L)
    # M[:, V] = U diag(scale_l) U_V^T for every shift, in one product
    MV = U @ (scale[:, :, None] * U[va].T[:, None, :]).reshape(n, -1)
    MV = MV.reshape(n, L, -1).transpose(1, 0, 2)  # (L, n, n_va)
    inv_VV = np.linalg.inv(MV[:, va])  # first: M_VV is freed before the copy M_TV is made
    np.matmul(MV[:, tr], inv_VV, out=out.transpose(1, 0, 2))
    np.negative(out, out=out)
