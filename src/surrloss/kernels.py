"""Input kernels, Gram matrices, and SPD solves for the ridge system.

Two kernels act on feature vectors, the rows of an (n, d) input array:
Gaussian and linear (`KernelSpec`).  Every input array, in fitting and in
cross-validation alike, is shaped and checked by `_as_input_matrix`.

A fitted model holds one Cholesky factor L of K + shift*I and the inverses of
L's diagonal blocks (`factor_shifted`).  `solve_spd` runs the forward and back
substitutions block by block: each diagonal block is one product with its
stored inverse, each off-diagonal panel one GEMV/GEMM, so every step stays in
NumPy's BLAS and the package needs no other linear-algebra library.
Cross-validation, which needs the same K at many shifts, takes them all from
one eigendecomposition instead (`ridge_path`).

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

# Order of the diagonal blocks of the blocked triangular solves.  Inverting
# them costs about n * SOLVE_BLOCK^2 flops at fit time, small next to the
# n^3 / 3 of the Cholesky factorization.
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


def gram_matrix(spec, X):
    """n x n matrix K[i, j] = k(x_i, x_j), exactly symmetric by construction."""
    X = _as_input_matrix(X)
    if spec.kind == "linear":
        return _mirror_lower(X @ X.T)
    # The zero diagonal of sq_distances makes the unit diagonal exact: exp(-0) = 1.
    K = sq_distances(X)
    K /= -spec.sigma
    return _mirror_lower(np.exp(K, out=K))


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
    if spec.kind == "linear":
        return X @ Xq.T
    K = sq_distances(X, Xq)
    K /= -spec.sigma
    return np.exp(K, out=K)


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of K + shift*I + jitter*I, with the inverses of
    its diagonal blocks of order SOLVE_BLOCK (the last one may be smaller)."""

    order: int
    lower: np.ndarray
    shift: float
    jitter: float
    block_inverses: tuple


def _block_inverses(L):
    """Inverses of L's diagonal blocks, lower triangular like the blocks.

    `np.linalg.inv` factors each block with row pivoting, which can leave
    rounding above the diagonal; `np.tril` drops it.
    """
    return tuple(np.tril(np.linalg.inv(L[s:s + SOLVE_BLOCK, s:s + SOLVE_BLOCK]))
                 for s in range(0, L.shape[0], SOLVE_BLOCK))


def _plus_diagonal(M, value):
    """M + value*I as a new array, without an (n, n) identity temporary."""
    out = M.copy()
    out.flat[::M.shape[0] + 1] += value
    return out


def factor_shifted(K, shift):
    """Cholesky-factor K + shift*I, walking a jitter ladder on failure.

    The ladder is relative to the largest diagonal entry of the shifted
    matrix; jitter stays 0 whenever the unshifted factorization succeeds.
    Raises numpy.linalg.LinAlgError after the full ladder fails.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if shift < 0:
        raise ValueError("shift must be non-negative")
    n = K.shape[0]
    A = _plus_diagonal(K, shift)
    del K  # a Gram the caller no longer holds is freed before L is allocated
    scale = float(np.max(np.diag(A))) if n else 1.0
    if scale <= 0:
        scale = 1.0
    for rel in (0.0,) + JITTER_LADDER:
        jitter = rel * scale
        try:
            L = np.linalg.cholesky(_plus_diagonal(A, jitter) if jitter else A)
        except np.linalg.LinAlgError:
            continue
        return SpdFactor(order=n, lower=L, shift=float(shift), jitter=float(jitter),
                         block_inverses=_block_inverses(L))
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
    Thm. 10.4).  Multiplying by computed inverses of the diagonal blocks
    instead of substituting can add a factor up to cond(L) = sqrt(cond(A)).
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


def ridge_path(K, KX, shifts):
    """Iterator over (K + shift*I)^-1 KX for each shift, in order.

    Rifkin & Lippert's spectral path ("Notes on Regularized Least Squares",
    MIT-CSAIL-TR-2007-025): K = U diag(s) U^T is decomposed once, eigenvalues
    below 0 (rounding on a positive semidefinite K) are clamped to 0, and U^T KX
    is formed once; each shift then costs a diagonal rescale and one
    (n, n) @ (n, Q) product, U diag(1 / (s + shift)) U^T KX.  Everything stays
    in NumPy's BLAS.  With every shift > 0 the clamped system is positive
    definite, so no jitter is needed.

    K is (n, n) and symmetric, KX is (n, Q).  Raises ValueError for a
    non-square K, a KX without n rows, or a shift that is not in (0, inf).
    """
    K = np.asarray(K, dtype=float)
    KX = np.asarray(KX, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("K must be square")
    if KX.ndim != 2 or KX.shape[0] != K.shape[0]:
        raise ValueError(f"KX must have {K.shape[0]} rows, got shape {KX.shape}")
    shifts = [float(s) for s in shifts]
    if not all(0 < s < np.inf for s in shifts):
        raise ValueError("shifts must be positive and finite")
    evals, U = np.linalg.eigh(K)
    np.maximum(evals, 0.0, out=evals)
    UtKX = U.T @ KX
    return (U @ (UtKX / (evals + s)[:, None]) for s in shifts)
