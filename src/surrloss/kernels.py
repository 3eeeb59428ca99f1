"""Input kernels, Gram matrices, and SPD solves for the ridge system.

Convention: the Gaussian kernel is exp(-||x - x'||^2 / sigma) -- sigma divides
the *squared* distance and there is no factor 2.  This differs from several
common parameterizations, so all bandwidth grids in this package use it.

Everything here is immutable after construction and safe to share across
threads.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

# Relative jitter ladder for near-singular Gram matrices, scaled by the
# largest diagonal entry of the shifted matrix.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel choice: 'gaussian' (with bandwidth sigma), 'linear', or
    'precomputed' (inputs are integer indices into `matrix`)."""

    kind: str
    sigma: float = None
    matrix: np.ndarray = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "linear", "precomputed"):
            raise ValueError(f"unknown kernel kind: {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError("gaussian kernel needs sigma > 0")
        if self.kind == "precomputed":
            m = self.matrix
            if m is None or np.ndim(m) != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("precomputed kernel needs a square matrix")


def gaussian(sigma):
    return KernelSpec("gaussian", sigma=sigma)


def linear():
    return KernelSpec("linear")


def precomputed(matrix):
    return KernelSpec("precomputed", matrix=np.asarray(matrix, dtype=float))


def _check_vector(x, name):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite entries")
    return x


def eval_kernel(spec, x, x2):
    """k(x, x') for a single pair.  Gaussian values lie in (0, 1]."""
    if spec.kind == "precomputed":
        return float(spec.matrix[int(x), int(x2)])
    x = _check_vector(x, "x")
    x2 = _check_vector(x2, "x'")
    if x.shape != x2.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {x2.shape}")
    if spec.kind == "linear":
        return float(np.dot(x, x2))
    d = x - x2
    return float(np.exp(-np.dot(d, d) / spec.sigma))


def _as_input_matrix(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("X must be a non-empty list of input vectors")
    if not np.all(np.isfinite(X)):
        raise ValueError("inputs have non-finite entries")
    return X


def gram_matrix(spec, X):
    """n x n matrix K[i, j] = k(x_i, x_j), exactly symmetric by construction."""
    if spec.kind == "precomputed":
        idx = np.asarray(X, dtype=int).ravel()
        if idx.size < 1:
            raise ValueError("X must be non-empty")
        K = spec.matrix[np.ix_(idx, idx)]
        return 0.5 * (K + K.T)
    X = _as_input_matrix(X)
    if spec.kind == "linear":
        K = X @ X.T
        lower = np.tril(K)
        return lower + np.tril(K, -1).T
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    K = np.exp(-sq / spec.sigma)
    lower = np.tril(K)
    K = lower + np.tril(K, -1).T
    np.fill_diagonal(K, 1.0)
    return K


def cross_kernel(spec, X, x):
    """Length-n vector with entries k(x, x_i)."""
    if spec.kind == "precomputed":
        idx = np.asarray(X, dtype=int).ravel()
        return spec.matrix[int(x), idx].astype(float)
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
    if spec.kind == "precomputed":
        idx = np.asarray(X, dtype=int).ravel()
        qidx = np.asarray(Xq, dtype=int).ravel()
        return spec.matrix[np.ix_(idx, qidx)].astype(float)
    X = _as_input_matrix(X)
    Xq = _as_input_matrix(Xq)
    if Xq.shape[1] != X.shape[1]:
        raise ValueError(f"query dimension {Xq.shape[1]} != training dimension {X.shape[1]}")
    if spec.kind == "linear":
        return X @ Xq.T
    sq = ((X[:, None, :] - Xq[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-sq / spec.sigma)


@dataclass(frozen=True)
class SpdFactor:
    """Lower Cholesky factor of K + shift*I + jitter*I."""

    order: int
    lower: np.ndarray
    shift: float
    jitter: float


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
    A = K + shift * np.eye(n)
    scale = float(np.max(np.diag(A))) if n else 1.0
    if scale <= 0:
        scale = 1.0
    for rel in (0.0,) + JITTER_LADDER:
        jitter = rel * scale
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(n) if jitter else A)
        except np.linalg.LinAlgError:
            continue
        return SpdFactor(order=n, lower=L, shift=float(shift), jitter=float(jitter))
    raise np.linalg.LinAlgError(
        f"matrix of order {n} not positive definite after jitter ladder {JITTER_LADDER}"
    )


def solve_spd(factor, b):
    """Solve (K + shift*I + jitter*I) sol = b through the stored factor.

    b may be a vector or a matrix of stacked right-hand sides (columns).
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factor.order:
        raise ValueError(f"rhs length {b.shape[0]} != factor order {factor.order}")
    return cho_solve((factor.lower, True), b, check_finite=False)
