"""Independent oracles used by the tests.

Everything here is deliberately written against the definitions, not the
library's code paths: double loops, dense scans, power iteration, projected
gradient.  Keep it that way -- these are the other side of every dual-route
check.  Nothing here imports ``surrloss``.

The Hellinger oracle minimizes over q = sqrt(p) on {q >= 0, ||q||_2 = 1} and
stops on a stationarity test (the gradient mapping at a fixed step below a
tolerance), reporting whether it got there; it never evaluates the decoder's
closed form max(b, 0)^2 / sum max(b, 0)^2.
"""

import itertools
import math
from collections import namedtuple

import numpy as np


def power_iteration_norm(V, iters=2000, tol=1e-14, seed=0):
    """Spectral norm of V via power iteration on V^T V."""
    rng = np.random.default_rng(seed)
    B = V.T @ V
    v = rng.normal(size=V.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(nw - prev) <= tol * max(1.0, nw):
            break
        prev = nw
    return math.sqrt(float(v @ B @ v))


def rank_loss_double_loop(ranks, ratings):
    """Literal double sum of the pairwise ranking loss."""
    m = len(ratings)
    total = 0.0
    for i in range(m):
        for j in range(m):
            gain = max(0.0, ratings[j] - ratings[i])
            total += gain * (1.0 - np.sign(ranks[i] - ranks[j])) / 2.0
    return total


def descending_sort_ranks(ratings):
    """Ranks (1 = best) of the stable descending sort: equal ratings keep
    their index order."""
    order = sorted(range(len(ratings)), key=lambda i: -ratings[i])
    ranks = [0] * len(ratings)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return np.array(ranks, dtype=np.int64)


def eval_kernel(spec, x, x2):
    """k(x, x') for a single pair, from the definition of `spec.kind`:
    <x, x'> (linear) or exp(-||x - x'||^2 / sigma) (gaussian)."""
    x, x2 = np.asarray(x, dtype=float), np.asarray(x2, dtype=float)
    if spec.kind == "linear":
        return float(np.dot(x, x2))
    d = x - x2
    return float(np.exp(-np.dot(d, d) / spec.sigma))


def weighted_objective(y, alphas, loss, y_train):
    return sum(a * loss(y, yt) for a, yt in zip(alphas, y_train))


def scan_minimum(candidates, alphas, loss, y_train):
    """Full scan of F over candidates; returns (argmin index, value)."""
    vals = [weighted_objective(c, alphas, loss, y_train) for c in candidates]
    idx = int(np.argmin(vals))
    return idx, vals[idx]


def all_permutations(m):
    return [np.array(p, dtype=np.int64) for p in itertools.permutations(range(1, m + 1))]


def _pair_gains(profiles):
    """gains[t, i, j] = max(0, r_tj - r_ti), the cost of ranking i above j."""
    R = np.asarray(profiles, dtype=float)
    return np.maximum(0.0, R[:, None, :] - R[:, :, None])


def ranking_objectives(perms, alphas, profiles):
    """F(p) = sum_t alpha_t sum_ij gains_t[i, j] (1 - sign(p_i - p_j)) / 2 for
    every rank vector p in the (P, M) array `perms`."""
    P = np.asarray(perms)
    step = (1.0 - np.sign(P[:, :, None] - P[:, None, :])) / 2.0
    return np.einsum("pij,tij,t->p", step, _pair_gains(profiles), np.asarray(alphas, float))


def ranking_objective_scale(alphas, profiles):
    """sum_t |alpha_t| * (gain mass of profile t), a bound on |F|."""
    return float(np.abs(alphas) @ _pair_gains(profiles).sum(axis=(1, 2)))


def hellinger_objective(p, alphas, Y):
    s = 0.0
    for a, row in zip(alphas, Y):
        s += a * float(((np.sqrt(p) - np.sqrt(row)) ** 2).sum())
    return s


def project_to_sphere_orthant(v):
    """Euclidean projection onto {q >= 0, ||q||_2 = 1}: clip the negatives and
    normalise; with no positive entry, the vertex of the largest entry."""
    q = np.maximum(v, 0.0)
    norm = float(np.linalg.norm(q))
    if norm > 0.0:
        return q / norm
    q = np.zeros_like(v)
    q[int(np.argmax(v))] = 1.0
    return q


HellingerOracleResult = namedtuple(
    "HellingerOracleResult", "p converged iterations residual")


def projected_gradient_hellinger(alphas, Y, iters=20000, tol=1e-7):
    """Minimize sum_i a_i * hellinger^2(p, Y_i) over the simplex by projected
    gradient with Armijo backtracking, in the coordinates q = sqrt(p).

    p on the simplex is q on {q >= 0, ||q||_2 = 1}; projecting there clips the
    negatives and normalises.  The objective sum_i a_i ||q - sqrt(Y_i)||^2 is
    a quadratic with Hessian 2 sum_i a_i I, so its conditioning does not depend
    on how small the optimal p_j are.  (In p the curvature of a term grows
    like p_j^(-3/2): one tiny optimal coordinate forces tiny steps on all.)

    Stops when the gradient mapping ||q - proj(q - t g)|| / t at the fixed
    step t = 1 / (4 sum_i |a_i|) is at most ``tol``, or after ``iters`` trial
    steps, or when no step down to 1e-16 passes the Armijo test.  Rounding
    puts a floor of about 1e-8 under the reachable residual, so ``tol`` must
    stay above it.  Returns p = q * q, whether the residual met ``tol``, the
    trial steps taken and the final residual.

    Written from the definition only: it must neither import ``surrloss`` nor
    evaluate the closed form max(b, 0)^2 / sum max(b, 0)^2.
    """
    Y = np.asarray(Y, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    sqY = np.sqrt(Y)
    t_ref = 0.25 / float(np.abs(alphas).sum())

    def change(q, cand):
        # objective(cand) - objective(q), summed as differences so that the
        # Armijo test keeps its precision next to the optimum
        return float(alphas @ ((cand + q - 2.0 * sqY) @ (cand - q)))

    def grad(q):
        return 2.0 * (alphas[:, None] * (q - sqY)).sum(axis=0)

    def residual(q, g):
        return float(np.linalg.norm(q - project_to_sphere_orthant(q - t_ref * g))) / t_ref

    q = np.full(Y.shape[1], 1.0 / math.sqrt(Y.shape[1]))
    g = grad(q)
    res = residual(q, g)
    step = 0.1
    it = 0
    while res > tol and it < iters:
        it += 1
        cand = project_to_sphere_orthant(q - step * g)
        df = change(q, cand)
        if df < 0.0 and df <= 1e-4 * float(g @ (cand - q)):
            q = cand
            g = grad(q)
            res = residual(q, g)
            step = min(step * 1.25, 10.0)
        else:
            step *= 0.5
            if step < 1e-16:
                break
    return HellingerOracleResult(q * q, res <= tol, it, res)


def structured_risk_double_loop(rho, loss_table, f_idx):
    """E(f) by literal double loop; f_idx[ix] indexes the y chosen at x."""
    total = 0.0
    for ix in range(rho.shape[0]):
        for iy in range(rho.shape[1]):
            total += rho[ix, iy] * loss_table[f_idx[ix], iy]
    return total


def surrogate_risk(rho, g):
    """R(g) = sum_{x,y} rho[x, y] ||g[x] - e_y||^2, vectorized over (x, y)."""
    diff = np.asarray(g, dtype=float)[:, None, :] - np.eye(rho.shape[1])
    return float((rho * (diff * diff).sum(axis=2)).sum())


def surrogate_risk_double_loop(rho, g):
    """R(g) = sum_{x,y} rho[x, y] ||g[x] - e_y||^2 by literal loops over x, y
    and the coordinates k of g[x]."""
    total = 0.0
    for ix in range(rho.shape[0]):
        for iy in range(rho.shape[1]):
            sq = 0.0
            for k in range(g.shape[1]):
                d = g[ix, k] - (1.0 if k == iy else 0.0)
                sq += d * d
            total += rho[ix, iy] * sq
    return total


def dense_grid_min(alphas, y_train, loss, bound, points=1_000_000):
    """Dense-grid minimum of sum_i alphas_i loss(p, y_i) on [-bound, bound].

    `loss` is a Cauchy, SquaredError or AbsoluteError instance, recognised by
    its class name; each term is written from the loss's definition (the
    Cauchy one through np.log, deliberately not the library's log1p).
    """
    term = {"Cauchy": lambda d: loss.gamma * np.log(1.0 + d * d / loss.gamma),
            "SquaredError": lambda d: d * d,
            "AbsoluteError": np.abs}[type(loss).__name__]
    grid = np.linspace(-bound, bound, points)
    vals = np.zeros(points)
    for a, yt in zip(alphas, y_train):
        vals += a * term(grid - yt)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


def gaussian_kernel_matrix(A_rows, B_rows, sigma):
    """K[i, j] = exp(-||a_i - b_j||^2 / sigma), straight from the definition."""
    d = ((A_rows[:, None, :] - B_rows[None, :, :]) ** 2).sum(axis=-1)
    return np.exp(-d / sigma)


def brute_force_cv_means(X, sigmas, lambdas, splits, score,
                         kernel_matrix=gaussian_kernel_matrix):
    """Mean held-out score at every (sigma, lambda) of a kernel sweep.

    Each (sigma, lambda, fold) builds its own kernel matrices with
    ``kernel_matrix(A_rows, B_rows, sigma)``, the Gaussian one by default, and
    solves (K + n_tr * lambda * I) A = K_x with a dense ``np.linalg.solve``;
    no decomposition is shared between grid points.  ``splits`` lists
    (train, validation) index arrays; ``score(A, tr, va)`` returns one score
    or a vector of them.  The result has shape
    (len(sigmas), len(lambdas)) + the shape of a score.
    """
    X = np.asarray(X, dtype=float)
    means = []
    for sigma in sigmas:
        row = []
        for lam in lambdas:
            fold_scores = []
            for tr, va in splits:
                K = kernel_matrix(X[tr], X[tr], sigma)
                Kx = kernel_matrix(X[tr], X[va], sigma)
                A = np.linalg.solve(K + tr.size * lam * np.eye(tr.size), Kx)
                fold_scores.append(np.asarray(score(A, tr, va), dtype=float))
            row.append(np.mean(fold_scores, axis=0))
        means.append(row)
    return np.array(means)


def lowest_mean_then_larger_lambda(points):
    """Scan (mean, lambda, choice) triples in order; keep the lowest mean, on
    an exact tie the larger lambda, on a full tie the earlier point."""
    best = None
    for mean, lam, choice in points:
        if best is None or mean < best[0] or (mean == best[0] and lam > best[1]):
            best = (mean, lam, choice)
    return best[2]


def brute_force_cross_validate(X, sigmas, lambdas, splits, decode, score):
    """Rows and selection of a Gaussian-kernel k-fold sweep, by brute force.

    Every (sigma, lambda, fold) builds its own kernel matrices and runs one
    dense solve (``brute_force_cv_means``).  ``decode(A, tr)`` turns the
    (n_tr, n_va) weights into the validation predictions and
    ``score(preds, va)`` into the fold's mean loss.  Rows are in grid order,
    sigma outer, lambda inner, as (sigma, lambda, mean); the selection is
    the (sigma, lambda) that ``lowest_mean_then_larger_lambda`` picks.
    """
    means = brute_force_cv_means(X, sigmas, lambdas, splits,
                                 lambda A, tr, va: score(decode(A, tr), va))
    rows = [(sigma, lam, float(means[si, li]))
            for si, sigma in enumerate(sigmas) for li, lam in enumerate(lambdas)]
    selected = lowest_mean_then_larger_lambda((m, lam, (sigma, lam)) for sigma, lam, m in rows)
    return rows, selected
