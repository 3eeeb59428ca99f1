"""Prediction step: minimize F(y) = sum_i alpha_i(x) * loss(y, y_i).

Four output spaces are supported:
  * Exhaustive       -- scan an explicit candidate list (finite sets).
  * RankingFas       -- permutations, greedy feedback-arc-set heuristic.
  * ScalarGrid       -- bounded reals, uniform grid + golden-section polish.
  * SimplexHellinger -- histograms, closed-form square-root barycenter.

Ties everywhere break to the lowest index so results are reproducible.
All decoders are pure functions; batching over queries is embarrassingly
parallel with per-query-deterministic results.
"""

from dataclasses import dataclass

import numpy as np

from . import accel, losses, surrogate

INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Exhaustive:
    candidates: list

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("candidate list must be non-empty")


@dataclass(frozen=True)
class RankingFas:
    items: int

    def __post_init__(self):
        if self.items < 2:
            raise ValueError("need at least 2 items")


@dataclass(frozen=True)
class ScalarGrid:
    bound: float = 3.0
    grid_points: int = 512
    refine_iters: int = 40

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("need at least 2 grid points")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if self.bound <= 0:
            raise ValueError("bound must be positive")


@dataclass(frozen=True)
class SimplexHellinger:
    pass


def decode_exhaustive(candidates, alphas, loss, y_train):
    """Scan candidates for the minimizer of F; returns (candidate, F value)."""
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape[0] != len(y_train):
        raise ValueError("alpha / training-output length mismatch")
    best_idx = 0
    best_val = np.inf
    for c_idx, cand in enumerate(candidates):
        val = 0.0
        for a, yi in zip(alphas, y_train):
            val += a * loss(cand, yi)
        if val < best_val:
            best_val = val
            best_idx = c_idx
    return candidates[best_idx], float(best_val)


def aggregate_pair_costs(alphas, profiles):
    """W[i, j] = sum_t alpha_t * gains(profile_t)[i, j].

    Exchanging the sums turns F(y) into sum_ij W_ij (1 - sign(y_i - y_j)) / 2,
    so one M x M matrix carries the whole objective.
    """
    alphas = np.asarray(alphas, dtype=float)
    profiles = np.ascontiguousarray(profiles, dtype=float)
    if profiles.ndim != 2:
        raise ValueError("profiles must be a (T, M) array")
    if profiles.shape[0] != alphas.shape[0]:
        raise ValueError("alpha / profile count mismatch")
    gains = np.maximum(profiles[:, None, :] - profiles[:, :, None], 0.0)
    return np.einsum("t,tij->ij", alphas, gains)


def ranking_objective(W, ranks):
    """F(y) evaluated through an aggregated pair-cost matrix."""
    return losses.rank_pair_sum(W, np.asarray(ranks, dtype=np.int64))


def _order_to_ranks(order):
    m = order.shape[0]
    ranks = np.empty(m, dtype=np.int64)
    ranks[order] = np.arange(1, m + 1)
    return ranks


def profile_sort_ranks(ratings):
    """Rank vector of the descending rating sort (stable, low index on ties)."""
    order = np.argsort(-np.asarray(ratings, dtype=float), kind="stable")
    return _order_to_ranks(order)


def decode_ranking_fas(alphas, profiles, items):
    """Greedy source/sink peeling on the net-cost tournament.

    The peel extracts, among remaining items, the one whose net cost of being
    ranked next is lowest (lowest index on ties).  The heuristic result is
    guarded against the rating sort of every training profile: the returned
    permutation is the best of those candidates, so its objective never
    exceeds the best single training profile's sort.
    """
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != items:
        raise ValueError(f"profiles must be (T, {items})")
    W = aggregate_pair_costs(alphas, profiles)
    net = W - W.T
    order = accel.fas_peel(net)
    best = _order_to_ranks(np.asarray(order))
    best_val = ranking_objective(W, best)
    for t in range(profiles.shape[0]):
        cand = profile_sort_ranks(profiles[t])
        val = ranking_objective(W, cand)
        if val < best_val:
            best_val = val
            best = cand
    return best


def _pointwise(loss, p, y):
    """loss(p, y) elementwise over broadcast arrays for the scalar losses with
    a closed form (Cauchy, squared and absolute error); None for any other."""
    if isinstance(loss, losses.Cauchy):
        d = p - y
        return loss.gamma * np.log1p(d * d / loss.gamma)
    if isinstance(loss, losses.SquaredError):
        d = p - y
        return d * d
    if isinstance(loss, losses.AbsoluteError):
        return np.abs(p - y)
    return None


def _objective_batch(points, y_train, loss, A):
    """F at a batch of scalar points for Q queries; A is (n, Q)."""
    points = np.asarray(points, dtype=float)
    L = _pointwise(loss, points[None, :], y_train[:, None])
    if L is not None:
        return np.einsum("iq,iq->q", A, L)
    out = np.empty(points.shape[0])
    for q in range(points.shape[0]):
        out[q] = sum(A[i, q] * loss(points[q], y_train[i]) for i in range(len(y_train)))
    return out


def _loss_matrix(points, y_train, loss):
    """(G, n) table of loss(point_a, y_i); shared across queries."""
    L = _pointwise(loss, points[:, None], y_train[None, :])
    if L is not None:
        return L
    L = np.empty((points.shape[0], y_train.shape[0]))
    for a in range(points.shape[0]):
        for i in range(y_train.shape[0]):
            L[a, i] = loss(points[a], y_train[i])
    return L


def scalar_loss_grid(spec, y_train, loss):
    """Precompute the (G, n) grid/training loss table for `spec`'s grid."""
    grid = np.linspace(-spec.bound, spec.bound, spec.grid_points)
    return _loss_matrix(grid, np.asarray(y_train, dtype=float).ravel(), loss)


def decode_scalar_grid_batch(A, y_train, loss, spec, loss_grid=None):
    """Grid scan + golden-section polish for Q queries at once.

    A is the (n, Q) matrix of per-query weights.  Each query gets the best
    grid point, then `refine_iters` golden-section steps on the bracketing
    sub-interval; the polished point is kept only if it does not lose to the
    grid best.  Returns (points (Q,), objectives (Q,)).

    loss_grid, when given, must be the (G, n) table of loss values between
    the spec's uniform grid and y_train (it only depends on those, so callers
    sweeping hyperparameters can precompute it once).
    """
    y_train = np.asarray(y_train, dtype=float).ravel()
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != y_train.shape[0]:
        raise ValueError("weights must be (n, Q)")
    grid = np.linspace(-spec.bound, spec.bound, spec.grid_points)
    L = _loss_matrix(grid, y_train, loss) if loss_grid is None else loss_grid
    F = L @ A  # (G, Q)
    best = np.argmin(F, axis=0)
    q_count = A.shape[1]
    best_x = grid[best]
    best_f = F[best, np.arange(q_count)]

    if spec.refine_iters > 0:
        a = grid[np.maximum(best - 1, 0)].astype(float)
        b = grid[np.minimum(best + 1, spec.grid_points - 1)].astype(float)
        c = b - INV_PHI * (b - a)
        d = a + INV_PHI * (b - a)
        fc = _objective_batch(c, y_train, loss, A)
        fd = _objective_batch(d, y_train, loss, A)
        for _ in range(spec.refine_iters):
            take = fc < fd
            a2 = np.where(take, a, c)
            b2 = np.where(take, d, b)
            fresh = np.where(take, b2 - INV_PHI * (b2 - a2), a2 + INV_PHI * (b2 - a2))
            c2 = np.where(take, fresh, d)
            d2 = np.where(take, c, fresh)
            f_fresh = _objective_batch(fresh, y_train, loss, A)
            fc2 = np.where(take, f_fresh, fd)
            fd2 = np.where(take, fc, f_fresh)
            a, b, c, d, fc, fd = a2, b2, c2, d2, fc2, fd2
        refined = np.where(fc < fd, c, d)
        f_ref = _objective_batch(refined, y_train, loss, A)
        improve = f_ref < best_f
        best_x = np.where(improve, refined, best_x)
        best_f = np.where(improve, f_ref, best_f)
    return best_x, best_f


def decode_scalar_grid(alphas, y_train, loss, spec):
    """Single-query scalar decode; returns the refined minimizer."""
    A = np.asarray(alphas, dtype=float)[:, None]
    pts, _ = decode_scalar_grid_batch(A, y_train, loss, spec)
    return float(pts[0])


def decode_simplex_hellinger(alphas, y_train):
    """Closed-form minimizer of the alpha-weighted squared Hellinger sum.

    With b_j = sum_i alpha_i sqrt(y_ij), minimizing F is maximizing
    sum_j b_j sqrt(p_j) on the simplex, whose KKT solution is
    p_j = max(b_j, 0)^2 / sum_k max(b_k, 0)^2.  If every b_j <= 0 the
    optimum degenerates to a vertex; we fall back to an exhaustive scan
    over the training histograms.
    """
    Y = np.asarray(y_train, dtype=float)
    if Y.ndim != 2 or Y.shape[0] == 0:
        raise ValueError("training outputs must be a non-empty (n, d) array")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape[0] != Y.shape[0]:
        raise ValueError("alpha / training-output length mismatch")
    b = alphas @ np.sqrt(Y)
    pos = np.maximum(b, 0.0)
    mass = float((pos * pos).sum())
    if mass > 0.0:
        return pos * pos / mass
    cands = [Y[i] for i in range(Y.shape[0])]
    best, _ = decode_exhaustive(cands, alphas, losses.SquaredHellinger(), cands)
    return np.asarray(best, dtype=float)


def decode_simplex_hellinger_batch(A, y_train):
    """Closed-form simplex decode for Q queries; A is (n, Q)."""
    Y = np.asarray(y_train, dtype=float)
    A = np.asarray(A, dtype=float)
    b = A.T @ np.sqrt(Y)  # (Q, d)
    pos = np.maximum(b, 0.0)
    mass = (pos * pos).sum(axis=1)
    out = np.empty_like(pos)
    ok = mass > 0.0
    out[ok] = pos[ok] ** 2 / mass[ok, None]
    for q in np.nonzero(~ok)[0]:
        out[q] = decode_simplex_hellinger(A[:, q], Y)
    return out


def predict(model, decoder, loss, x):
    """Compose alpha weights with the decoder matching the output space."""
    a = surrogate.alpha_weights(model, x).weights
    return _decode_one(model, decoder, loss, a)


def _decode_one(model, decoder, loss, a):
    if isinstance(decoder, Exhaustive):
        y, _ = decode_exhaustive(decoder.candidates, a, loss, model.Y)
        return y
    if isinstance(decoder, RankingFas):
        profiles = np.asarray(model.Y, dtype=float)
        if profiles.ndim != 2 or profiles.shape[1] != decoder.items:
            raise ValueError("ranking decoder needs (T, M) rating profiles as training outputs")
        return decode_ranking_fas(a, profiles, decoder.items)
    if isinstance(decoder, ScalarGrid):
        y = np.asarray(model.Y, dtype=float)
        if y.ndim != 1:
            raise ValueError("scalar decoder needs scalar training outputs")
        return decode_scalar_grid(a, y, loss, decoder)
    if isinstance(decoder, SimplexHellinger):
        Y = np.asarray(model.Y, dtype=float)
        if Y.ndim != 2:
            raise ValueError("simplex decoder needs histogram training outputs")
        return decode_simplex_hellinger(a, Y)
    raise ValueError(f"unknown decoder {decoder!r}")


def predict_batch(model, decoder, loss, Xq):
    """Batched predict; identical per-query results to `predict`."""
    A = surrogate.alpha_weights_batch(model, Xq)
    if isinstance(decoder, ScalarGrid):
        y = np.asarray(model.Y, dtype=float)
        pts, _ = decode_scalar_grid_batch(A, y, loss, decoder)
        return pts
    if isinstance(decoder, SimplexHellinger):
        return decode_simplex_hellinger_batch(A, np.asarray(model.Y, dtype=float))
    return [_decode_one(model, decoder, loss, A[:, q]) for q in range(A.shape[1])]
