"""Prediction step: minimize F(y) = sum_i alpha_i(x) * loss(y, y_i).

Four output spaces are supported:
  * Exhaustive       -- finite candidate sets through one loss table: the
                        loss is called once per (candidate, distinct training
                        output) pair, and F for a whole batch of queries is
                        one (C, U) @ (U, Q) product.
  * RankingFas       -- permutations, greedy feedback-arc-set peel, guarded
                        by the rating sorts of the training profiles: the
                        peel and the T sorts are scored in one (T+1, M*M)
                        product with the aggregated pair costs.
  * ScalarGrid       -- bounded reals, uniform grid + golden-section polish.
  * SimplexHellinger -- histograms, closed-form square-root barycenter.

Ties break to the lowest index (for RankingFas: the peel first, then the
lowest training index).  All decoders are pure functions.  RankingFas and
SimplexHellinger minimise one fixed loss in closed form, so `predict` and
`predict_batch` reject any other loss given with them.  The
batched routes sum F in a different order than the single-query ones (a
matrix product instead of a running sum), so `predict_batch` and `predict`
agree exactly except where two candidates' objectives lie within rounding
of each other.
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


def decode_exhaustive_batch(candidates, A, loss, y_train):
    """Minimize F over a finite candidate list for Q queries at once.

    A is the (n, Q) matrix of per-query weights.  The training outputs are
    grouped by value (keyed by `losses._hashable`); the loss is called once
    per (candidate, distinct output) pair to fill a (C, U) table L, and A's
    rows are summed per distinct output into B (U, Q), so F = L @ B.
    Returns (indices (Q,), F values (Q,)); ties go to the lowest index.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != len(y_train):
        raise ValueError("alpha / training-output length mismatch")
    slot, distinct, group = {}, [], []
    for y in y_train:
        key = losses._hashable(y)
        if key not in slot:
            slot[key] = len(distinct)
            distinct.append(y)
        group.append(slot[key])
    L = np.empty((len(candidates), len(distinct)))
    for c_idx, cand in enumerate(candidates):
        for u, y in enumerate(distinct):
            L[c_idx, u] = loss(cand, y)
    B = np.zeros((len(distinct), A.shape[1]))
    np.add.at(B, np.asarray(group, dtype=np.intp), A)
    F = L @ B
    best = np.argmin(F, axis=0)
    return best, F[best, np.arange(F.shape[1])]


def decode_exhaustive(candidates, alphas, loss, y_train):
    """Single-query exhaustive decode; returns (candidate, F value)."""
    A = np.asarray(alphas, dtype=float)[:, None]
    best, vals = decode_exhaustive_batch(candidates, A, loss, y_train)
    return candidates[best[0]], float(vals[0])


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
    return np.einsum("t,tij->ij", alphas, losses.rank_gain_matrix(profiles))


def ranking_objective(W, ranks):
    """F(y) evaluated through an aggregated pair-cost matrix."""
    return losses.rank_pair_sum(W, np.asarray(ranks, dtype=np.int64))


def _order_to_ranks(order):
    """Rank vectors (1 = first) of the orders along the last axis."""
    order = np.asarray(order)
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


def profile_sort_ranks(ratings):
    """Rank vector of the descending rating sort (stable, low index on ties);
    for a (T, M) stack of profiles, the (T, M) rank vectors of their sorts."""
    order = np.argsort(-np.asarray(ratings, dtype=float), axis=-1, kind="stable")
    return _order_to_ranks(order)


def decode_ranking_fas(alphas, profiles, items):
    """Greedy source/sink peeling on the net-cost tournament, guarded by the
    rating sorts of the training profiles.

    The peel extracts, among remaining items, the one whose net cost of being
    ranked next is lowest (lowest index on ties).  The guard scores the peel
    and the sort of every training profile at once: row c of the
    (T+1, M*M) step-matrix stack (`losses.rank_step_rows`), the peel in
    row 0, times the flattened pair costs W, summed along the row.  That sum
    is `ranking_objective`'s, bit for bit, so the first minimum wins exactly
    as in a sequential strict-< scan: the peel on exact ties, then the lowest
    training index.  The objective never exceeds the best training sort's.
    """
    profiles = np.asarray(profiles, dtype=float)
    if profiles.ndim != 2 or profiles.shape[1] != items:
        raise ValueError(f"profiles must be (T, {items})")
    W = aggregate_pair_costs(alphas, profiles)
    order = accel.fas_peel(W - W.T)
    cands = np.vstack([_order_to_ranks(order), profile_sort_ranks(profiles)])
    F = (losses.rank_step_rows(cands) * W.ravel()).sum(axis=1)
    return cands[int(np.argmin(F))]


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


def _check_loss(decoder, loss):
    """RankingFas and SimplexHellinger never call the loss: each minimises one
    fixed loss in closed form, so any other loss is rejected, not ignored."""
    if isinstance(decoder, RankingFas) and not (
            isinstance(loss, losses.RankLoss) and not loss.normalize):
        raise ValueError("the ranking decoder minimises RankLoss(normalize=False), "
                         f"not {type(loss).__name__}")
    if isinstance(decoder, SimplexHellinger) and not isinstance(loss, losses.SquaredHellinger):
        raise ValueError("the simplex decoder minimises SquaredHellinger, "
                         f"not {type(loss).__name__}")


def predict(model, decoder, loss, x):
    """Compose alpha weights with the decoder matching the output space."""
    _check_loss(decoder, loss)
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
    """Batched predict; per-query results equal `predict`'s up to the
    summation order of F (see the module docstring)."""
    _check_loss(decoder, loss)
    A = surrogate.alpha_weights_batch(model, Xq)
    if isinstance(decoder, Exhaustive):
        best, _ = decode_exhaustive_batch(decoder.candidates, A, loss, model.Y)
        return [decoder.candidates[c] for c in best]
    if isinstance(decoder, ScalarGrid):
        y = np.asarray(model.Y, dtype=float)
        pts, _ = decode_scalar_grid_batch(A, y, loss, decoder)
        return pts
    if isinstance(decoder, SimplexHellinger):
        return decode_simplex_hellinger_batch(A, np.asarray(model.Y, dtype=float))
    return [_decode_one(model, decoder, loss, A[:, q]) for q in range(A.shape[1])]
