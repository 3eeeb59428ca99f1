"""Prediction step: minimize F(y) = sum_i alpha_i(x) * loss(y, y_i).

Four output spaces are supported:
  * Exhaustive       -- finite candidate sets through one loss table: the
                        loss is evaluated once per (candidate, distinct
                        training output) pair, and F for a whole batch is
                        one (C, U) @ (U, Q) product.
  * RankingFas       -- permutations, exact sort of s = A^T R: the weighted
                        rating of each item, one product per batch of
                        queries, then a stable descending argsort per row.
  * ScalarGrid       -- bounded reals, uniform grid + one polish of the grid
                        best, safeguarded Newton on F' (bisection where F''
                        is not positive), for any `losses.ScalarLoss`;
                        SCALAR_CHUNK query columns at a time.
  * SimplexHellinger -- histograms, closed-form square-root barycenter.

Ties break to the lowest index.  All decoders are pure functions.

Each decoder class states in one place which losses and training outputs
it accepts and how it decodes, in three methods: `check_loss(loss)` rejects
a loss it does not minimise (RankingFas and SimplexHellinger minimise one
fixed loss in closed form, and ScalarGrid polishes with the derivatives a
`losses.ScalarLoss` states; Exhaustive calls any loss), `check_outputs(Y)`
returns the training outputs as the decoder reads them or raises a
ValueError, and `decode(A, y_train, loss)` calls the class's `decode_*`
function by its module name, which the benchmark's stage map traces.

`decode_batch` is the one decode from an (n, Q) weight matrix, which
prediction and cross-validation both go through: the decoder's `check_loss`,
then its `decode` of the outputs its `check_outputs` returns.  Every
`decode_*` function checks its weights in one place, `_weights`: one (n, Q)
matrix or one ValueError that names both shapes.  `predict` is a batch of one,
`predict_batch` on the one-row batch x[None, :], except for Exhaustive: a
single Exhaustive query reads ghat(x) = C^T k_x from the model's cached
coefficients (`TrainedSurrogate.output_coefficients`), with no solve and no
regroup of the n training outputs (a label model loaded from a blob starts
with C from it, so this route never builds its factor), and
`Exhaustive.decode` scores the candidates against the U distinct outputs
weighted by ghat, one (U, 1) column.  The objective is the same,
sum_u ghat_u loss(c, y_u) = sum_i alpha_i loss(c, y_i), at C*U loss values.
`predict_batch` stays on the (n, Q) weights, which cross-validation decodes
from, because the benchmark's stage map (`bench/stages.py`) counts the
weight solve (`surrogate.alpha_weights_batch`) on the label workload.  The
two Exhaustive routes round differently, so `predict` and `predict_batch`
agree exactly except where two candidates' objectives lie within rounding
of each other.

Exhaustive and ScalarGrid read every loss value from `losses.loss_table`.
`_loss_matrix`, a bare `loss_table` call, stays only because the stage map
traces it by that name; so do `aggregate_pair_costs` and `ranking_objective`,
the ranking objective's pair-cost form, which no decode calls.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels, losses, surrogate

SCALAR_CHUNK = 256  # query columns per scalar decode step
STEP_TOL = 1e-12  # the scalar polish stops once |step| <= STEP_TOL * max(1, |p|)
NEWTON_SNAP = 36  # polished points snap to multiples of 2**-36 (1.5e-11)


@dataclass(frozen=True)
class Exhaustive:
    candidates: list

    def __post_init__(self):
        if len(self.candidates) == 0:
            raise ValueError("candidate list must be non-empty")

    def check_loss(self, loss):
        """Any loss: the decode calls it on (candidate, training output) pairs."""

    def check_outputs(self, Y):
        """The training outputs as given; `losses._hashable` keys each label."""
        return Y

    def decode(self, A, y_train, loss):
        best, _ = decode_exhaustive(self.candidates, A, loss, y_train)
        return [self.candidates[c] for c in best]


@dataclass(frozen=True)
class RankingFas:
    """Rankings of `items` items, decoded by the exact sort of s = A^T R
    (`decode_ranking_fas`).  The name, from the feedback-arc-set view of the
    general pairwise problem, stays for API and report stability."""

    items: int

    def __post_init__(self):
        if self.items < 2:
            raise ValueError("need at least 2 items")

    def check_loss(self, loss):
        if not (isinstance(loss, losses.RankLoss) and not loss.normalize):
            raise ValueError("the ranking decoder minimises RankLoss(normalize=False), "
                             f"not {type(loss).__name__}")

    def check_outputs(self, Y):
        """The rating profiles as a float (T, items) array."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != self.items:
            raise ValueError(f"ranking decoder needs (T, {self.items}) rating profiles")
        return Y

    def decode(self, A, y_train, loss):
        return decode_ranking_fas(A, y_train, self.items)


@dataclass(frozen=True)
class ScalarGrid:
    """Decode on [-bound, bound] for a `losses.ScalarLoss`: scan
    `grid_points` uniform points, then polish the best one within its two
    neighbours by at most `refine_iters` safeguarded Newton or bisection
    steps, which stop early once converged.  refine_iters = 0 is a plain grid
    scan.  Points are never decoded outside the bound, whatever the training
    outputs.

    The polish stays inside the bracket [grid[b-1], grid[b+1]] of the grid
    best b, and the snap to multiples of 2**-NEWTON_SNAP moves it by at most
    2**-(NEWTON_SNAP+1); so every decoded point lies within `polish_radius()`
    of the point that the same call at refine_iters = 0 returns."""

    bound: float = 3.0
    grid_points: int = 512
    refine_iters: int = 40

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("need at least 2 grid points")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be >= 0")
        if not np.isfinite(self.bound) or self.bound <= 0:
            raise ValueError("bound must be positive and finite")

    def check_loss(self, loss):
        if not isinstance(loss, losses.ScalarLoss):
            raise ValueError("the scalar decoder minimises Cauchy, SquaredError or "
                             f"AbsoluteError, not {type(loss).__name__}")

    def check_outputs(self, Y):
        """The targets as a float (n,) array, whatever their range: a caller
        that refuses targets beyond the bound says so itself."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 1:
            raise ValueError("scalar decoder needs scalar training outputs")
        return Y

    def decode(self, A, y_train, loss):
        return decode_scalar_grid_batch(A, y_train, loss, self)[0]

    def polish_radius(self):
        """The largest distance between a decoded point and its grid best: the
        widest grid step plus the snap's half-unit, or 0 without a polish."""
        if self.refine_iters == 0:
            return 0.0
        grid = np.linspace(-self.bound, self.bound, self.grid_points)
        return float(np.diff(grid).max()) + 2.0 ** -(NEWTON_SNAP + 1)


@dataclass(frozen=True)
class SimplexHellinger:
    def check_loss(self, loss):
        if not isinstance(loss, losses.SquaredHellinger):
            raise ValueError("the simplex decoder minimises SquaredHellinger, "
                             f"not {type(loss).__name__}")

    def check_outputs(self, Y):
        """The training histograms as a float (n, d) array with n >= 1, each
        row finite and non-negative (`losses._check_histogram_rows`)."""
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[0] == 0:
            raise ValueError("training outputs must be a non-empty (n, d) array")
        losses._check_histogram_rows(Y, "training outputs")
        return Y

    def decode(self, A, y_train, loss):
        return decode_simplex_hellinger_batch(A, y_train)


def _weights(A, n):
    """A as the float (n, Q) weights of Q queries over n training outputs, or
    one ValueError naming both shapes."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != n:
        raise ValueError(f"weights must be (n, Q) with n = {n}, got shape {A.shape}")
    return A


def decode_exhaustive(candidates, A, loss, y_train):
    """Minimize F over a finite candidate list for Q queries at once.

    A is the (n, Q) matrix of per-query weights.  The training outputs are
    grouped by value (`losses.group_outputs`); the loss is evaluated once
    per (candidate, distinct output) pair to fill a (C, U) table L, and A's
    rows are summed per distinct output into B (U, Q), so F = L @ B.
    Returns (indices (Q,), F values (Q,)); ties go to the lowest index.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list must be non-empty")
    A = _weights(A, len(y_train))
    distinct, group = losses.group_outputs(y_train)
    L = losses.loss_table(loss, candidates, distinct)
    B = np.zeros((len(distinct), A.shape[1]))
    np.add.at(B, group, A)
    F = L @ B
    best = np.argmin(F, axis=0)
    return best, F[best, np.arange(F.shape[1])]


def aggregate_pair_costs(alphas, profiles):
    """W[i, j] = sum_t alpha_t * gains(profile_t)[i, j].

    Exchanging the sums turns F(y) into sum_ij W_ij (1 - sign(y_i - y_j)) / 2,
    so one M x M matrix carries the whole objective.  The decoder does not
    need it (see `decode_ranking_fas`); it stays with `ranking_objective` as
    the objective's pair-cost form, which the benchmark's stage map names.
    """
    alphas = np.asarray(alphas, dtype=float)
    profiles = np.ascontiguousarray(profiles, dtype=float)
    if profiles.ndim != 2:
        raise ValueError("profiles must be a (T, M) array")
    if profiles.shape[0] != alphas.shape[0]:
        raise ValueError("alpha / profile count mismatch")
    return np.einsum("t,tij->ij", alphas, losses.rank_gain_matrix(profiles))


def ranking_objective(W, ranks):
    """F(y) through aggregated pair costs: i ranked above j pays W[i, j], a tie half."""
    return float((np.ravel(W) * losses.rank_step_rows(np.asarray(ranks)[None])[0]).sum())


def profile_sort_ranks(ratings):
    """Rank vector (1 = first) of the descending rating sort (stable, low index
    on ties); for a (T, M) stack of profiles, the (T, M) rank vectors of their
    sorts."""
    order = np.argsort(-np.asarray(ratings, dtype=float), axis=-1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return ranks


def decode_ranking_fas(A, profiles, items):
    """Exact sort of s = A^T R: the stable descending sort of the weighted
    item ratings minimises F(y) = sum_t a_t rank_loss(y, r_t) exactly.

    With gains max(0, r_tj - r_ti) the aggregated pair costs satisfy
    W_ij - W_ji = s_j - s_i, so ranking i above j is the cheaper side of the
    pair exactly when s_i >= s_j, and the sort takes the cheaper side of
    every pair at once, for any sign of the weights.  Exact ties in s cost
    the same either way round and go to the lowest index; BLAS may round the
    s of two copied item columns apart, which leaves the objective unchanged
    up to rounding.  A is the (T, Q) weight matrix; the result is the
    (Q, M) rank vectors.
    """
    profiles = RankingFas(items).check_outputs(profiles)
    A = _weights(A, profiles.shape[0])
    return profile_sort_ranks(np.tensordot(A, profiles, axes=(0, 0)))


def _objective_batch(points, y_train, loss, A):
    """F at a batch of scalar points for Q queries; A is (n, Q)."""
    return np.einsum("iq,qi->q", A, losses.loss_table(loss, points, y_train))


def _loss_matrix(points, y_train, loss):
    """(G, n) table of loss(point_a, y_i); shared across queries."""
    return losses.loss_table(loss, points, y_train)


def decode_scalar_grid_batch(A, y_train, loss, spec, scan=None):
    """Grid scan + polish for Q queries at once.

    A is the (n, Q) matrix of per-query weights and `loss` a
    `losses.ScalarLoss`.  Each query gets the best grid point, then at most
    `refine_iters` steps of `_newton_polish` on the bracketing sub-interval;
    the polished point is kept only if its objective is below the grid
    best's.  Returns (points (Q,), objectives (Q,)).

    The (G, n) table of loss values between the grid and y_train is built
    once per call, whatever Q, so a CV sweep hands in a fold's whole
    (kernel, lambda) grid, S*L*n_va columns, and builds the table once per
    fold.  Queries are decoded SCALAR_CHUNK columns at a time, which bounds
    the (G, Q) and (n, Q) working tables; as with any batch width, BLAS may
    round a column's grid objectives differently.

    `scan`, when given, is the (points, objectives) of a call at
    refine_iters = 0 on the same columns: one of each per column, every point
    on the grid; anything else is a ValueError.  The call then builds no
    table and takes no grid product: it polishes from those grid bests and
    keeps a polished point only where its objective is below theirs.  Given
    the scan of this very A, it returns bitwise what the plain call returns.
    """
    spec.check_loss(loss)
    y_train = np.asarray(y_train, dtype=float).ravel()
    A = _weights(A, y_train.shape[0])
    grid = np.linspace(-spec.bound, spec.bound, spec.grid_points)
    if scan is None:
        L = _loss_matrix(grid, y_train, loss)
    else:
        scan_best, scan_f = _check_scan(scan, grid, A.shape[1])
    points, values = np.empty(A.shape[1]), np.empty(A.shape[1])
    for start in range(0, A.shape[1], SCALAR_CHUNK):
        cols = slice(start, start + SCALAR_CHUNK)
        Ac = A[:, cols]
        if scan is None:
            F = L @ Ac  # (G, Q)
            best = np.argmin(F, axis=0)
            best_f = F[best, np.arange(Ac.shape[1])]
            del F  # freed before the polish and before the next chunk's table is built
        else:
            best, best_f = scan_best[cols], scan_f[cols]
        best_x = grid[best]
        if spec.refine_iters > 0:
            lo = grid[np.maximum(best - 1, 0)]
            hi = grid[np.minimum(best + 1, spec.grid_points - 1)]
            refined = _newton_polish(Ac, y_train, loss, best_x, lo, hi, spec.refine_iters)
            # the snap may step past a bound that is no multiple of 2**-NEWTON_SNAP
            refined = np.clip(refined, grid[0], grid[-1])
            f_ref = _objective_batch(refined, y_train, loss, Ac)
            improve = f_ref < best_f
            best_x = np.where(improve, refined, best_x)
            best_f = np.where(improve, f_ref, best_f)
        points[cols], values[cols] = best_x, best_f
    return points, values


def _check_scan(scan, grid, Q):
    """The grid indices and objectives of a scan-only decode's (points,
    objectives) of Q columns, or a ValueError."""
    points, values = (np.asarray(v, dtype=float) for v in scan)
    if points.shape != (Q,) or values.shape != (Q,):
        raise ValueError(f"a scan needs one point and one objective per column: {Q} columns, "
                         f"shapes {points.shape} and {values.shape}")
    best = np.minimum(np.searchsorted(grid, points), grid.size - 1)
    if not np.array_equal(grid[best], points):
        raise ValueError("a scan's points must lie on the decoder's grid")
    return best, values


def _newton_polish(A, y_train, loss, start, lo, hi, iters):
    """Safeguarded Newton on F' (`rtsafe`, Numerical Recipes 9.4), at most
    `iters` steps per column from `start` in [lo, hi].

    The sign of F' at each iterate shrinks the bracket; a step is Newton's
    when F'' > 0 and it lands inside the bracket, else a bisection.  One
    Newton step reaches the weighted mean of squared error; absolute error
    has F'' = 0 and bisects to the kink where F' changes sign.  A column
    stops once its step is at most STEP_TOL * max(1, |p|).  The sums run
    along the rows of the (Q, n) transpose, one row per column, so a column's
    answer does not depend on the batch around it; the answer is snapped to
    multiples of 2**-NEWTON_SNAP, so weights that differ in the last bits (a
    GEMV's against a GEMM's) give the same point.

    The working state (the transpose's rows, iterates and brackets) holds
    only the columns still moving: it is compacted on the steps where some
    column stops, and a step reads it whole.  The (Q, n) differences p - y_i
    go into one buffer allocated per call, so a step allocates only the
    loss's own temporaries (`losses.Cauchy.slope_curvature` keeps two).  A,
    start, lo and hi are not written.
    """
    At = np.ascontiguousarray(A.T)
    x, lo, hi = start.astype(float), np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    p = x.copy()
    active = np.arange(At.shape[0])
    diff = np.empty_like(At)  # p - y_i, its leading rows reused by every step
    for _ in range(iters):
        d = np.subtract(x[:, None], y_train, out=diff[:x.shape[0]])
        slope, curv = loss.slope_curvature(At, d)
        a = np.where(slope < 0.0, x, lo)  # the minimum lies right of x
        b = np.where(slope > 0.0, x, hi)
        convex = curv > 0.0
        newton = x - np.divide(slope, curv, out=np.zeros_like(slope), where=convex)
        step_in = convex & (newton >= a) & (newton <= b)
        nxt = np.where(step_in, newton, 0.5 * (a + b))
        p[active] = nxt
        moving = np.abs(nxt - x) > STEP_TOL * np.maximum(1.0, np.abs(x))
        if not moving.all():
            if not moving.any():
                break
            active, At, nxt, a, b = active[moving], At[moving], nxt[moving], a[moving], b[moving]
        x, lo, hi = nxt, a, b
    return np.ldexp(np.rint(np.ldexp(p, NEWTON_SNAP)), -NEWTON_SNAP)


def decode_simplex_hellinger(alphas, y_train):
    """Closed-form minimizer of the alpha-weighted squared Hellinger sum for
    one query's (n,) weights.

    With b_j = sum_i alpha_i sqrt(y_ij), minimizing F is maximizing
    sum_j b_j sqrt(p_j) on the simplex, whose KKT solution is
    p_j = max(b_j, 0)^2 / sum_k max(b_k, 0)^2.  If every b_j <= 0 the
    optimum degenerates to a vertex; we fall back to the training histogram
    of least F.  On the simplex F(y_i) = 2 sum(alpha) - 2 sqrt(y_i) . b, so
    that is the row of largest sqrt(Y) @ b, ties to the lowest index.
    `decode_simplex_hellinger_batch` decodes its fallback columns here.
    """
    Y = SimplexHellinger().check_outputs(y_train)
    if np.shape(alphas) != (Y.shape[0],):
        raise ValueError(f"weights must be (n,) with n = {Y.shape[0]}, "
                         f"got shape {np.shape(alphas)}")
    b = np.asarray(alphas, dtype=float) @ np.sqrt(Y)
    pos = np.maximum(b, 0.0)
    mass = float((pos * pos).sum())
    if mass > 0.0:
        return pos * pos / mass
    return Y[np.argmax(np.sqrt(Y) @ b)].copy()  # not a view of the caller's outputs


def decode_simplex_hellinger_batch(A, y_train):
    """Closed-form simplex decode for Q queries; A is (n, Q)."""
    Y = SimplexHellinger().check_outputs(y_train)
    A = _weights(A, Y.shape[0])
    b = A.T @ np.sqrt(Y)  # (Q, d)
    pos = np.maximum(b, 0.0)
    mass = (pos * pos).sum(axis=1)
    out = np.empty_like(pos)
    ok = mass > 0.0
    out[ok] = pos[ok] ** 2 / mass[ok, None]
    for q in np.nonzero(~ok)[0]:
        out[q] = decode_simplex_hellinger(A[:, q], Y)
    return out


def decode_batch(decoder, loss, y_train, A):
    """Decode Q queries from their (n, Q) weights A with the decoder of the
    output space: a list of candidates (Exhaustive), or an array of rank
    vectors (RankingFas, (Q, M)), points (ScalarGrid, (Q,)) or histograms
    (SimplexHellinger, (Q, d)).  Every decode from weights goes through here:
    the decoder checks the loss and the training outputs, and its `decode_*`
    function rejects weights that are not one (n, Q) matrix (`_weights`).
    """
    decoder.check_loss(loss)
    return decoder.decode(A, decoder.check_outputs(y_train), loss)


def predict(model, decoder, loss, x):
    """Decode one query: `predict_batch` on the batch x[None, :], except that
    Exhaustive decodes ghat(x) = C^T k_x over the distinct training outputs
    from the model's cached coefficients (see the module docstring)."""
    if isinstance(decoder, Exhaustive):
        distinct, C = model.output_coefficients
        g = C.T @ kernels.cross_kernel(model.kernel, model.X, x)
        return decoder.decode(g[:, None], distinct, loss)[0]
    y = predict_batch(model, decoder, loss, kernels._check_vector(x, "query")[None, :])[0]
    return y.item() if isinstance(y, np.generic) else y  # a point as a Python float


def predict_batch(model, decoder, loss, Xq):
    """Decode a batch of queries: `alpha_weights_batch`, then `decode_batch`.
    A loss the decoder does not minimise is refused before any kernel work."""
    decoder.check_loss(loss)
    return decode_batch(decoder, loss, model.Y, surrogate.alpha_weights_batch(model, Xq))
