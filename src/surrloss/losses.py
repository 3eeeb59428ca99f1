"""Structured losses and their finite-output embeddings.

Every loss here admits a bilinear form <psi(y), V psi(y')> over some embedding
of the output space; for finite output sets that embedding is explicit
(canonical basis, V = `loss_table` of the labels against themselves) and
`c_delta` computes its comparison constant ||V||_2.  For the rank loss psi(y)
is the flattened step matrix of a rank vector (`rank_step_rows`), paired with
a profile's flattened gains, so `rank_loss_matrix` tabulates C rank vectors
against T profiles as one product.

`loss_table` is the one tabulation of every other loss: decoding, the finite
embedding's V and the oracle risks all read their values from it.  It has
closed forms only for the SCALAR_LOSSES, each the one `of_difference`
formula that the loss's own call applies too.  Squared Hellinger has none: the
benchmark (`bench/stages.py`) counts the per-pair `squared_hellinger` calls
of the simplex decoder's fallback, which a closed form would remove.  Rank
losses tabulate through `rank_loss_matrix`, whose rows are permutations and
whose columns are rating profiles, not elements of one output set.

Rank-loss conventions (the literature leaves both open):
  * ranks: y[i] is the rank of item i, 1 = best; sign(0) = 0, so tied ranks
    pay half a pair cost.
  * pair reward: gains[i, j] = max(0, r_j - r_i), so only true inversions
    pay and the rating sort is optimal.  The normalized variant divides by
    the total gain mass (0/0 -> 0) and lives in [0, 1].
"""

import numpy as np

SIMPLEX_ATOL = 1e-9


def zero_one(y, y2):
    return 0.0 if y == y2 else 1.0


def _check_simplex(y, name):
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if np.any(y < 0):
        raise ValueError(f"{name} has negative entries")
    s = y.sum()
    if abs(s - 1.0) > SIMPLEX_ATOL:
        raise ValueError(f"{name} sums to {s}, not 1 within {SIMPLEX_ATOL}")
    return y / s


def _check_simplex_rows(Y, name):
    """`_check_simplex` for every row of a (Q, d) array at once."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"{name} must be a (Q, d) array")
    if np.any(Y < 0):
        raise ValueError(f"{name} row {int(np.argwhere(Y < 0)[0, 0])} has negative entries")
    s = Y.sum(axis=1)
    off = np.abs(s - 1.0) > SIMPLEX_ATOL
    if np.any(off):
        q = int(np.argmax(off))
        raise ValueError(f"{name} row {q} sums to {s[q]}, not 1 within {SIMPLEX_ATOL}")
    return Y / s[:, None]


def squared_hellinger(y, y2):
    """sum_i (sqrt(y_i) - sqrt(y2_i))^2 on the simplex; range [0, 2]."""
    y = _check_simplex(y, "y")
    y2 = _check_simplex(y2, "y'")
    if y.shape != y2.shape:
        raise ValueError("histogram dimensions differ")
    return float(((np.sqrt(y) - np.sqrt(y2)) ** 2).sum())


def squared_hellinger_rows(P, Y):
    """squared_hellinger(P[q], Y[q]) for every row pair of two (Q, d) arrays,
    as one (Q,) vector; each row is checked and renormalised as there."""
    P = _check_simplex_rows(P, "predictions")
    Y = _check_simplex_rows(Y, "targets")
    if P.shape != Y.shape:
        raise ValueError("histogram arrays differ in shape")
    return ((np.sqrt(P) - np.sqrt(Y)) ** 2).sum(axis=1)


def rank_gain_matrix(ratings):
    """gains[t, i, j] = max(0, r_tj - r_ti) for a (T, M) stack of rating
    profiles r_t."""
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 2 or ratings.shape[1] < 2:
        raise ValueError("rating profiles must be a (T, M) array with M >= 2")
    if not np.all(np.isfinite(ratings)):
        raise ValueError("ratings must be finite")
    return np.maximum(ratings[:, None, :] - ratings[:, :, None], 0.0)


def rank_pair_sum(gains, ranks):
    """sum_ij gains[i, j] * (1 - sign(ranks[i] - ranks[j])) / 2.

    Pairs ranked i above j pay gains[i, j]; tied ranks pay half.
    """
    return float((np.ravel(gains) * rank_step_rows(ranks[None])[0]).sum())


def rank_step_rows(ranks):
    """The step matrices (1 - sign(r_i - r_j)) / 2 of a (C, M) stack of rank
    vectors, each flattened to a row of the (C, M*M) result.

    This is the embedding psi of the rank loss: the loss of rank vector c
    against a profile is the inner product of its row with the profile's
    flattened gains.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    step = 0.5 * (1.0 - np.sign(ranks[:, :, None] - ranks[:, None, :]))
    return step.reshape(ranks.shape[0], ranks.shape[1] ** 2)


def rank_loss(ranks, ratings, normalize=False):
    """Pairwise ranking loss of a rank vector against a rating profile."""
    ranks = np.asarray(ranks)
    ratings = np.asarray(ratings, dtype=float)
    if ranks.ndim != 1 or ratings.ndim != 1:
        raise ValueError("rank vector and rating profile must be 1-d")
    return float(rank_loss_matrix(ranks[None], ratings[None], normalize)[0, 0])


def rank_loss_matrix(ranks, ratings, normalize=False):
    """(C, T) table of the rank loss of rank vector ranks[c] against rating
    profile ratings[t]; `rank_loss` is its 1 x 1 case.

    One GEMM of the flattened step matrices of the C rank vectors against the
    flattened gains of the T profiles; the normalized form divides column t
    by profile t's gain mass (0/0 -> 0).  Every row of `ranks` must be a
    permutation of 1..M, the ratings finite and M >= 2.  With integer
    ratings every entry is exact.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    ratings = np.asarray(ratings, dtype=float)
    if ranks.ndim != 2 or ratings.ndim != 2:
        raise ValueError("ranks must be a (C, M) and ratings a (T, M) array")
    m = ratings.shape[1]
    gains = rank_gain_matrix(ratings).reshape(ratings.shape[0], m * m)
    if ranks.shape[1] != m:
        raise ValueError(f"rank vectors have length {ranks.shape[1]}, expected {m}")
    if not (np.sort(ranks, axis=1) == np.arange(1, m + 1)).all():
        raise ValueError("a rank vector is not a permutation of 1..M")
    table = rank_step_rows(ranks) @ gains.T
    if not normalize:
        return table
    mass = gains.sum(axis=1)
    return np.divide(table, mass, out=np.zeros_like(table), where=mass > 0.0)


class _ScalarLoss:
    """A loss of the difference d = y - y' alone.  `of_difference` is its one
    formula: a call applies it to a float, `loss_table` to an array."""

    def __call__(self, y, y2):
        return self.of_difference(float(y) - float(y2))


class Cauchy(_ScalarLoss):
    """Robust scalar loss gamma * log(1 + (y - y')^2 / gamma)."""

    def __init__(self, gamma):
        if not np.isfinite(gamma) or gamma <= 0:
            raise ValueError("gamma must be positive and finite")
        self.gamma = float(gamma)

    def of_difference(self, d):
        return self.gamma * np.log1p(d * d / self.gamma)


class SquaredError(_ScalarLoss):
    def of_difference(self, d):
        return d * d


class AbsoluteError(_ScalarLoss):
    def of_difference(self, d):
        return np.abs(d)


SCALAR_LOSSES = (Cauchy, SquaredError, AbsoluteError)


class ZeroOne:
    """Misclassification loss; validates labels when a label set is given."""

    def __init__(self, labels=None):
        self.labels = None if labels is None else list(labels)
        self._known = None if labels is None else set(self.labels)

    def __call__(self, y, y2):
        if self._known is not None:
            if y not in self._known or y2 not in self._known:
                raise ValueError(f"unknown label in ({y!r}, {y2!r})")
        return zero_one(y, y2)


class SquaredHellinger:
    def __call__(self, y, y2):
        return squared_hellinger(y, y2)


class RankLoss:
    """Ranking loss; the second argument carries the rating profile."""

    def __init__(self, normalize=False):
        self.normalize = bool(normalize)

    def __call__(self, ranks, ratings):
        return rank_loss(ranks, ratings, normalize=self.normalize)


class FiniteTable:
    """Arbitrary loss over a finite label set, given as a |Y| x |Y| table."""

    def __init__(self, labels, table):
        self.labels = list(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        self.table = np.asarray(table, dtype=float)
        if self.table.shape != (len(self.labels), len(self.labels)):
            raise ValueError("table shape does not match label count")
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __call__(self, y, y2):
        try:
            return float(self.table[self._index[y], self._index[y2]])
        except KeyError as e:
            raise ValueError(f"unknown label {e.args[0]!r}") from None


def loss_table(loss, rows, cols):
    """(R, C) table of loss(rows[a], cols[b]).

    The SCALAR_LOSSES apply their formula to the whole difference array
    rows[:, None] - cols[None, :].  Any other loss is called once per pair,
    row by row, so a validating loss raises at the first pair it rejects.
    """
    if isinstance(loss, SCALAR_LOSSES):
        return loss.of_difference(np.asarray(rows, dtype=float)[:, None]
                                  - np.asarray(cols, dtype=float)[None, :])
    table = np.empty((len(rows), len(cols)))
    for a, y in enumerate(rows):
        for b, y2 in enumerate(cols):
            table[a, b] = loss(y, y2)
    return table


def c_delta(loss, labels):
    """The comparison constant c_delta = ||V||_2 of a finite output set,
    where V = loss_table(loss, labels, labels): with psi the canonical basis,
    loss(y, y') = psi(y)^T V psi(y') and max ||psi(y)|| = 1."""
    labels = list(labels)
    if len(labels) < 1:
        raise ValueError("need at least one label")
    if len(set(map(_hashable, labels))) != len(labels):
        raise ValueError("duplicate labels")
    return float(np.linalg.norm(loss_table(loss, labels, labels), 2))


def _hashable(label):
    if isinstance(label, np.ndarray):
        return tuple(label.tolist())
    if isinstance(label, list):
        return tuple(label)
    return label


def group_outputs(outputs):
    """(distinct, group): the distinct outputs in order of first appearance,
    keyed by `_hashable`, and the (n,) index into `distinct` of each output."""
    slot, distinct, group = {}, [], []
    for y in outputs:
        key = _hashable(y)
        if key not in slot:
            slot[key] = len(distinct)
            distinct.append(y)
        group.append(slot[key])
    return distinct, np.asarray(group, dtype=np.intp)
