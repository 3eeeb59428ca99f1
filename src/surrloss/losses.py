"""Structured losses and their finite-output embeddings.

Every loss here admits a bilinear form <psi(y), V psi(y')> over some embedding
of the output space; for finite output sets that embedding is explicit
(canonical basis, V = `loss_table` of the labels against themselves) and
`c_delta` computes its comparison constant ||V||_2.  For the rank loss psi(y)
is the flattened step matrix of a rank vector (`rank_step_rows`), paired with
a profile's flattened gains, so `rank_loss_matrix` tabulates C rank vectors
against T profiles as one product.

One label identity keys every finite output: `_hashable` turns lists, tuples
and arrays, at any depth, into tuples, so [0], (0,) and np.array([0]) are one
label.  `zero_one`, `ZeroOne`, `FiniteTable`, `c_delta` and `group_outputs`
(and so the Exhaustive decode) all key labels by it.

`loss_rows` is the one paired evaluation and `loss_table` the one
tabulation; decoding, CV scoring, the finite embedding's V and the oracle
risks all read their values from them.  Every loss here has `rows(preds,
truths)`, which scores a (Q, .) stack of (prediction, truth) pairs in one
call, and `loss_rows` dispatches to it; a loss without one (a user's plain
callable) is called once per pair.  `loss_table` dispatches to a loss's own
`table(rows, cols)` where it has one, else to `loss_rows` over the R*C index
pairs.  `ScalarLoss`, `ZeroOne` and `FiniteTable` encode each output
sequence as one array (the floats, or each label's index) and evaluate the
loss on the arrays, paired for `rows` and broadcast for `table`, with no
per-pair call; a call on one pair is `rows` of that stack of one.

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
    """0 for two outputs of one label identity (`_hashable`), else 1."""
    return 0.0 if _hashable(y) == _hashable(y2) else 1.0


def _check_histogram_rows(Y, name):
    """The one histogram-row check: raise a ValueError naming the first row of
    the 2-d Y with a NaN or an infinite entry, else the first row with a
    negative entry."""
    for bad, what in ((~np.isfinite(Y), "non-finite"), (Y < 0, "negative")):
        if np.any(bad):
            raise ValueError(f"{name} row {int(np.argwhere(bad)[0, 0])} has {what} entries")


def _check_simplex_rows(Y, name):
    """The (Q, d) array Y, each row checked on the simplex and renormalised."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"{name} must be a (Q, d) array")
    _check_histogram_rows(Y, name)
    s = Y.sum(axis=1)
    off = np.abs(s - 1.0) > SIMPLEX_ATOL
    if np.any(off):
        q = int(np.argmax(off))
        raise ValueError(f"{name} row {q} sums to {s[q]}, not 1 within {SIMPLEX_ATOL}")
    return Y / s[:, None]


def squared_hellinger(P, Y):
    """sum_j (sqrt(p_j) - sqrt(y_j))^2 on the simplex, range [0, 2]: a float
    for two (d,) histograms, the (Q,) vector of row pairs for two (Q, d)
    arrays.  Each row is checked and renormalised, a vector as one row."""
    P, Y = np.asarray(P, dtype=float), np.asarray(Y, dtype=float)
    if P.shape != Y.shape or P.ndim not in (1, 2):
        raise ValueError(f"histograms of shape {P.shape} and {Y.shape} are not two (d,) "
                         "or two (Q, d) arrays")
    rows = ((np.sqrt(_check_simplex_rows(np.atleast_2d(P), "predictions"))
             - np.sqrt(_check_simplex_rows(np.atleast_2d(Y), "targets"))) ** 2).sum(axis=1)
    return float(rows[0]) if P.ndim == 1 else rows


def rank_gain_matrix(ratings):
    """gains[t, i, j] = max(0, r_tj - r_ti) for a (T, M) stack of rating
    profiles r_t."""
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 2 or ratings.shape[1] < 2:
        raise ValueError("rating profiles must be a (T, M) array with M >= 2")
    if not np.all(np.isfinite(ratings)):
        raise ValueError("ratings must be finite")
    return np.maximum(ratings[:, None, :] - ratings[:, :, None], 0.0)


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


def _rank_terms(ranks, ratings):
    """(step rows, flat gains) of (C, M) rank vectors, each a permutation of
    1..M, and (T, M) finite rating profiles, M >= 2.  Ranks are compared as
    floats, so a fractional rank is rejected, not truncated."""
    ranks = np.asarray(ranks, dtype=float)
    ratings = np.asarray(ratings, dtype=float)
    if ranks.ndim != 2 or ratings.ndim != 2:
        raise ValueError("ranks must be a (C, M) and ratings a (T, M) array")
    m = ratings.shape[1]
    gains = rank_gain_matrix(ratings).reshape(ratings.shape[0], m * m)
    if ranks.shape[1] != m:
        raise ValueError(f"rank vectors have length {ranks.shape[1]}, expected {m}")
    if not (np.sort(ranks, axis=1) == np.arange(1, m + 1)).all():
        raise ValueError("a rank vector is not a permutation of 1..M")
    return rank_step_rows(ranks), gains


def _per_gain_mass(loss, gains):
    mass = gains.sum(axis=1)
    return np.divide(loss, mass, out=np.zeros_like(loss), where=mass > 0.0)


def rank_loss(ranks, ratings, normalize=False):
    """Pairwise ranking loss of rank vectors against rating profiles, the step
    rows times the flat gains: a float for an (M,) pair, the (Q,) vector of
    row pairs for two (Q, M) stacks.  With integer ratings it is exact."""
    ranks, ratings = np.asarray(ranks), np.asarray(ratings, dtype=float)
    if ranks.shape != ratings.shape or ranks.ndim not in (1, 2):
        raise ValueError(f"ranks {ranks.shape} and ratings {ratings.shape} must be two "
                         "(M,) or two (Q, M) arrays")
    steps, gains = _rank_terms(np.atleast_2d(ranks), np.atleast_2d(ratings))
    loss = (steps * gains).sum(axis=1)
    loss = _per_gain_mass(loss, gains) if normalize else loss
    return float(loss[0]) if ranks.ndim == 1 else loss


def rank_loss_matrix(ranks, ratings, normalize=False):
    """(C, T) table of the rank loss of rank vector ranks[c] against rating
    profile ratings[t]: one GEMM of the C step rows against the T flat gains,
    column t divided by profile t's gain mass when normalized (0/0 -> 0)."""
    steps, gains = _rank_terms(ranks, ratings)
    table = steps @ gains.T
    return _per_gain_mass(table, gains) if normalize else table


class _PairedLoss:
    """A loss evaluated on arrays: `_operands(rows, cols)` encodes two output
    sequences as two arrays, and `_of_operands(a, b)` is the loss of the
    broadcast operands, paired by `rows` and (R, 1) against (1, C) by
    `table`.  A call on one pair is `rows` of that stack of one."""

    def __call__(self, y, y2):
        return float(self.rows([y], [y2])[0])

    def rows(self, preds, truths):
        """(Q,) vector of the loss of preds[q] against truths[q]."""
        return self._of_operands(*self._operands(preds, truths))

    def table(self, rows, cols):
        """(R, C) table of the loss of rows[a] against cols[b]."""
        a, b = self._operands(rows, cols)
        return self._of_operands(a[:, None], b[None, :])


class ScalarLoss(_PairedLoss):
    """A loss of d = y - y' alone.  A call, `rows` and `table` apply its one
    formula `of_difference(d)` to the differences of the outputs as floats;
    `slope_curvature(a, d)` gives F' and F'' up to one positive factor, per
    row, of F(p) = sum_i a_i loss(p, y_i) at d = p - y_i, for (Q, n) arrays a
    and d.  Neither method writes its inputs; each works in place on the
    temporaries it allocates."""

    def _operands(self, rows, cols):
        return np.asarray(rows, dtype=float), np.asarray(cols, dtype=float)

    def _of_operands(self, a, b):
        return self.of_difference(a - b)


class Cauchy(ScalarLoss):
    """Robust scalar loss gamma * log(1 + (y - y')^2 / gamma)."""

    def __init__(self, gamma):
        if not np.isfinite(gamma) or gamma <= 0:
            raise ValueError("gamma must be positive and finite")
        self.gamma = float(gamma)

    def of_difference(self, d):
        """gamma * log1p(d^2 / gamma), in place on one temporary; a float d
        gives a scalar."""
        t = np.asarray(d * d, dtype=float)
        t /= self.gamma
        np.log1p(t, out=t)
        t *= self.gamma
        return t[()]

    def slope_curvature(self, a, d):
        """d/dp gamma log(1 + d^2/gamma) = 2gamma d/v, v = gamma + d^2, so
        F'/2gamma = sum a d/v and F''/2gamma = 2gamma sum a/v^2 - sum a/v: no log1p.

        Two (Q, n) temporaries, r = 1/v and w = a r; then r takes w r and w
        takes w d, each once its last reader is done.  `a` and `d` are not
        written, and every element goes through the operations of the
        one-line expressions in their order, so the sums equal theirs bit
        for bit."""
        r = d * d
        r += self.gamma
        np.divide(1.0, r, out=r)
        w = a * r
        w_sum = w.sum(axis=1)
        r *= w
        w *= d
        return w.sum(axis=1), 2.0 * self.gamma * r.sum(axis=1) - w_sum


class SquaredError(ScalarLoss):
    def of_difference(self, d):
        return d * d

    def slope_curvature(self, a, d):  # F'/2 and F''/2
        return (a * d).sum(axis=1), a.sum(axis=1)


class AbsoluteError(ScalarLoss):
    def of_difference(self, d):
        return np.abs(d)

    def slope_curvature(self, a, d):  # F'' = 0, so every polish step bisects
        s = np.sign(d)
        s *= a
        return s.sum(axis=1), np.zeros(d.shape[0])


def _label_index(labels):
    """{key: position} of a label set, each label keyed by `_hashable`, or a
    ValueError if two labels have one key."""
    index = {_hashable(y): i for i, y in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("duplicate labels")
    return index


def _label_indices(index, labels):
    """The (m,) position in `index` (`_label_index`) of each label, or a
    ValueError naming, as given, the first label that `index` does not hold."""
    try:
        return np.array([index[_hashable(y)] for y in labels], dtype=np.intp)
    except KeyError:
        y = next(y for y in labels if _hashable(y) not in index)
        raise ValueError(f"unknown label {y!r}") from None


class _LabelLoss(_PairedLoss):
    """A loss of labels, encoded as indices: into the label set when one is
    given (`_label_index`; an unknown label is a ValueError), else into the
    `group_outputs` of the rows and then the columns."""

    def __init__(self, labels=None):
        self.labels = None if labels is None else list(labels)
        self._index = None if labels is None else _label_index(self.labels)

    def _operands(self, rows, cols):
        if self._index is not None:
            return _label_indices(self._index, rows), _label_indices(self._index, cols)
        _, index = group_outputs(list(rows) + list(cols))
        return index[:len(rows)], index[len(rows):]


class ZeroOne(_LabelLoss):
    """Misclassification loss; validates labels when a label set is given."""

    def _of_operands(self, a, b):
        return (a != b).astype(float)


class SquaredHellinger:
    def __call__(self, y, y2):
        return squared_hellinger(y, y2)

    def rows(self, preds, truths):
        return squared_hellinger(preds, truths)


class RankLoss:
    """Ranking loss; the second argument carries the rating profile."""

    def __init__(self, normalize=False):
        self.normalize = bool(normalize)

    def __call__(self, ranks, ratings):
        return rank_loss(ranks, ratings, normalize=self.normalize)

    def rows(self, preds, truths):
        return rank_loss(preds, truths, normalize=self.normalize)


class FiniteTable(_LabelLoss):
    """Arbitrary loss over a finite label set, given as a |Y| x |Y| table;
    `matrix` holds it as a float array in label order."""

    def __init__(self, labels, table):
        super().__init__(labels)
        self.matrix = np.asarray(table, dtype=float)
        if self.matrix.shape != (len(self.labels), len(self.labels)):
            raise ValueError("table shape does not match label count")

    def _of_operands(self, a, b):
        return self.matrix[a, b]


def take_outputs(outputs, idx):
    """outputs[idx] of an array; the list of outputs[i] of any other sequence."""
    return outputs[idx] if isinstance(outputs, np.ndarray) else [outputs[i] for i in idx]


def loss_rows(loss, preds, truths):
    """(Q,) vector of loss(preds[q], truths[q]): the loss's own `rows` where
    it has one, else one call per pair, in order, so a validating loss raises
    at the first pair it rejects."""
    if len(preds) != len(truths):
        raise ValueError(f"{len(preds)} predictions against {len(truths)} truths")
    if hasattr(loss, "rows"):
        return loss.rows(preds, truths)
    return np.array([loss(p, t) for p, t in zip(preds, truths)], dtype=float)


def loss_table(loss, rows, cols):
    """(R, C) table of loss(rows[a], cols[b]): the loss's own `table` method
    where it has one, else `loss_rows` over the R*C index pairs, row by row."""
    if hasattr(loss, "table"):
        return loss.table(rows, cols)
    a, b = np.divmod(np.arange(len(rows) * len(cols)), len(cols))
    return loss_rows(loss, take_outputs(rows, a), take_outputs(cols, b)).reshape(
        len(rows), len(cols))


def c_delta(loss, labels):
    """The comparison constant c_delta = ||V||_2 of a finite output set,
    where V = loss_table(loss, labels, labels): with psi the canonical basis,
    loss(y, y') = psi(y)^T V psi(y') and max ||psi(y)|| = 1."""
    labels = list(labels)
    if len(labels) < 1:
        raise ValueError("need at least one label")
    _label_index(labels)  # raises on duplicate labels
    return float(np.linalg.norm(loss_table(loss, labels, labels), 2))


def _hashable(label):
    """The one label identity: the label as a dict key, with every list,
    tuple and array in it, at any depth, turned into a tuple."""
    if isinstance(label, np.ndarray):
        label = label.tolist()
    if isinstance(label, (list, tuple)):
        return tuple(map(_hashable, label))
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
