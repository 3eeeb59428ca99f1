"""Structured losses and their finite-output embeddings.

Every loss here admits a bilinear form <psi(y), V psi(y')> over some embedding
of the output space; for finite output sets that embedding is explicit
(canonical basis, V = pairwise loss table) and `build_finite_embedding`
constructs it.

Rank-loss conventions (the literature leaves both open):
  * ranks: y[i] is the rank of item i, 1 = best; sign(0) = 0, so tied ranks
    pay half a pair cost.
  * pair reward: gains[i, j] = max(0, r_j - r_i), so only true inversions
    pay and the rating sort is optimal.  The normalized variant divides by
    the total gain mass (0/0 -> 0) and lives in [0, 1].
"""

from dataclasses import dataclass, field

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


def squared_hellinger(y, y2):
    """sum_i (sqrt(y_i) - sqrt(y2_i))^2 on the simplex; range [0, 2]."""
    y = _check_simplex(y, "y")
    y2 = _check_simplex(y2, "y'")
    if y.shape != y2.shape:
        raise ValueError("histogram dimensions differ")
    return float(((np.sqrt(y) - np.sqrt(y2)) ** 2).sum())


def chi_square(y, y2):
    """sum_i (y_i - y2_i)^2 / (y_i + y2_i), zero-denominator terms contribute 0."""
    y = _check_simplex(y, "y")
    y2 = _check_simplex(y2, "y'")
    if y.shape != y2.shape:
        raise ValueError("histogram dimensions differ")
    num = (y - y2) ** 2
    den = y + y2
    mask = den > 0
    return float((num[mask] / den[mask]).sum())


def cauchy(y, y2, gamma):
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = float(y) - float(y2)
    return gamma * np.log1p(d * d / gamma)


def absolute_error(y, y2):
    return abs(float(y) - float(y2))


def squared_error(y, y2):
    d = float(y) - float(y2)
    return d * d


def kde_loss(h, y, y2):
    """Loss induced by an output kernel h: h(y,y) - 2h(y,y') + h(y',y')."""
    return h(y, y) - 2.0 * h(y, y2) + h(y2, y2)


def rank_gain_matrix(ratings):
    """gains[i, j] = max(0, r_j - r_i) for a rating profile r."""
    ratings = np.asarray(ratings, dtype=float)
    if ratings.ndim != 1 or ratings.shape[0] < 2:
        raise ValueError("rating profile must be a vector of length >= 2")
    if not np.all(np.isfinite(ratings)):
        raise ValueError("ratings must be finite")
    return np.maximum(ratings[None, :] - ratings[:, None], 0.0)


def rank_pair_sum(gains, ranks):
    """sum_ij gains[i, j] * (1 - sign(ranks[i] - ranks[j])) / 2.

    Pairs ranked i above j pay gains[i, j]; tied ranks pay half.
    """
    step = 0.5 * (1.0 - np.sign(ranks[:, None] - ranks[None, :]))
    return float((gains * step).sum())


def check_permutation(ranks, m=None):
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.ndim != 1:
        raise ValueError("rank vector must be 1-d")
    if m is not None and ranks.shape[0] != m:
        raise ValueError(f"rank vector has length {ranks.shape[0]}, expected {m}")
    if not np.array_equal(np.sort(ranks), np.arange(1, ranks.shape[0] + 1)):
        raise ValueError("rank vector is not a permutation of 1..M")
    return ranks


def rank_loss(ranks, ratings, normalize=False):
    """Pairwise ranking loss of a rank vector against a rating profile."""
    ratings = np.asarray(ratings, dtype=float)
    ranks = check_permutation(ranks, ratings.shape[0])
    gains = rank_gain_matrix(ratings)
    total = rank_pair_sum(gains, ranks)
    if not normalize:
        return total
    mass = float(gains.sum())
    if mass == 0.0:
        return 0.0
    return total / mass


class Cauchy:
    """Robust scalar loss gamma * log(1 + (y - y')^2 / gamma)."""

    def __init__(self, gamma):
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def __call__(self, y, y2):
        return cauchy(y, y2, self.gamma)


class SquaredError:
    def __call__(self, y, y2):
        return squared_error(y, y2)


class AbsoluteError:
    def __call__(self, y, y2):
        return absolute_error(y, y2)


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


class ChiSquare:
    def __call__(self, y, y2):
        return chi_square(y, y2)


class KdeInduced:
    """Loss from a symmetric PSD output kernel h via h(y,y) - 2h(y,y') + h(y',y')."""

    def __init__(self, h):
        self.h = h

    def __call__(self, y, y2):
        return kde_loss(self.h, y, y2)


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


@dataclass(frozen=True)
class FiniteLossEmbedding:
    """Explicit (psi, V, c_delta) for a finite output set.

    psi(y) = e_{q(y)} (canonical basis), V[i, j] = loss(label_i, label_j),
    and c_delta = ||V||_2 since max ||psi(y)|| = 1.
    """

    labels: list
    V: np.ndarray
    c_delta: float
    _index: dict = field(repr=False, default=None)

    def index_of(self, y):
        try:
            return self._index[_hashable(y)]
        except (KeyError, TypeError):
            raise ValueError(f"unknown label {y!r}") from None

    def psi(self, y):
        e = np.zeros(len(self.labels))
        e[self.index_of(y)] = 1.0
        return e


def build_finite_embedding(loss, labels):
    """Tabulate a loss over `labels` and compute the spectral-norm constant."""
    labels = list(labels)
    if len(labels) < 1:
        raise ValueError("need at least one label")
    if len(set(map(_hashable, labels))) != len(labels):
        raise ValueError("duplicate labels")
    n = len(labels)
    V = np.empty((n, n))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            V[i, j] = loss(a, b)
    c = float(np.linalg.norm(V, 2))
    index = {_hashable(lab): i for i, lab in enumerate(labels)}
    return FiniteLossEmbedding(labels=labels, V=V, c_delta=c, _index=index)


def _hashable(label):
    if isinstance(label, np.ndarray):
        return tuple(label.tolist())
    if isinstance(label, list):
        return tuple(label)
    return label
