import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from surrloss import losses, oracle


def test_zero_one_basics():
    assert losses.zero_one(3, 3) == 0.0
    assert losses.zero_one(1, 2) == 1.0
    table = np.array([[losses.zero_one(a, b) for b in range(4)] for a in range(4)])
    np.testing.assert_array_equal(table, np.ones((4, 4)) - np.eye(4))


def test_zero_one_unknown_label():
    loss = losses.ZeroOne(labels=[0, 1, 2])
    assert loss(0, 2) == 1.0
    with pytest.raises(ValueError):
        loss(0, 7)


def test_squared_hellinger_examples():
    assert losses.squared_hellinger([0.2, 0.8], [0.2, 0.8]) == 0.0
    assert losses.squared_hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)
    v = losses.squared_hellinger([0.5, 0.5], [1.0, 0.0])
    assert v == pytest.approx(2.0 - np.sqrt(2.0))
    assert v == pytest.approx(0.5857864376269049)


def test_squared_hellinger_rejects_bad_inputs():
    with pytest.raises(ValueError):
        losses.squared_hellinger([0.5, 0.6], [1.0, 0.0])
    with pytest.raises(ValueError):
        losses.squared_hellinger([-0.1, 1.1], [1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000))
def test_squared_hellinger_bounds_and_symmetry(dim, seed):
    rng = np.random.default_rng(seed)
    y = rng.dirichlet(np.ones(dim))
    y2 = rng.dirichlet(np.ones(dim))
    v = losses.squared_hellinger(y, y2)
    assert 0.0 <= v <= 2.0 + 1e-12
    assert v == pytest.approx(losses.squared_hellinger(y2, y), abs=1e-12)


def test_squared_hellinger_mass_property():
    # 10^4 random simplex pairs, vectorized spot check of the bound
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        dim = 3
        y, y2 = rng.dirichlet(np.ones(dim)), rng.dirichlet(np.ones(dim))
        v = ((np.sqrt(y) - np.sqrt(y2)) ** 2).sum()
        assert 0.0 <= v <= 2.0 + 1e-12


def test_cauchy_examples():
    assert losses.Cauchy(1.0)(0.7, 0.7) == 0.0
    assert losses.Cauchy(1.0)(1.0, 0.0) == pytest.approx(np.log(2.0))
    assert losses.Cauchy(2.0)(4.0, 1.0) == pytest.approx(2.0 * np.log(1.0 + 9.0 / 2.0))
    assert losses.Cauchy(2.0)(4.0, 1.0) == pytest.approx(3.4094961844768505)


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_cauchy_rejects_a_gamma_that_is_not_positive_and_finite(gamma):
    # gamma = nan or inf made every scalar decode land on the grid bound
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        losses.Cauchy(gamma)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 20.0), st.integers(0, 10_000))
def test_cauchy_monotone_in_distance(gamma, seed):
    rng = np.random.default_rng(seed)
    ds = np.sort(rng.uniform(0, 10, size=20))
    vals = [losses.Cauchy(gamma)(d, 0.0) for d in ds]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Rank loss

def test_rank_loss_descending_sort_is_zero():
    ratings = np.array([5.0, 4.0, 2.0, 1.0])
    ranks = np.array([1, 2, 3, 4])
    assert losses.rank_loss(ranks, ratings) == 0.0


def test_rank_loss_two_items_inversion():
    ratings = np.array([1.0, 5.0])
    ranks = np.array([1, 2])  # item 1 on top although item 2 is better
    assert losses.rank_loss(ranks, ratings) == 4.0
    assert losses.rank_loss(ranks, ratings, normalize=True) == 1.0


def test_rank_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(13)
    ratings = rng.integers(1, 6, size=4).astype(float)
    for ranks in _oracles.all_permutations(4):
        expected = _oracles.rank_loss_double_loop(ranks, ratings)
        assert losses.rank_loss(ranks, ratings) == pytest.approx(expected, abs=1e-12)


def test_rank_loss_nonnegative_and_normalized_range():
    rng = np.random.default_rng(14)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        ratings = rng.uniform(1, 5, size=m)
        perm = rng.permutation(m) + 1
        raw = losses.rank_loss(perm, ratings)
        norm = losses.rank_loss(perm, ratings, normalize=True)
        assert raw >= 0.0
        assert 0.0 <= norm <= 1.0 + 1e-12


def test_rank_loss_ties_normalizer_zero():
    ratings = np.array([2.0, 2.0, 2.0])
    perm = np.array([3, 1, 2])
    assert losses.rank_loss(perm, ratings) == 0.0
    assert losses.rank_loss(perm, ratings, normalize=True) == 0.0


def test_rank_loss_rejects_non_permutation():
    with pytest.raises(ValueError):
        losses.rank_loss(np.array([1, 1, 3]), np.array([3.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        losses.rank_loss(np.array([0, 1, 2]), np.array([3.0, 2.0, 1.0]))


# ---------------------------------------------------------------------------
# Finite embeddings

def test_embedding_two_label_zero_one():
    np.testing.assert_array_equal(losses.loss_table(losses.ZeroOne(), [0, 1], [0, 1]),
                                  [[0.0, 1.0], [1.0, 0.0]])
    assert losses.c_delta(losses.ZeroOne(), [0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_embedding_three_label_zero_one():
    labels = [0, 1, 2]
    np.testing.assert_array_equal(losses.loss_table(losses.ZeroOne(), labels, labels),
                                  np.ones((3, 3)) - np.eye(3))
    # spectrum of J - I is {2, -1, -1}
    assert losses.c_delta(losses.ZeroOne(), labels) == pytest.approx(2.0, abs=1e-12)


def test_embedding_reproduces_loss_for_arbitrary_table():
    # psi(y) = e_y, the canonical basis, and V = loss_table(labels, labels)
    rng = np.random.default_rng(15)
    labels = ["a", "b", "c", "d", "e"]
    table = rng.uniform(-1, 1, size=(5, 5))
    loss = losses.FiniteTable(labels, table)
    V = losses.loss_table(loss, labels, labels)
    psi = np.eye(len(labels))
    for a, y in enumerate(labels):
        for b, y2 in enumerate(labels):
            bilinear = psi[a] @ V @ psi[b]
            assert bilinear == loss(y, y2)


def test_embedding_c_delta_matches_power_iteration():
    rng = np.random.default_rng(16)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        table = rng.uniform(0, 3, size=(k, k))
        np.fill_diagonal(table, 0.0)
        c = losses.c_delta(losses.FiniteTable(list(range(k)), table), list(range(k)))
        est = _oracles.power_iteration_norm(table)
        assert c == pytest.approx(est, abs=1e-10, rel=1e-10)


def test_embedding_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        losses.c_delta(losses.ZeroOne(), [1, 1])
    with pytest.raises(ValueError):
        losses.c_delta(losses.ZeroOne(), [])


# ---------------------------------------------------------------------------
# Tables and row-wise forms

def _loss_table_cases():
    """(loss, rows, cols) for every loss class; rows and cols overlap."""
    rng = np.random.default_rng(40)
    xs = rng.uniform(-3, 3, size=7)
    labels = ["a", "b", "c", "d"]
    hists = rng.dirichlet(np.ones(3), size=5)
    perms = np.array([rng.permutation(4) + 1 for _ in range(5)])
    ratings = rng.integers(1, 6, size=(3, 4)).astype(float)
    return [
        (losses.Cauchy(0.7), xs[:4], xs[2:]),
        (losses.SquaredError(), xs[:4], xs[2:]),
        (losses.AbsoluteError(), xs[:4], xs[2:]),
        (losses.ZeroOne(labels), labels[:3], labels),
        (losses.FiniteTable(labels, rng.uniform(0, 1, size=(4, 4))), labels, labels[1:]),
        (losses.SquaredHellinger(), hists[:3], list(hists)),
        (losses.RankLoss(normalize=True), perms, ratings),
    ]


LOSS_TABLE_CASES = _loss_table_cases()


@pytest.mark.parametrize("loss, rows, cols", LOSS_TABLE_CASES,
                         ids=[type(case[0]).__name__ for case in LOSS_TABLE_CASES])
def test_loss_table_equals_per_pair_calls(loss, rows, cols):
    # the closed forms (Cauchy, squared, absolute error) and the per-pair loop
    # both reproduce the loss's own calls exactly
    table = losses.loss_table(loss, rows, cols)
    assert table.shape == (len(rows), len(cols))
    np.testing.assert_array_equal(table, [[loss(r, c) for c in cols] for r in rows])


def test_loss_table_calls_any_other_loss_once_per_pair_row_by_row():
    calls = []

    def counting(y, y2):
        calls.append((y, y2))
        return float(y != y2)

    rows, cols = [3, 1, 4], [1, 5, 9, 2, 6]
    table = losses.loss_table(counting, rows, cols)
    assert calls == [(r, c) for r in rows for c in cols]
    np.testing.assert_array_equal(table, [[float(r != c) for c in cols] for r in rows])


def test_loss_table_validating_loss_raises_on_an_unknown_label():
    loss = losses.ZeroOne(["a", "b"])
    with pytest.raises(ValueError, match="unknown label"):
        losses.loss_table(loss, ["a", "b"], ["a", "z"])
    with pytest.raises(ValueError, match="unknown label"):
        losses.loss_table(loss, ["q"], ["a"])


def test_rank_loss_matrix_matches_double_loop_oracle():
    rng = np.random.default_rng(30)
    for trial in range(60):
        m = int(rng.integers(2, 7))
        ranks = np.array([rng.permutation(m) + 1 for _ in range(int(rng.integers(1, 9)))])
        integer = trial % 2 == 0
        if integer:
            ratings = rng.integers(1, 6, size=(int(rng.integers(1, 9)), m)).astype(float)
        else:
            ratings = rng.uniform(1, 5, size=(int(rng.integers(1, 9)), m))
        table = losses.rank_loss_matrix(ranks, ratings)
        assert table.shape == (ranks.shape[0], ratings.shape[0])
        for c, r in enumerate(ranks):
            for t, pr in enumerate(ratings):
                expected = _oracles.rank_loss_double_loop(r, pr)
                if integer:
                    assert table[c, t] == expected
                else:
                    assert table[c, t] == pytest.approx(expected, rel=1e-12)


def test_rank_loss_matrix_normalized_divides_by_the_gain_mass():
    rng = np.random.default_rng(31)
    ranks = np.array([rng.permutation(5) + 1 for _ in range(7)])
    ratings = rng.integers(1, 6, size=(9, 5)).astype(float)
    ratings[3] = 2.0  # zero gain mass
    table = losses.rank_loss_matrix(ranks, ratings, normalize=True)
    for t, pr in enumerate(ratings):
        mass = sum(max(0.0, b - a) for a in pr for b in pr)
        for c, r in enumerate(ranks):
            expected = _oracles.rank_loss_double_loop(r, pr) / mass if mass else 0.0
            assert table[c, t] == expected
    assert np.all(table[:, 3] == 0.0)


def test_rank_loss_matrix_rejects_bad_inputs():
    ratings = np.array([[3.0, 2.0, 1.0]])
    with pytest.raises(ValueError, match="permutation"):
        losses.rank_loss_matrix(np.array([[1, 2, 3], [1, 1, 3]]), ratings)
    with pytest.raises(ValueError, match="permutation"):
        losses.rank_loss_matrix(np.array([[0, 1, 2]]), ratings)
    with pytest.raises(ValueError, match="finite"):
        losses.rank_loss_matrix(np.array([[1, 2, 3]]), np.array([[3.0, np.nan, 1.0]]))
    with pytest.raises(ValueError, match="M >= 2"):
        losses.rank_loss_matrix(np.array([[1]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="expected 3"):
        losses.rank_loss_matrix(np.array([[1, 2]]), ratings)
    with pytest.raises(ValueError):
        losses.rank_loss_matrix(np.array([1, 2, 3]), ratings)


def test_rank_loss_table_of_the_oracle_matches_a_double_loop():
    for items in (2, 3, 4):
        loss = oracle.rank_loss_table(items)
        for i, cand in enumerate(loss.labels):
            for j, target in enumerate(loss.labels):
                ratings = [items + 1 - r for r in target]
                assert loss.table[i, j] == _oracles.rank_loss_double_loop(cand, ratings)


def test_squared_hellinger_rows_equals_the_pairwise_loss():
    rng = np.random.default_rng(32)
    P = rng.dirichlet(np.ones(8), size=50)
    Y = rng.dirichlet(np.ones(8), size=50) * (1.0 + 1e-10)  # renormalised per row
    rows = losses.squared_hellinger_rows(P, Y)
    assert rows.shape == (50,)
    for q in range(50):
        assert rows[q] == losses.squared_hellinger(P[q], Y[q])


def test_squared_hellinger_rows_rejects_bad_inputs():
    good = np.array([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError, match="negative"):
        losses.squared_hellinger_rows(np.array([[0.5, 0.5], [-0.1, 1.1]]), good)
    with pytest.raises(ValueError, match="row 1 sums to"):
        losses.squared_hellinger_rows(good, np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(ValueError, match="shape"):
        losses.squared_hellinger_rows(good, good[:1])
    with pytest.raises(ValueError, match="shape"):
        losses.squared_hellinger_rows(good, np.full((2, 4), 0.25))
    with pytest.raises(ValueError, match=r"\(Q, d\)"):
        losses.squared_hellinger_rows(good[0], good[0])
