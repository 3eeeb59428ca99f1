import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from surrloss import cli, experiments, losses, oracle


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


def test_labels_are_keyed_by_one_identity():
    # lists, tuples and arrays, at any depth, are one label when their
    # elements are, as `group_outputs` (and so the Exhaustive decode) keys them
    assert losses.zero_one([0], (0,)) == 0.0
    assert losses.zero_one(np.array([[1, 2]]), [(1, 2)]) == 0.0
    assert losses.zero_one([0], [1]) == 1.0
    assert losses.ZeroOne()(np.array([1, 2]), np.array([1, 2])) == 0.0
    assert losses.ZeroOne()(np.array([1, 2]), [1, 3]) == 1.0
    labelled = losses.ZeroOne([(0,), [1, [2]]])
    assert labelled([0], np.array([0])) == 0.0
    assert labelled((1, (2,)), (0,)) == 1.0


def test_label_sets_reject_duplicate_and_unknown_labels_by_the_one_identity():
    for labels in (["a", "a", "b"], [[0], (0,)], [np.array([1, 2]), (1, 2)]):
        with pytest.raises(ValueError, match="duplicate labels"):
            losses.ZeroOne(labels)
        with pytest.raises(ValueError, match="duplicate labels"):
            losses.FiniteTable(labels, np.zeros((len(labels), len(labels))))
    # a list label gets the ValueError a hashable one gets, naming the label as given
    with pytest.raises(ValueError, match=r"unknown label \[1\]"):
        losses.ZeroOne(["a", "b"])([1], "a")
    with pytest.raises(ValueError, match=r"unknown label \[1\]"):
        losses.loss_table(losses.ZeroOne(["a", "b"]), [[1]], ["a"])
    table = losses.FiniteTable([[1], [2]], [[0.0, 0.5], [0.25, 0.0]])
    assert table((2,), np.array([1])) == 0.25
    with pytest.raises(ValueError, match=r"unknown label \[3\]"):
        table([1], [3])


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
    with pytest.raises(ValueError):
        losses.squared_hellinger(1.0, 1.0)


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
    # fractional ranks were truncated to the permutation [1, 2, 3]
    with pytest.raises(ValueError, match="not a permutation of 1..M"):
        losses.rank_loss([1.9, 2.2, 3.7], [3, 2, 1])
    with pytest.raises(ValueError, match="not a permutation of 1..M"):
        losses.rank_loss_matrix([[1.0, 2.5, 3.0]], [[3, 2, 1]])
    assert losses.rank_loss([1.0, 2.0, 3.0], [3, 2, 1]) == 0.0  # integer-valued floats


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
    with pytest.raises(ValueError, match="duplicate labels"):
        losses.c_delta(losses.ZeroOne(), [1, 1])
    # list labels are keyed as `group_outputs` keys them, so equal lists are duplicates
    with pytest.raises(ValueError, match="duplicate labels"):
        losses.c_delta(losses.ZeroOne(), [[0, 1], [1, 0], [0, 1]])
    assert losses.c_delta(losses.ZeroOne(), [[0, 1], [1, 0]]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        losses.c_delta(losses.ZeroOne(), [])


# ---------------------------------------------------------------------------
# Tables and row-wise forms

def _label_key(label):
    return np.asarray(label).tolist()


def _by_definition(loss, y, y2):
    """loss(y, y2) from the loss's definition, through none of its methods;
    labels are compared as the nested lists of `_label_key`."""
    if isinstance(loss, losses.Cauchy):
        return loss.gamma * math.log1p((float(y) - float(y2)) ** 2 / loss.gamma)
    if isinstance(loss, losses.SquaredError):
        return (float(y) - float(y2)) ** 2
    if isinstance(loss, losses.AbsoluteError):
        return abs(float(y) - float(y2))
    if isinstance(loss, losses.ZeroOne):
        return float(_label_key(y) != _label_key(y2))
    if isinstance(loss, losses.FiniteTable):
        keys = [_label_key(label) for label in loss.labels]
        return float(loss.matrix[keys.index(_label_key(y)), keys.index(_label_key(y2))])
    if isinstance(loss, losses.SquaredHellinger):
        p, q = np.asarray(y) / np.sum(y), np.asarray(y2) / np.sum(y2)
        return float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
    value = _oracles.rank_loss_double_loop(y, y2)
    if not loss.normalize:
        return value
    mass = sum(max(0.0, b - a) for a in y2 for b in y2)
    return value / mass if mass else 0.0


# (loss, preds, truths) of list, tuple and array labels, some pairs one label in two forms
_PAIRS = [(0, 1), (1, 0)]
_PAIR_PREDS = [[0, 1], np.array([1, 0]), (1, 0)]
_PAIR_TRUTHS = [np.array([0, 1]), [0, 1], [1, 0]]
SEQUENCE_LABEL_CASES = {
    "ZeroOne-sequences": (losses.ZeroOne(), [[0], (1,), np.array([2]), [3]],
                          [(0,), [2], [2], np.array([3])]),
    "ZeroOne-sequence-set": (losses.ZeroOne(_PAIRS), _PAIR_PREDS, _PAIR_TRUTHS),
    "FiniteTable-sequences": (losses.FiniteTable(_PAIRS, [[0.0, 0.5], [0.25, 0.0]]),
                              _PAIR_PREDS, _PAIR_TRUTHS),
}


def _loss_table_cases():
    """(loss, rows, cols) for every loss class, rows and cols overlapping, and
    the stacked losses at the sizes of a simplex fallback (30 training
    histograms against themselves) and of a rank loss table."""
    rng = np.random.default_rng(40)
    xs = rng.uniform(-3, 3, size=7)
    labels = ["a", "b", "c", "d"]
    hists = rng.dirichlet(np.ones(3), size=5)
    perms = np.array([rng.permutation(4) + 1 for _ in range(5)])
    ratings = rng.integers(1, 6, size=(3, 4)).astype(float)
    cases = [
        (losses.Cauchy(0.7), xs[:4], xs[2:]),
        (losses.SquaredError(), xs[:4], xs[2:]),
        (losses.AbsoluteError(), xs[:4], xs[2:]),
        (losses.ZeroOne(labels), labels[:3], labels),
        (losses.FiniteTable(labels, rng.uniform(0, 1, size=(4, 4))), labels, labels[1:]),
        (losses.SquaredHellinger(), hists[:3], list(hists)),
        (losses.RankLoss(normalize=True), perms, ratings),
    ]
    _, Y = experiments.gen_histogram_data(8, 30, 5)
    return [pytest.param(*case, id=type(case[0]).__name__) for case in cases] + [
        pytest.param(*case, id=name) for name, case in SEQUENCE_LABEL_CASES.items()] + [
        pytest.param(losses.SquaredHellinger(), list(Y), list(Y), id="SquaredHellinger-30x30"),
        pytest.param(losses.RankLoss(), np.array([rng.permutation(6) + 1 for _ in range(12)]),
                     rng.integers(1, 6, size=(10, 6)).astype(float), id="RankLoss-12x10")]


@pytest.mark.parametrize("loss, rows, cols", _loss_table_cases())
def test_loss_table_equals_per_pair_calls(loss, rows, cols):
    # the table equals the loss's definition, and the calls on one pair
    # reproduce the table exactly
    table = losses.loss_table(loss, rows, cols)
    assert table.shape == (len(rows), len(cols))
    np.testing.assert_allclose(table, [[_by_definition(loss, r, c) for c in cols] for r in rows],
                               rtol=1e-13, atol=1e-15)
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


def test_a_300_label_loss_table_makes_no_per_pair_call(monkeypatch):
    # ZeroOne and FiniteTable tabulate themselves: one lookup per label,
    # then one comparison or one fancy index of the label indices
    calls = []
    for cls in (losses.ZeroOne, losses.FiniteTable):
        monkeypatch.setattr(cls, "__call__", lambda self, y, y2: calls.append((y, y2)))
    monkeypatch.setattr(losses, "zero_one", lambda y, y2: calls.append((y, y2)))
    labels = [f"label{i}" for i in range(300)]
    matrix = np.random.default_rng(41).uniform(0, 1, size=(300, 300))
    for loss, want in ((losses.ZeroOne(labels), 1.0 - np.eye(300)),
                       (losses.ZeroOne(), 1.0 - np.eye(300)),
                       (losses.FiniteTable(labels, matrix), matrix)):
        np.testing.assert_array_equal(losses.loss_table(loss, labels, labels), want)
    assert calls == []


def test_an_unlabelled_zero_one_table_equals_per_pair_calls():
    # without a label set, labels are told apart as zero_one tells them apart,
    # by one `_hashable` key each, so 1, 1.0 and True are one label
    rows = ["a", 1, 2.0, [1, 2], True, "b"]
    cols = [2, "a", 1.0, [1, 2], "c", False, 0, [3, 4]]
    loss = losses.ZeroOne()
    np.testing.assert_array_equal(losses.loss_table(loss, rows, cols),
                                  [[losses.zero_one(r, c) for c in cols] for r in rows])
    assert losses.loss_table(loss, [], cols).shape == (0, len(cols))


def test_loss_table_validating_loss_raises_on_an_unknown_label():
    loss = losses.ZeroOne(["a", "b"])
    with pytest.raises(ValueError, match="unknown label"):
        losses.loss_table(loss, ["a", "b"], ["a", "z"])
    with pytest.raises(ValueError, match="unknown label"):
        losses.loss_table(loss, ["q"], ["a"])
    table = losses.FiniteTable(["a", "b"], np.ones((2, 2)))
    with pytest.raises(ValueError, match="unknown label 'z'"):
        losses.loss_table(table, ["a", "b"], ["a", "z"])


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
                assert loss.matrix[i, j] == _oracles.rank_loss_double_loop(cand, ratings)


def test_squared_hellinger_stack_equals_the_pairwise_loss():
    rng = np.random.default_rng(32)
    P = rng.dirichlet(np.ones(8), size=50)
    Y = rng.dirichlet(np.ones(8), size=50) * (1.0 + 1e-10)  # renormalised per row
    rows = losses.squared_hellinger(P, Y)
    assert rows.shape == (50,)
    for q in range(50):
        assert rows[q] == losses.squared_hellinger(P[q], Y[q])


def test_squared_hellinger_stack_rejects_bad_inputs():
    good = np.array([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError, match="negative"):
        losses.squared_hellinger(np.array([[0.5, 0.5], [-0.1, 1.1]]), good)
    with pytest.raises(ValueError, match="row 1 sums to"):
        losses.squared_hellinger(good, np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(ValueError, match="shape"):
        losses.squared_hellinger(good, good[:1])
    with pytest.raises(ValueError, match="shape"):
        losses.squared_hellinger(good, np.full((2, 4), 0.25))
    with pytest.raises(ValueError, match="shape"):
        losses.squared_hellinger(good[0], good)
    with pytest.raises(ValueError, match=r"\(Q, d\)"):
        losses.squared_hellinger(good[None], good[None])
    # NaN fails both the sign and the sum comparison, so it passed the check
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="predictions row 0 has non-finite entries"):
            losses.squared_hellinger([bad, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="targets row 1 has non-finite entries"):
            losses.squared_hellinger(good, np.array([[0.5, 0.5], [bad, 0.5]]))


def test_rank_loss_stack_equals_the_diagonal_of_the_matrix_exactly():
    rng = np.random.default_rng(33)
    for normalize in (False, True):
        for m in (2, 3, 5, 8):
            ranks = np.array([rng.permutation(m) + 1 for _ in range(20)])
            ratings = rng.integers(1, 6, size=(20, m)).astype(float)
            ratings[3] = 4.0  # zero gain mass
            stack = losses.rank_loss(ranks, ratings, normalize)
            assert stack.shape == (20,)
            np.testing.assert_array_equal(
                stack, np.diag(losses.rank_loss_matrix(ranks, ratings, normalize)))
            assert [losses.rank_loss(r, t, normalize) for r, t in zip(ranks, ratings)] \
                == stack.tolist()


def test_rank_loss_rejects_mismatched_stacks():
    ranks = np.array([[1, 2, 3], [3, 2, 1]])
    ratings = np.array([[3.0, 2.0, 1.0], [1.0, 2.0, 3.0]])
    for bad in (ratings[:1], ratings[:, :2], ratings[0], ratings[None]):
        with pytest.raises(ValueError, match="two"):
            losses.rank_loss(ranks, bad)
    with pytest.raises(ValueError, match="two"):
        losses.rank_loss(ranks[None], ratings[None])


def _cli_loss_cases():
    """(loss, preds, truths) for every loss the CLI offers, and FiniteTable."""
    rng = np.random.default_rng(41)
    xs, ys = rng.uniform(-3, 3, size=9), rng.uniform(-3, 3, size=9)
    labels = ["a", "b", "c"]
    preds, truths = list(rng.choice(labels, 9)), list(rng.choice(labels, 9))
    args = cli.build_parser().parse_args(["cv", "--in", "-", "--kind", "scalar",
                                          "--gamma", "0.7"])
    data = {"cauchy": (xs, ys), "squared": (xs, ys), "absolute": (xs, ys),
            "zero_one": (preds, truths),
            "hellinger": (rng.dirichlet(np.ones(4), 9), list(rng.dirichlet(np.ones(4), 9))),
            "rank": (np.array([rng.permutation(5) + 1 for _ in range(9)]),
                     rng.uniform(1, 5, size=(9, 5)))}
    cases = [(make(args), *data[name]) for name, make in cli._LOSSES.items()]
    table = losses.FiniteTable(labels, rng.uniform(0, 1, size=(3, 3)))
    return cases + [(table, preds, truths), (losses.RankLoss(normalize=True), *data["rank"])]


_CLI_LOSS_CASES = _cli_loss_cases()
LOSS_ROWS_CASES = _CLI_LOSS_CASES + list(SEQUENCE_LABEL_CASES.values())
LOSS_ROWS_IDS = [type(case[0]).__name__ for case in _CLI_LOSS_CASES] + list(SEQUENCE_LABEL_CASES)


@pytest.mark.parametrize("loss, preds, truths", LOSS_ROWS_CASES, ids=LOSS_ROWS_IDS)
def test_loss_rows_equals_the_per_pair_calls(loss, preds, truths):
    # the rows equal the loss's definition, and the calls on one pair
    # reproduce them exactly
    rows = losses.loss_rows(loss, preds, truths)
    assert rows.shape == (len(preds),)
    np.testing.assert_allclose(rows, [_by_definition(loss, p, t) for p, t in zip(preds, truths)],
                               rtol=1e-13, atol=1e-15)
    np.testing.assert_array_equal(rows, [loss(p, t) for p, t in zip(preds, truths)])


def test_loss_rows_validating_loss_raises_at_the_first_bad_pair():
    # a loss without `rows` is called once per pair, in order
    calls = []

    def validating(y, y2):
        calls.append((y, y2))
        if "z" in (y, y2):
            raise ValueError(f"unknown label in ({y!r}, {y2!r})")
        return float(y != y2)

    preds, truths = ["a", "b", "a", "b"], ["b", "b", "z", "a"]
    with pytest.raises(ValueError, match="unknown label"):
        losses.loss_rows(validating, preds, truths)
    assert calls == [("a", "b"), ("b", "b"), ("a", "z")]
    with pytest.raises(ValueError, match="unknown label 'z'"):
        losses.loss_rows(losses.ZeroOne(["a", "b"]), preds, truths)


def test_loss_rows_rejects_stacks_of_different_lengths():
    for loss, preds, truths in LOSS_ROWS_CASES:
        with pytest.raises(ValueError, match="predictions against"):
            losses.loss_rows(loss, preds, truths[:-1])


@pytest.mark.parametrize("loss, factor", [
    (losses.Cauchy(0.7), 1.4), (losses.Cauchy(3.0), 6.0),
    (losses.SquaredError(), 2.0), (losses.AbsoluteError(), 1.0)],
    ids=["cauchy-0.7", "cauchy-3", "squared", "absolute"])
def test_scalar_loss_slope_curvature_matches_central_differences(loss, factor):
    # slope_curvature(a, p - y) is F' and F'' of F(p) = sum_i a_i loss(p, y_i)
    # per row, both divided by the one positive factor
    rng = np.random.default_rng(8)
    y = rng.uniform(-2.0, 2.0, size=9)
    p = rng.uniform(-2.5, 2.5, size=60)
    p = p[np.abs(p[:, None] - y).min(axis=1) > 1e-2]  # away from |d|'s kinks
    a = rng.normal(size=(p.size, y.size))  # mixed-sign weights
    h = 1e-4

    def F(points):
        return (a * loss.of_difference(points[:, None] - y)).sum(axis=1)

    slope, curv = loss.slope_curvature(a, p[:, None] - y)
    np.testing.assert_allclose(factor * slope, (F(p + h) - F(p - h)) / (2 * h),
                               rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(factor * curv, (F(p + h) - 2 * F(p) + F(p - h)) / h**2,
                               rtol=1e-4, atol=1e-4)


def _differences(rng, shape):
    # d in [-10, 10] with exact zeros, where |d| has its kink
    d = rng.uniform(-10.0, 10.0, size=shape)
    d.flat[::7] = 0.0
    return d


@pytest.mark.parametrize("loss", [losses.Cauchy(0.7), losses.SquaredError(),
                                  losses.AbsoluteError()], ids=["cauchy", "squared", "absolute"])
def test_scalar_loss_methods_write_neither_input(loss):
    rng = np.random.default_rng(17)
    d = _differences(rng, (12, 40))
    a = rng.normal(size=d.shape)  # mixed-sign weights
    a0, d0 = a.copy(), d.copy()
    loss.slope_curvature(a, d)
    loss.of_difference(d)
    np.testing.assert_array_equal(a, a0)
    np.testing.assert_array_equal(d, d0)
    a.flags.writeable = d.flags.writeable = False  # a write would raise
    loss.slope_curvature(a, d)
    loss.of_difference(d)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 1e-3])
def test_cauchy_formulas_equal_their_plain_expressions_bit_for_bit(gamma):
    rng = np.random.default_rng(18)
    loss = losses.Cauchy(gamma)
    d = _differences(rng, (9, 31))
    a = rng.normal(size=d.shape)
    np.testing.assert_array_equal(loss.of_difference(d), gamma * np.log1p(d * d / gamma))
    np.testing.assert_array_equal(loss.of_difference(d[0]),
                                  gamma * np.log1p(d[0] * d[0] / gamma))
    r = 1.0 / (gamma + d * d)
    w = a * r
    slope, curv = loss.slope_curvature(a, d)
    np.testing.assert_array_equal(slope, (w * d).sum(axis=1))
    np.testing.assert_array_equal(curv, 2.0 * gamma * (w * r).sum(axis=1) - w.sum(axis=1))


def test_absolute_error_slope_equals_its_plain_expression_bit_for_bit():
    rng = np.random.default_rng(19)
    d = _differences(rng, (9, 31))
    a = rng.normal(size=d.shape)
    slope, curv = losses.AbsoluteError().slope_curvature(a, d)
    np.testing.assert_array_equal(slope, (a * np.sign(d)).sum(axis=1))
    np.testing.assert_array_equal(curv, np.zeros(9))


@pytest.mark.parametrize("y, y2", [(0.25, -1.5), (2, 2), (np.float64(3.0), 1)])
def test_a_cauchy_call_on_two_scalars_is_a_scalar(y, y2):
    v = losses.Cauchy(0.7)(y, y2)
    assert isinstance(v, float) and not isinstance(v, np.ndarray)
    d = float(y) - float(y2)
    assert v == 0.7 * np.log1p(d * d / 0.7)
    assert isinstance(losses.Cauchy(0.7).of_difference(d), float)
