import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import _oracles
from surrloss import decoders, experiments, kernels, losses, surrogate


# ---------------------------------------------------------------------------
# Exhaustive decoder

def test_exhaustive_single_active_term():
    best, vals = decoders.decode_exhaustive([0, 1], np.array([[1.0], [0.0]]),
                                            losses.ZeroOne(), [0, 1])
    assert best.tolist() == [0] and vals.tolist() == [0.0]


def test_exhaustive_majority_vote():
    A = np.full((3, 1), 0.2)
    best, vals = decoders.decode_exhaustive(["a", "b"], A, losses.ZeroOne(), ["a", "a", "b"])
    assert best.tolist() == [0]
    assert vals[0] == pytest.approx(0.2)


def test_exhaustive_matches_scan_oracle():
    rng = np.random.default_rng(0)
    loss = losses.ZeroOne()
    for _ in range(100):
        n = int(rng.integers(1, 12))
        labels = list(range(int(rng.integers(2, 6))))
        y_train = [int(v) for v in rng.integers(0, len(labels), size=n)]
        alphas = rng.normal(size=n)
        (got,), (got_val,) = decoders.decode_exhaustive(labels, alphas[:, None], loss, y_train)
        idx, val = _oracles.scan_minimum(labels, alphas, loss, y_train)
        assert got == idx
        assert got_val == pytest.approx(val, abs=1e-12)


def test_exhaustive_lowest_index_tie_break():
    # both labels absent from training -> all candidates tie at alpha-sum
    best, _ = decoders.decode_exhaustive(["u", "v"], np.array([[1.0]]), losses.ZeroOne(), ["w"])
    assert best.tolist() == [0]


def test_exhaustive_rejects_empty():
    with pytest.raises(ValueError):
        decoders.decode_exhaustive([], np.array([[1.0]]), losses.ZeroOne(), [0])


def _table_decode_problems(rng):
    """(candidates, loss, y_train) with duplicated training outputs and
    candidates absent from training: labels, then simplex rows (arrays)."""
    labels = list(range(7))
    y_train = [int(v) for v in rng.integers(0, 4, size=30)]
    yield labels, losses.ZeroOne(), y_train
    pool = rng.dirichlet(np.ones(4), size=5)
    y_rows = pool[rng.integers(0, 3, size=20)]
    yield [pool[k] for k in range(5)], losses.SquaredHellinger(), y_rows


@pytest.mark.parametrize("queries", [1, 7])
def test_exhaustive_batch_matches_scan_oracle_per_column(queries):
    rng = np.random.default_rng(30 + queries)
    for _ in range(10):
        for candidates, loss, y_train in _table_decode_problems(rng):
            A = rng.normal(size=(len(y_train), queries))
            best, vals = decoders.decode_exhaustive(candidates, A, loss, y_train)
            assert best.shape == vals.shape == (queries,)
            for q in range(queries):
                idx, val = _oracles.scan_minimum(candidates, A[:, q], loss, y_train)
                assert best[q] == idx
                assert vals[q] == pytest.approx(val, abs=1e-12)


def test_exhaustive_batch_ties_go_to_lowest_index():
    # "b" and "c" never occur in training, so they tie with every other absent label
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    best, vals = decoders.decode_exhaustive(["c", "b", "a"], A, losses.ZeroOne(),
                                            ["a", "a"])
    np.testing.assert_array_equal(best, [2, 0])
    np.testing.assert_array_equal(vals, [0.0, 0.0])
    # equal weight on two present labels: an exact tie between them
    for cands in (["x", "y"], ["y", "x"]):
        best, _ = decoders.decode_exhaustive(cands, np.ones((2, 1)), losses.ZeroOne(),
                                             ["x", "y"])
        assert best[0] == 0


def test_exhaustive_batch_validating_loss_still_raises():
    loss = losses.ZeroOne(["a", "b"])
    A = np.ones((3, 2))
    with pytest.raises(ValueError):
        decoders.decode_exhaustive(["a", "b"], A, loss, ["a", "z", "b"])
    with pytest.raises(ValueError):
        decoders.decode_exhaustive(["a", "q"], A, loss, ["a", "a", "b"])
    with pytest.raises(ValueError):
        decoders.decode_exhaustive([], A, loss, ["a", "a", "b"])


def test_exhaustive_batch_calls_the_loss_once_per_distinct_pair():
    calls = []

    def counting(y, y2):
        calls.append((y, y2))
        return losses.zero_one(y, y2)

    rng = np.random.default_rng(33)
    y_train = [int(v) for v in rng.integers(0, 4, size=50)]
    candidates = list(range(6))
    decoders.decode_exhaustive(candidates, rng.normal(size=(50, 5)), counting, y_train)
    assert len(calls) == len(candidates) * len(set(y_train))
    assert len(set(calls)) == len(calls)


def test_predict_batch_matches_predict_exhaustive():
    rng = np.random.default_rng(34)
    X = rng.normal(size=(40, 3))
    Y = [f"c{k}" for k in rng.integers(0, 4, size=40)]
    model = surrogate.fit(X, Y, kernels.gaussian(2.0), 1e-2)
    dec = decoders.Exhaustive(sorted(set(Y)) + ["never"])
    Q = rng.normal(size=(25, 3))
    batch = decoders.predict_batch(model, dec, losses.ZeroOne(), Q)
    assert batch == [decoders.predict(model, dec, losses.ZeroOne(), x) for x in Q]


def test_single_exhaustive_predicts_solve_once_per_model(monkeypatch):
    factors = []
    solve = kernels.solve_spd

    def counting(factor, b):
        factors.append(factor)
        return solve(factor, b)

    monkeypatch.setattr(kernels, "solve_spd", counting)
    rng = np.random.default_rng(35)
    X = rng.normal(size=(30, 2))
    Y = [f"c{k}" for k in rng.integers(0, 3, size=30)]
    dec = decoders.Exhaustive(sorted(set(Y)))
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), 1e-2)
    for x in rng.normal(size=(10, 2)):
        decoders.predict(model, dec, losses.ZeroOne(), x)
    assert len(factors) == 1 and factors[0] is model.factor
    other = surrogate.fit(X[::-1], Y[::-1], kernels.gaussian(1.0), 1e-2)
    decoders.predict(other, dec, losses.ZeroOne(), X[0])
    assert len(factors) == 2 and factors[1] is other.factor
    assert not np.array_equal(other.output_coefficients[1], model.output_coefficients[1])


@pytest.mark.parametrize("case", ["all_distinct", "mixed_int_types", "unseen_candidates"])
def test_single_exhaustive_predict_matches_the_weight_route_oracle(case):
    rng = np.random.default_rng(36)
    n = 24
    X = rng.normal(size=(n, 3))
    loss = losses.ZeroOne()
    if case == "all_distinct":  # U = n
        Y = candidates = list(range(n))
    elif case == "mixed_int_types":  # np.int64(k) and k are one output
        Y = [np.int64(k) if i % 2 else int(k) for i, k in enumerate(rng.integers(0, 4, size=n))]
        candidates = [0, 1, 2, 3]
    else:  # the half-integers never occur in training, and win under squared error
        Y = [int(k) for k in rng.integers(0, 3, size=n)]
        candidates, loss = [0, 0.5, 1, 1.5, 2], losses.SquaredError()
    model = surrogate.fit(X, Y, kernels.gaussian(2.0), 1e-2)
    dec = decoders.Exhaustive(candidates)
    got = []
    for x in rng.normal(size=(15, 3)):
        idx, _ = _oracles.scan_minimum(candidates, surrogate.alpha_weights(model, x),
                                       loss, Y)
        got.append(decoders.predict(model, dec, loss, x))
        assert got[-1] == candidates[idx]
    if case == "unseen_candidates":
        assert {0.5, 1.5} & set(got)


# ---------------------------------------------------------------------------
# FAS ranking decoder

def test_fas_single_profile_descending():
    profiles = np.array([[5.0, 3.0, 2.0]])
    (ranks,) = decoders.decode_ranking_fas(np.array([[1.0]]), profiles, 3)
    np.testing.assert_array_equal(ranks, [1, 2, 3])
    W = decoders.aggregate_pair_costs(np.array([1.0]), profiles)
    assert decoders.ranking_objective(W, ranks) == 0.0


def test_fas_opposite_profiles_tie():
    profiles = np.array([[1.0, 5.0], [5.0, 1.0]])
    alphas = np.array([1.0, 1.0])
    (ranks,) = decoders.decode_ranking_fas(alphas[:, None], profiles, 2)
    W = decoders.aggregate_pair_costs(alphas, profiles)
    got = decoders.ranking_objective(W, ranks)
    # symmetric W: every permutation attains the same objective
    vals = [decoders.ranking_objective(W, p) for p in _oracles.all_permutations(2)]
    assert got == pytest.approx(min(vals), abs=1e-12)


def test_fas_within_factor_two_of_exhaustive():
    rng = np.random.default_rng(1)
    perms = _oracles.all_permutations(5)
    for _ in range(60):
        t = int(rng.integers(2, 11))
        profiles = rng.uniform(1, 5, size=(t, 5))
        alphas = rng.dirichlet(np.ones(t))
        (ranks,) = decoders.decode_ranking_fas(alphas[:, None], profiles, 5)
        W = decoders.aggregate_pair_costs(alphas, profiles)
        got = decoders.ranking_objective(W, ranks)
        best = min(decoders.ranking_objective(W, p) for p in perms)
        assert got <= 2.0 * best + 1e-9


def test_fas_aggregation_identity():
    # sum_t alpha_t * rank_loss(y, profile_t) == sum_ij W_ij (1-sign)/2
    rng = np.random.default_rng(2)
    for _ in range(500):
        m = int(rng.integers(2, 6))
        t = int(rng.integers(1, 8))
        profiles = rng.uniform(1, 5, size=(t, m))
        alphas = rng.normal(size=t)
        perm = rng.permutation(m) + 1
        lhs = sum(a * losses.rank_loss(perm, pr) for a, pr in zip(alphas, profiles))
        W = decoders.aggregate_pair_costs(alphas, profiles)
        rhs = decoders.ranking_objective(W, perm)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_fas_always_a_permutation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 9))
        t = int(rng.integers(1, 6))
        profiles = rng.uniform(1, 5, size=(t, m))
        alphas = rng.normal(size=t)
        (ranks,) = decoders.decode_ranking_fas(alphas[:, None], profiles, m)
        np.testing.assert_array_equal(np.sort(ranks), np.arange(1, m + 1))


def test_fas_never_worse_than_best_profile_sort():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        t = int(rng.integers(1, 9))
        profiles = rng.uniform(1, 5, size=(t, m))
        alphas = rng.normal(size=t)
        (ranks,) = decoders.decode_ranking_fas(alphas[:, None], profiles, m)
        W = decoders.aggregate_pair_costs(alphas, profiles)
        got = decoders.ranking_objective(W, ranks)
        sorts = [decoders.profile_sort_ranks(profiles[t_]) for t_ in range(t)]
        best_sort = min(decoders.ranking_objective(W, s) for s in sorts)
        assert got <= best_sort + 1e-12


def test_fas_rejects_inconsistent_items():
    with pytest.raises(ValueError, match=r"needs \(T, 3\) rating profiles"):
        decoders.decode_ranking_fas(np.array([[1.0]]), np.array([[1.0, 2.0]]), 3)
    with pytest.raises(ValueError, match=r"weights must be \(n, Q\) with n = 4"):
        decoders.decode_ranking_fas(np.ones((3, 2)), np.ones((4, 3)), 3)


def test_fas_guard_ties_between_training_sorts_go_to_the_lowest_index():
    # Only profile 0 has weight, so s = [5, 5, 1]: items 0 and 1 tie, both
    # training sorts [1, 2, 3] and [2, 1, 3] cost 0, and the lowest index
    # goes first.
    profiles = np.array([[5.0, 5.0, 1.0], [4.0, 5.0, 1.0]])
    (got,) = decoders.decode_ranking_fas(np.array([[1.0], [0.0]]), profiles, 3)
    np.testing.assert_array_equal(got, [1, 2, 3])


def _ranking_instances(rng, count, integer, max_items=7, copies=True):
    """Random (alphas, profiles, M) with signed weights; with `copies`, a third
    of them have item columns that copy others, which forces ties in s."""
    for k in range(count):
        m = int(rng.integers(2, max_items + 1))
        t = int(rng.integers(1, 12))
        if integer:
            profiles = rng.integers(1, 6, size=(t, m)).astype(float)
            alphas = rng.integers(-3, 4, size=t).astype(float)
        else:
            profiles = rng.uniform(1, 5, size=(t, m))
            alphas = rng.normal(size=t)
        if copies and k % 3 == 0:
            profiles = profiles[:, rng.integers(0, m, size=m)]
        yield alphas, profiles, m


@pytest.mark.parametrize("integer", [True, False])
def test_fas_sort_matches_a_brute_force_permutation_scan(integer):
    # Every permutation of M <= 7 items is scored.  The decoded ranking's
    # objective equals the scan's minimum within 1e-12 of the objective's
    # scale sum_t |alpha_t| * (gain mass of profile t).  With integer ratings
    # and weights every objective is exact, so the tie rule is checked too:
    # among the minimisers, the one whose order lists the lowest index first.
    rng = np.random.default_rng(40 + integer)
    for alphas, profiles, m in _ranking_instances(rng, 300, integer):
        (got,) = decoders.decode_ranking_fas(alphas[:, None], profiles, m)
        perms = np.array(_oracles.all_permutations(m))
        F = _oracles.ranking_objectives(perms, alphas, profiles)
        scale = _oracles.ranking_objective_scale(alphas, profiles)
        f_got = _oracles.ranking_objectives(got[None], alphas, profiles)[0]
        assert abs(f_got - F.min()) <= 1e-12 * scale
        if integer:
            orders = [tuple(np.argsort(p)) for p in perms[F == F.min()]]
            assert tuple(np.argsort(got)) == min(orders)


def test_fas_batch_rows_equal_single_query_decodes():
    # No copied item columns: with real weights, BLAS may round the s of two
    # copies in a different order in a one-column and a Q-column product.
    rng = np.random.default_rng(43)
    for integer in (True, False):
        for alphas, profiles, m in _ranking_instances(rng, 40, integer, 9, copies=False):
            A = rng.normal(size=(profiles.shape[0], 7))
            A[:, 0] = alphas
            batch = decoders.decode_ranking_fas(A, profiles, m)
            assert batch.shape == (7, m)
            for q in range(7):
                np.testing.assert_array_equal(
                    batch[q], decoders.decode_ranking_fas(A[:, q:q + 1], profiles, m)[0])


def test_fas_batch_ties_go_to_the_lowest_index():
    # Integer weights and ratings make s exact, so copied item columns tie
    # exactly in every row of the batch.
    rng = np.random.default_rng(44)
    for _ in range(50):
        m, t = int(rng.integers(3, 9)), int(rng.integers(1, 12))
        profiles = rng.integers(1, 6, size=(t, m)).astype(float)[:, rng.integers(0, m, size=m)]
        A = rng.integers(-3, 4, size=(t, 6)).astype(float)
        batch = decoders.decode_ranking_fas(A, profiles, m)
        for q in range(6):
            s = [sum(A[k, q] * profiles[k, j] for k in range(t)) for j in range(m)]
            np.testing.assert_array_equal(batch[q], _oracles.descending_sort_ranks(s))


def test_decode_batch_decodes_a_ranking_batch_in_one_call(monkeypatch):
    calls = []
    real = decoders.decode_ranking_fas

    def counted(A, profiles, items):
        calls.append(np.shape(A))
        return real(A, profiles, items)

    monkeypatch.setattr(decoders, "decode_ranking_fas", counted)
    rng = np.random.default_rng(45)
    R = rng.integers(1, 6, size=(10, 4)).astype(float)
    out = decoders.decode_batch(decoders.RankingFas(items=4), losses.RankLoss(), R,
                                rng.normal(size=(10, 6)))
    assert calls == [(10, 6)] and out.shape == (6, 4)


def test_ranking_predict_equals_predict_batch_on_a_fitted_model():
    X, R = experiments.gen_ranking_data(8, 100, seed=5)
    model = surrogate.fit(X[:60], R[:60], kernels.linear(), 1e-2)
    decoder, loss = decoders.RankingFas(items=8), losses.RankLoss()
    batch = decoders.predict_batch(model, decoder, loss, X[60:])
    assert batch.shape == (40, 8)
    for q in range(40):
        np.testing.assert_array_equal(decoders.predict(model, decoder, loss, X[60 + q]),
                                      batch[q])


def test_profile_sort_ranks_of_a_stack_are_the_rows_sorts():
    rng = np.random.default_rng(42)
    profiles = rng.integers(1, 4, size=(20, 6)).astype(float)
    stacked = decoders.profile_sort_ranks(profiles)
    for t in range(20):
        np.testing.assert_array_equal(stacked[t], decoders.profile_sort_ranks(profiles[t]))
        np.testing.assert_array_equal(stacked[t], _oracles.descending_sort_ranks(profiles[t]))


# ---------------------------------------------------------------------------
# Scalar grid decoder

SPEC = decoders.ScalarGrid(bound=3.0, grid_points=512, refine_iters=40)
SCALAR_LOSSES = [losses.Cauchy(0.7), losses.SquaredError(), losses.AbsoluteError()]


def _decode_one(alphas, y_train, loss, spec=SPEC):
    """The scalar decode of one query: a batch of one through `decode_batch`."""
    return float(decoders.decode_batch(spec, loss, y_train, np.asarray(alphas)[:, None])[0])


def test_scalar_single_training_point():
    y1 = 0.8317
    got = _decode_one(np.array([1.0]), np.array([y1]), losses.Cauchy(1.0))
    assert got == pytest.approx(y1, abs=1e-6)


def test_scalar_symmetric_cauchy_matches_dense_grid():
    a = 1.3
    alphas = np.array([1.0, 1.0])
    y_train = np.array([-a, a])
    loss = losses.Cauchy(1.0)
    got = _decode_one(alphas, y_train, loss)
    got_val = _oracles.weighted_objective(got, alphas, loss, y_train)
    _, dense_val = _oracles.dense_grid_min(alphas, y_train, loss, 3.0)
    assert abs(got_val - dense_val) <= 1e-6


def test_scalar_random_cauchy_matches_dense_grid():
    rng = np.random.default_rng(5)
    loss = losses.Cauchy(0.7)
    for _ in range(10):
        n = int(rng.integers(2, 12))
        y_train = rng.uniform(-2.5, 2.5, size=n)
        alphas = np.abs(rng.normal(size=n))
        got = _decode_one(alphas, y_train, loss)
        got_val = _oracles.weighted_objective(got, alphas, loss, y_train)
        _, dense_val = _oracles.dense_grid_min(alphas, y_train, loss, 3.0, points=200_000)
        assert got_val <= dense_val + 1e-6


def test_scalar_squared_error_weighted_mean():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        y_train = rng.uniform(-2, 2, size=n)
        alphas = np.abs(rng.normal(size=n)) + 0.05
        got = _decode_one(alphas, y_train, losses.SquaredError())
        assert got == pytest.approx(float(alphas @ y_train / alphas.sum()), abs=1e-6)


def test_scalar_deterministic_and_grid_monotone():
    rng = np.random.default_rng(7)
    loss = losses.Cauchy(1.0)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        y_train = rng.uniform(-2.5, 2.5, size=n)
        alphas = rng.normal(size=n)
        a = _decode_one(alphas, y_train, loss)
        b = _decode_one(alphas, y_train, loss)
        assert a == b
        # a nested (doubled) grid never returns a worse objective
        coarse = decoders.ScalarGrid(bound=3.0, grid_points=129, refine_iters=12)
        fine = decoders.ScalarGrid(bound=3.0, grid_points=257, refine_iters=12)
        fa = _oracles.weighted_objective(_decode_one(alphas, y_train, loss, coarse),
                                         alphas, loss, y_train)
        fb = _oracles.weighted_objective(_decode_one(alphas, y_train, loss, fine),
                                         alphas, loss, y_train)
        assert fb <= fa + 1e-9


def test_scalar_grid_validation():
    with pytest.raises(ValueError):
        decoders.ScalarGrid(grid_points=1)
    with pytest.raises(ValueError):
        decoders.ScalarGrid(bound=-1.0)
    with pytest.raises(ValueError):
        decoders.ScalarGrid(refine_iters=-1)
    for bound in (np.nan, np.inf):  # a nan bound decoded nan for every query
        with pytest.raises(ValueError, match="bound must be positive and finite"):
            decoders.ScalarGrid(bound=bound)


@pytest.mark.parametrize("loss", SCALAR_LOSSES, ids=lambda loss: type(loss).__name__)
def test_scalar_batch_matches_single(loss):
    # 257 queries cross the boundary of the decoder's SCALAR_CHUNK = 256 columns
    rng = np.random.default_rng(8)
    n = 6
    y_train = rng.uniform(-2, 2, size=n)
    for q in (5, decoders.SCALAR_CHUNK + 1):
        A = rng.normal(size=(n, q))
        pts, vals = decoders.decode_scalar_grid_batch(A, y_train, loss, SPEC)
        assert pts.shape == vals.shape == (q,)
        for j in range(q):
            single = decoders.decode_scalar_grid_batch(A[:, j:j + 1], y_train, loss, SPEC)[0]
            assert pts[j] == single[0]
            assert vals[j] == pytest.approx(
                _oracles.weighted_objective(pts[j], A[:, j], loss, y_train), abs=1e-10)


# Oracle checks of the Newton polish.  The dense oracle scans 10^6
# points on [-3, 3] (spacing 6e-6), so a decode in the oracle's basin lies
# within two spacings of its point and its objective is no higher than the
# oracle's, up to 1e-12 for the two evaluation routes' rounding.
DENSE_STEP = 6.0 / (1_000_000 - 1)


def _weights(rng, n, sign):
    """Positive, mixed-sign, or mixed-sign weights with sum <= 0."""
    if sign == "positive":
        return np.abs(rng.normal(size=n)) + 0.05
    alphas = rng.normal(size=n)
    if sign == "sum<=0":
        alphas -= alphas.mean() + rng.uniform(0.0, 0.3)
    return alphas


@pytest.mark.parametrize("sign", ["positive", "mixed", "sum<=0"])
@pytest.mark.parametrize("loss", SCALAR_LOSSES, ids=lambda loss: type(loss).__name__)
def test_scalar_polish_matches_dense_grid_oracle(loss, sign):
    # The oracle scans 10^6 points of [-3, 3] from each loss's definition, so
    # its value is no lower than the true minimum: a decode that found the
    # global minimum scores no higher, up to rounding, and lies within two of
    # its spacings.  Squared error also has a closed form: the clipped
    # weighted mean when sum(alpha) > 0, else the better bound.
    rng = np.random.default_rng(12)
    for _ in range(8):
        n = int(rng.integers(2, 12))
        y_train = rng.uniform(-2.5, 2.5, size=n)
        alphas = _weights(rng, n, sign)
        got = _decode_one(alphas, y_train, loss)
        x, val = _oracles.dense_grid_min(alphas, y_train, loss, SPEC.bound)
        f = _oracles.weighted_objective(got, alphas, loss, y_train)
        assert f <= val + 1e-12 * max(1.0, abs(val))
        assert abs(got - x) <= 2 * DENSE_STEP
        if isinstance(loss, losses.SquaredError):
            mass = alphas.sum()
            if mass > 0:
                exact = float(np.clip(alphas @ y_train / mass, -SPEC.bound, SPEC.bound))
            else:
                exact = min((-SPEC.bound, SPEC.bound),
                            key=lambda p: _oracles.weighted_objective(p, alphas, loss, y_train))
            assert abs(got - exact) <= 2.0 ** -decoders.NEWTON_SNAP


@pytest.mark.parametrize("refine_iters", [0, 40])
def test_scalar_decode_rejects_a_loss_it_does_not_polish(refine_iters):
    spec = dataclasses.replace(SPEC, refine_iters=refine_iters)
    y_train, A = np.array([-0.5, 0.25, 1.0]), np.ones((3, 2))

    def plain(y, y2):
        return abs(y - y2)

    for loss in (plain, losses.ZeroOne(), losses.SquaredHellinger()):
        with pytest.raises(ValueError, match="scalar decoder minimises"):
            decoders.decode_scalar_grid_batch(A, y_train, loss, spec)
        with pytest.raises(ValueError, match="scalar decoder minimises"):
            decoders.decode_batch(spec, loss, y_train, A)


def _assert_matches_dense_oracle(got, alphas, y_train, gamma):
    loss = losses.Cauchy(gamma)
    x, val = _oracles.dense_grid_min(alphas, y_train, loss, SPEC.bound)
    assert abs(got - x) <= 2 * DENSE_STEP
    assert _oracles.weighted_objective(got, alphas, loss, y_train) <= val + 1e-12


def test_scalar_cauchy_newton_with_negative_weights_matches_dense_grid():
    rng = np.random.default_rng(9)
    interior = 0
    for _ in range(10):
        n = int(rng.integers(3, 12))
        y_train = rng.uniform(-2.5, 2.5, size=n)
        alphas = rng.normal(size=n)
        got = _decode_one(alphas, y_train, losses.Cauchy(0.7))
        _assert_matches_dense_oracle(got, alphas, y_train, 0.7)
        interior += abs(got) < SPEC.bound
    assert interior >= 5  # most of these minima are polished, not clipped


def test_scalar_cauchy_newton_between_two_close_minima():
    # gamma = 1e-5 gives each of the two nearby training points its own
    # minimum, 0.5 to 2 grid cells apart.  The decoder is a grid scan plus a
    # local polish, so it may keep the basin of the grid best where the
    # other minimum is deeper; its objective is then within the scan's own
    # error, h^2/8 * sup F'' (F'' <= 2 per unit weight), of the dense minimum.
    # Where it keeps the dense minimum's basin it matches that minimum.
    h = 2 * SPEC.bound / (SPEC.grid_points - 1)
    gamma = 1e-5
    loss = losses.Cauchy(gamma)
    rng = np.random.default_rng(3)
    same_basin = 0
    for _ in range(20):
        y0 = rng.uniform(-2, 2)
        y_train = np.array([y0, y0 + rng.uniform(0.5, 2.0) * h, rng.uniform(-2.5, 2.5)])
        alphas = np.array([1.0, rng.uniform(0.6, 0.95), 0.3])
        got = _decode_one(alphas, y_train, loss)
        got_val = _oracles.weighted_objective(got, alphas, loss, y_train)
        x, val = _oracles.dense_grid_min(alphas, y_train, loss, SPEC.bound)
        assert got_val <= val + h * h / 8 * 2 * alphas.sum()
        if abs(got - x) <= 2 * DENSE_STEP:
            same_basin += 1
            assert got_val <= val + 1e-12
    assert same_basin >= 18


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_scalar_cauchy_newton_returns_the_boundary_grid_point(side):
    # every target lies beyond the bound, so F falls all the way to it
    rng = np.random.default_rng(10)
    y_train = side * rng.uniform(3.5, 6.0, size=7)
    alphas = rng.uniform(0.1, 1.0, size=7)
    for iters in (10, 40):
        spec = dataclasses.replace(SPEC, refine_iters=iters)
        got = _decode_one(alphas, y_train, losses.Cauchy(0.7), spec)
        assert got == side * SPEC.bound
        _assert_matches_dense_oracle(got, alphas, y_train, 0.7)


def test_scalar_polish_that_ends_above_the_grid_best_is_discarded():
    # Mixed-sign weights under absolute error on a 64-point grid: the grid
    # best is point 10 (-2.048), and bisection on the sign of F' runs to its
    # right neighbour (-1.952), whose objective is 0.083 higher.  The
    # decoder keeps a polished point only where it beats the grid best.
    y_train = np.array([-2.521, -2.686, -2.038, -1.728, -2.002, 0.393, 1.077, 0.417, -1.1])
    alphas = np.array([0.799, -1.448, 1.676, 0.539, -1.331, 0.371, -1.918, 1.348, -0.584])
    loss, spec = losses.AbsoluteError(), dataclasses.replace(SPEC, grid_points=64)
    grid = np.linspace(-spec.bound, spec.bound, spec.grid_points)
    F = [_oracles.weighted_objective(p, alphas, loss, y_train) for p in grid]
    assert int(np.argmin(F)) == 10
    polished = decoders._newton_polish(alphas[:, None], y_train, loss, grid[[10]], grid[[9]],
                                       grid[[11]], spec.refine_iters)[0]
    assert _oracles.weighted_objective(polished, alphas, loss, y_train) > F[10] + 0.08
    (point,), (value,) = decoders.decode_scalar_grid_batch(alphas[:, None], y_train, loss, spec)
    assert point == grid[10]
    assert value == pytest.approx(F[10], rel=1e-12)


def test_scalar_cauchy_newton_converges_within_a_few_steps():
    # Newton converges quadratically from the grid best, so a cap of 6 steps
    # does not bind: the points equal those of the 40-step cap
    rng = np.random.default_rng(13)
    n = 40
    y_train = rng.uniform(-2.5, 2.5, size=n)
    A = np.abs(rng.normal(size=(n, 200))) / n
    loss = losses.Cauchy(0.7)
    few = decoders.decode_scalar_grid_batch(A, y_train, loss,
                                            dataclasses.replace(SPEC, refine_iters=6))[0]
    np.testing.assert_array_equal(few, decoders.decode_scalar_grid_batch(A, y_train, loss,
                                                                         SPEC)[0])


def test_scalar_cauchy_newton_wide_batch_equals_column_decodes():
    # Points must agree bit for bit; an objective read from the grid scan's
    # product may differ in the last bits, as BLAS rounds a one-column
    # product differently.
    rng = np.random.default_rng(11)
    n, q = 9, 2 * decoders.SCALAR_CHUNK + 3
    y_train = rng.uniform(-2.5, 2.5, size=n)
    A = rng.normal(size=(n, q))
    loss = losses.Cauchy(0.7)
    pts, vals = decoders.decode_scalar_grid_batch(A, y_train, loss, SPEC)
    for j in range(q):
        one, one_val = decoders.decode_scalar_grid_batch(A[:, j:j + 1], y_train, loss, SPEC)
        assert pts[j] == one[0]
        assert vals[j] == pytest.approx(one_val[0], rel=1e-12)
    for j in range(0, q, 64):
        _assert_matches_dense_oracle(pts[j], A[:, j], y_train, 0.7)


class _RowCounting:
    """A scalar loss that records the row count of each polish step."""

    def __init__(self, loss):
        self.loss, self.rows = loss, []

    def slope_curvature(self, a, d):
        self.rows.append(a.shape[0])
        return self.loss.slope_curvature(a, d)


@pytest.mark.parametrize("iters", [7, 40])
@pytest.mark.parametrize("loss", [losses.Cauchy(0.7), losses.SquaredError(),
                                  losses.AbsoluteError()], ids=["cauchy", "squared", "absolute"])
def test_newton_polish_of_a_batch_equals_each_column_polished_alone(loss, iters):
    # Mixed-sign weights and brackets from 1e-11 to 1 wide, so that columns
    # stop at different steps and the batch is compacted on the way; the
    # polish writes none of its inputs.
    rng = np.random.default_rng(21)
    n, q = 30, 48
    y_train = rng.uniform(-2.0, 2.0, size=n)
    A = rng.normal(size=(n, q))
    start = rng.uniform(-2.0, 2.0, size=q)
    width = 10.0 ** rng.uniform(-11.0, 0.0, size=q)
    lo, hi = start - width * rng.uniform(0.0, 1.0, size=q), start + width
    inputs = [x.copy() for x in (A, start, lo, hi)]
    counting = _RowCounting(loss)
    batch = decoders._newton_polish(A, y_train, counting, start, lo, hi, iters)
    for x, x0 in zip((A, start, lo, hi), inputs):
        np.testing.assert_array_equal(x, x0)
    assert len(set(counting.rows)) >= 3  # compacted at least twice
    assert counting.rows[0] == q and min(counting.rows) > 0
    for j in range(q):
        one = decoders._newton_polish(A[:, j:j + 1], y_train, loss, start[j:j + 1],
                                      lo[j:j + 1], hi[j:j + 1], iters)
        assert one[0] == batch[j]


# The tracemalloc peak of one Cauchy decode at robust-cv's final-predict
# shape, its largest scalar decode, when each polish step allocated its own
# (Q, n) temporaries (NumPy 2.4): the decode may not use more.
SCALAR_DECODE_PEAK_BYTES = 4_968_744


def test_scalar_decode_at_the_robust_predict_shape_stays_under_its_memory_peak():
    _, y_train = experiments.gen_robust_data(300, 0)
    A = np.random.default_rng(0).normal(size=(300, 1000)) / 300
    spec = experiments.ROBUST_DECODER
    assert spec.grid_points == 512
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decoders.decode_scalar_grid_batch(A, y_train, losses.Cauchy(1.0), spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= SCALAR_DECODE_PEAK_BYTES


# ---------------------------------------------------------------------------
# Simplex Hellinger decoder

def test_simplex_single_histogram():
    y = np.array([[0.2, 0.3, 0.5]])
    got = decoders.decode_simplex_hellinger(np.array([1.0]), y)
    np.testing.assert_allclose(got, y[0], atol=1e-12)


def test_simplex_single_active_weight():
    Y = np.array([[0.7, 0.3], [0.1, 0.9]])
    got = decoders.decode_simplex_hellinger(np.array([2.5, 0.0]), Y)
    np.testing.assert_allclose(got, Y[0], atol=1e-12)


def test_simplex_output_on_simplex():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n, d = int(rng.integers(1, 10)), int(rng.integers(2, 17))
        Y = rng.dirichlet(np.ones(d), size=n)
        alphas = rng.normal(size=n)
        got = decoders.decode_simplex_hellinger(alphas, Y)
        assert np.all(got >= -1e-15)
        assert abs(got.sum() - 1.0) <= 1e-12


def _random_simplex_instance(rng, force_positive=True):
    n, d = int(rng.integers(2, 10)), int(rng.integers(2, 17))
    Y = rng.dirichlet(np.ones(d), size=n)
    while True:
        alphas = rng.normal(size=n) / n + (0.5 / n if force_positive else 0.0)
        b = alphas @ np.sqrt(Y)
        if not force_positive or np.any(b > 0):
            return alphas, Y


def test_simplex_beats_random_sampling():
    rng = np.random.default_rng(10)
    for _ in range(20):
        alphas, Y = _random_simplex_instance(rng)
        got = decoders.decode_simplex_hellinger(alphas, Y)
        got_val = _oracles.hellinger_objective(got, alphas, Y)
        samples = rng.dirichlet(np.ones(Y.shape[1]), size=10_000)
        sample_vals = [
            _oracles.hellinger_objective(s, alphas, Y) for s in samples[:200]
        ]
        # vectorized check over the full sample
        sq = np.sqrt(samples)
        b = alphas @ np.sqrt(Y)
        full = float(alphas.sum()) - 2.0 * sq @ b + float(alphas @ Y.sum(axis=1))
        assert got_val <= full.min() + 1e-9
        assert got_val <= min(sample_vals) + 1e-9


def test_simplex_matches_projected_gradient_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        alphas, Y = _random_simplex_instance(rng)
        got = decoders.decode_simplex_hellinger(alphas, Y)
        res = _oracles.projected_gradient_hellinger(alphas, Y)
        assert res.converged, (
            f"oracle stalled: residual {res.residual:.3g} after {res.iterations} steps")
        oracle = res.p
        assert (_oracles.hellinger_objective(got, alphas, Y)
                <= _oracles.hellinger_objective(oracle, alphas, Y) + 1e-10)
        assert losses.squared_hellinger(got, oracle) <= 1e-6


def test_simplex_degenerate_falls_back_to_training_outputs():
    Y = np.array([[0.5, 0.5], [0.9, 0.1]])
    alphas = np.array([-1.0, -2.0])  # all b_j <= 0
    got = decoders.decode_simplex_hellinger(alphas, Y)
    cands = [Y[0], Y[1]]
    vals = [_oracles.hellinger_objective(c, alphas, Y) for c in cands]
    np.testing.assert_allclose(got, cands[int(np.argmin(vals))])


def test_simplex_fallback_is_a_training_histogram_of_least_objective():
    # all-negative weights over training sets with repeated rows: the decode
    # is a training row whose objective is within rounding of the least, and
    # the batch route (here at alpha and 2 alpha, which only doubles b) agrees
    rng = np.random.default_rng(21)
    for _ in range(50):
        n, d = int(rng.integers(2, 12)), int(rng.integers(2, 7))
        Y = rng.dirichlet(np.ones(d), size=n)
        Y = np.vstack([Y, Y[rng.integers(0, n, size=3)]])
        alphas = -rng.uniform(0.1, 1.0, size=Y.shape[0])
        got = decoders.decode_simplex_hellinger(alphas, Y)
        assert not np.shares_memory(got, Y)  # writing to it leaves Y alone
        vals = np.array([_oracles.hellinger_objective(y, alphas, Y) for y in Y])
        rows = np.nonzero(np.all(Y == got, axis=1))[0]
        assert rows.size and vals[rows[0]] - vals.min() <= 1e-12 * abs(vals.min())
        np.testing.assert_array_equal(decoders.decode_simplex_hellinger_batch(
            np.stack([alphas, 2.0 * alphas], axis=1), Y), [got, got])


@pytest.mark.parametrize("alphas", [np.ones((3, 3)), np.float64(1.0)], ids=["matrix", "scalar"])
def test_simplex_single_query_rejects_weights_that_are_not_a_vector(alphas):
    # an (n, n) matrix over n-bin histograms returned an (n, n) array, and a
    # scalar raised numpy's IndexError
    Y = np.full((3, 3), 1 / 3)
    with pytest.raises(ValueError, match=r"weights must be \(n,\) with n = 3, got shape"):
        decoders.decode_simplex_hellinger(alphas, Y)
    # the single-query form takes the (n,) vector
    np.testing.assert_allclose(decoders.decode_simplex_hellinger(np.ones(3), Y), Y[0])


def test_simplex_rejects_empty():
    with pytest.raises(ValueError):
        decoders.decode_simplex_hellinger(np.array([]), np.empty((0, 3)))


@pytest.mark.parametrize("A, Y, message", [
    (np.ones((3, 2)), np.full((4, 2), 0.5), r"weights must be \(n"),
    (np.ones((0, 2)), np.empty((0, 3)), r"non-empty \(n, d\) array"),
    (np.ones((3, 2)), np.full(3, 1.0), r"non-empty \(n, d\) array"),
    # a NaN histogram decoded to [nan, 0.5]
    (np.ones((2, 1)), np.array([[0.5, 0.5], [np.nan, 0.5]]),
     "training outputs row 1 has non-finite entries"),
    # a negative histogram decoded off the simplex, to [-0.5, 1.5]
    (np.ones((2, 1)), np.array([[-0.5, 1.5], [0.3, 0.7]]),
     "training outputs row 0 has negative entries"),
    # finiteness is checked first, whichever row comes first
    (np.ones((2, 1)), np.array([[-0.5, 1.5], [np.inf, 0.7]]),
     "training outputs row 1 has non-finite entries"),
])
def test_simplex_batch_checks_its_inputs_as_the_single_query_form(A, Y, message):
    with pytest.raises(ValueError, match=message):
        decoders.decode_simplex_hellinger(A[:, 0], Y)
    with pytest.raises(ValueError, match=message):
        decoders.decode_simplex_hellinger_batch(A, Y)
    with pytest.raises(ValueError, match=message):
        decoders.decode_batch(decoders.SimplexHellinger(), losses.SquaredHellinger(), Y, A)


def test_predict_batch_rejects_negative_histograms_of_a_fitted_model():
    # `surrogate.fit` checks no output kind, so the decode is the check
    rng = np.random.default_rng(12)
    Y = rng.dirichlet(np.ones(3), size=6)
    Y[4] = [1.25, -0.25, 0.0]
    model = surrogate.fit(rng.normal(size=(6, 2)), Y, kernels.gaussian(1.0), 0.1)
    with pytest.raises(ValueError, match="training outputs row 4 has negative entries"):
        decoders.predict_batch(model, decoders.SimplexHellinger(), losses.SquaredHellinger(),
                               rng.normal(size=(3, 2)))


def test_simplex_batch_matches_single():
    rng = np.random.default_rng(12)
    Y = rng.dirichlet(np.ones(5), size=6)
    A = rng.normal(size=(6, 4))
    batch = decoders.decode_simplex_hellinger_batch(A, Y)
    for q in range(4):
        np.testing.assert_allclose(batch[q],
                                   decoders.decode_simplex_hellinger(A[:, q], Y),
                                   atol=1e-14)


# ---------------------------------------------------------------------------
# predict composition

def test_predict_exhaustive_composition():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(10, 2))
    Y = [int(v) for v in rng.integers(0, 3, size=10)]
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), 0.1)
    dec = decoders.Exhaustive([0, 1, 2])
    q = rng.normal(size=2)
    got = decoders.predict(model, dec, losses.ZeroOne(), q)
    a = surrogate.alpha_weights(model, q)
    idx, _ = _oracles.scan_minimum([0, 1, 2], a, losses.zero_one, Y)
    assert got == [0, 1, 2][idx]


def test_predict_scalar_composition():
    rng = np.random.default_rng(14)
    X = rng.uniform(-1, 1, size=(15, 1))
    y = np.sin(3.0 * X[:, 0])
    model = surrogate.fit(X, y, kernels.gaussian(0.1), 1e-3)
    got = decoders.predict(model, decoders.ScalarGrid(bound=3.0), losses.Cauchy(1.0),
                           np.array([0.2]))
    assert abs(got - np.sin(0.6)) < 0.2


def test_predict_ranking_composition():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(12, 3))
    R = rng.uniform(1, 5, size=(12, 4))
    model = surrogate.fit(X, R, kernels.linear(), 0.5)
    got = decoders.predict(model, decoders.RankingFas(items=4), losses.RankLoss(),
                           X[3])
    np.testing.assert_array_equal(np.sort(got), [1, 2, 3, 4])


def test_predict_mismatched_decoder_errors():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(5, 2))
    model = surrogate.fit(X, ["a"] * 5, kernels.gaussian(1.0), 0.1)
    with pytest.raises(ValueError):
        decoders.predict(model, decoders.ScalarGrid(), losses.Cauchy(1.0),
                         rng.normal(size=2))
    model2 = surrogate.fit(X, np.zeros(5), kernels.gaussian(1.0), 0.1)
    with pytest.raises(ValueError):
        decoders.predict(model2, decoders.RankingFas(items=3), losses.RankLoss(),
                         rng.normal(size=2))


@pytest.mark.parametrize("decoder, loss, outputs", [
    (decoders.RankingFas(items=3), losses.SquaredError(), "ratings"),
    (decoders.RankingFas(items=3), losses.RankLoss(normalize=True), "ratings"),
    (decoders.SimplexHellinger(), losses.SquaredError(), "simplex"),
    (decoders.SimplexHellinger(), losses.AbsoluteError(), "simplex"),
])
def test_predict_rejects_a_loss_the_decoder_does_not_minimise(decoder, loss, outputs):
    rng = np.random.default_rng(18)
    X = rng.normal(size=(6, 2))
    if outputs == "ratings":
        Y = rng.integers(1, 6, size=(6, 3)).astype(float)
    else:
        Y = rng.dirichlet(np.ones(3), size=6)
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), 0.1)
    with pytest.raises(ValueError, match="minimises"):
        decoders.predict(model, decoder, loss, X[0])
    with pytest.raises(ValueError, match="minimises"):
        decoders.predict_batch(model, decoder, loss, X)


_PROFILES = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 1.0]])
# Every public decode from weights, over n = 3 training outputs: `decode_batch`
# with each decoder, and (fn-) each decoder's own function.
_WEIGHT_DECODES = {
    "exhaustive": lambda A: decoders.decode_batch(
        decoders.Exhaustive(["a", "b"]), losses.ZeroOne(), ["a", "b", "a"], A),
    "ranking": lambda A: decoders.decode_batch(
        decoders.RankingFas(items=3), losses.RankLoss(), _PROFILES, A),
    "scalar": lambda A: decoders.decode_batch(
        decoders.ScalarGrid(), losses.Cauchy(1.0), np.array([-0.5, 0.25, 1.0]), A),
    "simplex": lambda A: decoders.decode_batch(
        decoders.SimplexHellinger(), losses.SquaredHellinger(), np.full((3, 2), 0.5), A),
    "fn-exhaustive": lambda A: decoders.decode_exhaustive(
        ["a", "b"], A, losses.ZeroOne(), ["a", "b", "a"]),
    "fn-ranking": lambda A: decoders.decode_ranking_fas(A, _PROFILES, 3),
    "fn-scalar": lambda A: decoders.decode_scalar_grid_batch(
        A, np.array([-0.5, 0.25, 1.0]), losses.Cauchy(1.0), decoders.ScalarGrid()),
    "fn-simplex": lambda A: decoders.decode_simplex_hellinger_batch(
        A, np.full((3, 2), 0.5)),
}


@pytest.mark.parametrize("A", [np.ones(3), np.ones((3, 2, 1)), np.float64(1.0), np.ones((4, 2))],
                         ids=["vector", "3-d", "scalar", "rows"])
@pytest.mark.parametrize("decode", list(_WEIGHT_DECODES.values()), ids=list(_WEIGHT_DECODES))
def test_decode_batch_rejects_weights_that_are_not_a_matrix(decode, A):
    # one rule and one message for every decode from weights: a ranking
    # decode of one (n,) vector returned one (M,) ranking, and a wrong row
    # count had a message of its own in each decoder
    want = f"weights must be (n, Q) with n = 3, got shape {np.shape(A)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        decode(A)
    decode(np.ones((3, 2)))  # the (n, Q) matrix decodes


def test_predict_batch_matches_predict():
    rng = np.random.default_rng(17)
    X = rng.uniform(-1, 1, size=(12, 1))
    y = np.cos(2.0 * X[:, 0])
    model = surrogate.fit(X, y, kernels.gaussian(0.2), 1e-2)
    Q = rng.uniform(-1, 1, size=(6, 1))
    spec = decoders.ScalarGrid(bound=3.0, grid_points=128, refine_iters=10)
    batch = decoders.predict_batch(model, spec, losses.Cauchy(1.0), Q)
    for j in range(6):
        assert batch[j] == decoders.predict(model, spec, losses.Cauchy(1.0), Q[j])


def _refuse_kernel_work(*args, **kwargs):
    raise AssertionError("kernel work before the loss was checked")


@pytest.mark.parametrize("kind", ["scalar", "simplex", "ratings"])
def test_predict_batch_refuses_a_loss_before_any_kernel_work(tmp_path, monkeypatch, kind):
    # a loaded model has no factor yet, so a late check would build the
    # factor and the (n, Q) cross-kernel before refusing the loss
    rng = np.random.default_rng(21)
    X = rng.normal(size=(12, 2))
    Y, decoder = {
        "scalar": (rng.uniform(-2, 2, size=12), decoders.ScalarGrid()),
        "simplex": (rng.dirichlet(np.ones(3), size=12), decoders.SimplexHellinger()),
        "ratings": (rng.integers(1, 6, size=(12, 4)).astype(float),
                    decoders.RankingFas(items=4)),
    }[kind]
    surrogate.save_model(surrogate.fit(X, Y, kernels.gaussian(1.0), 0.1),
                         tmp_path / "m.json", kind)
    model, _ = surrogate.load_model(tmp_path / "m.json")
    monkeypatch.setattr(kernels, "factor_shifted", _refuse_kernel_work)
    monkeypatch.setattr(kernels, "cross_kernel_batch", _refuse_kernel_work)
    with pytest.raises(ValueError, match="not ZeroOne"):
        decoders.predict_batch(model, decoder, losses.ZeroOne(), X[:3])


@pytest.mark.parametrize("outputs", ["ratings", "simplex"])
def test_predict_matches_predict_batch_for_the_closed_form_decoders(outputs):
    rng = np.random.default_rng(19)
    X = rng.normal(size=(20, 2))
    if outputs == "ratings":
        Y = rng.integers(1, 6, size=(20, 4)).astype(float)
        decoder, loss = decoders.RankingFas(items=4), losses.RankLoss()
    else:
        Y = rng.dirichlet(np.ones(3), size=20)
        decoder, loss = decoders.SimplexHellinger(), losses.SquaredHellinger()
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), 0.05)
    Q = rng.normal(size=(6, 2))
    batch = decoders.predict_batch(model, decoder, loss, Q)
    for q in range(6):
        one = decoders.predict(model, decoder, loss, Q[q])
        assert np.shape(one) == np.shape(batch[q])
        np.testing.assert_allclose(one, batch[q], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("outputs", ["scalar", "ratings", "simplex"])
def test_single_query_is_a_one_row_batch(outputs):
    # predict on every decoder but Exhaustive is predict_batch on x[None, :]:
    # the same answer to the last bit, a float for scalars, and a query that
    # is not a 1-d vector is rejected
    rng = np.random.default_rng(20)
    X = rng.normal(size=(20, 2))
    if outputs == "scalar":
        Y = np.sin(2.0 * X[:, 0])
        decoder, loss = decoders.ScalarGrid(bound=2.0, grid_points=64), losses.Cauchy(0.5)
    elif outputs == "ratings":
        Y = rng.integers(1, 6, size=(20, 4)).astype(float)
        decoder, loss = decoders.RankingFas(items=4), losses.RankLoss()
    else:
        Y = rng.dirichlet(np.ones(3), size=20)
        decoder, loss = decoders.SimplexHellinger(), losses.SquaredHellinger()
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), 0.05)
    for x in rng.normal(size=(8, 2)):
        one = decoders.predict(model, decoder, loss, x)
        want = decoders.predict_batch(model, decoder, loss, x[None, :])[0]
        if outputs == "scalar":
            assert type(one) is float and one == want
        else:
            np.testing.assert_array_equal(one, want)
    with pytest.raises(ValueError, match="query must be a 1-d vector"):
        decoders.predict(model, decoder, loss, X[:2])
