import tracemalloc

import numpy as np
import pytest

import _oracles
from surrloss import kernels, losses, surrogate


def test_fit_single_point_linear():
    # n=1, x=(1), linear kernel, lambda=1: system matrix is [2]
    m = surrogate.fit([[1.0]], [0.0], kernels.linear(), 1.0)
    assert m.factor.order == 1
    assert m.factor.lower[0, 0] == pytest.approx(np.sqrt(2.0))


def test_fit_duplicate_inputs_uses_jitter_path():
    X = [[0.5, 0.5], [0.5, 0.5]]
    m = surrogate.fit(X, ["a", "b"], kernels.gaussian(1.0), 1e-16)
    assert np.all(np.isfinite(m.factor.lower))


def test_fit_reproduces_system_matrix():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3, 2))
    lam = 0.3
    m = surrogate.fit(X, [0, 1, 0], kernels.gaussian(1.0), lam)
    K = kernels.gram_matrix(kernels.gaussian(1.0), X)
    target = K + 3 * lam * np.eye(3)
    rebuilt = m.factor.lower @ m.factor.lower.T
    assert np.max(np.abs(rebuilt - target)) <= 1e-10


def test_fit_holds_at_most_two_gram_sized_arrays():
    # K + n*lambda*I is built without an (n, n) identity, and the Gram is
    # freed before the Cholesky factor is allocated: the shifted copy and the
    # factor are the only (n, n) arrays alive at once (three before).
    n = 600
    X = np.random.default_rng(7).normal(size=(n, 3))
    surrogate.fit(X, np.zeros(n), kernels.gaussian(3.0), 1e-3)
    tracemalloc.start()
    try:
        surrogate.fit(X, np.zeros(n), kernels.gaussian(3.0), 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_fit_rejects_bad_lambda_and_sizes():
    with pytest.raises(ValueError):
        surrogate.fit([[1.0]], [0.0], kernels.linear(), 0.0)
    with pytest.raises(ValueError):
        surrogate.fit([[1.0]], [0.0, 1.0], kernels.linear(), 1.0)


def test_alpha_single_point_half():
    # k(x1,x1)=1, lambda=1: (1 + 1) alpha = 1 -> alpha = 1/2
    m = surrogate.fit([[0.0]], [0.0], kernels.gaussian(1.0), 1.0)
    a = surrogate.alpha_weights(m, np.array([0.0]))
    assert a.weights[0] == pytest.approx(0.5, abs=1e-15)


def test_alpha_large_lambda_shrinks_to_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 2))
    m = surrogate.fit(X, list(range(5)), kernels.gaussian(1.0), 1e6)
    a = surrogate.alpha_weights(m, rng.normal(size=2))
    assert np.max(np.abs(a.weights)) <= 1.0 / (5 * 1e6) + 1e-12


def test_alpha_hand_solved_2x2():
    # linear kernel on x1 = (0, 1), x2 = (1, 2): K = [[1, 2], [2, 5]], and
    # n*lambda = 1; the query (1, .5) has K_x = (.5, 2), so
    # alpha = [[2, 2], [2, 6]]^-1 (.5, 2) = [[6, -2], [-2, 2]] (.5, 2) / 8
    #       = (-1/8, 3/8)
    m = surrogate.fit([[0.0, 1.0], [1.0, 2.0]], ["p", "q"], kernels.linear(), 0.5)
    a = surrogate.alpha_weights(m, [1.0, 0.5])
    np.testing.assert_allclose(a.weights, [-0.125, 0.375], atol=1e-14)


def test_alpha_residual_invariant():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    m = surrogate.fit(X, list(range(30)), kernels.gaussian(0.8), 1e-3)
    K = kernels.gram_matrix(kernels.gaussian(0.8), X)
    for _ in range(20):
        q = rng.normal(size=2)
        kx = kernels.cross_kernel(kernels.gaussian(0.8), X, q)
        a = surrogate.alpha_weights(m, q).weights
        resid = (K + (30 * 1e-3 + m.factor.jitter) * np.eye(30)) @ a - kx
        assert np.max(np.abs(resid)) <= 1e-8 * (1.0 + np.max(np.abs(kx)))


def test_alpha_linear_in_rhs():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2))
    m = surrogate.fit(X, list(range(8)), kernels.gaussian(1.0), 0.05)
    b1, b2 = rng.normal(size=(2, 8))
    s1 = kernels.solve_spd(m.factor, b1)
    s2 = kernels.solve_spd(m.factor, b2)
    s12 = kernels.solve_spd(m.factor, b1 + b2)
    assert np.max(np.abs(s12 - (s1 + s2))) <= 1e-10


def test_fit_and_alpha_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(6, 2))
    Y = list(range(6))
    q = rng.normal(size=2)
    m1 = surrogate.fit(X, Y, kernels.gaussian(0.5), 0.1)
    m2 = surrogate.fit(X, Y, kernels.gaussian(0.5), 0.1)
    assert np.array_equal(m1.factor.lower, m2.factor.lower)
    a1 = surrogate.alpha_weights(m1, q).weights
    a2 = surrogate.alpha_weights(m2, q).weights
    assert np.array_equal(a1, a2)


def test_alpha_batch_matches_single():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 2))
    m = surrogate.fit(X, list(range(7)), kernels.gaussian(1.0), 0.2)
    Q = rng.normal(size=(4, 2))
    A = surrogate.alpha_weights_batch(m, Q)
    for q in range(4):
        single = surrogate.alpha_weights(m, Q[q]).weights
        np.testing.assert_allclose(A[:, q], single, atol=1e-14)


# ---------------------------------------------------------------------------
# Explicit ghat and the loss trick

def _toy_model(rng, n=8, n_labels=3, lam=0.1):
    X = rng.normal(size=(n, 2))
    Y = [int(v) for v in rng.integers(0, n_labels, size=n)]
    labels = list(range(n_labels))
    emb = losses.build_finite_embedding(losses.ZeroOne(labels), labels)
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), lam)
    return model, emb, labels


def _ghat_rows(model, emb, Xq):
    return surrogate.explicit_g_hat(surrogate.alpha_weights_batch(model, Xq), model.Y, emb)


def _training_risk(model, emb):
    """(1/n) sum_i ||ghat(x_i) - psi(y_i)||^2 from the batch ghat rows."""
    G = _ghat_rows(model, emb, model.X)
    E = np.array([emb.psi(y) for y in model.Y])
    return float(((G - E) ** 2).sum(axis=1).mean())


def test_ghat_single_point():
    m = surrogate.fit([[0.0]], ["b"], kernels.gaussian(1.0), 1.0)
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    g = _ghat_rows(m, emb, np.array([[0.0]]))
    np.testing.assert_allclose(g, [[0.0, 0.5]], atol=1e-15)


def test_ghat_groups_same_label():
    X = [[0.0, 0.0], [1.0, 1.0]]
    m = surrogate.fit(X, ["a", "a"], kernels.gaussian(1.0), 0.5)
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    Q = np.array([[0.3, 0.3], [-1.0, 2.0]])
    A = surrogate.alpha_weights_batch(m, Q)
    G = surrogate.explicit_g_hat(A, m.Y, emb)
    assert G.shape == (2, 2)
    np.testing.assert_allclose(G[:, emb.index_of("a")], A.sum(axis=0), atol=1e-15)
    np.testing.assert_array_equal(G[:, emb.index_of("b")], 0.0)


def test_loss_trick_identity():
    # <psi(y), V ghat(x)> == sum_i alpha_i(x) loss(y, y_i) for every label
    rng = np.random.default_rng(6)
    for _ in range(25):
        model, emb, labels = _toy_model(rng)
        Q = rng.normal(size=(3, 2))
        A = surrogate.alpha_weights_batch(model, Q)
        G = surrogate.explicit_g_hat(A, model.Y, emb)
        for q in range(3):
            for y in labels:
                lhs = float(emb.psi(y) @ emb.V @ G[q])
                rhs = _oracles.weighted_objective(y, A[:, q], losses.zero_one, model.Y)
                assert abs(lhs - rhs) <= 1e-10


def test_empirical_risk_interpolation_limit():
    m = surrogate.fit([[0.0]], ["a"], kernels.gaussian(1.0), 1e-12)
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    assert _training_risk(m, emb) <= 1e-10


def test_empirical_risk_contradictory_duplicates():
    # two identical inputs with different labels: ghat(x) = (c, c) with
    # c = 1/(2+2*lambda); risk = (c-1)^2 + c^2 >= 1/2
    lam = 0.25
    X = [[0.7], [0.7]]
    m = surrogate.fit(X, ["a", "b"], kernels.gaussian(1.0), lam)
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    c = 1.0 / (2.0 + 2.0 * lam)
    np.testing.assert_allclose(_ghat_rows(m, emb, m.X), np.full((2, 2), c), atol=1e-12)
    expected = (c - 1.0) ** 2 + c ** 2
    got = _training_risk(m, emb)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got >= 0.5 - 1e-12


def test_empirical_risk_matches_direct_formula():
    # the batch ghat rows against sum_j alpha_j(x_i) psi(y_j), one query and
    # one training point at a time
    rng = np.random.default_rng(7)
    model, emb, _ = _toy_model(rng, n=10)
    direct = 0.0
    for i in range(10):
        a = surrogate.alpha_weights(model, model.X[i]).weights
        g = sum(a[j] * emb.psi(model.Y[j]) for j in range(10))
        e = emb.psi(model.Y[i])
        direct += float((g - e) @ (g - e))
    direct /= 10
    assert _training_risk(model, emb) == pytest.approx(direct, abs=1e-12)


def test_empirical_risk_unknown_label_error():
    m = surrogate.fit([[0.0]], ["z"], kernels.gaussian(1.0), 1.0)
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    with pytest.raises(ValueError):
        _training_risk(m, emb)


def test_output_coefficients_give_ghat_over_the_distinct_outputs():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    Y = ["b", "a", "b", "c"] * 7 + ["a", "a"]
    m = surrogate.fit(X, Y, kernels.gaussian(1.0), 1e-2)
    distinct, C = m.output_coefficients
    assert distinct == ["b", "a", "c"] and C.shape == (30, 3)
    assert m.output_coefficients[1] is C
    emb = losses.build_finite_embedding(losses.ZeroOne(), distinct)
    Q = rng.normal(size=(5, 2))
    np.testing.assert_allclose(
        C.T @ kernels.cross_kernel_batch(m.kernel, X, Q),
        surrogate.explicit_g_hat(surrogate.alpha_weights_batch(m, Q), Y, emb).T,
        rtol=0.0, atol=1e-12)


def test_ghat_rejects_weights_of_the_wrong_shape():
    emb = losses.build_finite_embedding(losses.ZeroOne(), ["a", "b"])
    with pytest.raises(ValueError):
        surrogate.explicit_g_hat(np.ones(2), ["a", "b"], emb)
    with pytest.raises(ValueError):
        surrogate.explicit_g_hat(np.ones((3, 1)), ["a", "b"], emb)


# ---------------------------------------------------------------------------
# Serialization

def test_model_roundtrip_scalar(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(5, 2))
    y = rng.normal(size=5)
    m = surrogate.fit(X, y, kernels.gaussian(0.4), 0.01)
    path = tmp_path / "model.json"
    surrogate.save_model(m, path, "scalar")
    loaded, kind = surrogate.load_model(path)
    assert kind == "scalar"
    assert loaded.lam == m.lam
    np.testing.assert_allclose(loaded.X, m.X)
    np.testing.assert_allclose(loaded.Y, y)
    q = rng.normal(size=2)
    np.testing.assert_allclose(surrogate.alpha_weights(loaded, q).weights,
                               surrogate.alpha_weights(m, q).weights, atol=1e-12)


def test_model_roundtrip_labels_and_ratings(tmp_path):
    rng = np.random.default_rng(9)
    X = rng.normal(size=(4, 2))
    m = surrogate.fit(X, ["a", "b", "a", "c"], kernels.linear(), 0.5)
    surrogate.save_model(m, tmp_path / "m1.json", "label")
    loaded, kind = surrogate.load_model(tmp_path / "m1.json")
    assert kind == "label" and loaded.Y == ["a", "b", "a", "c"]

    # numbers keep their own value and type; NumPy scalars become Python ones
    m3 = surrogate.fit(X, [1.5, np.int64(2), 1.5, 3], kernels.linear(), 0.5)
    surrogate.save_model(m3, tmp_path / "m3.json", "label")
    loaded3, _ = surrogate.load_model(tmp_path / "m3.json")
    assert loaded3.Y == [1.5, 2, 1.5, 3]
    assert [type(y) for y in loaded3.Y] == [float, int, float, int]

    R = rng.integers(1, 6, size=(4, 3)).astype(float)
    m2 = surrogate.fit(X, R, kernels.gaussian(1.0), 0.5)
    surrogate.save_model(m2, tmp_path / "m2.json", "ratings")
    loaded2, kind2 = surrogate.load_model(tmp_path / "m2.json")
    assert kind2 == "ratings"
    np.testing.assert_allclose(loaded2.Y, R)

