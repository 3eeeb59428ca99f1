import json
import tracemalloc

import numpy as np
import pytest

import _oracles
from surrloss import decoders, kernels, losses, surrogate


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
    assert a[0] == pytest.approx(0.5, abs=1e-15)


def test_alpha_large_lambda_shrinks_to_zero():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 2))
    m = surrogate.fit(X, list(range(5)), kernels.gaussian(1.0), 1e6)
    a = surrogate.alpha_weights(m, rng.normal(size=2))
    assert np.max(np.abs(a)) <= 1.0 / (5 * 1e6) + 1e-12


def test_alpha_hand_solved_2x2():
    # linear kernel on x1 = (0, 1), x2 = (1, 2): K = [[1, 2], [2, 5]], and
    # n*lambda = 1; the query (1, .5) has K_x = (.5, 2), so
    # alpha = [[2, 2], [2, 6]]^-1 (.5, 2) = [[6, -2], [-2, 2]] (.5, 2) / 8
    #       = (-1/8, 3/8)
    m = surrogate.fit([[0.0, 1.0], [1.0, 2.0]], ["p", "q"], kernels.linear(), 0.5)
    a = surrogate.alpha_weights(m, [1.0, 0.5])
    np.testing.assert_allclose(a, [-0.125, 0.375], atol=1e-14)


def test_alpha_residual_invariant():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    m = surrogate.fit(X, list(range(30)), kernels.gaussian(0.8), 1e-3)
    K = kernels.gram_matrix(kernels.gaussian(0.8), X)
    for _ in range(20):
        q = rng.normal(size=2)
        kx = kernels.cross_kernel(kernels.gaussian(0.8), X, q)
        a = surrogate.alpha_weights(m, q)
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
    a1 = surrogate.alpha_weights(m1, q)
    a2 = surrogate.alpha_weights(m2, q)
    assert np.array_equal(a1, a2)


def test_alpha_batch_matches_single():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 2))
    m = surrogate.fit(X, list(range(7)), kernels.gaussian(1.0), 0.2)
    Q = rng.normal(size=(4, 2))
    A = surrogate.alpha_weights_batch(m, Q)
    for q in range(4):
        single = surrogate.alpha_weights(m, Q[q])
        np.testing.assert_allclose(A[:, q], single, atol=1e-14)


# ---------------------------------------------------------------------------
# ghat from the cached coefficients and the loss trick

def _toy_model(rng, n=8, n_labels=3, lam=0.1):
    X = rng.normal(size=(n, 2))
    Y = [int(v) for v in rng.integers(0, n_labels, size=n)]
    labels = list(range(n_labels))
    model = surrogate.fit(X, Y, kernels.gaussian(1.0), lam)
    return model, labels


def _one_hot(outputs, labels):
    """Rows psi(y) = e_y in the canonical basis of `labels`."""
    return np.eye(len(labels))[[labels.index(y) for y in outputs]]


def _ghat_rows(model, labels, Xq):
    """(Q, |labels|) rows ghat(x_q) = C^T k_x in the canonical coordinates of
    `labels`, from the model's coefficients over its distinct outputs."""
    distinct, C = model.output_coefficients
    G = (C.T @ kernels.cross_kernel_batch(model.kernel, model.X, Xq)).T
    return G @ _one_hot(distinct, labels)


def _training_risk(model, labels):
    """(1/n) sum_i ||ghat(x_i) - psi(y_i)||^2 from the batch ghat rows."""
    G = _ghat_rows(model, labels, model.X)
    E = _one_hot(model.Y, labels)
    return float(((G - E) ** 2).sum(axis=1).mean())


def test_ghat_single_point():
    m = surrogate.fit([[0.0]], ["b"], kernels.gaussian(1.0), 1.0)
    g = _ghat_rows(m, ["a", "b"], np.array([[0.0]]))
    np.testing.assert_allclose(g, [[0.0, 0.5]], atol=1e-15)


def test_ghat_groups_same_label():
    X = [[0.0, 0.0], [1.0, 1.0]]
    m = surrogate.fit(X, ["a", "a"], kernels.gaussian(1.0), 0.5)
    Q = np.array([[0.3, 0.3], [-1.0, 2.0]])
    A = surrogate.alpha_weights_batch(m, Q)
    G = _ghat_rows(m, ["a", "b"], Q)
    assert G.shape == (2, 2)
    np.testing.assert_allclose(G[:, 0], A.sum(axis=0), atol=1e-15)
    np.testing.assert_array_equal(G[:, 1], 0.0)


def test_loss_trick_identity():
    # sum_u ghat_u(x) loss(y, y_u) over the distinct outputs y_u equals
    # sum_i alpha_i(x) loss(y, y_i) over the training outputs, for every
    # label: the identity the single Exhaustive predict relies on
    rng = np.random.default_rng(6)
    for _ in range(25):
        model, labels = _toy_model(rng)
        distinct, C = model.output_coefficients
        Q = rng.normal(size=(3, 2))
        A = surrogate.alpha_weights_batch(model, Q)
        G = C.T @ kernels.cross_kernel_batch(model.kernel, model.X, Q)
        for q in range(3):
            for y in labels:
                lhs = _oracles.weighted_objective(y, G[:, q], losses.zero_one, distinct)
                rhs = _oracles.weighted_objective(y, A[:, q], losses.zero_one, model.Y)
                assert abs(lhs - rhs) <= 1e-10


def test_empirical_risk_interpolation_limit():
    m = surrogate.fit([[0.0]], ["a"], kernels.gaussian(1.0), 1e-12)
    assert _training_risk(m, ["a", "b"]) <= 1e-10


def test_empirical_risk_contradictory_duplicates():
    # two identical inputs with different labels: ghat(x) = (c, c) with
    # c = 1/(2+2*lambda); risk = (c-1)^2 + c^2 >= 1/2
    lam = 0.25
    X = [[0.7], [0.7]]
    m = surrogate.fit(X, ["a", "b"], kernels.gaussian(1.0), lam)
    c = 1.0 / (2.0 + 2.0 * lam)
    np.testing.assert_allclose(_ghat_rows(m, ["a", "b"], m.X), np.full((2, 2), c), atol=1e-12)
    expected = (c - 1.0) ** 2 + c ** 2
    got = _training_risk(m, ["a", "b"])
    assert got == pytest.approx(expected, abs=1e-10)
    assert got >= 0.5 - 1e-12


def test_empirical_risk_matches_direct_formula():
    # the ghat rows from the coefficients against sum_j alpha_j(x_i) psi(y_j),
    # one query and one training point at a time
    rng = np.random.default_rng(7)
    model, labels = _toy_model(rng, n=10)
    psi = _one_hot(model.Y, labels)
    direct = 0.0
    for i in range(10):
        a = surrogate.alpha_weights(model, model.X[i])
        g = sum(a[j] * psi[j] for j in range(10))
        direct += float((g - psi[i]) @ (g - psi[i]))
    direct /= 10
    assert _training_risk(model, labels) == pytest.approx(direct, abs=1e-12)


def test_output_coefficients_give_ghat_over_the_distinct_outputs():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 2))
    Y = ["b", "a", "b", "c"] * 7 + ["a", "a"]
    m = surrogate.fit(X, Y, kernels.gaussian(1.0), 1e-2)
    distinct, C = m.output_coefficients
    assert distinct == ["b", "a", "c"] and C.shape == (30, 3)
    assert m.output_coefficients[1] is C
    Q = rng.normal(size=(5, 2))
    np.testing.assert_allclose(
        C.T @ kernels.cross_kernel_batch(m.kernel, X, Q),
        _one_hot(Y, distinct).T @ surrogate.alpha_weights_batch(m, Q),
        rtol=0.0, atol=1e-12)


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
    np.testing.assert_allclose(surrogate.alpha_weights(loaded, q),
                               surrogate.alpha_weights(m, q), atol=1e-12)


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



def _count_calls(monkeypatch, *names):
    """Replace each named `kernels` function by a wrapper that appends its
    name to the returned list, then calls it."""
    calls = []
    for name in names:
        def counted(*args, _func=getattr(kernels, name), _name=name, **kwargs):
            calls.append(_name)
            return _func(*args, **kwargs)
        monkeypatch.setattr(kernels, name, counted)
    return calls


def _label_model(seed=20, n=40):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    Y = [f"c{k}" for k in rng.integers(0, 4, size=n)]
    return surrogate.fit(X, Y, kernels.gaussian(2.0), 1e-2), rng.normal(size=(25, 3))


def _predict_labels(model, Q):
    dec = decoders.Exhaustive(sorted(set(model.Y)))
    return [decoders.predict(model, dec, losses.ZeroOne(), x) for x in Q]


def _read_blob(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _write_blob(path, blob):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(blob, f)


def test_label_blob_loads_without_gram_factor_or_solve(tmp_path, monkeypatch):
    m, Q = _label_model()
    surrogate.save_model(m, tmp_path / "m.json", "label")
    calls = _count_calls(monkeypatch, "gram_matrix", "factor_shifted", "solve_spd")
    loaded, kind = surrogate.load_model(tmp_path / "m.json")
    assert kind == "label" and loaded.Y == m.Y
    assert np.array_equal(loaded.X, m.X)
    assert np.array_equal(loaded.output_coefficients[1], m.output_coefficients[1])
    assert _predict_labels(loaded, Q) == _predict_labels(m, Q)
    assert calls == [] and "factor" not in loaded.__dict__


def test_version_1_blob_loads_and_refits(tmp_path, monkeypatch):
    # the version-1 layout: nested-list inputs and outputs, no coefficients
    m, Q = _label_model(seed=21)
    R = np.random.default_rng(21).integers(1, 6, size=(m.n, 3)).astype(float)
    calls = _count_calls(monkeypatch, "factor_shifted")
    for kind, Y in (("label", m.Y), ("ratings", R.tolist())):
        calls.clear()
        _write_blob(tmp_path / "v1.json", {
            "format": "surrloss-model", "version": 1,
            "kernel": {"kind": "gaussian", "sigma": 2.0}, "lambda": 1e-2,
            "x": m.X.tolist(), "y": {"kind": kind, "values": Y}})
        loaded, got_kind = surrogate.load_model(tmp_path / "v1.json")
        assert got_kind == kind and calls == []
        np.testing.assert_array_equal(loaded.X, m.X)
        if kind == "label":
            assert _predict_labels(loaded, Q) == _predict_labels(m, Q)
        else:
            np.testing.assert_array_equal(loaded.Y, R)
            np.testing.assert_array_equal(surrogate.alpha_weights_batch(loaded, Q),
                                          surrogate.alpha_weights_batch(m, Q))
        assert calls == ["factor_shifted"]


@pytest.mark.parametrize("edit", ["lambda", "x", "coefficient_shape", "coefficient_nan"])
def test_blob_with_mismatched_coefficients_is_refit(tmp_path, edit):
    m, Q = _label_model(seed=22)
    surrogate.save_model(m, tmp_path / "m.json", "label")
    blob = _read_blob(tmp_path / "m.json")
    X, lam = m.X.copy(), m.lam
    C = m.output_coefficients[1].copy()
    if edit == "lambda":  # the checksum is left stale
        lam = blob["lambda"] = 4 * m.lam
    elif edit == "x":
        X[3, 1] += 0.5
        blob["x"] = surrogate._array_to_json(X)
    elif edit == "coefficient_shape":  # the checksum still matches
        blob["coefficients"] = surrogate._array_to_json(C[:, 1:])
    else:
        C[5, 0] = np.nan
        blob["coefficients"] = surrogate._array_to_json(C)
    _write_blob(tmp_path / "m.json", blob)
    loaded, _ = surrogate.load_model(tmp_path / "m.json")
    assert "output_coefficients" not in loaded.__dict__
    fresh = surrogate.fit(X, m.Y, m.kernel, lam)
    assert np.array_equal(loaded.output_coefficients[1], fresh.output_coefficients[1])
    assert _predict_labels(loaded, Q) == _predict_labels(fresh, Q)


@pytest.mark.parametrize("kind", ["scalar", "simplex", "ratings"])
def test_numeric_blobs_round_trip_through_the_lazy_factor(tmp_path, monkeypatch, kind):
    rng = np.random.default_rng(23)
    X = rng.normal(size=(30, 2))
    Y = {"scalar": rng.normal(size=30),
         "simplex": rng.dirichlet(np.ones(4), size=30),
         "ratings": rng.integers(1, 6, size=(30, 3)).astype(float)}[kind]
    m = surrogate.fit(X, Y, kernels.gaussian(0.7), 1e-2)
    surrogate.save_model(m, tmp_path / "m.json", kind)
    blob = _read_blob(tmp_path / "m.json")
    assert "coefficients" not in blob and blob["y"]["values"]["shape"] == list(Y.shape)
    calls = _count_calls(monkeypatch, "gram_matrix", "factor_shifted")
    loaded, got_kind = surrogate.load_model(tmp_path / "m.json")
    assert got_kind == kind and calls == []
    np.testing.assert_array_equal(loaded.X, X)
    np.testing.assert_array_equal(loaded.Y, Y)
    Q = rng.normal(size=(7, 2))
    np.testing.assert_array_equal(surrogate.alpha_weights_batch(loaded, Q),
                                  surrogate.alpha_weights_batch(m, Q))
    assert calls == ["gram_matrix", "factor_shifted"]


@pytest.mark.parametrize("field, value, message", [
    ("version", 0, "unsupported model version"), ("version", 3, "unsupported model version"),
    ("version", None, "unsupported model version"), ("kind", "foo", "unknown output kind")])
def test_unknown_blob_version_or_output_kind_is_rejected(tmp_path, field, value, message):
    m, _ = _label_model(seed=24, n=5)
    surrogate.save_model(m, tmp_path / "m.json", "label")
    blob = _read_blob(tmp_path / "m.json")
    (blob if field == "version" else blob["y"])[field] = value
    _write_blob(tmp_path / "m.json", blob)
    with pytest.raises(ValueError, match=message):
        surrogate.load_model(tmp_path / "m.json")


@pytest.mark.parametrize("field, edit", [
    ("kernel", "delete"), ("kernel", "gaussian"), ("kernel", {"kind": "gaussian"}),
    ("lambda", "delete"), ("lambda", "small"), ("x", "delete"), ("x", "nested"),
    ("x", {"shape": [3, 2], "f8": ""}), ("y", "delete"), ("y", {"kind": "label"}),
    ("coefficients", [[0.5]])])
def test_a_missing_or_malformed_blob_field_is_one_value_error_naming_it(tmp_path, field,
                                                                         edit):
    m, _ = _label_model(seed=26, n=6)
    surrogate.save_model(m, tmp_path / "m.json", "label")
    blob = _read_blob(tmp_path / "m.json")
    if edit == "delete":
        del blob[field]
    elif edit == "nested":
        blob[field] = m.X.tolist()
    else:
        blob[field] = edit
    _write_blob(tmp_path / "m.json", blob)
    with pytest.raises(ValueError, match=f"model blob field {field!r}"):
        surrogate.load_model(tmp_path / "m.json")


@pytest.mark.parametrize("kind, fault, message", [
    ("scalar", np.nan, "row 3 has non-finite entries"),
    ("ratings", np.inf, "row 3 has non-finite entries"),
    ("simplex", [1.25, -0.25, 0.0], "training histograms row 3 has negative entries")])
def test_outputs_no_decoder_can_use_are_rejected(tmp_path, kind, fault, message):
    # fit rejects non-finite numbers; a blob, which carries its output kind,
    # also rejects a histogram off the simplex
    rng = np.random.default_rng(27)
    X = rng.normal(size=(6, 2))
    Y = {"scalar": rng.normal(size=6), "ratings": rng.integers(1, 6, size=(6, 3)) * 1.0,
         "simplex": rng.dirichlet(np.ones(3), size=6)}[kind]
    surrogate.save_model(surrogate.fit(X, Y, kernels.linear(), 0.5), tmp_path / "m.json", kind)
    bad = Y.copy()
    bad[3] = fault
    if kind != "simplex":
        with pytest.raises(ValueError, match=message):
            surrogate.fit(X, bad, kernels.linear(), 0.5)
    blob = _read_blob(tmp_path / "m.json")
    blob["y"]["values"] = surrogate._array_to_json(bad)
    _write_blob(tmp_path / "m.json", blob)
    with pytest.raises(ValueError, match=message):
        surrogate.load_model(tmp_path / "m.json")


def test_binary_array_rejects_a_payload_of_the_wrong_size():
    obj = surrogate._array_to_json(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(surrogate._array_from_json(obj, 2), np.arange(6.0).reshape(2, 3))
    obj["shape"] = [2, 4]
    with pytest.raises(ValueError):
        surrogate._array_from_json(obj, 2)
    obj["shape"] = "23"
    with pytest.raises(TypeError):
        surrogate._array_from_json(obj, 2)


def test_batch_weights_on_a_loaded_model_factor_before_the_cross_kernel(tmp_path, monkeypatch):
    # Peak memory depends on this order.  Built after the (n, Q)
    # cross-kernel, the factor's Gram, shifted copy and Cholesky factor
    # have it alive at their peak: the label-serve benchmark (n = 1000,
    # Q = 300, seeds 11-13) read peak RSS 69.4-69.5 MB that way against
    # 67.0-67.2 MB factor first, about the 2.4 MB of the cross-kernel.
    m, Q = _label_model(seed=25)
    surrogate.save_model(m, tmp_path / "m.json", "label")
    loaded, _ = surrogate.load_model(tmp_path / "m.json")
    calls = _count_calls(monkeypatch, "factor_shifted", "cross_kernel_batch", "cross_kernel")
    surrogate.alpha_weights_batch(loaded, Q)
    assert calls == ["factor_shifted", "cross_kernel_batch"]
    other, _ = surrogate.load_model(tmp_path / "m.json")
    calls.clear()
    surrogate.alpha_weights(other, Q[0])
    assert calls == ["factor_shifted", "cross_kernel"]
