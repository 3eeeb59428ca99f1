"""`model_selection.cross_validate` on its own, against a brute-force sweep.

The oracle (`_oracles.brute_force_cross_validate`) builds its own Gaussian
kernel, solves each (sigma, lambda, fold) with a dense `np.linalg.solve`,
decodes with its own scans and selects with its own tie rule.  Predictions
are grid points or labels, so where both sides decode the same values the
means agree up to summation order: every row mean must match to a relative
1e-12, and the selection exactly.
"""

import numpy as np
import pytest

import _oracles
from surrloss import decoders, experiments, kernels, losses, model_selection

SIGMAS = (0.3, 1.0, 4.0)
LAMBDAS = (1e-3, 1e-2, 1e-1)
FOLDS = 3
MEAN_RTOL = 1e-12


def _splits(n, seed, folds=FOLDS):
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, va), va)
            for va in model_selection.kfold_split(n, folds, seed)]


def _grid(seed):
    """(kernel grid, lambdas, folds, seed) of the Gaussian sweeps below."""
    return tuple(kernels.gaussian(s) for s in SIGMAS), LAMBDAS, FOLDS, seed


def _assert_report_matches(report, rows, selected):
    assert [(r.kernel.sigma, r.lam) for r in report.rows] == [(s, l) for s, l, _ in rows]
    for got, (_, _, want) in zip(report.rows, rows):
        assert got.mean == pytest.approx(want, rel=MEAN_RTOL, abs=0.0)
    assert (report.selected.kernel.sigma, report.selected.lam) == selected


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_labels_match_a_brute_force_sweep(seed):
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(24, 2))
    cls = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5).astype(int)
    noisy = rng.uniform(size=24) < 0.2
    cls[noisy] = rng.integers(0, 3, size=int(noisy.sum()))
    Y = [str(v) for v in np.array(["a", "b", "c"])[cls]]
    cands = sorted(set(Y))
    loss = losses.ZeroOne()

    def decode(A, tr):
        Ytr = [Y[i] for i in tr]
        return [cands[_oracles.scan_minimum(cands, A[:, q], loss, Ytr)[0]]
                for q in range(A.shape[1])]

    def score(preds, va):
        return np.mean([float(p != Y[i]) for p, i in zip(preds, va)])

    rows, selected = _oracles.brute_force_cross_validate(X, SIGMAS, LAMBDAS,
                                                         _splits(len(Y), seed), decode, score)
    report = model_selection.cross_validate(X, Y, *_grid(seed), decoders.Exhaustive(cands),
                                            loss, losses.ZeroOne())
    _assert_report_matches(report, rows, selected)


def test_cross_validate_scores_labels_by_the_identity_the_decoder_groups_them_by():
    # [0] and (0,) are one label to the decoder and to the scoring, so folds
    # that the decoder gets right score 0 whichever form each truth takes
    rng = np.random.default_rng(7)
    cls = np.repeat([0, 1], 6)
    X = (4.0 * cls - 2.0)[:, None] + 0.1 * rng.normal(size=(12, 1))
    Y = [[c] if i % 2 else (c,) for i, c in enumerate(cls.tolist())]
    report = model_selection.cross_validate(X, Y, [kernels.gaussian(1.0)], [0.01], FOLDS, 0,
                                            decoders.Exhaustive([[0], [1]]), losses.ZeroOne(),
                                            losses.ZeroOne())
    assert [row.mean for row in report.rows] == [0.0]


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_scalar_targets_match_a_brute_force_sweep(seed):
    # refine_iters=0 makes the decode a plain scan of the uniform grid, which
    # the oracle repeats with its own Cauchy objective (np.log, not log1p)
    rng = np.random.default_rng(200 + seed)
    X = rng.uniform(-1.0, 1.0, size=(24, 1))
    y = np.sin(3.0 * X[:, 0]) + 0.2 * rng.standard_cauchy(24).clip(-5.0, 5.0)
    spec = decoders.ScalarGrid(bound=3.0, grid_points=201, refine_iters=0)
    gamma = 0.5

    def decode(A, tr):
        return np.array([_oracles.dense_grid_min(A[:, q], y[tr], losses.Cauchy(gamma),
                                                 spec.bound, spec.grid_points)[0]
                         for q in range(A.shape[1])])

    def score(preds, va):
        return np.mean(np.abs(preds - y[va]))

    rows, selected = _oracles.brute_force_cross_validate(X, SIGMAS, LAMBDAS,
                                                         _splits(y.size, seed), decode, score)
    report = model_selection.cross_validate(X, y, *_grid(seed), spec, losses.Cauchy(gamma),
                                            losses.AbsoluteError())
    _assert_report_matches(report, rows, selected)


@pytest.mark.parametrize("seed", range(4))
def test_cross_validate_on_a_rank_deficient_gram_matches_a_brute_force_sweep(seed):
    # A linear kernel on d = 4 inputs gives a Gram matrix of rank 4 on 64
    # training points, which the sweep's spectral path never forms: it reads
    # the thin SVD of the inputs.  Both sides decode with the library's
    # ranking decoder, so the comparison is between the held-out weights.
    U, R = experiments.gen_ranking_data(8, 80, seed)
    lambdas = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

    def score(A, tr, va):
        return np.mean([losses.rank_loss(decoders.decode_ranking_fas(A[:, q:q + 1], R[tr], 8)[0],
                                         R[i], normalize=True)
                        for q, i in enumerate(va)])

    means = _oracles.brute_force_cv_means(U, (None,), lambdas, _splits(80, seed, folds=5),
                                          score, kernel_matrix=lambda A, B, _: A @ B.T)[0]
    report = model_selection.cross_validate(U, R, (kernels.linear(),), lambdas, 5, seed,
                                            decoders.RankingFas(items=8),
                                            losses.RankLoss(normalize=False),
                                            losses.RankLoss(normalize=True))
    for row, want in zip(report.rows, means):
        assert row.mean == pytest.approx(want, rel=MEAN_RTOL, abs=0.0)
    assert report.selected.lam == _oracles.lowest_mean_then_larger_lambda(
        zip(means, lambdas, lambdas))


def _refuse(*args, **kwargs):
    raise AssertionError("an n x n Gram or its eigh in a linear sweep")


def test_a_linear_cross_validate_builds_no_gram(monkeypatch):
    U, R = experiments.gen_ranking_data(8, 80, 0)
    args = (U, R, (kernels.linear(),), (1e-3, 1e-1), 5, 0, decoders.RankingFas(items=8),
            losses.RankLoss(normalize=False), losses.RankLoss(normalize=True))
    want = model_selection.cross_validate(*args)
    monkeypatch.setattr(kernels, "gram_matrix", _refuse)
    monkeypatch.setattr(np.linalg, "eigh", _refuse)
    assert model_selection.cross_validate(*args) == want


def test_a_gaussian_sweep_takes_one_eigh_per_kernel(monkeypatch):
    # every fold's weights come from one spectrum of the full Gram, so no
    # fold builds a Gram, a cross-kernel or a spectrum of its own
    calls = []
    eigh, gram = np.linalg.eigh, kernels.gram_matrix

    def counting_eigh(K):
        calls.append(("eigh", K.shape))
        return eigh(K)

    def counting_gram(spec, X):
        calls.append(("gram", np.shape(X)))
        return gram(spec, X)

    def refuse(*args, **kwargs):
        raise AssertionError("a cross-kernel in a Gaussian sweep")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(kernels, "gram_matrix", counting_gram)
    monkeypatch.setattr(kernels, "cross_kernel_batch", refuse)
    X = np.random.default_rng(9).normal(size=(17, 2))
    model_selection.sweep(X, [kernels.gaussian(sig) for sig in SIGMAS], LAMBDAS, FOLDS, 3,
                          lambda tr, cols, A: np.zeros(A.shape[1]))
    assert calls == [("gram", (17, 2)), ("eigh", (17, 17))] * len(SIGMAS)


def test_sweep_scores_a_folds_whole_lambda_path_in_one_call():
    # one score call per fold, on the fold's S * L * n_va columns: the
    # validation indices tiled once per (kernel, lambda), kernel-major, each
    # kernel's block of each lambda the dense solve's weights
    rng = np.random.default_rng(7)
    X = rng.normal(size=(17, 2))
    calls = []

    def score(tr, cols, A):
        calls.append((tr, cols, A.copy()))  # the next fold overwrites A
        return np.arange(A.shape[1], dtype=float)

    s = model_selection.sweep(X, [kernels.gaussian(sig) for sig in SIGMAS], LAMBDAS, FOLDS,
                              3, score)
    assert s.shape == (len(SIGMAS), len(LAMBDAS), FOLDS, 1)
    splits = _splits(17, 3)
    assert len(calls) == FOLDS
    assert len({va.size for _, va in splits}) == 2  # folds of two sizes share the buffer
    for fi, (tr, cols, A) in enumerate(calls):
        want_tr, va = splits[fi]
        np.testing.assert_array_equal(tr, want_tr)
        np.testing.assert_array_equal(cols, np.tile(va, len(SIGMAS) * len(LAMBDAS)))
        assert A.shape == (tr.size, len(SIGMAS) * len(LAMBDAS) * va.size)
        for si, sigma in enumerate(SIGMAS):
            K = _oracles.gaussian_kernel_matrix(X[tr], X[tr], sigma)
            Kx = _oracles.gaussian_kernel_matrix(X[tr], X[va], sigma)
            for li, lam in enumerate(LAMBDAS):
                ref = np.linalg.solve(K + tr.size * lam * np.eye(tr.size), Kx)
                first = (si * len(LAMBDAS) + li) * va.size
                block = A[:, first:first + va.size]
                assert np.max(np.abs(block - ref)) <= 1e-9 * np.max(np.abs(ref)), (sigma, lam)
                # each (kernel, lambda) fold score is the mean over its own columns
                assert s[si, li, fi, 0] == np.mean(
                    np.arange(first, first + va.size, dtype=float))


@pytest.mark.parametrize("kernel_grid", [
    [kernels.linear()], [kernels.linear()] + [kernels.gaussian(s) for s in SIGMAS]],
    ids=["S=1", "S=4"])
def test_every_folds_block_is_a_view_of_one_buffer(monkeypatch, kernel_grid):
    # each kernel's weights are written straight into its slice of the
    # block the scorer gets, a view of one buffer sized for the largest fold
    written, scored = [], []
    fold_weights = kernels.fold_weights

    def recording(spec, spectrum, X, tr, va, lambdas, out):
        written.append(out)
        fold_weights(spec, spectrum, X, tr, va, lambdas, out)

    def score(tr, cols, A):
        scored.append(A)
        return np.zeros(A.shape[1])

    monkeypatch.setattr(kernels, "fold_weights", recording)
    X = np.random.default_rng(7).normal(size=(17, 2))
    model_selection.sweep(X, kernel_grid, LAMBDAS, FOLDS, 3, score)
    S = len(kernel_grid)
    assert len(scored) == FOLDS and len(written) == S * FOLDS
    buf = scored[0].base
    assert buf.ndim == 1 and buf.size == S * len(LAMBDAS) * max(
        tr.size * va.size for tr, va in _splits(17, 3))
    for fi, A in enumerate(scored):
        assert A.base is buf
        for si, out in enumerate(written[fi * S:(fi + 1) * S]):
            assert out.base is buf
            np.testing.assert_array_equal(
                out, A.reshape(A.shape[0], S, len(LAMBDAS), -1)[:, si])


def test_a_failing_decoder_names_its_kernel_and_fold(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("decoder broke")

    monkeypatch.setattr(decoders, "decode_batch", fail)
    X = np.random.default_rng(8).normal(size=(12, 2))
    Y = ["a", "b"] * 6
    with pytest.raises(RuntimeError) as info:
        model_selection.cross_validate(X, Y, *_grid(0), decoders.Exhaustive(["a", "b"]),
                                       losses.ZeroOne(), losses.ZeroOne())
    # the one decode of fold 0 covers every kernel of the grid
    message = str(info.value)
    grid = [kernels.gaussian(s) for s in SIGMAS]
    assert message == f"cv failure at fold=0, kernels={grid}: decoder broke"
    assert "lambda=" not in message
    assert isinstance(info.value.__cause__, ValueError)
    assert str(info.value.__cause__) == "decoder broke"


def test_a_failing_spectrum_names_its_kernel(monkeypatch):
    # the one spectrum of a Gaussian kernel is taken before its first fold
    def fail(K):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    X = np.random.default_rng(8).normal(size=(12, 2))
    with pytest.raises(RuntimeError) as info:
        model_selection.sweep(X, [kernels.gaussian(SIGMAS[1])], LAMBDAS, FOLDS, 0,
                              lambda tr, cols, A: np.zeros(A.shape[1]))
    assert str(info.value) == (f"cv failure at kernel={kernels.gaussian(SIGMAS[1])}, fold=0: "
                               "eigh did not converge")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_a_failing_spectrum_in_a_grid_names_its_kernel(monkeypatch):
    # the sweep takes each kernel's spectrum as it opens its path, in grid order
    eigh, calls = np.linalg.eigh, []

    def fail_second(K):
        calls.append(K.shape)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("eigh did not converge")
        return eigh(K)

    monkeypatch.setattr(np.linalg, "eigh", fail_second)
    X = np.random.default_rng(8).normal(size=(12, 2))
    with pytest.raises(RuntimeError) as info:
        model_selection.sweep(X, [kernels.gaussian(s) for s in SIGMAS], LAMBDAS, FOLDS, 0,
                              lambda tr, cols, A: np.zeros(A.shape[1]))
    assert str(info.value) == (f"cv failure at kernel={kernels.gaussian(SIGMAS[1])}, fold=0: "
                               "eigh did not converge")
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def _refuse_fold(*args):
    raise AssertionError("a fold was solved or scored")


GAUSS = (kernels.gaussian(1.0),)
X12 = np.random.default_rng(8).normal(size=(12, 2))
LINEAR = (kernels.linear(),)
SPECTRUM = (np.ones(12), np.eye(12))  # the shape of a Gaussian kernel's on X12


@pytest.mark.parametrize("X, kernel_grid, lambdas, folds, spectra, match", [
    (X12, (), LAMBDAS, FOLDS, None, "kernel grid must be non-empty"),
    (X12, GAUSS, (), FOLDS, None, "lambdas must be a non-empty list"),
    (X12, GAUSS, (1e-2, np.inf), FOLDS, None, "lambdas must be a non-empty list"),
    (X12, GAUSS, (0.0,), FOLDS, None, "lambdas must be a non-empty list"),
    (X12, GAUSS, (-1.0,), FOLDS, None, "lambdas must be a non-empty list"),
    (X12, GAUSS, (np.nan,), FOLDS, None, "lambdas must be a non-empty list"),
    (X12, GAUSS, LAMBDAS, 1, None, "need 2 <= k <= n"),
    (X12, GAUSS, LAMBDAS, 13, None, "need 2 <= k <= n"),
    (np.ones((0, 2)), GAUSS, LAMBDAS, FOLDS, None, "X must be a non-empty list"),
    (np.ones((12, 2, 1)), GAUSS, LAMBDAS, FOLDS, None, "X must be a non-empty list"),
    (np.vstack([X12[:-1], [[0.0, np.nan]]]), GAUSS, LAMBDAS, FOLDS, None, "non-finite"),
    (X12, GAUSS, LAMBDAS, FOLDS, [], "one spectrum per kernel"),
    (X12, GAUSS, LAMBDAS, FOLDS, [SPECTRUM, SPECTRUM], "one spectrum per kernel"),
    (X12, GAUSS, LAMBDAS, FOLDS, [None], "an \\(evals, U\\) pair with 12 rows"),
    (X12, LINEAR, LAMBDAS, FOLDS, [SPECTRUM], "must be None"),
    (X12, GAUSS, LAMBDAS, FOLDS, [(np.ones(11), np.eye(11))], "with 12 rows in U"),
    (X12, GAUSS, LAMBDAS, FOLDS, [np.eye(12)], "with 12 rows in U"),
    (X12, GAUSS, LAMBDAS, FOLDS, [(np.ones(12), np.ones(12))], "with 12 rows in U"),
], ids=["no-kernel", "no-lambda", "inf-lambda", "zero-lambda", "negative-lambda",
        "nan-lambda", "one-fold", "13-folds", "empty-X", "3-d-X", "nan-X", "no-spectrum",
        "two-spectra", "gaussian-none", "linear-spectrum", "11-row-U", "not-a-pair",
        "1-d-U"])
def test_sweep_rejects_a_bad_grid_before_any_fold(monkeypatch, X, kernel_grid, lambdas, folds,
                                                  spectra, match):
    # one ValueError from the sweep itself, not a RuntimeError from a fold
    monkeypatch.setattr(kernels, "fold_spectrum", _refuse_fold)
    monkeypatch.setattr(kernels, "fold_weights", _refuse_fold)
    with pytest.raises(ValueError, match=match):
        model_selection.sweep(X, kernel_grid, lambdas, folds, 0, _refuse_fold, spectra)


@pytest.mark.parametrize("empty", ["kernels", "lambdas"])
def test_every_cv_caller_rejects_an_empty_grid(empty):
    # cross_validate, the robust CV and the histogram CV all reach the
    # sweep's check; none fails later on an empty array
    X, y = experiments.gen_robust_data(20, 0)
    Xh, Yh = experiments.gen_histogram_data(3, 20, 0)
    sigmas, lambdas = ((), LAMBDAS) if empty == "kernels" else (SIGMAS, ())
    grid = tuple(kernels.gaussian(s) for s in sigmas)
    calls = [
        lambda: model_selection.cross_validate(X, y, grid, lambdas, FOLDS, 0,
                                               decoders.ScalarGrid(bound=3.0),
                                               losses.Cauchy(1.0), losses.AbsoluteError()),
        lambda: experiments._robust_cv(X, y, sigmas, lambdas, (1.0,), FOLDS, 0),
        lambda: experiments._histogram_cv(Xh, Yh, sigmas, lambdas, FOLDS, 0, 1.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-empty"):
            call()
