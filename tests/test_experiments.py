"""The experiments' CV sweeps against a brute-force dense-solve sweep."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import _oracles
from surrloss import (decoders, experiments, kernels, losses, model_selection,
                      surrogate)

FOLDS = 3


def _splits(n, seed):
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, va), va)
            for va in model_selection.kfold_split(n, FOLDS, seed)]


def _robust_selection_by_brute_force(X, y, seed):
    sigmas, lambdas, gammas = (experiments.ROBUST_SIGMAS, experiments.ROBUST_LAMBDAS,
                               experiments.ROBUST_GAMMAS)

    def score(A, tr, va):
        alg = [np.mean(np.abs(decoders.decode_scalar_grid_batch(
                   A, y[tr], losses.Cauchy(g), experiments.CV_DECODER)[0] - y[va]))
               for g in gammas]
        return alg + [np.mean((y[tr] @ A - y[va]) ** 2)]

    means = _oracles.brute_force_cv_means(X, sigmas, lambdas, _splits(y.size, seed),
                                          score)
    alg = _oracles.lowest_mean_then_larger_lambda(
        (means[si, li, gi], lam, (sigma, lam, gamma))
        for gi, gamma in enumerate(gammas)
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    krr = _oracles.lowest_mean_then_larger_lambda(
        (means[si, li, -1], lam, (sigma, lam))
        for si, sigma in enumerate(sigmas)
        for li, lam in enumerate(lambdas))
    return alg, krr


@pytest.mark.parametrize("seed", range(10))
def test_robust_cv_selects_what_a_dense_solve_sweep_selects(seed):
    X, y = experiments.gen_robust_data(30, seed)
    (kernel, lam, gamma), (k_kernel, k_lam) = experiments._robust_cv(
        X, y, experiments.ROBUST_SIGMAS, experiments.ROBUST_LAMBDAS,
        experiments.ROBUST_GAMMAS, FOLDS, seed)
    alg, krr = _robust_selection_by_brute_force(X, y, seed)
    assert (kernel.sigma, lam, gamma) == alg
    assert (k_kernel.sigma, k_lam) == krr


HIST_SIGMAS = experiments.HISTOGRAM_SIGMAS
HIST_LAMBDAS = experiments.HISTOGRAM_LAMBDAS


@pytest.mark.parametrize("seed", range(10))
def test_histogram_cv_selects_what_a_dense_solve_sweep_selects(seed):
    X, Y = experiments.gen_histogram_data(4, 30, seed)
    sigma_y = experiments.median_sq_dist(Y)
    selected = experiments._histogram_cv(X, Y, HIST_SIGMAS, HIST_LAMBDAS, FOLDS, seed,
                                         sigma_y)

    def score(A, tr, va):
        hell = decoders.decode_simplex_hellinger_batch(A, Y[tr])
        kde = experiments._kde_decode_batch(A, Y[tr], sigma_y)
        return [np.mean(losses.squared_hellinger(hell, Y[va])),
                np.mean(experiments._gauss_loss_rows(kde, Y[va], sigma_y))]

    means = _oracles.brute_force_cv_means(X, HIST_SIGMAS, HIST_LAMBDAS,
                                          _splits(len(Y), seed), score)
    for mi, method in enumerate(("hellinger", "kde")):
        expected = _oracles.lowest_mean_then_larger_lambda(
            (means[si, li, mi], lam, (sigma, lam))
            for si, sigma in enumerate(HIST_SIGMAS)
            for li, lam in enumerate(HIST_LAMBDAS))
        assert selected[method] == expected


def test_cv_sweeps_use_neither_cholesky_nor_triangular_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a CV sweep called a per-lambda factorization")

    monkeypatch.setattr(kernels, "factor_shifted", refuse)
    monkeypatch.setattr(kernels, "solve_spd", refuse)
    X, y = experiments.gen_robust_data(30, 0)
    experiments._robust_cv(X, y, experiments.ROBUST_SIGMAS,
                           experiments.ROBUST_LAMBDAS, experiments.ROBUST_GAMMAS,
                           FOLDS, 0)
    X, Y = experiments.gen_histogram_data(4, 30, 0)
    selected = experiments._histogram_cv(X, Y, HIST_SIGMAS, HIST_LAMBDAS, FOLDS, 0,
                                         experiments.median_sq_dist(Y))
    assert set(selected) == {"hellinger", "kde"}
    U, R = experiments.gen_ranking_data(5, 30, 0)
    report = model_selection.cross_validate(U, R, (kernels.linear(),), HIST_LAMBDAS, FOLDS, 0,
                                            decoders.RankingFas(items=5),
                                            losses.RankLoss(normalize=False),
                                            losses.RankLoss(normalize=True))
    assert len(report.rows) == len(HIST_LAMBDAS)


def test_select_best_prefers_lowest_mean_then_larger_lambda_then_order():
    points = [(0.5, 1e-2, "a"), (0.2, 1e-3, "b"), (0.2, 1e-1, "c"), (0.2, 1e-1, "d"),
              (0.3, 1.0, "e")]
    assert model_selection.select_best(points) == "c"
    assert model_selection.select_best(points) == _oracles.lowest_mean_then_larger_lambda(points)


def _best_sort_by_scan(profiles):
    """First profile sort of least mean normalized rank loss, by a strict-<
    scan over per-pair `losses.rank_loss` calls."""
    best, best_val = None, np.inf
    for t in range(profiles.shape[0]):
        ranks = _oracles.descending_sort_ranks(profiles[t])
        val = np.mean([losses.rank_loss(ranks, pr, normalize=True) for pr in profiles])
        if val < best_val:
            best, best_val = ranks, val
    return best


def test_best_training_sort_matches_a_per_pair_scan():
    rng = np.random.default_rng(50)
    for _ in range(40):
        m = int(rng.integers(2, 9))
        profiles = rng.integers(1, 6, size=(int(rng.integers(1, 30)), m)).astype(float)
        np.testing.assert_array_equal(experiments._best_training_sort(profiles),
                                      _best_sort_by_scan(profiles))


def test_best_training_sort_ties_go_to_the_first_profile():
    # Opposite profiles: each sort inverts every pair of the other profile, so
    # both distinct sorts have mean normalized loss 1/2.
    profiles = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    np.testing.assert_array_equal(experiments._best_training_sort(profiles), [3, 2, 1])
    np.testing.assert_array_equal(experiments._best_training_sort(profiles[::-1]), [1, 2, 3])


def test_experiment_result_mean_and_std_are_those_of_its_per_seed_values():
    r = experiments.ExperimentResult("m", 5, [1, 2, 3], 0.0, [0.25, 0.75, 0.5])
    assert r.metric_mean == float(np.mean([0.25, 0.75, 0.5])) == 0.5
    assert r.metric_std == float(np.std([0.25, 0.75, 0.5]))


@pytest.mark.parametrize("repetitions", [2, 3])
def test_each_runner_reports_its_methods_sizes_and_seeds(repetitions):
    # one row per (n, method) in a fixed order; n is n_train where the runner
    # has one size; every n's methods share its seeds and its wall time
    seed0, reps = 5, range(repetitions)
    runs = {
        "robust": experiments.run_robust_experiment(
            n_grid=(20, 30), repetitions=repetitions, seed0=seed0),
        "ranking": experiments.run_ranking_experiment(
            items=4, n_train=20, n_test=6, repetitions=repetitions, seed0=seed0),
        "histogram": experiments.run_histogram_experiment(
            dim=3, n_train=20, n_test=6, repetitions=repetitions, seed0=seed0),
    }
    expected = {
        "robust": [(m, n, [seed0 + 100_003 * rep + n for rep in reps])
                   for n in (20, 30) for m in ("alg1_cauchy", "krr")],
        "ranking": [(m, 20, [seed0 + 7919 * rep for rep in reps])
                    for m in ("alg1_fas", "best_train_sort")],
        "histogram": [(m, 20, [seed0 + 104_729 * rep for rep in reps])
                      for m in ("alg1_hellinger:dH", "alg1_hellinger:dG",
                                "kde_gaussian:dH", "kde_gaussian:dG")],
    }
    for which, rows in runs.items():
        assert [(r.method, r.n, r.seeds) for r in rows] == expected[which], which
        for r in rows:
            assert len(r.per_seed) == repetitions and np.all(np.isfinite(r.per_seed))
            assert r.wall_time == next(s.wall_time for s in rows if s.n == r.n)


def test_robust_cv_builds_one_cauchy_table_per_fold_and_gamma(monkeypatch):
    # each fold decodes its whole (sigma, lambda) grid in one call per gamma,
    # and each call builds its grid's loss table once: the table depends
    # only on the fold's training outputs, not on sigma
    tables = []
    original = decoders._loss_matrix

    def counted(points, y_train, loss):
        tables.append(loss)
        return original(points, y_train, loss)

    monkeypatch.setattr(decoders, "_loss_matrix", counted)
    X, y = experiments.gen_robust_data(30, 0)
    experiments._robust_cv(X, y, experiments.ROBUST_SIGMAS,
                           experiments.ROBUST_LAMBDAS, experiments.ROBUST_GAMMAS,
                           FOLDS, 0)
    assert all(isinstance(loss, losses.Cauchy) for loss in tables)
    assert [loss.gamma for loss in tables] == list(experiments.ROBUST_GAMMAS) * FOLDS


def test_histogram_cv_decodes_each_fold_once(monkeypatch):
    # the KDE output Gram and the simplex decode depend only on the fold's
    # training outputs, so each runs once per fold over every (sigma, lambda)
    kde = _count_calls(monkeypatch, experiments, "_kde_decode_batch")
    simplex = _count_calls(monkeypatch, decoders, "decode_simplex_hellinger_batch")
    X, Y = experiments.gen_histogram_data(4, 30, 0)
    experiments._histogram_cv(X, Y, HIST_SIGMAS, HIST_LAMBDAS, FOLDS, 0,
                              experiments.median_sq_dist(Y))
    assert len(kde) == len(simplex) == FOLDS
    for (A, Ytr, _), (A2, Ytr2) in zip(kde, simplex):
        assert A is A2 and Ytr.shape[0] == A.shape[0]
        assert A.shape[1] == len(HIST_SIGMAS) * len(HIST_LAMBDAS) * (30 - Ytr.shape[0])


def _traced_peak(f):
    """f() and the tracemalloc peak, in bytes, of its allocations."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_robust_cv_peak_stays_under_the_trials_final_fit_and_decode():
    # The fold-major sweep keeps every sigma's spectrum alive and decodes a
    # fold's whole grid at once; at the experiment's n = 300 that may not
    # raise the trial's peak, which its final fit and decode sets.
    X, y = experiments.gen_robust_data(300, 0)
    (selected, _), cv_peak = _traced_peak(lambda: experiments._robust_cv(
        X, y, experiments.ROBUST_SIGMAS, experiments.ROBUST_LAMBDAS,
        experiments.ROBUST_GAMMAS, experiments.FOLDS, 0))
    kernel, lam, gamma = selected
    x_test = np.linspace(-1.0, 1.0, experiments.ROBUST_TEST_POINTS)[:, None]
    _, final_peak = _traced_peak(lambda: decoders.predict_batch(
        surrogate.fit(X, y, kernel, lam), experiments.ROBUST_DECODER, losses.Cauchy(gamma),
        x_test))
    assert cv_peak <= final_peak


def test_a_three_sigma_sweep_peak_stays_under_spectra_buffer_and_a_folds_working_set():
    # The sweep holds S spectra and one buffer for the largest fold; each
    # Gaussian fold's weights go straight into the buffer, so its working
    # set stays under 2.5*n*L*n_va floats (a transposed copy of the weights
    # and a copy into the buffer would each add about 0.8*n*L*n_va).
    n, S, L = 600, len(experiments.HISTOGRAM_SIGMAS), len(experiments.HISTOGRAM_LAMBDAS)
    X = np.random.default_rng(0).normal(size=(n, 3))
    parts = model_selection.kfold_split(n, experiments.FOLDS, 0)
    _, peak = _traced_peak(lambda: model_selection.sweep(
        X, [kernels.gaussian(s) for s in experiments.HISTOGRAM_SIGMAS],
        experiments.HISTOGRAM_LAMBDAS, experiments.FOLDS, 0,
        lambda tr, cols, A: np.zeros(A.shape[1])))
    spectra = S * (n * n + n)
    buffer = S * L * max((n - va.size) * va.size for va in parts)
    working_set = 2.5 * n * L * max(va.size for va in parts)
    assert peak < 8 * (spectra + buffer + working_set)


def _count_calls(monkeypatch, module, name):
    """Count the calls made through module.name, the attribute every caller
    looks up."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_ranking_experiment_scores_each_fold_and_the_test_set_in_one_call(monkeypatch):
    # one stacked rank_loss call per CV fold (one linear kernel) and one for
    # the test set; a per-item scoring loop would make hundreds
    calls = _count_calls(monkeypatch, losses, "rank_loss")
    experiments.run_ranking_experiment(items=4, n_train=20, n_test=10, repetitions=1)
    assert len(calls) == experiments.FOLDS + 1
    assert np.shape(calls[-1][0]) == (10, 4)


def test_each_simplex_fallback_query_is_one_argmax_without_hellinger_calls(monkeypatch):
    # one decode_simplex_hellinger call per fallback column, which the
    # benchmark counts, and no loss table over the training histograms
    hellinger = _count_calls(monkeypatch, losses, "squared_hellinger")
    fallbacks = _count_calls(monkeypatch, decoders, "decode_simplex_hellinger")
    _, Y = experiments.gen_histogram_data(6, 30, 0)
    A = -np.random.default_rng(1).uniform(0.1, 1.0, size=(30, 3))
    A[:, 1] = -A[:, 1]  # a positive column decodes in closed form
    decoders.decode_simplex_hellinger_batch(A, Y)
    assert len(fallbacks) == 2 and not hellinger


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6, 9])
def test_median_sq_dist_equals_np_median(rows):
    # rows * (rows - 1) / 2 pairs: an odd count for 2, 3 and 6 rows, an even
    # one for 4, 5 and 9; the stacked copy adds pairs at distance 0 and ties
    rng = np.random.default_rng(rows)
    for Y in (rng.dirichlet(np.ones(4), size=rows),
              np.vstack([rng.dirichlet(np.ones(4), size=rows - rows // 2)] * 2)[:rows]):
        d = kernels.sq_distances(Y)
        want = float(np.median(d[np.triu_indices_from(d, k=1)]))
        assert experiments.median_sq_dist(Y) == (want if want > 0 else 1.0)


def test_median_sq_dist_of_no_pairs_or_identical_rows_is_one():
    assert experiments.median_sq_dist(np.array([[0.5, 0.5]])) == 1.0
    assert experiments.median_sq_dist(np.full((4, 2), 0.5)) == 1.0


def test_a_histogram_experiment_does_not_import_numpy_ma():
    # np.median imports numpy.ma, which costs about 0.8 MB of resident memory
    src = os.path.dirname(os.path.dirname(os.path.abspath(experiments.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from surrloss import experiments\n"
            "experiments.run_histogram_experiment(dim=3, n_train=20, n_test=10, repetitions=1)\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"
