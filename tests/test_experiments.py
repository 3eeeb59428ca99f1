"""The experiments' CV sweeps against a brute-force dense-solve sweep."""

import numpy as np
import pytest

import _oracles
from surrloss import decoders, experiments, kernels, losses, model_selection

FOLDS = 3


def _splits(n, seed):
    all_idx = np.arange(n)
    return [(np.setdiff1d(all_idx, va), va)
            for va in model_selection.kfold_split(n, FOLDS, seed)]


def _robust_selection_by_brute_force(ds, seed):
    sigmas, lambdas, gammas = (experiments.ROBUST_SIGMAS, experiments.ROBUST_LAMBDAS,
                               experiments.ROBUST_GAMMAS)
    y = ds.y

    def score(A, tr, va):
        alg = [np.mean(np.abs(decoders.decode_scalar_grid_batch(
                   A, y[tr], losses.Cauchy(g), experiments.CV_DECODER)[0] - y[va]))
               for g in gammas]
        return alg + [np.mean((y[tr] @ A - y[va]) ** 2)]

    means = _oracles.brute_force_cv_means(ds.x, sigmas, lambdas, _splits(y.size, seed),
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
    ds = experiments.gen_robust_data(30, seed)
    (kernel, lam, gamma), (k_kernel, k_lam) = experiments._robust_cv(
        ds.x, ds.y, experiments.ROBUST_SIGMAS, experiments.ROBUST_LAMBDAS,
        experiments.ROBUST_GAMMAS, FOLDS, seed, experiments.CV_DECODER)
    alg, krr = _robust_selection_by_brute_force(ds, seed)
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
        return [experiments._mean_hellinger(hell, Y[va]),
                experiments._mean_gauss_loss(kde, Y[va], sigma_y)]

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
    ds = experiments.gen_robust_data(30, 0)
    experiments._robust_cv(ds.x, ds.y, experiments.ROBUST_SIGMAS,
                           experiments.ROBUST_LAMBDAS, experiments.ROBUST_GAMMAS,
                           FOLDS, 0, experiments.CV_DECODER)
    X, Y = experiments.gen_histogram_data(4, 30, 0)
    selected = experiments._histogram_cv(X, Y, HIST_SIGMAS, HIST_LAMBDAS, FOLDS, 0,
                                         experiments.median_sq_dist(Y))
    assert set(selected) == {"hellinger", "kde"}
    U, R = experiments.gen_ranking_data(5, 30, 0)
    plan = model_selection.CvPlan(folds=FOLDS, seed=0, lambda_grid=HIST_LAMBDAS,
                                  kernel_grid=(kernels.linear(),),
                                  scoring=losses.RankLoss(normalize=True))
    report = model_selection.cross_validate(U, R, plan, decoders.RankingFas(items=5),
                                            losses.RankLoss(normalize=False))
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
