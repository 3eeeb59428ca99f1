import itertools
import json

import numpy as np
import pytest

import _oracles
from surrloss import cli, decoders, kernels, losses, oracle, surrogate


def _problems(seed, trials=20):
    """Small random (problem, loss) pairs of every check family, with
    |X|, |Y| <= 4 outside the 6-permutation ranking family, so that all
    |Y|^|X| predictors can be enumerated."""
    rng = np.random.default_rng(seed)
    for t in range(trials):
        family = ("zero_one", "table", "rank_s3")[t % 3]
        if family == "rank_s3":
            loss = oracle.rank_loss_table(3)
            p = oracle.random_problem(rng, nx_range=(2, 3), ys=loss.labels)
        else:
            p = oracle.random_problem(rng, nx_range=(2, 4), ny_range=(2, 4))
            loss = (losses.ZeroOne(p.ys) if family == "zero_one"
                    else oracle.random_table_loss(rng, p.ys))
        yield p, loss


def _direct_table(loss, ys):
    return np.array([[loss(a, b) for b in ys] for a in ys])


def test_structured_risk_matches_the_double_loop_oracle():
    # at most 18 terms rho * loss, with rho summing to 1 and every loss here
    # in [0, 4]: rounding stays far below 1e-14
    rng = np.random.default_rng(1)
    for p, loss in _problems(0):
        f_idx = rng.integers(0, len(p.ys), size=len(p.xs))
        got = oracle.structured_risk(p, loss, [p.ys[i] for i in f_idx])
        want = _oracles.structured_risk_double_loop(p.rho, _direct_table(loss, p.ys), f_idx)
        assert got == pytest.approx(want, abs=1e-14, rel=0)


def test_bayes_optimal_attains_the_lowest_risk_over_all_predictors():
    # brute force over all |Y|^|X| predictors (at most 6^3 = 216); the two
    # risks are the same sums in another order, so 1e-14 bounds their gap
    for p, loss in _problems(2):
        table = _direct_table(loss, p.ys)
        best = min(_oracles.structured_risk_double_loop(p.rho, table, f_idx)
                   for f_idx in itertools.product(range(len(p.ys)), repeat=len(p.xs)))
        f, risk = oracle.bayes_optimal(p, loss)
        assert len(f) == len(p.xs)
        assert risk == pytest.approx(best, abs=1e-14, rel=0)


def test_surrogate_risk_matches_the_double_loop_oracle():
    # g mixes g* and raw noise; terms are O(10), so rel 1e-12 is generous
    rng = np.random.default_rng(3)
    for p, loss in _problems(4):
        for g in (p.conditionals, rng.normal(scale=2.0, size=p.rho.shape)):
            emb = losses.build_finite_embedding(loss, p.ys)
            got = oracle.surrogate_risk(p, emb, g)
            assert got == pytest.approx(_oracles.surrogate_risk_double_loop(p.rho, g),
                                        rel=1e-12, abs=0)


def test_comparison_excess_has_no_cancellation_near_gstar():
    # g = g* + eps E with eps = 1e-7: the excess surrogate risk is
    # eps^2 sum_x rho_X(x) ||E(x)||^2, about 1e-14, far below the rounding
    # of a difference of two O(1) risks
    rng = np.random.default_rng(6)
    eps = 1e-7
    for p, loss in _problems(2, trials=9):
        E = rng.normal(size=p.rho.shape)
        g = p.conditionals + eps * E
        want = eps * eps * float((p.rho.sum(axis=1) * (E * E).sum(axis=1)).sum())
        rep = oracle.check_comparison(p, loss, g)
        assert rep["excess"] == pytest.approx(want, rel=1e-9, abs=0)
        c_delta = losses.build_finite_embedding(loss, p.ys).c_delta
        assert rep["rhs"] == pytest.approx(2.0 * c_delta * np.sqrt(want), rel=1e-9, abs=0)


def test_check_ls_equivalence_checks_every_test_point():
    rng = np.random.default_rng(5)
    X, Y = oracle.sample_classification_dataset(rng, 30, 4)
    X_test = np.vstack([X, rng.normal(scale=2.0, size=(11, 2))])
    rep = oracle.check_ls_equivalence(X, Y, kernels.gaussian(1.0), 0.05, X_test)
    assert rep["checked"] == len(X_test) == 41
    assert rep["mismatches"] == 0 and rep["ok"]
    assert oracle.check_ls_equivalence(X, Y, kernels.gaussian(1.0), 0.05)["checked"] == 30


@pytest.mark.parametrize("which", ["equivalence", "consistency"])
def test_check_batteries_decode_through_the_batch_route(monkeypatch, tmp_path, which):
    def single_query_route(*args, **kwargs):
        raise AssertionError("the check batteries decode through the batch route")

    monkeypatch.setattr(surrogate, "alpha_weights", single_query_route)
    monkeypatch.setattr(decoders, "decode_exhaustive", single_query_route)
    # two trials are too few for the consistency trend to pass; the battery
    # must still run to its verdict without the single-query route
    out = tmp_path / "report.json"
    code = cli.main(["check", which, "--trials", "2", "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    assert "result" in json.loads(out.read_text(encoding="utf-8"))
