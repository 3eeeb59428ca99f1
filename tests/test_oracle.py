import ast
import itertools
import json
import pathlib

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
    # g mixes g* and raw noise; terms are O(10), so rel 1e-12 is generous.
    # Far from g* the difference of two risks does not cancel, so
    # `check_comparison`'s excess must equal it.
    rng = np.random.default_rng(3)
    for p, loss in _problems(4):
        g = rng.normal(scale=2.0, size=p.rho.shape)
        for h in (p.conditionals, g):
            assert _oracles.surrogate_risk(p.rho, h) == pytest.approx(
                _oracles.surrogate_risk_double_loop(p.rho, h), rel=1e-12, abs=0)
        excess = (_oracles.surrogate_risk(p.rho, g)
                  - _oracles.surrogate_risk(p.rho, p.conditionals))
        assert oracle.check_comparison(p, loss, g)["excess"] == pytest.approx(
            excess, rel=1e-12, abs=0)


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
        c_delta = losses.c_delta(loss, p.ys)
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


@pytest.mark.parametrize("ys", [[0, 1, 0], [(1, 2), (2, 1), (1, 2)]])
def test_finite_problem_rejects_duplicate_ys(ys):
    # the finite decoder would merge the two columns of the repeated output
    with pytest.raises(ValueError, match="duplicate ys"):
        oracle.FiniteProblem(xs=[0, 1], ys=ys, rho=np.full((2, 3), 1.0 / 6.0))


@pytest.mark.parametrize("which", ["fisher", "comparison"])
def test_fisher_and_comparison_checks_decode_with_the_library_decoder(monkeypatch, tmp_path,
                                                                       which):
    # a decoder that takes the argmax must fail both checks, so the checks
    # score the decoder the library ships, not a copy of it
    argmin = decoders.decode_exhaustive_batch

    def argmax(candidates, A, loss, y_train):
        return argmin(candidates, -np.asarray(A, dtype=float), loss, y_train)

    monkeypatch.setattr(decoders, "decode_exhaustive_batch", argmax)
    out = tmp_path / "report.json"
    code = cli.main(["check", which, "--trials", "2", "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(out.read_text(encoding="utf-8"))["pass"] is False


DEFAULT_TRIAL_RESULTS = {
    "fisher": {"trials": 150, "max_abs_gap": 0.0},
    "comparison": {"trials": 1000, "violations": 0, "worst_margin": -3.1096423456327647e-07},
    "equivalence": {"trials": 100, "checked": 4672, "mismatches": 0},
}


@pytest.mark.parametrize("which", sorted(DEFAULT_TRIAL_RESULTS))
def test_check_reports_at_default_trials_are_pinned(tmp_path, which):
    # seed 0 at each battery's default trials; the worst comparison margin is
    # a difference of rounded risks, so it is held to rel 1e-9
    out = tmp_path / "report.json"
    assert cli.main(["check", which, "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pass"] is True
    want = dict(DEFAULT_TRIAL_RESULTS[which])
    result = report["result"]
    if which == "comparison":
        assert result.pop("worst_margin") == pytest.approx(want.pop("worst_margin"),
                                                           rel=1e-9, abs=0)
    assert result == want


def test_the_test_oracles_do_not_import_the_library():
    # the oracles are the independent side of every dual-route check
    tree = ast.parse((pathlib.Path(__file__).parent / "_oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(name.split(".")[0] in ("surrloss", "") for name in imported)
