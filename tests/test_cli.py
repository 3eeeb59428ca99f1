import csv
import dataclasses
import json

import numpy as np
import pytest

from surrloss import cli, decoders, experiments, kernels, losses, surrogate


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def _targets(kind, rng, n):
    """(header, rows) of training targets for one output kind."""
    if kind == "scalar":
        return ["y"], [[v] for v in rng.uniform(-2, 2, size=n)]
    if kind == "label":
        return ["y"], [[lab] for lab in rng.choice(["a", "b", "c"], size=n)]
    if kind == "simplex":
        P = rng.dirichlet(np.ones(3), size=n)
        return [f"p{j}" for j in range(3)], P.tolist()
    R = rng.integers(1, 6, size=(n, 4)).astype(float)
    return [f"r{j}" for j in range(4)], R.tolist()


def test_cli_tables_cover_what_they_describe():
    # a kind or experiment added in one place and not the other was a
    # KeyError at the first command that used it
    assert set(cli._KINDS) == set(surrogate.OUTPUT_KINDS)
    experiment = cli.build_parser().commands["experiment"]
    which = next(a for a in experiment._actions if a.dest == "which")
    assert set(cli._EXPERIMENTS) == set(which.choices)
    options = {a.dest for a in experiment._actions if a.option_strings}
    assert {row["size"] for row in cli._EXPERIMENTS.values()} <= options
    assert cli._SCALAR_OPTIONS == tuple(f.name for f in dataclasses.fields(decoders.ScalarGrid))


def _check_row(kind, header, row, train_rows):
    if kind == "scalar":
        assert header == ["y"] and np.isfinite(float(row[0]))
    elif kind == "label":
        assert header == ["y"] and row[0] in {r[0] for r in train_rows}
    elif kind == "simplex":
        p = np.array(row, dtype=float)
        assert header == ["p0", "p1", "p2"]
        assert np.all(p >= 0) and p.sum() == pytest.approx(1.0)
    else:
        assert header == ["rank0", "rank1", "rank2", "rank3"]
        assert sorted(int(v) for v in row) == [1, 2, 3, 4]


@pytest.mark.parametrize("kind", ["scalar", "label", "simplex", "ratings"])
def test_train_predict_round_trip(tmp_path, kind):
    rng = np.random.default_rng(3)
    n, q = 12, 5
    X = rng.normal(size=(n + q, 2))
    t_header, t_rows = _targets(kind, rng, n)
    _write_csv(tmp_path / "train.csv", ["x0", "x1"] + t_header,
               [list(x) + t for x, t in zip(X[:n].tolist(), t_rows)])
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[n:].tolist())
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"

    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", kind]) == cli.EXIT_OK
    assert cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(preds)]) == cli.EXIT_OK
    header, rows = _read_csv(preds)
    assert len(rows) == q
    for row in rows:
        _check_row(kind, header, row, t_rows)


def test_train_without_input_columns_is_usage_error(tmp_path):
    _write_csv(tmp_path / "train.csv", ["a", "y"], [[1.0, 0.5], [2.0, 1.5]])
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "scalar"])
    assert code == cli.EXIT_USAGE


def test_cv_and_the_loss_checks_make_no_per_pair_loss_call(tmp_path, monkeypatch):
    # every built-in loss scores CV folds through its `rows` and the check
    # batteries tabulate through `table`, so no call on one pair is made
    for cls in (losses.Cauchy, losses.SquaredError, losses.AbsoluteError, losses.ZeroOne,
                losses.FiniteTable, losses.SquaredHellinger, losses.RankLoss):
        monkeypatch.setattr(cls, "__call__", _raise(AssertionError(f"{cls.__name__} call")))
    rng = np.random.default_rng(8)
    for kind in ("scalar", "label", "simplex", "ratings"):
        t_header, t_rows = _targets(kind, rng, 12)
        _write_csv(tmp_path / f"{kind}.csv", ["x0", "x1"] + t_header,
                   [list(x) + t for x, t in zip(rng.normal(size=(12, 2)).tolist(), t_rows)])
        assert cli.main(["cv", "--in", str(tmp_path / f"{kind}.csv"), "--kind", kind,
                         "--folds", "3", "--out", str(tmp_path / "cv.json")]) == cli.EXIT_OK
    for which in ("fisher", "comparison"):
        assert cli.main(["check", which, "--trials", "2",
                         "--out", str(tmp_path / "check.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("which", ["fisher", "comparison", "equivalence"])
def test_check_passes(tmp_path, which):
    out = tmp_path / "report.json"
    assert cli.main(["check", which, "--trials", "2", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["pass"] is True


def _train_with_config(tmp_path, config, *flags):
    """Exit code of `train` with `config` as --config, and the saved kernel."""
    rng = np.random.default_rng(4)
    _write_csv(tmp_path / "train.csv", ["x0", "y"],
               rng.uniform(-1, 1, size=(6, 2)).tolist())
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    model = tmp_path / "model.json"
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", "scalar", "--config", str(tmp_path / "config.json"),
                     *flags])
    kernel = json.loads(model.read_text(encoding="utf-8"))["kernel"] if code == 0 else None
    return code, kernel


def test_config_sets_subcommand_options(tmp_path):
    code, kernel = _train_with_config(tmp_path, {"sigma": 7.5})
    assert code == cli.EXIT_OK and kernel == {"kind": "gaussian", "sigma": 7.5}


def test_command_line_flag_overrides_config(tmp_path):
    code, kernel = _train_with_config(tmp_path, {"sigma": 7.5}, "--sigma", "2")
    assert code == cli.EXIT_OK and kernel == {"kind": "gaussian", "sigma": 2.0}


def test_config_rejects_unknown_key(tmp_path):
    code, _ = _train_with_config(tmp_path, {"sigma": 7.5, "gamma": 2.0})
    assert code == cli.EXIT_USAGE


def _refuse_fit(*args, **kwargs):
    raise np.linalg.LinAlgError("not positive definite")


def test_train_numerical_failure_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(surrogate, "fit", _refuse_fit)
    _write_csv(tmp_path / "train.csv", ["x0", "y"], [[0.0, 1.0], [1.0, 2.0]])
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "scalar"])
    assert code == cli.EXIT_NUMERICAL


def test_cv_numerical_failure_exits_2(tmp_path, monkeypatch):
    # the CV sweep re-raises a failure of a kernel's fold weights as a
    # RuntimeError caused by it
    monkeypatch.setattr(kernels, "fold_weights", _refuse_fit)
    rng = np.random.default_rng(5)
    _write_csv(tmp_path / "train.csv", ["x0", "y"], rng.uniform(-1, 1, size=(10, 2)).tolist())
    code = cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     "--out", str(tmp_path / "cv.json")])
    assert code == cli.EXIT_NUMERICAL


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_cv_rejects_a_non_finite_lambda(tmp_path, lam):
    rng = np.random.default_rng(5)
    _write_csv(tmp_path / "train.csv", ["x0", "y"], rng.uniform(-1, 1, size=(10, 2)).tolist())
    code = cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     "--lambdas", lam, "--out", str(tmp_path / "cv.json")])
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("option", ["--lambdas", "--sigmas"])
def test_cv_with_an_empty_grid_is_usage_error(tmp_path, capsys, option):
    rng = np.random.default_rng(5)
    _write_csv(tmp_path / "train.csv", ["x0", "y"], rng.uniform(-1, 1, size=(10, 2)).tolist())
    out = tmp_path / "cv.json"
    code = cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     option, ",", "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "non-empty" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("folds", ["1", "11"])
def test_cv_with_folds_outside_two_to_rows_is_usage_error(tmp_path, capsys, monkeypatch, folds):
    # rejected before any fit: a fold's spectrum or weights would exit 2 instead
    monkeypatch.setattr(kernels, "fold_spectrum", _refuse_fit)
    monkeypatch.setattr(kernels, "fold_weights", _refuse_fit)
    rng = np.random.default_rng(5)
    _write_csv(tmp_path / "train.csv", ["x0", "y"], rng.uniform(-1, 1, size=(10, 2)).tolist())
    out = tmp_path / "cv.json"
    code = cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     "--folds", folds, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--folds must be between 2 and the 10 data rows, got {folds}" in err
    assert not out.exists()


def test_check_consistency_fails_with_two_trials(tmp_path):
    # with two draws per sample size the non-optimal counts [2, 1, 1, 0, 0]
    # fall, but the trend test's p = 0.011 is above the 1e-3 level
    out = tmp_path / "report.json"
    code = cli.main(["check", "consistency", "--trials", "2", "--seed", "0",
                     "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pass"] is False
    assert report["result"]["non_optimal"] == [2, 1, 1, 0, 0]
    assert 1e-3 < report["result"]["p_value"] < 0.02


def test_check_consistency_passes_at_default_trials(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["check", "consistency", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["pass"] is True
    # seed 0: of 20 fits per n, these miss the Bayes predictor somewhere
    assert report["result"]["n_grid"] == [25, 50, 100, 200, 400]
    assert report["result"]["non_optimal"] == [17, 14, 9, 2, 2]
    assert report["result"]["p_value"] <= 1e-3


# A label model decodes only under zero_one: Exhaustive would call any other
# loss on the label strings, or on labels that read as numbers decode under it.
LOSSES_THE_DECODER_IGNORES = [("ratings", "squared"), ("ratings", "absolute"),
                              ("simplex", "squared"), ("scalar", "zero_one"),
                              ("scalar", "hellinger"), ("label", "squared"),
                              ("label", "absolute"), ("label", "cauchy"),
                              ("label", "hellinger"), ("label", "rank")]


def _target_sets(kind, rng, n):
    """The kind's `_targets`; for labels, also labels that read as numbers."""
    yield _targets(kind, rng, n)
    if kind == "label":
        yield ["y"], [[lab] for lab in rng.choice(["1", "2", "3"], size=n)]


@pytest.mark.parametrize("kind, loss", LOSSES_THE_DECODER_IGNORES)
def test_predict_with_a_loss_the_decoder_ignores_is_usage_error(tmp_path, kind, loss,
                                                                monkeypatch):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 2))
    for t_header, t_rows in _target_sets(kind, rng, 8):
        _write_csv(tmp_path / "train.csv", ["x0", "x1"] + t_header,
                   [list(x) + t for x, t in zip(X[:8].tolist(), t_rows)])
        _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[8:].tolist())
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                         "--kind", kind]) == cli.EXIT_OK
        with monkeypatch.context() as m:
            if kind == "label":  # rejected before any kernel work
                m.setattr(kernels, "cross_kernel_batch", _refuse_fit)
                m.setattr(kernels, "gram_matrix", _refuse_fit)
            assert cli.main(["predict", "--model", str(model), "--in",
                             str(tmp_path / "query.csv"), "--out", str(preds),
                             "--loss", loss]) == cli.EXIT_USAGE
        assert not preds.exists()


@pytest.mark.parametrize("kind, loss", LOSSES_THE_DECODER_IGNORES + [("ratings", "zero_one")])
def test_cv_with_a_loss_the_decoder_ignores_is_usage_error(tmp_path, capsys, kind, loss,
                                                           monkeypatch):
    # rejected before the sweep, so the message names the decoder (for
    # labels, the kind) and the loss, not a grid point
    monkeypatch.setattr(kernels, "fold_spectrum", _refuse_fit)
    monkeypatch.setattr(kernels, "fold_weights", _refuse_fit)
    rng = np.random.default_rng(4)
    for t_header, t_rows in _target_sets(kind, rng, 10):
        _write_csv(tmp_path / "train.csv", ["x0", "x1"] + t_header,
                   [list(x) + t for x, t in zip(rng.normal(size=(10, 2)).tolist(), t_rows)])
        out = tmp_path / "cv.json"
        assert cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", kind,
                         "--loss", loss, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        if kind == "label":
            assert f"--loss {loss} does not apply to label outputs" in err
        else:
            decoder = {"ratings": "ranking", "simplex": "simplex", "scalar": "scalar"}[kind]
            named = {"squared": "SquaredError", "absolute": "AbsoluteError",
                     "zero_one": "ZeroOne", "hellinger": "SquaredHellinger"}[loss]
            assert f"the {decoder} decoder minimises" in err and f"not {named}" in err
        assert "cv failure" not in err
        assert not out.exists()


def test_cv_loss_choices_are_the_predict_loss_choices(capsys):
    # an unknown loss is an argparse usage error for both subcommands
    for argv in (["cv", "--in", "x.csv", "--kind", "scalar"],
                 ["predict", "--model", "m.json", "--in", "x.csv", "--out", "p.csv"]):
        assert cli.main(argv + ["--loss", "huber"]) == cli.EXIT_USAGE
        assert "invalid choice: 'huber'" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["fisher", "comparison", "equivalence", "consistency"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_rejects_fewer_than_one_trial(tmp_path, capsys, which, trials):
    # a battery that ran no trial has checked nothing, so it must not pass
    out = tmp_path / "report.json"
    code = cli.main(["check", which, "--trials", trials, "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_train_on_ragged_csv_is_usage_error(tmp_path, capsys):
    # line 3 (the second data row) lacks its y field
    (tmp_path / "train.csv").write_text("x0,x1,y\n0.1,0.2,1.0\n0.3,0.4\n0.5,0.6,2.0\n",
                                        encoding="utf-8")
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "scalar"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.csv: line 3" in err
    assert not (tmp_path / "model.json").exists()


def test_predict_on_ragged_csv_is_usage_error(tmp_path, capsys):
    _write_csv(tmp_path / "train.csv", ["x0", "x1", "y"],
               [[0.1, 0.2, 1.0], [0.3, 0.4, -1.0], [0.5, 0.6, 2.0]])
    model = tmp_path / "model.json"
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", "scalar"]) == cli.EXIT_OK
    # the query file has blank lines; line numbers still count them
    (tmp_path / "query.csv").write_text("x0,x1\n\n0.1,0.2\n0.3\n", encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(tmp_path / "preds.csv")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "query.csv: line 4" in err
    assert not (tmp_path / "preds.csv").exists()


def test_scalar_targets_outside_the_bound_are_usage_errors(tmp_path, capsys):
    # the decoder's grid spans [-bound, bound]: with every target at 10 and
    # the default --bound 3 it would write 3.0 for every query
    X = np.linspace(-1, 1, 8)[:, None]
    _write_csv(tmp_path / "train.csv", ["x0", "y"], [[x, 10.0] for x in X[:, 0]])
    _write_csv(tmp_path / "query.csv", ["x0"], [[0.25], [0.5]])
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", "scalar"]) == cli.EXIT_OK
    capsys.readouterr()
    for argv in (["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                  "--out", str(preds)],
                 ["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                  "--folds", "2", "--out", str(tmp_path / "cv.json")]):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "max |y| = 10" in err and "--bound 3" in err
    assert not preds.exists() and not (tmp_path / "cv.json").exists()
    assert cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(preds), "--bound", "12"]) == cli.EXIT_OK
    _, rows = _read_csv(preds)
    assert [float(r[0]) for r in rows] == pytest.approx([10.0, 10.0], abs=1e-6)


EXPERIMENT_CV = {
    "robust": {"sigmas": list(experiments.ROBUST_SIGMAS),
               "lambdas": list(experiments.ROBUST_LAMBDAS),
               "gammas": list(experiments.ROBUST_GAMMAS), "folds": experiments.FOLDS},
    "ranking": {"lambdas": list(experiments.RANKING_LAMBDAS), "folds": experiments.FOLDS},
    "histogram": {"sigmas": list(experiments.HISTOGRAM_SIGMAS),
                  "lambdas": list(experiments.HISTOGRAM_LAMBDAS),
                  "folds": experiments.FOLDS},
}
# Each experiment's own size option at a tiny value, as given on the command
# line and as the report's config records it.
EXPERIMENT_SIZE = {"robust": (["--n-grid", "20,30"], {"n_grid": [20, 30]}),
                   "ranking": (["--items", "4"], {"items": 4}),
                   "histogram": (["--dim", "3"], {"dim": 3})}


@pytest.mark.parametrize("which", ["robust", "ranking", "histogram"])
def test_experiment_reports_its_constants_and_writes_the_curve(tmp_path, which):
    flags, size = EXPERIMENT_SIZE[which]
    out, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    assert cli.main(["experiment", which, *flags, "--reps", "1", "--seed", "3",
                     "--out", str(out), "--curve", str(curve)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["config"] == {"seed": 3, "reps": 1, **size}
    assert report["metadata"]["cv"] == EXPERIMENT_CV[which]
    if which == "robust":
        assert f"uniform {experiments.ROBUST_TEST_POINTS}-point grid" in \
            report["metadata"]["metric"]
    header, rows = _read_csv(curve)
    assert header == ["n", "method", "mean", "std"]
    points = [(int(row[0]), row[1]) for row in rows]
    assert len(set(points)) == len(points)
    assert points == [(r["n"], r["method"]) for r in report["results"]]
    if which == "robust":
        assert sorted({n for n, _ in points}) == [20, 30]
        assert len(points) == 4


@pytest.mark.parametrize("which, flags", [
    ("ranking", ["--n-grid", "7"]), ("histogram", ["--n-grid", "7"]),
    ("robust", ["--items", "4"]), ("histogram", ["--items", "4"]),
    ("robust", ["--dim", "3"]), ("ranking", ["--dim", "3"])])
def test_experiment_rejects_another_experiments_option(tmp_path, capsys, which, flags):
    # an option the experiment does not read would be dropped without a word
    out = tmp_path / "report.json"
    assert cli.main(["experiment", which, *flags, "--out", str(out)]) == cli.EXIT_USAGE
    assert f"experiment {which} takes no {flags[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_another_experiments_option_from_config(tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps({"n_grid": [7], "dim": 3}),
                                          encoding="utf-8")
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "ranking", "--config", str(tmp_path / "config.json"),
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert "experiment ranking takes no --n-grid or --dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reps", ["0", "-2"])
def test_experiment_rejects_fewer_than_one_repetition(tmp_path, capsys, reps):
    # no repetition has no mean: the report would carry NaN, which is not JSON
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "ranking", "--items", "3", "--reps", reps,
                     "--out", str(out)]) == cli.EXIT_USAGE
    assert "--reps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_experiment_rejects_an_empty_n_grid(tmp_path, capsys, source):
    # an empty grid runs no experiment, and an empty report must not pass
    out = tmp_path / "report.json"
    if source == "flag":
        argv = ["experiment", "robust", "--n-grid", "", "--reps", "1", "--out", str(out)]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"n_grid": [], "reps": 1}),
                                              encoding="utf-8")
        argv = ["experiment", "robust", "--config", str(tmp_path / "config.json"),
                "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--n-grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_grid", ["3", "10,0"])
def test_robust_experiment_rejects_sizes_below_its_fold_count(tmp_path, capsys, monkeypatch,
                                                              n_grid):
    # rejected before any fit: a fold's spectrum or weights would exit 2 instead
    monkeypatch.setattr(kernels, "fold_spectrum", _refuse_fit)
    monkeypatch.setattr(kernels, "fold_weights", _refuse_fit)
    out = tmp_path / "report.json"
    assert cli.main(["experiment", "robust", "--n-grid", n_grid, "--reps", "1",
                     "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--n-grid sizes must be at least {experiments.FOLDS}" in err
    assert f"got {min(map(int, n_grid.split(',')))}" in err
    assert not out.exists()


@pytest.mark.parametrize("which, option, value", [
    ("ranking", "--items", "1"), ("ranking", "--items", "-3"),
    ("histogram", "--dim", "1"), ("histogram", "--dim", "0")])
def test_experiment_size_below_its_least_names_the_option(tmp_path, capsys, monkeypatch,
                                                          which, option, value):
    # rejected before any data is drawn or fit
    monkeypatch.setattr(experiments, "gen_ranking_data", _refuse_fit)
    monkeypatch.setattr(experiments, "gen_histogram_data", _refuse_fit)
    out = tmp_path / "report.json"
    assert cli.main(["experiment", which, option, value, "--reps", "1",
                     "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{option} must be at least 2" in err and f"got {value}" in err
    assert not out.exists()


def test_label_predictions_from_a_version_1_blob_are_byte_identical(tmp_path):
    rng = np.random.default_rng(13)
    n, q = 40, 25
    X = rng.normal(size=(n + q, 3))
    labels = rng.choice(["a", "b", "c", "d"], size=n).tolist()
    _write_csv(tmp_path / "train.csv", ["x0", "x1", "x2", "y"],
               [x + [lab] for x, lab in zip(X[:n].tolist(), labels)])
    _write_csv(tmp_path / "query.csv", ["x0", "x1", "x2"], X[n:].tolist())
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "v2.json"), "--kind", "label",
                     "--sigma", "3", "--lambda", "1e-3"]) == cli.EXIT_OK
    # the same data in the version-1 layout, which a load refits
    (tmp_path / "v1.json").write_text(json.dumps({
        "format": "surrloss-model", "version": 1,
        "kernel": {"kind": "gaussian", "sigma": 3.0}, "lambda": 1e-3,
        "x": X[:n].tolist(), "y": {"kind": "label", "values": labels}}), encoding="utf-8")
    for version in ("v1", "v2"):
        assert cli.main(["predict", "--model", str(tmp_path / f"{version}.json"),
                         "--in", str(tmp_path / "query.csv"),
                         "--out", str(tmp_path / f"{version}.csv")]) == cli.EXIT_OK
    assert (tmp_path / "v2.csv").read_bytes() == (tmp_path / "v1.csv").read_bytes()


@pytest.mark.parametrize("lam, jitter", [("1e-2", "0"), ("1e-20", "1e-11")])
def test_train_reports_the_jitter_its_factor_picked(tmp_path, capsys, lam, jitter):
    # three copies of two rows under the linear kernel: K has rank 2, and at
    # lambda = 1e-20 the ladder steps up to 1e-12 times the largest diagonal
    # entry, |(1, 2)|^2 = 5 and |(3, -1)|^2 = 10
    _write_csv(tmp_path / "train.csv", ["x0", "x1", "y"], [[1.0, 2.0, "a"], [3.0, -1.0, "b"]] * 3)
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "label",
                     "--kernel", "linear", "--lambda", lam]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip().endswith(f"(factor jitter {jitter})")


@pytest.mark.parametrize("command", ["experiment", "cv"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_grids_reject_a_repeated_value(tmp_path, capsys, command, source):
    # a repeated grid point would be run twice and reported in two identical rows
    out = tmp_path / "report.json"
    if command == "experiment":
        argv, option, key, values = ["experiment", "robust", "--reps", "1"], "--n-grid", \
            "n_grid", [20, 20]
    else:
        _write_csv(tmp_path / "train.csv", ["x0", "y"],
                   np.random.default_rng(5).uniform(-1, 1, size=(10, 2)).tolist())
        argv, option, key, values = ["cv", "--in", str(tmp_path / "train.csv"), "--kind",
                                     "scalar"], "--lambdas", "lambdas", [1e-2, 0.01]
    if source == "flag":
        argv += [option, ",".join(str(v) for v in values)]
    else:
        (tmp_path / "config.json").write_text(json.dumps({key: values}), encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert f"{option}: repeats a value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--bound", "--gamma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_decoder_parameters_are_usage_errors(tmp_path, capsys, flag, value):
    # each wrote nan, or the bound -3.0, for every query and exited 0
    rng = np.random.default_rng(14)
    X = rng.normal(size=(10, 2))
    _write_csv(tmp_path / "train.csv", ["x0", "x1", "y"],
               [list(x) + [y] for x, y in zip(X.tolist(), rng.uniform(-2, 2, size=10))])
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[:3].tolist())
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", "scalar"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(preds), flag, value]) == cli.EXIT_USAGE
    assert "positive and finite" in capsys.readouterr().err
    assert not preds.exists()


@pytest.mark.parametrize("kind, fault, message", [
    ("scalar", "nan", "row 2 has non-finite entries"),
    ("ratings", "nan", "row 2 has non-finite entries"),
    ("simplex", "negative", "row 2 has negative entries"),
    ("simplex", "sum", "row 2 sums to"),
    ("ratings", "one item", "got shape (8, 1)"),
])
def test_training_outputs_that_cannot_be_decoded_are_usage_errors(tmp_path, capsys, kind,
                                                                   fault, message):
    # a nan target trained and predicted -3.0 (scalar) or a ranking (ratings),
    # a histogram off the simplex trained and failed only in predict, and a
    # one-item rating profile trained and failed in every predict and cv
    rng = np.random.default_rng(15)
    header, rows = _targets(kind, rng, 8)
    if fault == "nan":
        rows[2][-1] = float("nan")
    elif fault == "negative":
        rows[2] = [1.2, -0.2, 0.0]
    elif fault == "sum":
        rows[2] = [0.5, 0.5, 0.5]
    else:
        header, rows = header[:1], [row[:1] for row in rows]
    _write_csv(tmp_path / "train.csv", ["x0", "x1"] + header,
               [list(x) + t for x, t in zip(rng.normal(size=(8, 2)).tolist(), rows)])
    for argv in (["train", "--out", str(tmp_path / "model.json")],
                 ["cv", "--folds", "2", "--out", str(tmp_path / "cv.json")]):
        capsys.readouterr()
        code = cli.main(argv + ["--in", str(tmp_path / "train.csv"), "--kind", kind])
        assert code == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists() and not (tmp_path / "cv.json").exists()


@pytest.mark.parametrize("field", ["kernel", "x"])
def test_a_broken_model_blob_is_a_usage_error(tmp_path, capsys, field):
    # a deleted kernel raised KeyError, and a version-2 x written as nested
    # lists TypeError, out of main
    rng = np.random.default_rng(16)
    X = rng.normal(size=(6, 2))
    _write_csv(tmp_path / "train.csv", ["x0", "x1", "y"],
               [list(x) + [lab] for x, lab in zip(X.tolist(), ["a", "b"] * 3)])
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[:2].tolist())
    model = tmp_path / "model.json"
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", "label"]) == cli.EXIT_OK
    blob = json.loads(model.read_text(encoding="utf-8"))
    if field == "kernel":
        del blob["kernel"]
    else:
        blob["x"] = X.tolist()
    model.write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(tmp_path / "preds.csv")]) == cli.EXIT_USAGE
    assert f"{field!r}" in capsys.readouterr().err
    assert not (tmp_path / "preds.csv").exists()


def test_train_on_a_row_with_an_extra_field_is_usage_error(tmp_path, capsys):
    # line 2 carries a third field under a two-column header; it would be dropped
    (tmp_path / "train.csv").write_text("x0,y\n0.2,2.0,9\n0.5,1.0\n", encoding="utf-8")
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "scalar"])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "train.csv: line 2 has 3 fields" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command, key, values", [("train", "sigma", [5.0]),
                                                  ("cv", "sigmas", [3.0, 4.0])])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_bandwidth_with_the_linear_kernel_is_usage_error(tmp_path, capsys, command, key,
                                                           values, source):
    # the linear kernel has no bandwidth, so the value would be ignored
    _write_csv(tmp_path / "train.csv", ["x0", "y"],
               np.random.default_rng(5).uniform(-1, 1, size=(10, 2)).tolist())
    out = tmp_path / "out.json"
    argv = [command, "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
            "--out", str(out)]
    if source == "flag":
        argv += ["--kernel", "linear", f"--{key}", ",".join(str(v) for v in values)]
    else:
        config = {"kernel": "linear", key: values[0] if key == "sigma" else values}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"--kernel linear takes no --{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_cv_reports_the_grid_and_decoder_its_selection_depended_on(tmp_path, source):
    _write_csv(tmp_path / "train.csv", ["x0", "y"],
               np.random.default_rng(5).uniform(-1, 1, size=(10, 2)).tolist())
    options = {"sigmas": [0.5, 2.0], "lambdas": [0.01, 0.1], "gamma": 2.0, "bound": 2.5,
               "grid_points": 64, "refine_iters": 3, "folds": 2}
    out = tmp_path / "cv.json"
    argv = ["cv", "--in", str(tmp_path / "train.csv"), "--kind", "scalar", "--out", str(out)]
    if source == "flag":
        for key, value in options.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            argv += [f"--{key.replace('_', '-')}", text]
    else:
        (tmp_path / "config.json").write_text(json.dumps(options), encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv) == cli.EXIT_OK
    config = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert config == {"kind": "scalar", "folds": 2, "seed": 0, "loss": "cauchy",
                      "kernels": [{"kind": "gaussian", "sigma": 0.5},
                                  {"kind": "gaussian", "sigma": 2.0}],
                      "lambdas": [0.01, 0.1], "gamma": 2.0, "bound": 2.5,
                      "grid_points": 64, "refine_iters": 3}


def test_cv_reports_no_decoder_settings_that_do_not_apply(tmp_path):
    rng = np.random.default_rng(6)
    t_header, t_rows = _targets("label", rng, 10)
    _write_csv(tmp_path / "train.csv", ["x0"] + t_header,
               [[x] + t for x, t in zip(rng.normal(size=10).tolist(), t_rows)])
    out = tmp_path / "cv.json"
    assert cli.main(["cv", "--in", str(tmp_path / "train.csv"), "--kind", "label",
                     "--kernel", "linear", "--folds", "2", "--out", str(out)]) == cli.EXIT_OK
    config = json.loads(out.read_text(encoding="utf-8"))["config"]
    assert config == {"kind": "label", "folds": 2, "seed": 0, "loss": "zero_one",
                      "kernels": [{"kind": "linear"}], "lambdas": [1e-4, 1e-2, 1.0]}


@pytest.mark.parametrize("kind, option, value, message", [
    ("label", "bound", 7.0, "--bound applies only to scalar outputs, not label"),
    ("simplex", "grid_points", 3, "--grid-points applies only to scalar outputs, not simplex"),
    ("ratings", "refine_iters", 5, "--refine-iters applies only to scalar outputs, not ratings"),
    ("label", "gamma", 9.0, "--gamma applies only to --loss cauchy, not zero_one"),
    ("scalar", "gamma", 9.0, "--gamma applies only to --loss cauchy, not squared"),
])
@pytest.mark.parametrize("command", ["cv", "predict"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_decoder_option_that_does_not_apply_is_usage_error(tmp_path, capsys, kind, option,
                                                             value, message, command, source):
    # `cv --kind label --bound 7 --gamma 9` exited 0 and ignored both options
    rng = np.random.default_rng(17)
    t_header, t_rows = _targets(kind, rng, 10)
    X = rng.normal(size=(10, 2))
    _write_csv(tmp_path / "train.csv", ["x0", "x1"] + t_header,
               [list(x) + t for x, t in zip(X.tolist(), t_rows)])
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[:3].tolist())
    out = tmp_path / "out"
    if command == "cv":
        argv = ["cv", "--in", str(tmp_path / "train.csv"), "--kind", kind, "--folds", "2"]
    else:
        model = tmp_path / "model.json"
        assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                         "--kind", kind]) == cli.EXIT_OK
        argv = ["predict", "--model", str(model), "--in", str(tmp_path / "query.csv")]
    argv += ["--out", str(out)]
    options = {option: value, "loss": "squared"} if kind == "scalar" else {option: value}
    if source == "flag":
        for key, v in options.items():
            argv += [f"--{key.replace('_', '-')}", str(v)]
    else:
        (tmp_path / "config.json").write_text(json.dumps(options), encoding="utf-8")
        argv += ["--config", str(tmp_path / "config.json")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, train_header, query_header, message", [
    ("predict", ["x0", "x1", "y"], ["x0", "x5"], "columns x0, x5 are not x0..x1"),
    ("train", ["x0", "x0", "y"], None, "columns x0, x0 are not x0..x1"),
    ("train", ["x1", "x2", "y"], None, "columns x1, x2 are not x0..x1"),
    ("train", ["x0", "x01", "y"], None, "columns x0, x01 are not x0..x1"),
])
def test_numbered_columns_must_be_each_index_once(tmp_path, capsys, stage, train_header,
                                                  query_header, message):
    # a query csv with x0,x5 was predicted, with misaligned features, against
    # a model trained on x0,x1; a header x0,x0,y trained
    rng = np.random.default_rng(18)
    X = rng.normal(size=(8, 2))
    rows = [list(x) + [lab] for x, lab in zip(X.tolist(), ["a", "b"] * 4)]
    train = tmp_path / "train.csv"
    model = tmp_path / "model.json"
    _write_csv(train, train_header, rows)
    if stage == "predict":
        assert cli.main(["train", "--in", str(train), "--out", str(model),
                         "--kind", "label"]) == cli.EXIT_OK
        _write_csv(tmp_path / "query.csv", query_header, X[:3].tolist())
        argv = ["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                "--out", str(tmp_path / "preds.csv")]
        target = tmp_path / "preds.csv"
    else:
        argv = ["train", "--in", str(train), "--out", str(model), "--kind", "label"]
        target = model
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{'query' if stage == 'predict' else 'train'}.csv: {message}" in err
    assert not target.exists()


@pytest.mark.parametrize("kind, header", [("ratings", ["r0", "r2", "r3"]),
                                          ("simplex", ["p0", "p1", "p1"])])
def test_numbered_output_columns_must_be_each_index_once(tmp_path, capsys, kind, header):
    rng = np.random.default_rng(19)
    _, t_rows = _targets(kind, rng, 6)
    _write_csv(tmp_path / "train.csv", ["x0"] + header,
               [[x] + t[:3] for x, t in zip(rng.normal(size=6).tolist(), t_rows)])
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--kind", kind,
                     "--out", str(tmp_path / "model.json")]) == cli.EXIT_USAGE
    assert f"train.csv: columns {', '.join(header)} are not" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv", "predict"])
def test_a_header_that_names_y_twice_is_usage_error(tmp_path, capsys, command):
    # the first of the two y columns was read and the second dropped
    rows = [[0.1, 1.0, 2.0], [0.4, -1.0, 0.5], [0.7, 0.5, 1.5], [0.9, 0.2, -0.5]] * 3
    _write_csv(tmp_path / "train.csv", ["x0", "y", "y"], rows)
    model = tmp_path / "model.json"
    if command == "predict":
        _write_csv(tmp_path / "good.csv", ["x0", "y"], [r[:2] for r in rows])
        assert cli.main(["train", "--in", str(tmp_path / "good.csv"), "--out", str(model),
                         "--kind", "scalar"]) == cli.EXIT_OK
        argv = ["predict", "--model", str(model), "--in", str(tmp_path / "train.csv"),
                "--out", str(tmp_path / "preds.csv")]
    else:
        argv = [command, "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                "--out", str(model if command == "train" else tmp_path / "cv.json")]
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "train.csv: the header names column y 2 times" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("preds.csv", "cv.json"))
    assert model.exists() == (command == "predict")


@pytest.mark.parametrize("kind, header, row, message", [
    ("scalar", ["x0", "x1", "y"], ["0.5", "0.25", "abc"], "column y holds 'abc'"),
    ("label", ["x0", "x1", "y"], ["0.5", "1e", "b"], "column x1 holds '1e'"),
    ("ratings", ["x0", "r0", "r1"], ["0.5", "2", ""], "column r1 holds ''"),
])
def test_a_cell_that_is_not_a_number_names_its_file_and_line(tmp_path, capsys, kind, header,
                                                             row, message):
    # the message named neither the file nor the line: "could not convert
    # string to float: 'abc'"; the blank line 3 still counts
    good = {"scalar": "0.1,0.2,1.0", "label": "0.1,0.2,a", "ratings": "0.1,1,2"}[kind]
    lines = [",".join(header), good, "", good, ",".join(row)]
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"), "--kind", kind,
                     "--out", str(tmp_path / "model.json")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"train.csv: line 5: {message}" in err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("command", ["train", "cv"])
def test_a_csv_without_target_columns_is_usage_error_naming_it(tmp_path, capsys, command):
    _write_csv(tmp_path / "train.csv", ["x0"], [[0.1], [0.4], [0.7]])
    out = tmp_path / "out.json"
    code = cli.main([command, "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     "--out", str(out)])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path / 'train.csv'}: no target columns\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n\n"], ids=["no-line", "blank-lines"])
def test_an_empty_csv_is_usage_error_naming_it(tmp_path, capsys, text):
    (tmp_path / "train.csv").write_text(text, encoding="utf-8")
    code = cli.main(["train", "--in", str(tmp_path / "train.csv"), "--kind", "scalar",
                     "--out", str(tmp_path / "model.json")])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {tmp_path / 'train.csv'}: empty csv\n"


@pytest.mark.parametrize("config, argv, message", [
    (None, ["train", "--config"], "--config needs a path"),
    ([1, 2], ["train"], "--config file must hold a JSON object"),
    ({"sigma": 2.0}, [], "--config needs a subcommand"),
], ids=["no-path", "not-an-object", "no-subcommand"])
def test_a_config_that_cannot_be_applied_is_usage_error(tmp_path, capsys, config, argv, message):
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        argv = argv + ["--config", str(tmp_path / "config.json")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"surrloss: error: {message}\n")


def _raise(error):
    def fit(*args, **kwargs):
        raise error
    return fit


def _caused(error, cause):
    error.__cause__ = cause
    return error


@pytest.mark.parametrize("error, code, prefix", [
    (np.linalg.LinAlgError("not positive definite"), cli.EXIT_NUMERICAL, "numerical failure"),
    (_caused(RuntimeError("cv failure"), np.linalg.LinAlgError("singular")),
     cli.EXIT_NUMERICAL, "numerical failure"),
    (RuntimeError("cv failure"), cli.EXIT_USAGE, "error"),
    (_caused(ValueError("bad value"), np.linalg.LinAlgError("singular")), cli.EXIT_USAGE,
     "error"),
    (OSError("disk full"), cli.EXIT_USAGE, "error"),
], ids=["linalg", "runtime-from-linalg", "runtime", "value-from-linalg", "os"])
def test_main_reports_each_failure_with_its_exit_code(tmp_path, capsys, monkeypatch, error,
                                                      code, prefix):
    monkeypatch.setattr(surrogate, "fit", _raise(error))
    _write_csv(tmp_path / "train.csv", ["x0", "y"], [[0.0, 1.0], [1.0, 2.0]])
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"),
                     "--out", str(tmp_path / "model.json"), "--kind", "scalar"]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


@pytest.mark.parametrize("labels, message", [
    (["a", 1, "a", 1, "b", 2], "'<' not supported between instances of"),
    ([[1, 2], [3], [1, 2], [3], [1, 2], [3]], "unhashable type: 'list'"),
    # nested lists: the blob, whose checksum matches, loads; then the labels fail the sort
    ([[1, [2]], [3], [1, [2]], [3], [1, [2]], [3]], "unhashable type: 'list'"),
], ids=["str-and-int", "lists", "nested-lists"])
def test_predict_on_labels_the_cli_cannot_sort_is_usage_error(tmp_path, capsys, monkeypatch,
                                                              labels, message):
    # a model fitted through the library saves and loads with such labels; predict
    # raised the TypeError of sorted(set(Y)) out of main
    rng = np.random.default_rng(17)
    model = tmp_path / "model.json"
    surrogate.save_model(surrogate.fit(rng.normal(size=(6, 2)), labels, kernels.gaussian(1.0),
                                       0.1), str(model), "label")
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], rng.normal(size=(2, 2)).tolist())
    for name in ("gram_matrix", "cross_kernel_batch", "factor_shifted"):  # no kernel work
        monkeypatch.setattr(kernels, name, _refuse_fit)
    code = cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(tmp_path / "preds.csv")])
    assert code == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: the labels cannot be sorted into decode candidates")
    assert message in err
    assert not (tmp_path / "preds.csv").exists()
