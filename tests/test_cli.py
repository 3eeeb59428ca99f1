import csv
import json

import numpy as np
import pytest

from surrloss import cli, kernels, surrogate


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
    # the CV sweep re-raises a fold's failure as a RuntimeError caused by it
    monkeypatch.setattr(kernels, "ridge_path", _refuse_fit)
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


def test_check_consistency_fails_with_two_trials(tmp_path):
    # with two seeds per sample size the median excess risk rises from n=25 to
    # n=50 (0.058 to 0.067), so the non-increasing trend check fails
    out = tmp_path / "report.json"
    code = cli.main(["check", "consistency", "--trials", "2", "--seed", "0",
                     "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    assert json.loads(out.read_text(encoding="utf-8"))["pass"] is False


def test_check_consistency_passes_at_default_trials(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["check", "consistency", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["pass"] is True


@pytest.mark.parametrize("kind, loss", [("ratings", "squared"), ("ratings", "absolute"),
                                        ("simplex", "squared")])
def test_predict_with_a_loss_the_decoder_ignores_is_usage_error(tmp_path, kind, loss):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(10, 2))
    t_header, t_rows = _targets(kind, rng, 8)
    _write_csv(tmp_path / "train.csv", ["x0", "x1"] + t_header,
               [list(x) + t for x, t in zip(X[:8].tolist(), t_rows)])
    _write_csv(tmp_path / "query.csv", ["x0", "x1"], X[8:].tolist())
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    assert cli.main(["train", "--in", str(tmp_path / "train.csv"), "--out", str(model),
                     "--kind", kind]) == cli.EXIT_OK
    assert cli.main(["predict", "--model", str(model), "--in", str(tmp_path / "query.csv"),
                     "--out", str(preds), "--loss", loss]) == cli.EXIT_USAGE
    assert not preds.exists()


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
