import csv
import json

import numpy as np
import pytest

from surrloss import cli


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
