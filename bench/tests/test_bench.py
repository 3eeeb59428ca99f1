"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

import json
import os
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import stages  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class FakeClock:
    """Each read advances by the next step; lets self time be exact."""

    def __init__(self):
        self.now = 0.0
        self.steps = []

    def __call__(self):
        self.now += self.steps.pop(0) if self.steps else 0.0
        return self.now


def _synthetic():
    mod = types.ModuleType("synthetic")

    def leaf():
        return 1

    def inner():
        return mod.leaf() + mod.leaf()

    def outer():
        return mod.inner() + mod.inner()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    stage_list = [
        (stages.Stage("syn.outer", ()), (stages.Target("outer", mod, "outer", outer),)),
        (stages.Stage("syn.inner", ()), (stages.Target("inner", mod, "inner", inner),)),
        (stages.Stage("syn.leaf", (), leaf=True), (stages.Target("leaf", mod, "leaf", leaf),)),
    ]
    return mod, stage_list


def test_self_time_of_nested_calls():
    mod, bound = _synthetic()
    clock = FakeClock()
    tr = tracing.Tracer(bound, clock=clock)
    tr.begin_session()
    tr.install()
    # Clock reads in call order: outer start; inner start; leaf start/end x2;
    # inner end; inner start; leaf x2; inner end; outer end.
    clock.steps = [0.0, 1.0, 0.5, 0.25, 0.5, 0.25, 0.5, 2.0, 0.5, 0.25, 0.5, 0.25, 0.5, 4.0]
    try:
        assert mod.outer() == 4
    finally:
        tr.uninstall()
    totals = tr.end_session(wall_s=12.0)
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")
    # Each inner span lasts 0.5+0.25+0.5+0.25+0.5 = 2.0 with 0.5 of leaf time.
    assert totals["syn.leaf.calls"] == 4
    assert totals["syn.leaf.self_s"] == pytest.approx(1.0)
    assert totals["syn.inner.calls"] == 2
    assert totals["syn.inner.self_s"] == pytest.approx(2 * (2.0 - 0.5))
    # outer lasts 1 + 2 + 2 + 2 + 4 = 11 and its children cover 4.
    assert totals["syn.outer.self_s"] == pytest.approx(11.0 - 4.0)
    assert totals["bench.other_s"] == pytest.approx(12.0 - 11.0)
    assert totals["bench.spans"] == 3
    parents = [span[tracing.PARENT] for span in tr.spans]
    assert parents == [-1, 0, 0]


def test_within_restricts_recording_to_one_parent():
    mod, bound = _synthetic()
    _, leaf_targets = bound[2]
    bound[2] = (stages.Stage("syn.leaf", (), leaf=True, within="syn.outer"), leaf_targets)
    tr = tracing.Tracer(bound)
    tr.begin_session()
    tr.install()
    try:
        mod.outer()
    finally:
        tr.uninstall()
    assert "syn.leaf.calls" not in tr.totals  # leaf's parent is inner, not outer


def test_stage_map_resolves_against_the_package():
    bound = stages.resolve()
    assert len(bound) == len(stages.STAGES)
    for stage, targets in bound:
        assert len(targets) == len(stage.targets)


def test_missing_stage_target_fails_loudly():
    broken = stages.STAGES + (stages.Stage("kernels.gone", ("kernels.no_such_function",)),)
    with pytest.raises(stages.StageMapError, match="no_such_function"):
        stages.resolve(broken)


def test_layer_map_names_known_stages_and_metrics():
    names = {s.name for s in stages.STAGES}
    workload_names = {w["name"] for w in _spec()["workloads"]}
    for stage, metrics, wls in stages.LAYER_MAP:
        assert stage in names
        assert set(metrics) <= set(harness.E2E_UNITS)
        assert set(wls) <= workload_names


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = _spec()
    catalogue = stages.per_layer_catalogue()
    names = [n for n, _, _ in catalogue] + list(harness.E2E_UNITS)
    assert len(names) == len(set(names))
    for name in names:
        assert stages.METRIC_NAME.match(name), name
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == catalogue
    for m in spec["end_to_end"]:
        assert m["unit"] == harness.E2E_UNITS[m["name"]]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_output_checks(name, tmp_path):
    wl = workloads.make(name, 3, str(tmp_path), "tiny")
    wl.prepare()
    tracer = tracing.Tracer(stages.resolve())
    sessions = harness.measure(wl, 0.0, tracer)
    for s in sessions:
        assert s["tally"].failed == 0, s["tally"].errors
    assert harness.check_losses(sessions, None)[1] == 0
    # Every layer the map assigns to this workload was exercised.
    layer = harness.per_layer(sessions)
    for stage, _, wls in stages.LAYER_MAP:
        if name in wls:
            assert layer[f"{stage}.calls"] > 0, stage
    if name == "histogram-cv":
        assert layer["decoders.simplex.fallbacks"] > 0


def test_output_check_counts_a_bad_output():
    mod = types.ModuleType("m")
    mod.f = lambda: [[1, 1]]
    check = workloads.OutputCheck(mod, "f", lambda a, k, r: ["bad"] if r[0][0] == r[0][1] else [])
    tally = workloads.Tally()
    with tally.op("call"):
        with check.installed():
            mod.f()
        check.require_clean()
    assert tally.failed == 1 and "bad" in tally.errors[0]


def test_guard_win_counts_a_result_that_differs_from_the_peel():
    tr = tracing.Tracer([])
    tr.begin_session()
    for order, result in (([1, 0], [2, 1]), ([1, 0], [1, 2])):
        tr.scratch["peel_order"] = np.array(order)
        stages._ranking(tr, "decoders.decode_ranking_fas", (), {}, np.array(result))
    assert tr.totals["decoders.ranking.guard_wins"] == 1
