"""`tools/same_results.py`: an A/A run of this checkout against itself on
one seed, and the seed comparison it reports from."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import same_results  # noqa: E402


def test_a_checkout_gives_its_own_results_on_one_seed():
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "same_results.py"),
                           ROOT, ROOT, "--seeds", "1"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [f"{job}: 1/1 seeds ==" for job in same_results.JOBS]


def test_a_seed_differs_when_any_value_or_hash_differs():
    old = {"0": {"a": [0.5]}, "1": {"a": [0.25]}, "2": {"robust": "ab"}}
    new = {"0": {"a": [0.5]}, "1": {"a": [0.25 + 2.0 ** -54]}, "2": {"robust": "ac"}}
    assert same_results.differing_seeds(old, new) == ["1", "2"]
    assert same_results.differing_seeds(old, old) == []


def test_a_differing_seed_names_each_differing_entry():
    old = {"train": {"code": 0}, "cv": {"code": 1}, "gone": 1}
    new = {"train": {"code": 0}, "cv": {"code": 2}, "added": 2}
    assert same_results.differences(old, new) == [(" [cv]", {"code": 1}, {"code": 2}),
                                                  (" [gone]", 1, None), (" [added]", None, 2)]
    assert same_results.differences([0.5], [0.25]) == [("", [0.5], [0.25])]
