"""The verdict rule, the output comparison and the source state of scripts/bench_pairs.py, on made-up runs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

from bench_pairs import (  # noqa: E402
    environment_commit,
    equal_outputs,
    side_commit,
    source_state,
    summary_digests,
    verdict,
)


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_parent_iqr():
    assert verdict([(10.0, 9.0)] * 9 + [(10.0, 11.0)], "lower", 0.25) == "gain"
    assert verdict([(10.0, 9.0)] * 8 + [(10.0, 11.0)] * 2, "lower", 0.25) == "no change"
    # every pair won, but by less than the parent's own spread: with that
    # spread inside the bound no sign of a change, beyond it unresolved
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    assert verdict([(p, p - 0.1) for p in parent], "lower", 0.5) == "no change"
    assert verdict([(p, p - 0.1) for p in parent], "lower", 0.2) == "unresolved"
    assert verdict([(100.0, 120.0)] * 10, "higher", 0.25) == "gain"


def test_worse_means_beyond_the_bound():
    assert verdict([(10.0, 13.0)] * 10, "lower", 0.25) == "worse"
    assert verdict([(10.0, 12.0)] * 10, "lower", 0.25) == "no change"
    assert verdict([(100.0, 70.0)] * 10, "higher", 0.25) == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    pairs = [(10.0, 10.0), (20.0, 20.0), (5.0, 5.0), (10.0, 10.0)]
    assert verdict(pairs, "lower", 0.25) == "unresolved"
    # unless every run of the change reads better than every run of the parent
    assert verdict([(20.0, 4.0), (30.0, 1.0), (25.0, 9.0), (40.0, 2.0)], "lower", 0.25) == "gain"
    assert verdict([(20.0, 10.0), (30.0, 19.0), (21.0, 18.0), (40.0, 19.5)], "lower", 0.25) != "unresolved"


def _stdout(workload, digests, commit=None):
    """What perfbench/run.py prints for one workload: environment, summary, table and last line."""
    summary = {"workload": workload, "seed": 0, "traced": False, "repetitions": 3, "final": [{}]}
    if digests is not None:
        summary["digests"] = digests
    environment = {"python": "3"} if commit is None else {"python": "3", "commit": commit}
    return "\n".join([
        json.dumps({"environment": environment}),
        json.dumps(summary),
        f"== {workload}  seed 0  3 repetitions  fail_ratio 0.0000 (0/3 experiments)",
        "   wall_s      0.15 s  n=3  q1 0.14  q3 0.16",
        json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}}),
    ]) + "\n"


def test_summary_digests_are_read_from_the_workloads_summary_line():
    assert summary_digests(_stdout("afl-k10", ["ab", "cd"]), "afl-k10") == ["ab", "cd"]
    assert summary_digests(_stdout("afl-k10", ["ab"]), "fedval-k100") is None
    assert summary_digests(_stdout("afl-k10", None), "afl-k10") is None  # every repetition failed
    assert summary_digests("{not json\n" + _stdout("afl-k10", ["ab"]), "afl-k10") == ["ab"]


def test_equal_outputs_counts_pairs_where_both_runs_have_digests():
    def run(digests):
        return {"metrics": {}, "digests": digests}

    runs = [
        (run(["a", "b"]), run(["a", "b"])),
        (run(["a", "b"]), run(["a", "x"])),
        (run(["a"]), None),  # a failed run
        (run(None), run(["a"])),
        (run(["c"]), run(["c"])),
    ]
    assert equal_outputs(runs) == (2, 3)
    assert equal_outputs([]) == (0, 0)


def test_each_sides_commit_is_read_from_the_environment_line():
    assert environment_commit(_stdout("afl-k10", ["ab"], commit="b38c57e")) == "b38c57e"
    assert environment_commit(_stdout("afl-k10", ["ab"])) is None
    assert environment_commit("{not json\n" + _stdout("afl-k10", ["ab"], commit="b38c57e")) == "b38c57e"

    def run(commit):
        return {"metrics": {}, "digests": None, "commit": commit}

    # a failed run and one whose output names no commit come first
    assert side_commit([None, run(None), run("b38c57e")]) == "b38c57e"
    assert side_commit([None, run(None)]) == "unknown"


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                    "-c", "commit.gpgsign=false", *args], cwd=cwd, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_source_state_tells_uncommitted_sources_from_their_commit(tmp_path):
    sides = {}
    for side in ("parent", "change"):
        checkout = sides[side] = tmp_path / side
        (checkout / "src" / "fedval").mkdir(parents=True)
        (checkout / "src" / "fedval" / "model.py").write_text("x = 1\n")
        (checkout / "README.md").write_text("fedval\n")
        _git(checkout, "init", "-q")
        _git(checkout, "add", "-A")
        _git(checkout, "commit", "-q", "-m", "seed")
    clean = source_state(sides["parent"])
    assert clean.startswith("src clean, src/fedval/*.py sha256 ")
    assert source_state(sides["change"]) == clean  # the same sources, the same digest

    # a change outside src/ leaves the sources as committed
    (sides["change"] / "README.md").write_text("changed\n")
    assert source_state(sides["change"]) == clean
    (sides["change"] / "src" / "fedval" / "model.py").write_text("x = 2\n")
    changed = source_state(sides["change"])
    assert changed.startswith("src modified, ") and changed[-12:] != clean[-12:]
    # a new module counts too
    (sides["parent"] / "src" / "fedval" / "extra.py").write_text("")
    assert source_state(sides["parent"]).startswith("src modified, ")
    assert source_state(sides["parent"])[-12:] != clean[-12:]


def test_source_state_of_a_directory_outside_git(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # no repository above it either
    (tmp_path / "src" / "fedval").mkdir(parents=True)
    assert source_state(tmp_path).startswith("src status unknown, src/fedval/*.py sha256 ")
