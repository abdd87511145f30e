"""The benchmark's hook protocol, checked on every test run.

`perfbench/run.py --trace 1` wraps fedval's layer functions from outside
and requires exact call counts for them.  A refactor that reroutes one of
those calls (or moves a function the tracer rebinds) breaks the benchmark,
not the library, so the library's own tests would not notice.  Here one
traced repetition of every workload runs in a fresh process, exactly as
the benchmark runs it (`src` on the path, BLAS pinned to one thread), and
its counts go through the benchmark's own check.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("fedval-k100", "qfedavg-k10", "afl-k10", "sweep-trend")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))  # run.py imports its sibling modules by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_repetition_fires_every_hook_as_the_protocol_says(bench, tmp_path, workload):
    record = bench.run_child(workload, 0, True, tmp_path / workload)
    assert "error" not in record, record.get("error")
    assert record["failed"] == 0, record["problems"]
    assert bench.check_hooks(workload, 0, [record]) == []
