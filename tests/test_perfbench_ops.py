"""The package names the benchmark calls keep working, so that a break in
them fails here and not in a benchmark run.  `perfbench/ops.py` and the
modules it imports are loaded from their files as they stand."""
import dataclasses
import importlib.util
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).parents[1] / "perfbench"


@pytest.fixture
def ops(monkeypatch):
    """`perfbench/ops.py`, with `speed` and `workloads`, the modules it
    imports by name, bound in `sys.modules` for the test only."""
    modules = {}
    for name in ("speed", "workloads", "ops"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["ops"], modules["workloads"]


def test_benchmark_plans_verifies_and_enumerates(ops):
    ops, workloads = ops
    rec = ops.Recorder(traced=False)
    fleet = next(inst for inst in workloads.workload("fleet", 0) if inst.name.endswith("s4"))
    planned = ops.plan(fleet, rec)
    assert planned.optimal
    assert ops.verify(fleet, planned.text, rec) is None
    # the segment count is unread
    assert ops.plan(dataclasses.replace(fleet, segments=1), rec).text == planned.text
    audit = workloads.workload("audit", 0)[0]
    minimum, explored = ops.enumerate_minimum(audit, rec)
    assert explored > 0 and ops.plan(audit, rec).cost_s == minimum
