"""Checks on the benchmark's own workloads and tracing.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ops  # noqa: E402
import speed  # noqa: E402
from workloads import (COLLECTIVE_KINDS, HOMOG2, WORKLOADS, Instance,  # noqa: E402
                       chain_graph, cluster, workload)

COLLECTIVES = set(COLLECTIVE_KINDS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_gives_the_same_workload(name):
    assert workload(name, 7) == workload(name, 7)
    assert workload(name, 7)


def test_seed_draws_the_clusters():
    def clusters(seed):
        return sorted(inst.cluster for inst in workload("fleet", seed))
    assert clusters(7) != clusters(8)


def test_every_mix_plan_uses_a_collective():
    rec = ops.Recorder(traced=False)
    kinds = [ops.plan(inst, rec).kinds for inst in workload("mix", 0)]
    assert all(k & COLLECTIVES for k in kinds)
    used = set().union(*kinds)
    assert {"reduce_scatter", "all_gather"} <= used


def test_no_chain_plan_uses_a_collective():
    rec = ops.Recorder(traced=False)
    het2 = cluster([175e9, 75e9], 2e-5, 12e9)
    for blocks in (1, 3, 8, 16):
        for c in (HOMOG2, het2):
            inst = Instance(f"chain{blocks}", json.dumps(chain_graph(blocks)),
                            json.dumps(c))
            assert not ops.plan(inst, rec).kinds & COLLECTIVES, inst


def test_traced_pass_writes_the_same_plans_and_nests_its_spans():
    instances = workload("fleet", 3)[:24] + workload("audit", 3)[:2]
    plain = ops.run_pass(instances, ops.Recorder(traced=False))
    rec = ops.Recorder(traced=True)
    traced = ops.run_pass(instances, rec)
    assert not plain.failures and not traced.failures
    assert traced.plans == plain.plans
    assert traced.explored == plain.explored and len(plain.explored) == 2
    # Every op opens one root span; layer spans nest inside their op.
    roots = [s for s in rec.spans if s[3] < 0]
    assert all(s[0].startswith(ops.OP_PREFIX) for s in roots)
    assert len(roots) == traced.attempted
    for name, start, end, parent, op in rec.spans:
        assert start <= end
        if parent >= 0:
            p = rec.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == op
    assert rec.counts["synthesizer.calls"] >= len(instances)
    assert rec.counts["synthesizer.enumerate_states"] == sum(plain.explored.values())


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1],
             ["c", 5.0, 6.0, 0, 1], ["d", 2.0, 3.0, 1, 1]]
    assert ops.self_times(spans) == {"a": 6.0, "b": 2.0, "c": 1.0, "d": 1.0}


def test_scaled_time_uses_the_reference_timings_around_the_operation():
    clock = speed.SpeedClock()
    clock.starts, clock.seconds = [0.0, 1.0, 2.0], [1e-3, 2e-3, 6e-3]
    expected = 0.3 * speed.REFERENCE_S / 4e-3
    assert clock.scaled(1.5, 0.3) == pytest.approx(expected)


def test_pass_time_leaves_out_the_reference_work():
    instances = workload("fleet", 3)[:6]
    clock = speed.SpeedClock()
    started = time.perf_counter()
    result = ops.run_pass(instances, ops.Recorder(traced=False), clock)
    elapsed = time.perf_counter() - started
    assert not result.failures and clock.seconds
    assert result.wall_s >= sum(dt for *_, dt in result.timings)
    assert result.wall_s == pytest.approx(elapsed - clock.spent_s, abs=1e-3)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_benchmark_json():
    import run
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, run.UNITS[k]) for k in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
