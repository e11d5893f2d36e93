"""Acceptance gate: one test per product claim, one line each under -v.

Each criterion is stated in the assert messages and checked at its stated
tolerance; the oracles (exhaustive enumeration, grids, vertex enumeration,
integer compositions, direct interpretation) live in oracles.py.  They share
no algorithmic code with the package but for the enumeration's state graph,
which criterion 04 audits: it produces its states with the package's
`SearchContext` (applicable triples, their property changes and the
search's own step function, `SearchContext.step`) and
`StagePricer.advance`.
"""
import gc
import io
import itertools
import json
import math
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import corpus
import oracles
from shardplan import (ClusterSpec, Instruction, ShardingRatios, alternate,
                       build_theory, synthesize)
from shardplan.cli import main
from shardplan.cost_model import COLLECTIVE_KINDS, build_shard_table, comm_time, round_shards
from shardplan.graph_ir import graph_from_dict
from shardplan.load_balancer import RatioProblem, build_lp, solve_lp
from shardplan.synthesizer import enumerate_programs


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _files(tmp_path):
    paths = {}
    for name, doc in corpus.CORPUS.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc))
        paths[name] = str(p)
    for cname, cdoc in (("homog2", corpus.HOMOG2), ("hetero2", corpus.HETERO2),
                        ("skew2", corpus.SKEW2)):
        p = tmp_path / f"{cname}.cluster.json"
        p.write_text(json.dumps(cdoc))
        paths[cname] = str(p)
    return paths


def test_criterion_01_plan_cost_equals_enumerated_minimum(tmp_path):
    # >= 10 graphs, <= 5 nodes, rank <= 2, m = 2; plan == enumerate exactly.
    started = time.perf_counter()
    paths = _files(tmp_path)
    graphs = corpus.corpus_graphs()
    assert len(graphs) >= 10
    for _, g in graphs:
        assert len(g.nodes) <= 5
        assert all(len(n.shape) <= 2 for n in g.nodes)
    for name, _ in graphs:
        out = str(tmp_path / f"{name}.plan.json")
        rc, _, err = _cli(["plan", paths[name], paths["homog2"], "-o", out])
        assert rc == 0, f"{name}: plan failed: {err}"
        plan_cost = json.loads(open(out).read())["estimate"]["total_s"]
        rc, stdout, err = _cli(["enumerate", paths[name], paths["homog2"]])
        assert rc == 0, f"{name}: enumerate failed: {err}"
        counts = re.search(r"explored (\d+) states, (\d+) complete", stdout)
        assert tuple(map(int, counts.groups())) == corpus.ENUMERATION_COUNTS[name], \
            f"{name}: {counts.group(0)}"
        enum_cost = float(re.search(r"minimum cost: (\S+) s", stdout).group(1))
        assert plan_cost == enum_cost, \
            f"{name}: plan cost {plan_cost!r} != enumerated minimum {enum_cost!r}"
    assert time.perf_counter() - started < 60.0


def test_criterion_02_plans_pass_verification_with_uneven_and_zero_shards(tmp_path):
    started = time.perf_counter()
    paths = _files(tmp_path)
    saw_uneven = saw_zero_shard = False
    for name in corpus.CORPUS:
        for cname in ("hetero2", "skew2"):
            out = str(tmp_path / f"{name}.{cname}.plan.json")
            rc, _, err = _cli(["plan", paths[name], paths[cname], "-o", out])
            assert rc == 0, f"{name}/{cname}: plan failed: {err}"
            doc = json.loads(open(out).read())
            saw_uneven = saw_uneven or [0.7, 0.3] in doc["ratios"]
            saw_zero_shard = saw_zero_shard or any(
                0 in sizes for sizes in doc["shard_table"].values())
            rc, stdout, err = _cli(["verify", out, paths[name], paths[cname],
                                    "--trials", "20"])
            assert rc == 0, f"{name}/{cname}: verify failed: {err or stdout}"
            m = re.search(r"equivalence: (\d+) trials, max rel err (\S+) ", stdout)
            assert m and int(m.group(1)) == 20
            assert float(m.group(2)) <= 1e-9, f"{name}/{cname}: {stdout}"
    assert saw_uneven and saw_zero_shard
    assert time.perf_counter() - started < 30.0


def test_criterion_03_every_derived_triple_is_sound():
    audited = 0
    setups = [(corpus.homog2(), ShardingRatios.uniform(2)),
              (corpus.hetero2(), ShardingRatios(rows=((0.7, 0.3),)))]
    for name, g in corpus.corpus_graphs():
        for spec, B in setups:
            table = build_shard_table(g, B)
            for guards, fuse in ((False, False), (True, True)):
                th = build_theory(g, spec.m, guards=guards, fuse=fuse)
                bad = oracles.triple_violations(g, th, spec, table)
                assert not bad, f"{name}: unsound triples: {bad[:3]}"
                audited += len(th.triples)
    assert audited > 1000  # the sweep actually covered the corpus


def test_criterion_04_completion_heuristic_is_admissible():
    # every state of every corpus graph's full state graph, at slack 0; its
    # minimum is the one criterion 01's enumeration of the triples that can
    # reach the loss finds, to the bit
    started = time.perf_counter()
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    with oracles.collector_paused():
        for name, g in corpus.corpus_graphs():
            th = build_theory(g, spec.m, guards=False, fuse=False)
            graph = oracles.state_graph(g, th, spec, B)
            assert (graph.explored, graph.complete_states) == \
                corpus.STATE_GRAPH_COUNTS[name], name
            best = min(oracles.total_s(q) for q in graph.nodes if graph.complete(q))
            assert best.hex() == enumerate_programs(g, th, spec, B).cost_s.hex(), name
            bad = oracles.admissibility_violations(g, spec, B, graph, slack=0.0)
            assert not bad, f"{name}: ecost overestimates completion: {bad[:3]}"
            del graph  # the larger graphs hold 300,000 nodes
    assert time.perf_counter() - started < 60.0


def test_criterion_05_ratio_lp_matches_grid_and_analytic_minima():
    # the three worked examples from build_lp's docstring
    slopes = RatioProblem(m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]])
    comm = RatioProblem(m=2, slope_M=1e6)
    both = RatioProblem(m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]],
                        slope_M=3.0)
    for prob, want_B, want_obj in ((slopes, [2 / 3, 1 / 3], 2 / 3),
                                   (comm, [0.5, 0.5], 5e5),
                                   (both, [0.5, 0.5], 2.5)):
        sol = solve_lp(*build_lp(prob))
        assert sol.status == "optimal"
        assert np.allclose(sol.x[:2], want_B, atol=1e-6)
        assert abs(oracles.ratio_objective(prob, sol.x[:2]) - want_obj) <= 1e-6

    rng = np.random.default_rng(5)
    for i in range(20):
        m = 2 if i < 10 else 3
        stages = int(rng.integers(1, 4))
        prob = RatioProblem(
            m=m,
            comp_a=[rng.uniform(0.0, 4.0, m).tolist() for _ in range(stages)],
            comp_c=[rng.uniform(0.0, 1.0, m).tolist() for _ in range(stages)],
            slope_M=float(rng.uniform(0.0, 3.0)) if i % 3 else 0.0)
        sol = solve_lp(*build_lp(prob))
        assert sol.status == "optimal"
        objective = oracles.ratio_objective(prob, sol.x[:m])
        grid = oracles.grid_min_objective(prob, step=1e-2)
        assert objective <= grid + 1e-6, \
            f"instance {i}: LP {objective} above grid minimum {grid}"


def test_criterion_06_shard_rounding_minimizes_l1_deviation():
    rng = np.random.default_rng(6)
    for i in range(100):
        m = 1 + i % 4
        row = tuple(rng.dirichlet(np.ones(m)))
        for extent in range(13):
            sizes = round_shards(extent, row)
            assert len(sizes) == m and sum(sizes) == extent and min(sizes) >= 0
            l1 = sum(abs(s - extent * r) for s, r in zip(sizes, row))
            best = oracles.min_l1_rounding(extent, row)
            assert abs(l1 - best) <= 1e-9, \
                f"row {i} extent {extent}: L1 {l1} vs optimum {best}"


def test_criterion_07_optimizations_preserve_cost_and_bound_expansions():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    for name, g in corpus.corpus_graphs():
        runs = {}
        for guards, fuse in itertools.product((False, True), repeat=2):
            th = build_theory(g, spec.m, guards=guards, fuse=fuse)
            runs[guards, fuse] = synthesize(g, th, spec, B)
        base = runs[False, False]
        for combo, res in runs.items():
            assert res.cost_s == base.cost_s, \
                f"{name} {combo}: cost {res.cost_s!r} != {base.cost_s!r}"
        # Fusion presupposes the guard properties: without them fused source
        # prefixes can widen the frontier, so each toggle is measured with
        # guards in place.
        for combo in ((True, False), (True, True)):
            assert runs[combo].expansions <= base.expansions, \
                f"{name} {combo}: {runs[combo].expansions} > {base.expansions}"


def test_criterion_08_alternating_loop_descends_and_terminates():
    for name, doc in corpus.CORPUS.items():
        g = graph_from_dict(doc)
        for spec, homogeneous in ((corpus.homog2(), True),
                                  (corpus.hetero2(), False)):
            res = alternate(g, spec)
            assert res.optimal, f"{name}: loop did not converge cleanly"
            assert len(res.rounds) <= 8
            halves = []
            for tr in res.rounds:
                halves.append(tr.synth_cost_s)
                if tr.balance_accepted:
                    assert tr.balance_cost_s < tr.synth_cost_s, \
                        f"{name}: accepted ratio step did not lower the cost"
                    halves.append(tr.balance_cost_s)
            for prev, nxt in zip(halves, halves[1:]):
                assert nxt <= prev * (1 + 1e-9), \
                    f"{name}: cost rose {prev!r} -> {nxt!r}"
            if homogeneous:
                for row in res.ratios.rows:
                    assert all(abs(v - 1.0 / spec.m) <= 1e-9 for v in row), \
                        f"{name}: ratios {row} not uniform"
            # the returned program is optimal for the returned ratios
            again = synthesize(g, build_theory(g, spec.m), spec, res.ratios)
            assert again.cost_s == res.cost_s, \
                f"{name}: synthesis under the returned ratios costs {again.cost_s!r}"


def test_criterion_09_chain_synthesis_time_scales_subcubically():
    spec = corpus.homog2()
    alternate(graph_from_dict(corpus.chain_graph(2)), spec)  # warm caches
    times = {}
    for blocks in (4, 8, 16, 24):
        g = graph_from_dict(corpus.chain_graph(blocks))
        compute = [n for n in g.nodes if n.op in ("MatMul", "ElemwiseUnary",
                                                  "ElemwiseBinary")]
        assert len(compute) == 3 * blocks
        # A full collection of the objects earlier tests left can take
        # several times the 4-block run (35-70 ms on a 2-vCPU VM), and where
        # it lands depends on those tests; start each timing with none due.
        gc.collect()
        t0 = time.perf_counter()
        res = alternate(g, spec)
        times[blocks] = time.perf_counter() - t0
        assert res.optimal
    assert times[24] < 30.0
    # least-squares log-log slope, timings floored against scheduler noise
    xs = np.log([float(b) for b in times])
    ys = np.log([max(t, 1e-3) for t in times.values()])
    slope = np.polyfit(xs, ys, 1)[0]
    assert 1.0 < slope < 3.0, f"slope {slope:.3f} from {times}"


CROSSOVER_GRAPH = {"nodes": [
    {"id": "x", "op": "Placeholder", "shape": [8, 6]},
    {"id": "w", "op": "Parameter", "shape": [6, 10]},
    {"id": "h", "op": "MatMul", "shape": [8, 10], "inputs": ["x", "w"]},
    {"id": "c", "op": "Placeholder", "shape": [4, 8]},
    {"id": "z", "op": "MatMul", "shape": [4, 10], "inputs": ["c", "h"]},
    {"id": "loss", "op": "Reduce", "shape": [], "inputs": ["z"],
     "attrs": {"dims": "all"}},
], "loss": "loss"}

CROSSOVER_CLUSTER = {
    "devices": [{"flops": 1e5}, {"flops": 1e5}],
    "collectives": {
        "all_gather": {"latency_s": 1e-4, "bw_Bps": 1e6},
        "grouped_broadcast": {"latency_s": 1e-5, "bw_Bps": 1e6},
        "all_reduce": {"latency_s": 1.0, "bw_Bps": 1e6},
        "reduce_scatter": {"latency_s": 1.0, "bw_Bps": 1e6},
        "all_to_all": {"latency_s": 1.0, "bw_Bps": 1e6},
    },
    "bytes_per_element": 4,
}

# Forbidding these sharding forms leaves gathering h (against replicating
# its matmul, which the flop constants make dearer) as the one route to a
# complete program, so the search must price all_gather against
# grouped_broadcast on h.
CROSSOVER_BANNED = {("h", "AG", 1), ("h", "AR", None), ("c", "AG", 1),
                    ("x", "AG", 1), ("w", "AG", 1), ("z", "AG", 1)}


def test_criterion_10_collective_choice_crosses_over_at_derived_ratio():
    g = graph_from_dict(CROSSOVER_GRAPH)
    spec = ClusterSpec.from_dict(CROSSOVER_CLUSTER)
    th = build_theory(g, spec.m, guards=True, fuse=False)
    th = th._replace(triples=tuple(
        tr for tr in th.triples
        if not any((p.ref, p.kind, p.axis) in CROSSOVER_BANNED
                   for p in oracles.decode(th, tr.pre | tr.post))))

    # equate lat_ag + bytes*x/bw with m*lat_gb + bytes/bw and solve for x
    ag, gb = spec.collectives["all_gather"], spec.collectives["grouped_broadcast"]
    nbytes = 8 * 10 * spec.bytes_per_element
    x_star = ((spec.m * gb.latency_s + nbytes / gb.bytes_per_second
               - ag.latency_s) * ag.bytes_per_second / nbytes)
    assert abs(x_star - 0.75) <= 1e-12
    assert 0.5 < x_star < 0.8  # uniform sits below the crossover, 0.8 above

    gather = Instruction("all_gather", "h", operands=("h@shard0",),
                         output="h@full", axis=0, elements=80)
    bcast = Instruction("grouped_broadcast", "h", operands=("h@shard0",),
                        output="h@full", axis=0, elements=80)
    at_star = (x_star, 1.0 - x_star)
    assert abs(comm_time(gather, at_star, spec)
               - comm_time(bcast, at_star, spec)) <= 1e-12

    for rows, winner in ((((0.5, 0.5),), "all_gather"),
                         (((0.8, 0.2),), "grouped_broadcast")):
        res = synthesize(g, th, spec, ShardingRatios(rows=rows))
        comms = [i for i in res.program.instrs if i.kind in COLLECTIVE_KINDS]
        assert [i.kind for i in comms] == [winner], \
            f"B={rows[0]}: expected {winner}, got {[i.kind for i in comms]}"
        assert comms[0].ref == "h"
