"""The package's record types hold results and settings that nothing may
change once built."""
import pytest

import corpus
from shardplan import (LoopConfig, LoopResult, SearchConfig, ShardingRatios, alternate,
                       build_theory, iteration_time, synthesize)
from shardplan.cli import load_plan, plan_document
from shardplan.cost_model import single_segment
from shardplan.graph_ir import graph_from_dict
from shardplan.interpreter import EquivalenceReport
from shardplan.load_balancer import ratio_problem, solve_lp
from shardplan.synthesizer import SearchContext, enumerate_programs

IMMUTABLE = (
    "Plan", "DeviceSpec", "CollectiveModel", "ClusterSpec", "ShardingRatios",
    "CostBreakdown", "Node", "Graph", "SegmentAssignment", "EquivalenceReport",
    "LpSolution", "LoopConfig", "RoundTrace", "LoopResult", "DistributedProgram",
    "SearchConfig", "PartialProgram", "SynthesisResult", "EnumerationResult", "Theory",
    "RatioProblem",
)


@pytest.fixture(scope="module")
def records() -> dict:
    """One value of each immutable record type, from one plan of
    `matmul_reduce` on hetero2; the `LoopResult` keeps its default rounds."""
    g = graph_from_dict(corpus.matmul_reduce())
    spec = corpus.hetero2()
    theory = build_theory(g, spec.m)
    res = alternate(g, spec, theory=theory)
    B = ShardingRatios.uniform(spec.m)
    values = [
        load_plan(plan_document(g, spec, res), g, spec.m), spec.devices[0],
        spec.collectives["all_reduce"], spec, res.ratios,
        iteration_time(res.program.instrs, res.ratios, spec), g.nodes[0],
        g, single_segment(g), EquivalenceReport(trials=1, max_rel_err=0.0, passed=True),
        solve_lp([1.0], A_eq=[[1.0]], b_eq=[1.0]), LoopConfig(), res.rounds[0],
        LoopResult(res.program, res.ratios, res.cost_s), res.program,
        SearchConfig(), SearchContext(g, theory, spec, B).root,
        synthesize(g, theory, spec, B),
        enumerate_programs(g, build_theory(g, spec.m, guards=False, fuse=False), spec, B),
        theory, ratio_problem(res.program.instrs, spec),
    ]
    return {type(v).__name__: v for v in values}


@pytest.mark.parametrize("name", IMMUTABLE)
def test_records_are_immutable(records, name):
    value = records[name]
    field = value._fields[0] if isinstance(value, tuple) else "rows"
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    if name == "LoopResult":
        # The default rounds are shared by every result built without them.
        with pytest.raises(AttributeError):
            value.rounds.append(None)
        assert value.rounds == ()
