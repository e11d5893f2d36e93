import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from shardplan import (Instruction, NoCompleteProgramError, SearchConfig,
                       ShardingRatios, build_theory, iteration_time, synthesize)
from shardplan.cost_model import StageCost, single_segment
from shardplan.graph_ir import assign_segments, graph_from_dict
from shardplan.synthesizer import (PartialProgram, SearchContext, _priority,
                                   apply_triple, dominates, enumerate_programs)
from shardplan.theory import derive_theory


def _ctx(name, theory_fn=build_theory, spec=None):
    g = graph_from_dict(corpus.CORPUS[name])
    spec = spec or corpus.homog2()
    ctx = SearchContext(g, theory_fn(g, spec.m), spec, ShardingRatios.uniform(spec.m))
    return g, ctx


def test_root_fanout_is_one_per_source_form():
    # unfused theory: the only applicable triples at the root are the source
    # rules, one per tensor form (full + one shard per axis)
    _, ctx = _ctx("matmul_reduce", derive_theory)
    assert len(oracles.expand(ctx.initial(), ctx)) == 6        # two rank-2 sources
    _, ctx = _ctx("rank1_mul", derive_theory)
    assert len(oracles.expand(ctx.initial(), ctx)) == 4        # two rank-1 sources


def test_applicable_refuses_vacuous_triples():
    _, ctx = _ctx("param_only")
    root = ctx.initial()
    ti = ctx.applicable(root.props)[0]
    succ = apply_triple(root, ti, ctx)
    assert ti not in ctx.applicable(succ.props)        # its post is realized


def _partial(props, closed=0.0, comm=0.0, acc=(0.0, 0.0), pending=None):
    # a collective waits for its stage's row while no computation names it
    stage = StageCost(comm, acc, None if pending else 0, pending)
    return PartialProgram(instrs=(), props=frozenset(props), computed=frozenset(),
                          closed_s=closed, stage=stage, remaining=0.0,
                          complete=False, score_s=0.0, path=())


def test_dominance_is_componentwise():
    # the search compares nodes of one property set only
    a = _partial({1, 2}, closed=1.0, acc=(0.1, 0.1))
    b = _partial({1, 2}, closed=1.0, acc=(0.2, 0.2))
    assert dominates(a, b) and not dominates(b, a)
    assert dominates(a, a)
    assert not dominates(_partial({1, 2}, closed=1.5), b)          # dearer stages
    assert not dominates(_partial({1, 2}, acc=(0.3, 0.0)), b)      # one device behind
    assert not dominates(_partial({1, 2}, comm=0.5), b)            # pending comm
    assert not dominates(_partial({1, 2}, pending="k"), b)         # different stage row


def test_search_on_comm_free_graph():
    g, ctx = _ctx("matmul_reduce")
    res = synthesize(g, ctx.theory, ctx.spec, ctx.B)
    assert res.program is not None and not res.exhausted
    assert res.cost_s == 144 / 2.0 ** 31
    assert res.program.loss == "loss"
    # completes through a partial-sum loss, not a gathered one
    assert res.program.instrs[-1].output in ("loss@partial", "loss@full")
    assert res.expansions >= 1
    assert res.generated >= res.expansions


def test_fusion_and_guards_preserve_the_optimum():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    docs = {name: corpus.CORPUS[name]
            for name in ("rank1_mul", "param_only", "identity_after_reduce")}
    docs["dead_branch"] = corpus.dead_branch()
    for name, doc in docs.items():
        g = graph_from_dict(doc)
        raw = synthesize(g, derive_theory(g, 2), spec, B)
        fused = synthesize(g, build_theory(g, 2), spec, B)
        assert raw.cost_s == fused.cost_s, name
        assert fused.expansions <= raw.expansions, name


def test_three_device_search_matches_enumeration():
    spec = corpus.homog3()
    B = ShardingRatios.uniform(3)
    g = graph_from_dict(corpus.CORPUS["rank1_mul"])
    th = build_theory(g, 3)
    res = synthesize(g, th, spec, B)
    enum = enumerate_programs(g, th, spec, B)
    assert res.cost_s == enum.cost_s


def test_enumeration_agrees_with_unmerged_walk():
    # max_len=5 binds (the unlimited enumeration explores more states), and
    # the unequal rows make the two-segment case re-price collectives
    spec = corpus.homog2()
    for name in ("rank1_mul", "param_only", "identity_after_reduce", "matmul_reduce"):
        g = graph_from_dict(corpus.CORPUS[name])
        for th in (build_theory(g, 2), build_theory(g, 2, guards=False, fuse=False)):
            for B, assignment in ((ShardingRatios(((0.75, 0.25),)), single_segment(g)),
                                  (ShardingRatios(((0.75, 0.25), (0.375, 0.625))),
                                   assign_segments(g, 2))):
                every = oracles.enumerate_all_complete(g, th, spec, B, max_len=5,
                                                       assignment=assignment)
                assert every, name
                costs = [iteration_time(seq, B, spec, assignment).total_s for seq in every]
                enum = enumerate_programs(g, th, spec, B, assignment=assignment, max_len=5)
                assert enum.cost_s == min(costs), name
                assert enum.program.instrs in every, name
                assert enum.complete_states <= len(every), name
                unlimited = enumerate_programs(g, th, spec, B, assignment=assignment)
                assert enum.explored < unlimited.explored, name


# The graphs the benchmark audits; criteria 01 and 04 pin all 13.
AUDITED = ("matmul_reduce", "binary_add", "identity_after_reduce", "param_only",
           "rank1_mul", "wide_matmul", "skip_connection", "binary_mul_unary")


def test_enumeration_state_counts_are_pinned():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    for name in AUDITED:
        g = graph_from_dict(corpus.CORPUS[name])
        res = enumerate_programs(g, build_theory(g, 2, guards=False, fuse=False), spec, B)
        assert (res.explored, res.complete_states) == corpus.ENUMERATION_COUNTS[name], name


def test_state_graph_oracle_follows_the_enumeration():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    g = graph_from_dict(corpus.CORPUS["identity_after_reduce"])
    th = build_theory(g, 2, guards=False, fuse=False)
    enum = enumerate_programs(g, th, spec, B)
    graph = oracles.state_graph(g, th, spec, B)
    nodes = graph.nodes
    assert (graph.explored, graph.complete_states) == (enum.explored, enum.complete_states)
    assert min(q.total_s for q in nodes if q.complete) == enum.cost_s
    src, child, delta = graph.edges
    assert not nodes[0].instrs and 0 in src
    assert len(src) == len(child) == len(delta) > 0
    last = 0
    for s, t, d in zip(src, child, delta):
        # edges leave states in expansion order: ascending length
        assert len(nodes[s].instrs) >= last
        last = len(nodes[s].instrs)
        assert len(nodes[t].instrs) > len(nodes[s].instrs)
        # complete states are never expanded
        assert not nodes[s].complete
        assert d >= 0.0
        # a merged state keeps its cheapest way in
        assert nodes[t].closed_s <= (nodes[s].closed_s + d) * (1 + 1e-12)


def test_search_bookkeeping_matches_evaluator_across_segments():
    # a collective re-prices once its stage's first computation names a row;
    # every state's search price is what iteration_time says, bit for bit
    configs = [
        # dyadic rows: a boundary all_to_all pads to 0.75 instead of 0.625
        (corpus.homog2(), ShardingRatios(((0.75, 0.25), (0.375, 0.625)))),
        # non-dyadic rates and rows: the order in which a program's stage
        # times are added up shows in the last bits
        (corpus.hetero2(), ShardingRatios(((0.7, 0.3), (0.4, 0.6)))),
    ]
    # every state's node stays alive until its checks end
    with oracles.collector_paused():
        for spec, B in configs:
            repriced = padded = 0
            for name in ("matmul_reduce", "identity_after_reduce", "param_only",
                         "skip_connection"):
                g = graph_from_dict(corpus.CORPUS[name])
                assignment = assign_segments(g, 2)
                th = build_theory(g, 2, guards=False, fuse=False)
                graph = oracles.state_graph(g, th, spec, B, assignment=assignment)
                enum = enumerate_programs(g, th, spec, B, assignment=assignment)
                assert (graph.explored, graph.complete_states) == \
                    (enum.explored, enum.complete_states), name
                for q in graph.nodes:
                    assert q.total_s == \
                        iteration_time(q.instrs, B, spec, assignment).total_s, \
                        (name, B.rows, q.instrs)
                    comm = q.stage.comm
                    if (comm is not None and q.stage.row is not None
                            and assignment.row_index(comm.ref) != q.stage.row):
                        repriced += 1
                        padded += comm.kind == "all_to_all"
                assert not oracles.admissibility_violations(g, spec, B, graph, assignment), \
                    name
            assert repriced > padded > 0, B.rows


def test_batch_contracting_mix_finishes_within_budget_on_hetero2():
    # the open stage's slowest device bounds the completion, so the search
    # proves the optimum in 426 expansions; a bound that spreads the
    # remaining work over the whole cluster exhausts 3,000 here, at a cost
    # 7.5 times this one
    spec = corpus.hetero2()
    g = graph_from_dict(corpus.mix_graph(2, 32, 32))
    res = synthesize(g, build_theory(g, 2), spec, ShardingRatios.proportional_to_flops(spec),
                     cfg=SearchConfig(max_expansions=1000))
    assert not res.exhausted
    assert f"{res.cost_s:.9e}" == "2.843989333e-06"


def test_chain_at_one_sided_ratios_finishes_within_budget():
    # at B = (0, 1) device 1 runs all sharded work: 16 expansions; a bound
    # that spreads the remaining work over both devices needs 3,672
    spec = corpus.hetero2()
    g = graph_from_dict(corpus.chain_graph(2))
    res = synthesize(g, build_theory(g, 2), spec, ShardingRatios(((0.0, 1.0),)),
                     cfg=SearchConfig(max_expansions=100))
    assert not res.exhausted and res.program is not None


def test_budget_exhaustion_is_reported():
    g = graph_from_dict(corpus.CORPUS["matmul_reduce"])
    th = derive_theory(g, 2)
    res = synthesize(g, th, corpus.homog2(), ShardingRatios.uniform(2),
                     cfg=SearchConfig(max_expansions=1))
    assert res.exhausted
    assert res.program is None
    assert res.cost_s == float("inf")


def test_unreachable_loss_raises():
    g = graph_from_dict(corpus.CORPUS["param_only"])
    th = build_theory(g, 2)
    gutted = th._replace(triples=tuple(
        tr for tr in th.triples if all(str(p) != "loss|AR" for p in tr.post)))
    with pytest.raises(NoCompleteProgramError):
        synthesize(g, gutted, corpus.homog2(), ShardingRatios.uniform(2))


def test_context_rejects_mismatched_shapes():
    g = graph_from_dict(corpus.CORPUS["param_only"])
    th = build_theory(g, 2)
    with pytest.raises(ValueError, match="device count"):
        SearchContext(g, th, corpus.homog2(), ShardingRatios.uniform(3))
    with pytest.raises(ValueError, match="segment count"):
        SearchContext(g, th, corpus.homog2(), ShardingRatios.uniform(2, g=2))


def test_search_trace_logging(caplog):
    g = graph_from_dict(corpus.CORPUS["param_only"])
    with caplog.at_level(logging.DEBUG, logger="shardplan.synthesizer"):
        synthesize(g, build_theory(g, 2), corpus.homog2(), ShardingRatios.uniform(2))
    assert any("expand #1" in r.getMessage() for r in caplog.records)


# ---------------------------------------------------------------------------
# Heap priority quantization.


def test_priority_merges_accumulation_noise():
    assert _priority(0.0) == 0.0
    assert _priority(0.1 + 0.2) == _priority(0.3)
    # real cost differences stay separated at any scale
    for x in (1.0, 2.0 ** -40, 3.7e8):
        assert _priority(x * (1 + 1e-6)) > _priority(x)


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_priority_is_idempotent_and_close(x):
    p = _priority(x)
    assert _priority(p) == p
    assert abs(p - x) <= x * 2.0 ** -30


@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_priority_is_weakly_monotone(a, b):
    lo, hi = sorted((a, b))
    assert _priority(lo) <= _priority(hi)
