import logging
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from shardplan import (Instruction, NoCompleteProgramError, SearchConfig,
                       ShardingRatios, assign_segments, build_theory,
                       derive_theory, graph_from_dict, iteration_time,
                       single_segment, synthesize)
from shardplan.synthesizer import (PartialProgram, SearchContext, _priority,
                                   apply_triple, dominates, enumerate_programs,
                                   prune_redundant_properties)


def _ctx(name, theory_fn=build_theory, spec=None, cfg=None):
    g = graph_from_dict(corpus.CORPUS[name])
    spec = spec or corpus.homog2()
    ctx = SearchContext(g, theory_fn(g, spec.m), spec, ShardingRatios.uniform(spec.m),
                        cfg=cfg)
    return g, ctx


def test_root_fanout_is_one_per_source_form():
    # unfused theory: the only applicable triples at the root are the source
    # rules, one per tensor form (full + one shard per axis)
    _, ctx = _ctx("matmul_reduce", derive_theory)
    assert len(oracles.expand(ctx.initial(), ctx)) == 6        # two rank-2 sources
    _, ctx = _ctx("rank1_mul", derive_theory)
    assert len(oracles.expand(ctx.initial(), ctx)) == 4        # two rank-1 sources


def test_applicable_refuses_vacuous_triples():
    _, ctx = _ctx("param_only", cfg=SearchConfig(prune_properties=False))
    root = ctx.initial()
    ti = ctx.applicable(root.props)[0]
    succ = apply_triple(root, ti, ctx)
    assert ti not in ctx.applicable(succ.props)        # its post is realized


def _triple_producing(ctx, root, output):
    return next(ti for ti in ctx.applicable(root.props)
                if ctx.triples[ti].instrs[-1].output == output)


def test_property_pruning_drops_spent_intermediates():
    g, ctx = _ctx("param_only")
    root = ctx.initial()
    succ = apply_triple(root, _triple_producing(ctx, root, "u@full"), ctx)
    names = set(map(str, ctx.props_of(succ.props)))
    # w's form fed the unary and nothing else can use it; it is gone
    assert not any(s.startswith("w|") for s in names)
    assert "u|Id" in names

    _, plain = _ctx("param_only", cfg=SearchConfig(prune_properties=False))
    kept = apply_triple(plain.initial(), _triple_producing(plain, plain.initial(), "u@full"),
                        plain)
    assert "w|Id" in set(map(str, plain.props_of(kept.props)))
    # pruning the unpruned set reproduces the pruned one
    again = prune_redundant_properties(kept.props, plain)
    assert set(map(str, plain.props_of(again))) == names


def _partial(props, closed=0.0, comm=0.0, acc=(0.0, 0.0), pending=None):
    # a collective waits for its stage's row while no computation names it
    return PartialProgram(instrs=(), props=frozenset(props), computed=frozenset(),
                          closed_s=closed, open_comm_s=comm, acc=acc, open_work=0.0,
                          remaining=0.0, stage_row_idx=None if pending else 0,
                          open_comm_instr=pending, complete=False, score_s=0.0,
                          path=())


def test_dominance_is_componentwise():
    a = _partial({1, 2}, closed=1.0, acc=(0.1, 0.1))
    b = _partial({1}, closed=1.0, acc=(0.2, 0.2))
    assert dominates(a, b) and not dominates(b, a)
    assert dominates(a, a)
    assert not dominates(_partial({1, 2}, closed=1.5), b)          # dearer stages
    assert not dominates(_partial({1, 2}, acc=(0.3, 0.0)), b)      # one device behind
    assert not dominates(_partial({1, 2}, comm=0.5), b)            # pending comm
    assert not dominates(_partial({1, 2}, pending="k"), b)         # different stage row


def test_search_on_comm_free_graph():
    g, ctx = _ctx("matmul_reduce")
    res = synthesize(g, ctx.theory, ctx.spec, ctx.B)
    assert res.complete and res.optimal and not res.exhausted
    assert res.cost_s == 144 / 2.0 ** 31
    assert res.program.loss == "loss"
    # completes through a partial-sum loss, not a gathered one
    assert res.program.instrs[-1].output in ("loss@partial", "loss@full")
    assert res.expansions >= 1
    assert res.generated >= res.expansions


def test_fusion_and_guards_preserve_the_optimum():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    for name in ("rank1_mul", "param_only", "identity_after_reduce"):
        g = graph_from_dict(corpus.CORPUS[name])
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


# States and complete states of the unfused homog2 enumeration of every
# graph the benchmark audits; merging more or fewer programs moves them.
AUDIT_COUNTS = {
    "matmul_reduce": (14445, 8378),
    "binary_add": (5084, 2294),
    "identity_after_reduce": (4834, 2476),
    "param_only": (942, 444),
    "rank1_mul": (212, 78),
    "wide_matmul": (14445, 8378),
    "skip_connection": (7011, 3205),
    "binary_mul_unary": (49577, 22641),
}


def test_enumeration_state_counts_are_pinned():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    for name, counts in AUDIT_COUNTS.items():
        g = graph_from_dict(corpus.CORPUS[name])
        res = enumerate_programs(g, build_theory(g, 2, guards=False, fuse=False), spec, B)
        assert (res.explored, res.complete_states) == counts, name


def test_enumeration_records_edges_only_for_audits():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    g = graph_from_dict(corpus.CORPUS["identity_after_reduce"])
    th = build_theory(g, 2, guards=False, fuse=False)
    plain = enumerate_programs(g, th, spec, B)
    assert plain.states is None and plain.root_key is None
    audited = enumerate_programs(g, th, spec, B, audit=True)
    assert (audited.cost_s, audited.program, audited.explored) == \
        (plain.cost_s, plain.program, plain.explored)
    assert len(audited.states) == audited.explored
    root = audited.states[audited.root_key]
    assert root.length == 0 and not root.node.instrs and root.edges
    for rec in audited.states.values():
        assert rec.length == len(rec.node.instrs)
        assert rec.complete == rec.node.complete
        # complete states are never expanded
        assert not (rec.complete and rec.edges)
        for child, delta in rec.edges:
            assert audited.states[child].length > rec.length
            assert delta >= 0.0
            # a merged state keeps its cheapest way in
            cheapest = rec.closed + delta
            assert audited.states[child].closed <= cheapest * (1 + 1e-12)


def test_search_bookkeeping_matches_evaluator_across_segments():
    # unequal rows: a boundary all_to_all pads to 0.75 instead of 0.625, and
    # a collective re-prices once its stage's first computation names a row
    spec = corpus.homog2()
    B = ShardingRatios(((0.75, 0.25), (0.375, 0.625)))
    repriced = padded = 0
    for name in ("matmul_reduce", "identity_after_reduce", "param_only",
                 "skip_connection"):
        g = graph_from_dict(corpus.CORPUS[name])
        assignment = assign_segments(g, 2)
        res = enumerate_programs(g, build_theory(g, 2, guards=False, fuse=False),
                                 spec, B, assignment=assignment, audit=True)
        for rec in res.states.values():
            q = rec.node
            exact = iteration_time(q.instrs, B, spec, assignment).total_s
            assert math.isclose(q.total_s, exact, rel_tol=1e-12, abs_tol=0.0), (name, q.instrs)
            comm = q.open_comm_instr
            if (comm is not None and q.stage_row_idx is not None
                    and assignment.row_index(comm.ref) != q.stage_row_idx):
                repriced += 1
                padded += comm.kind == "all_to_all"
        assert not oracles.admissibility_violations(g, spec, B, res, assignment), name
    assert repriced > padded > 0


def test_budget_exhaustion_is_reported():
    g = graph_from_dict(corpus.CORPUS["matmul_reduce"])
    th = derive_theory(g, 2)
    res = synthesize(g, th, corpus.homog2(), ShardingRatios.uniform(2),
                     cfg=SearchConfig(max_expansions=1))
    assert res.exhausted and not res.complete and not res.optimal
    assert res.program is None
    assert res.cost_s == float("inf")


def test_unreachable_loss_raises():
    g = graph_from_dict(corpus.CORPUS["param_only"])
    th = build_theory(g, 2)
    gutted = replace(th, triples=tuple(
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
