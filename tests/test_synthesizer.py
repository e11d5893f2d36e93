import heapq
import math
import operator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from shardplan import (Instruction, NoCompleteProgramError, SearchConfig,
                       ShardingRatios, build_theory, iteration_time, synthesize)
from shardplan.cost_model import StageCost, StagePricer
from shardplan.graph_ir import graph_from_dict
from shardplan.synthesizer import (OPTIMALITY_MARGIN, PartialProgram, SearchContext,
                                   _priority, enumerate_programs)
from shardplan.theory import Property, all_gather, all_reduce, derive_theory, relevant


def _ctx(name, theory_fn=build_theory, spec=None):
    g = graph_from_dict(corpus.CORPUS[name])
    spec = spec or corpus.homog2()
    ctx = SearchContext(g, theory_fn(g, spec.m), spec, ShardingRatios.uniform(spec.m))
    return g, ctx


def test_root_fanout_is_one_per_source_form():
    # unfused theory: the only applicable triples at the root are the source
    # rules, one per tensor form (full + one shard per axis)
    _, ctx = _ctx("matmul_reduce", derive_theory)
    assert len(oracles.expand(ctx.root, ctx)) == 6             # two rank-2 sources
    _, ctx = _ctx("rank1_mul", derive_theory)
    assert len(oracles.expand(ctx.root, ctx)) == 4             # two rank-1 sources


def test_applicable_refuses_vacuous_triples():
    _, ctx = _ctx("param_only")
    root = ctx.root
    ti = ctx.applicable(root.props)[0]
    succ = ctx.step(root, ti)
    assert ti not in ctx.applicable(succ.props)        # its post is realized


def _partial(props, closed=0.0, comm=0.0, acc=(0.0, 0.0)):
    stage = StageCost(comm, acc, None)
    return PartialProgram(props=sum(1 << p for p in props), computed=0, closed_s=closed,
                          stage=stage, remaining=0.0, score_s=0.0, path=(), depth=0)


def _search_pushes(g, th, spec, B):
    """The result of one search, every successor its step built, in order,
    every node it pushed, its root and its context's loss property bit."""
    built, seen = [], {}
    closures = SearchContext._closures

    def recording(ctx, *args):
        root, opened_stage, step = closures(ctx, *args)
        seen["root"], seen["loss"] = root, ctx.loss_bit

        def record(q, ti):
            built.append(step(q, ti))
            return built[-1]
        return root, opened_stage, record

    with mock.patch.object(SearchContext, "_closures", recording), \
            mock.patch("heapq.heappush", wraps=heapq.heappush) as push:
        res = synthesize(g, th, spec, B)
    return res, built, [c.args[1][3] for c in push.call_args_list], seen["root"], seen["loss"]


def test_dominance_is_componentwise():
    # the search compares nodes of one property set only
    dominates = oracles.dominates
    a = _partial({1, 2}, closed=1.0, acc=(0.1, 0.1))
    b = _partial({1, 2}, closed=1.0, acc=(0.2, 0.2))
    assert dominates(a, b) and not dominates(b, a)
    assert dominates(a, a)
    assert not dominates(_partial({1, 2}, closed=1.5), b)          # dearer stages
    assert not dominates(_partial({1, 2}, acc=(0.3, 0.0)), b)      # one device behind
    assert not dominates(_partial({1, 2}, comm=0.5), b)            # pending comm
    # The search's own comparison keeps and drops what this rule does: replay
    # its successors through the rule, with its bound, and push the same
    # nodes.
    mix = graph_from_dict(corpus.mix_graph(2, 32, 32))
    gram = graph_from_dict(corpus.gram())
    for g, spec, B in (
            (mix, corpus.hetero2(), ShardingRatios.proportional_to_flops(corpus.hetero2())),
            (gram, corpus.slow2(), ShardingRatios(((0.25, 0.75),)))):
        res, built, pushed, root, loss = _search_pushes(g, build_theory(g, 2), spec, B)
        best_s = bound = math.inf
        buckets, kept, purged = {root.props: [root]}, [], 0
        for succ in built:
            if succ.props & loss:
                if oracles.total_s(succ) < best_s:
                    best_s = oracles.total_s(succ)
                    bound = best_s - OPTIMALITY_MARGIN * abs(best_s)
            elif succ.score_s < bound:
                bucket = buckets.setdefault(succ.props, [])
                if any(dominates(other, succ) for other in bucket):
                    purged += 1
                else:
                    bucket.append(succ)
                    kept.append(succ)
        assert res.purged == purged > 0 and res.cost_s == best_s
        assert len(pushed) == len(kept) and all(map(operator.is_, pushed, kept))


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
    # max_len=4 binds (the unlimited enumeration explores more states); the
    # unmerged walk covers the full theory, the enumeration the triples that
    # can reach the loss.  (No bound binds on rank1_mul's: each of their
    # complete programs has 4 instructions.)
    spec = corpus.homog2()
    for name in ("binary_add", "param_only", "identity_after_reduce", "matmul_reduce"):
        g = graph_from_dict(corpus.CORPUS[name])
        for th in (build_theory(g, 2), build_theory(g, 2, guards=False, fuse=False)):
            for row in ((0.75, 0.25), (0.375, 0.625)):
                B = ShardingRatios((row,))
                every = oracles.enumerate_all_complete(g, th, spec, B, max_len=4)
                assert every, name
                costs = [iteration_time(seq, B, spec).total_s for seq in every]
                enum = enumerate_programs(g, th, spec, B, max_len=4)
                assert enum.cost_s == min(costs), name
                assert enum.program.instrs in every, name
                assert enum.complete_states <= len(every), name
                unlimited = enumerate_programs(g, th, spec, B)
                assert enum.explored < unlimited.explored, name


def test_enumeration_state_counts_are_pinned():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    for name in corpus.AUDITED:
        g = graph_from_dict(corpus.CORPUS[name])
        res = enumerate_programs(g, build_theory(g, 2, guards=False, fuse=False), spec, B)
        assert (res.explored, res.complete_states) == corpus.ENUMERATION_COUNTS[name], name


def state_graph_minimum(g, th, spec, B) -> float:
    """The cheapest complete state of the state graph of the theory `th`."""
    with oracles.collector_paused():
        graph = oracles.state_graph(g, th, spec, B)
        return min(oracles.total_s(q) for q in graph.nodes if graph.complete(q))


@pytest.mark.parametrize("name", ["gram", "dead_branch"])
def test_enumeration_of_what_reaches_the_loss_keeps_the_full_minimum(name):
    # on five clusters, at uniform and at speed-proportional ratios
    g = graph_from_dict(getattr(corpus, name)())
    th = build_theory(g, 2, guards=False, fuse=False)
    for cname in ("homog2", "hetero2", "skew2", "slowhet2", "slow2"):
        spec = getattr(corpus, cname)()
        for rows in {ShardingRatios.uniform(2).rows,
                     ShardingRatios.proportional_to_flops(spec).rows}:
            B = ShardingRatios(rows)
            full = state_graph_minimum(g, th, spec, B)
            assert enumerate_programs(g, th, spec, B).cost_s.hex() == full.hex(), (name, cname)


def test_state_graph_oracle_follows_the_enumeration():
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    g = graph_from_dict(corpus.CORPUS["identity_after_reduce"])
    th = build_theory(g, 2, guards=False, fuse=False)
    enum = enumerate_programs(g, th, spec, B)
    graph = oracles.state_graph(g, relevant(th), spec, B)
    nodes = graph.nodes
    assert (graph.explored, graph.complete_states) == (enum.explored, enum.complete_states)
    assert min(oracles.total_s(q) for q in nodes if graph.complete(q)) == enum.cost_s
    src, child, delta = graph.edges
    assert not graph.instrs(nodes[0]) and 0 in src
    assert len(src) == len(child) == len(delta) > 0
    last = 0
    for s, t, d in zip(src, child, delta):
        # edges leave states in expansion order: ascending length
        assert nodes[s].depth >= last
        last = nodes[s].depth
        assert nodes[t].depth > nodes[s].depth == len(graph.instrs(nodes[s]))
        # complete states are never expanded
        assert not graph.complete(nodes[s])
        assert d >= 0.0
        # a merged state keeps its cheapest way in
        assert nodes[t].closed_s <= (nodes[s].closed_s + d) * (1 + 1e-12)


def _matches_state_graph(g, th, spec, B):
    """The oracle's state graph of what the enumeration walks, the triples
    that can reach the loss, once the enumeration's counts and cost bits
    are checked against it."""
    th = relevant(th)
    graph = oracles.state_graph(g, th, spec, B)
    enum = enumerate_programs(g, th, spec, B)
    assert (graph.explored, graph.complete_states) == (enum.explored, enum.complete_states)
    best = min(oracles.total_s(q) for q in graph.nodes if graph.complete(q))
    assert best.hex() == enum.cost_s.hex()
    return graph


def _rules(g) -> dict[str, oracles.SetTriple]:
    """The graph's derived triples, over sets of properties, by their
    instruction's canonical text."""
    return {tr.instrs[0].canonical(): tr for tr in oracles.reference_theory(g, 2).triples}


def test_collective_fired_from_the_empty_root_stage_closes_it_free():
    # with h's row shards given, the cheapest program gathers h first; the
    # empty stage that all_gather closes charges nothing
    g = graph_from_dict(corpus.gram())
    th = oracles.mask_theory(oracles.reference_theory(g, 2)._replace(
        initial_props=frozenset({all_gather("h", 0)})))
    graph = _matches_state_graph(g, th, corpus.slow2(), ShardingRatios(((0.25, 0.75),)))
    first = [q for q in graph.nodes if q.depth == 1 and graph.instrs(q)[0].is_comm]
    assert {graph.instrs(q)[0].kind for q in first} == {"all_gather", "grouped_broadcast",
                                                         "all_to_all"}
    assert all(q.closed_s == 0.0 for q in first)
    best = min((q for q in graph.nodes if graph.complete(q)), key=oracles.total_s)
    assert graph.instrs(best)[0].kind == "all_gather"


def test_collective_fires_from_the_state_that_closes_its_stage_cheapest():
    # A hand-built theory fires a sharded and a replicated matmul, x's
    # all_gather after the sharded one, w's after all three, then the loss.
    # At (0.1, 0.9) the sharded matmul peaks on the fast device and the
    # replicated one on the slow device.  Running both before x's gather
    # closes a dearer stage than running the replicated one after it, but
    # is cheaper once w's gather closes the stage x's opened: only that
    # state may fire w's gather.
    g = graph_from_dict(corpus.CORPUS["matmul_reduce"])
    rule = _rules(g).__getitem__
    sharded, replicated, gather_x, gather_w, reduce = (rule(c).instrs for c in (
        "h@shard0<-matmul/h(x@shard0,w@full)", "h@full<-matmul/h(x@full,w@full)",
        "x@full<-all_gather/x/d=0(x@shard0)", "w@full<-all_gather/w/d=0(w@shard0)",
        "loss@partial<-reduce/loss(h@shard0)"))
    a, b, c1, c2 = (frozenset({Property(f"step{i}", "done")}) for i in range(4))
    th = oracles.mask_theory(oracles.SetTheory(
        triples=(oracles.SetTriple(frozenset(), sharded, a),
                 oracles.SetTriple(frozenset(), replicated, b),
                 oracles.SetTriple(a, gather_x, c1),
                 oracles.SetTriple(a | b | c1, gather_w, c2),
                 oracles.SetTriple(c2, reduce, frozenset({all_reduce("loss")}))),
        loss="loss"))
    spec, B = corpus.slow2(), ShardingRatios(((0.1, 0.9),))
    _matches_state_graph(g, th, spec, B)
    program = enumerate_programs(g, th, spec, B).program.instrs
    assert program == sharded + replicated + gather_x + gather_w + reduce


def _chain(*triples: oracles.SetTriple) -> oracles.SetTriple:
    """One triple that fires `triples` in turn."""
    pre, post = frozenset(), frozenset()
    for tr in triples:
        pre |= tr.pre - post
        post |= tr.post
    return oracles.SetTriple(pre, tuple(i for tr in triples for i in tr.instrs), post)


@pytest.mark.parametrize("row", [1, 2])
def test_triples_that_open_with_a_collective_match_the_state_graph(row):
    # [all_gather x; matmul] closes only the open stage; [all_to_all x;
    # matmul; reduce_scatter h; reduce] closes its all_to_all's stage too,
    # and both can reach the loss,
    # so the enumeration must step it from each state's own stage: on this
    # slow cluster, skipping that stage's charge would make the second
    # chain the cheapest way to the loss.  Each triple posts a property of
    # its own: a property set then tells which triples fired, and so its
    # length, as the state graph oracle requires.
    g = graph_from_dict(corpus.CORPUS["matmul_reduce"])
    raw = oracles.reference_theory(g, 2)
    rule = _rules(g).__getitem__
    chains = (_chain(rule("x@full<-all_gather/x/d=0(x@shard0)"),
                     rule("h@shard1<-matmul/h(x@full,w@shard1)")),
              _chain(rule("x@shard1<-all_to_all/x/d=0/d2=1(x@shard0)"),
                     rule("h@partial<-matmul/h(x@shard1,w@shard0)"),
                     rule("h@shard0<-reduce_scatter/h/d=0(h@partial)"),
                     rule("loss@partial<-reduce/loss(h@shard0)")))
    triples = [rule(c) for c in (
        "x@shard0<-placeholder_shard/x/d=0()", "x@shard1<-placeholder_shard/x/d=1()",
        "w@full<-parameter/w()", "w@shard0<-parameter_shard/w/d=0()",
        "w@shard1<-parameter_shard/w/d=1()",
        "h@shard0<-matmul/h(x@shard0,w@full)", "h@partial<-matmul/h(x@shard1,w@shard0)",
        "h@shard1<-matmul/h(x@full,w@shard1)", "loss@partial<-reduce/loss(h@shard0)",
        "loss@partial<-reduce/loss(h@shard1)",
        "loss@partial<-reduce/loss(h@partial)", "x@full<-all_gather/x/d=0(x@shard0)",
        "x@shard1<-all_to_all/x/d=0/d2=1(x@shard0)",
        "h@shard0<-reduce_scatter/h/d=0(h@partial)", "h@full<-all_gather/h/d=0(h@shard0)")]
    th = oracles.mask_theory(raw._replace(triples=tuple(
        tr._replace(post=tr.post | {Property(tr.instrs[-1].ref, f"fired{i}")})
        for i, tr in enumerate(triples + list(chains)))))
    spec = corpus.slow2()
    B = ShardingRatios((ROWS[row - 1],))
    pricer = StagePricer(spec, B)
    assert [len(pricer.advance(pricer.empty, tr.instrs)[0]) for tr in chains] == [0, 1]
    with oracles.collector_paused():
        graph = _matches_state_graph(g, th, spec, B)
        for tr in chains:
            assert any(graph.instrs(q)[-len(tr.instrs):] == tr.instrs for q in graph.nodes)


# Ratio rows the tests below price at: the first or the second.
ROWS = ((0.7, 0.3), (0.4, 0.6))

# Corpus graphs whose state graphs stay small on every cluster below (on
# slowhet2 they reach 54 to 558 distinct open stages); their reduce leaves
# partial sums that all_reduce and reduce_scatter read.
STEP_GRAPHS = ("rank1_mul", "param_only", "identity_after_reduce")


@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("cluster", ["homog2", "hetero2", "slowhet2"])
def test_step_prices_every_triple_as_advance_does(cluster, row):
    # From every open stage the state graph reaches, every triple of the raw
    # theory and the fused ones of the planner's theory, plus chains that
    # take the general path (two computations with flops, a collective after
    # a computation, two collectives), must leave the stage and closed cost
    # `advance` gives, bit for bit.  A triple that only computes takes one
    # add from any stage, the empty root stage too, and a collective-first
    # triple its memoized stage; everything else must walk `advance`.
    spec = getattr(corpus, cluster)()
    B = ShardingRatios((ROWS[row - 1],))
    real = StagePricer.advance
    paths = {"advance": 0, "one add": 0, "opened": 0}
    root_adds = 0
    for name in STEP_GRAPHS:
        g = graph_from_dict(corpus.CORPUS[name])
        raw = oracles.reference_theory(g, 2)
        busy = [tr for tr in raw.triples if tr.instrs[0].flops]
        comm = [tr for tr in raw.triples if tr.instrs[0].is_comm]
        chains = (_chain(busy[0], busy[-1]), _chain(busy[0], comm[0]),
                  _chain(comm[0], busy[0]), _chain(comm[0], busy[0], comm[-1]))
        fused = tuple(tr for tr in oracles.reference_build(g, 2).triples if len(tr.instrs) > 1)
        th = oracles.mask_theory(raw._replace(triples=raw.triples + fused + chains))
        calls = []

        def counting(pricer, stage, instrs):
            calls.append(stage)
            return real(pricer, stage, instrs)
        with mock.patch.object(StagePricer, "advance", counting):
            ctx = SearchContext(g, th, spec, B)
        pricer = ctx.pricer
        # per triple: whether it walks `advance`
        walks = [bool(real(pricer, pricer.empty, tr.instrs)[0]) if tr.instrs[0].is_comm
                 else sum(bool(i.flops) for i in tr.instrs) > 1
                 or any(i.is_comm for i in tr.instrs) for tr in th.triples]
        with oracles.collector_paused():
            graph = oracles.state_graph(g, derive_theory(g, 2), spec, B)
        for q in {q.stage: q for q in reversed(graph.nodes)}.values():
            for ti, tr in enumerate(th.triples):
                closes, stage = real(pricer, q.stage, tr.instrs)
                closed = q.closed_s
                for done in closes:
                    closed += done.time_s
                start = len(calls)
                succ = ctx.step(q, ti)
                general = walks[ti]
                assert any(st is q.stage for st in calls[start:]) == general, \
                    (name, q.stage, tr.instrs)
                assert succ.closed_s.hex() == closed.hex(), (name, q.stage, tr.instrs)
                assert list(map(float.hex, (succ.stage.comm_s, *succ.stage.comp_s))) == \
                    list(map(float.hex, (stage.comm_s, *stage.comp_s)))
                assert succ.stage.comm == stage.comm, (name, q.stage, tr.instrs)
                opened = not general and tr.instrs[0].is_comm
                adds = not general and not opened and any(i.flops for i in tr.instrs)
                paths["advance"] += general
                paths["opened"] += opened
                paths["one add"] += adds
                root_adds += adds and q.stage == pricer.empty
    assert paths["advance"] and paths["one add"] and paths["opened"], paths
    assert root_adds, paths


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
        tr for tr in th.triples if all(str(p) != "loss|AR" for p in oracles.decode(th, tr.post))))
    with pytest.raises(NoCompleteProgramError):
        synthesize(g, gutted, corpus.homog2(), ShardingRatios.uniform(2))


def test_context_rejects_mismatched_shapes():
    g = graph_from_dict(corpus.CORPUS["param_only"])
    th = build_theory(g, 2)
    with pytest.raises(ValueError, match="device count"):
        SearchContext(g, th, corpus.homog2(), ShardingRatios.uniform(3))


# ---------------------------------------------------------------------------
# Heap priority quantization.


def test_priority_merges_accumulation_noise():
    assert _priority(0.0) == 0.0
    assert _priority(0.1 + 0.2) == _priority(0.3)
    # real cost differences stay separated at any scale
    for x in (1.0, 2.0 ** -40, 3.7e8):
        assert _priority(x * (1 + 1e-6)) > _priority(x)


@settings(derandomize=True, database=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_priority_is_idempotent_and_close(x):
    p = _priority(x)
    assert _priority(p) == p
    assert abs(p - x) <= x * 2.0 ** -30


@settings(derandomize=True, database=None, max_examples=100)
@given(st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
       st.floats(min_value=0.0, max_value=1e12, allow_nan=False))
def test_priority_is_weakly_monotone(a, b):
    lo, hi = sorted((a, b))
    assert _priority(lo) <= _priority(hi)
