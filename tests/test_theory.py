import collections
import itertools

import pytest

import corpus
import oracles
from shardplan import (ShardingRatios, build_shard_table, build_theory,
                       iteration_time)
from shardplan.cost_model import single_segment
from shardplan.graph_ir import graph_from_dict
from shardplan.synthesizer import SearchContext
from shardplan.theory import (GUARD_KINDS, Instruction, all_gather, all_reduce,
                              bits, communicated, derive_theory,
                              fuse_empty_preconditions, identity,
                              not_communicated, relevant)


def _props_of(ctx, mask):
    """The properties behind a search node's property set: bit i of the
    mask stands for `props[i]` of the context's theory."""
    return oracles.decode(ctx.theory, mask)


def _signatures(theory):
    return {(frozenset(map(str, t.pre)),
             ";".join(i.canonical() for i in t.instrs),
             frozenset(map(str, t.post))) for t in oracles.set_theory(theory).triples}


def _has_rule(theory, pre, post):
    pre, post = frozenset(map(str, pre)), frozenset(map(str, post))
    return any(frozenset(map(str, t.pre)) - pre == frozenset()
               and pre == frozenset(str(p) for p in t.pre)
               and post <= frozenset(map(str, t.post))
               for t in oracles.set_theory(theory).triples)


def test_triple_counts_on_matmul_graph():
    g = graph_from_dict(corpus.matmul_reduce())
    assert len(derive_theory(g, 2).triples) == 42
    assert len(build_theory(g, 2).triples) == 30


def test_triples_do_not_depend_on_device_count():
    for name, g in corpus.corpus_graphs():
        assert _signatures(derive_theory(g, 2)) == _signatures(derive_theory(g, 3)), name


def test_source_rules():
    g = graph_from_dict(corpus.matmul_reduce())
    t = derive_theory(g, 2)
    assert _has_rule(t, [], [identity("x")])
    assert _has_rule(t, [], [all_gather("x", 0)])
    assert _has_rule(t, [], [all_gather("x", 1)])
    assert _has_rule(t, [], [identity("w")])
    assert _has_rule(t, [], [all_gather("w", 0)])
    assert _has_rule(t, [], [all_gather("w", 1)])


def test_matmul_rules():
    g = graph_from_dict(corpus.matmul_reduce())
    t = derive_theory(g, 2)
    assert _has_rule(t, [identity("x"), identity("w")], [identity("h")])
    assert _has_rule(t, [all_gather("x", 0), identity("w")], [all_gather("h", 0)])
    assert _has_rule(t, [identity("x"), all_gather("w", 1)], [all_gather("h", 1)])
    assert _has_rule(t, [all_gather("x", 1), all_gather("w", 0)], [all_reduce("h")])
    # sharding the contraction axis of only one operand proves nothing
    assert not _has_rule(t, [all_gather("x", 1), identity("w")], [all_reduce("h")])


def test_unary_propagates_but_does_not_pass_through_partial():
    g = graph_from_dict(corpus.matmul_unary())
    t = derive_theory(g, 2)
    assert _has_rule(t, [identity("h")], [identity("u")])
    assert _has_rule(t, [all_gather("h", 0)], [all_gather("u", 0)])
    assert _has_rule(t, [all_gather("h", 1)], [all_gather("u", 1)])
    # relu(a+b) != relu(a) + relu(b): no AllReduce pass-through for unary ops
    assert not _has_rule(t, [all_reduce("h")], [all_reduce("u")])


def test_identity_passes_partial_through():
    g = graph_from_dict(corpus.identity_after_reduce())
    t = derive_theory(g, 2)
    assert _has_rule(t, [all_reduce("r")], [all_reduce("i")])
    assert _has_rule(t, [identity("r")], [identity("i")])


def test_binary_rules_partial_only_for_add():
    g_add = graph_from_dict(corpus.binary_add())
    t_add = derive_theory(g_add, 2)
    assert _has_rule(t_add, [all_reduce("x"), all_reduce("y")], [all_reduce("s")])
    assert _has_rule(t_add, [all_gather("x", 1), all_gather("y", 1)],
                     [all_gather("s", 1)])

    g_mul = graph_from_dict(corpus.binary_mul_unary())
    t_mul = derive_theory(g_mul, 2)
    assert not _has_rule(t_mul, [all_reduce("x"), all_reduce("y")], [all_reduce("p")])
    assert _has_rule(t_mul, [identity("x"), identity("y")], [identity("p")])


def test_reduce_rules_reindex_surviving_axes():
    g = graph_from_dict(corpus.two_reduce_rows())
    t = derive_theory(g, 2)
    # r = Reduce(h, dims=[0]): reducing the sharded axis leaves partial sums;
    # sharding the surviving axis 1 renumbers it to axis 0 of r.
    assert _has_rule(t, [all_gather("h", 0)], [all_reduce("r")])
    assert _has_rule(t, [all_gather("h", 1)], [all_gather("r", 0)])
    assert _has_rule(t, [identity("h")], [identity("r")])
    assert _has_rule(t, [all_reduce("h")], [all_reduce("r")])


def test_comm_rule_counts_by_rank():
    g = graph_from_dict(corpus.matmul_reduce())
    t = derive_theory(g, 2)

    def comm_triples(ref):
        return [tr for tr in t.triples
                if all(i.is_comm for i in tr.instrs) and tr.instrs[0].ref == ref]

    # rank 2: AR->Id, AR->AG(d) x2, AG(d)->Id two ways x2 axes, AG<->AG x2
    assert len(comm_triples("h")) == 9
    # scalar loss: only AR->Id
    assert len(comm_triples("loss")) == 1


def test_gather_has_two_implementations():
    g = graph_from_dict(corpus.matmul_reduce())
    t = derive_theory(g, 2)
    kinds = {tr.instrs[0].kind for tr in oracles.set_theory(t).triples
             if frozenset(map(str, t1 := tr.pre)) == {"h|AG(0)"}
             and any(str(p) == "h|Id" for p in tr.post)}
    assert kinds == {"all_gather", "grouped_broadcast"}


def test_guards_gate_each_tensor_to_one_collective():
    g = graph_from_dict(corpus.matmul_reduce())
    t = oracles.set_theory(build_theory(g, 2, fuse=False))
    comm = [tr for tr in t.triples if any(i.is_comm for i in tr.instrs)]
    assert comm
    for tr in comm:
        ref = next(i.ref for i in tr.instrs if i.is_comm)
        assert not_communicated(ref) in tr.pre
        assert communicated(ref) in tr.post
    assert t.initial_props == frozenset(not_communicated(e) for e in g.tensor_ids)


def test_communicating_a_tensor_retires_its_guard():
    g = graph_from_dict(corpus.matmul_reduce())
    ctx = SearchContext(g, build_theory(g, 2, fuse=False), corpus.homog2(),
                        ShardingRatios.uniform(2))
    q = ctx.root
    for output in ("x@shard0", "w@full", "h@shard0", "h@full"):
        assert not_communicated("h") in _props_of(ctx, q.props)
        q = ctx.step(q, next(ti for ti in ctx.applicable(q.props)
                             if ctx.triples[ti].instrs[-1].output == output))
    assert ctx.instructions(q.path)[-1].kind == "all_gather"
    after = _props_of(ctx, q.props)
    assert communicated("h") in after
    assert not_communicated("h") not in after
    assert not_communicated("loss") in after


def test_fusion_folds_source_prefixes():
    g = graph_from_dict(corpus.matmul_reduce())
    t = oracles.set_theory(build_theory(g, 2))
    lengths = {len(tr.instrs) for tr in t.triples}
    assert max(lengths) >= 3          # source chains fold into consumers
    # the two-source MatMul absorbs both of its operands' source triples
    assert any(len(tr.instrs) == 3 and not tr.pre
               and tr.instrs[-1].kind == "matmul" for tr in t.triples)
    # fusion fires only on empty-precondition producers, so no standalone
    # empty-pre triple with a consumer survives
    for tr in t.triples:
        if tr.pre:
            continue
        assert not any(c is not tr and tr.post <= c.pre for c in t.triples)


def _fusion_graphs():
    yield from corpus.corpus_graphs()
    for blocks in range(1, 5):
        yield f"chain{blocks}", graph_from_dict(corpus.chain_graph(blocks))
    for blocks in range(1, 4):
        yield f"mix{blocks}", graph_from_dict(corpus.mix_graph(blocks, 16, 32))


@pytest.mark.parametrize("guards", [True, False])
def test_fusion_index_finds_the_consumers_a_scan_finds(guards):
    for name, g in _fusion_graphs():
        unfused = build_theory(g, 2, guards=guards, fuse=False)
        fused = oracles.set_theory(fuse_empty_preconditions(unfused)).triples
        scanned = oracles.fuse_by_scan(oracles.set_theory(unfused))
        assert list(map(str, fused)) == list(map(str, scanned)), name


def _guard_graphs():
    yield from _fusion_graphs()
    yield "dead_branch", graph_from_dict(corpus.dead_branch())
    yield "gram", graph_from_dict(corpus.gram())


def assert_guards_match_the_rewrite(g, name=""):
    """The guarded theory, fused or not, equals the raw theory rewritten by
    `oracles.add_communication_guards`, triple for triple and in order; and
    the raw theory still derives every source tensor's collectives."""
    raw = derive_theory(g, 2)
    reference = oracles.add_communication_guards(oracles.set_theory(raw), g)
    guarded = build_theory(g, 2, fuse=False)
    assert oracles.set_theory(guarded).triples == reference.triples, name
    assert oracles.set_theory(guarded).initial_props == reference.initial_props, name
    fused = build_theory(g, 2)
    assert fused.triples == fuse_empty_preconditions(guarded).triples, name
    assert fused.initial_props == guarded.initial_props, name
    sources = [n for n in g.nodes if n.op in ("Placeholder", "Parameter")]
    communicated_refs = {i.ref for tr in raw.triples for i in tr.instrs if i.is_comm}
    assert {n.id for n in sources} <= communicated_refs, name


def test_guards_are_derived_as_the_rewrite_makes_them():
    for name, g in _guard_graphs():
        assert_guards_match_the_rewrite(g, name)


def assert_masks_decode_to_the_set_reference(g, name=""):
    """At m = 2 and 3 and under every guards/fuse setting, the theory decodes
    through its `props` to the set-valued reference derivation, triple for
    triple and in order, with equal `initial_props` and each triple's `kill`
    its `oracles.kill_set`; and its triples are pairwise distinct."""
    for m, guards, fuse in itertools.product((2, 3), (True, False), (True, False)):
        theory = build_theory(g, m, guards=guards, fuse=fuse)
        reference = oracles.reference_build(g, m, guards=guards, fuse=fuse)
        assert len(theory.props) == len(set(theory.props)), (name, m, guards, fuse)
        assert oracles.set_theory(theory) == reference, (name, m, guards, fuse)
        # each triple's kill is its delete list, by definition over its post
        assert [oracles.decode(theory, tr.kill) for tr in theory.triples] == [
            oracles.kill_set(tr.post) for tr in reference.triples], (name, m, guards, fuse)
        # no triple repeats, derived or fused: fusion keeps no set of them
        assert len(set(theory.triples)) == len(theory.triples), (name, m, guards, fuse)


def test_theory_masks_decode_to_the_set_reference():
    for name, g in corpus.corpus_graphs():
        assert_masks_decode_to_the_set_reference(g, name)
    for name in ("dead_branch", "gram"):
        assert_masks_decode_to_the_set_reference(graph_from_dict(getattr(corpus, name)()), name)


def assert_relevance_matches_the_set_reference(g, name=""):
    """Under every guards/fuse setting, `relevant` keeps the triples that
    `oracles.relevant_by_worklist` keeps, triple for triple and in order,
    and keeping them again changes nothing."""
    for guards, fuse in itertools.product((True, False), (True, False)):
        theory = build_theory(g, 2, guards=guards, fuse=fuse)
        kept = relevant(theory)
        reference = oracles.relevant_by_worklist(oracles.set_theory(theory))
        assert oracles.set_theory(kept) == reference, (name, guards, fuse)
        assert relevant(kept) == kept, (name, guards, fuse)


def test_relevance_matches_the_set_reference():
    for name, g in _guard_graphs():
        assert_relevance_matches_the_set_reference(g, name)


def test_relevance_drops_the_dead_branch_and_the_unread_full_loss():
    g = graph_from_dict(corpus.dead_branch())
    kept = relevant(derive_theory(g, 2))
    refs = {i.ref for tr in kept.triples for i in tr.instrs}
    assert refs == set(g.loss_ancestors) | {g.loss}
    outputs = {i.output for tr in kept.triples for i in tr.instrs}
    assert "loss@partial" in outputs and "loss@full" not in outputs


def _bits_reversed(t):
    """`t` with bit i moved to bit n - 1 - i, n the number of its properties."""
    n = len(t.props)

    def rev(mask):
        return sum(1 << n - 1 - i for i in bits(mask))

    return t._replace(triples=tuple(tr._replace(pre=rev(tr.pre), post=rev(tr.post),
                                                kill=rev(tr.kill))
                                    for tr in t.triples),
                      props=t.props[::-1], initial_props=rev(t.initial_props))


def test_search_context_reads_each_triples_guards_and_new_refs():
    # A triple's pre and post masks, and what it retires and newly computes
    # by their definitions over its post's properties; also on the planner
    # theory with its bits reversed, so that no guard's bits sit as the
    # derivation lays them.
    for name, g in _guard_graphs():
        flops = {n.id: oracles.node_flops(g, n) for n in g.nodes}
        owed = {r for r in g.loss_ancestors if flops[r]}
        for th in (build_theory(g, 2), build_theory(g, 2, guards=False, fuse=False),
                   _bits_reversed(build_theory(g, 2))):
            ctx = SearchContext(g, th, corpus.homog2(), ShardingRatios.uniform(2))
            assert ctx.owed == sorted(owed), name
            for ti, tr in enumerate(oracles.set_theory(th).triples):
                assert _props_of(ctx, ctx.triples[ti].pre) == tr.pre, name
                assert _props_of(ctx, ctx.triples[ti].post) == tr.post, name
                assert _props_of(ctx, ctx.triples[ti].kill) == oracles.kill_set(tr.post), name
                assert [(ctx.owed[b.bit_length() - 1], f) for b, f in ctx.towes[ti]] == [
                    (r, flops[r]) for r in sorted({p.ref for p in tr.post
                                                   if p.kind not in GUARD_KINDS}) if r in owed], name


# Property sets each walk below expands, breadth first: every set the
# smaller graphs reach, a prefix of the larger ones' (`chain_graph(2)`'s
# theories reach more than 200,000).
MASK_WALK_SETS = 600


def test_property_masks_match_the_set_reference():
    # On the property sets the search reaches from the root, `applicable`
    # equals the near-set reference on the decoded set, and the search's
    # step leads to the set plus the post less the retired guards.
    for name, g in _guard_graphs():
        for th in (build_theory(g, 2), build_theory(g, 2, guards=False, fuse=False)):
            ctx = SearchContext(g, th, corpus.homog2(), ShardingRatios.uniform(2))
            th = oracles.set_theory(th)
            retired = [oracles.kill_set(tr.post) for tr in th.triples]
            loss = all_reduce(th.loss)
            assert _props_of(ctx, ctx.loss_bit) == {loss}, name
            reference = oracles.near_set_applicable(th.triples)
            sets = {ctx.root.props: _props_of(ctx, ctx.root.props)}
            assert sets[ctx.root.props] == th.initial_props, name
            todo = collections.deque([ctx.root])
            while todo:
                q = todo.popleft()
                props = sets[q.props]
                applicable = ctx.applicable(q.props)
                assert applicable == reference(props), name
                if loss in props:
                    continue
                for ti in applicable:
                    succ = ctx.step(q, ti)
                    if succ.props not in sets:
                        sets[succ.props] = _props_of(ctx, succ.props)
                        if len(sets) <= MASK_WALK_SETS:
                            todo.append(succ)
                    assert sets[succ.props] == (props | th.triples[ti].post) - retired[ti], name


def test_rule_types_are_immutable_tuples():
    seen = 0
    for name, g in corpus.corpus_graphs():
        th = build_theory(g, 2)
        for tr in th.triples:
            assert hash(tr) == hash(tuple(tr))
            for p in oracles.decode(th, tr.pre | tr.post):
                assert hash(p) == hash(tuple(p))
            for instr in tr.instrs:
                assert hash(instr) == hash(tuple(instr))
                assert Instruction.from_json(instr.to_json()) == instr, name
                seen += 1
    assert seen > 100
    assert repr(identity("x")) == "Property(ref='x', kind='Id', axis=None)"
    tr = build_theory(graph_from_dict(corpus.matmul_reduce()), 2).triples[0]
    for value, field in ((identity("x"), "ref"), (tr.instrs[0], "tag"), (tr, "pre")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_guards_and_fusion_preserve_reachable_optimum():
    g = graph_from_dict(corpus.rank1_mul())
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    raw = build_theory(g, 2, guards=False, fuse=False)
    guarded = build_theory(g, 2, fuse=False)
    progs_raw = oracles.enumerate_all_complete(g, raw, spec, B, max_len=5)
    progs_g = oracles.enumerate_all_complete(g, guarded, spec, B, max_len=5)
    assert progs_g <= progs_raw        # guards only remove orderings
    best = lambda progs: min(iteration_time(p, B, spec, single_segment(g)).total_s
                             for p in progs)
    assert best(progs_g) == best(progs_raw)


def test_every_triple_is_sound_on_one_graph():
    g = graph_from_dict(corpus.matmul_unary())
    spec = corpus.homog2()
    table = build_shard_table(g, ShardingRatios.uniform(2), single_segment(g))
    assert oracles.triple_violations(g, build_theory(g, 2), spec, table) == []

