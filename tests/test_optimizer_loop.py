import itertools
import json

import pytest

import corpus
from shardplan import (BudgetExhaustedError, ClusterSpec, LoopConfig, ShardingRatios,
                       alternate, iteration_time, synthesize)
from shardplan.cli import plan_document
from shardplan.graph_ir import graph_from_dict
from shardplan.optimizer_loop import _default_synth
from shardplan.synthesizer import (SearchInvariantError, SynthesisResult,
                                   enumerate_programs)
from shardplan.theory import build_theory, derive_theory


def test_heterogeneous_ratios_reach_the_rate_split():
    g = graph_from_dict(corpus.matmul_reduce())
    res = alternate(g, corpus.hetero2())
    assert res.ratios.rows == ((0.7, 0.3),)
    assert res.cost_s == pytest.approx(144 * 0.7 / 175e9, rel=1e-12)
    assert res.reason == "fixed_point"
    assert res.optimal
    assert len(res.rounds) == 1
    # the LP returns the speed-proportional row it started from, to rounding,
    # which does not beat the first pair, so the ratio step is not accepted
    assert res.rounds[0].balance_cost_s == pytest.approx(res.rounds[0].synth_cost_s,
                                                         rel=1e-12)
    assert not res.rounds[0].balance_accepted
    # the returned cost is the exact model time of the returned pair
    assert res.cost_s == iteration_time(res.program.instrs, res.ratios,
                                        corpus.hetero2()).total_s


def test_homogeneous_devices_stay_uniform():
    g = graph_from_dict(corpus.matmul_reduce())
    res = alternate(g, corpus.homog2())
    assert res.ratios.rows == ((0.5, 0.5),)
    assert res.cost_s == 144 / 2.0 ** 31
    assert res.optimal and res.reason == "fixed_point"


def test_extreme_skew_keeps_work_on_the_fast_device():
    g = graph_from_dict(corpus.matmul_reduce())
    res = alternate(g, corpus.skew2())
    assert res.ratios.rows[0] == pytest.approx((100 / 101, 1 / 101), abs=1e-9)
    assert res.cost_s == pytest.approx(144 * (100 / 101) / 100e9, rel=1e-9)


@pytest.mark.parametrize("cluster", ["homog2", "hetero2", "homog3"])
def test_plan_with_a_dead_branch_costs_the_enumerated_minimum(cluster):
    # fusing [x; a] into d, a consumer off the loss path, would make c pay
    # for d: a third more than the enumerated minimum
    g = graph_from_dict(corpus.dead_branch())
    spec = getattr(corpus, cluster)()
    res = alternate(g, spec)
    enum = enumerate_programs(g, build_theory(g, spec.m, guards=False, fuse=False),
                              spec, res.ratios)
    assert res.cost_s == enum.cost_s
    assert "d" not in {i.ref for i in res.program.instrs}


def test_multi_segment_loop():
    # the segment count is unread: every count writes the one-row plan
    graphs = corpus.corpus_graphs() + [
        (f"chain{blocks}", graph_from_dict(corpus.chain_graph(blocks))) for blocks in (1, 2, 3)]
    for name, g in graphs:
        for cname in ("homog2", "hetero2", "skew2", "hetero4", "hetero8"):
            spec = getattr(corpus, cname)()
            one, two, four = (json.dumps(plan_document(g, spec, alternate(g, spec, segments=n)))
                              for n in (1, 2, 4))
            assert one == two == four, (name, cname)


def test_budget_exhaustion_with_no_program_raises():
    g = graph_from_dict(corpus.matmul_reduce())
    with pytest.raises(BudgetExhaustedError):
        alternate(g, corpus.homog2(), theory=derive_theory(g, 2),
                  cfg=LoopConfig(max_expansions=1))


def test_later_synthesis_without_program_keeps_the_earlier_pair():
    # the first synthesis finds a program and its ratio step is accepted;
    # the next synthesis exhausts its budget before completing any program
    g = graph_from_dict(corpus.mix_graph(2, 32, 32))
    first = []

    def synth(*args):
        if first:
            return SynthesisResult(program=None, cost_s=float("inf"), exhausted=True,
                                   expansions=5, generated=0, purged=0)
        first.append(_default_synth(*args))
        return first[0]

    res = alternate(g, corpus.hetero2(), synth_fn=synth)
    assert res.reason == "budget" and not res.optimal
    assert res.program == first[0].program
    assert len(res.rounds) == 1 and res.rounds[0].balance_accepted
    assert res.cost_s == res.rounds[0].balance_cost_s < res.rounds[0].synth_cost_s
    assert res.ratios.rows != ((0.7, 0.3),)
    assert res.cost_s == iteration_time(res.program.instrs, res.ratios,
                                        corpus.hetero2()).total_s
    assert res.expansions == first[0].expansions + 5


def test_round_limit_below_one_is_rejected():
    g = graph_from_dict(corpus.matmul_reduce())
    for rounds in (0, -1):
        with pytest.raises(ValueError, match="max_rounds must be at least 1"):
            alternate(g, corpus.homog2(), cfg=LoopConfig(max_rounds=rounds))


def test_worse_ratio_steps_are_rejected():
    g = graph_from_dict(corpus.matmul_reduce())
    lopsided = lambda program, graph, spec, assignment: ShardingRatios(((0.9, 0.1),))
    res = alternate(g, corpus.homog2(), balance_fn=lopsided)
    assert res.rounds[0].balance_accepted is False
    assert res.reason == "fixed_point"
    assert res.ratios.rows == ((0.5, 0.5),)      # the rejected row is discarded
    assert res.cost_s == 144 / 2.0 ** 31


def test_ratio_wobble_stops_at_the_ratio_step_that_does_not_improve():
    g = graph_from_dict(corpus.matmul_reduce())
    calls = []

    def wobble(program, graph, spec, assignment):
        calls.append(None)
        if len(calls) % 2:
            return ShardingRatios(((0.50001, 0.49999),))
        return ShardingRatios(((0.5, 0.5),))

    res = alternate(g, corpus.homog2(), balance_fn=wobble)
    # the wobbled row costs more than the first pair, so the ratio step does
    # not count and the loop stops there, keeping that pair
    assert res.reason == "fixed_point"
    assert len(res.rounds) == 1 and len(calls) == 1
    assert not res.rounds[0].balance_accepted
    assert res.ratios.rows == ((0.5, 0.5),)
    assert res.cost_s == 144 / 2.0 ** 31


def test_round_limit_resynthesizes_under_the_ratio_step_pair():
    # the one ratio step the limit allows finds the best pair; one more
    # synthesis under its ratios makes the program optimal for them
    g = graph_from_dict(corpus.mix_graph(2, 32, 32))
    calls = []

    def synth(*args):
        calls.append(None)
        return _default_synth(*args)

    res = alternate(g, corpus.hetero2(), cfg=LoopConfig(max_rounds=1), synth_fn=synth)
    assert len(calls) == 2
    assert res.reason == "max_rounds" and res.optimal
    assert len(res.rounds) == 1
    assert res.expansions == 706
    assert res.cost_s == 2.1340160000000003e-06
    assert res.ratios.rows == ((0.8992337164750959, 0.10076628352490419),)


def test_synthesis_step_that_raises_cost_is_caught_below_a_nanosecond():
    # on hetero2 scaled by 2^12 the plan takes 0.52 ns; the ratio step lowers
    # the first program's cost by 25%, and the second synthesis, kept from
    # sharding h1, returns a program 33% dearer, which an absolute tolerance
    # of 1e-9 s would let through
    g = graph_from_dict(corpus.mix_graph(2, 32, 32))
    spec = ClusterSpec.from_dict(corpus.scaled(corpus.HETERO2, 12))
    theory = build_theory(g, 2)
    no_h1_shards = theory._replace(triples=tuple(
        tr for tr in theory.triples
        if not any(i.kind == "matmul" and i.output.startswith("h1@shard") for i in tr.instrs)))
    calls = []

    def synth(graph, th, spec, B, assignment, cfg):
        calls.append(B)
        return _default_synth(graph, th if len(calls) == 1 else no_h1_shards,
                              spec, B, assignment, cfg)

    with pytest.raises(SearchInvariantError, match="synthesis step increased cost"):
        alternate(g, spec, theory=theory, synth_fn=synth)
    assert len(calls) == 2


def _assert_scale_invariant(doc, cluster, k):
    g = graph_from_dict(doc)
    base = alternate(g, ClusterSpec.from_dict(cluster))
    res = alternate(g, ClusterSpec.from_dict(corpus.scaled(cluster, k)))
    assert res.program == base.program
    assert res.ratios.rows == base.ratios.rows
    assert res.cost_s == base.cost_s * 2.0 ** -k


@pytest.mark.parametrize("cluster", ["HOMOG2", "HETERO2", "SLOWHET2", "SKEW2"])
def test_scaled_cluster_scales_every_corpus_cost(cluster):
    # rates and bandwidths times 2^k, latencies times 2^-k: every price is
    # multiplied by a power of two, so the cost scales exactly
    for doc in corpus.CORPUS.values():
        for k in (30, -30):
            _assert_scale_invariant(doc, getattr(corpus, cluster), k)


def test_scaled_cluster_keeps_the_ratio_step_of_a_mix_plan():
    # the ratio step's 25% gain is 6.8e-13 s here; an absolute tolerance of
    # 1e-12 s kept the speed-proportional ratios at a 33% higher cost
    _assert_scale_invariant(corpus.mix_graph(2, 32, 32), corpus.HETERO2, 20)


METAMORPHIC_CLUSTERS = ("HETERO2", "SKEW2", "SLOWHET2", "HOMOG3")


@pytest.mark.parametrize("cluster", METAMORPHIC_CLUSTERS)
def test_permuted_devices_permute_the_ratio_columns(cluster):
    # the planner sees devices only through their speeds, so renaming them
    # permutes each ratio row and keeps program and cost, bit for bit
    doc = getattr(corpus, cluster)
    for graph_doc in corpus.CORPUS.values():
        g = graph_from_dict(graph_doc)
        base = alternate(g, ClusterSpec.from_dict(doc))
        # every permutation but the first, the identity
        for perm in list(itertools.permutations(range(len(doc["devices"]))))[1:]:
            spec = ClusterSpec.from_dict({**doc, "devices": [doc["devices"][j] for j in perm]})
            res = alternate(g, spec)
            assert res.cost_s == base.cost_s, (perm, res.cost_s, base.cost_s)
            assert res.program == base.program, perm
            assert res.ratios.rows == tuple(tuple(row[j] for j in perm)
                                            for row in base.ratios.rows), perm


@pytest.mark.parametrize("cluster", METAMORPHIC_CLUSTERS)
def test_loop_never_costs_more_than_one_synthesis_at_speed_ratios(cluster):
    spec = ClusterSpec.from_dict(getattr(corpus, cluster))
    B = ShardingRatios.proportional_to_flops(spec)
    for name, doc in corpus.CORPUS.items():
        g = graph_from_dict(doc)
        once = synthesize(g, build_theory(g, spec.m), spec, B)
        assert alternate(g, spec).cost_s <= once.cost_s, name
