import copy
import json
import math
import types

import pytest

import corpus
from oracles import COMPLETION_SCALE, ecost, node_flops, program
from shardplan import (ClusterFormatError, ClusterSpec, Instruction,
                       ShardingRatios, build_shard_table, build_theory, iteration_time,
                       synthesize)
from shardplan.cli import _canon_rows
from shardplan.cost_model import StageCost, StagePricer, comm_terms, comm_time, round_shards
from shardplan.graph_ir import graph_from_dict
from shardplan.synthesizer import SearchContext


def _cluster_doc(spec: ClusterSpec) -> dict:
    """The cluster document `ClusterSpec.from_dict` reads back as spec."""
    return {
        "devices": [{"flops": d.flops_per_second} for d in spec.devices],
        "collectives": {k: {"latency_s": v.latency_s, "bw_Bps": v.bytes_per_second}
                        for k, v in sorted(spec.collectives.items())},
        "bytes_per_element": spec.bytes_per_element,
    }


def test_cluster_round_trip():
    spec = corpus.homog2()
    assert spec.m == 2
    assert spec.total_rate == 2.0 ** 31
    assert ClusterSpec.from_dict(_cluster_doc(spec)) == spec
    assert ClusterSpec.from_json(json.dumps(_cluster_doc(spec))) == spec


def _mutated(edit):
    doc = _cluster_doc(corpus.homog2())
    edit(doc)
    return doc


def test_cluster_rejects_malformed():
    def drop_kind(doc):
        del doc["collectives"]["all_reduce"]

    bad = [
        [],                                                        # not an object
        _mutated(lambda d: d.update(extra=1)),                     # unknown field
        _mutated(lambda d: d.update(devices=[])),                  # no devices
        _mutated(lambda d: d.update(devices=[{"flops": 0}])),      # rate not positive
        _mutated(lambda d: d.update(devices=[{"rate": 1e9}])),     # wrong device key
        _mutated(lambda d: d.update(collectives=[])),              # collectives not object
        _mutated(drop_kind),                                       # missing collective
        _mutated(lambda d: d["collectives"].update(bcast={"latency_s": 0, "bw_Bps": 1})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": 0})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": -1, "bw_Bps": 1})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": 0, "bw_Bps": 0})),
        # numbers that are not finite
        _mutated(lambda d: d.update(devices=[{"flops": math.inf}])),
        _mutated(lambda d: d.update(devices=[{"flops": math.nan}])),
        _mutated(lambda d: d.update(devices=[{"flops": 10 ** 400}])),  # past float range
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": math.nan, "bw_Bps": 1})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": math.inf, "bw_Bps": 1})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": 0, "bw_Bps": math.inf})),
        _mutated(lambda d: d["collectives"].update(all_gather={"latency_s": 0, "bw_Bps": math.nan})),
        _mutated(lambda d: d.update(bytes_per_element=4.0)),       # must be an int
        _mutated(lambda d: d.pop("bytes_per_element")),
    ]
    for doc in bad:
        with pytest.raises(ClusterFormatError):
            ClusterSpec.from_dict(copy.deepcopy(doc))
    with pytest.raises(ClusterFormatError, match="line 1"):
        ClusterSpec.from_json("{not json")


@pytest.mark.parametrize("edit", [
    lambda d: d.update(devices=[{"flops": True}, {"flops": 1e9}]),
    lambda d: d["collectives"].update(all_gather={"latency_s": False, "bw_Bps": 1}),
    lambda d: d["collectives"].update(all_gather={"latency_s": 0, "bw_Bps": True}),
    lambda d: d.update(bytes_per_element=True),
], ids=["flops", "latency_s", "bw_Bps", "bytes_per_element"])
def test_cluster_rejects_booleans_as_numbers(edit):
    with pytest.raises(ClusterFormatError):
        ClusterSpec.from_dict(_mutated(edit))


def test_ratios_validation():
    u = ShardingRatios.uniform(2)
    assert u.rows == ((0.5, 0.5),) and u.row == (0.5, 0.5)
    assert u.m == 2
    # one row whatever the unread row count
    assert ShardingRatios.uniform(4, g=3).rows == ((0.25,) * 4,)
    assert ShardingRatios.proportional_to_flops(corpus.hetero2()).rows == ((0.7, 0.3),)
    bad = [
        (),
        ((0.5, 0.5), (0.5, 0.5)),       # one row only
        ((0.5, 0.5), (1.0,)),
        ((1.2, -0.2),),                 # negative entry
        ((0.5, 0.6),),                  # does not sum to one
        ((math.nan, 1.0),),             # every comparison with NaN is False
    ]
    # Every way to build one checks its rows.  A named tuple's _make and
    # _replace would skip a checking __new__.
    builds = [ShardingRatios, lambda rows: ShardingRatios(rows=rows)]
    if isinstance(u, tuple):
        builds += [lambda rows: ShardingRatios._make((rows,)),
                   lambda rows: u._replace(rows=rows)]
    for build in builds:
        for rows in bad:
            with pytest.raises(ValueError):
                build(rows)
    # Equal, hashed and printed by its one field, and equal to nothing else.
    assert u == ShardingRatios(((0.5, 0.5),)) and u != ShardingRatios(((0.25, 0.75),))
    assert u != (u.rows,) and hash(u) == hash((u.rows,))
    assert repr(u) == "ShardingRatios(rows=((0.5, 0.5),))"
    assert copy.copy(u) == u and copy.deepcopy(u) == u


def _comp(ref, flops=0, sharded=False):
    return Instruction("reduce", ref, operands=(f"{ref}@full",), output=f"{ref}@full",
                       dims=(0,), sharded=sharded, flops=flops)


def _comm(kind, ref, elements):
    return Instruction(kind, ref, operands=(f"{ref}@shard0",), output=f"{ref}@full",
                       axis=0, elements=elements)


def test_stage_decomposition():
    # a leading collective opens the first stage instead of closing one;
    # test_load_balancer checks the stages the ratio LP reads
    ag = _comm("all_gather", "a", 32)
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    a = _comp("a", flops=64, sharded=True)
    bd = iteration_time((ag, a), B, spec)
    assert bd.stages == (StageCost(comm_time(ag, (0.5, 0.5), spec),
                                   (2.0 ** -25, 2.0 ** -25), ag),)
    assert bd.total_s == bd.stages[0].comm_s + 2.0 ** -25
    assert iteration_time((), B, spec).stages == ()
    # sources and a computation without flops hold nothing, so the
    # collective after them opens the first stage and closes none
    sources = (Instruction("parameter", "a", output="a@full"),
               Instruction("placeholder_shard", "b", output="b@shard0", axis=0))
    idle = Instruction("identity", "a", operands=("a@full",), output="a@full")
    for head in (sources, (idle,), sources + (idle,)):
        lead = iteration_time(head + (ag, a), B, spec)
        assert lead.stages == bd.stages
        assert lead.total_s.hex() == bd.total_s.hex()
        assert iteration_time(head, B, spec).stages == ()


def test_comp_seconds_scales_only_sharded_work():
    spec = corpus.homog2()          # 2^30 flops/s per device
    pricer = StagePricer(spec, ShardingRatios(((0.25, 0.75),)))
    sharded = _comp("a", flops=128, sharded=True)
    replicated = _comp("a", flops=128, sharded=False)
    assert pricer.comp(sharded) == (32 / 2.0 ** 30, 96 / 2.0 ** 30)
    assert pricer.comp(replicated) == (128 / 2.0 ** 30,) * 2


def test_collective_prices():
    spec = corpus.homog2()          # latency 2^-16 s, bandwidth 2^33 B/s, 4 B/elt
    ag = _comm("all_gather", "x", 32)                    # 128 bytes
    assert comm_time(ag, (0.5, 0.5), spec) == 2.0 ** -16 + 2.0 ** -27
    assert comm_time(ag, (0.75, 0.25), spec) == 2.0 ** -16 + 3 * 2.0 ** -28
    # AllReduce always moves the whole tensor
    ar = _comm("all_reduce", "x", 32)
    full = 2.0 ** -16 + 2.0 ** -26
    assert comm_time(ar, (0.5, 0.5), spec) == full
    assert comm_time(ar, (0.9, 0.1), spec) == full
    # GroupedBroadcast sends unpadded shards: m latencies, ratio-independent total
    gb = _comm("grouped_broadcast", "x", 32)
    even = comm_time(gb, (0.5, 0.5), spec)
    assert even == 2.0 ** -15 + 2.0 ** -26
    assert comm_time(gb, (0.75, 0.25), spec) == even
    assert comm_time(gb, (1.0, 0.0), spec) == even
    # a row sums to 1 only within 1e-9, and the price does not follow its sum
    assert ShardingRatios(((0.3, 0.7000000001),)).m == 2
    assert comm_time(gb, (0.3, 0.7000000001), spec) == even
    with pytest.raises(ValueError):
        comm_time(_comp("x"), (0.5, 0.5), spec)


def test_comm_terms_split_each_price_by_what_it_depends_on():
    spec = corpus.homog2()          # latency 2^-16 s, 128 bytes move in 2^-26 s
    lat, move = 2.0 ** -16, 2.0 ** -26
    assert comm_terms(_comm("all_reduce", "x", 32), spec) == (lat + move, 0.0)
    for kind in ("all_gather", "reduce_scatter", "all_to_all"):
        assert comm_terms(_comm(kind, "x", 32), spec) == (lat, move)
    # m broadcasts of the actual shards move the whole tensor at any ratios
    assert comm_terms(_comm("grouped_broadcast", "x", 32), spec) == (2 * lat + move, 0.0)
    with pytest.raises(ValueError):
        comm_terms(_comp("x"), spec)


def test_grouped_broadcast_prices_a_plan_files_rows_as_the_loops():
    # a plan file's 12-digit rows: its three thirds sum to 1 - 1e-12
    spec = corpus.homog3()
    gb = _comm("grouped_broadcast", "x", 32)
    B = ShardingRatios.uniform(3)
    canon = _canon_rows(B)
    assert sum(canon.row) != sum(B.row)
    program = (gb, _comp("x", flops=64))
    assert iteration_time(program, canon, spec) == iteration_time(program, B, spec)


def test_iteration_time_matches_search_cost():
    g = graph_from_dict(corpus.matmul_reduce())
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    res = synthesize(g, build_theory(g, 2), spec, B)
    # perfect row sharding: 144 flops spread over 2^31 flops/s, no collectives
    assert res.cost_s == 144 / 2.0 ** 31
    assert not any(i.is_comm for i in res.program.instrs)
    bd = iteration_time(res.program.instrs, B, spec)
    assert bd.total_s == res.cost_s
    assert bd.total_s == sum(s.comm_s + max(s.comp_s) for s in bd.stages)
    assert all(len(s.comp_s) == 2 for s in bd.stages)


def test_ecost_charges_each_device_its_least_share_of_unrealized_ancestors():
    g = graph_from_dict(corpus.matmul_reduce())     # h: 128 flops, loss: 16
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    ctx = SearchContext(g, build_theory(g, 2), spec, B)
    # nothing computed yet: half of every loss-ancestor flop on each device
    assert ecost(program(ctx.root, ctx), g, spec, B) == COMPLETION_SCALE * 144 / 2.0 ** 31
    assert ecost(types.SimpleNamespace(complete=True), g, spec, B) == 0.0
    # on unequal devices the slower one bounds the completion, above every
    # flop spread over the whole cluster at its summed rate
    spec = corpus.hetero2()                          # 175e9 and 75e9 flops/s
    ctx = SearchContext(g, build_theory(g, 2), spec, B)
    assert ecost(program(ctx.root, ctx), g, spec, B) == COMPLETION_SCALE * (144 * 0.5 / 75e9)
    assert ecost(program(ctx.root, ctx), g, spec, B) > 144 / spec.total_rate
    # the open stage's collective counts in full, its accrued compute stays
    # on its device, and each remaining flop adds that device's share
    spec = corpus.homog2()                           # latency 2^-16 s, 2^33 B/s
    B = ShardingRatios(((0.25, 0.75),))
    partial = types.SimpleNamespace(
        complete=False,
        instrs=(_comm("all_reduce", "h", 16), _comp("h", flops=128, sharded=True)))
    assert ecost(partial, g, spec, B) == \
        COMPLETION_SCALE * (2.0 ** -16 + 2.0 ** -27 + (96 + 16 * 0.75) / 2.0 ** 30)


def test_ecost_ignores_dead_branches():
    doc = {"nodes": [
        {"id": "x", "op": "Placeholder", "shape": [4, 4]},
        {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"], "attrs": {"tag": "relu"}},
        {"id": "dead", "op": "ElemwiseUnary", "inputs": ["x"], "attrs": {"tag": "exp"}},
        {"id": "loss", "op": "Reduce", "inputs": ["u"], "attrs": {"dims": "all"}},
    ], "loss": "loss"}
    g = graph_from_dict(doc)
    assert "dead" not in g.loss_ancestors
    spec = corpus.homog2()
    B = ShardingRatios.uniform(2)
    ctx = SearchContext(g, build_theory(g, 2), spec, B)
    live = sum(node_flops(g, nd) for nd in g.nodes if nd.id in g.loss_ancestors)
    assert live == 32
    assert ecost(program(ctx.root, ctx), g, spec, B) == COMPLETION_SCALE * live / 2.0 ** 31


def test_shard_table_rounds_every_axis_as_round_shards_does():
    # The table rounds each distinct extent once and copies it; every entry
    # must be what rounding that axis on its own gives, in a list of its
    # own.  The rows round unevenly.
    graphs = corpus.corpus_graphs() + [
        (f"mix{blocks}", graph_from_dict(corpus.mix_graph(blocks, 12, 20))) for blocks in (1, 3)]
    for name, g in graphs:
        for row in ((0.7, 0.3), (0.62, 0.38), (0.5, 0.3, 0.2), (0.1, 0.45, 0.45)):
            B = ShardingRatios((row,))
            table = build_shard_table(g, B)
            assert table == {(t.id, axis): round_shards(extent, row)
                             for t in g.tensors.values() for axis, extent in enumerate(t.shape)}
            assert len(set(map(id, table.values()))) == len(table), name
