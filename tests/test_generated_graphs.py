"""Generated graphs: the planner's claims on graphs nobody wrote by hand.

A strategy draws graphs of 3 to 5 nodes over the seven ops (rank at most 2,
extents 1 to 4), whose nodes may branch off the loss path, and clusters
of 2 or 3 devices with their own rate per device and latency and bandwidth
per collective.  Each plan must cost the enumerated minimum at its own
ratios, compute the loss on random inputs, and load back to its program,
and its ratio row must be the optimum of its LP.
A second strategy draws a batch contraction on slow clusters, so that some
plans hold a collective.  The examples are derandomized, so every run
checks the same graphs.
"""
import json

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from shardplan import ClusterSpec, ShardingRatios, alternate, build_theory
from shardplan.cli import _canon, load_plan, plan_document
from shardplan.cost_model import build_shard_table
from shardplan.graph_ir import BINARY_TAGS, UNARY_TAGS, graph_from_dict
from shardplan.interpreter import check_equivalence
from shardplan.synthesizer import DistributedProgram, enumerate_programs
from shardplan.theory import COLLECTIVE_KINDS
from test_graph_ir import assert_serialized_as_json_encodes
from test_synthesizer import state_graph_minimum
from test_theory import (assert_guards_match_the_rewrite,
                         assert_masks_decode_to_the_set_reference,
                         assert_relevance_matches_the_set_reference)

MAX_NODES = 5
# A tensor of rank r has r + 2 forms (full, each sharded axis, partial).
# The enumeration of the triples that can reach the loss stays small: in
# 400 drawn graphs at speed-proportional ratios it explored at most 3,023
# states, and the corpus's 18-form self_add takes 23,278 on homog2.  The
# limit is for the full theory's state graph, which one property builds:
# up to 101,636 states at 14 forms and 1.9 million at 18 in the same draw.
MAX_FORMS = 15


@st.composite
def graphs(draw) -> dict:
    """Sources first, then computations on any earlier nodes, then the
    loss: a Reduce of every axis of one earlier non-scalar node, so the
    other computations may hang off the loss path.  Each draw's simplest
    choice is the larger graph, the rank-2 source and MatMul."""
    n = MAX_NODES - draw(st.integers(0, 2))
    # Sources draw their extents from two per graph, so that MatMul and
    # ElemwiseBinary often find operands of matching shapes.
    pool = draw(st.lists(st.integers(1, 4), min_size=2, max_size=2))
    nodes: list[dict] = []
    shapes: list[tuple[int, ...]] = []

    def add(op, shape, inputs=(), **attrs):
        node = {"id": f"t{len(nodes)}", "op": op, "shape": list(shape),
                "inputs": [f"t{i}" for i in inputs]}
        if attrs:
            node["attrs"] = attrs
        nodes.append(node)
        shapes.append(tuple(shape))

    for _ in range(draw(st.integers(1, n - 2))):
        rank = 2 - draw(st.integers(0, 1))
        add(draw(st.sampled_from(("Placeholder", "Parameter"))),
            [draw(st.sampled_from(pool)) for _ in range(rank)])
    while len(nodes) < n - 1:
        earlier = range(len(nodes))
        pairs = [(i, j) for i in earlier for j in earlier
                 if len(shapes[i]) == len(shapes[j]) == 2 and shapes[i][1] == shapes[j][0]]
        ops = ["MatMul"] * bool(pairs) + ["ElemwiseBinary", "ElemwiseUnary", "Identity", "Reduce"]
        op = draw(st.sampled_from(ops))
        if op == "MatMul":
            i, j = draw(st.sampled_from(pairs))
            add(op, (shapes[i][0], shapes[j][1]), (i, j))
            continue
        i = draw(st.sampled_from([i for i in earlier if shapes[i] or op != "Reduce"]))
        if op == "Identity":
            add(op, shapes[i], (i,))
        elif op == "ElemwiseUnary":
            add(op, shapes[i], (i,), tag=draw(st.sampled_from(UNARY_TAGS)))
        elif op == "ElemwiseBinary":
            j = draw(st.sampled_from([j for j in earlier if shapes[j] == shapes[i]]))
            add(op, shapes[i], (i, j), tag=draw(st.sampled_from(BINARY_TAGS)))
        else:
            rank = len(shapes[i])
            dims = draw(st.lists(st.integers(0, rank - 1), min_size=1, max_size=rank,
                                 unique=True))
            add(op, [x for d, x in enumerate(shapes[i]) if d not in dims], (i,),
                dims=sorted(dims))
    i = draw(st.sampled_from([i for i in range(len(nodes)) if shapes[i]]))
    add("Reduce", (), (i,), dims="all")
    assume(sum(len(shape) + 2 for shape in shapes) <= MAX_FORMS)
    return {"nodes": nodes, "loss": nodes[-1]["id"]}


@st.composite
def clusters(draw, bases=(2.0 ** 20, 1e9, 25e9)) -> dict:
    """Devices up to 7 times apart in speed from a base rate drawn from
    `bases`, each collective with its own latency and bandwidth."""
    m = draw(st.integers(2, 3))
    base = draw(st.sampled_from(bases))
    return {
        "devices": [{"flops": base * draw(st.sampled_from((1, 2, 3, 7)))} for _ in range(m)],
        "collectives": {kind: {"latency_s": draw(st.sampled_from((2e-6, 2e-5, 2.0 ** -16))),
                               "bw_Bps": draw(st.sampled_from((12e9, 50e9, 2.0 ** 33)))}
                        for kind in COLLECTIVE_KINDS},
        "bytes_per_element": 4,
    }


@st.composite
def contracting_graphs(draw) -> dict:
    """A batch-contracting MatMul, as in the benchmark's mix graphs: z =
    h @ h contracts the batch axis of h[b, b], computed from a source x,
    then the loss reduces z.  The plan needs h both sharded and in full,
    and on a slow cluster gathering h can cost less than computing it
    twice.  (A contraction by a source never needs a collective in so small
    a graph: h can be sharded on its other axis.)"""
    b = draw(st.integers(3, 4))
    op = draw(st.sampled_from(("Identity", "ElemwiseUnary")))
    h = {"id": "h", "op": op, "shape": [b, b], "inputs": ["x"]}
    if op == "ElemwiseUnary":
        h["attrs"] = {"tag": draw(st.sampled_from(UNARY_TAGS))}
    return {"nodes": [
        {"id": "x", "op": draw(st.sampled_from(("Placeholder", "Parameter"))), "shape": [b, b]},
        h,
        {"id": "z", "op": "MatMul", "shape": [b, b], "inputs": ["h", "h"]},
        {"id": "loss", "op": "Reduce", "shape": [], "inputs": ["z"], "attrs": {"dims": "all"}},
    ], "loss": "loss"}


def _plan_is_optimal_sound_and_loads_back(graph_doc, cluster_doc) -> DistributedProgram:
    """The plan's program, once its claims are checked."""
    g = graph_from_dict(graph_doc)
    spec = ClusterSpec.from_dict(cluster_doc)
    result = alternate(g, spec)
    assert result.optimal
    doc = json.loads(json.dumps(plan_document(g, spec, result)))
    plan = load_plan(doc, g, spec.m)
    assert plan.program == result.program

    enum = enumerate_programs(g, build_theory(g, spec.m, guards=False, fuse=False),
                              spec, plan.ratios)
    assert doc["estimate"]["total_s"] == _canon(enum.cost_s)

    table = build_shard_table(g, plan.ratios)
    assert check_equivalence(g, plan.program, spec.m, table, trials=5).passed
    assert oracles.row_off_the_lp(plan.program, g, spec) is None
    return plan.program


EXAMPLES = settings(derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@settings(EXAMPLES, max_examples=120)
@given(graphs(), clusters())
def test_generated_plans_are_optimal_sound_and_load_back(graph_doc, cluster_doc):
    _plan_is_optimal_sound_and_loads_back(graph_doc, cluster_doc)


@settings(EXAMPLES, max_examples=60)
@given(st.one_of(graphs(), contracting_graphs()))
def test_generated_guards_and_graph_text_match_their_references(graph_doc):
    g = graph_from_dict(graph_doc)
    assert_guards_match_the_rewrite(g)
    assert_masks_decode_to_the_set_reference(g)
    assert_relevance_matches_the_set_reference(g)
    assert_serialized_as_json_encodes(g)
    assert [n.flops for n in g.nodes] == [oracles.node_flops(g, n) for n in g.nodes]


@settings(EXAMPLES, max_examples=15)
@given(st.one_of(graphs(), contracting_graphs()), clusters())
def test_enumeration_of_what_reaches_the_loss_keeps_the_full_minimum(graph_doc, cluster_doc):
    # at speed-proportional ratios; the full theory's minimum is the oracle
    # state graph's
    g = graph_from_dict(graph_doc)
    spec = ClusterSpec.from_dict(cluster_doc)
    B = ShardingRatios.proportional_to_flops(spec)
    th = build_theory(g, spec.m, guards=False, fuse=False)
    full = state_graph_minimum(g, th, spec, B)
    assert enumerate_programs(g, th, spec, B).cost_s.hex() == full.hex()


def test_batch_contracting_plans_are_optimal_and_some_use_a_collective():
    collectives = []

    @settings(EXAMPLES, max_examples=30)
    @given(contracting_graphs(), clusters(bases=(2.0 ** 20,)))
    def check(graph_doc, cluster_doc):
        program = _plan_is_optimal_sound_and_loads_back(graph_doc, cluster_doc)
        collectives.append(sum(instr.is_comm for instr in program.instrs))

    check()
    assert any(collectives), collectives
