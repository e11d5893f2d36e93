import json

import pytest

import corpus
import oracles
from shardplan import GraphFormatError, parse_graph
from shardplan.cost_model import single_segment
from shardplan.graph_ir import (assign_segments, flops_of, graph_from_dict,
                                infer_shape, serialize_graph)


def test_parse_round_trip_whole_corpus():
    for name, g in corpus.corpus_graphs():
        again = parse_graph(serialize_graph(g))
        assert oracles.graph_to_dict(again) == oracles.graph_to_dict(g), name
        assert serialize_graph(again) == serialize_graph(g), name


def assert_serialized_as_json_encodes(g, name=""):
    assert serialize_graph(g) == json.dumps(oracles.graph_to_dict(g), indent=2) + "\n", name


def test_graph_text_is_what_the_json_encoder_writes():
    graphs = corpus.corpus_graphs() + [
        ("dead_branch", graph_from_dict(corpus.dead_branch())),
        ("gram", graph_from_dict(corpus.gram()))]
    graphs += [(f"chain{b}", graph_from_dict(corpus.chain_graph(b))) for b in (1, 3)]
    graphs += [(f"mix{b}", graph_from_dict(corpus.mix_graph(b, 16, 32))) for b in (1, 2)]
    for name, g in graphs:
        assert_serialized_as_json_encodes(g, name)


def test_graph_text_escapes_ids_and_tags_as_json_does():
    # A quote, a backslash, non-ASCII (one BMP and one astral character)
    # and a control character, in ids and in a tag.
    ids = ['x"q', "w\\b", "h\u00e9\U0001f600", "u\x01\n", "loss\t"]
    doc = {"nodes": [
        {"id": ids[0], "op": "Placeholder", "shape": [2, 3]},
        {"id": ids[1], "op": "Parameter", "shape": [3, 2]},
        {"id": ids[2], "op": "MatMul", "inputs": ids[:2]},
        {"id": ids[3], "op": "ElemwiseUnary", "inputs": [ids[2]], "attrs": {"tag": "relu"}},
        {"id": ids[4], "op": "Reduce", "inputs": [ids[3]], "attrs": {"dims": "all"}},
    ], "loss": ids[4]}
    g = graph_from_dict(doc)
    assert_serialized_as_json_encodes(g)
    assert_serialized_as_json_encodes(g._replace(nodes=tuple(
        n._replace(tag='r"\\\u00e9\x02') if n.tag else n for n in g.nodes)))
    assert parse_graph(serialize_graph(g)) == g


def test_matmul_shape_inference():
    assert infer_shape("MatMul", [(8, 4), (4, 2)]) == (8, 2)
    with pytest.raises(GraphFormatError):
        infer_shape("MatMul", [(8, 4), (3, 2)])
    with pytest.raises(GraphFormatError):
        infer_shape("MatMul", [(8,), (8, 2)])


def test_reduce_shape_inference():
    assert infer_shape("Reduce", [(8, 4)], dims=(0, 1)) == ()
    assert infer_shape("Reduce", [(8, 4)], dims=(0,)) == (4,)
    assert infer_shape("Reduce", [(8, 4)], dims=(1,)) == (8,)
    with pytest.raises(GraphFormatError):
        infer_shape("Reduce", [(8, 4)], dims=(2,))


def test_elemwise_shapes():
    assert infer_shape("ElemwiseUnary", [(3, 5)]) == (3, 5)
    assert infer_shape("Identity", [(7,)]) == (7,)
    with pytest.raises(GraphFormatError):
        infer_shape("ElemwiseBinary", [(3, 5), (3, 4)])


def _doc(nodes, loss="loss"):
    return {"nodes": nodes, "loss": loss}


def test_malformed_documents_rejected():
    ok_x = {"id": "x", "op": "Placeholder", "shape": [2, 2]}
    cases = [
        {},                                     # no nodes
        {"nodes": [], "loss": "loss"},          # empty nodes
        _doc([ok_x]),                           # loss names nothing
        _doc([ok_x], loss="x"),                 # loss not scalar
        _doc([ok_x, ok_x]),                     # duplicate id
        _doc([{"id": "x", "op": "Conv", "shape": [2]}]),          # unknown op
        _doc([{"id": "x", "op": "Placeholder"}]),                 # missing shape
        _doc([{"id": "u", "op": "ElemwiseUnary", "inputs": ["x"],
               "attrs": {"tag": "relu"}}]),                       # undefined input
        _doc([ok_x, {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"],
                     "attrs": {"tag": "sqrt"}}]),                 # unknown tag
        _doc([ok_x, {"id": "r", "op": "Reduce", "inputs": ["x"],
                     "attrs": {"dims": [0, 0]}}]),                # repeated dims
        _doc([ok_x, {"id": "r", "op": "Reduce", "inputs": ["x"]}]),  # dims missing
    ]
    for doc in cases:
        with pytest.raises(GraphFormatError):
            graph_from_dict(doc)


@pytest.mark.parametrize("nodes", [
    [{"id": "x", "op": "Placeholder", "shape": [True, 4]}],
    [{"id": "x", "op": "Placeholder", "shape": [1, 2]},
     {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"], "shape": [True, 2],
      "attrs": {"tag": "relu"}}],
    [{"id": "x", "op": "Placeholder", "shape": [2, 2]},
     {"id": "r", "op": "Reduce", "inputs": ["x"], "attrs": {"dims": [True]}}],
], ids=["source_shape", "declared_shape", "reduce_dims"])
def test_booleans_are_not_ints(nodes):
    with pytest.raises(GraphFormatError):
        graph_from_dict(_doc(nodes))


def test_declared_shape_must_match_inference():
    doc = _doc([
        {"id": "x", "op": "Placeholder", "shape": [2, 3]},
        {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"], "shape": [3, 2],
         "attrs": {"tag": "neg"}},
    ])
    with pytest.raises(GraphFormatError):
        graph_from_dict(doc)


def test_flop_counts():
    assert flops_of("MatMul", [(8, 4), (4, 2)]) == 2 * 8 * 4 * 2
    assert flops_of("ElemwiseUnary", [(8, 2)]) == 16
    assert flops_of("ElemwiseBinary", [(4, 4), (4, 4)]) == 16
    assert flops_of("Reduce", [(8, 2)]) == 16
    assert flops_of("Placeholder", []) == 0
    assert flops_of("Identity", [(9, 9)]) == 0
    g = graph_from_dict(corpus.matmul_reduce())
    assert sum(n.flops for n in g.nodes) == 128 + 16
    assert g.tensors["h"].flops == 128
    # every node keeps the count that its op and its inputs' shapes give
    for name, g in corpus.corpus_graphs():
        assert [n.flops for n in g.nodes] == [oracles.node_flops(g, n) for n in g.nodes], name


def test_loss_ancestors_exclude_dead_branches():
    doc = _doc([
        {"id": "x", "op": "Placeholder", "shape": [4, 4]},
        {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"], "attrs": {"tag": "relu"}},
        {"id": "dead", "op": "ElemwiseUnary", "inputs": ["x"], "attrs": {"tag": "neg"}},
        {"id": "loss", "op": "Reduce", "inputs": ["u"], "attrs": {"dims": "all"}},
    ])
    g = graph_from_dict(doc)
    assert g.loss_ancestors == {"x", "u", "loss"}


def test_single_segment_covers_everything():
    g = graph_from_dict(corpus.matmul_unary())
    a = single_segment(g)
    assert a.count == 1
    assert set(a.segment_of) == set(g.tensor_ids)
    assert set(a.segment_of.values()) == {1}


def test_assign_segments_is_contiguous_and_total():
    g = graph_from_dict(corpus.chain_graph(4))
    for count in (1, 2, 3, 4):
        a = assign_segments(g, count)
        assert a.count == count
        seq = [a.segment_of[n.id] for n in g.nodes]
        assert seq == sorted(seq)                      # contiguous in topo order
        assert set(seq) == set(range(1, count + 1))    # no empty segment


def test_assign_segments_minimizes_max_flops():
    g = graph_from_dict(corpus.chain_graph(3))
    weights = [oracles.node_flops(g, n) for n in g.nodes]
    for count in (2, 3, 4):
        a = assign_segments(g, count)
        per_seg = [0.0] * count
        for n, w in zip(g.nodes, weights):
            per_seg[a.segment_of[n.id] - 1] += w
        assert max(per_seg) == oracles.min_max_contiguous(weights, count)


def test_assign_segments_bad_count():
    g = graph_from_dict(corpus.param_only())
    with pytest.raises(ValueError):
        assign_segments(g, 0)
    with pytest.raises(ValueError):
        assign_segments(g, len(g.nodes) + 1)
