"""Shared graphs and cluster specs for the test suite.

All corpus graphs have at most 5 nodes and tensor ranks at most 2, so the
exhaustive enumerator stays an affordable oracle.  The homogeneous cluster
uses power-of-two rates, latencies and bandwidths: with those constants and
uniform ratios every stage time is an exact dyadic float, which lets the
optimality tests compare search and enumeration costs with zero tolerance.
"""
from __future__ import annotations

import random

from shardplan import ClusterSpec, Graph
from shardplan.graph_ir import graph_from_dict


def _node(op, shape, inputs=(), **attrs):
    d = {"op": op, "shape": list(shape)}
    if inputs:
        d["inputs"] = list(inputs)
    if attrs:
        d["attrs"] = attrs
    return d


def _graph(nodes: dict, loss: str) -> dict:
    return {"nodes": [{"id": nid, **spec} for nid, spec in nodes.items()],
            "loss": loss}


def matmul_reduce() -> dict:
    """x[8,4] @ w[4,2], reduced to a scalar loss."""
    return _graph({
        "x": _node("Placeholder", [8, 4]),
        "w": _node("Parameter", [4, 2]),
        "h": _node("MatMul", [8, 2], ["x", "w"]),
        "loss": _node("Reduce", [], ["h"], dims="all"),
    }, "loss")


def matmul_unary() -> dict:
    return _graph({
        "x": _node("Placeholder", [4, 8]),
        "w": _node("Parameter", [8, 4]),
        "h": _node("MatMul", [4, 4], ["x", "w"]),
        "u": _node("ElemwiseUnary", [4, 4], ["h"], tag="relu"),
        "loss": _node("Reduce", [], ["u"], dims="all"),
    }, "loss")


def binary_add() -> dict:
    return _graph({
        "x": _node("Placeholder", [4, 4]),
        "y": _node("Placeholder", [4, 4]),
        "s": _node("ElemwiseBinary", [4, 4], ["x", "y"], tag="add"),
        "loss": _node("Reduce", [], ["s"], dims="all"),
    }, "loss")


def two_reduce_rows() -> dict:
    """Reduce the batch axis first, then the remaining axis."""
    return _graph({
        "x": _node("Placeholder", [8, 4]),
        "w": _node("Parameter", [4, 2]),
        "h": _node("MatMul", [8, 2], ["x", "w"]),
        "r": _node("Reduce", [2], ["h"], dims=[0]),
        "loss": _node("Reduce", [], ["r"], dims=[0]),
    }, "loss")


def two_reduce_cols() -> dict:
    return _graph({
        "x": _node("Placeholder", [8, 4]),
        "w": _node("Parameter", [4, 2]),
        "h": _node("MatMul", [8, 2], ["x", "w"]),
        "r": _node("Reduce", [8], ["h"], dims=[1]),
        "loss": _node("Reduce", [], ["r"], dims=[0]),
    }, "loss")


def identity_after_reduce() -> dict:
    """Identity sitting on a partial tensor (exercises the pass-through rule)."""
    return _graph({
        "x": _node("Placeholder", [4, 4]),
        "r": _node("Reduce", [4], ["x"], dims=[1]),
        "i": _node("Identity", [4], ["r"]),
        "loss": _node("Reduce", [], ["i"], dims=[0]),
    }, "loss")


def unary_chain() -> dict:
    return _graph({
        "x": _node("Placeholder", [8, 8]),
        "a": _node("ElemwiseUnary", [8, 8], ["x"], tag="exp"),
        "b": _node("ElemwiseUnary", [8, 8], ["a"], tag="relu"),
        "c": _node("ElemwiseUnary", [8, 8], ["b"], tag="neg"),
        "loss": _node("Reduce", [], ["c"], dims="all"),
    }, "loss")


def binary_mul_unary() -> dict:
    return _graph({
        "x": _node("Placeholder", [4, 8]),
        "y": _node("Placeholder", [4, 8]),
        "p": _node("ElemwiseBinary", [4, 8], ["x", "y"], tag="mul"),
        "u": _node("ElemwiseUnary", [4, 8], ["p"], tag="sigmoid"),
        "loss": _node("Reduce", [], ["u"], dims="all"),
    }, "loss")


def param_only() -> dict:
    return _graph({
        "w": _node("Parameter", [8, 4]),
        "u": _node("ElemwiseUnary", [8, 4], ["w"], tag="tanh"),
        "loss": _node("Reduce", [], ["u"], dims="all"),
    }, "loss")


def rank1_mul() -> dict:
    return _graph({
        "x": _node("Placeholder", [16]),
        "w": _node("Parameter", [16]),
        "p": _node("ElemwiseBinary", [16], ["x", "w"], tag="mul"),
        "loss": _node("Reduce", [], ["p"], dims="all"),
    }, "loss")


def wide_matmul() -> dict:
    return _graph({
        "x": _node("Placeholder", [2, 16]),
        "w": _node("Parameter", [16, 2]),
        "h": _node("MatMul", [2, 2], ["x", "w"]),
        "loss": _node("Reduce", [], ["h"], dims="all"),
    }, "loss")


def skip_connection() -> dict:
    """Binary node whose operands share an ancestor."""
    return _graph({
        "x": _node("Placeholder", [4, 4]),
        "u": _node("ElemwiseUnary", [4, 4], ["x"], tag="relu"),
        "s": _node("ElemwiseBinary", [4, 4], ["u", "x"], tag="add"),
        "loss": _node("Reduce", [], ["s"], dims="all"),
    }, "loss")


def self_add() -> dict:
    """Binary node consuming the same tensor twice."""
    return _graph({
        "x": _node("Placeholder", [4, 8]),
        "w": _node("Parameter", [8, 4]),
        "h": _node("MatMul", [4, 4], ["x", "w"]),
        "s": _node("ElemwiseBinary", [4, 4], ["h", "h"], tag="add"),
        "loss": _node("Reduce", [], ["s"], dims="all"),
    }, "loss")


CORPUS: dict[str, dict] = {
    "matmul_reduce": matmul_reduce(),
    "matmul_unary": matmul_unary(),
    "binary_add": binary_add(),
    "two_reduce_rows": two_reduce_rows(),
    "two_reduce_cols": two_reduce_cols(),
    "identity_after_reduce": identity_after_reduce(),
    "unary_chain": unary_chain(),
    "binary_mul_unary": binary_mul_unary(),
    "param_only": param_only(),
    "rank1_mul": rank1_mul(),
    "wide_matmul": wide_matmul(),
    "skip_connection": skip_connection(),
    "self_add": self_add(),
}


def dead_branch() -> dict:
    """A source read by two consumers, one of them off the loss path: fusing
    the source with the first consumer must not tie the second to it."""
    return _graph({
        "x": _node("Placeholder", [4, 8]),
        "a": _node("ElemwiseUnary", [4, 8], ["x"], tag="exp"),
        "d": _node("ElemwiseBinary", [4, 8], ["a", "x"], tag="mul"),
        "c": _node("ElemwiseUnary", [4, 8], ["a"], tag="neg"),
        "loss": _node("Reduce", [], ["c"], dims="all"),
    }, "loss")


def gram() -> dict:
    """h = exp(x), then h @ h: the product contracts h's batch axis, so
    every program holds h both sharded and in full.  On a cluster whose
    compute is slow next to its collectives (`SLOW2`), gathering h costs
    less than computing it twice."""
    return _graph({
        "x": _node("Placeholder", [4, 4]),
        "h": _node("ElemwiseUnary", [4, 4], ["x"], tag="exp"),
        "z": _node("MatMul", [4, 4], ["h", "h"]),
        "loss": _node("Reduce", [], ["z"], dims="all"),
    }, "loss")


# The corpus graphs the benchmark's `audit` workload enumerates; criteria 01
# and 04 pin all 13.
AUDITED = ("matmul_reduce", "binary_add", "identity_after_reduce", "param_only",
           "rank1_mul", "wide_matmul", "skip_connection", "binary_mul_unary")


# States and complete states of the full state graph of every corpus graph
# under the unfused, unguarded theory, on homog2 at uniform ratios: the
# graph `oracles.state_graph` builds and criterion 04 audits.  Merging more
# or fewer programs moves them.
STATE_GRAPH_COUNTS: dict[str, tuple[int, int]] = {
    "matmul_reduce": (14445, 8378),
    "matmul_unary": (114976, 52352),
    "binary_add": (5084, 2294),
    "two_reduce_rows": (172149, 95828),
    "two_reduce_cols": (162396, 89867),
    "identity_after_reduce": (4834, 2476),
    "unary_chain": (75560, 33898),
    "binary_mul_unary": (49577, 22641),
    "param_only": (942, 444),
    "rank1_mul": (212, 78),
    "wide_matmul": (14445, 8378),
    "skip_connection": (7011, 3205),
    "self_add": (296165, 153794),
}


# The same, for the triples that can reach the loss (`theory.relevant`):
# what `shardplan enumerate GRAPH homog2` walks and prints.
ENUMERATION_COUNTS: dict[str, tuple[int, int]] = {
    "matmul_reduce": (3023, 1642),
    "matmul_unary": (8619, 3619),
    "binary_add": (146, 57),
    "two_reduce_rows": (13679, 7181),
    "two_reduce_cols": (13679, 7181),
    "identity_after_reduce": (118, 54),
    "unary_chain": (648, 271),
    "binary_mul_unary": (495, 203),
    "param_only": (48, 21),
    "rank1_mul": (6, 1),
    "wide_matmul": (3023, 1642),
    "skip_connection": (165, 69),
    "self_add": (23278, 12118),
}

def corpus_graphs() -> list[tuple[str, Graph]]:
    return [(name, graph_from_dict(d)) for name, d in CORPUS.items()]


def chain_graph(blocks: int, batch: int = 16, width: int = 32) -> dict:
    """Residual MatMul/relu/add chain, three nodes per block."""
    nodes = {"x0": _node("Placeholder", [batch, width])}
    prev = "x0"
    for i in range(1, blocks + 1):
        nodes[f"w{i}"] = _node("Parameter", [width, width])
        nodes[f"h{i}"] = _node("MatMul", [batch, width], [prev, f"w{i}"])
        nodes[f"u{i}"] = _node("ElemwiseUnary", [batch, width], [f"h{i}"], tag="relu")
        nodes[f"x{i}"] = _node("ElemwiseBinary", [batch, width], [f"u{i}", prev], tag="add")
        prev = f"x{i}"
    nodes["loss"] = _node("Reduce", [], [prev], dims="all")
    return _graph(nodes, "loss")


def mix_graph(blocks: int, batch: int, width: int) -> dict:
    """Chain whose blocks also contract the batch axis.

    Block i computes ``h = prev @ w``, ``z = c @ h`` with ``c[batch,batch]``,
    then ``x = relu(z) + prev``.  A batch-sharded ``h`` cannot feed the
    batch contraction locally, so every plan needs a collective.
    """
    nodes = {"x0": _node("Placeholder", [batch, width])}
    prev = "x0"
    for i in range(1, blocks + 1):
        nodes[f"w{i}"] = _node("Parameter", [width, width])
        nodes[f"h{i}"] = _node("MatMul", [batch, width], [prev, f"w{i}"])
        nodes[f"c{i}"] = _node("Parameter", [batch, batch])
        nodes[f"z{i}"] = _node("MatMul", [batch, width], [f"c{i}", f"h{i}"])
        nodes[f"u{i}"] = _node("ElemwiseUnary", [batch, width], [f"z{i}"], tag="relu")
        nodes[f"x{i}"] = _node("ElemwiseBinary", [batch, width], [f"u{i}", prev], tag="add")
        prev = f"x{i}"
    nodes["loss"] = _node("Reduce", [], [prev], dims="all")
    return _graph(nodes, "loss")


def _cluster(rates, lat, bw, bpe=4) -> dict:
    colls = {k: {"latency_s": lat, "bw_Bps": bw}
             for k in ("all_gather", "all_reduce", "reduce_scatter",
                       "all_to_all", "grouped_broadcast")}
    return {"devices": [{"flops": r} for r in rates],
            "collectives": colls, "bytes_per_element": bpe}


# Dyadic constants: rates 2**30, latency 2**-16, bandwidth 2**33.
HOMOG2 = _cluster([2.0 ** 30] * 2, 2.0 ** -16, 2.0 ** 33)
HOMOG3 = _cluster([2.0 ** 30] * 3, 2.0 ** -16, 2.0 ** 33)
# 175:75 splits exactly into ratios (0.7, 0.3).
HETERO2 = _cluster([175e9, 75e9], 2e-5, 12e9)
# Extreme skew drives small extents to zero-size shards after rounding.
SKEW2 = _cluster([100e9, 1e9], 2e-5, 12e9)
# Dyadic and 2:1 heterogeneous.
SLOWHET2 = _cluster([2.0 ** 31, 2.0 ** 30], 2.0 ** -16, 2.0 ** 33)
# Dyadic, 1:3 heterogeneous, and so slow to compute that a collective on a
# small tensor costs less than a few hundred flops.
SLOW2 = _cluster([2.0 ** 20, 3 * 2.0 ** 20], 2.0 ** -19, 2.0 ** 33)


def _seeded_cluster(m: int, seed: str) -> dict:
    """m devices whose rates, and one latency and bandwidth for every
    collective, a seeded generator draws from fixed menus."""
    rng = random.Random(seed)
    rates = [rng.choice((25e9, 50e9, 75e9, 100e9, 175e9)) for _ in range(m)]
    return _cluster(rates, rng.choice((2e-6, 2e-5)), rng.choice((12e9, 50e9)))


# Rates (25, 100, 25, 100) GFLOP/s, latency 2e-5 s, bandwidth 50e9 B/s.
HETERO4 = _seeded_cluster(4, "hetero4")
# Rates (75, 100, 50, 50, 25, 175, 25, 100) GFLOP/s, latency 2e-6 s,
# bandwidth 50e9 B/s.
HETERO8 = _seeded_cluster(8, "hetero8")


def scaled(cluster: dict, k: int) -> dict:
    """The cluster with rates and bandwidths multiplied by 2**k, latencies divided."""
    f = 2.0 ** k
    return {**cluster,
            "devices": [{"flops": d["flops"] * f} for d in cluster["devices"]],
            "collectives": {kind: {"latency_s": c["latency_s"] / f, "bw_Bps": c["bw_Bps"] * f}
                            for kind, c in cluster["collectives"].items()}}


def homog2() -> ClusterSpec:
    return ClusterSpec.from_dict(HOMOG2)


def homog3() -> ClusterSpec:
    return ClusterSpec.from_dict(HOMOG3)


def hetero2() -> ClusterSpec:
    return ClusterSpec.from_dict(HETERO2)


def skew2() -> ClusterSpec:
    return ClusterSpec.from_dict(SKEW2)


def slowhet2() -> ClusterSpec:
    return ClusterSpec.from_dict(SLOWHET2)


def slow2() -> ClusterSpec:
    return ClusterSpec.from_dict(SLOW2)


def hetero4() -> ClusterSpec:
    return ClusterSpec.from_dict(HETERO4)


def hetero8() -> ClusterSpec:
    return ClusterSpec.from_dict(HETERO8)
