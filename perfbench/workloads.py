"""Seeded workload generators for the planner benchmark.

The graphs and clusters are copies of the test suite's corpus, not imports
from it, so a test refactor cannot silently change a workload.  Every
instance is handed to the planner as JSON text, the same input the CLI
reads; the seed never reaches the package.

Workloads (why each one is here):

- ``mix``: a block that contracts the batch axis (``c[batch,batch] @ h``)
  forces a collective into every plan, so the pass times the collective
  choice, pop-time dominance and the search bound.  The eleven instances
  take 243 to 989 expansions each.
- ``fleet``: 144 small plans on seeded heterogeneous clusters of 2, 4 and
  8 devices with 1, 2 or 4 segments; the per-call fixed costs (theory, LP,
  loop, verification, serialization) dominate.
- ``audit``: the ``enumerate`` oracle on eight corpus graphs, the engine
  of the optimality audit, in time and in memory.

Every operation of a workload is short next to the run, so that each
instance is timed many times in one run and its median is steady.
Chains of ``chain_graph(8..32)`` need no collective and so time successor
generation and pruning alone, but they are not a workload: ``mix`` already
exercises generation and pruning, and each workload adds runs to a fixed
measurement budget.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("mix", "fleet", "audit")


@dataclass(frozen=True)
class Instance:
    """One planning problem: plan it, verify the plan and, when ``audit``
    is set, enumerate every program to confirm the plan's cost."""
    name: str
    graph: str
    cluster: str
    segments: int = 1
    audit: bool = False
    # Plan and verify run this many times a pass, each timed on its own.
    repeats: int = 1


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


# --- corpus graphs (<= 5 nodes, rank <= 2) --------------------------------

def matmul_reduce() -> dict:
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
    return _graph({
        "x": _node("Placeholder", [4, 4]),
        "u": _node("ElemwiseUnary", [4, 4], ["x"], tag="relu"),
        "s": _node("ElemwiseBinary", [4, 4], ["u", "x"], tag="add"),
        "loss": _node("Reduce", [], ["s"], dims="all"),
    }, "loss")


def self_add() -> dict:
    return _graph({
        "x": _node("Placeholder", [4, 8]),
        "w": _node("Parameter", [8, 4]),
        "h": _node("MatMul", [4, 4], ["x", "w"]),
        "s": _node("ElemwiseBinary", [4, 4], ["h", "h"], tag="add"),
        "loss": _node("Reduce", [], ["s"], dims="all"),
    }, "loss")


CORPUS = {f.__name__: f for f in (
    matmul_reduce, matmul_unary, binary_add, two_reduce_rows, two_reduce_cols,
    identity_after_reduce, unary_chain, binary_mul_unary, param_only,
    rank1_mul, wide_matmul, skip_connection, self_add)}

# The five corpus graphs left out take 69 s to enumerate together; the
# optimality test suite still covers them.
AUDIT_GRAPHS = ("matmul_reduce", "binary_add", "identity_after_reduce",
                "param_only", "rank1_mul", "wide_matmul", "skip_connection",
                "binary_mul_unary")


# --- generated families ----------------------------------------------------

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


# --- clusters --------------------------------------------------------------

COLLECTIVE_KINDS = ("all_gather", "all_reduce", "reduce_scatter",
                    "all_to_all", "grouped_broadcast")


def cluster(rates, latency_s, bw_Bps, bytes_per_element=4) -> dict:
    return {"devices": [{"flops": r} for r in rates],
            "collectives": {k: {"latency_s": latency_s, "bw_Bps": bw_Bps}
                            for k in COLLECTIVE_KINDS},
            "bytes_per_element": bytes_per_element}


# Dyadic constants keep every stage time an exact binary float, so costs
# compare with zero tolerance.
HOMOG2 = cluster([2.0 ** 30] * 2, 2.0 ** -16, 2.0 ** 33)
SLOWHET2 = cluster([2.0 ** 31, 2.0 ** 30], 2.0 ** -16, 2.0 ** 33)

FLEET_RATES = (25e9, 50e9, 75e9, 100e9, 175e9)
FLEET_LATENCIES = (2e-6, 2e-5)
FLEET_BANDWIDTHS = (12e9, 50e9)
FLEET_DEVICES = (2, 4, 8)
FLEET_SEGMENTS = (1, 2, 4)
# 16 graphs x 3 device counts x 3 segment counts: 144 plans a pass, which
# leaves 14 samples beyond the 90th percentile.

# (batch, width, cluster) of the two-block mix graphs.  Each plan needs a
# collective (reduce_scatter, or all_gather on the (64, 32) and (64, 64)
# slowhet2 instances) and takes 243 to 989 expansions.  Instances whose
# plans take most of a second or more, such as (64, 16), (16, 32) and
# (8, 64) on slowhet2, would leave too few timings in a run.
MIX_INSTANCES = (
    (32, 32, "homog2"), (32, 32, "slowhet2"),
    (64, 32, "homog2"), (64, 32, "slowhet2"),
    (64, 64, "homog2"), (64, 64, "slowhet2"),
    (16, 64, "homog2"), (16, 64, "slowhet2"),
    (24, 32, "homog2"), (24, 32, "slowhet2"),
    (64, 16, "homog2"),
)

# Audit plans and verifications take milliseconds next to the seconds of
# enumeration, so each is repeated to get as many timings as the others.
AUDIT_REPEATS = 8


def _mix(rng: random.Random) -> list[Instance]:
    clusters = {"homog2": HOMOG2, "slowhet2": SLOWHET2}
    return [Instance(f"mix{batch}x{width}@{cname}",
                     json.dumps(mix_graph(2, batch, width)), json.dumps(clusters[cname]))
            for batch, width, cname in MIX_INSTANCES]


def _fleet(rng: random.Random) -> list[Instance]:
    graphs = [(name, f()) for name, f in CORPUS.items()]
    graphs += [(f"chain{b}", chain_graph(b)) for b in (1, 2, 3)]
    out = []
    # Every (graph, device count, segment count) cell appears once, so the
    # seed draws only device speeds and link constants, and the amount of
    # work in a pass hardly depends on it.
    for (gname, doc), m, segs in itertools.product(graphs, FLEET_DEVICES,
                                                    FLEET_SEGMENTS):
        c = cluster([rng.choice(FLEET_RATES) for _ in range(m)],
                    rng.choice(FLEET_LATENCIES), rng.choice(FLEET_BANDWIDTHS))
        segments = min(segs, len(doc["nodes"]))
        out.append(Instance(f"{gname}@m{m}s{segments}", json.dumps(doc),
                            json.dumps(c), segments=segments))
    return out


def _audit(rng: random.Random) -> list[Instance]:
    return [Instance(f"{name}@homog2", json.dumps(CORPUS[name]()),
                     json.dumps(HOMOG2), audit=True, repeats=AUDIT_REPEATS)
            for name in AUDIT_GRAPHS]


def workload(name: str, seed: int) -> list[Instance]:
    """The instances of one pass of ``name``, in the order the seed picks."""
    build = {"mix": _mix, "fleet": _fleet, "audit": _audit}[name]
    rng = random.Random(f"{name}:{seed}")
    instances = build(rng)
    rng.shuffle(instances)
    return instances
