"""Single-device computation graph: parsing, shape inference, flop counts, segments.

A graph is a topologically ordered list of nodes, each producing exactly one
tensor named by the node id.  The graph designates one scalar tensor as the
loss.  Graphs are immutable after construction; all downstream passes (theory
derivation, cost estimation, interpretation) treat them as read-only.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

SUPPORTED_OPS = (
    "Placeholder",
    "Parameter",
    "MatMul",
    "ElemwiseUnary",
    "ElemwiseBinary",
    "Reduce",
    "Identity",
)
SOURCE_OPS = ("Placeholder", "Parameter")
UNARY_TAGS = ("exp", "neg", "relu", "sigmoid", "tanh")
BINARY_TAGS = ("add", "mul")

_NODE_KEYS = {"id", "op", "inputs", "shape", "attrs"}
_DOC_KEYS = {"nodes", "loss"}


class GraphFormatError(ValueError):
    """Raised for malformed graph documents; `where` points at the offender."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


class GraphTooLargeError(RuntimeError):
    """Raised by the equivalence check when numpy cannot hold one trial of
    the graph's tensors; defined here so that the CLI maps it to exit 2
    without importing numpy."""


class Node(NamedTuple):
    id: str
    op: str
    inputs: tuple[str, ...]
    shape: tuple[int, ...]
    flops: int  # single-device flop count, `flops_of` its op and input shapes
    tag: str | None = None  # ElemwiseUnary / ElemwiseBinary
    dims: tuple[int, ...] | None = None  # Reduce


class Graph(NamedTuple):
    nodes: tuple[Node, ...]
    tensors: dict[str, Node]
    loss: str
    loss_ancestors: frozenset[str] = frozenset()

    @property
    def tensor_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)


def infer_shape(op: str, input_shapes: list[tuple[int, ...]],
                dims: tuple[int, ...] | None = None, where: str | None = None) -> tuple[int, ...]:
    """Output shape of `op` given input shapes; raises GraphFormatError on mismatch."""
    if op in SOURCE_OPS:
        raise GraphFormatError("source shapes are declared, not inferred", where)
    if op == "MatMul":
        a, b = input_shapes
        if len(a) != 2 or len(b) != 2:
            raise GraphFormatError(f"MatMul needs rank-2 inputs, got {a} and {b}", where)
        if a[1] != b[0]:
            raise GraphFormatError(f"MatMul inner extents differ: {a} x {b}", where)
        return (a[0], b[1])
    if op in ("ElemwiseUnary", "Identity"):
        return input_shapes[0]
    if op == "ElemwiseBinary":
        a, b = input_shapes
        if a != b:
            raise GraphFormatError(f"ElemwiseBinary shapes differ: {a} vs {b}", where)
        return a
    if op == "Reduce":
        (a,) = input_shapes
        assert dims is not None
        for d in dims:
            if not 0 <= d < len(a):
                raise GraphFormatError(f"Reduce dim {d} out of range for shape {a}", where)
        return tuple(x for i, x in enumerate(a) if i not in dims)
    raise GraphFormatError(f"unsupported op {op!r}", where)


def flops_of(op: str, input_shapes: list[tuple[int, ...]]) -> int:
    """Single-device flop count.  Sources, Identity: 0; MatMul [a,b]x[b,c]: 2abc;
    elementwise and Reduce: one flop per input element."""
    if op in ("Placeholder", "Parameter", "Identity"):
        return 0
    if op == "MatMul":
        a, b = input_shapes
        return 2 * a[0] * a[1] * b[1]
    return math.prod(input_shapes[0])


def _is_int(x) -> bool:
    """A JSON integer; booleans are not numbers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A JSON number with a finite float value: int or float, but not a
    boolean, NaN, an infinity or an int beyond float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _parse_node(raw: dict, index: int, known: dict[str, Node]) -> Node:
    where = f"nodes[{index}]"
    if not isinstance(raw, dict):
        raise GraphFormatError("node must be an object", where)
    unknown = set(raw) - _NODE_KEYS
    if unknown:
        raise GraphFormatError(f"unknown node fields {sorted(unknown)}", where)
    nid = raw.get("id")
    if not isinstance(nid, str) or not nid:
        raise GraphFormatError("missing or invalid 'id'", where)
    where = f"nodes[{index}] (id={nid!r})"
    if nid in known:
        raise GraphFormatError("duplicate id", where)
    op = raw.get("op")
    if op not in SUPPORTED_OPS:
        raise GraphFormatError(f"unsupported op {op!r}", where)
    inputs = raw.get("inputs", [])
    if not isinstance(inputs, list) or not all(isinstance(x, str) for x in inputs):
        raise GraphFormatError("'inputs' must be a list of ids", where)
    for ref in inputs:
        if ref not in known:
            raise GraphFormatError(f"input {ref!r} not defined before use", where)
    attrs = raw.get("attrs", {})
    if not isinstance(attrs, dict):
        raise GraphFormatError("'attrs' must be an object", where)

    arity = {"Placeholder": 0, "Parameter": 0, "MatMul": 2, "ElemwiseUnary": 1,
             "ElemwiseBinary": 2, "Reduce": 1, "Identity": 1}[op]
    if len(inputs) != arity:
        raise GraphFormatError(f"{op} takes {arity} inputs, got {len(inputs)}", where)

    tag = None
    dims = None
    allowed_attrs: set[str] = set()
    if op == "ElemwiseUnary":
        allowed_attrs = {"tag"}
        tag = attrs.get("tag")
        if tag not in UNARY_TAGS:
            raise GraphFormatError(f"ElemwiseUnary tag must be one of {UNARY_TAGS}, got {tag!r}", where)
    elif op == "ElemwiseBinary":
        allowed_attrs = {"tag"}
        tag = attrs.get("tag")
        if tag not in BINARY_TAGS:
            raise GraphFormatError(f"ElemwiseBinary tag must be one of {BINARY_TAGS}, got {tag!r}", where)
    elif op == "Reduce":
        allowed_attrs = {"dims"}
        rdims = attrs.get("dims")
        in_rank = len(known[inputs[0]].shape)
        if rdims == "all":
            dims = tuple(range(in_rank))
        elif isinstance(rdims, list) and rdims and all(_is_int(d) for d in rdims):
            if len(set(rdims)) != len(rdims):
                raise GraphFormatError("Reduce dims repeated", where)
            dims = tuple(sorted(rdims))
        else:
            raise GraphFormatError("Reduce needs attrs.dims: non-empty int list or \"all\"", where)
    if set(attrs) - allowed_attrs:
        raise GraphFormatError(f"unknown attrs {sorted(set(attrs) - allowed_attrs)}", where)

    declared = raw.get("shape")
    if declared is not None:
        if not isinstance(declared, list) or not all(_is_int(x) and x >= 1 for x in declared):
            raise GraphFormatError("'shape' must be a list of positive ints", where)
        declared = tuple(declared)
    shapes = [known[i].shape for i in inputs]
    if op in SOURCE_OPS:
        if declared is None:
            raise GraphFormatError(f"{op} requires an explicit shape", where)
        shape = declared
    else:
        shape = infer_shape(op, shapes, dims=dims, where=where)
        if declared is not None and declared != shape:
            raise GraphFormatError(f"declared shape {declared} != inferred {shape}", where)
    return Node(id=nid, op=op, inputs=tuple(inputs), shape=shape,
                flops=flops_of(op, shapes), tag=tag, dims=dims)


def graph_from_dict(doc: dict) -> Graph:
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be an object")
    unknown = set(doc) - _DOC_KEYS
    if unknown:
        raise GraphFormatError(f"unknown top-level fields {sorted(unknown)}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GraphFormatError("'nodes' must be a non-empty list")
    loss = doc.get("loss")
    if not isinstance(loss, str):
        raise GraphFormatError("missing 'loss' id")

    tensors: dict[str, Node] = {}
    flops = 0
    for i, raw in enumerate(raw_nodes):
        node = _parse_node(raw, i, tensors)
        tensors[node.id] = node
        # The cost model prices element counts and sums of flops as floats.
        flops += node.flops
        if not (_is_finite_number(math.prod(node.shape)) and _is_finite_number(flops)):
            raise GraphFormatError("element count or flops of the graph so far exceed "
                                   "float range", f"nodes[{i}] (id={node.id!r})")
    if loss not in tensors:
        raise GraphFormatError(f"loss id {loss!r} names no node")
    if tensors[loss].shape != ():
        raise GraphFormatError(f"loss {loss!r} must be scalar, has shape {tensors[loss].shape}")

    ancestors: set[str] = set()
    stack = [loss]
    while stack:
        ref = stack.pop()
        if ref in ancestors:
            continue
        ancestors.add(ref)
        stack.extend(tensors[ref].inputs)

    return Graph(nodes=tuple(tensors.values()), tensors=tensors, loss=loss,
                 loss_ancestors=frozenset(ancestors))


def invalid_json(e: ValueError | RecursionError, source: str = "") -> str:
    """The message for a document that is not JSON, as the decoder's error
    `e` found it, naming the file `source` if given."""
    source = f" in {source}" if source else ""
    if isinstance(e, json.JSONDecodeError):
        return f"invalid JSON{source} at line {e.lineno} col {e.colno}: {e.msg}"
    return f"invalid JSON{source}: nested too deeply"


def parse_graph(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise GraphFormatError(invalid_json(e)) from e
    return graph_from_dict(doc)


def _json_list(items: list[str], indent: int) -> str:
    """Encoded `items` as a JSON array that `json.dumps(indent=2)` indents by `indent`."""
    if not items:
        return "[]"
    pad = "\n" + " " * (indent + 2)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * indent}]"


def serialize_graph(g: Graph) -> str:
    """`json.dumps(doc, indent=2) + "\\n"` of the graph document, built directly:
    strings encoded as json encodes them, ints by repr."""
    q = encode_basestring_ascii
    nodes = []
    for n in g.nodes:
        if n.op in ("ElemwiseUnary", "ElemwiseBinary"):
            attrs = f'{{\n        "tag": {q(n.tag)}\n      }}'
        elif n.op == "Reduce":
            attrs = f'{{\n        "dims": {_json_list(list(map(repr, n.dims or ())), 8)}\n      }}'
        else:
            attrs = "{}"
        nodes.append(f'{{\n      "id": {q(n.id)},\n      "op": {q(n.op)},\n'
                     f'      "inputs": {_json_list(list(map(q, n.inputs)), 6)},\n'
                     f'      "shape": {_json_list(list(map(repr, n.shape)), 6)},\n'
                     f'      "attrs": {attrs}\n    }}')
    return f'{{\n  "nodes": {_json_list(nodes, 2)},\n  "loss": {q(g.loss)}\n}}\n'


class SegmentAssignment(NamedTuple):
    """Maps every tensor id to a segment index in [1..count]; contiguous in
    topological order.  The field `count` shadows `tuple.count`, which the
    package never calls."""
    segment_of: dict[str, int]
    count: int

    def row_index(self, ref: str) -> int:
        return self.segment_of[ref] - 1


def assign_segments(g: Graph, count: int) -> SegmentAssignment:
    """Contiguous topological partition of the node list into `count` segments
    minimizing the maximum per-segment flop total (exact DP; earliest cuts on
    ties, so the result is deterministic)."""
    n = len(g.nodes)
    if count <= 0:
        raise ValueError(f"segment count must be positive, got {count}")
    if count > n:
        raise ValueError(f"segment count {count} exceeds tensor count {n}")
    weights = [node.flops for node in g.nodes]
    prefix = [0] * (n + 1)
    for i, w in enumerate(weights):
        prefix[i + 1] = prefix[i] + w

    INF = float("inf")
    # best[k][i]: minimal max-segment weight partitioning the first i nodes into k parts.
    best = [[INF] * (n + 1) for _ in range(count + 1)]
    best[0][0] = 0.0
    for k in range(1, count + 1):
        for i in range(k, n + 1):
            for j in range(k - 1, i):
                cand = max(best[k - 1][j], prefix[i] - prefix[j])
                if cand < best[k][i]:
                    best[k][i] = cand

    cuts = [n]
    i = n
    for k in range(count, 0, -1):
        for j in range(k - 1, i):
            if max(best[k - 1][j], prefix[i] - prefix[j]) == best[k][i]:
                cuts.append(j)
                i = j
                break
    cuts.reverse()  # [0, c1, ..., n]

    segment_of = {}
    for k in range(count):
        for idx in range(cuts[k], cuts[k + 1]):
            segment_of[g.nodes[idx].id] = k + 1
    return SegmentAssignment(segment_of=segment_of, count=count)
