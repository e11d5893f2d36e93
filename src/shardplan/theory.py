"""Background theory: Hoare triples over distributed-tensor properties.

A property ``e|F`` asserts that executing the collective form ``F`` on a
distributed tensor reconstructs the reference tensor ``e``:

* ``e|Identity``      -- every device holds ``e`` in full;
* ``e|AllGather(d)``  -- concatenating the per-device instances along axis
  ``d`` yields ``e``;
* ``e|AllReduce``     -- summing the per-device instances yields ``e``.

Two guard pseudo-properties, ``Communicated``/``NotCommunicated``, never
describe values; they only steer the search (at most one communication per
reference tensor).

``derive_theory`` turns a graph into the set of sound triples
``{pre} instr {post}``: source rules, per-operator sharding rules, and
collective rules for every tensor.  One constructor, ``_rule``, builds every
one of them: a single instruction that reads the distributed tensor of each
precondition property and writes the one of the postcondition.
``fuse_empty_preconditions`` and ``add_communication_guards`` are optional
theory rewrites that shrink the search space without changing the reachable
minimum cost.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .graph_ir import Graph, Node, node_flops

# Property kinds.
IDENTITY = "Id"
ALL_GATHER = "AG"
ALL_REDUCE = "AR"
COMMUNICATED = "Comm"
NOT_COMMUNICATED = "NotComm"

GUARD_KINDS = (COMMUNICATED, NOT_COMMUNICATED)

# Collective instruction kinds.
COLLECTIVE_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all", "grouped_broadcast")


class Property(NamedTuple):
    ref: str
    kind: str
    axis: int | None = None

    @property
    def is_guard(self) -> bool:
        return self.kind in GUARD_KINDS

    def __str__(self) -> str:
        if self.kind == ALL_GATHER:
            return f"{self.ref}|AG({self.axis})"
        return f"{self.ref}|{self.kind}"


def identity(ref: str) -> Property:
    return Property(ref, IDENTITY)


def all_gather(ref: str, d: int) -> Property:
    return Property(ref, ALL_GATHER, d)


def all_reduce(ref: str) -> Property:
    return Property(ref, ALL_REDUCE)


def communicated(ref: str) -> Property:
    return Property(ref, COMMUNICATED)


def not_communicated(ref: str) -> Property:
    return Property(ref, NOT_COMMUNICATED)


def dist_id(prop: Property) -> str:
    """Canonical name of the distributed tensor realizing `prop`."""
    if prop.kind == IDENTITY:
        return f"{prop.ref}@full"
    if prop.kind == ALL_GATHER:
        return f"{prop.ref}@shard{prop.axis}"
    if prop.kind == ALL_REDUCE:
        return f"{prop.ref}@partial"
    raise ValueError(f"guard property {prop} has no distributed tensor")


def form_of_dist_id(did: str) -> Property:
    ref, _, suffix = did.rpartition("@")
    if suffix == "full":
        return identity(ref)
    if suffix == "partial":
        return all_reduce(ref)
    if suffix.startswith("shard"):
        return all_gather(ref, int(suffix[len("shard"):]))
    raise ValueError(f"malformed distributed tensor id {did!r}")


class Instruction(NamedTuple):
    """One SPMD instruction; self-contained for both execution and costing.

    `sharded` marks whether the per-device work scales with the device's
    sharding ratio (it does whenever the rule splits an axis across devices)
    or stays at the full single-device flop count (replicated compute).
    `elements` is the reference-tensor element count, used to price
    communication; zero for computation.
    """
    kind: str
    ref: str
    operands: tuple[str, ...] = ()
    output: str = ""
    axis: int | None = None
    axis2: int | None = None
    dims: tuple[int, ...] | None = None
    tag: str | None = None
    sharded: bool = False
    flops: int = 0
    elements: int = 0

    @property
    def is_comm(self) -> bool:
        return self.kind in COLLECTIVE_KINDS

    def canonical(self) -> str:
        bits = [self.kind, self.ref]
        if self.axis is not None:
            bits.append(f"d={self.axis}")
        if self.axis2 is not None:
            bits.append(f"d2={self.axis2}")
        return f"{self.output}<-{'/'.join(bits)}({','.join(self.operands)})"

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "ref": self.ref, "operands": list(self.operands),
                     "output": self.output}
        if self.axis is not None:
            doc["axis"] = self.axis
        if self.axis2 is not None:
            doc["axis2"] = self.axis2
        if self.dims is not None:
            doc["dims"] = list(self.dims)
        if self.tag is not None:
            doc["tag"] = self.tag
        doc["sharded"] = self.sharded
        doc["flops"] = self.flops
        doc["elements"] = self.elements
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Instruction":
        return cls(kind=doc["kind"], ref=doc["ref"], operands=tuple(doc.get("operands", ())),
                   output=doc["output"], axis=doc.get("axis"), axis2=doc.get("axis2"),
                   dims=tuple(doc["dims"]) if doc.get("dims") is not None else None,
                   tag=doc.get("tag"), sharded=doc["sharded"], flops=doc["flops"],
                   elements=doc["elements"])


class HoareTriple(NamedTuple):
    pre: frozenset[Property]
    instrs: tuple[Instruction, ...]
    post: frozenset[Property]

    def __str__(self) -> str:
        pre = ",".join(sorted(map(str, self.pre)))
        post = ",".join(sorted(map(str, self.post)))
        seq = ";".join(i.canonical() for i in self.instrs)
        return f"{{{pre}}} {seq} {{{post}}}"


class Theory(NamedTuple):
    triples: tuple[HoareTriple, ...]
    loss: str
    tensor_ids: tuple[str, ...]
    source_ids: frozenset[str]
    initial_props: frozenset[Property] = frozenset()


def _rule(kind: str, post: Property, pre: tuple[Property, ...] = (), *,
          axis: int | None = None, axis2: int | None = None,
          dims: tuple[int, ...] | None = None, tag: str | None = None,
          sharded: bool = False, flops: int = 0, elements: int = 0) -> HoareTriple:
    """The triple {pre} kind {post}: one instruction on `post`'s reference
    tensor that reads the distributed tensor of each precondition property and
    writes the one of the postcondition."""
    instr = Instruction(kind, post.ref, tuple(map(dist_id, pre)), dist_id(post),
                        axis, axis2, dims, tag, sharded, flops, elements)
    return HoareTriple(frozenset(pre), (instr,), frozenset({post}))


def _source_rules(node: Node, g: Graph) -> list[HoareTriple]:
    base = "placeholder" if node.op == "Placeholder" else "parameter"
    e = node.id
    return [_rule(base, identity(e))] + [
        _rule(f"{base}_shard", all_gather(e, d), axis=d, sharded=True)
        for d in range(len(node.shape))]


def _matmul_rules(node: Node, g: Graph) -> list[HoareTriple]:
    e1, e2 = node.inputs
    e3 = node.id
    f = node_flops(g, node)
    return [
        _rule("matmul", all_gather(e3, 0), (all_gather(e1, 0), identity(e2)),
              sharded=True, flops=f),
        _rule("matmul", all_gather(e3, 1), (identity(e1), all_gather(e2, 1)),
              sharded=True, flops=f),
        _rule("matmul", all_reduce(e3), (all_gather(e1, 1), all_gather(e2, 0)),
              sharded=True, flops=f),
        _rule("matmul", identity(e3), (identity(e1), identity(e2)), flops=f),  # full replication
    ]


_ELEMWISE_KINDS = {"Identity": "identity", "ElemwiseUnary": "elemwise_unary",
                   "ElemwiseBinary": "elemwise_binary"}


def _elemwise_rules(node: Node, g: Graph) -> list[HoareTriple]:
    """Every operand takes the output's form: the same sharded axis, full
    replication, or partial sums for a linear op."""
    kind = _ELEMWISE_KINDS[node.op]
    f = node_flops(g, node)
    out = [_rule(kind, all_gather(node.id, d), tuple(all_gather(e, d) for e in node.inputs),
                 tag=node.tag, sharded=True, flops=f) for d in range(len(node.shape))]
    out.append(_rule(kind, identity(node.id), tuple(map(identity, node.inputs)), tag=node.tag,
                     flops=f))
    if node.op == "Identity" or node.tag == "add":
        # Identity and addition commute with the cross-device sum; Mul does not.
        out.append(_rule(kind, all_reduce(node.id), tuple(map(all_reduce, node.inputs)),
                         tag=node.tag, flops=f))
    return out


def _reduce_rules(node: Node, g: Graph) -> list[HoareTriple]:
    (e1,) = node.inputs
    e2 = node.id
    f = node_flops(g, node)
    dims = node.dims or ()
    out = [_rule("reduce", identity(e2), (identity(e1),), dims=dims, flops=f),
           _rule("reduce", all_reduce(e2), (all_reduce(e1),), dims=dims, flops=f)]
    for d in range(len(g.tensors[e1].shape)):
        if d in dims:
            # Reducing over the sharded axis leaves per-device partial sums.
            post = all_reduce(e2)
        else:
            post = all_gather(e2, d - sum(1 for r in dims if r < d))
        out.append(_rule("reduce", post, (all_gather(e1, d),), dims=dims, sharded=True, flops=f))
    return out


_RULES = {
    "Placeholder": _source_rules,
    "Parameter": _source_rules,
    "MatMul": _matmul_rules,
    "ElemwiseUnary": _elemwise_rules,
    "Identity": _elemwise_rules,
    "ElemwiseBinary": _elemwise_rules,
    "Reduce": _reduce_rules,
}


def _comm_rules(ref: str, shape: tuple[int, ...]) -> list[HoareTriple]:
    n = math.prod(shape)
    full, partial = identity(ref), all_reduce(ref)
    shards = list(enumerate(all_gather(ref, d) for d in range(len(shape))))
    return ([_rule("all_reduce", full, (partial,), elements=n)]
            + [_rule("reduce_scatter", p, (partial,), axis=d, elements=n) for d, p in shards]
            + [_rule("all_gather", full, (p,), axis=d, elements=n) for d, p in shards]
            # Same contract as AllGather(d); costs differ under skewed ratios.
            + [_rule("grouped_broadcast", full, (p,), axis=d, elements=n) for d, p in shards]
            + [_rule("all_to_all", p2, (p1,), axis=d1, axis2=d2, elements=n)
               for d1, p1 in shards for d2, p2 in shards if d1 != d2])


def derive_theory(g: Graph, m: int) -> Theory:
    """All sound triples for `g`; their instructions are the only ones a plan
    for `g` may contain.  The triple set does not depend on `m` (shards of
    extent zero are legal), but `m` must be a sane device count."""
    if m < 1:
        raise ValueError(f"device count must be >= 1, got {m}")
    triples: list[HoareTriple] = []
    for node in g.nodes:
        triples.extend(_RULES[node.op](node, g))
    for node in g.nodes:
        triples.extend(_comm_rules(node.id, node.shape))
    for tr in triples:
        assert tr.post - tr.pre, f"vacuous rule derived: {tr}"
    sources = frozenset(n.id for n in g.nodes if n.op in ("Placeholder", "Parameter"))
    return Theory(triples=tuple(triples), loss=g.loss, tensor_ids=g.tensor_ids,
                  source_ids=sources)


def fuse_empty_preconditions(t: Theory) -> Theory:
    """Fold empty-precondition triples into their consumers.

    One walk over the triples, fused ones included: each triple T1 with empty
    pre that has at least one consumer (a triple T2 with post(T1) <= pre(T2))
    is replaced by the fused triples {pre(T2) \\ post(T1)} [T1;T2]
    {post(T1) | post(T2)}.  A fused pre is a subset of its consumer's pre, so
    no triple already walked gains a consumer.  Empty-pre triples without
    consumers survive; the search fires them directly.

    Consumers are found through an index from each property to the triples,
    in list order, whose pre holds it; fused triples join it as they are
    appended, so the consumers and the triple list are those of a scan over
    every triple.
    """
    triples = list(t.triples)
    seen = set(triples)
    readers: dict[Property, list[HoareTriple]] = {}
    for tr in triples:
        for p in tr.pre:
            readers.setdefault(p, []).append(tr)
    kept: list[HoareTriple] = []
    for tr in triples:          # also walks the fused triples appended below
        consumers = [] if tr.pre else [
            c for c in min((readers.get(p, ()) for p in tr.post), key=len)
            if tr.post <= c.pre]
        if not consumers:
            kept.append(tr)
            continue
        for c in consumers:
            fused = HoareTriple(c.pre - tr.post, tr.instrs + c.instrs, tr.post | c.post)
            if fused not in seen:
                seen.add(fused)
                triples.append(fused)
                for p in fused.pre:
                    readers.setdefault(p, []).append(fused)
    return t._replace(triples=tuple(kept))


def add_communication_guards(t: Theory) -> Theory:
    """Allow at most one communication per reference tensor.

    Every triple containing a communication instruction on tensor e gains
    NotCommunicated(e) in its pre and Communicated(e) in its post; triples
    communicating Placeholder/Parameter tensors are dropped outright (their
    sharded forms come straight from the source rules).  Property sets then
    start from NotCommunicated for every tensor.
    """
    kept: list[HoareTriple] = []
    for tr in t.triples:
        comm_refs = [i.ref for i in tr.instrs if i.is_comm]
        if any(ref in t.source_ids for ref in comm_refs):
            continue
        if comm_refs:
            pre = tr.pre | {not_communicated(r) for r in comm_refs}
            post = tr.post | {communicated(r) for r in comm_refs}
            kept.append(HoareTriple(pre, tr.instrs, post))
        else:
            kept.append(tr)
    initial = frozenset(not_communicated(ref) for ref in t.tensor_ids)
    return t._replace(triples=tuple(kept), initial_props=initial)


def build_theory(g: Graph, m: int, *, guards: bool = True, fuse: bool = True) -> Theory:
    """Standard derivation pipeline used by the planner."""
    t = derive_theory(g, m)
    if guards:
        t = add_communication_guards(t)
    if fuse:
        t = fuse_empty_preconditions(t)
    return t

