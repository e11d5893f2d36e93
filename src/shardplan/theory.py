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
collective rules for every tensor.  ``fuse_empty_preconditions`` and
``add_communication_guards`` are optional theory rewrites that shrink the
search space without changing the reachable minimum cost.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .graph_ir import Graph, Node, node_flops

# Property kinds.
IDENTITY = "Id"
ALL_GATHER = "AG"
ALL_REDUCE = "AR"
COMMUNICATED = "Comm"
NOT_COMMUNICATED = "NotComm"

GUARD_KINDS = (COMMUNICATED, NOT_COMMUNICATED)

# Instruction kinds.
COMM_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all", "grouped_broadcast")
INSTRUCTION_KINDS = ("placeholder", "placeholder_shard", "parameter", "parameter_shard",
                     "matmul", "elemwise_unary", "elemwise_binary", "reduce",
                     "identity") + COMM_KINDS


@dataclass(frozen=True)
class Property:
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


def dist_id(ref: str, prop: Property) -> str:
    """Canonical name of the distributed tensor realizing `prop`."""
    if prop.kind == IDENTITY:
        return f"{ref}@full"
    if prop.kind == ALL_GATHER:
        return f"{ref}@shard{prop.axis}"
    if prop.kind == ALL_REDUCE:
        return f"{ref}@partial"
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


@dataclass(frozen=True)
class Instruction:
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
        return self.kind in COMM_KINDS

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


@dataclass(frozen=True)
class HoareTriple:
    pre: frozenset[Property]
    instrs: tuple[Instruction, ...]
    post: frozenset[Property]

    def __str__(self) -> str:
        pre = ",".join(sorted(map(str, self.pre)))
        post = ",".join(sorted(map(str, self.post)))
        seq = ";".join(i.canonical() for i in self.instrs)
        return f"{{{pre}}} {seq} {{{post}}}"


@dataclass(frozen=True)
class Theory:
    triples: tuple[HoareTriple, ...]
    loss: str
    tensor_ids: tuple[str, ...]
    source_ids: frozenset[str]
    shapes: dict[str, tuple[int, ...]]
    initial_props: frozenset[Property] = frozenset()


def merge_post(props: frozenset[Property], post: frozenset[Property]) -> frozenset[Property]:
    """Union of property sets; adding Communicated(e) retires NotCommunicated(e)."""
    merged = props | post
    retired = {not_communicated(p.ref) for p in post if p.kind == COMMUNICATED}
    if retired:
        merged -= retired
    return merged


def _source_rules(node: Node) -> list[HoareTriple]:
    base = "placeholder" if node.op == "Placeholder" else "parameter"
    e = node.id
    out: list[HoareTriple] = []
    full = identity(e)
    out.append(HoareTriple(frozenset(), (Instruction(base, e, output=dist_id(e, full)),),
                           frozenset({full})))
    for d in range(len(node.shape)):
        p = all_gather(e, d)
        out.append(HoareTriple(frozenset(),
                               (Instruction(f"{base}_shard", e, axis=d, output=dist_id(e, p),
                                            sharded=True),),
                               frozenset({p})))
    return out


def _matmul_rules(node: Node, g: Graph) -> list[HoareTriple]:
    e1, e2 = node.inputs
    e3 = node.id
    f = node_flops(g, node)

    def rule(p1: Property, p2: Property, p3: Property, sharded: bool) -> HoareTriple:
        instr = Instruction("matmul", e3, operands=(dist_id(e1, p1), dist_id(e2, p2)),
                            output=dist_id(e3, p3), sharded=sharded, flops=f)
        return HoareTriple(frozenset({p1, p2}), (instr,), frozenset({p3}))

    return [
        rule(all_gather(e1, 0), identity(e2), all_gather(e3, 0), True),
        rule(identity(e1), all_gather(e2, 1), all_gather(e3, 1), True),
        rule(all_gather(e1, 1), all_gather(e2, 0), all_reduce(e3), True),
        rule(identity(e1), identity(e2), identity(e3), False),  # full replication
    ]


def _unary_rules(node: Node, g: Graph) -> list[HoareTriple]:
    (e1,) = node.inputs
    e2 = node.id
    f = node_flops(g, node)
    kind = "identity" if node.op == "Identity" else "elemwise_unary"

    def rule(p1: Property, p2: Property, sharded: bool) -> HoareTriple:
        instr = Instruction(kind, e2, operands=(dist_id(e1, p1),), output=dist_id(e2, p2),
                            tag=node.tag, sharded=sharded, flops=f)
        return HoareTriple(frozenset({p1}), (instr,), frozenset({p2}))

    out = [rule(all_gather(e1, d), all_gather(e2, d), True) for d in range(len(node.shape))]
    out.append(rule(identity(e1), identity(e2), False))
    if node.op == "Identity":
        # Identity is linear, so it commutes with the cross-device sum.
        out.append(rule(all_reduce(e1), all_reduce(e2), False))
    return out


def _binary_rules(node: Node, g: Graph) -> list[HoareTriple]:
    e1, e2 = node.inputs
    e3 = node.id
    f = node_flops(g, node)

    def rule(p1: Property, p2: Property, p3: Property, sharded: bool) -> HoareTriple:
        instr = Instruction("elemwise_binary", e3, operands=(dist_id(e1, p1), dist_id(e2, p2)),
                            output=dist_id(e3, p3), tag=node.tag, sharded=sharded, flops=f)
        return HoareTriple(frozenset({p1, p2}), (instr,), frozenset({p3}))

    out = [rule(all_gather(e1, d), all_gather(e2, d), all_gather(e3, d), True)
           for d in range(len(node.shape))]
    out.append(rule(identity(e1), identity(e2), identity(e3), False))
    if node.tag == "add":
        # Addition distributes over the cross-device sum; Mul does not.
        out.append(rule(all_reduce(e1), all_reduce(e2), all_reduce(e3), False))
    return out


def _reduce_rules(node: Node, g: Graph) -> list[HoareTriple]:
    (e1,) = node.inputs
    e2 = node.id
    f = node_flops(g, node)
    dims = node.dims or ()
    in_rank = len(g.tensors[e1].shape)

    def rule(p1: Property, p2: Property, sharded: bool) -> HoareTriple:
        instr = Instruction("reduce", e2, operands=(dist_id(e1, p1),), output=dist_id(e2, p2),
                            dims=dims, sharded=sharded, flops=f)
        return HoareTriple(frozenset({p1}), (instr,), frozenset({p2}))

    out = [rule(identity(e1), identity(e2), False),
           rule(all_reduce(e1), all_reduce(e2), False)]
    for d in range(in_rank):
        if d in dims:
            # Reducing over the sharded axis leaves per-device partial sums.
            out.append(rule(all_gather(e1, d), all_reduce(e2), True))
        else:
            d_out = d - sum(1 for r in dims if r < d)
            out.append(rule(all_gather(e1, d), all_gather(e2, d_out), True))
    return out


_RULES = {
    "Placeholder": lambda node, g: _source_rules(node),
    "Parameter": lambda node, g: _source_rules(node),
    "MatMul": _matmul_rules,
    "ElemwiseUnary": _unary_rules,
    "Identity": _unary_rules,
    "ElemwiseBinary": _binary_rules,
    "Reduce": _reduce_rules,
}


def _comm_rules(ref: str, shape: tuple[int, ...]) -> list[HoareTriple]:
    n = math.prod(shape)
    rank = len(shape)
    out: list[HoareTriple] = []

    def rule(pre: Property, kind: str, post: Property, axis: int | None = None,
             axis2: int | None = None) -> HoareTriple:
        instr = Instruction(kind, ref, operands=(dist_id(ref, pre),), output=dist_id(ref, post),
                            axis=axis, axis2=axis2, elements=n)
        return HoareTriple(frozenset({pre}), (instr,), frozenset({post}))

    out.append(rule(all_reduce(ref), "all_reduce", identity(ref)))
    for d in range(rank):
        out.append(rule(all_reduce(ref), "reduce_scatter", all_gather(ref, d), axis=d))
    for d in range(rank):
        out.append(rule(all_gather(ref, d), "all_gather", identity(ref), axis=d))
    for d in range(rank):
        # Same contract as AllGather(d); costs differ under skewed ratios.
        out.append(rule(all_gather(ref, d), "grouped_broadcast", identity(ref), axis=d))
    for d1 in range(rank):
        for d2 in range(rank):
            if d1 != d2:
                out.append(rule(all_gather(ref, d1), "all_to_all", all_gather(ref, d2),
                                axis=d1, axis2=d2))
    return out


def derive_theory(g: Graph, m: int) -> Theory:
    """All sound triples for `g`.  The triple set does not depend on `m`
    (shards of extent zero are legal), but `m` must be a sane device count."""
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
                  source_ids=sources, shapes={n.id: n.shape for n in g.nodes})


def fuse_empty_preconditions(t: Theory) -> Theory:
    """Fold empty-precondition triples into their consumers.

    Repeatedly: pick a triple T1 with empty pre that has at least one consumer
    (a triple T2 with post(T1) <= pre(T2)), replace T1 by the fused triples
    {pre(T2) \\ post(T1)} [T1;T2] {post(T1) | post(T2)}.  Empty-pre triples
    without consumers survive; the search fires them directly.
    """
    triples = list(t.triples)
    seen = {(tr.instrs, tr.pre, tr.post) for tr in triples}
    while True:
        fused_any = False
        for tr in triples:
            if tr.pre:
                continue
            consumers = [c for c in triples if c is not tr and tr.post <= c.pre]
            if not consumers:
                continue
            triples.remove(tr)
            for c in consumers:
                fused = HoareTriple(pre=c.pre - tr.post, instrs=tr.instrs + c.instrs,
                                    post=tr.post | c.post)
                key = (fused.instrs, fused.pre, fused.post)
                if key not in seen:
                    seen.add(key)
                    triples.append(fused)
            fused_any = True
            break
        if not fused_any:
            return replace(t, triples=tuple(triples))


def add_communication_guards(t: Theory) -> Theory:
    """Allow at most one communication per reference tensor.

    Every triple containing a communication instruction on tensor e gains
    NotCommunicated(e) in its pre and Communicated(e) in its post; triples
    communicating Placeholder/Parameter tensors are dropped outright (their
    sharded forms come straight from the source rules).  Property sets then
    start from NotCommunicated for every tensor.
    """
    if not any(i.is_comm for tr in t.triples for i in tr.instrs):
        return t
    kept: list[HoareTriple] = []
    for tr in t.triples:
        comm_refs = [i.ref for i in tr.instrs if i.is_comm]
        if any(ref in t.source_ids for ref in comm_refs):
            continue
        if comm_refs:
            pre = tr.pre | {not_communicated(r) for r in comm_refs}
            post = tr.post | {communicated(r) for r in comm_refs}
            kept.append(replace(tr, pre=pre, post=post))
        else:
            kept.append(tr)
    initial = frozenset(not_communicated(ref) for ref in t.tensor_ids)
    return replace(t, triples=tuple(kept), initial_props=initial)


def build_theory(g: Graph, m: int, *, guards: bool = True, fuse: bool = True) -> Theory:
    """Standard derivation pipeline used by the planner."""
    t = derive_theory(g, m)
    if guards:
        t = add_communication_guards(t)
    if fuse:
        t = fuse_empty_preconditions(t)
    return t

