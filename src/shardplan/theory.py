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
precondition property and writes the one of the postcondition.  The guards
are derived in the same pass, and ``fuse_empty_preconditions`` is a rewrite;
both shrink the search space without changing the reachable minimum cost.
"""
from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from .graph_ir import SOURCE_OPS, Graph, Node, node_flops

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
    initial_props: frozenset[Property] = frozenset()


class _Forms(NamedTuple):
    """A tensor's properties, each with its distributed tensor's `dist_id`."""
    full: tuple[Property, str]
    partial: tuple[Property, str]
    shard: tuple[tuple[Property, str], ...]


def _forms(ref: str, rank: int) -> _Forms:
    return _Forms((identity(ref), f"{ref}@full"), (all_reduce(ref), f"{ref}@partial"),
                  tuple((all_gather(ref, d), f"{ref}@shard{d}") for d in range(rank)))


# tuple.__new__ builds a named tuple without the Python call its own __new__ makes.
_prop, _did, _new = itemgetter(0), itemgetter(1), tuple.__new__
_UNGUARDED = ((), ())


def _rule(kind: str, post: tuple[Property, str], pre: tuple[tuple[Property, str], ...] = (),
          *, axis: int | None = None, axis2: int | None = None,
          dims: tuple[int, ...] | None = None, tag: str | None = None,
          sharded: bool = False, flops: int = 0, elements: int = 0,
          guard: tuple[tuple[Property, ...], tuple[Property, ...]] = _UNGUARDED) -> HoareTriple:
    """The triple {pre} kind {post}: one instruction on `post`'s reference
    tensor that reads the distributed tensor of each precondition form and
    writes the one of the postcondition.  `guard` adds properties to the
    pre and to the post."""
    prop, did = post
    instr = _new(Instruction, (kind, prop.ref, tuple(map(_did, pre)), did,
                               axis, axis2, dims, tag, sharded, flops, elements))
    return _new(HoareTriple, (frozenset((*map(_prop, pre), *guard[0])), (instr,),
                              frozenset((prop, *guard[1]))))


def _source_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    base = "placeholder" if node.op == "Placeholder" else "parameter"
    e = forms[node.id]
    return [_rule(base, e.full)] + [_rule(f"{base}_shard", s, axis=d, sharded=True)
                                    for d, s in enumerate(e.shard)]


def _matmul_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    e1, e2, e3 = forms[node.inputs[0]], forms[node.inputs[1]], forms[node.id]
    f = node_flops(g, node)
    return [
        _rule("matmul", e3.shard[0], (e1.shard[0], e2.full), sharded=True, flops=f),
        _rule("matmul", e3.shard[1], (e1.full, e2.shard[1]), sharded=True, flops=f),
        _rule("matmul", e3.partial, (e1.shard[1], e2.shard[0]), sharded=True, flops=f),
        _rule("matmul", e3.full, (e1.full, e2.full), flops=f),  # full replication
    ]


_ELEMWISE_KINDS = {"Identity": "identity", "ElemwiseUnary": "elemwise_unary",
                   "ElemwiseBinary": "elemwise_binary"}


def _elemwise_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    """Every operand takes the output's form: the same sharded axis, full
    replication, or partial sums for a linear op."""
    kind = _ELEMWISE_KINDS[node.op]
    f = node_flops(g, node)
    ins = [forms[e] for e in node.inputs]
    out = forms[node.id]
    rules = [_rule(kind, s, tuple(e.shard[d] for e in ins), tag=node.tag, sharded=True, flops=f)
             for d, s in enumerate(out.shard)]
    rules.append(_rule(kind, out.full, tuple(e.full for e in ins), tag=node.tag, flops=f))
    if node.op == "Identity" or node.tag == "add":
        # Identity and addition commute with the cross-device sum; Mul does not.
        rules.append(_rule(kind, out.partial, tuple(e.partial for e in ins), tag=node.tag,
                           flops=f))
    return rules


def _reduce_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    e1, e2 = forms[node.inputs[0]], forms[node.id]
    f = node_flops(g, node)
    dims = node.dims or ()
    out = [_rule("reduce", e2.full, (e1.full,), dims=dims, flops=f),
           _rule("reduce", e2.partial, (e1.partial,), dims=dims, flops=f)]
    for d, s in enumerate(e1.shard):
        if d in dims:
            # Reducing over the sharded axis leaves per-device partial sums.
            post = e2.partial
        else:
            post = e2.shard[d - sum(1 for r in dims if r < d)]
        out.append(_rule("reduce", post, (s,), dims=dims, sharded=True, flops=f))
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


def _comm_rules(e: _Forms, n: int, guard: tuple) -> list[HoareTriple]:
    full, partial = e.full, e.partial
    shards = list(enumerate(e.shard))
    return ([_rule("all_reduce", full, (partial,), elements=n, guard=guard)]
            + [_rule("reduce_scatter", p, (partial,), axis=d, elements=n, guard=guard)
               for d, p in shards]
            + [_rule("all_gather", full, (p,), axis=d, elements=n, guard=guard)
               for d, p in shards]
            # Same contract as AllGather(d); costs differ under skewed ratios.
            + [_rule("grouped_broadcast", full, (p,), axis=d, elements=n, guard=guard)
               for d, p in shards]
            + [_rule("all_to_all", p2, (p1,), axis=d1, axis2=d2, elements=n, guard=guard)
               for d1, p1 in shards for d2, p2 in shards if d1 != d2])


def derive_theory(g: Graph, m: int, *, guards: bool = False) -> Theory:
    """All sound triples for `g`; their instructions are the only ones a plan
    for `g` may contain.  The triple set does not depend on `m` (shards of
    extent zero are legal), but `m` must be a sane device count.  With
    `guards`, a tensor is communicated at most once: a collective rule on e
    needs NotCommunicated(e), which every tensor starts with, and posts
    Communicated(e); sources, whose sharded forms are free, get none."""
    if m < 1:
        raise ValueError(f"device count must be >= 1, got {m}")
    forms = {node.id: _forms(node.id, len(node.shape)) for node in g.nodes}
    triples: list[HoareTriple] = []
    for node in g.nodes:
        triples.extend(_RULES[node.op](node, g, forms))
    for node in g.nodes:
        if not guards:
            triples.extend(_comm_rules(forms[node.id], math.prod(node.shape), _UNGUARDED))
        elif node.op not in SOURCE_OPS:
            guard = ((not_communicated(node.id),), (communicated(node.id),))
            triples.extend(_comm_rules(forms[node.id], math.prod(node.shape), guard))
    for tr in triples:
        assert not tr.post <= tr.pre, f"vacuous rule derived: {tr}"
    initial = frozenset(map(not_communicated, forms)) if guards else frozenset()
    return Theory(triples=tuple(triples), loss=g.loss, initial_props=initial)


def fuse_empty_preconditions(t: Theory) -> Theory:
    """Fold source rules into their consumers.

    One walk over the triples, fused ones included: each source rule T1
    (empty pre, one post property) that has at least one consumer (a triple
    T2 with post(T1) <= pre(T2)) is replaced by the fused triples
    {pre(T2) \\ post(T1)} [T1;T2] {post(T1) | post(T2)}.  A fused pre is a
    subset of its consumer's pre, so no triple already walked gains a
    consumer.  The search fires the rest directly, fused triples included:
    a source costs nothing, so fusing it keeps the minimum, but folding a
    fused triple would make each consumer of its source pay for the
    consumer fused with it.

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
        # A source rule's consumers are the readers of its one property; no
        # triple fused below reads it, so the list does not grow meanwhile.
        consumers = [] if tr.pre or len(tr.post) != 1 else readers.get(next(iter(tr.post)), [])
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


def build_theory(g: Graph, m: int, *, guards: bool = True, fuse: bool = True) -> Theory:
    """Standard derivation pipeline used by the planner."""
    t = derive_theory(g, m, guards=guards)
    return fuse_empty_preconditions(t) if fuse else t

