"""Background theory: Hoare triples over distributed-tensor properties.

A property ``e|F`` asserts that executing the collective form ``F`` on a
distributed tensor reconstructs the reference tensor ``e``:

* ``e|Identity``      -- every device holds ``e`` in full;
* ``e|AllGather(d)``  -- concatenating the per-device instances along axis
  ``d`` yields ``e``;
* ``e|AllReduce``     -- summing the per-device instances yields ``e``.

Two guard pseudo-properties, ``Communicated``/``NotCommunicated``, never
describe values; they only steer the search (at most one communication per
reference tensor).  A property set is an int: bit i is ``Theory.props[i]``.
Each triple carries its delete list, ``kill``: the ``NotCommunicated``
guards it retires, so firing it leaves ``(props | post) & ~kill``.

``derive_theory`` turns a graph into the set of sound triples
``{pre} instr {post}``: source rules, per-operator sharding rules, and
collective rules for every tensor.  One constructor, ``_rule``, builds every
one of them: a single instruction that reads the distributed tensor of each
precondition property and writes the one of the postcondition.  The guards
are derived in the same pass, and ``fuse_empty_preconditions`` is a rewrite;
both shrink the search space without changing the reachable minimum cost.
``relevant`` keeps the triples that can reach the loss, which is all the
one-row enumeration walks.
"""
from __future__ import annotations

import math
from functools import reduce
from operator import itemgetter, or_
from typing import NamedTuple

from .graph_ir import SOURCE_OPS, Graph, Node

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
    """{pre} instrs {post}, deleting `kill`; all three are property sets of a theory."""
    pre: int
    instrs: tuple[Instruction, ...]
    post: int
    kill: int


class Theory(NamedTuple):
    """Every property set is an int whose bit i stands for `props[i]`."""
    triples: tuple[HoareTriple, ...]
    loss: str
    props: tuple[Property, ...]
    initial_props: int = 0


def bits(mask: int):
    """The indices of the set bits of `mask`, in ascending order."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


class _Forms(NamedTuple):
    """A tensor's forms as (bit, `dist_id`, tensor); its guards' bits, or (0, 0)."""
    full: tuple[int, str, str]
    partial: tuple[int, str, str]
    shard: tuple[tuple[int, str, str], ...]
    guard: tuple[int, int]


def _forms(ref: str, rank: int, props: list[Property], guards: bool) -> _Forms:
    """`ref`'s forms, and its guards if `guards`, on the next bits of `props`."""
    b = len(props)
    props += (identity(ref), all_reduce(ref), *(all_gather(ref, d) for d in range(rank)))
    if guards:
        props += (not_communicated(ref), communicated(ref))
    guard = (1 << b + 2 + rank, 2 << b + 2 + rank) if guards else (0, 0)
    return _Forms((1 << b, f"{ref}@full", ref), (2 << b, f"{ref}@partial", ref),
                  tuple((4 << b + d, f"{ref}@shard{d}", ref) for d in range(rank)), guard)


# tuple.__new__ builds a named tuple without the Python call its own __new__ makes.
_did, _new = itemgetter(1), tuple.__new__


def _rule(kind: str, post: tuple[int, str, str], pre: tuple[tuple[int, str, str], ...] = (),
          *, axis: int | None = None, axis2: int | None = None,
          dims: tuple[int, ...] | None = None, tag: str | None = None,
          sharded: bool = False, flops: int = 0, elements: int = 0,
          guard: tuple[int, int] = (0, 0)) -> HoareTriple:
    """The triple {pre} kind {post}: one instruction on `post`'s reference
    tensor that reads the distributed tensor of each precondition form and
    writes the one of the postcondition.  `guard` adds its first bit to the
    pre and the kill, and its second to the post."""
    bit, did, ref = post
    need = guard[0]
    for p in pre:           # `|`, not a sum: an operand may be read twice
        need |= p[0]
    instr = _new(Instruction, (kind, ref, tuple(map(_did, pre)), did,
                               axis, axis2, dims, tag, sharded, flops, elements))
    return _new(HoareTriple, (need, (instr,), bit | guard[1], guard[0]))


def _source_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    base = "placeholder" if node.op == "Placeholder" else "parameter"
    e = forms[node.id]
    return [_rule(base, e.full)] + [_rule(f"{base}_shard", s, axis=d, sharded=True)
                                    for d, s in enumerate(e.shard)]


def _matmul_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[HoareTriple]:
    e1, e2, e3 = forms[node.inputs[0]], forms[node.inputs[1]], forms[node.id]
    f = node.flops
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
    f = node.flops
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
    f = node.flops
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


def _comm_rules(e: _Forms, n: int) -> list[HoareTriple]:
    full, partial, guard = e.full, e.partial, e.guard
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
    needs and kills NotCommunicated(e), which every tensor starts with, and
    posts Communicated(e); sources, whose sharded forms are free, get none."""
    if m < 1:
        raise ValueError(f"device count must be >= 1, got {m}")
    props: list[Property] = []
    forms = {node.id: _forms(node.id, len(node.shape), props, guards) for node in g.nodes}
    triples: list[HoareTriple] = []
    for node in g.nodes:
        triples.extend(_RULES[node.op](node, g, forms))
    for node in g.nodes:
        if not guards or node.op not in SOURCE_OPS:
            triples.extend(_comm_rules(forms[node.id], math.prod(node.shape)))
    for tr in triples:
        assert tr.post & ~tr.pre, f"vacuous rule derived: {tr}"
    return Theory(triples=tuple(triples), loss=g.loss, props=tuple(props),
                  initial_props=sum(e.guard[0] for e in forms.values()))


def fuse_empty_preconditions(t: Theory) -> Theory:
    """Fold source rules into their consumers.

    One walk over the triples, fused ones included: each source rule T1
    (empty pre, a one-bit post) that has at least one consumer (a triple T2
    whose pre holds post(T1)) is replaced by the fused triples
    {pre(T2) & ~post(T1)} [T1;T2] {post(T1) | post(T2)}, with T2's kill.
    A fused pre is a subset of its consumer's pre, so no triple already
    walked gains a consumer.  The search fires the rest directly, fused
    triples included: a source costs nothing, so fusing it keeps the
    minimum, but folding a fused triple would make each consumer of its
    source pay for the consumer fused with it.

    Consumers are found through an index from each bit a source rule posts
    to the triples, in list order, whose pre holds it; fused triples join
    it as they are appended, so the consumers and the triple list are those
    of a scan over every triple.  No fused triple repeats: each puts one
    chain of source rules in front of one of the distinct derived triples.
    """
    triples = list(t.triples)
    sources = reduce(or_, [tr.post for tr in triples if not tr.pre], 0)
    readers: dict[int, list[HoareTriple]] = {}
    for tr in triples:
        for i in bits(tr.pre & sources):
            readers.setdefault(i, []).append(tr)
    kept: list[HoareTriple] = []
    for tr in triples:          # also walks the fused triples appended below
        # A source rule's consumers are the readers of its one bit; no
        # triple fused below reads it, so the list does not grow meanwhile.
        post = tr.post
        consumers = [] if tr.pre or post & (post - 1) else readers.get(post.bit_length() - 1, [])
        if not consumers:
            kept.append(tr)
            continue
        for c in consumers:
            fused = _new(HoareTriple, (c.pre & ~post, tr.instrs + c.instrs, post | c.post, c.kill))
            triples.append(fused)
            for i in bits(fused.pre & sources):
                readers.setdefault(i, []).append(fused)
    return t._replace(triples=tuple(kept))


def relevant(t: Theory) -> Theory:
    """The triples that can reach the loss, in their order.

    A backward pass over the (pre, post) masks: the loss's AllReduce bit is
    relevant, a triple is relevant when its post sets a relevant bit, and
    every pre bit of a relevant triple is relevant; repeat until nothing
    changes.  A complete program stays complete without its irrelevant
    triples, since nothing relevant reads their posts and dropping one
    retires no guard.  Dropping a computation lowers one stage's seconds,
    and dropping a collective merges two stages and drops its price, so a
    cheapest program at one ratio row fires only relevant triples."""
    need = 1 << t.props.index(all_reduce(t.loss))
    rest = t.triples
    while True:
        left = []
        for tr in rest:
            if tr.post & need:
                need |= tr.pre
            else:
                left.append(tr)
        if len(left) == len(rest):
            return t._replace(triples=tuple(tr for tr in t.triples if tr.post & need))
        rest = left


def build_theory(g: Graph, m: int, *, guards: bool = True, fuse: bool = True) -> Theory:
    """Standard derivation pipeline used by the planner."""
    t = derive_theory(g, m, guards=guards)
    return fuse_empty_preconditions(t) if fuse else t

