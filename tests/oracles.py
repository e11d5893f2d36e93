"""Independent oracles the tests compare the package against.

Everything here is deliberately brute-force: grids, vertex enumeration,
exhaustive integer compositions and unmerged program walks.  None of it
shares code with the package beyond calling into public evaluation entry
points, except the search-space walks and the reference forms of eleven
of the package's shortcuts: the theory derived and fused over sets of
properties (the package holds each property set as an int mask), each
triple's delete list by its definition over the post, the communication
guards by rewriting the raw theory, triple fusion by a scan over every
triple, the triples relevant to the loss by a worklist over properties,
applicable triples by a near-set over sets of properties, the simplex with
dense pivots, the closed-form ratio row by the program's LP, the graph
document by the json encoder, each node's flop count by recounting it, and
the equivalence check's live peak by simulating its walks.
The walks step with `SearchContext.step`, the one step function the search
itself takes, to list programs; the enumeration's state graph also takes
the applicable triples from `SearchContext`, their property changes from
their post and kill masks, and the stage steps from `StagePricer.advance`.  A search node holds no
instructions: `program` rebuilds them from its path.
"""
from __future__ import annotations

import contextlib
import gc
import itertools
import math
from array import array
from operator import itemgetter
from typing import NamedTuple
from unittest import mock

import numpy as np

from shardplan import load_balancer
from shardplan.cost_model import comm_time
from shardplan.graph_ir import SOURCE_OPS, Graph, Node, flops_of
from shardplan.interpreter import (EquivalenceReport, ExecutionError,
                                   coll_all_reduce, eval_reference,
                                   execute_instruction, materialize_loss,
                                   random_inputs, run_distributed, run_single,
                                   table_sizes)
from shardplan.load_balancer import RatioProblem
from shardplan.synthesizer import SearchContext
from shardplan.theory import (ALL_GATHER, ALL_REDUCE, COLLECTIVE_KINDS, COMMUNICATED,
                              GUARD_KINDS, IDENTITY, HoareTriple, Instruction, Property,
                              Theory, all_gather, all_reduce, communicated, dist_id,
                              form_of_dist_id, identity, not_communicated)


# ---------------------------------------------------------------------------
# ratio-row grids and the LP objective


def grid_rows(m: int, step: float = 1e-2):
    """All rows of the m-simplex with coordinates on a `step` grid."""
    n = round(1.0 / step)
    if m == 1:
        yield (1.0,)
        return
    for combo in itertools.product(range(n + 1), repeat=m - 1):
        if sum(combo) <= n:
            row = [c / n for c in combo]
            row.append((n - sum(combo)) / n)
            yield tuple(row)


def ratio_objective(prob: RatioProblem, row) -> float:
    """Evaluate the LP's objective at a fixed ratio row (same algebra as the
    LP, computed directly)."""
    row = np.asarray(row, dtype=float)
    total = prob.slope_M * float(row.max())
    for a, c in zip(prob.comp_a, prob.comp_c):
        total += float(np.max(np.asarray(a) * row + np.asarray(c)))
    return total


def grid_min_objective(prob: RatioProblem, step: float = 1e-2) -> float:
    return min(ratio_objective(prob, row) for row in grid_rows(prob.m, step))


def lp_row(prob: RatioProblem) -> tuple[float, ...]:
    """The LP optimum, clipped and normalized as `optimize_ratios`
    treats the rows it takes from the simplex."""
    sol = load_balancer.solve_lp(*load_balancer.build_lp(prob))
    assert sol.status == "optimal", sol.status
    row = [0.0 if v <= 0.0 else v for v in sol.x[:prob.m]]
    return tuple(v / sum(row) for v in row)


def row_off_the_lp(program, g: Graph, spec) -> tuple | None:
    """(row, LP row) if `optimize_ratios` misses its LP: if its row prices
    above the LP row by more than a relative 1e-12, or, with replicated
    work or a slope, differs from it in any bit.  None when the row is the
    LP's optimum."""
    row = load_balancer.optimize_ratios(program, g, spec).row
    prob = load_balancer.ratio_problem(program.instrs, spec)
    ref = lp_row(prob)
    sensitive = prob.slope_M > 0.0 or any(v != 0.0 for c in prob.comp_c for v in c)
    if (ratio_objective(prob, row) > ratio_objective(prob, ref) * (1 + 1e-12)
            or (sensitive and row != ref)):
        return row, ref
    return None


# ---------------------------------------------------------------------------
# the simplex with dense pivots


def dense_pivot(T: list[list[float]], basis: list[int], row: int, col: int) -> None:
    """A pivot that rebuilds every row it changes as a fresh list over every
    column, zeros of the pivot row included."""
    p = T[row][col]
    pivot_row = T[row] = [v / p for v in T[row]]
    for r, tr in enumerate(T):
        f = tr[col]
        if r != row and f != 0.0:
            T[r] = [a - f * b for a, b in zip(tr, pivot_row)]
    basis[row] = col


@contextlib.contextmanager
def dense_pivots():
    """Within the block, `load_balancer` solves every LP with `dense_pivot`."""
    with mock.patch.object(load_balancer, "_pivot", dense_pivot):
        yield


# ---------------------------------------------------------------------------
# vertex enumeration for small LPs


def vertex_minimum(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> float | None:
    """Minimum objective over all vertices of the feasible region, found by
    enumerating basic solutions (every choice of n active constraints from
    equalities, tight inequalities and x_j = 0 bounds).  Returns None when no
    vertex is feasible."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    forced = 0
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        for r, bv in zip(A_eq, np.atleast_1d(b_eq)):
            rows.append(np.asarray(r, dtype=float))
            rhs.append(float(bv))
        forced = len(rows)
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        for r, bv in zip(A_ub, np.atleast_1d(b_ub)):
            rows.append(np.asarray(r, dtype=float))
            rhs.append(float(bv))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e)
        rhs.append(0.0)

    best = None
    optional = range(forced, len(rows))
    need = n - forced
    if need < 0:
        return None
    for combo in itertools.combinations(optional, need):
        idx = list(range(forced)) + list(combo)
        A = np.stack([rows[i] for i in idx])
        b = np.asarray([rhs[i] for i in idx])
        if np.linalg.matrix_rank(A) < n:
            continue
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        if np.any(x < -1e-7):
            continue
        if A_ub is not None and np.any(A_ub @ x - np.atleast_1d(b_ub) > 1e-7):
            continue
        if A_eq is not None and np.max(np.abs(A_eq @ x - np.atleast_1d(b_eq))) > 1e-7:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# integer rounding and contiguous partition


def min_l1_rounding(extent: int, row) -> float:
    """Smallest achievable total |size - extent*ratio| over all splits of
    `extent` into len(row) non-negative integers."""
    targets = [extent * r for r in row]
    m = len(targets)

    def rec(i: int, left: int) -> float:
        if i == m - 1:
            return abs(left - targets[i])
        return min(abs(s - targets[i]) + rec(i + 1, left - s)
                   for s in range(left + 1))

    return rec(0, extent)


# ---------------------------------------------------------------------------
# Hoare-triple soundness harness and the per-trial equivalence check
#
# Arrays carry the interpreter's leading trial axis; property axes are tensor
# axes, one less than the array axis.


def equivalence_per_trial(g, program, m: int, shard_table: dict, trials: int = 5,
                          seed: int = 0, rtol: float = 1e-9) -> EquivalenceReport:
    """`check_equivalence` one trial per interpreter pass, compared in Python
    floats; the reference for its chunked batches.  Each trial draws the
    next block of the one default_rng(seed) stream, and both walks keep
    every tensor, where the batched check drops the dead ones."""
    rng = np.random.default_rng(seed)
    errs = [0.0]
    keep = itertools.repeat(())
    for _ in range(trials):
        inputs = random_inputs(g, rng, 1)
        expected = float(run_single(g, inputs, keep)[0])
        scale = max(abs(expected), 1.0)
        for value in run_distributed(program, m, inputs, shard_table, keep):
            errs.append(abs(float(value[0]) - expected) / scale)
    max_err = float(np.max(errs))
    return EquivalenceReport(trials=trials, max_rel_err=max_err, passed=max_err <= rtol)


def _walk_peak(steps, keep) -> int:
    """The most elements a walk of (output, reads, elements) steps holds at
    once, when after each step it lets go of every tensor that `keep` does
    not hold and no later step reads.  A step's output is held before the
    step's dead tensors go."""
    held: dict[str, int] = {}
    peak = 0
    for i, (output, _, elements) in enumerate(steps):
        held[output] = elements
        peak = max(peak, sum(held.values()))
        later = {t for _, reads, _ in steps[i + 1:] for t in reads}
        held = {t: e for t, e in held.items() if t in keep or t in later}
    return peak


def trial_peak(g, program, m: int) -> int:
    """`interpreter.liveness(g, program, m).peak` by simulating both walks:
    the sources' draw block plus the larger walk peak.  Sources and the
    instructions that slice or alias them hold nothing beyond the block, and
    both walks keep them and the loss.  Every other graph tensor holds its
    elements.  A distributed tensor holds what its per-device arrays add up
    to, one set of shards or m full copies, but a collective hands every
    device one shared array."""
    elements = {node.id: math.prod(node.shape) for node in g.nodes}
    sources = {node.id for node in g.nodes if node.op in SOURCE_OPS}
    single = [(node.id, node.inputs, 0 if node.id in sources else elements[node.id])
              for node in g.nodes]
    dist, kept = [], {dist_id(identity(g.loss)), dist_id(all_reduce(g.loss))}
    for instr in program.instrs:
        if instr.kind in ("placeholder", "parameter", "placeholder_shard", "parameter_shard"):
            kept.add(instr.output)
            held = 0
        elif instr.kind in COLLECTIVE_KINDS or form_of_dist_id(instr.output).kind == ALL_GATHER:
            held = elements[instr.ref]
        else:
            held = m * elements[instr.ref]
        dist.append((instr.output, instr.operands, held))
    return (sum(elements[ref] for ref in sources)
            + max(_walk_peak(single, sources | {g.loss}), _walk_peak(dist, kept)))


def check_form(prop, instances: list[np.ndarray], reference: np.ndarray,
               rtol: float = 0.0) -> bool:
    """Does the distributed tensor satisfy property `prop` w.r.t. `reference`?"""
    if prop.kind == IDENTITY:
        realized = instances[0]
        if not all(np.array_equal(inst, instances[0]) for inst in instances[1:]):
            return False
    elif prop.kind == ALL_GATHER:
        realized = np.concatenate(instances, axis=prop.axis + 1)
    elif prop.kind == ALL_REDUCE:
        realized = coll_all_reduce(instances)[0]
    else:
        raise ValueError(f"cannot check guard property {prop}")
    if realized.shape != reference.shape:
        return False
    if rtol == 0.0:
        return bool(np.array_equal(realized, reference))
    scale = np.maximum(np.abs(reference), 1.0)
    return bool(np.all(np.abs(realized - reference) <= rtol * scale))


def run_checked(program, m: int, inputs: dict[str, np.ndarray], shard_table: dict,
                reference: dict[str, np.ndarray]) -> list[np.ndarray]:
    """`run_distributed`, re-checking the declared property of every produced
    distributed tensor against the reference values (from `eval_reference`)
    after each instruction."""
    env: dict[str, list[np.ndarray]] = {}
    for instr in program.instrs:
        execute_instruction(instr, env, m, inputs, shard_table)
        prop = form_of_dist_id(instr.output)
        if not check_form(prop, env[instr.output], reference[prop.ref], rtol=1e-9):
            raise ExecutionError(f"{instr.canonical()} violates its declared "
                                 f"property {prop}")
    return materialize_loss(env, program.loss, m)


def materialize_property(prop, reference: np.ndarray, m: int, shard_table: dict,
                         rng: np.random.Generator) -> list[np.ndarray]:
    """Produce per-device instances satisfying `prop` w.r.t. `reference`."""
    if prop.kind == "Id":
        return [reference.copy() for _ in range(m)]
    if prop.kind == "AG":
        sizes = table_sizes(shard_table, prop.ref, prop.axis, m)
        out = []
        start = 0
        for size in sizes:
            idx = [slice(None)] * reference.ndim
            idx[prop.axis + 1] = slice(start, start + size)
            out.append(reference[tuple(idx)].copy())
            start += size
        return out
    if prop.kind == "AR":
        parts = [rng.normal(size=reference.shape) for _ in range(m - 1)]
        parts.append(reference - sum(parts) if parts else reference.copy())
        return [np.asarray(p, dtype=np.float64) for p in parts]
    raise ValueError(f"cannot materialize guard property {prop}")


def triple_violations(g, theory, spec, shard_table, seed: int = 0,
                      rtol: float = 1e-9) -> list[str]:
    """Instantiate every triple's precondition with concrete tensors, run its
    instructions, and check every (non-guard) postcondition form.  Returns
    human-readable descriptions of any failures.  Runs one trial."""
    inputs = random_inputs(g, np.random.default_rng(seed), 1)
    refs = eval_reference(g, inputs)
    rng = np.random.default_rng((seed, 1))      # the partial-sum splits' own stream
    bad: list[str] = []
    for triple in set_theory(theory).triples:
        env: dict[str, list[np.ndarray]] = {}
        for prop in triple.pre:
            if prop.kind in GUARD_KINDS:
                continue
            env[dist_id(prop)] = materialize_property(
                prop, refs[prop.ref], spec.m, shard_table, rng)
        try:
            for instr in triple.instrs:
                execute_instruction(instr, env, spec.m, inputs, shard_table)
        except Exception as e:  # noqa: BLE001 - report, don't crash the sweep
            bad.append(f"{triple}: execution failed: {e}")
            continue
        for prop in triple.post:
            if prop.kind in GUARD_KINDS:
                continue
            did = dist_id(prop)
            if did not in env:
                bad.append(f"{triple}: post {prop} not realized")
                continue
            if not check_form(prop, env[did], refs[prop.ref], rtol=rtol):
                bad.append(f"{triple}: post {prop} does not hold")
    return bad


# ---------------------------------------------------------------------------
# the graph document by the json encoder


def graph_to_dict(g) -> dict:
    """The document `graph_ir.serialize_graph` writes, as a dict:
    `json.dumps(graph_to_dict(g), indent=2) + "\\n"` is its reference."""
    nodes = []
    for n in g.nodes:
        attrs: dict = {}
        if n.op in ("ElemwiseUnary", "ElemwiseBinary"):
            attrs["tag"] = n.tag
        elif n.op == "Reduce":
            attrs["dims"] = list(n.dims or ())
        nodes.append({
            "id": n.id,
            "op": n.op,
            "inputs": list(n.inputs),
            "shape": list(n.shape),
            "attrs": attrs,
        })
    return {"nodes": nodes, "loss": g.loss}


def node_flops(g: Graph, node: Node) -> int:
    """`node`'s flop count, recounted from its op and its inputs' shapes:
    the reference for the `Node.flops` that parsing stores."""
    return flops_of(node.op, [g.tensors[i].shape for i in node.inputs])


# ---------------------------------------------------------------------------
# the set-valued theory: derivation and fusion over sets of properties
#
# `reference_theory`, `reference_fuse` and `reference_build` derive, fuse
# and build the theory that `derive_theory`, `fuse_empty_preconditions` and
# `build_theory` do, but hold each pre, post and `initial_props` as a
# frozenset of `Property` values; a package theory, decoded through its
# `props` by `set_theory`, must equal theirs triple for triple and in
# order.  `mask_theory` turns a set-valued theory, hand-built ones included,
# into the package's form.


class SetTriple(NamedTuple):
    pre: frozenset[Property]
    instrs: tuple[Instruction, ...]
    post: frozenset[Property]

    def __str__(self) -> str:
        pre = ",".join(sorted(map(str, self.pre)))
        post = ",".join(sorted(map(str, self.post)))
        seq = ";".join(i.canonical() for i in self.instrs)
        return f"{{{pre}}} {seq} {{{post}}}"


class SetTheory(NamedTuple):
    triples: tuple[SetTriple, ...]
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
          guard: tuple[tuple[Property, ...], tuple[Property, ...]] = _UNGUARDED) -> SetTriple:
    """The triple {pre} kind {post}: one instruction on `post`'s reference
    tensor that reads the distributed tensor of each precondition form and
    writes the one of the postcondition.  `guard` adds properties to the
    pre and to the post."""
    prop, did = post
    instr = _new(Instruction, (kind, prop.ref, tuple(map(_did, pre)), did,
                               axis, axis2, dims, tag, sharded, flops, elements))
    return _new(SetTriple, (frozenset((*map(_prop, pre), *guard[0])), (instr,),
                              frozenset((prop, *guard[1]))))


def _source_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[SetTriple]:
    base = "placeholder" if node.op == "Placeholder" else "parameter"
    e = forms[node.id]
    return [_rule(base, e.full)] + [_rule(f"{base}_shard", s, axis=d, sharded=True)
                                    for d, s in enumerate(e.shard)]


def _matmul_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[SetTriple]:
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


def _elemwise_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[SetTriple]:
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


def _reduce_rules(node: Node, g: Graph, forms: dict[str, _Forms]) -> list[SetTriple]:
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


def _comm_rules(e: _Forms, n: int, guard: tuple) -> list[SetTriple]:
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


def reference_theory(g: Graph, m: int, *, guards: bool = False) -> SetTheory:
    """All sound triples for `g`; their instructions are the only ones a plan
    for `g` may contain.  The triple set does not depend on `m` (shards of
    extent zero are legal), but `m` must be a sane device count.  With
    `guards`, a tensor is communicated at most once: a collective rule on e
    needs NotCommunicated(e), which every tensor starts with, and posts
    Communicated(e); sources, whose sharded forms are free, get none."""
    if m < 1:
        raise ValueError(f"device count must be >= 1, got {m}")
    forms = {node.id: _forms(node.id, len(node.shape)) for node in g.nodes}
    triples: list[SetTriple] = []
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
    return SetTheory(triples=tuple(triples), loss=g.loss, initial_props=initial)


def reference_fuse(t: SetTheory) -> SetTheory:
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
    readers: dict[Property, list[SetTriple]] = {}
    for tr in triples:
        for p in tr.pre:
            readers.setdefault(p, []).append(tr)
    kept: list[SetTriple] = []
    for tr in triples:          # also walks the fused triples appended below
        # A source rule's consumers are the readers of its one property; no
        # triple fused below reads it, so the list does not grow meanwhile.
        consumers = [] if tr.pre or len(tr.post) != 1 else readers.get(next(iter(tr.post)), [])
        if not consumers:
            kept.append(tr)
            continue
        for c in consumers:
            fused = SetTriple(c.pre - tr.post, tr.instrs + c.instrs, tr.post | c.post)
            if fused not in seen:
                seen.add(fused)
                triples.append(fused)
                for p in fused.pre:
                    readers.setdefault(p, []).append(fused)
    return t._replace(triples=tuple(kept))


def reference_build(g: Graph, m: int, *, guards: bool = True, fuse: bool = True) -> SetTheory:
    """Standard derivation pipeline used by the planner."""
    t = reference_theory(g, m, guards=guards)
    return reference_fuse(t) if fuse else t


def decode(theory, mask: int) -> frozenset:
    """The properties of one of `theory`'s property sets: bit i stands for
    `theory.props[i]`."""
    return frozenset(p for i, p in enumerate(theory.props) if mask >> i & 1)


def set_theory(theory) -> SetTheory:
    """A package theory with every property set decoded through its `props`."""
    return SetTheory(triples=tuple(SetTriple(decode(theory, tr.pre), tr.instrs,
                                             decode(theory, tr.post))
                                   for tr in theory.triples),
                     loss=theory.loss, initial_props=decode(theory, theory.initial_props))


def kill_set(post: frozenset) -> frozenset:
    """The guards a triple with postcondition `post` retires: its delete
    list, NotCommunicated(e) for each Communicated(e) in `post`."""
    return frozenset(not_communicated(p.ref) for p in post if p.kind == COMMUNICATED)


def mask_theory(t: SetTheory) -> Theory:
    """The set-valued theory `t` as the package holds a theory: each property
    takes the next bit where it first appears (the loss's AllReduce form,
    then every triple's pre and post, then the initial properties, then
    each triple's `kill_set`, each set in the order of its properties'
    names)."""
    props: list = []
    ids: dict = {}

    def mask(properties) -> int:
        out = 0
        for p in sorted(properties, key=str):
            if p not in ids:
                ids[p] = len(props)
                props.append(p)
            out |= 1 << ids[p]
        return out

    mask([all_reduce(t.loss)])
    masks = [(mask(tr.pre), tr.instrs, mask(tr.post)) for tr in t.triples]
    initial = mask(t.initial_props)
    triples = tuple(HoareTriple(*m, mask(kill_set(tr.post))) for m, tr in zip(masks, t.triples))
    return Theory(triples=triples, loss=t.loss, initial_props=initial, props=tuple(props))


# ---------------------------------------------------------------------------
# communication guards by rewriting


def add_communication_guards(t, g):
    """The guarded theory that `derive_theory(g, m, guards=True)` derives,
    made by rewriting the raw theory `t` of graph `g`.

    Every triple containing a communication instruction on tensor e gains
    NotCommunicated(e) in its pre and Communicated(e) in its post; triples
    communicating Placeholder/Parameter tensors are dropped outright (their
    sharded forms come straight from the source rules).  Property sets then
    start from NotCommunicated for every tensor.
    """
    source_ids = frozenset(n.id for n in g.nodes if n.op in ("Placeholder", "Parameter"))
    kept: list[SetTriple] = []
    for tr in t.triples:
        comm_refs = [i.ref for i in tr.instrs if i.is_comm]
        if any(ref in source_ids for ref in comm_refs):
            continue
        if comm_refs:
            pre = tr.pre | {not_communicated(r) for r in comm_refs}
            post = tr.post | {communicated(r) for r in comm_refs}
            kept.append(SetTriple(pre, tr.instrs, post))
        else:
            kept.append(tr)
    initial = frozenset(not_communicated(ref) for ref in g.tensor_ids)
    return t._replace(triples=tuple(kept), initial_props=initial)


# ---------------------------------------------------------------------------
# triple fusion by scanning


def fuse_by_scan(theory) -> tuple:
    """The triples of `theory.fuse_empty_preconditions`, each source rule's
    (empty pre, one post property) consumers found by scanning every triple,
    fused ones included, in list order."""
    triples = list(theory.triples)
    seen = set(triples)
    kept = []
    for tr in triples:          # also walks the fused triples appended below
        consumers = [] if tr.pre or len(tr.post) != 1 else [
            c for c in triples if tr.post <= c.pre]
        if not consumers:
            kept.append(tr)
            continue
        for c in consumers:
            fused = SetTriple(c.pre - tr.post, tr.instrs + c.instrs, tr.post | c.post)
            if fused not in seen:
                seen.add(fused)
                triples.append(fused)
    return tuple(kept)


# ---------------------------------------------------------------------------
# relevance by a worklist over properties


def relevant_by_worklist(t: SetTheory) -> SetTheory:
    """The theory `theory.relevant` keeps, found backward from the loss's
    AllReduce property over sets: each property taken off a worklist makes
    every triple whose post holds it relevant, and each pre property of
    those not yet seen joins the worklist.  The relevant triples keep their
    order."""
    makers: dict[Property, list[int]] = {}
    for ti, tr in enumerate(t.triples):
        for p in tr.post:
            makers.setdefault(p, []).append(ti)
    seen = {all_reduce(t.loss)}
    work = list(seen)
    kept: set[int] = set()
    while work:
        for ti in makers.get(work.pop(), ()):
            kept.add(ti)
            fresh = t.triples[ti].pre - seen
            seen |= fresh
            work.extend(fresh)
    return t._replace(triples=tuple(tr for ti, tr in enumerate(t.triples) if ti in kept))


# ---------------------------------------------------------------------------
# applicable triples by a near-set over sets of properties


def near_set_applicable(triples):
    """`SearchContext.applicable` as a function of a set of properties, not
    of a mask: a triple is a candidate when its pre is empty or names a
    property of the set, and applies when the set holds its pre and lacks
    part of its post.  Returns the sorted triple indices, as the search
    iterates them."""
    by_elem: dict = {}
    empty_pre: list[int] = []
    for ti, tr in enumerate(triples):
        if not tr.pre:
            empty_pre.append(ti)
        for p in tr.pre:
            by_elem.setdefault(p, []).append(ti)

    def applicable(props: frozenset) -> tuple[int, ...]:
        near = set(empty_pre)
        for p in props:
            near.update(by_elem.get(p, ()))
        return tuple(sorted(ti for ti in near
                            if triples[ti].pre <= props and not triples[ti].post <= props))
    return applicable


# ---------------------------------------------------------------------------
# search-space walks


class Program(NamedTuple):
    """A search node's program and whether it is complete."""
    instrs: tuple
    complete: bool


def program(q, ctx) -> Program:
    """The program of search node q, rebuilt from its path."""
    return Program(ctx.instructions(q.path), bool(q.props & ctx.loss_bit))


def total_s(q) -> float:
    """A search node's price: its closed stages and its open stage."""
    return q.closed_s + q.stage.time_s


def expand(q, ctx) -> list:
    """All successors of q under applicable, non-vacuous triples."""
    return [ctx.step(q, ti) for ti in ctx.applicable(q.props)]


def dominates(a, b) -> bool:
    """The search's pruning rule, for nodes of one property set: a renders b
    redundant when it is at most as expensive in every cost component
    (closed stages, the open stage's collective, per-device accrued
    compute)."""
    s, t = a.stage, b.stage
    if a.closed_s > b.closed_s or s.comm_s > t.comm_s:
        return False
    return not any(x > y for x, y in zip(s.comp_s, t.comp_s))


def enumerate_all_complete(g, theory, spec, B, max_len: int) -> set:
    """Every complete instruction sequence of at most max_len instructions
    (no merging; exponential, so only for tiny graphs)."""
    ctx = SearchContext(g, theory, spec, B)
    out = set()
    stack = [ctx.root]
    while stack:
        q = stack.pop()
        if q.props & ctx.loss_bit:
            out.add(ctx.instructions(q.path))
            continue
        if q.depth >= max_len:
            continue
        stack.extend(expand(q, ctx))
    return out


# ---------------------------------------------------------------------------
# the enumeration's state graph and the admissibility audit over it


@contextlib.contextmanager
def collector_paused():
    """Within the block the cyclic collector does not run.  A state graph
    holds up to 300,000 nodes, all alive until its audit ends and none in a
    cycle, so the collector would only rescan them as they pile up; walk
    and audit large graphs within this block."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class StateGraph(NamedTuple):
    """Every state of the exhaustive enumeration and every transition
    between states.  `nodes[s]` is the search node of state s's cheapest
    program (state 0 is the root), as `ctx.step` builds it; `edges` holds
    three flat arrays: source state, child state and closed-cost delta of
    every transition, in expansion order."""
    nodes: list
    edges: tuple[array, array, array]
    explored: int
    complete_states: int
    ctx: SearchContext

    def complete(self, q) -> bool:
        return bool(q.props & self.ctx.loss_bit)

    def instrs(self, q) -> tuple:
        return self.ctx.instructions(q.path)


def state_graph(g, theory, spec, B) -> StateGraph:
    """The states and transitions that `enumerate_programs` walks at its
    default length bound, built without it, for an unfused and unguarded
    theory.

    A state is a property set and an open stage (`StageCost`); programs
    reaching the same state are merged, keeping the cheapest closed stages.
    The program length follows from the property set under such a theory,
    and the walk checks that it does.  States are expanded in ascending
    length; complete ones, and those of 2 * nodes + 4 or more instructions,
    are not.  Property successors are memoized per property set, and stage
    steps (`StagePricer.advance`) per open stage and triple.  Before a state
    is expanded, its node is rebuilt by `ctx.step` from its cheapest parent's
    node, and must agree with the state and its closed cost."""
    max_len = 2 * len(g.nodes) + 4
    ctx = SearchContext(g, theory, spec, B)
    root = ctx.root
    triples = ctx.triples

    prop_ids = {root.props: 0}
    prop_sets = [root.props]
    prop_len = [0]                  # instruction count of every program reaching it
    prop_next: list = [None]        # ((ti, successor property set id), ...)

    def prop_successors(pid: int) -> tuple[tuple[int, int], ...]:
        props = prop_sets[pid]
        out = []
        for ti in ctx.applicable(props):
            after = (props | triples[ti].post) & ~triples[ti].kill
            length = prop_len[pid] + len(triples[ti].instrs)
            npid = prop_ids.get(after)
            if npid is None:
                npid = prop_ids[after] = len(prop_sets)
                prop_sets.append(after)
                prop_len.append(length)
                prop_next.append(None)
            elif prop_len[npid] != length:
                raise AssertionError(f"a property set is reached by programs of "
                                     f"{prop_len[npid]} and of {length} instructions")
            out.append((ti, npid))
        succs = prop_next[pid] = tuple(out)
        return succs

    stage_ids = {root.stage: 0}
    stages = [root.stage]
    stage_next: list[dict] = [{}]   # per triple: (successor stage id, closed stage times)

    def stage_step(sid: int, ti: int) -> tuple[int, tuple[float, ...]]:
        closes, stage = ctx.pricer.advance(stages[sid], triples[ti].instrs)
        nsid = stage_ids.get(stage)
        if nsid is None:
            nsid = stage_ids[stage] = len(stages)
            stages.append(stage)
            stage_next.append({})
        step = stage_next[sid][ti] = (nsid, tuple(done.time_s for done in closes))
        return step

    state_ids = {(0, 0): 0}
    keys = [(0, 0)]
    closed = array("d", [root.closed_s])
    parent = array("q", [-1])
    via = array("q", [-1])
    nodes: list = [root]
    layers = {0: [0]}               # length -> its states, in discovery order
    src, child, delta = array("q"), array("q"), array("d")
    complete_states = 0
    length = 0
    while layers:
        for s in layers.pop(length, ()):
            pid, sid = keys[s]
            node = nodes[s]
            if node is None:
                node = nodes[s] = ctx.step(nodes[parent[s]], via[s])
                if (node.closed_s != closed[s] or node.props != prop_sets[pid]
                        or node.stage != stages[sid] or node.depth != length):
                    raise AssertionError(
                        f"state {s}: the rebuilt program disagrees with the state")
            if node.props & ctx.loss_bit or length >= max_len:
                continue
            base = closed[s]
            succs = prop_next[pid]
            if succs is None:
                succs = prop_successors(pid)
            nexts = stage_next[sid]
            for ti, npid in succs:
                nsid, charges = nexts.get(ti) or stage_step(sid, ti)
                c = base
                for charge in charges:
                    c += charge
                key = (npid, nsid)
                t = state_ids.get(key)
                if t is None:
                    t = state_ids[key] = len(keys)
                    keys.append(key)
                    closed.append(c)
                    parent.append(s)
                    via.append(ti)
                    nodes.append(None)
                    layers.setdefault(prop_len[npid], []).append(t)
                    complete_states += bool(prop_sets[npid] & ctx.loss_bit)
                elif c < closed[t]:
                    closed[t] = c
                    parent[t] = s
                    via[t] = ti
                src.append(s)
                child.append(t)
                delta.append(c - base)
        length += 1
    return StateGraph(nodes=nodes, edges=(src, child, delta), explored=len(nodes),
                      complete_states=complete_states, ctx=ctx)


# The search scales its completion bound by this factor so that float
# rounding cannot lift it above a completion it meets exactly.
COMPLETION_SCALE = 1.0 - 2.0 ** -40


def _completion_key(instrs) -> tuple:
    """What a program's completion estimate depends on: the tensors it has
    realized a property of, its last collective and the instructions after
    that collective."""
    k = len(instrs)
    while k and not instrs[k - 1].is_comm:
        k -= 1
    return frozenset(instr.ref for instr in instrs), instrs[k - 1] if k else None, instrs[k:]


def _completion_bound(computed, comm, trailing, g, spec, B) -> float:
    rates = [d.flops_per_second for d in spec.devices]
    comm_s = 0.0 if comm is None else comm_time(comm, B.row, spec)
    remaining = 0.0
    for node in g.nodes:
        if node.id in g.loss_ancestors and node.id not in computed:
            remaining += node_flops(g, node)
    worst = 0.0
    for j, rate in enumerate(rates):
        device_s = 0.0
        for instr in trailing:
            share = B.row[j] if instr.sharded else 1.0
            device_s += instr.flops * share / rate
        device_s += remaining * B.row[j] / rate
        worst = max(worst, device_s)
    return COMPLETION_SCALE * (comm_s + worst)


def ecost(partial, g, spec, B) -> float:
    """Reference completion estimate, recomputed from the program alone.

    The open trailing stage's collective, plus the slowest device's total
    of (a) compute already accrued in that stage and (b) every loss
    ancestor that no instruction has realized a property of, at the share
    of its flops the ratio row gives that device.
    Complete programs cost nothing more.  The search keeps the same quantity
    incrementally, as a node's score less its closed cost.  `partial` is a
    `Program`; `program` gives a search node's.
    """
    if partial.complete:
        return 0.0
    return _completion_bound(*_completion_key(partial.instrs), g, spec, B)


def future_costs(graph: StateGraph) -> list[float]:
    """Cheapest completion cost from each enumeration state.  A child is
    expanded after its parents, so its out-edges come later in the edge
    arrays, and one reverse sweep over them suffices."""
    future = [total_s(q) - q.closed_s if graph.complete(q) else math.inf
              for q in graph.nodes]
    src, child, delta = graph.edges
    for i in range(len(src) - 1, -1, -1):
        cand = delta[i] + future[child[i]]
        if cand < future[src[i]]:
            future[src[i]] = cand
    return future


def admissibility_violations(g, spec, B, graph: StateGraph,
                             slack: float = 0.0) -> list[str]:
    """The search's completion estimate (a node's score less its closed cost)
    must agree with the reference `ecost` and never exceed the true cheapest
    completion (cost(Q_c) - cost(Q) minimized over enumerated completions Q_c).
    Programs that end in the same open stage over the same realized tensors
    share one `ecost`, computed once."""
    bounds: dict = {}
    bad: list[str] = []
    for q, best in zip(graph.nodes, future_costs(graph)):
        if graph.complete(q):
            h = ref = 0.0
        else:
            h = q.score_s - q.closed_s
            key = _completion_key(graph.instrs(q))
            ref = bounds.get(key)
            if ref is None:
                ref = bounds[key] = _completion_bound(*key, g, spec, B)
        if abs(h - ref) > 1e-12 * q.score_s:
            bad.append(f"state len={q.depth} estimate={h!r} != reference ecost {ref!r}")
        if best != math.inf and h > best + slack:
            bad.append(f"state len={q.depth} ecost={h!r} > future={best!r}")
    return bad
