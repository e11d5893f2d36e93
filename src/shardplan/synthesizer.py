"""Program synthesis: best-first search for the cheapest distributed program.

Search nodes are partial programs.  Applying a triple whose precondition is
satisfied (and whose postcondition adds something new) appends its
instructions and merges its postcondition.  A program is complete once the
loss carries the AllReduce-form property.

The priority is cost + ecost where cost counts closed stages only and ecost
is an admissible, consistent underestimate of everything still missing, so
popped scores never decrease and the first pop at or above the best complete
cost proves optimality.  ecost (`SearchContext.score`) is the open stage's
collective plus its slowest device, which holds its accrued compute and its
least share of every remaining loss-ancestor flop.  Pruning: among nodes
with the same property set, a node at no greater cost vector makes another
redundant, so it is not pushed.  A node's property set is exactly the state
`enumerate_programs` walks.
"""
from __future__ import annotations

import gc
import heapq
import logging
import math
from array import array
from itertools import chain
from typing import NamedTuple

from .cost_model import (ClusterSpec, ShardingRatios, StageCost, StagePricer,
                         single_segment)
from .graph_ir import Graph, SegmentAssignment, node_flops
from .theory import (COMMUNICATED, Instruction, Property, Theory, all_reduce,
                     not_communicated)

_logger = logging.getLogger("shardplan.synthesizer")


class NoCompleteProgramError(RuntimeError):
    pass


class SearchInvariantError(AssertionError):
    pass


def _priority(score: float) -> float:
    """Heap priority: the score rounded to a 2**-30 relative grid.

    Mathematically tied scores can differ by accumulation-order ulps; rounding
    makes them compare equal so the depth tie-break can take effect, while
    every real cost difference in these models is many orders coarser."""
    if score == 0.0:
        return 0.0
    m, e = math.frexp(score)
    return math.ldexp(round(m * 1073741824) / 1073741824, e)


class DistributedProgram(NamedTuple):
    instrs: tuple[Instruction, ...]
    loss: str

    def to_json(self) -> dict:
        return {"loss": self.loss, "instrs": [i.to_json() for i in self.instrs]}

    @classmethod
    def from_json(cls, doc: dict) -> "DistributedProgram":
        return cls(instrs=tuple(Instruction.from_json(d) for d in doc["instrs"]),
                   loss=doc["loss"])


# Frontier nodes within this relative margin of the best complete cost are
# cut off.  Mathematically tied states can differ by float rounding
# (accumulation order), and chasing those ulps is exponential; any real cost
# difference in these models is many orders larger.
OPTIMALITY_MARGIN = 1e-12

# The completion bound often equals the cheapest completion, and adding the
# same seconds in another order can lift it an ulp above that price; a 2**-40
# cut is far below any real cost difference and far above the rounding.
COMPLETION_SCALE = 1.0 - 2.0 ** -40


class SearchConfig(NamedTuple):
    max_expansions: int = 200_000
    prune_properties: bool = True     # unread; kept while perfbench/ops.py passes it


class PartialProgram(NamedTuple):
    """A search node.  `props` are interned property ids; cost bookkeeping
    follows the stage model incrementally (the cost of the closed stages and
    the open stage, as `StagePricer.advance` leaves them)."""
    instrs: tuple[Instruction, ...]
    props: frozenset[int]
    computed: frozenset[str]
    closed_s: float
    stage: StageCost
    remaining: float          # flops of loss ancestors without any property
    complete: bool
    score_s: float
    path: tuple[int, ...]     # applied triple indices (deterministic tie-break)

    @property
    def total_s(self) -> float:
        return self.closed_s + self.stage.time_s


# Builds a PartialProgram from a 9-tuple, as `cost_model._stage_cost` builds
# a StageCost: every successor the search generates is one.
_partial_program = tuple.__new__


class SearchContext:
    """Theory, cluster and ratio data prepared for fast expansion; every
    instruction is priced by one `StagePricer`."""

    def __init__(self, g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                 assignment: SegmentAssignment | None = None):
        if B.m != spec.m:
            raise ValueError(f"ratio width {B.m} != device count {spec.m}")
        assignment = assignment or single_segment(g)
        if B.g != assignment.count:
            raise ValueError(f"ratio rows {B.g} != segment count {assignment.count}")
        self.theory = theory
        self.spec = spec
        self.B = B
        self.pricer = StagePricer(spec, B, assignment)
        # Least seconds a remaining flop puts on each device: a B[r][j] share
        # of it if it runs sharded, all of it if replicated.
        self.floor_s = tuple(min(row[j] for row in B.rows) / rate
                             for j, rate in enumerate(self.pricer.rates))

        # Property ids in order of first appearance: the loss property, then
        # each triple's pre, post and retired guards.
        self.triples = triples = theory.triples
        retired = [[not_communicated(p.ref) for p in tr.post if p.kind == COMMUNICATED]
                   for tr in triples]
        order = dict.fromkeys(chain((all_reduce(theory.loss),), chain.from_iterable(
            chain(tr.pre, tr.post, ret) for tr, ret in zip(triples, retired))))
        self._ids: dict[Property, int] = dict(zip(order, range(len(order))))
        self.loss_prop_id = 0
        intern = self._ids.__getitem__
        self.tpre = [frozenset(map(intern, tr.pre)) for tr in triples]
        self.tpost = [frozenset(map(intern, tr.post)) for tr in triples]
        self.tretire = [frozenset(map(intern, ret)) for ret in retired]
        self.tnew_refs = [tuple(sorted({p.ref for p in tr.post if not p.is_guard}))
                          for tr in triples]

        self.by_elem: dict[int, list[int]] = {}
        self.empty_pre: list[int] = []
        for ti, pre in enumerate(self.tpre):
            if not pre:
                self.empty_pre.append(ti)
            for p in pre:
                self.by_elem.setdefault(p, []).append(ti)

        self.flops_map = {n.id: node_flops(g, n) for n in g.nodes}
        self.ancestors = g.loss_ancestors
        self.initial_remaining = float(sum(self.flops_map[r] for r in self.ancestors))
        self.initial_props = frozenset(map(self._intern, theory.initial_props))

    def _intern(self, p: Property) -> int:
        pid = self._ids.get(p)
        if pid is None:
            pid = self._ids[p] = len(self._ids)
        return pid

    def initial(self) -> PartialProgram:
        return PartialProgram(
            instrs=(), props=self.initial_props, computed=frozenset(), closed_s=0.0,
            stage=self.pricer.empty, remaining=self.initial_remaining, complete=False,
            score_s=self.score(0.0, self.pricer.empty, self.initial_remaining), path=())

    def score(self, closed_s: float, stage: StageCost, remaining: float) -> float:
        """Lower bound on every completion: the closed stages, the open
        collective once its row is fixed, and the slowest device's accrued
        compute plus `floor_s` per remaining flop (each later stage takes at
        least its slowest device, so all of them at least any one device)."""
        comm_s, comp, row, _ = stage
        worst = 0.0             # a loop: max() over a generator takes twice as long
        for c, f in zip(comp, self.floor_s):
            c += remaining * f
            if c > worst:
                worst = c
        return closed_s + COMPLETION_SCALE * ((0.0 if row is None else comm_s) + worst)

    def applicable(self, props: frozenset[int]) -> tuple[int, ...]:
        out = [ti for ti in self.empty_pre if not self.tpost[ti] <= props]
        seen = set(out)
        for p in props:
            for ti in self.by_elem.get(p, ()):
                if ti not in seen:
                    seen.add(ti)
                    if self.tpre[ti] <= props and not self.tpost[ti] <= props:
                        out.append(ti)
        out.sort()
        return tuple(out)


def apply_triple(q: PartialProgram, ti: int, ctx: SearchContext) -> PartialProgram:
    """Successor of q after firing triple index ti (precondition assumed met)."""
    tri = ctx.triples[ti]
    closes, stage = ctx.pricer.advance(q.stage, tri.instrs)
    closed = q.closed_s
    for done in closes:
        closed += done.time_s

    props = q.props | ctx.tpost[ti]
    if ctx.tretire[ti]:
        props -= ctx.tretire[ti]
    computed = q.computed
    remaining = q.remaining
    fresh = [r for r in ctx.tnew_refs[ti] if r not in computed]
    if fresh:
        computed = computed | frozenset(fresh)
        for r in fresh:
            if r in ctx.ancestors:
                remaining -= ctx.flops_map[r]
    complete = ctx.loss_prop_id in props

    return _partial_program(PartialProgram, (
        q.instrs + tri.instrs, props, computed, closed, stage, remaining, complete,
        closed if complete else ctx.score(closed, stage, remaining), q.path + (ti,)))


def dominates(a: PartialProgram, b: PartialProgram) -> bool:
    """True iff a renders b redundant, given equal property sets: a is at
    most as expensive in every cost component (closed stages, the open
    stage's collective, per-device accrued compute), and both open stages
    wait for a row on the same collective, or neither does."""
    s, t = a.stage, b.stage
    if a.closed_s > b.closed_s or s.comm_s > t.comm_s:
        return False
    if any(x > y for x, y in zip(s.comp_s, t.comp_s)):
        return False
    return (s.comm if s.row is None else None) == (t.comm if t.row is None else None)


class SynthesisResult(NamedTuple):
    program: DistributedProgram | None
    cost_s: float
    exhausted: bool
    expansions: int
    generated: int
    purged: int


def synthesize(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
               cfg: SearchConfig | None = None,
               assignment: SegmentAssignment | None = None) -> SynthesisResult:
    """Minimum-cost complete program for the graph under fixed ratios B."""
    cfg = cfg or SearchConfig()
    ctx = SearchContext(g, theory, spec, B, assignment)
    root = ctx.initial()

    # Equal scores are common (fully sharded instructions leave the score
    # unchanged), so ties prefer the deeper node, then the lower triple path:
    # the search dives to a completion and the bound then retires the rest
    # of the plateau.  Paths are unique, so no entry compares past its path.
    heap: list = []
    heapq.heappush(heap, (_priority(root.score_s), -len(root.instrs), root.path, root))
    # One bucket per exact property set holds every node pushed with it; a
    # successor some node in its bucket dominates is dropped (`purged`).
    buckets: dict[frozenset[int], list[PartialProgram]] = {root.props: [root]}
    best: PartialProgram | None = None
    best_s = bound = math.inf       # best complete cost; scores it cuts off
    expansions = generated = purged = 0
    last_score = 0.0
    exhausted = False
    trace = _logger.isEnabledFor(logging.DEBUG)

    while heap:
        key, _, _, q = heapq.heappop(heap)
        if q.score_s >= bound:
            break
        if key < last_score:
            raise SearchInvariantError(
                f"popped priority decreased: {key} after {last_score}")
        last_score = key
        if expansions >= cfg.max_expansions:
            exhausted = True
            break
        expansions += 1
        if trace:
            _logger.debug("expand #%d score=%.6g instrs=%d props=%d",
                          expansions, q.score_s, len(q.instrs), len(q.props))

        for ti in ctx.applicable(q.props):
            succ = apply_triple(q, ti, ctx)
            generated += 1

            if succ.complete:
                total = succ.total_s
                if total < best_s:
                    best, best_s = succ, total
                    bound = best_s - OPTIMALITY_MARGIN * abs(best_s)
                continue
            if succ.score_s >= bound:
                continue

            bucket = buckets.get(succ.props)
            if bucket is None:
                buckets[succ.props] = [succ]
            else:
                if any(dominates(other, succ) for other in bucket):
                    purged += 1
                    continue
                bucket.append(succ)
            heapq.heappush(heap, (_priority(succ.score_s), -len(succ.instrs), succ.path, succ))

    if best is None and not exhausted:
        raise NoCompleteProgramError(
            f"no complete program reachable for loss {theory.loss!r}")
    program = None if best is None else DistributedProgram(instrs=best.instrs, loss=theory.loss)
    return SynthesisResult(program=program, cost_s=best_s, exhausted=exhausted,
                           expansions=expansions, generated=generated, purged=purged)


# ---------------------------------------------------------------------------
# Exhaustive enumeration: the independent optimality oracle.


class EnumerationResult(NamedTuple):
    """With an audit, `nodes[s]` is state s's cheapest program (state 0 is
    the root) and `edges` holds three flat arrays: source state, child state
    and closed-cost delta of every transition, in expansion order."""
    cost_s: float
    program: DistributedProgram
    explored: int
    complete_states: int
    nodes: list[PartialProgram] | None = None
    edges: tuple[array, array, array] | None = None


class _Interner:
    """Values stored once and referred to by dense integer ids."""

    def __init__(self):
        self.ids: dict = {}
        self.values: list = []

    def __call__(self, value) -> int:
        vid = self.ids.get(value)
        if vid is None:
            vid = self.ids[value] = len(self.values)
            self.values.append(value)
        return vid


def enumerate_programs(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                       assignment: SegmentAssignment | None = None,
                       max_len: int | None = None, audit: bool = False) -> EnumerationResult:
    """Exhaustive enumeration of every program of at most max_len
    instructions; returns the cheapest complete one.

    A state is the integer triple (props id, stage id, length): an interned
    property set, an interned open stage (a `StageCost`: collective price,
    per-device accrued compute, ratio row, collective) and the instruction
    count.  Programs reaching the same state are merged, keeping the one
    with the cheapest closed stages (exact, not heuristic: what a state can
    still become and cost depends on nothing else).  Property transitions
    and stage steps (`StagePricer.advance`) are memoized separately, since
    far fewer property sets and open stages occur than states; each state
    keeps its closed cost and a pointer to its best parent, and the winning
    program is rebuilt from those pointers.  States are expanded in
    ascending length, so every path into a state is recorded before the
    state itself is expanded.

    With `audit`, every state's node is rebuilt by `apply_triple` along the
    best parents and checked against the factored bookkeeping, and every
    transition is recorded as an edge."""
    if max_len is None:
        max_len = 2 * len(g.nodes) + 4
    ctx = SearchContext(g, theory, spec, B, assignment)
    root = ctx.initial()
    tlen = [len(tr.instrs) for tr in ctx.triples]
    max_step = max(tlen, default=1)

    props = _Interner()
    props(root.props)
    props_done = [ctx.loss_prop_id in root.props]     # per props id
    props_succ: list = [None]     # per props id: ((ti, props id', length step), ...)

    def props_successors(pid: int) -> tuple[tuple[int, int, int], ...]:
        ps = props.values[pid]
        succ = tuple((ti, props((ps | ctx.tpost[ti]) - ctx.tretire[ti]), tlen[ti])
                     for ti in ctx.applicable(ps))
        for fresh in props.values[len(props_done):]:
            props_done.append(ctx.loss_prop_id in fresh)
            props_succ.append(None)
        props_succ[pid] = succ
        return succ

    stages = _Interner()
    stages(root.stage)
    stage_tail = [root.stage.time_s]     # per stage id
    stage_next: list[dict[int, tuple[int, tuple[float, ...]]]] = [{}]   # per stage id, by ti

    def stage_successor(sid: int, ti: int) -> tuple[int, tuple[float, ...]]:
        closes, stage = ctx.pricer.advance(stages.values[sid], ctx.triples[ti].instrs)
        nsid = stages(stage)
        if nsid == len(stage_tail):
            stage_tail.append(stage.time_s)
            stage_next.append({})
        charges = tuple(done.time_s for done in closes) if closes else ()
        out = stage_next[sid][ti] = (nsid, charges)
        return out

    closed = array("d", [root.closed_s])
    parent = array("q", [-1])
    via = array("q", [-1])
    edge_src, edge_child, edge_delta = array("q"), array("q"), array("d")
    layers: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 0}}
    audit_layers: list = []
    best_total = math.inf
    best_at: tuple[int, int] | None = None     # (parent state, triple index)
    complete_states = 0

    length = 0
    while length <= max_len:
        layer = layers.pop(length, None)
        if audit and layer:
            audit_layers.append(layer)
        if not layer or length >= max_len:
            length += 1
            continue
        targets = [None] + [layers.setdefault(length + step, {})
                            for step in range(1, max_step + 1)]
        for (pid, sid), s in layer.items():
            if props_done[pid]:
                continue
            base = closed[s]
            succs = props_succ[pid]
            if succs is None:
                succs = props_successors(pid)
            nexts = stage_next[sid]
            for ti, npid, step in succs:
                nsid, closes = nexts.get(ti) or stage_successor(sid, ti)
                c = base
                for charge in closes:
                    c += charge
                target = targets[step]
                t = target.get((npid, nsid))
                if t is None:
                    t = target[npid, nsid] = len(closed)
                    closed.append(c)
                    parent.append(s)
                    via.append(ti)
                    if props_done[npid]:
                        complete_states += 1
                        total = c + stage_tail[nsid]
                        if best_at is None or total < best_total:
                            best_total, best_at = total, (s, ti)
                elif c < closed[t]:
                    closed[t] = c
                    parent[t] = s
                    via[t] = ti
                    if props_done[npid]:
                        total = c + stage_tail[nsid]
                        if total < best_total:
                            best_total, best_at = total, (s, ti)
                if audit:
                    edge_src.append(s)
                    edge_child.append(t)
                    edge_delta.append(c - base)
        length += 1

    if best_at is None:
        raise NoCompleteProgramError(
            f"no complete program within {max_len} instructions")
    path = [best_at[1]]
    s = best_at[0]
    while s > 0:
        path.append(via[s])
        s = parent[s]
    instrs = tuple(instr for ti in reversed(path) for instr in ctx.triples[ti].instrs)
    program = DistributedProgram(instrs=instrs, loss=theory.loss)
    nodes = edges = None
    if audit:
        audit_layers.extend(layer for _, layer in sorted(layers.items()))
        nodes = _audit_nodes(ctx, root, audit_layers, closed, parent, via,
                             props.values, stages.values)
        edges = (edge_src, edge_child, edge_delta)
    return EnumerationResult(cost_s=best_total, program=program, explored=len(closed),
                             complete_states=complete_states, nodes=nodes, edges=edges)


def _audit_nodes(ctx: SearchContext, root: PartialProgram, layers, closed, parent,
                 via, props_values, stage_values) -> list[PartialProgram]:
    """Every state's node, indexed by state id and built in ascending length:
    each is its best parent's node advanced by `apply_triple`, and must agree
    with the factored state it stands for."""
    nodes: list = [None] * len(closed)
    # Every node survives until the result is dropped and none forms a cycle,
    # so the cyclic collector would only rescan them as they pile up.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for layer in layers:
            for (pid, sid), s in layer.items():
                node = root if s == 0 else apply_triple(nodes[parent[s]], via[s], ctx)
                if (node.closed_s != closed[s] or node.props != props_values[pid]
                        or node.stage != stage_values[sid]):
                    raise SearchInvariantError(
                        f"state {s}: rebuilt program disagrees with the enumeration's bookkeeping")
                nodes[s] = node
    finally:
        if collecting:
            gc.enable()
    return nodes
