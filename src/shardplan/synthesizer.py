"""Program synthesis: best-first search for the cheapest distributed program.

Search nodes are partial programs.  Applying a triple whose precondition is
satisfied (and whose postcondition adds something new) appends its
instructions and merges its postcondition.  A program is complete once the
loss carries the AllReduce-form property.

The priority is cost + ecost where cost counts closed stages only and ecost
is an admissible, consistent underestimate of everything still missing, so
popped scores never decrease and the first pop at or above the best complete
cost proves optimality.  Pruning: exact-state dynamic programming plus
superset dominance (a node whose properties cover another's at no greater
cost vector makes the other redundant), and optional removal of properties no
useful triple still consumes.
"""
from __future__ import annotations

import heapq
import logging
import math
from array import array
from dataclasses import dataclass, field

from .cost_model import (ClusterSpec, ShardingRatios, StagePricer,
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


@dataclass(frozen=True)
class DistributedProgram:
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


@dataclass
class SearchConfig:
    max_expansions: int = 200_000
    prune_properties: bool = True


@dataclass(slots=True)
class PartialProgram:
    """A search node.  `props` are interned property ids; cost bookkeeping
    follows the stage model incrementally (closed stages, the open stage's
    pending communication charge, and per-device accrued compute)."""
    instrs: tuple[Instruction, ...]
    props: frozenset[int]
    computed: frozenset[str]
    closed_s: float
    open_comm_s: float
    acc: tuple[float, ...]
    open_work: float          # flops accrued in the open stage, all devices
    remaining: float          # flops of loss ancestors without any property
    stage_row_idx: int | None  # the open stage's ratio row; None until known
    open_comm_instr: Instruction | None
    complete: bool
    score_s: float
    path: tuple[int, ...]     # applied triple indices (deterministic tie-break)

    @property
    def pending_key(self) -> Instruction | None:
        """The open stage's collective while its price still waits for the
        stage's ratio row."""
        return self.open_comm_instr if self.stage_row_idx is None else None

    @property
    def total_s(self) -> float:
        return self.closed_s + self.open_comm_s + max(self.acc)

    @property
    def cost_s(self) -> float:
        return self.total_s if self.complete else self.closed_s

    @property
    def ecost_s(self) -> float:
        return 0.0 if self.complete else self.score_s - self.closed_s

    def _vector(self) -> tuple[float, ...]:
        return (self.closed_s, self.open_comm_s) + self.acc


class SearchContext:
    """Theory, cluster and ratio data prepared for fast expansion; every
    instruction is priced by one `StagePricer`."""

    def __init__(self, g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                 assignment: SegmentAssignment | None = None, cfg: SearchConfig | None = None):
        if B.m != spec.m:
            raise ValueError(f"ratio width {B.m} != device count {spec.m}")
        assignment = assignment or single_segment(g)
        if B.g != assignment.count:
            raise ValueError(f"ratio rows {B.g} != segment count {assignment.count}")
        self.graph = g
        self.theory = theory
        self.spec = spec
        self.B = B
        self.cfg = cfg or SearchConfig()
        self.m = spec.m
        self.total_rate = spec.total_rate
        self.pricer = StagePricer(spec, B, assignment)

        self._ids: dict[Property, int] = {}
        self._props: list[Property] = []
        self.loss_prop_id = self._intern(all_reduce(theory.loss))

        self.triples = theory.triples
        self.tpre: list[frozenset[int]] = []
        self.tpost: list[frozenset[int]] = []
        self.tretire: list[frozenset[int]] = []
        self.tnew_refs: list[tuple[str, ...]] = []
        for tr in self.triples:
            self.tpre.append(frozenset(self._intern(p) for p in tr.pre))
            self.tpost.append(frozenset(self._intern(p) for p in tr.post))
            self.tretire.append(frozenset(self._intern(not_communicated(p.ref))
                                          for p in tr.post if p.kind == COMMUNICATED))
            self.tnew_refs.append(tuple(sorted({p.ref for p in tr.post if not p.is_guard})))

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
        self.initial_props = frozenset(self._intern(p) for p in theory.initial_props)

        self._app_cache: dict[frozenset[int], tuple[int, ...]] = {}

    def _intern(self, p: Property) -> int:
        pid = self._ids.get(p)
        if pid is None:
            pid = len(self._props)
            self._ids[p] = pid
            self._props.append(p)
        return pid

    def props_of(self, ids: frozenset[int]) -> frozenset[Property]:
        return frozenset(self._props[i] for i in ids)

    def initial(self) -> PartialProgram:
        q = PartialProgram(
            instrs=(), props=self.initial_props, computed=frozenset(),
            closed_s=0.0, open_comm_s=0.0, acc=(0.0,) * self.m, open_work=0.0,
            remaining=self.initial_remaining, stage_row_idx=None, open_comm_instr=None,
            complete=False, score_s=0.0, path=())
        q.score_s = q.closed_s + (q.open_work + q.remaining) / self.total_rate
        return q

    def applicable(self, props: frozenset[int]) -> tuple[int, ...]:
        cached = self._app_cache.get(props)
        if cached is not None:
            return cached
        out = [ti for ti in self.empty_pre if not self.tpost[ti] <= props]
        seen = set(out)
        for p in props:
            for ti in self.by_elem.get(p, ()):
                if ti not in seen:
                    seen.add(ti)
                    if self.tpre[ti] <= props and not self.tpost[ti] <= props:
                        out.append(ti)
        out.sort()
        result = tuple(out)
        self._app_cache[props] = result
        return result


def advance_stage(pricer: StagePricer, instrs: tuple[Instruction, ...],
                  open_comm: float, acc: tuple[float, ...], open_work: float,
                  row: int | None, comm_instr: Instruction | None):
    """The stage model, one instruction at a time.

    Starting from an open stage (its collective's price, per-device accrued
    compute, summed work, ratio row and collective), returns the charges of
    the stages the instructions close, in order, and the open stage after
    them as `(closes, open_comm, acc, open_work, row, comm_instr)`."""
    closes: tuple[float, ...] = ()
    acc = list(acc)
    for instr in instrs:
        if instr.is_comm:
            closes += (open_comm + max(acc),)
            acc = [0.0] * len(acc)
            open_work = 0.0
            comm_instr = instr
            open_comm, row = pricer.open_stage(instr)
            continue
        if row is None:
            # The stage's first computation names its row; re-price the
            # collective that opened it there.
            row = pricer.row_of(instr.ref)
            if comm_instr is not None:
                open_comm = pricer.comm(comm_instr, row)
        dsec, work = pricer.comp(instr, row)
        for j, sec in enumerate(dsec):
            acc[j] += sec
        open_work += work
    return closes, open_comm, tuple(acc), open_work, row, comm_instr


def apply_triple(q: PartialProgram, ti: int, ctx: SearchContext) -> PartialProgram:
    """Successor of q after firing triple index ti (precondition assumed met)."""
    tri = ctx.triples[ti]
    closes, open_comm, acc, open_work, stage_row, comm_instr = advance_stage(
        ctx.pricer, tri.instrs, q.open_comm_s, q.acc, q.open_work,
        q.stage_row_idx, q.open_comm_instr)
    closed = q.closed_s
    for charge in closes:
        closed += charge

    props = (q.props | ctx.tpost[ti]) - ctx.tretire[ti]
    computed = q.computed
    remaining = q.remaining
    fresh = [r for r in ctx.tnew_refs[ti] if r not in computed]
    if fresh:
        computed = computed | frozenset(fresh)
        for r in fresh:
            if r in ctx.ancestors:
                remaining -= ctx.flops_map[r]
    complete = ctx.loss_prop_id in props
    if not complete and ctx.cfg.prune_properties:
        props = prune_redundant_properties(props, ctx)

    succ = PartialProgram(
        instrs=q.instrs + tri.instrs, props=props, computed=computed,
        closed_s=closed, open_comm_s=open_comm, acc=acc, open_work=open_work,
        remaining=remaining, stage_row_idx=stage_row, open_comm_instr=comm_instr,
        complete=complete, score_s=0.0, path=q.path + (ti,))
    succ.score_s = closed + (0.0 if complete else (open_work + remaining) / ctx.total_rate)
    return succ


def prune_redundant_properties(props: frozenset[int], ctx: SearchContext) -> frozenset[int]:
    """Drop every property that no triple with a still-novel postcondition
    mentions in its precondition."""
    keep = []
    for p in props:
        for ti in ctx.by_elem.get(p, ()):
            if not ctx.tpost[ti] <= props:
                keep.append(p)
                break
    if len(keep) == len(props):
        return props
    return frozenset(keep)


def dominates(a: PartialProgram, b: PartialProgram) -> bool:
    """True iff a renders b redundant: a's properties cover b's and a is at
    most as expensive in every cost component (closed stages, pending
    communication, per-device accrued compute)."""
    if a.closed_s > b.closed_s or a.open_comm_s > b.open_comm_s:
        return False
    if any(x > y for x, y in zip(a.acc, b.acc)):
        return False
    if a.pending_key != b.pending_key:
        return False
    return a.props >= b.props


@dataclass
class SynthesisResult:
    program: DistributedProgram | None
    cost_s: float
    complete: bool
    optimal: bool
    exhausted: bool
    expansions: int
    generated: int
    purged: int
    node: PartialProgram | None = field(default=None, repr=False)


def synthesize(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
               cfg: SearchConfig | None = None,
               assignment: SegmentAssignment | None = None) -> SynthesisResult:
    """Minimum-cost complete program for the graph under fixed ratios B."""
    cfg = cfg or SearchConfig()
    ctx = SearchContext(g, theory, spec, B, assignment, cfg)
    root = ctx.initial()

    # Equal scores are common (fully sharded instructions leave the score
    # unchanged), so ties prefer the deeper node, then the lower triple path:
    # the search dives to a completion and the bound then retires the rest
    # of the plateau.
    heap: list = []
    counter = 0
    heapq.heappush(heap, (_priority(root.score_s), -len(root.instrs), root.path, counter, root))
    # One bucket per exact property set holds every node pushed with it;
    # exact-duplicate states are refused at push time (cheap), while the
    # superset dominance check runs lazily at pop time against the expanded
    # set, which stays small.
    buckets: dict[frozenset[int], list[PartialProgram]] = {root.props: [root]}
    expanded: list[PartialProgram] = []
    best: PartialProgram | None = None
    expansions = generated = purged = 0
    last_score = 0.0
    exhausted = False
    margin = 0.0
    trace = _logger.isEnabledFor(logging.DEBUG)

    while heap:
        key, _, _, _, q = heapq.heappop(heap)
        if best is not None and q.score_s >= best.total_s - margin:
            break
        if key < last_score:
            raise SearchInvariantError(
                f"popped priority decreased: {key} after {last_score}")
        last_score = key
        n_props = len(q.props)
        if any(len(e.props) >= n_props and e is not q and dominates(e, q)
               for e in expanded):
            purged += 1
            continue
        if expansions >= cfg.max_expansions:
            exhausted = True
            break
        expansions += 1
        expanded.append(q)
        if trace:
            _logger.debug("expand #%d score=%.6g instrs=%d props=%d",
                          expansions, q.score_s, len(q.instrs), len(q.props))

        for ti in ctx.applicable(q.props):
            succ = apply_triple(q, ti, ctx)
            generated += 1

            if succ.complete:
                if best is None or succ.total_s < best.total_s:
                    best = succ
                    margin = OPTIMALITY_MARGIN * abs(best.total_s)
                continue
            if best is not None and succ.score_s >= best.total_s - margin:
                continue

            bucket = buckets.get(succ.props)
            if bucket is None:
                buckets[succ.props] = [succ]
            else:
                if any(dominates(other, succ) for other in bucket):
                    continue
                bucket.append(succ)
            counter += 1
            heapq.heappush(heap, (_priority(succ.score_s), -len(succ.instrs), succ.path, counter, succ))

    if best is None:
        if exhausted:
            return SynthesisResult(program=None, cost_s=float("inf"), complete=False,
                                   optimal=False, exhausted=True, expansions=expansions,
                                   generated=generated, purged=purged)
        raise NoCompleteProgramError(
            f"no complete program reachable for loss {theory.loss!r}")

    program = DistributedProgram(instrs=best.instrs, loss=theory.loss)
    return SynthesisResult(program=program, cost_s=best.total_s, complete=True,
                           optimal=not exhausted, exhausted=exhausted,
                           expansions=expansions, generated=generated, purged=purged,
                           node=best)


# ---------------------------------------------------------------------------
# Exhaustive enumeration: the independent optimality oracle.


@dataclass
class StateRec:
    """One enumeration state, kept only for audits: its cheapest program
    (rebuilt from the best parents), the cost of its closed stages, its
    instruction count, and its out-edges as (child state, closed-cost delta)."""
    node: PartialProgram
    closed: float
    length: int
    edges: list[tuple[int, float]]
    complete: bool


@dataclass
class EnumerationResult:
    cost_s: float
    program: DistributedProgram
    explored: int
    complete_states: int
    states: dict[int, StateRec] | None = None
    root_key: int | None = None


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
    property set, an interned open stage (collective price, per-device
    accrued compute, ratio row, collective) and the instruction count.
    Programs reaching the same state are merged, keeping the one with the
    cheapest closed stages (exact, not heuristic: what a state can still
    become and cost depends on nothing else).  Property and stage
    transitions are memoized separately, since far fewer property sets and
    open stages occur than states; each state keeps its closed cost and a
    pointer to its best parent, and the winning program is rebuilt from
    those pointers.  States are expanded in ascending length, so every path
    into a state is recorded before the state itself is expanded.

    With `audit`, `states` maps every state id to a `StateRec` whose node
    is rebuilt by `apply_triple` along the best parents and checked against
    the factored bookkeeping."""
    if max_len is None:
        max_len = 2 * len(g.nodes) + 4
    ctx = SearchContext(g, theory, spec, B, assignment,
                        SearchConfig(prune_properties=False))
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
    stages((root.open_comm_s, root.acc, root.stage_row_idx, root.open_comm_instr))
    stage_tail: list[tuple[float, float]] = [(root.open_comm_s, max(root.acc))]
    stage_next: list[dict[int, tuple[int, tuple[float, ...]]]] = [{}]   # per stage id, by ti

    def stage_successor(sid: int, ti: int) -> tuple[int, tuple[float, ...]]:
        open_comm, acc, row, comm_instr = stages.values[sid]
        closes, open_comm, acc, _, row, comm_instr = advance_stage(
            ctx.pricer, ctx.triples[ti].instrs, open_comm, acc, 0.0, row, comm_instr)
        nsid = stages((open_comm, acc, row, comm_instr))
        if nsid == len(stage_tail):
            stage_tail.append((open_comm, max(acc)))
            stage_next.append({})
        out = stage_next[sid][ti] = (nsid, closes)
        return out

    closed = array("d", [root.closed_s])
    parent = array("q", [-1])
    via = array("q", [-1])
    edges: list[list] | None = [[]] if audit else None
    layers: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 0}}
    audit_layers: list = []
    best_total = math.inf
    best_at: tuple[int, int] | None = None     # (parent state, triple index)
    complete_states = 0

    length = 0
    while length <= max_len:
        layer = layers.pop(length, None)
        if audit and layer:
            audit_layers.append((length, layer))
        if not layer or length >= max_len:
            length += 1
            continue
        targets = [None] + [layers.setdefault(length + step, {})
                            for step in range(1, max_step + 1)]
        for (pid, sid), s in layer.items():
            if props_done[pid]:
                continue
            base = closed[s]
            out = edges[s] if audit else None
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
                    if audit:
                        edges.append([])
                    if props_done[npid]:
                        complete_states += 1
                        oc, mx = stage_tail[nsid]
                        total = c + oc + mx
                        if best_at is None or total < best_total:
                            best_total, best_at = total, (s, ti)
                elif c < closed[t]:
                    closed[t] = c
                    parent[t] = s
                    via[t] = ti
                    if props_done[npid]:
                        oc, mx = stage_tail[nsid]
                        total = c + oc + mx
                        if total < best_total:
                            best_total, best_at = total, (s, ti)
                if out is not None:
                    out.append((t, c - base))
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
    states = None
    if audit:
        audit_layers.extend(sorted(layers.items()))
        states = _audit_states(ctx, root, audit_layers, closed, parent, via,
                               edges, props.values, stages.values)
    return EnumerationResult(cost_s=best_total, program=program, explored=len(closed),
                             complete_states=complete_states, states=states,
                             root_key=0 if audit else None)


def _audit_states(ctx: SearchContext, root: PartialProgram, layers, closed, parent,
                  via, edges, props_values, stage_values) -> dict[int, StateRec]:
    """One `StateRec` per state, in ascending length; each node is its best
    parent's node advanced by `apply_triple`, and must agree with the
    factored state it stands for."""
    recs: dict[int, StateRec] = {}
    for length, layer in layers:
        for (pid, sid), s in layer.items():
            if s == 0:
                node = root
            else:
                node = apply_triple(recs[parent[s]].node, via[s], ctx)
            if (node.closed_s != closed[s] or node.props != props_values[pid]
                    or (node.open_comm_s, node.acc, node.stage_row_idx,
                        node.open_comm_instr) != stage_values[sid]):
                raise SearchInvariantError(
                    f"state {s}: rebuilt program disagrees with the enumeration's bookkeeping")
            recs[s] = StateRec(node=node, closed=closed[s], length=length,
                               edges=edges[s], complete=node.complete)
    return recs
