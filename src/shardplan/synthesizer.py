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


def apply_triple(q: PartialProgram, ti: int, ctx: SearchContext) -> PartialProgram:
    """Successor of q after firing triple index ti (precondition assumed met)."""
    tri = ctx.triples[ti]
    closed = q.closed_s
    open_comm = q.open_comm_s
    acc = list(q.acc)
    open_work = q.open_work
    stage_row = q.stage_row_idx
    comm_instr = q.open_comm_instr
    pricer = ctx.pricer

    for instr in tri.instrs:
        if instr.is_comm:
            closed += open_comm + max(acc)
            acc = [0.0] * ctx.m
            open_work = 0.0
            comm_instr = instr
            open_comm, stage_row = pricer.open_stage(instr)
            continue
        if stage_row is None:
            # The stage's first computation names its row; re-price the
            # collective that opened it there.
            stage_row = pricer.row_of(instr.ref)
            if comm_instr is not None:
                open_comm = pricer.comm(comm_instr, stage_row)
        dsec, work = pricer.comp(instr, stage_row)
        for j, sec in enumerate(dsec):
            acc[j] += sec
        open_work += work

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
        closed_s=closed, open_comm_s=open_comm, acc=tuple(acc), open_work=open_work,
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
    node: PartialProgram
    closed: float
    edges: list[tuple[object, float]] = field(default_factory=list)
    complete: bool = False


@dataclass
class EnumerationResult:
    cost_s: float
    program: DistributedProgram
    explored: int
    complete_states: int
    states: dict | None = None
    root_key: object = None


def _state_key(q: PartialProgram):
    return (q.props, q.computed, len(q.instrs), q.open_comm_s, q.acc,
            q.stage_row_idx, q.open_comm_instr)


def enumerate_programs(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                       assignment: SegmentAssignment | None = None,
                       max_len: int | None = None, audit: bool = False) -> EnumerationResult:
    """Breadth-first enumeration of every program of at most max_len
    instructions; returns the cheapest complete one.  States that agree on
    properties and cost bookkeeping are merged (exact, not heuristic), which
    keeps the walk finite without losing the minimum."""
    if max_len is None:
        max_len = 2 * len(g.nodes) + 4
    ctx = SearchContext(g, theory, spec, B, assignment,
                        SearchConfig(prune_properties=False))
    root = ctx.initial()
    root_key = _state_key(root)
    states: dict = {root_key: StateRec(node=root, closed=root.closed_s)}
    layers: dict[int, list] = {0: [root_key]}
    best: PartialProgram | None = None
    complete_states = 0

    # Expand in ascending instruction count so every path into a state is
    # recorded before the state itself is expanded (keys include the count).
    length = 0
    while length <= max_len:
        layer = layers.pop(length, None)
        length += 1
        if not layer:
            continue
        for key in layer:
            rec = states[key]
            q = rec.node
            if q.complete or len(q.instrs) >= max_len:
                continue
            for ti in ctx.applicable(q.props):
                succ = apply_triple(q, ti, ctx)
                skey = _state_key(succ)
                delta = succ.closed_s - q.closed_s
                known = states.get(skey)
                if known is None:
                    states[skey] = StateRec(node=succ, closed=succ.closed_s,
                                            complete=succ.complete)
                    layers.setdefault(len(succ.instrs), []).append(skey)
                    if succ.complete:
                        complete_states += 1
                        if best is None or succ.total_s < best.total_s:
                            best = succ
                else:
                    if succ.closed_s < known.closed:
                        known.closed = succ.closed_s
                        known.node = succ
                        if succ.complete and succ.total_s < (best.total_s if best else float("inf")):
                            best = succ
                rec.edges.append((skey, delta))

    if best is None:
        raise NoCompleteProgramError(
            f"no complete program within {max_len} instructions")
    program = DistributedProgram(instrs=best.instrs, loss=theory.loss)
    return EnumerationResult(cost_s=best.total_s, program=program, explored=len(states),
                             complete_states=complete_states,
                             states=states if audit else None,
                             root_key=root_key if audit else None)
