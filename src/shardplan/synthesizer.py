"""Program synthesis: best-first search for the cheapest distributed program.

Search nodes are partial programs, holding only what the search reads:
property set (the theory's own int mask), closed cost, open stage,
remaining flops, computed tensors (an int mask), path of triples, depth and
score.  Applying a triple whose precondition is satisfied (and whose
postcondition adds something new) sets its postcondition's bits, clears
the guards it retires (its `kill` bits) and appends the triple to the
path.  A program is complete once the loss's AllReduce-form bit is set;
the winner's is rebuilt from its path.

The priority is cost + ecost where cost counts closed stages only and ecost
is an admissible, consistent underestimate of everything still missing, so
popped scores never decrease and the first pop at or above the best complete
cost proves optimality.  ecost is the open stage's collective plus its
slowest device, which holds its accrued compute and its least share of every
remaining loss-ancestor flop.  Pruning: among nodes with the same property
set, a node at no greater cost vector makes another redundant, so it is not
pushed.  A node's property set is exactly the state `enumerate_programs`
walks.

`SearchContext.step` builds every node, for the search and the test oracles
alike, priced bit for bit as `StagePricer.advance` prices it, with two
shortcuts.  A triple that opens with a collective closes the open stage as
it is and opens the stage it opens from any stage (`opened_stage`, memoized
per triple and shared with the enumeration).  One that only computes, with
one instruction with flops or none, adds that instruction's per-device
seconds to the open stage (a source adds 0.0, which changes no sum).
"""
from __future__ import annotations

import heapq
import math
from array import array
from itertools import chain
from operator import add, le
from typing import NamedTuple

from .cost_model import ClusterSpec, ShardingRatios, StageCost, StagePricer
from .graph_ir import Graph
from .theory import (COLLECTIVE_KINDS, GUARD_KINDS, Instruction, Theory, all_reduce, bits,
                     relevant)


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
    """A search node.  `props` is a property set of the theory; bit k of
    `computed` is set once a property of `SearchContext.owed[k]` is; the
    closed stages' cost and the open stage are those `advance` leaves."""
    props: int
    computed: int
    closed_s: float
    stage: StageCost
    remaining: float          # flops of loss ancestors without any property
    score_s: float
    path: tuple[int, ...]     # applied triple indices (deterministic tie-break)
    depth: int                # instruction count


class SearchContext:
    """Theory, cluster and ratio data prepared for fast expansion: the
    theory's masks, and per-triple tables built in one pass over them; one
    `StagePricer` prices every instruction.  `root` is the empty program."""

    def __init__(self, g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                 assignment=None):  # unread; kept while perfbench/ops.py passes it
        if B.m != spec.m:
            raise ValueError(f"ratio width {B.m} != device count {spec.m}")
        self.theory, self.spec, self.B = theory, spec, B
        self.pricer = StagePricer(spec, B)

        self.triples = triples = theory.triples
        props = theory.props
        self.loss_bit = 1 << props.index(all_reduce(theory.loss))
        self.owed = sorted(r for r in g.loss_ancestors if g.tensors[r].flops)
        cell = {r: ((1 << k, g.tensors[r].flops),) for k, r in enumerate(self.owed)}
        at = [() if p.kind in GUARD_KINDS else cell.get(p.ref, ()) for p in props]
        mask = sum(1 << i for i, c in enumerate(at) if c)
        # Per triple: (index, pre, post) for `applicable`; in `towes`, the
        # (bit k, flops) of each `owed[k]`, a loss ancestor with flops, that
        # its post realizes, by name (`at[i]` holds bit i's); in `work`,
        # False if it communicates or computes twice, else its one
        # instruction with flops, None if none; in `opened`, `opened_stage`'s
        # memo, None until a collective-first triple fires.
        scan, towes, work, opened = [], [], [], []
        for ti, (pre, seq, post, _) in enumerate(triples):
            scan.append((ti, pre, post))
            m = post & mask
            towes.append(() if not m else at[m.bit_length() - 1] if not m & m - 1
                         else tuple(sorted({c for i in bits(m) for c in at[i]})))
            head = seq[0]
            comm = head.kind in COLLECTIVE_KINDS
            opened.append(None if comm else False)
            if comm or len(seq) == 1:
                work.append(False if comm else head if head.flops else None)
            else:
                busy = [i for i in seq if i.flops or i.kind in COLLECTIVE_KINDS]
                work.append(busy[0] if len(busy) == 1 and busy[0].kind not in COLLECTIVE_KINDS
                            else False if busy else None)
        self._scan, self.towes, self.work, self.opened = scan, towes, work, opened
        remaining = float(sum(g.tensors[r].flops for r in self.owed))
        self.root, self.opened_stage, self.step = self._closures(remaining)

    def instructions(self, path) -> tuple[Instruction, ...]:
        """The program that fires the triples of `path` in turn."""
        return tuple(chain.from_iterable(self.triples[ti].instrs for ti in path))

    def applicable(self, props: int) -> tuple[int, ...]:
        """The triples whose pre props holds and whose post it lacks, in order."""
        return tuple([ti for ti, pre, post in self._scan
                      if pre & props == pre and post & props != post])

    def _closures(self, remaining: float):
        """The root node, with `remaining` flops, `opened_stage` and `step`:
        closures over this context's tables, not over the context, which
        holds them."""
        pricer, triples, towes = self.pricer, self.triples, self.towes
        work, opened = self.work, self.opened
        advance, comp_s, empty, new = pricer.advance, pricer.comp, pricer.empty, tuple.__new__
        # Least seconds a remaining flop puts on each device: a B[j] share
        # of it if it runs sharded, all of it if replicated.
        floor_s = tuple(b / rate for b, rate in zip(self.B.row, pricer.rates))

        def score(closed_s, stage, remaining):
            """Lower bound on every completion, closed + ecost: each later
            stage takes at least its slowest device, so all at least any one."""
            comm_s, comp, _ = stage
            worst = 0.0         # a loop: max() over a generator takes twice as long
            for c, f in zip(comp, floor_s):
                c += remaining * f
                if c > worst:
                    worst = c
            return closed_s + COMPLETION_SCALE * (comm_s + worst)

        def opened_stage(ti):
            """The stage triple ti leaves open from any open stage, if it
            opens with a collective, which closes that stage as it is, and
            closes no other stage; else None, and `advance` walks it: two
            stages' charges added in another order could round otherwise."""
            stage = opened[ti]
            if stage is None:
                closes, stage = advance(empty, triples[ti].instrs)
                stage = opened[ti] = not closes and stage
            return stage or None

        last, tail = None, 0.0      # a node and its open stage's seconds

        def step(q, ti):
            """Successor of q after firing triple index ti (precondition
            assumed met), priced bit for bit as `advance` prices it."""
            nonlocal last, tail
            props, computed, closed, stage, remaining, _, path, depth = q
            _, seq, post, kill = triples[ti]
            after = opened_stage(ti) if opened[ti] is None else opened[ti]
            how = work[ti]
            if after:
                if q is not last:
                    last, tail = q, stage.time_s
                closed += tail          # 0.0 s for an empty stage
                stage = after
            elif how is False:
                closes, stage = advance(stage, seq)
                for done in closes:
                    closed += done.time_s
            elif how is not None:       # a source adds 0.0 s, which moves no sum
                comm_s, comp, comm = stage
                stage = new(StageCost, (comm_s, tuple(map(add, comp, comp_s(how))), comm))
            props = (props | post) & ~kill
            for b, flops in towes[ti]:
                if not computed & b:
                    computed |= b
                    remaining -= flops
            return new(PartialProgram, (props, computed, closed, stage, remaining, score(
                closed, stage, remaining), path + (ti,), depth + len(seq)))

        root = PartialProgram(self.theory.initial_props, 0, 0.0, empty, remaining,
                              score(0.0, empty, remaining), (), 0)
        return root, opened_stage, step


class SynthesisResult(NamedTuple):
    program: DistributedProgram | None
    cost_s: float
    exhausted: bool
    expansions: int
    generated: int
    purged: int


def synthesize(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
               cfg: SearchConfig | None = None,
               assignment=None  # unread; kept while perfbench/ops.py passes it
               ) -> SynthesisResult:
    """Minimum-cost complete program for the graph under fixed ratios B."""
    cfg = cfg or SearchConfig()
    ctx = SearchContext(g, theory, spec, B)
    step, applicable, loss, root = ctx.step, ctx.applicable, ctx.loss_bit, ctx.root

    # Equal scores are common (fully sharded instructions leave the score
    # unchanged), so ties prefer the deeper node, then the lower triple path:
    # the search dives to a completion and the bound then retires the rest
    # of the plateau.  Paths are unique, so no entry compares past its path.
    heap: list = [(_priority(root.score_s), 0, root.path, root)]
    # One bucket per exact property set holds every node pushed with it; a
    # successor is dropped (`purged`) when a node in its bucket costs no more
    # in any component (closed stages, the open stage's collective, each
    # device's compute).
    buckets: dict[int, list[PartialProgram]] = {root.props: [root]}
    best: PartialProgram | None = None
    best_s = bound = math.inf       # best complete cost; scores it cuts off
    expansions = generated = purged = 0
    last_score, exhausted = 0.0, False

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

        for ti in applicable(q.props):
            succ = step(q, ti)
            generated += 1
            props, _, closed, stage, _, score, _, _ = succ

            if props & loss:
                total = closed + stage.time_s
                if total < best_s:
                    best, best_s = succ, total
                    bound = best_s - OPTIMALITY_MARGIN * abs(best_s)
                continue
            if score >= bound:
                continue

            bucket = buckets.setdefault(props, [])
            comm_s, comp, _ = stage
            for other in bucket:
                o_comm_s, o_comp, _ = other[3]
                if other[2] <= closed and o_comm_s <= comm_s and all(map(le, o_comp, comp)):
                    purged += 1
                    break
            else:
                bucket.append(succ)
                heapq.heappush(heap, (_priority(score), -succ.depth, succ.path, succ))

    if best is None and not exhausted:
        raise NoCompleteProgramError(
            f"no complete program reachable for loss {theory.loss!r}")
    program = None if best is None else DistributedProgram(
        instrs=ctx.instructions(best.path), loss=theory.loss)
    return SynthesisResult(program=program, cost_s=best_s, exhausted=exhausted,
                           expansions=expansions, generated=generated, purged=purged)


# ---------------------------------------------------------------------------
# Exhaustive enumeration: the independent optimality oracle.


class EnumerationResult(NamedTuple):
    cost_s: float
    program: DistributedProgram
    explored: int
    complete_states: int


class _Interner(dict):
    """Values stored once: `interner[value]` is its dense integer id, and
    `values[id]` the value."""

    def __init__(self):
        self.values: list = []

    def __missing__(self, value) -> int:
        self.values.append(value)
        vid = self[value] = len(self)
        return vid


def enumerate_programs(g: Graph, theory: Theory, spec: ClusterSpec, B: ShardingRatios,
                       assignment=None,  # unread; kept while perfbench/ops.py passes it
                       max_len: int | None = None) -> EnumerationResult:
    """Exhaustive enumeration of every program of at most max_len
    instructions; returns the cheapest complete one.

    Only the triples that can reach the loss are walked
    (`theory.relevant`): a cheapest program fires no other, so the minimum
    is the full theory's, and `explored` counts the states of that walk.

    A state is an interned property set, an interned open stage (a
    `StageCost`: collective price, per-device accrued compute, collective)
    and the instruction count.  Programs reaching the same state
    are merged, keeping the one with the cheapest closed stages (exact, not
    heuristic: what a state can still become and cost depends on nothing
    else).  Each state keeps its closed cost and a pointer to its best
    parent, and the winning program is rebuilt from those pointers.  States
    are expanded in ascending length, so every path into a state is
    recorded before the state itself is expanded, and the walk ends with
    the last length that holds a state.

    The states of one length are grouped by property set, as
    `{props id: {stage id: state}}`, and each group's property transitions
    are memoized.  A triple whose first instruction is a collective closes
    the open stage as it is and opens one that does not depend on it, so it
    is priced once per group: the stage it opens is the search's
    (`SearchContext.opened_stage`), and only the group's state with the
    cheapest closed stages plus open stage fires it.  Every other triple
    steps each state's open stage, memoized per stage and triple."""
    if max_len is None:
        max_len = 2 * len(g.nodes) + 4
    theory = relevant(theory)
    ctx = SearchContext(g, theory, spec, B)
    root = ctx.root
    tlen = [len(tr.instrs) for tr in ctx.triples]
    max_step = max(tlen, default=1)

    stages = _Interner()
    stage_tail: list[float] = []     # per stage id
    # per stage id, by triple index: (stage id after it, closed stage times)
    stage_next: list[list[tuple[int, tuple[float, ...]] | None]] = []

    def intern_stage(stage: StageCost) -> int:
        sid = stages[stage]
        if sid == len(stage_tail):
            stage_tail.append(stage.time_s)
            stage_next.append([None] * len(tlen))
        return sid

    intern_stage(root.stage)

    def stage_successor(sid: int, ti: int) -> tuple[int, tuple[float, ...]]:
        closes, stage = ctx.pricer.advance(stages.values[sid], ctx.triples[ti].instrs)
        out = stage_next[sid][ti] = intern_stage(stage), tuple(d.time_s for d in closes)
        return out

    props = _Interner()
    props[root.props]
    props_done = [bool(ctx.loss_bit & root.props)]     # per props id
    # per props id: ((ti, props id', length step, opened stage id), ...) of every
    # applicable triple, and of those whose `ctx.opened_stage` is None (id -1)
    props_succ: list = [None]

    def props_successors(pid: int) -> tuple[tuple, tuple]:
        ps = props.values[pid]
        steps = tuple((ti, props[(ps | post) & ~kill], tlen[ti],
                       -1 if (opened := ctx.opened_stage(ti)) is None
                       else intern_stage(opened))
                      for ti in ctx.applicable(ps) for _, _, post, kill in (ctx.triples[ti],))
        for fresh in props.values[len(props_done):]:
            props_done.append(bool(ctx.loss_bit & fresh))
            props_succ.append(None)
        succ = props_succ[pid] = (steps, tuple(st for st in steps if st[3] < 0))
        return succ

    closed = array("d", [root.closed_s])
    parent, via = array("q", [-1]), array("q", [-1])
    layers: dict[int, dict[int, dict[int, int]]] = {0: {0: {0: 0}}}
    best_total = math.inf
    best_at: tuple[int, int] | None = None     # (parent state, triple index)
    complete_states = 0

    length = -1
    while layers:
        length += 1
        layer = layers.pop(length, None)
        if not layer or length >= max_len:
            continue
        targets = [None] + [layers.setdefault(length + step, {})
                            for step in range(1, max_step + 1)]
        for pid, group in layer.items():
            if props_done[pid]:
                continue
            steps, others = props_succ[pid] or props_successors(pid)
            # Only the state that closes its stage cheapest fires the
            # triples that open a stage of their own: they reach one target
            # from every state, at that state's closed stages plus open stage.
            best = -1
            if len(steps) > len(others):
                best_c = math.inf
                for sid, s in group.items():
                    c = closed[s] + stage_tail[sid]
                    if c < best_c:
                        best_c, best = c, s
            for sid, s in group.items():
                base = closed[s]
                nexts = stage_next[sid]
                for ti, npid, step, nsid in (steps if s == best else others):
                    if nsid < 0:
                        nsid, closes = nexts[ti] or stage_successor(sid, ti)
                        c = base
                        if closes:
                            for charge in closes:
                                c += charge
                    else:
                        c = best_c
                    target = targets[step]
                    target = target.get(npid) or target.setdefault(npid, {})
                    t = target.get(nsid)
                    if t is None:
                        t = target[nsid] = len(closed)
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

    if best_at is None:
        raise NoCompleteProgramError(
            f"no complete program within {max_len} instructions")
    s, path = best_at[0], [best_at[1]]
    while s > 0:
        path.append(via[s])
        s = parent[s]
    program = DistributedProgram(instrs=ctx.instructions(reversed(path)), loss=theory.loss)
    return EnumerationResult(cost_s=best_total, program=program, explored=len(closed),
                             complete_states=complete_states)
