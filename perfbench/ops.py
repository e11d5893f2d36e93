"""The benchmark's operations, and the spans recorded around them.

A pass runs every instance of a workload through the calls the CLI makes:
``plan`` (parse, cluster, ``alternate``, ``plan_document``, JSON), then
``verify`` (the same checks as ``shardplan verify --trials 20``) and, for
audit instances, ``enumerate`` (the unguarded, unfused theory under uniform
ratios).  Spans are recorded here, around each call into a public function
of a layer; the package itself is not instrumented.

Each operation's start and seconds are recorded.  Given a ``SpeedClock``,
a pass takes reference timings between operations (see ``speed.py``) and
leaves their time out of its wall time.

With tracing off, ``alternate`` runs with its default hooks, exactly as the
CLI calls it.  With tracing on, the same public functions are passed in as
hooks (``synthesize`` with the loop's ``SearchConfig``, ``optimize_ratios``,
and ``build_theory(g, m)`` as ``theory=``) so that each can be timed.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from shardplan.cli import SCHEMA_VERSION, plan_document
from shardplan.cost_model import (ClusterSpec, ShardingRatios, iteration_time,
                                  single_segment)
from shardplan.graph_ir import SegmentAssignment, parse_graph, serialize_graph
from shardplan.interpreter import build_shard_table, check_equivalence
from shardplan.load_balancer import optimize_ratios
from shardplan.optimizer_loop import LoopConfig, alternate
from shardplan.synthesizer import (DistributedProgram, SearchConfig,
                                   enumerate_programs, synthesize)
from shardplan.theory import build_theory

from speed import SpeedClock
from workloads import Instance

VERIFY_TRIALS = 20
VERIFY_RTOL = 1e-9

# Spans named "op.*" wrap whole operations; every other span is a layer.
OP_PREFIX = "op."

_NULL = nullcontext()


class Recorder:
    """Spans and counters of one pass, kept in memory until the run ends.

    A span is ``[name, start, end, parent index, op id]``; spans of one
    operation share the op id.  An untraced recorder records no spans and
    passes no hooks to ``alternate``.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.traced else _NULL

    # alternate()'s hooks: the same public calls its defaults make.
    def synth(self, g, theory, spec, B, assignment, cfg):
        with self.span("synthesizer.synthesize"):
            res = synthesize(g, theory, spec, B,
                             cfg=SearchConfig(max_expansions=cfg.max_expansions,
                                              prune_properties=cfg.prune_properties),
                             assignment=assignment)
        self.counts["synthesizer.calls"] += 1
        self.counts["synthesizer.expansions"] += res.expansions
        self.counts["synthesizer.generated"] += res.generated
        self.counts["synthesizer.purged"] += res.purged
        return res

    def balance(self, program, g, spec, assignment):
        with self.span("load_balancer.optimize_ratios"):
            ratios = optimize_ratios(program, g, spec, assignment)
        self.counts["load_balancer.calls"] += 1
        return ratios


class _Span:
    __slots__ = ("rec", "name", "row")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.row = [self.name, time.perf_counter(), 0.0, parent, rec.op]
        rec._stack.append(len(rec.spans))
        rec.spans.append(self.row)

    def __exit__(self, *exc):
        self.row[2] = time.perf_counter()
        self.rec._stack.pop()
        return False


def self_times(spans: list[list]) -> Counter:
    """Seconds per span name, each span minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def canon(x: float) -> float:
    """The plan file's float format: 12 significant digits."""
    return float(f"{x:.12g}")


def sharded_axes(program: DistributedProgram) -> list[tuple[str, int]]:
    """(tensor, axis) pairs the program shards, read from its tensor ids."""
    pairs = set()
    for instr in program.instrs:
        for did in (*instr.operands, instr.output):
            ref, _, suffix = did.rpartition("@")
            if suffix.startswith("shard"):
                pairs.add((ref, int(suffix[len("shard"):])))
    return sorted(pairs)


@dataclass
class Planned:
    text: str
    cost_s: float
    optimal: bool
    kinds: frozenset[str]


def plan(inst: Instance, rec: Recorder) -> Planned:
    """What ``shardplan plan GRAPH CLUSTER --segments N`` computes."""
    with rec.span("graph_ir.parse"):
        g = parse_graph(inst.graph)
    with rec.span("cost_model.cluster_parse"):
        spec = ClusterSpec.from_json(inst.cluster)
    hooks = {}
    if rec.traced:
        with rec.span("theory.build"):
            theory = build_theory(g, spec.m)
        rec.counts["theory.triples"] += len(theory.triples)
        hooks = dict(theory=theory, synth_fn=rec.synth, balance_fn=rec.balance)
        calls_before = rec.counts["synthesizer.calls"]
    with rec.span("optimizer_loop.alternate"):
        result = alternate(g, spec, segments=inst.segments, cfg=LoopConfig(), **hooks)
    with rec.span("cli.plan_document"):
        doc = plan_document(g, spec, result)
    with rec.span("cli.serialize"):
        text = json.dumps(doc, indent=2) + "\n"
    if rec.traced:
        rounds = len(result.rounds)
        rec.counts["optimizer_loop.rounds"] += rounds
        rec.counts["optimizer_loop.balance_accepted"] += sum(
            r.balance_accepted for r in result.rounds)
        rec.counts["optimizer_loop.polish_calls"] += (
            rec.counts["synthesizer.calls"] - calls_before - rounds)
        rec.counts["graph_ir.nodes"] += len(g.nodes)
        rec.counts["cli.plan_bytes"] += len(text)
    return Planned(text=text, cost_s=doc["estimate"]["total_s"],
                   optimal=result.optimal,
                   kinds=frozenset(i.kind for i in result.program.instrs))


def verify(inst: Instance, plan_text: str, rec: Recorder) -> str | None:
    """The checks of ``shardplan verify PLAN GRAPH CLUSTER --trials 20``.

    Returns None when the plan passes, else what failed.
    """
    with rec.span("graph_ir.parse"):
        g = parse_graph(inst.graph)
    with rec.span("cost_model.cluster_parse"):
        spec = ClusterSpec.from_json(inst.cluster)
    with rec.span("cli.load_plan"):
        doc = json.loads(plan_text)
        if doc.get("schema_version") != SCHEMA_VERSION:
            return f"schema_version {doc.get('schema_version')!r}"
        digest = hashlib.sha256(serialize_graph(g).encode()).hexdigest()
        if doc.get("graph_sha256") != digest:
            return "graph digest mismatch"
        if doc.get("devices") != spec.m:
            return "device count mismatch"
        assignment = SegmentAssignment(segment_of=dict(doc["segment_of"]),
                                       count=int(doc["segments"]))
        ratios = ShardingRatios(rows=tuple(tuple(float(v) for v in row)
                                           for row in doc["ratios"]))
        program = DistributedProgram.from_json(doc["program"])

    with rec.span("cost_model.iteration_time"):
        breakdown = iteration_time(program.instrs, ratios, spec, assignment)
    if canon(breakdown.total_s) != doc["estimate"]["total_s"]:
        return (f"estimate mismatch: recomputed {canon(breakdown.total_s)!r}, "
                f"plan says {doc['estimate']['total_s']!r}")

    with rec.span("interpreter.build_shard_table"):
        full = build_shard_table(g, ratios, assignment)
    expected = {f"{ref}:{axis}": list(full[(ref, axis)])
                for ref, axis in sharded_axes(program)}
    if doc.get("shard_table") != expected:
        return "shard table mismatch"

    with rec.span("interpreter.build_shard_table"):
        table = build_shard_table(g, ratios, assignment)
    with rec.span("interpreter.check_equivalence"):
        report = check_equivalence(g, program, spec.m, table,
                                   trials=VERIFY_TRIALS, seed=0, rtol=VERIFY_RTOL)
    rec.counts["interpreter.trials"] += report.trials
    if not report.passed or report.trials != VERIFY_TRIALS:
        return f"equivalence: max rel err {report.max_rel_err:.3g} over {report.trials} trials"
    return None


def enumerate_minimum(inst: Instance, rec: Recorder) -> tuple[float, int]:
    """What ``shardplan enumerate GRAPH CLUSTER`` computes: the minimum cost
    (in the plan file's float format) and the number of states explored."""
    with rec.span("graph_ir.parse"):
        g = parse_graph(inst.graph)
    with rec.span("cost_model.cluster_parse"):
        spec = ClusterSpec.from_json(inst.cluster)
    B = ShardingRatios.uniform(spec.m, g=1)
    with rec.span("theory.build"):
        theory = build_theory(g, spec.m, guards=False, fuse=False)
    rec.counts["theory.triples"] += len(theory.triples)
    with rec.span("synthesizer.enumerate"):
        res = enumerate_programs(g, theory, spec, B, assignment=single_segment(g))
    rec.counts["synthesizer.enumerate_states"] += res.explored
    return canon(res.cost_s), res.explored


@dataclass
class PassResult:
    # Seconds of the pass, less the reference work timed during it.
    wall_s: float
    # (kind, instance name, start, seconds) of every operation that ran to
    # the end; kind is "plan", "verify" or "enumerate".
    timings: list[tuple[str, str, float, float]] = field(default_factory=list)
    plans: dict[str, str] = field(default_factory=dict)
    costs: list[float] = field(default_factory=list)
    kinds: dict[str, frozenset[str]] = field(default_factory=dict)
    explored: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    # Whether the plan bytes equal the first pass's (see run.run_passes).
    same_plans: bool = True

    def fingerprint(self) -> str:
        """sha256 over the pass's plan bytes, in instance-name order, so it
        does not depend on the order the seed runs them in."""
        h = hashlib.sha256()
        for name in sorted(self.plans):
            h.update(name.encode() + b"\0" + self.plans[name].encode())
        return h.hexdigest()

    def geomean_cost_s(self) -> float:
        if not self.costs:
            return float("nan")
        return math.exp(sum(math.log(c) for c in self.costs) / len(self.costs))


def _attempt(out: PassResult, rec: Recorder, clock: SpeedClock | None,
             what: str, inst: Instance, fn, *args):
    """Run one operation, record its time, and return its value and
    seconds.  An exception is recorded as the operation's failure, and the
    seconds are then None."""
    if clock is not None:
        clock.tick()
    out.attempted += 1
    rec.op += 1
    started = time.perf_counter()
    try:
        with rec.span(OP_PREFIX + what):
            value = fn(inst, *args, rec)
    except Exception:
        out.failures.append(f"{inst.name}: {what} raised\n{traceback.format_exc()}")
        return None, None
    dt = time.perf_counter() - started
    out.timings.append((what, inst.name, started, dt))
    return value, dt


def _plan_and_verify(out: PassResult, rec: Recorder, clock: SpeedClock | None,
                     inst: Instance) -> Planned | None:
    """Plan ``inst`` and verify the plan.  Returns the plan, or None when
    it failed."""
    planned, dt = _attempt(out, rec, clock, "plan", inst, plan)
    if dt is None:
        return None
    if out.plans.setdefault(inst.name, planned.text) != planned.text:
        out.failures.append(f"{inst.name}: plan bytes differ between repeats")
        return None
    if not planned.optimal:
        out.failures.append(f"{inst.name}: search budget exhausted")
        return None
    problem, dt = _attempt(out, rec, clock, "verify", inst, verify, planned.text)
    if dt is None:
        return None
    if problem is not None:
        out.failures.append(f"{inst.name}: verify: {problem}")
        return None
    return planned


def run_pass(instances: list[Instance], rec: Recorder,
             clock: SpeedClock | None = None) -> PassResult:
    """One closed-loop pass: each operation starts after the previous ends.
    With a clock, reference timings are taken between operations."""
    out = PassResult(wall_s=0.0)
    spent_before = clock.spent_s if clock is not None else 0.0
    started = time.perf_counter()
    for inst in instances:
        for _ in range(inst.repeats):
            planned = _plan_and_verify(out, rec, clock, inst)
            if planned is None:
                break
        if planned is None:
            continue
        out.costs.append(planned.cost_s)
        out.kinds[inst.name] = planned.kinds
        if inst.audit:
            found, dt = _attempt(out, rec, clock, "enumerate", inst,
                                 enumerate_minimum)
            if dt is None:
                continue
            minimum, out.explored[inst.name] = found
            if planned.cost_s != minimum:
                out.failures.append(f"{inst.name}: plan cost {planned.cost_s!r} "
                                    f"!= enumerated minimum {minimum!r}")
    out.wall_s = time.perf_counter() - started
    if clock is not None:
        out.wall_s -= clock.spent_s - spent_before
    return out
