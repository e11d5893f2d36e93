"""Command-line interface.

    shardplan plan GRAPH CLUSTER [-o PLAN] [--segments N] [--max-rounds N]
                                 [--budget N] [--no-prune]
    shardplan verify PLAN GRAPH CLUSTER [--trials N] [--seed S]
    shardplan enumerate GRAPH CLUSTER [--ratios uniform|flops|PLAN]
                                      [--segments N] [--max-len N] [--force]

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 search budget exhausted.  Plan files are byte-deterministic: floats are
canonicalized to 12 significant digits and the embedded cost estimate is
recomputed from the canonicalized ratios, so a written plan is exactly
self-consistent.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

from .cost_model import (ClusterFormatError, ClusterSpec, ShardingRatios,
                         _is_number, iteration_time, single_segment)
from .graph_ir import (Graph, GraphFormatError, SegmentAssignment, _is_int,
                       assign_segments, parse_graph, serialize_graph)
from .interpreter import ExecutionError, build_shard_table, check_equivalence
from .optimizer_loop import BudgetExhaustedError, LoopConfig, alternate
from .synthesizer import (DistributedProgram, NoCompleteProgramError,
                          enumerate_programs)
from .theory import (ALL_GATHER, INSTRUCTION_KINDS, Instruction, build_theory,
                     form_of_dist_id)

SCHEMA_VERSION = 1


def _canon(x: float) -> float:
    return float(f"{x:.12g}")


def _canon_rows(B: ShardingRatios) -> ShardingRatios:
    return ShardingRatios(rows=tuple(tuple(_canon(v) for v in row) for row in B.rows))


def _graph_digest(g: Graph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sharded_axes(program) -> list[tuple[str, int]]:
    """(tensor, axis) pairs the program actually shards, in sorted order."""
    pairs = set()
    for instr in program.instrs:
        for did in (*instr.operands, instr.output):
            form = form_of_dist_id(did)
            if form.kind == ALL_GATHER:
                pairs.add((form.ref, form.axis))
    return sorted(pairs)


def _plan_shard_table(g: Graph, program, ratios: ShardingRatios,
                      assignment) -> dict[str, list[int]]:
    full = build_shard_table(g, ratios, assignment)
    return {f"{ref}:{axis}": list(full[(ref, axis)])
            for ref, axis in _sharded_axes(program)}


def plan_document(g: Graph, spec: ClusterSpec, result) -> dict:
    """Serializable plan with canonical floats and a recomputed estimate."""
    ratios = _canon_rows(result.ratios)
    breakdown = iteration_time(result.program.instrs, ratios, spec, result.assignment)
    return {
        "schema_version": SCHEMA_VERSION,
        "graph_sha256": _graph_digest(g),
        "devices": spec.m,
        "segments": result.assignment.count,
        "segment_of": {t: result.assignment.segment_of[t] for t in g.tensor_ids},
        "ratios": [[v for v in row] for row in ratios.rows],
        "shard_table": _plan_shard_table(g, result.program, ratios,
                                         result.assignment),
        "program": result.program.to_json(),
        "estimate": {
            "total_s": _canon(breakdown.total_s),
            "stages": [{"comm_s": _canon(s.comm_s),
                        "comp_s": [_canon(v) for v in s.comp_s]}
                       for s in breakdown.stages],
        },
        "loop": {
            "rounds": len(result.rounds),
            "reason": result.reason,
            "optimal": result.optimal,
            "expansions": result.expansions,
        },
    }


def cmd_plan(args) -> int:
    started = time.monotonic()
    g = parse_graph(_read(args.graph))
    spec = ClusterSpec.from_json(_read(args.cluster))
    cfg = LoopConfig(max_rounds=args.max_rounds, max_expansions=args.budget,
                     prune_properties=not args.no_prune)
    result = alternate(g, spec, segments=args.segments, cfg=cfg)
    doc = plan_document(g, spec, result)
    text = json.dumps(doc, indent=2) + "\n"
    wall = time.monotonic() - started

    info = sys.stderr if args.output is None else sys.stdout
    print(f"cost: {doc['estimate']['total_s']:.6g} s", file=info)
    print(f"rounds: {len(result.rounds)} ({result.reason})"
          f"{', optimal' if result.optimal else ', budget exhausted'}", file=info)
    print(f"wall: {wall:.3f} s", file=info)
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote: {args.output}", file=info)
    if not result.optimal:
        print("warning: search budget exhausted; plan may be suboptimal",
              file=sys.stderr)
        return 3
    return 0


class PlanFormatError(ValueError):
    """A plan document that cannot be used; the message names the field."""


@dataclass(frozen=True)
class Plan:
    assignment: SegmentAssignment
    ratios: ShardingRatios
    program: DistributedProgram
    shard_table: dict
    estimate_s: float


def _need(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise PlanFormatError(f"plan field {where}: {what}")


def _check_dist_id(did, g: Graph, where: str) -> None:
    _need(isinstance(did, str), where, f"expected a distributed tensor id, got {did!r}")
    try:
        form = form_of_dist_id(did)
    except ValueError:
        raise PlanFormatError(
            f"plan field {where}: malformed distributed tensor id {did!r}") from None
    tensor = g.tensors.get(form.ref)
    _need(tensor is not None, where, f"unknown tensor {form.ref!r} in {did!r}")
    if form.kind == ALL_GATHER:
        _need(0 <= form.axis < len(tensor.shape), where, f"axis out of range in {did!r}")


def _load_instruction(doc, g: Graph, where: str) -> Instruction:
    _need(isinstance(doc, dict), where, "expected an object")
    kind = doc.get("kind")
    _need(kind in INSTRUCTION_KINDS, f"{where}.kind", f"unknown instruction kind {kind!r}")
    ref = doc.get("ref")
    _need(isinstance(ref, str) and ref in g.tensors, f"{where}.ref", f"unknown tensor {ref!r}")
    operands = doc.get("operands", [])
    _need(isinstance(operands, list), f"{where}.operands", "expected a list")
    for j, did in enumerate(operands):
        _check_dist_id(did, g, f"{where}.operands[{j}]")
    _check_dist_id(doc.get("output"), g, f"{where}.output")
    for key in ("axis", "axis2"):
        _need(doc.get(key) is None or _is_int(doc[key]), f"{where}.{key}",
              "expected an integer")
    dims = doc.get("dims")
    _need(dims is None or (isinstance(dims, list) and all(map(_is_int, dims))),
          f"{where}.dims", "expected a list of integers")
    _need(doc.get("tag") is None or isinstance(doc["tag"], str), f"{where}.tag",
          "expected a string")
    _need(isinstance(doc.get("sharded"), bool), f"{where}.sharded", "expected true or false")
    for key in ("flops", "elements"):
        _need(_is_int(doc.get(key)) and doc[key] >= 0, f"{where}.{key}",
              "expected a non-negative integer")
    return Instruction.from_json(doc)


def load_plan(doc, g: Graph, m: int) -> Plan:
    """Check a plan document against the graph it claims and a cluster of m
    devices, field by field, and load it.  Raises PlanFormatError naming the
    first bad field."""
    _need(isinstance(doc, dict), "(document)", "expected a JSON object")
    _need(doc.get("schema_version") == SCHEMA_VERSION, "schema_version",
          f"unsupported version {doc.get('schema_version')!r}")
    _need(doc.get("graph_sha256") == _graph_digest(g), "graph_sha256",
          "plan was produced for a different graph")
    _need(doc.get("devices") == m and _is_int(doc.get("devices")), "devices",
          f"plan is for {doc.get('devices')!r} devices, cluster has {m}")
    count = doc.get("segments")
    _need(_is_int(count) and count >= 1, "segments",
          f"expected a positive integer, got {count!r}")
    segment_of = doc.get("segment_of")
    _need(isinstance(segment_of, dict), "segment_of", "expected an object")
    for t in g.tensor_ids:
        _need(t in segment_of, "segment_of", f"no segment for tensor {t!r}")
        _need(_is_int(segment_of[t]) and 1 <= segment_of[t] <= count, f"segment_of.{t}",
              f"expected a segment in 1..{count}, got {segment_of[t]!r}")
    for t in segment_of:
        _need(t in g.tensors, "segment_of", f"unknown tensor {t!r}")

    rows = doc.get("ratios")
    _need(isinstance(rows, list) and len(rows) == count, "ratios",
          f"expected {count} rows, one per segment")
    for k, row in enumerate(rows):
        _need(isinstance(row, list) and len(row) == m
              and all(_is_number(v) and math.isfinite(v) for v in row),
              f"ratios[{k}]", f"expected {m} finite numbers")
    try:
        ratios = ShardingRatios(rows=tuple(tuple(float(v) for v in row) for row in rows))
    except ValueError as e:
        raise PlanFormatError(f"plan field ratios: {e}") from None

    program = doc.get("program")
    _need(isinstance(program, dict), "program", "expected an object with 'loss' and 'instrs'")
    _need(program.get("loss") == g.loss, "program.loss",
          f"expected the graph's loss {g.loss!r}, got {program.get('loss')!r}")
    instrs = program.get("instrs")
    _need(isinstance(instrs, list), "program.instrs", "expected a list")
    loaded = tuple(_load_instruction(d, g, f"program.instrs[{i}]")
                   for i, d in enumerate(instrs))

    _need(isinstance(doc.get("shard_table"), dict), "shard_table", "expected an object")
    estimate = doc.get("estimate")
    _need(isinstance(estimate, dict) and _is_number(estimate.get("total_s")),
          "estimate.total_s", "expected a number")
    return Plan(assignment=SegmentAssignment(segment_of=dict(segment_of), count=count),
                ratios=ratios, program=DistributedProgram(instrs=loaded, loss=g.loss),
                shard_table=doc["shard_table"], estimate_s=estimate["total_s"])


def cmd_verify(args) -> int:
    doc = json.loads(_read(args.plan))
    g = parse_graph(_read(args.graph))
    spec = ClusterSpec.from_json(_read(args.cluster))
    plan = load_plan(doc, g, spec.m)

    breakdown = iteration_time(plan.program.instrs, plan.ratios, spec, plan.assignment)
    if _canon(breakdown.total_s) != plan.estimate_s:
        print(f"estimate: MISMATCH (recomputed {_canon(breakdown.total_s)!r}, "
              f"plan says {plan.estimate_s!r})", file=sys.stderr)
        return 1
    print("estimate: ok")

    expected_table = _plan_shard_table(g, plan.program, plan.ratios, plan.assignment)
    if plan.shard_table != expected_table:
        print("shard_table: MISMATCH (does not match ratios)", file=sys.stderr)
        return 1
    print("shard_table: ok")

    table = build_shard_table(g, plan.ratios, plan.assignment)
    try:
        report = check_equivalence(g, plan.program, spec.m, table,
                                   trials=args.trials, seed=args.seed)
    except ExecutionError as e:
        print(f"equivalence: MISMATCH (the program does not run: {e})", file=sys.stderr)
        return 1
    print(f"equivalence: {report.trials} trials, "
          f"max rel err {report.max_rel_err:.3g} — "
          f"{'ok' if report.passed else 'MISMATCH'}")
    return 0 if report.passed else 1


def cmd_enumerate(args) -> int:
    g = parse_graph(_read(args.graph))
    spec = ClusterSpec.from_json(_read(args.cluster))
    if len(g.nodes) > 6 and not args.force:
        print(f"error: {len(g.nodes)} nodes is large for exhaustive enumeration; "
              "pass --force to proceed", file=sys.stderr)
        return 2
    if args.ratios not in ("uniform", "flops"):
        # Anything else names a plan file whose ratios and segmentation we
        # reuse, so enumeration prices candidates under the plan's own B.
        plan = load_plan(json.loads(_read(args.ratios)), g, spec.m)
        if args.segments not in (None, plan.assignment.count):
            print(f"error: --segments {args.segments} disagrees with the plan's "
                  f"{plan.assignment.count} segments", file=sys.stderr)
            return 2
        assignment, B = plan.assignment, plan.ratios
    else:
        segments = args.segments or 1
        assignment = (single_segment(g) if segments <= 1
                      else assign_segments(g, segments))
        B = (ShardingRatios.proportional_to_flops(spec, g=assignment.count)
             if args.ratios == "flops" else ShardingRatios.uniform(spec.m, g=assignment.count))
    theory = build_theory(g, spec.m, guards=False, fuse=False)
    try:
        res = enumerate_programs(g, theory, spec, B, assignment=assignment,
                                 max_len=args.max_len)
    except NoCompleteProgramError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"explored {res.explored} states, {res.complete_states} complete")
    print(f"minimum cost: {res.cost_s:.12g} s")
    for instr in res.program.instrs:
        print(f"  {instr.canonical()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shardplan",
                                     description="SPMD parallelization planner")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="synthesize a distributed plan")
    p.add_argument("graph")
    p.add_argument("cluster")
    p.add_argument("-o", "--output", default=None, help="plan file (default: stdout)")
    p.add_argument("--segments", type=int, default=1)
    p.add_argument("--max-rounds", type=int, default=8)
    p.add_argument("--budget", type=int, default=200_000,
                   help="search expansion budget per synthesis call")
    p.add_argument("--no-prune", action="store_true",
                   help="disable redundant-property pruning")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="check a plan against its graph")
    p.add_argument("plan")
    p.add_argument("graph")
    p.add_argument("cluster")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="exhaustively enumerate programs")
    p.add_argument("graph")
    p.add_argument("cluster")
    p.add_argument("--ratios", default="uniform",
                   help="'uniform', 'flops', or a plan file to take B from")
    p.add_argument("--segments", type=int, default=None)
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SHARDPLAN_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ClusterFormatError, PlanFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExhaustedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
