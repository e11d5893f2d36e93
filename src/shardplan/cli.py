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
import os
import sys
import time

from .cost_model import (ClusterFormatError, ClusterSpec, ShardingRatios,
                         iteration_time, single_segment)
from .graph_ir import (Graph, GraphFormatError, SegmentAssignment,
                       assign_segments, parse_graph, serialize_graph)
from .interpreter import build_shard_table, check_equivalence
from .optimizer_loop import BudgetExhaustedError, LoopConfig, alternate
from .synthesizer import (DistributedProgram, NoCompleteProgramError,
                          enumerate_programs)
from .theory import ALL_GATHER, build_theory, form_of_dist_id

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


def cmd_verify(args) -> int:
    doc = json.loads(_read(args.plan))
    g = parse_graph(_read(args.graph))
    spec = ClusterSpec.from_json(_read(args.cluster))
    if doc.get("schema_version") != SCHEMA_VERSION:
        print(f"error: unsupported schema_version {doc.get('schema_version')!r}",
              file=sys.stderr)
        return 2
    if doc.get("graph_sha256") != _graph_digest(g):
        print("error: plan was produced for a different graph", file=sys.stderr)
        return 2
    if doc.get("devices") != spec.m:
        print(f"error: plan is for {doc.get('devices')} devices, "
              f"cluster has {spec.m}", file=sys.stderr)
        return 2

    assignment = SegmentAssignment(segment_of=dict(doc["segment_of"]),
                                   count=int(doc["segments"]))
    ratios = ShardingRatios(rows=tuple(tuple(float(v) for v in row)
                                       for row in doc["ratios"]))
    program = DistributedProgram.from_json(doc["program"])

    breakdown = iteration_time(program.instrs, ratios, spec, assignment)
    if _canon(breakdown.total_s) != doc["estimate"]["total_s"]:
        print(f"estimate: MISMATCH (recomputed {_canon(breakdown.total_s)!r}, "
              f"plan says {doc['estimate']['total_s']!r})", file=sys.stderr)
        return 1
    print("estimate: ok")

    expected_table = _plan_shard_table(g, program, ratios, assignment)
    if doc.get("shard_table") != expected_table:
        print("shard_table: MISMATCH (does not match ratios)", file=sys.stderr)
        return 1
    print("shard_table: ok")

    table = build_shard_table(g, ratios, assignment)
    report = check_equivalence(g, program, spec.m, table,
                               trials=args.trials, seed=args.seed)
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
    plan_doc = None
    if args.ratios not in ("uniform", "flops"):
        # Anything else names a plan file whose ratios (and segmentation) we
        # reuse, so enumeration prices candidates under the plan's own B.
        plan_doc = json.loads(_read(args.ratios))
    if plan_doc is not None and args.segments is None:
        assignment = SegmentAssignment(segment_of=dict(plan_doc["segment_of"]),
                                       count=int(plan_doc["segments"]))
    else:
        segments = args.segments or 1
        assignment = (single_segment(g) if segments <= 1
                      else assign_segments(g, segments))
    if plan_doc is not None:
        B = ShardingRatios(rows=tuple(tuple(float(v) for v in row)
                                      for row in plan_doc["ratios"]))
    elif args.ratios == "flops":
        B = ShardingRatios.proportional_to_flops(spec, g=assignment.count)
    else:
        B = ShardingRatios.uniform(spec.m, g=assignment.count)
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
    except (GraphFormatError, ClusterFormatError) as e:
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
