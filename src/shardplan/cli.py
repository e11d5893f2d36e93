"""Command-line interface.

    shardplan plan GRAPH CLUSTER [-o PLAN] [--max-rounds N] [--budget N]
    shardplan verify PLAN GRAPH CLUSTER [--trials N] [--seed S]
    shardplan enumerate GRAPH CLUSTER [--ratios uniform|flops|PLAN]
                                      [--max-len N] [--force]

Exit codes: 0 success, 1 verification mismatch, 2 malformed input,
3 search budget exhausted.  Plan files are byte-deterministic: floats are
canonicalized to 12 significant digits and the embedded cost estimate is
recomputed from the canonicalized ratios, so a written plan is exactly
self-consistent.  A plan holds the answer and no search telemetry: `verify`
checks every field but `loop.optimal`, which `enumerate --ratios PLAN`
checks.  `enumerate` prices every program at one ratio row, uniform or
proportional to device speed, or at a plan's rows and segments.  `plan`
writes one row; only the library's `alternate(segments=N)` writes several.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import NamedTuple

from .cost_model import (ClusterFormatError, ClusterSpec, ShardingRatios,
                         build_shard_table, check_byte_counts, iteration_time,
                         single_segment)
from .graph_ir import (Graph, GraphFormatError, GraphTooLargeError, SegmentAssignment,
                       _is_finite_number, _is_int, invalid_json, parse_graph,
                       serialize_graph)
from .optimizer_loop import BudgetExhaustedError, LoopConfig, alternate
from .synthesizer import (DistributedProgram, NoCompleteProgramError,
                          enumerate_programs)
from .theory import ALL_GATHER, build_theory, derive_theory, form_of_dist_id

SCHEMA_VERSION = 2
# The fields of a plan document, in the order `plan_document` writes them.
PLAN_FIELDS = ("schema_version", "graph_sha256", "devices", "segments", "segment_of",
               "ratios", "shard_table", "program", "estimate", "loop")


def _canon(x: float) -> float:
    return float(f"{x:.12g}")


def _canon_rows(B: ShardingRatios) -> ShardingRatios:
    return ShardingRatios(rows=tuple(tuple(_canon(v) for v in row) for row in B.rows))


def _graph_digest(g: Graph) -> str:
    return hashlib.sha256(serialize_graph(g).encode()).hexdigest()


class OptionError(ValueError):
    """A command-line option outside its range, or a file that is not UTF-8."""


def _check_option(name: str, value: int | None, lo: int) -> None:
    if value is not None and value < lo:
        raise OptionError(f"--{name} must be at least {lo}, got {value}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise OptionError(f"{path}: not UTF-8 text ({e})") from None


def _parsed(path: str, parse):
    """`parse` applied to the text of the file at `path`; if the file is
    not JSON, the parser's error names it."""
    try:
        return parse(_read(path))
    except (GraphFormatError, ClusterFormatError) as e:
        if isinstance(e.__cause__, (json.JSONDecodeError, RecursionError)):
            raise type(e)(invalid_json(e.__cause__, path)) from None
        raise


def _graph_and_cluster(args) -> tuple[Graph, ClusterSpec]:
    g = _parsed(args.graph, parse_graph)
    spec = _parsed(args.cluster, ClusterSpec.from_json)
    check_byte_counts(g, spec)
    return g, spec


def _sharded_axes(program) -> list[tuple[str, int]]:
    """(tensor, axis) pairs the program actually shards, in sorted order."""
    pairs = set()
    for instr in program.instrs:
        for did in (*instr.operands, instr.output):
            form = form_of_dist_id(did)
            if form.kind == ALL_GATHER:
                pairs.add((form.ref, form.axis))
    return sorted(pairs)


def _plan_shard_table(table: dict, program) -> dict[str, list[int]]:
    """The plan file's view of a full shard table: the axes the program shards."""
    return {f"{ref}:{axis}": list(table[(ref, axis)])
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
        "shard_table": _plan_shard_table(build_shard_table(g, ratios, result.assignment),
                                         result.program),
        "program": result.program.to_json(),
        "estimate": {"total_s": _canon(breakdown.total_s)},
        "loop": {"optimal": result.optimal},
    }


def cmd_plan(args) -> int:
    started = time.monotonic()
    g, spec = _graph_and_cluster(args)
    _check_option("max-rounds", args.max_rounds, 1)
    _check_option("budget", args.budget, 0)
    cfg = LoopConfig(max_rounds=args.max_rounds, max_expansions=args.budget)
    result = alternate(g, spec, cfg=cfg)
    doc = plan_document(g, spec, result)
    text = json.dumps(doc, indent=2) + "\n"
    wall = time.monotonic() - started

    info = sys.stderr if args.output is None else sys.stdout
    print(f"cost: {doc['estimate']['total_s']:.6g} s", file=info)
    print(f"rounds: {len(result.rounds)} ({result.reason}), {result.expansions} expansions"
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


class Plan(NamedTuple):
    assignment: SegmentAssignment
    ratios: ShardingRatios
    program: DistributedProgram
    shard_table: dict
    estimate_s: float


def _need(ok: bool, where: str, what: str) -> None:
    if not ok:
        raise PlanFormatError(f"plan field {where}: {what}")


def _fields(obj, where: str, keys: tuple[str, ...]) -> None:
    """The plan field `where` ("" for the document) must be an object with
    exactly the fields `keys`."""
    _need(isinstance(obj, dict), where or "(document)", "expected a JSON object")
    prefix = f"{where}." if where else ""
    for key in keys:
        _need(key in obj, f"{prefix}{key}", "missing")
    for key in obj:
        _need(key in keys, f"{prefix}{key}", "unknown field")


def _plan_doc(path: str):
    try:
        return json.loads(_read(path))
    except (json.JSONDecodeError, RecursionError) as e:
        raise PlanFormatError(invalid_json(e, path)) from None


def load_plan(doc, g: Graph, m: int) -> Plan:
    """Check a plan document against the graph it claims and a cluster of m
    devices, field by field, and load it.  Raises PlanFormatError naming the
    first bad field.  The schema is closed: every object holds exactly its
    fields.  An instruction is valid only if it is, field for field and type
    for type, an instruction of the graph's derived theory."""
    _need(isinstance(doc, dict), "(document)", "expected a JSON object")
    _need(doc.get("schema_version") == SCHEMA_VERSION, "schema_version",
          f"unsupported version {doc.get('schema_version')!r}")
    _fields(doc, "", PLAN_FIELDS)
    _need(doc["graph_sha256"] == _graph_digest(g), "graph_sha256",
          "plan was produced for a different graph")
    _need(doc["devices"] == m and _is_int(doc["devices"]), "devices",
          f"plan is for {doc['devices']!r} devices, cluster has {m}")
    count = doc["segments"]
    _need(_is_int(count) and count >= 1, "segments",
          f"expected a positive integer, got {count!r}")
    segment_of = doc["segment_of"]
    _need(isinstance(segment_of, dict), "segment_of", "expected an object")
    for t in g.tensor_ids:
        _need(t in segment_of, "segment_of", f"no segment for tensor {t!r}")
        _need(_is_int(segment_of[t]) and 1 <= segment_of[t] <= count, f"segment_of.{t}",
              f"expected a segment in 1..{count}, got {segment_of[t]!r}")
    for t in segment_of:
        _need(t in g.tensors, "segment_of", f"unknown tensor {t!r}")

    rows = doc["ratios"]
    _need(isinstance(rows, list) and len(rows) == count, "ratios",
          f"expected {count} rows, one per segment")
    for k, row in enumerate(rows):
        _need(isinstance(row, list) and len(row) == m
              and all(_is_finite_number(v) for v in row),
              f"ratios[{k}]", f"expected {m} finite numbers")
    try:
        ratios = ShardingRatios(rows=tuple(tuple(float(v) for v in row) for row in rows))
    except ValueError as e:
        raise PlanFormatError(f"plan field ratios: {e}") from None

    program = doc["program"]
    _fields(program, "program", ("loss", "instrs"))
    _need(program["loss"] == g.loss, "program.loss",
          f"expected the graph's loss {g.loss!r}, got {program['loss']!r}")
    instrs = program["instrs"]
    _need(isinstance(instrs, list), "program.instrs", "expected a list")
    derived = {json.dumps(instr.to_json(), sort_keys=True): instr
               for tr in derive_theory(g, m).triples for instr in tr.instrs}
    loaded = []
    for i, d in enumerate(instrs):
        instr = derived.get(json.dumps(d, sort_keys=True))
        _need(instr is not None, f"program.instrs[{i}]",
              "not an instruction this graph's rules derive")
        loaded.append(instr)

    _need(isinstance(doc["shard_table"], dict), "shard_table", "expected an object")
    estimate = doc["estimate"]
    _fields(estimate, "estimate", ("total_s",))
    _need(_is_finite_number(estimate["total_s"]), "estimate.total_s",
          "expected a finite number")
    loop = doc["loop"]
    _fields(loop, "loop", ("optimal",))
    _need(isinstance(loop["optimal"], bool), "loop.optimal", "expected true or false")
    return Plan(assignment=SegmentAssignment(segment_of=dict(segment_of), count=count),
                ratios=ratios, program=DistributedProgram(instrs=tuple(loaded), loss=g.loss),
                shard_table=doc["shard_table"], estimate_s=estimate["total_s"])


def cmd_verify(args) -> int:
    # The equivalence check is the only user of numpy; `plan` and
    # `enumerate` never import it.
    from .interpreter import ExecutionError, check_equivalence

    _check_option("trials", args.trials, 1)
    _check_option("seed", args.seed, 0)
    doc = _plan_doc(args.plan)
    g, spec = _graph_and_cluster(args)
    plan = load_plan(doc, g, spec.m)

    breakdown = iteration_time(plan.program.instrs, plan.ratios, spec, plan.assignment)
    if _canon(breakdown.total_s) != plan.estimate_s:
        print(f"estimate: MISMATCH (recomputed {_canon(breakdown.total_s)!r}, "
              f"plan says {plan.estimate_s!r})", file=sys.stderr)
        return 1
    print("estimate: ok")

    table = build_shard_table(g, plan.ratios, plan.assignment)
    if plan.shard_table != _plan_shard_table(table, plan.program):
        print("shard_table: MISMATCH (does not match ratios)", file=sys.stderr)
        return 1
    print("shard_table: ok")

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
    g, spec = _graph_and_cluster(args)
    _check_option("max-len", args.max_len, 0)
    if len(g.nodes) > 6 and not args.force:
        print(f"error: {len(g.nodes)} nodes is large for exhaustive enumeration; "
              "pass --force to proceed", file=sys.stderr)
        return 2
    if args.ratios not in ("uniform", "flops"):
        # Anything else names a plan file whose ratios and segmentation we
        # reuse, so enumeration prices candidates under the plan's own B.
        plan = load_plan(_plan_doc(args.ratios), g, spec.m)
        assignment, B = plan.assignment, plan.ratios
    else:
        assignment = single_segment(g)
        B = (ShardingRatios.proportional_to_flops(spec) if args.ratios == "flops"
             else ShardingRatios.uniform(spec.m))
    theory = build_theory(g, spec.m, guards=False, fuse=False)
    res = enumerate_programs(g, theory, spec, B, assignment=assignment,
                             max_len=args.max_len)
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
    p.add_argument("--max-rounds", type=int, default=8)
    p.add_argument("--budget", type=int, default=200_000,
                   help="search expansion budget per synthesis call")
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
    p.add_argument("--max-len", type=int, default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, ClusterFormatError, PlanFormatError, OptionError,
            GraphTooLargeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NoCompleteProgramError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BudgetExhaustedError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
