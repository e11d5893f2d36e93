"""Alternating optimization of program and sharding ratios.

Neither half-problem is convex jointly: the best program depends on the
ratios (which collectives pay off) and the best ratios depend on the program
(which stages exist).  The loop therefore alternates exact half-steps —
synthesize the optimal program for fixed ratios, then optimize ratios for
the fixed program — starting from ratios proportional to device speed.
Each half-step is priced with the exact cost model, and the loop keeps the
cheapest verified (program, ratios) pair.  It stops when a synthesis fails
to beat that pair, when a ratio step is rejected or neither lowers the cost
nor moves a ratio, or at the round limit.

A synthesis under the ratios of a pair that a ratio step found replaces the
pair on a tie, so the returned program is optimal for the returned ratios.
At the round limit, one more synthesis runs when the last ratio step found
the best pair.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .cost_model import ClusterSpec, ShardingRatios, iteration_time
from .graph_ir import Graph, SegmentAssignment, assign_segments
from .load_balancer import optimize_ratios
from .synthesizer import (DistributedProgram, SearchConfig, SearchInvariantError,
                          SynthesisResult, synthesize)
from .theory import Theory, build_theory

_logger = logging.getLogger("shardplan.optimizer_loop")


# Ratio rows that agree to this quantum count as the same rows: a ratio step
# that moves no row further than this is a fixed point.
RATIO_QUANTUM = 1e-6


class BudgetExhaustedError(RuntimeError):
    pass


@dataclass
class LoopConfig:
    max_rounds: int = 8
    max_expansions: int = 200_000
    prune_properties: bool = True     # unread; kept while perfbench/ops.py passes it


@dataclass
class RoundTrace:
    synth_cost_s: float
    balance_cost_s: float | None = None
    balance_accepted: bool = False


@dataclass
class LoopResult:
    program: DistributedProgram
    ratios: ShardingRatios
    assignment: SegmentAssignment
    cost_s: float
    rounds: list[RoundTrace] = field(default_factory=list)
    reason: str = "max_rounds"
    optimal: bool = True
    expansions: int = 0


def _quantize(B: ShardingRatios) -> tuple:
    return tuple(tuple(int(round(v / RATIO_QUANTUM)) for v in row) for row in B.rows)


def _default_synth(g, theory, spec, B, assignment, cfg: LoopConfig) -> SynthesisResult:
    return synthesize(g, theory, spec, B,
                      cfg=SearchConfig(max_expansions=cfg.max_expansions),
                      assignment=assignment)


def alternate(g: Graph, spec: ClusterSpec, segments: int = 1,
              cfg: LoopConfig | None = None, theory: Theory | None = None,
              synth_fn=None, balance_fn=None) -> LoopResult:
    """Run the alternating loop and return the best verified pair."""
    cfg = cfg or LoopConfig()
    if cfg.max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {cfg.max_rounds}")
    synth_fn = synth_fn or _default_synth
    balance_fn = balance_fn or optimize_ratios
    assignment = assign_segments(g, segments)
    if theory is None:
        theory = build_theory(g, spec.m)
    B = ShardingRatios.proportional_to_flops(spec, g=assignment.count)

    best: tuple[float, DistributedProgram, ShardingRatios] | None = None
    prev_cost = float("inf")
    rounds: list[RoundTrace] = []
    reason = "max_rounds"
    any_exhausted = False
    expansions = 0

    for r in range(cfg.max_rounds + 1):
        # The best pair holds the current ratios only when the last ratio
        # step found it; its program need not be optimal for them yet.
        stepped = best is not None and best[2] is B
        if r == cfg.max_rounds and (any_exhausted or not stepped):
            break
        res = synth_fn(g, theory, spec, B, assignment, cfg)
        expansions += res.expansions
        any_exhausted = any_exhausted or res.exhausted
        if res.program is None:
            if best is None:
                raise BudgetExhaustedError(
                    f"synthesis budget exhausted after {expansions} expansions "
                    "with no complete program")
            reason = "budget"
            break
        cost_q = iteration_time(res.program.instrs, B, spec, assignment).total_s
        if not res.exhausted and cost_q > prev_cost * (1 + 1e-9):
            raise SearchInvariantError(
                f"synthesis step increased cost: {prev_cost} -> {cost_q}")
        improved = best is None or cost_q < best[0] - 1e-12
        if improved or (stepped and not res.exhausted and abs(cost_q - best[0]) <= 1e-12):
            best = (cost_q, res.program, B)
        if r == cfg.max_rounds:
            break
        trace = RoundTrace(synth_cost_s=cost_q)
        rounds.append(trace)
        if not improved and not res.exhausted:
            reason = "fixed_point"
            break

        B_new = balance_fn(res.program, g, spec, assignment)
        cost_b = iteration_time(res.program.instrs, B_new, spec, assignment).total_s
        trace.balance_cost_s = cost_b
        if cost_b > cost_q + 1e-9 * max(1.0, cost_q):
            # The per-segment LPs approximate boundary reshards; fall back.
            _logger.debug("round %d: rejected ratio step (%.6g > %.6g)",
                          r, cost_b, cost_q)
            reason = "fixed_point"
            break
        trace.balance_accepted = True
        # A pair found by a ratio step is always followed by a synthesis
        # under its ratios.
        if cost_b < best[0] - 1e-12:
            best = (cost_b, res.program, B_new)
        elif _quantize(B_new) == _quantize(B):
            reason = "fixed_point"
            break
        B = B_new
        prev_cost = cost_b

    assert best is not None
    cost, program, ratios = best
    return LoopResult(program=program, ratios=ratios, assignment=assignment,
                      cost_s=cost, rounds=rounds, reason=reason,
                      optimal=not any_exhausted, expansions=expansions)
