"""Alternating optimization of program and sharding ratios.

Neither half-problem is convex jointly: the best program depends on the
ratios (which collectives pay off) and the best ratios depend on the program
(which stages exist).  The loop therefore alternates exact half-steps —
synthesize the optimal program for fixed ratios, then optimize ratios for
the fixed program — starting from ratios proportional to device speed.
Each accepted half-step is verified against the exact cost model and never
increases it; the loop stops on a fixed point, on revisiting an earlier
(program, ratios) pair, or after a round limit.

Because the final accepted pair may come from a ratio step, a last synthesis
pass under the final ratios ("polish") restores the property that the
returned program is optimal for the returned ratios.
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


# Ratio rows that agree to this quantum count as the same rows when the loop
# looks for a fixed point or a revisited (program, ratios) pair.
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
    index: int
    synth_cost_s: float
    balance_cost_s: float | None = None
    balance_accepted: bool = False
    exhausted: bool = False


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
    synth_fn = synth_fn or _default_synth
    balance_fn = balance_fn or optimize_ratios
    assignment = assign_segments(g, segments)
    if theory is None:
        theory = build_theory(g, spec.m)
    B = ShardingRatios.proportional_to_flops(spec, g=assignment.count)

    seen: dict[tuple, int] = {}
    best: tuple[float, DistributedProgram, ShardingRatios, bool] | None = None
    prev_cost = float("inf")
    rounds: list[RoundTrace] = []
    reason = "max_rounds"
    any_exhausted = False
    expansions = 0

    for r in range(cfg.max_rounds):
        res = synth_fn(g, theory, spec, B, assignment, cfg)
        expansions += res.expansions
        if res.exhausted:
            any_exhausted = True
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
        trace = RoundTrace(index=r, synth_cost_s=cost_q, exhausted=res.exhausted)
        rounds.append(trace)
        if best is None or cost_q < best[0] - 1e-12:
            best = (cost_q, res.program, B, not res.exhausted)
        elif (abs(cost_q - best[0]) <= 1e-12 and not best[3] and not res.exhausted):
            best = (cost_q, res.program, B, True)

        fp = (res.program.instrs, _quantize(B))
        if fp in seen:
            reason = "fixed_point" if seen[fp] == r - 1 else "oscillation"
            break
        seen[fp] = r

        B_new = balance_fn(res.program, g, spec, assignment)
        cost_b = iteration_time(res.program.instrs, B_new, spec, assignment).total_s
        trace.balance_cost_s = cost_b
        if cost_b <= cost_q + 1e-9 * max(1.0, cost_q):
            trace.balance_accepted = True
            if cost_b < best[0] - 1e-12:
                best = (cost_b, res.program, B_new, False)
            if _quantize(B_new) == _quantize(B):
                prev_cost = min(cost_q, cost_b)
                reason = "fixed_point"
                break
            B = B_new
            prev_cost = cost_b
        else:
            # The per-segment LPs approximate boundary reshards; fall back.
            _logger.debug("round %d: rejected ratio step (%.6g > %.6g)",
                          r, cost_b, cost_q)
            prev_cost = cost_q
            reason = "fixed_point"
            break

    assert best is not None
    cost, program, ratios, q_optimal = best

    if not q_optimal and not any_exhausted:
        res = synth_fn(g, theory, spec, ratios, assignment, cfg)
        expansions += res.expansions
        if res.exhausted:
            any_exhausted = True
        elif res.program is not None:
            cost_p = iteration_time(res.program.instrs, ratios, spec, assignment).total_s
            if cost_p <= cost + 1e-9 * max(1.0, cost):
                program, cost, q_optimal = res.program, min(cost, cost_p), True

    return LoopResult(program=program, ratios=ratios, assignment=assignment,
                      cost_s=cost, rounds=rounds, reason=reason,
                      optimal=q_optimal and not any_exhausted, expansions=expansions)
