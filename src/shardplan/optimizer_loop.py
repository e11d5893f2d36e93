"""Alternating optimization of program and sharding ratios.

Neither half-problem is convex jointly: the best program depends on the
ratios (which collectives pay off) and the best ratios depend on the program
(which stages exist).  The loop therefore alternates exact half-steps —
synthesize the optimal program for a fixed ratio row, then optimize the row
for the fixed program — starting from the row proportional to device speed.
Each half-step is priced with the exact cost model, and the loop keeps the
cheapest (program, ratios) pair.  A half-step counts only when it beats that
pair by more than `OPTIMALITY_MARGIN` times the pair's cost; the first one
that does not ends the loop, as does the round limit.  Every comparison is
relative, so scaling every rate and bandwidth by 2^k and every latency by
2^-k scales the returned cost by 2^-k and keeps the program and ratios.

After the first round the best pair holds the ratios that the last ratio step
found, so a synthesis under them replaces the pair on a relative tie and the
returned program is optimal for the returned ratios.  At the round limit one
more synthesis runs for the same reason.
"""
from __future__ import annotations

from typing import NamedTuple

from .cost_model import ClusterSpec, ShardingRatios, iteration_time
from .graph_ir import Graph
from .load_balancer import optimize_ratios
from .synthesizer import (OPTIMALITY_MARGIN, DistributedProgram, SearchConfig,
                          SearchInvariantError, SynthesisResult, synthesize)
from .theory import Theory, build_theory


class BudgetExhaustedError(RuntimeError):
    pass


class LoopConfig(NamedTuple):
    max_rounds: int = 8
    max_expansions: int = 200_000
    prune_properties: bool = True     # unread; kept while perfbench/ops.py passes it


class RoundTrace(NamedTuple):
    synth_cost_s: float
    balance_cost_s: float | None = None
    balance_accepted: bool = False


class LoopResult(NamedTuple):
    program: DistributedProgram
    ratios: ShardingRatios
    cost_s: float
    rounds: tuple[RoundTrace, ...] = ()
    reason: str = "max_rounds"
    optimal: bool = True
    expansions: int = 0


def _beats(cost: float, best: float) -> bool:
    return best - cost > OPTIMALITY_MARGIN * best


def _default_synth(g, theory, spec, B,
                   assignment,  # unread; kept while perfbench/ops.py passes it
                   cfg: LoopConfig) -> SynthesisResult:
    return synthesize(g, theory, spec, B, cfg=SearchConfig(max_expansions=cfg.max_expansions))


def alternate(g: Graph, spec: ClusterSpec,
              segments: int = 1,  # unread; kept while perfbench/ops.py passes it
              cfg: LoopConfig | None = None, theory: Theory | None = None,
              synth_fn=None, balance_fn=None) -> LoopResult:
    """Run the alternating loop and return the best verified pair.  The
    hooks take `_default_synth`'s and `optimize_ratios`' arguments, with
    None for the unread assignment."""
    cfg = cfg or LoopConfig()
    if cfg.max_rounds < 1:
        raise ValueError(f"max_rounds must be at least 1, got {cfg.max_rounds}")
    synth_fn = synth_fn or _default_synth
    balance_fn = balance_fn or optimize_ratios
    if theory is None:
        theory = build_theory(g, spec.m)
    B = ShardingRatios.proportional_to_flops(spec)

    best: tuple[float, DistributedProgram, ShardingRatios] | None = None
    rounds: list[RoundTrace] = []
    reason = "max_rounds"
    any_exhausted = False
    expansions = 0

    for r in range(cfg.max_rounds + 1):
        if r == cfg.max_rounds and any_exhausted:
            break
        res = synth_fn(g, theory, spec, B, None, cfg)
        expansions += res.expansions
        any_exhausted = any_exhausted or res.exhausted
        if res.program is None:
            if best is None:
                raise BudgetExhaustedError(
                    f"synthesis budget exhausted after {expansions} expansions "
                    "with no complete program")
            reason = "budget"
            break
        cost_q = iteration_time(res.program.instrs, B, spec).total_s
        if best is not None and not res.exhausted and cost_q > best[0] * (1 + 1e-9):
            raise SearchInvariantError(
                f"synthesis step increased cost: {best[0]} -> {cost_q}")
        improved = best is None or _beats(cost_q, best[0])
        if best is None or not _beats(best[0], cost_q):
            best = (cost_q, res.program, B)
        if r == cfg.max_rounds:
            break
        if not improved:
            rounds.append(RoundTrace(synth_cost_s=cost_q))
            reason = "fixed_point"
            break

        B_new = balance_fn(res.program, g, spec, None)
        cost_b = (cost_q if B_new.rows == B.rows else
                  iteration_time(res.program.instrs, B_new, spec).total_s)
        accepted = _beats(cost_b, best[0])
        rounds.append(RoundTrace(cost_q, cost_b, accepted))
        if not accepted:
            reason = "fixed_point"
            break
        best = (cost_b, res.program, B_new)
        B = B_new

    cost, program, ratios = best
    return LoopResult(program=program, ratios=ratios, cost_s=cost, rounds=tuple(rounds),
                      reason=reason, optimal=not any_exhausted, expansions=expansions)
