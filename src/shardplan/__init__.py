"""Automatic SPMD parallelization planning for tensor computation graphs.

Derives a per-graph rewrite theory whose triples describe how distributed
tensor forms (replicated, sharded, partial-sum) flow through each operation,
searches it for the cheapest complete distributed program under a cluster
cost model, and alternates that search with per-segment linear programs that
rebalance shard ratios across heterogeneous devices.
"""
from .cost_model import (ClusterFormatError, ClusterSpec, CostBreakdown,
                         ShardingRatios, iteration_time, single_segment)
from .graph_ir import (Graph, GraphFormatError, SegmentAssignment,
                       assign_segments, graph_from_dict, graph_to_dict,
                       parse_graph, serialize_graph, total_flops)
from .interpreter import (EquivalenceReport, ExecutionError, build_shard_table,
                          check_equivalence, run_distributed, run_single)
from .load_balancer import (LinearProgram, LpSolution, lp_solve,
                            optimize_ratios, round_shards, solve_lp)
from .optimizer_loop import (BudgetExhaustedError, LoopConfig, LoopResult,
                             alternate)
from .synthesizer import (DistributedProgram, NoCompleteProgramError,
                          SearchConfig, SynthesisResult, enumerate_programs,
                          synthesize)
from .theory import (HoareTriple, Instruction, Property, Theory, build_theory,
                     derive_theory)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError", "ClusterFormatError", "ClusterSpec",
    "CostBreakdown", "DistributedProgram", "EquivalenceReport",
    "ExecutionError", "Graph", "GraphFormatError", "HoareTriple",
    "Instruction", "LinearProgram", "LoopConfig", "LoopResult",
    "LpSolution", "NoCompleteProgramError", "Property", "SearchConfig",
    "SegmentAssignment", "ShardingRatios", "SynthesisResult", "Theory",
    "alternate", "assign_segments", "build_shard_table", "build_theory",
    "check_equivalence", "derive_theory", "enumerate_programs",
    "graph_from_dict", "graph_to_dict", "iteration_time",
    "lp_solve", "optimize_ratios", "parse_graph", "round_shards",
    "run_distributed", "run_single", "serialize_graph", "single_segment",
    "solve_lp", "synthesize", "total_flops",
]
