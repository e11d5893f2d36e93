"""Automatic SPMD parallelization planning for tensor computation graphs.

Derives a per-graph rewrite theory whose triples describe how distributed
tensor forms (replicated, sharded, partial-sum) flow through each operation,
searches it for the cheapest complete distributed program under a cluster
cost model, and alternates that search with per-segment linear programs that
rebalance shard ratios across heterogeneous devices.

The package namespace holds the entry points the README documents, the
types they take or return, and the errors the command line maps to exit
codes; everything else is imported from its submodule.  The equivalence
check's names load `interpreter`, and with it numpy, on first access, so
importing the package for planning needs only the standard library.
"""
from .cost_model import (ClusterFormatError, ClusterSpec, CostBreakdown,
                         ShardingRatios, build_shard_table, iteration_time)
from .graph_ir import (Graph, GraphFormatError, GraphTooLargeError,
                       SegmentAssignment, parse_graph)
from .load_balancer import optimize_ratios
from .optimizer_loop import (BudgetExhaustedError, LoopConfig, LoopResult,
                             alternate)
from .synthesizer import (DistributedProgram, NoCompleteProgramError,
                          SearchConfig, SynthesisResult, synthesize)
from .theory import Instruction, Theory, build_theory

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError", "ClusterFormatError", "ClusterSpec",
    "CostBreakdown", "DistributedProgram", "EquivalenceReport",
    "ExecutionError", "Graph", "GraphFormatError", "GraphTooLargeError", "Instruction",
    "LoopConfig", "LoopResult", "NoCompleteProgramError", "SearchConfig",
    "SegmentAssignment", "ShardingRatios", "SynthesisResult", "Theory",
    "alternate", "build_shard_table", "build_theory", "check_equivalence",
    "iteration_time", "optimize_ratios", "parse_graph", "synthesize",
]

# Names whose module imports numpy, bound on first access (PEP 562).
_INTERPRETER_NAMES = ("EquivalenceReport", "ExecutionError", "check_equivalence")


def __getattr__(name: str):
    if name in _INTERPRETER_NAMES:
        from . import interpreter
        return getattr(interpreter, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
