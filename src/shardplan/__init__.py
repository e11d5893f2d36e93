"""Automatic SPMD parallelization planning for tensor computation graphs.

Derives a per-graph rewrite theory whose triples describe how distributed
tensor forms (replicated, sharded, partial-sum) flow through each operation,
searches it for the cheapest complete distributed program under a cluster
cost model, and alternates that search with a linear program that rebalances
the one row of shard ratios across heterogeneous devices.

The package namespace holds the entry points the README documents, the
types they take or return, and the errors the command line maps to exit
codes; everything else is imported from its submodule.  The equivalence
check's names load `interpreter`, and with it numpy, on first access, so
importing the package for planning needs only the standard library.

Every record type is a `typing.NamedTuple`, or a small class with
`__slots__` where it checks its fields on every construction
(`ShardingRatios`).
Defining a named tuple at import costs a fraction of what a dataclass
costs, and every plan builds, hashes and compares thousands of `theory`'s
rule types, which a tuple does in C.  A named tuple hashes as the tuple of
its fields, as a frozen dataclass does, so frozenset iteration orders,
triple lists and plan bytes do not depend on the choice.  Unlike a
dataclass it iterates, has a length, orders, compares equal to any tuple
of equal fields, and `json.dumps` writes it as an array; the package does
none of these with its record types, and never asks whether one is a
tuple.
"""
from .cost_model import (ClusterFormatError, ClusterSpec, CostBreakdown,
                         ShardingRatios, build_shard_table, iteration_time)
from .graph_ir import Graph, GraphFormatError, GraphTooLargeError, parse_graph
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
    "ShardingRatios", "SynthesisResult", "Theory",
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
