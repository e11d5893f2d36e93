"""Reference semantics: run graphs on one device and programs on m simulated ones.

Every array carries a leading trial axis: a tensor of shape s is held as an
array of shape (trials, *s), so one pass runs a batch of trials.  Axes
named by the graph or the plan (shard axes, Reduce dims) count tensor axes;
the interpreter shifts them past the trial axis.  The distributed runner
keeps, per distributed tensor, the list of per-device numpy arrays and
executes instructions in lock step.  Sharding always takes contiguous
slices: device j owns the slice from sum(sizes[:j]) to sum(sizes[:j+1])
along the shard axis, where the sizes come from the plan's shard table:
`cost_model.build_shard_table` (re-exported here) rounds each tensor axis
by its segment's ratio row.  Zero-size shards are legal.  All arithmetic
is float64.  The equivalence check draws its inputs uniformly from
[-1, 1), trial after trial, from one generator seeded once per check; it
runs its trials in chunks of at most `CHUNK_ELEMENTS` graph elements and
passes at 1e-9 relative error.  This is the package's only module that
imports numpy, and only `verify` loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost_model import build_shard_table  # noqa: F401  (re-exported)
from .graph_ir import SOURCE_OPS, Graph, GraphTooLargeError
from .theory import Instruction, all_reduce, dist_id, identity

UNARY_FNS = {
    "exp": np.exp,
    "neg": np.negative,
    "relu": lambda x: np.maximum(x, 0.0),
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "tanh": np.tanh,
}


class ExecutionError(RuntimeError):
    """Raised when a program is not executable (an unsound plan)."""


def _past_trials(axes: tuple[int, ...]) -> tuple[int, ...]:
    """Array axes of the given tensor axes."""
    return tuple(a + 1 for a in axes)


def eval_reference(g: Graph, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Evaluate every tensor of the graph on a single device, for every trial
    of the batch the sources hold."""
    env: dict[str, np.ndarray] = {}
    trials = None           # the first source's batch size; the others must match
    for node in g.nodes:
        if node.op in SOURCE_OPS:
            try:
                value = np.asarray(inputs[node.id], dtype=np.float64)
            except KeyError:
                raise ExecutionError(f"no binding for source tensor {node.id!r}") from None
            if trials is None and value.ndim:
                trials = value.shape[0]
            if value.shape != (trials, *node.shape):
                raise ExecutionError(f"binding for {node.id!r} has shape {value.shape}, "
                                     f"want {(trials, *node.shape)}")
            env[node.id] = value
        elif node.op == "MatMul":
            env[node.id] = env[node.inputs[0]] @ env[node.inputs[1]]
        elif node.op == "ElemwiseUnary":
            env[node.id] = UNARY_FNS[node.tag](env[node.inputs[0]])
        elif node.op == "ElemwiseBinary":
            a, b = env[node.inputs[0]], env[node.inputs[1]]
            env[node.id] = a + b if node.tag == "add" else a * b
        elif node.op == "Reduce":
            env[node.id] = env[node.inputs[0]].sum(axis=_past_trials(node.dims))
        elif node.op == "Identity":
            env[node.id] = env[node.inputs[0]]
        else:  # pragma: no cover
            raise ExecutionError(f"unsupported op {node.op}")
    return env


def run_single(g: Graph, inputs: dict[str, np.ndarray]) -> np.ndarray:
    return eval_reference(g, inputs)[g.loss]


# ---------------------------------------------------------------------------
# Collective primitives (simulated; device order is the concatenation order).
# Their axes are tensor axes.

def coll_all_gather(instances: list[np.ndarray], axis: int) -> list[np.ndarray]:
    full = np.concatenate(instances, axis=axis + 1)
    return [full for _ in instances]


def coll_all_reduce(instances: list[np.ndarray]) -> list[np.ndarray]:
    total = instances[0]
    for inst in instances[1:]:
        total = total + inst
    return [total for _ in instances]


def slice_by_sizes(value: np.ndarray, axis: int, sizes: list[int]) -> list[np.ndarray]:
    extent = value.shape[axis + 1]
    if sum(sizes) != extent:
        raise ExecutionError(f"shard sizes {sizes} do not cover extent {extent}")
    out = []
    offset = 0
    lead = (slice(None),) * (axis + 1)
    for s in sizes:
        out.append(value[lead + (slice(offset, offset + s),)])
        offset += s
    return out


def coll_reduce_scatter(instances: list[np.ndarray], axis: int, sizes: list[int]) -> list[np.ndarray]:
    total = coll_all_reduce(instances)[0]
    return slice_by_sizes(total, axis, sizes)


def coll_all_to_all(instances: list[np.ndarray], d1: int, d2: int, sizes_d2: list[int]) -> list[np.ndarray]:
    full = np.concatenate(instances, axis=d1 + 1)
    return slice_by_sizes(full, d2, sizes_d2)


# ---------------------------------------------------------------------------


def table_sizes(shard_table: dict, ref: str, axis: int, m: int) -> list[int]:
    try:
        sizes = shard_table[(ref, axis)]
    except KeyError:
        raise ExecutionError(f"shard table lacks sizes for tensor {ref!r} axis {axis}") from None
    if len(sizes) != m:
        raise ExecutionError(f"shard table entry for {ref!r} axis {axis} has {len(sizes)} "
                             f"entries for {m} devices")
    return list(sizes)


def execute_instruction(instr: Instruction, env: dict[str, list[np.ndarray]], m: int,
                        inputs: dict[str, np.ndarray], shard_table: dict) -> None:
    """Run one instruction on all devices, updating env[instr.output]."""

    def operand(i: int = 0) -> list[np.ndarray]:
        did = instr.operands[i]
        try:
            return env[did]
        except KeyError:
            raise ExecutionError(f"instruction {instr.canonical()} reads unrealized "
                                 f"tensor {did!r}") from None

    kind = instr.kind
    try:
        if kind in ("placeholder", "parameter"):
            value = np.asarray(inputs[instr.ref], dtype=np.float64)
            env[instr.output] = [value for _ in range(m)]
        elif kind in ("placeholder_shard", "parameter_shard"):
            value = np.asarray(inputs[instr.ref], dtype=np.float64)
            sizes = table_sizes(shard_table, instr.ref, instr.axis, m)
            env[instr.output] = slice_by_sizes(value, instr.axis, sizes)
        elif kind == "matmul":
            env[instr.output] = [a @ b for a, b in zip(operand(0), operand(1))]
        elif kind == "elemwise_unary":
            fn = UNARY_FNS[instr.tag]
            env[instr.output] = [fn(x) for x in operand(0)]
        elif kind == "elemwise_binary":
            if instr.tag == "add":
                env[instr.output] = [a + b for a, b in zip(operand(0), operand(1))]
            else:
                env[instr.output] = [a * b for a, b in zip(operand(0), operand(1))]
        elif kind == "reduce":
            axes = _past_trials(instr.dims)
            env[instr.output] = [x.sum(axis=axes) for x in operand(0)]
        elif kind == "identity":
            env[instr.output] = list(operand(0))
        elif kind == "all_reduce":
            env[instr.output] = coll_all_reduce(operand(0))
        elif kind in ("all_gather", "grouped_broadcast"):
            env[instr.output] = coll_all_gather(operand(0), instr.axis)
        elif kind == "reduce_scatter":
            sizes = table_sizes(shard_table, instr.ref, instr.axis, m)
            env[instr.output] = coll_reduce_scatter(operand(0), instr.axis, sizes)
        elif kind == "all_to_all":
            sizes = table_sizes(shard_table, instr.ref, instr.axis2, m)
            env[instr.output] = coll_all_to_all(operand(0), instr.axis, instr.axis2, sizes)
        else:
            raise ExecutionError(f"unsupported instruction kind {kind!r}")
    except ValueError as e:
        # numpy shape mismatches mean the plan slices tensors inconsistently
        raise ExecutionError(f"shape mismatch executing {instr.canonical()}: {e}") from e
    except KeyError as e:
        raise ExecutionError(f"missing binding executing {instr.canonical()}: {e}") from e


def materialize_loss(env: dict[str, list[np.ndarray]], loss_ref: str, m: int) -> list[np.ndarray]:
    """Per-device loss values, applying the completing collective if the final
    loss property is AllReduce-form (the no-op closure for m=1)."""
    full = dist_id(identity(loss_ref))
    if full in env:
        return env[full]
    partial = dist_id(all_reduce(loss_ref))
    if partial in env:
        return coll_all_reduce(env[partial])
    raise ExecutionError(f"program realizes no property of the loss tensor {loss_ref!r}")


def run_distributed(program, m: int, inputs: dict[str, np.ndarray], shard_table: dict
                    ) -> list[np.ndarray]:
    """Execute a distributed program; returns the per-device loss values, one
    per trial of the batch the inputs hold."""
    env: dict[str, list[np.ndarray]] = {}
    for instr in program.instrs:
        execute_instruction(instr, env, m, inputs, shard_table)
    return materialize_loss(env, program.loss, m)


@dataclass(frozen=True)
class EquivalenceReport:
    trials: int
    max_rel_err: float
    passed: bool


def random_inputs(g: Graph, rng: np.random.Generator, trials: int) -> dict[str, np.ndarray]:
    """Uniform values in [-1, 1) for every source tensor, trial axis first.
    The values are drawn trial by trial and, within a trial, source by
    source in graph order, so consecutive calls on one generator continue
    one stream: trial t of a check is block t of it, whatever the chunks."""
    sources = [node for node in g.nodes if node.op in SOURCE_OPS]
    sizes = [math.prod(node.shape) for node in sources]
    block = rng.random((trials, sum(sizes)))
    block *= 2.0
    block -= 1.0
    out, offset = {}, 0
    for node, size in zip(sources, sizes):
        out[node.id] = block[:, offset:offset + size].reshape(trials, *node.shape)
        offset += size
    return out


# One pass runs as many trials as fit in this many float64 elements of graph
# tensors (512 KiB).  Whole-check batches were slower on the larger `mix`
# graphs: their temporaries grew past glibc's 128 KiB mmap threshold, so
# each new temporary paid fresh page faults.
CHUNK_ELEMENTS = 65536


def check_equivalence(g: Graph, program, m: int, shard_table: dict, trials: int = 5,
                      seed: int = 0, rtol: float = 1e-9) -> EquivalenceReport:
    """Compare run_single against every device's loss over random inputs
    drawn from one default_rng(seed) stream.  A NaN or infinite error fails
    the check and is reported."""
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    per_trial = sum(math.prod(node.shape) for node in g.nodes)
    # numpy refuses an array past its index range (ValueError) or past the
    # address space (MemoryError) before allocating it.
    if per_trial * 8 > np.iinfo(np.intp).max:
        raise GraphTooLargeError(f"one trial of the graph's tensors is {per_trial} "
                                 "float64 elements, more than numpy can index")
    chunk = max(1, CHUNK_ELEMENTS // per_trial)
    rng = np.random.default_rng(seed)
    worst = [0.0]
    for start in range(0, trials, chunk):
        try:
            inputs = random_inputs(g, rng, min(chunk, trials - start))
            expected = run_single(g, inputs)
            losses = run_distributed(program, m, inputs, shard_table)
        except MemoryError as e:
            raise GraphTooLargeError(f"the graph's tensors do not fit in memory: {e}") from None
        scale = np.maximum(np.abs(expected), 1.0)
        worst.append(np.max(np.abs(np.stack(losses) - expected) / scale))
    max_err = float(np.max(worst))      # np.max, unlike max(), keeps a NaN
    return EquivalenceReport(trials=trials, max_rel_err=max_err, passed=max_err <= rtol)
