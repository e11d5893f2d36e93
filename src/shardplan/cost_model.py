"""Iteration-time estimation for distributed programs on heterogeneous clusters.

A program is a flat instruction list split into *stages*: every communication
instruction opens a new stage (the first stage may lack one).  Devices
synchronize at stage boundaries, so one iteration costs

    t(Q, B) = sum_i ( comm_i(B) + max_j comp_{i,j}(B_j) )

with per-device computation affine in the device's sharding ratio and
communication priced by a fitted latency/bandwidth model per collective kind.
Every collective costs a constant plus a slope times the largest shard,
max_j B[j]: sharded collectives (AllGather, ReduceScatter, AllToAll) are
padded to it; GroupedBroadcast is m back-to-back broadcasts of the actual
shards, the whole tensor at any ratios, so it pays m latencies and no
padding; AllReduce always moves the full tensor.

Every program is priced at one ratio row B, the same for every tensor.
`StagePricer.advance` is the one implementation of this model: it walks a
program instruction by instruction, closing a stage at each collective.
The search's incremental bookkeeping, the exhaustive enumeration and
`iteration_time` all price through it, and every one of them totals a
program the same way (closed stages + (comm_s + max(comp_s)), one stage at
a time), so their prices agree bit for bit.  The ratio LP, which chooses B, walks a program
with `advance` too, through a subclass in `load_balancer` that sums each
stage's coefficients in place of its price, and takes each collective's
slope from `comm_terms`, the constant and slope that `comm_time` evaluates.

A program runs on integer shards, not on fractional ratios: `round_shards`
splits one axis's extent by the ratio row, and `build_shard_table` does so
for every tensor axis.  Plan files and the interpreter both take their
shard sizes from it.
"""
from __future__ import annotations

import json
import math
from typing import NamedTuple

from .graph_ir import Graph, SegmentAssignment, _is_finite_number, invalid_json
from .theory import COLLECTIVE_KINDS, Instruction


class ClusterFormatError(ValueError):
    pass


class DeviceSpec(NamedTuple):
    flops_per_second: float


class CollectiveModel(NamedTuple):
    latency_s: float
    bytes_per_second: float


class ClusterSpec(NamedTuple):
    devices: tuple[DeviceSpec, ...]
    collectives: dict[str, CollectiveModel]
    bytes_per_element: int

    @property
    def m(self) -> int:
        return len(self.devices)

    @property
    def total_rate(self) -> float:
        return sum(d.flops_per_second for d in self.devices)

    @classmethod
    def from_dict(cls, doc: dict) -> "ClusterSpec":
        if not isinstance(doc, dict):
            raise ClusterFormatError("cluster spec must be an object")
        unknown = set(doc) - {"devices", "collectives", "bytes_per_element"}
        if unknown:
            raise ClusterFormatError(f"unknown fields {sorted(unknown)}")
        raw_devices = doc.get("devices")
        if not isinstance(raw_devices, list) or not raw_devices:
            raise ClusterFormatError("'devices' must be a non-empty list")
        devices = []
        for i, d in enumerate(raw_devices):
            if not isinstance(d, dict) or set(d) != {"flops"} \
                    or not _is_finite_number(d["flops"]) or d["flops"] <= 0:
                raise ClusterFormatError(
                    f"devices[{i}] must be {{\"flops\": positive finite number}}")
            devices.append(DeviceSpec(flops_per_second=float(d["flops"])))
        raw_coll = doc.get("collectives")
        if not isinstance(raw_coll, dict):
            raise ClusterFormatError("'collectives' must be an object")
        missing = set(COLLECTIVE_KINDS) - set(raw_coll)
        if missing:
            raise ClusterFormatError(f"missing collective models for {sorted(missing)}")
        unknown = set(raw_coll) - set(COLLECTIVE_KINDS)
        if unknown:
            raise ClusterFormatError(f"unknown collective kinds {sorted(unknown)}")
        collectives = {}
        for kind, entry in raw_coll.items():
            if not isinstance(entry, dict) or set(entry) != {"latency_s", "bw_Bps"}:
                raise ClusterFormatError(f"collectives[{kind!r}] must be {{latency_s, bw_Bps}}")
            lat, bw = entry["latency_s"], entry["bw_Bps"]
            if not _is_finite_number(lat) or lat < 0:
                raise ClusterFormatError(f"collectives[{kind!r}].latency_s must be finite and >= 0")
            if not _is_finite_number(bw) or bw <= 0:
                raise ClusterFormatError(f"collectives[{kind!r}].bw_Bps must be finite and > 0")
            collectives[kind] = CollectiveModel(latency_s=float(lat), bytes_per_second=float(bw))
        bpe = doc.get("bytes_per_element")
        if not isinstance(bpe, int) or not _is_finite_number(bpe) or bpe <= 0:
            raise ClusterFormatError(
                "'bytes_per_element' must be a positive integer within float range")
        return cls(devices=tuple(devices), collectives=collectives, bytes_per_element=bpe)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ClusterFormatError(invalid_json(e)) from e
        return cls.from_dict(doc)


class ShardingRatios:
    """One stochastic row of m ratios, held as a 1 x m matrix `rows`:
    device j holds a B[j] share of every sharded axis.

    A class with one slot, not a named tuple: a named tuple's `_make` and
    `_replace` skip `__new__`, and with it the row checks.  It equals only
    another `ShardingRatios` with equal rows, hashes as the tuple of its one
    field, and its field cannot be assigned."""
    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[float, ...], ...]):
        if len(rows) != 1:
            raise ValueError(f"ratios need exactly one row, got {len(rows)}")
        (row,) = rows
        if not all(math.isfinite(x) for x in row):
            raise ValueError(f"ratio in row 0 is not finite: {row}")
        if any(x < 0.0 for x in row):
            raise ValueError(f"negative ratio in row 0: {row}")
        if abs(sum(row) - 1.0) > 1e-9:
            raise ValueError(f"row 0 sums to {sum(row)!r}, not 1")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"ShardingRatios(rows={self.rows!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which checks the rows
        return ShardingRatios, (self.rows,)

    @property
    def row(self) -> tuple[float, ...]:
        return self.rows[0]

    @property
    def m(self) -> int:
        return len(self.rows[0])

    @classmethod
    def uniform(cls, m: int, g: int = 1  # unread; kept while perfbench/ops.py passes it
                ) -> "ShardingRatios":
        return cls((tuple(1.0 / m for _ in range(m)),))

    @classmethod
    def proportional_to_flops(cls, spec: ClusterSpec) -> "ShardingRatios":
        total = spec.total_rate
        return cls((tuple(d.flops_per_second / total for d in spec.devices),))


def check_byte_counts(g: Graph, spec: ClusterSpec) -> None:
    """A collective's price divides its tensor's bytes, elements times
    `bytes_per_element`, as a float: reject a graph and cluster for which
    some tensor's bytes exceed float range."""
    for t in g.nodes:
        if not _is_finite_number(math.prod(t.shape) * spec.bytes_per_element):
            raise ClusterFormatError(f"tensor {t.id!r}: its element count times "
                                     "'bytes_per_element' exceeds float range")


# unread; kept while perfbench/ops.py passes it
def single_segment(g: Graph) -> SegmentAssignment:
    return SegmentAssignment(segment_of={t: 1 for t in g.tensor_ids}, count=1)


def comm_terms(instr: Instruction, spec: ClusterSpec) -> tuple[float, float]:
    """Affine coefficients of one collective: it takes
    const_s + per_max_s * max_j B_j seconds."""
    if not instr.is_comm:
        raise ValueError(f"{instr.kind} is not a communication instruction")
    model = spec.collectives[instr.kind]
    transfer_s = instr.elements * spec.bytes_per_element / model.bytes_per_second
    if instr.kind == "all_reduce":
        return model.latency_s + transfer_s, 0.0
    if instr.kind == "grouped_broadcast":
        # m broadcasts of the actual shards: the whole tensor at any ratios.
        return spec.m * model.latency_s + transfer_s, 0.0
    return model.latency_s, transfer_s


def replicated_seconds(instr: Instruction, rates) -> tuple[float, ...]:
    """Per-device seconds of a computation that every device runs in full;
    sharded work takes as long at a ratio of 1."""
    return tuple(instr.flops / rate for rate in rates)


def comm_time(instr: Instruction, row: tuple[float, ...], spec: ClusterSpec) -> float:
    """Seconds for one collective on a tensor sharded by `row`."""
    const_s, per_max_s = comm_terms(instr, spec)
    return const_s + per_max_s * max(row)


class StageCost(NamedTuple):
    """One stage of a program at fixed ratios: its collective's price,
    per-device compute seconds and the collective that opened it (None for
    a first stage without one).  A stage holds something once it has a
    collective or any nonzero seconds: one of zero-flop work alone is empty."""
    comm_s: float
    comp_s: tuple[float, ...]
    comm: Instruction | None

    @property
    def time_s(self) -> float:
        """Seconds the stage takes: its collective, then its slowest device."""
        return self.comm_s + max(self.comp_s)


# Builds a StageCost from a 3-tuple.  NamedTuple's own __new__ is a Python
# function and costs about twice as much; every search step builds one.
_stage_cost = tuple.__new__


class StagePricer:
    """The stage model at fixed ratios B: what each instruction costs, and
    `advance`, the walk that splits a program into priced stages."""

    def __init__(self, spec: ClusterSpec, B: ShardingRatios):
        self.spec = spec
        self.B = B
        self.rates = [d.flops_per_second for d in spec.devices]
        self.empty = StageCost(0.0, (0.0,) * spec.m, None)
        # Price caches keyed by instruction identity: the search asks about
        # the same theory instructions over and over, and hashing an
        # Instruction field by field would dominate each lookup.  `_held`
        # keeps every cached instruction alive, so no id is reused.
        self._comp: dict = {}
        self._comm: dict = {}
        self._held: list[Instruction] = []

    def comp(self, instr: Instruction) -> tuple[float, ...]:
        """Per-device seconds of a computation.  Sharded work scales with
        each device's ratio; replicated work runs in full on every device."""
        cached = self._comp.get(id(instr))
        if cached is None:
            flops = instr.flops
            if instr.sharded:
                cached = tuple(flops * b / rate for b, rate in zip(self.B.row, self.rates))
            else:
                cached = replicated_seconds(instr, self.rates)
            self._comp[id(instr)] = cached
            self._held.append(instr)
        return cached

    def comm(self, instr: Instruction) -> float:
        """Seconds of the collective opening a stage."""
        cached = self._comm.get(id(instr))
        if cached is None:
            cached = self._comm[id(instr)] = comm_time(instr, self.B.row, self.spec)
            self._held.append(instr)
        return cached

    def advance(self, stage: StageCost, instrs
                ) -> tuple[tuple[StageCost, ...], StageCost]:
        """The stage model, one instruction at a time.

        From an open stage, returns the stages the instructions close, in
        order, and the open stage after them.  A collective closes the open
        stage unless that stage holds nothing."""
        comm_s, comp, comm = stage
        closed: tuple[StageCost, ...] = ()
        comp = list(comp)
        for instr in instrs:
            if instr.is_comm:
                if comm is not None or any(comp):
                    closed += (_stage_cost(StageCost, (comm_s, tuple(comp), comm)),)
                comp = [0.0] * len(comp)
                comm = instr
                comm_s = self.comm(instr)
                continue
            for j, sec in enumerate(self.comp(instr)):
                comp[j] += sec
        return closed, _stage_cost(StageCost, (comm_s, tuple(comp), comm))


class CostBreakdown(NamedTuple):
    stages: tuple[StageCost, ...]
    total_s: float


def iteration_time(instrs: tuple[Instruction, ...], B: ShardingRatios, spec: ClusterSpec,
                   assignment=None  # unread; kept while perfbench/ops.py passes it
                   ) -> CostBreakdown:
    """Exact model time for one iteration of the program."""
    pricer = StagePricer(spec, B)
    closed, last = pricer.advance(pricer.empty, instrs)
    if last.comm is not None or any(last.comp_s):
        closed += (last,)
    total = 0.0
    for stage in closed:
        total += stage.time_s
    return CostBreakdown(stages=closed, total_s=total)


def round_shards(extent: int, ratios) -> list[int]:
    """Integer shard sizes for one axis: start from nearest integers, then
    repair the sum one unit at a time wherever the move costs least accuracy
    (ties go to the higher device index); sizes never drop below zero.

    Each float target is off by up to extent * 2**-53, and a row sums to 1
    only within 1e-9, so the nearest integers can miss the extent by far more
    than one unit per device.  Past the first unit per device every move
    costs one unit of accuracy wherever it goes, so all but the last
    len(sizes) units move in bulk, largest shards first, and the repair
    takes at most len(sizes) steps."""
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    targets = [extent * r for r in ratios]
    sizes = [math.floor(t + 0.5) for t in targets]
    diff = extent - sum(sizes)
    m = len(sizes)
    if abs(diff) > m:
        for j in sorted(range(m), key=sizes.__getitem__, reverse=True):
            move = max(diff - m if diff > 0 else diff + m, -sizes[j])
            sizes[j] += move
            diff -= move
    while diff != 0:
        step = 1 if diff > 0 else -1
        best_j = -1
        best_pen = math.inf
        for j, (s, t) in enumerate(zip(sizes, targets)):
            if step < 0 and s == 0:
                continue
            pen = abs(s + step - t) - abs(s - t)
            if pen < best_pen - 1e-12 or (pen <= best_pen + 1e-12 and j > best_j):
                best_pen = min(best_pen, pen)
                best_j = j
        sizes[best_j] += step
        diff -= step
    return sizes


def build_shard_table(g: Graph, B: ShardingRatios,
                      assignment=None  # unread; kept while perfbench/ops.py passes it
                      ) -> dict[tuple[str, int], list[int]]:
    """Integer shard sizes for every (tensor, axis) pair, rounded from the
    ratio row; each distinct extent is rounded once, and every axis gets its
    own copy."""
    table: dict[tuple[str, int], list[int]] = {}
    rounded: dict[int, list[int]] = {}
    for t in g.tensors.values():
        for axis, extent in enumerate(t.shape):
            if (sizes := rounded.get(extent)) is None:
                sizes = rounded[extent] = round_shards(extent, B.row)
            table[(t.id, axis)] = sizes.copy()
    return table
