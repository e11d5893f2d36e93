"""Iteration-time estimation for distributed programs on heterogeneous clusters.

A program is a flat instruction list split into *stages*: every communication
instruction opens a new stage (the first stage may lack one).  Devices
synchronize at stage boundaries, so one iteration costs

    t(Q, B) = sum_i ( comm_i(B) + max_j comp_{i,j}(B_j) )

with per-device computation affine in the device's sharding ratio and
communication priced by a fitted latency/bandwidth model per collective kind.
Sharded collectives (AllGather, ReduceScatter, AllToAll) are padded to the
largest shard, so their cost is linear in max_j B[j]; GroupedBroadcast is m
back-to-back broadcasts of the actual shards, which beats padding under
skewed ratios and pays m latencies under even ones; AllReduce always moves
the full tensor.

`StagePricer` is the one implementation of this model: `iteration_time`
and the search's incremental cost bookkeeping price through it, and the
ratio LP takes its stage rows from it and its collective coefficients from
`comm_terms`, the affine form that `comm_time` evaluates.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .graph_ir import Graph, SegmentAssignment
from .theory import Instruction

COLLECTIVE_KINDS = ("all_reduce", "all_gather", "reduce_scatter", "all_to_all", "grouped_broadcast")


class ClusterFormatError(ValueError):
    pass


def _is_number(x) -> bool:
    """A JSON number: int or float, but not a boolean."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class DeviceSpec:
    flops_per_second: float


@dataclass(frozen=True)
class CollectiveModel:
    latency_s: float
    bytes_per_second: float


@dataclass(frozen=True)
class ClusterSpec:
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
            if not isinstance(d, dict) or set(d) != {"flops"} or not _is_number(d["flops"]) \
                    or d["flops"] <= 0:
                raise ClusterFormatError(f"devices[{i}] must be {{\"flops\": positive number}}")
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
            if not _is_number(lat) or lat < 0:
                raise ClusterFormatError(f"collectives[{kind!r}].latency_s must be >= 0")
            if not _is_number(bw) or bw <= 0:
                raise ClusterFormatError(f"collectives[{kind!r}].bw_Bps must be > 0")
            collectives[kind] = CollectiveModel(latency_s=float(lat), bytes_per_second=float(bw))
        bpe = doc.get("bytes_per_element")
        if not isinstance(bpe, int) or isinstance(bpe, bool) or bpe <= 0:
            raise ClusterFormatError("'bytes_per_element' must be a positive integer")
        return cls(devices=tuple(devices), collectives=collectives, bytes_per_element=bpe)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ClusterFormatError(f"invalid JSON at line {e.lineno} col {e.colno}: {e.msg}") from e
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            "devices": [{"flops": d.flops_per_second} for d in self.devices],
            "collectives": {k: {"latency_s": v.latency_s, "bw_Bps": v.bytes_per_second}
                            for k, v in sorted(self.collectives.items())},
            "bytes_per_element": self.bytes_per_element,
        }


@dataclass(frozen=True)
class ShardingRatios:
    """g x m row-stochastic matrix; row k shards segment k+1 across devices."""
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("ratios need at least one row")
        width = len(self.rows[0])
        for k, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError("ragged ratio matrix")
            if any(x < 0.0 for x in row):
                raise ValueError(f"negative ratio in row {k}: {row}")
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError(f"row {k} sums to {sum(row)!r}, not 1")

    @property
    def g(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def row(self, k: int) -> tuple[float, ...]:
        return self.rows[k]

    @classmethod
    def uniform(cls, m: int, g: int = 1) -> "ShardingRatios":
        return cls(tuple(tuple(1.0 / m for _ in range(m)) for _ in range(g)))

    @classmethod
    def proportional_to_flops(cls, spec: ClusterSpec, g: int = 1) -> "ShardingRatios":
        total = spec.total_rate
        row = tuple(d.flops_per_second / total for d in spec.devices)
        return cls(tuple(row for _ in range(g)))


def single_segment(g: Graph) -> SegmentAssignment:
    return SegmentAssignment(segment_of={t: 1 for t in g.tensor_ids}, count=1)


@dataclass(frozen=True)
class Stage:
    comm: Instruction | None
    comps: tuple[Instruction, ...]


def decompose_stages(instrs: tuple[Instruction, ...]) -> list[Stage]:
    """Split a program at communication instructions; each comm opens a stage."""
    stages: list[Stage] = []
    cur_comm: Instruction | None = None
    cur_comps: list[Instruction] = []
    started = False
    for instr in instrs:
        if instr.is_comm:
            if started:
                stages.append(Stage(cur_comm, tuple(cur_comps)))
            cur_comm, cur_comps, started = instr, [], True
        else:
            cur_comps.append(instr)
            started = True
    if started:
        stages.append(Stage(cur_comm, tuple(cur_comps)))
    return stages


def comm_terms(instr: Instruction, spec: ClusterSpec) -> tuple[float, float, float]:
    """Affine coefficients of one collective: it takes
    const_s + per_max_s * max_j B_j + per_ratio_s * sum_j B_j seconds."""
    if not instr.is_comm:
        raise ValueError(f"{instr.kind} is not a communication instruction")
    model = spec.collectives[instr.kind]
    transfer_s = instr.elements * spec.bytes_per_element / model.bytes_per_second
    if instr.kind == "all_reduce":
        return model.latency_s + transfer_s, 0.0, 0.0
    if instr.kind == "grouped_broadcast":
        # m separate broadcasts of the actual (unpadded) shards.
        return spec.m * model.latency_s, 0.0, transfer_s
    return model.latency_s, transfer_s, 0.0


def comm_time(instr: Instruction, row: tuple[float, ...], spec: ClusterSpec,
              max_ratio: float | None = None) -> float:
    """Seconds for one collective on a tensor sharded by `row`; `max_ratio`
    overrides the largest shard a padded collective moves."""
    const_s, per_max_s, per_ratio_s = comm_terms(instr, spec)
    x = max(row) if max_ratio is None else max_ratio
    return const_s + per_max_s * x + per_ratio_s * sum(row)


class StagePricer:
    """The stage model at fixed ratios B: the ratio row each stage is priced
    at, and what each instruction costs at a row.  B may be None when only
    stage rows are needed (the ratio LP, which chooses B)."""

    def __init__(self, spec: ClusterSpec, B: ShardingRatios | None,
                 assignment: SegmentAssignment):
        self.spec = spec
        self.B = B
        self.rates = [d.flops_per_second for d in spec.devices]
        self.row_of = assignment.row_index      # a tensor's ratio row
        self.one_row = assignment.count == 1
        # Per-row price caches keyed by instruction identity: the search asks
        # about the same theory instructions over and over, and hashing an
        # Instruction field by field would dominate each lookup.  `_held`
        # keeps every cached instruction alive, so no id is reused.
        self._comp: list[dict] = [{} for _ in range(assignment.count)]
        self._comm: list[dict] = [{} for _ in range(assignment.count)]
        self._held: list[Instruction] = []

    def stage_row(self, stage: Stage) -> int:
        """A stage is priced at the ratio row of its first computation's
        segment (the opening collective's, if the stage only communicates)."""
        return self.row_of((stage.comps[0] if stage.comps else stage.comm).ref)

    def comp(self, instr: Instruction, row: int) -> tuple[tuple[float, ...], float]:
        """Per-device seconds of a computation at ratio row `row`, and its
        flops summed over all devices.  Sharded work scales with each
        device's ratio; replicated work runs in full on every device."""
        cached = self._comp[row].get(id(instr))
        if cached is None:
            flops = instr.flops
            dsec = []
            if instr.sharded:
                work = 0.0
                for b, rate in zip(self.B.row(row), self.rates):
                    dsec.append(flops * b / rate)
                    work += flops * b
            else:
                for rate in self.rates:
                    dsec.append(flops / rate)
                work = float(flops) * len(self.rates)
            cached = self._comp[row][id(instr)] = (tuple(dsec), work)
            self._held.append(instr)
        return cached

    def comm(self, instr: Instruction, row: int) -> float:
        """Seconds of the collective opening a stage priced at ratio row
        `row`.  A segment-boundary reshard pads to the larger of its own
        row's and the stage row's largest shard."""
        cached = self._comm[row].get(id(instr))
        if cached is None:
            ratios = self.B.row(row)
            own = self.row_of(instr.ref)
            pad = None
            if instr.kind == "all_to_all" and own != row:
                pad = max(max(ratios), max(self.B.row(own)))
            cached = self._comm[row][id(instr)] = comm_time(instr, ratios, self.spec, pad)
            self._held.append(instr)
        return cached

    def open_stage(self, instr: Instruction) -> tuple[float, int | None]:
        """Price of a collective that opens a stage, at its own row until the
        stage's first computation names the stage row; that row, or None
        while it is still unknown (it is known at once with a single row)."""
        row = self.row_of(instr.ref)
        return self.comm(instr, row), (row if self.one_row else None)


@dataclass(frozen=True)
class StageCost:
    comm_s: float
    comp_s: tuple[float, ...]


@dataclass(frozen=True)
class CostBreakdown:
    stages: tuple[StageCost, ...]
    total_s: float


def iteration_time(instrs: tuple[Instruction, ...], B: ShardingRatios, spec: ClusterSpec,
                   assignment: SegmentAssignment) -> CostBreakdown:
    """Exact model time for one iteration of the program."""
    pricer = StagePricer(spec, B, assignment)
    out: list[StageCost] = []
    total = 0.0
    for stage in decompose_stages(tuple(instrs)):
        row = pricer.stage_row(stage)
        comm_s = 0.0 if stage.comm is None else pricer.comm(stage.comm, row)
        comp = [0.0] * spec.m
        for instr in stage.comps:
            for j, s in enumerate(pricer.comp(instr, row)[0]):
                comp[j] += s
        out.append(StageCost(comm_s=comm_s, comp_s=tuple(comp)))
        total += comm_s + max(comp)
    return CostBreakdown(stages=tuple(out), total_s=total)
