"""Sharding-ratio optimization for a fixed program.

For each segment the iteration time restricted to that segment's ratio row
is a small linear program: ratio variables B_j (nonnegative, summing to one),
one variable M bounding every B_j (gather-style collectives move the largest
shard), and one variable T_i per compute stage bounding each device's affine
compute time.  Each collective enters through `cost_model.comm_terms`:
AllReduce contributes only a constant, which no ratio row changes, so the LP
leaves it out; grouped broadcast is linear in the B_j directly; the padded
collectives are linear in M.  Rows never interact except through segment-boundary
reshards, which are charged here against the segment's own M (the exact
evaluator uses the max over both rows, so the loop re-checks candidates
against the true model before accepting them).

The solver is a dense two-phase simplex with Bland's rule — the problems
have a handful of variables, so robustness and determinism beat speed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cost_model import (ClusterSpec, ShardingRatios, comm_terms,
                         single_segment, stages)
from .graph_ir import Graph, SegmentAssignment

_TOL = 1e-9


@dataclass
class LpSolution:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Iterate to optimality on a tableau whose last row is the reduced-cost
    row and last column the right-hand side.  Bland's rule (lowest eligible
    index for both entering and leaving variable) prevents cycling."""
    k = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[k, j] < -_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = math.inf
        for r in range(k):
            a = T[r, enter]
            if a > _TOL:
                ratio = T[r, -1] / a
                if ratio < best - _TOL or (ratio <= best + _TOL and
                                           (leave < 0 or basis[r] < basis[leave])):
                    best = min(best, ratio)
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> LpSolution:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0."""
    c = np.asarray(c, dtype=float)
    nv = c.size
    rows: list[np.ndarray] = []
    rhs: list[float] = []
    slacks = 0
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        for r, bv in zip(A_eq, np.atleast_1d(b_eq)):
            rows.append(np.concatenate([r, np.zeros(0)]))
            rhs.append(float(bv))
    n_eq = len(rows)
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        slacks = A_ub.shape[0]
        for i, (r, bv) in enumerate(zip(A_ub, np.atleast_1d(b_ub))):
            srow = np.zeros(slacks)
            srow[i] = 1.0
            rows.append(np.concatenate([r, srow]))
            rhs.append(float(bv))
    for i in range(n_eq):
        rows[i] = np.concatenate([rows[i], np.zeros(slacks)])
    k = len(rows)
    if k == 0:
        x = np.zeros(nv)
        return LpSolution(status="optimal", x=x, objective=0.0)
    A = np.vstack(rows)
    b = np.asarray(rhs, dtype=float)
    for r in range(k):
        if b[r] < 0:
            A[r] = -A[r]
            b[r] = -b[r]

    # Phase 1: minimize the sum of one artificial variable per row.
    n_real = nv + slacks
    T = np.zeros((k + 1, n_real + k + 1))
    T[:k, :n_real] = A
    T[:k, n_real:n_real + k] = np.eye(k)
    T[:k, -1] = b
    T[k, n_real:n_real + k] = 1.0
    basis = [n_real + r for r in range(k)]
    for r in range(k):
        T[k] -= T[r]
    _run_simplex(T, basis, n_real + k)
    art_level = sum(T[r, -1] for r in range(k) if basis[r] >= n_real)
    if art_level > 1e-7:
        return LpSolution(status="infeasible")
    for r in range(k):
        if basis[r] >= n_real:
            for j in range(n_real):
                if abs(T[r, j]) > _TOL:
                    _pivot(T, basis, r, j)
                    break

    keep = [r for r in range(k) if basis[r] < n_real]
    A2 = T[keep, :n_real]
    b2 = T[keep, -1]
    basis2 = [basis[r] for r in keep]
    k2 = len(keep)
    T2 = np.zeros((k2 + 1, n_real + 1))
    T2[:k2, :n_real] = A2
    T2[:k2, -1] = b2
    T2[k2, :nv] = c
    for r in range(k2):
        if T2[k2, basis2[r]] != 0.0:
            T2[k2] -= T2[k2, basis2[r]] * T2[r]
    status = _run_simplex(T2, basis2, n_real)
    if status != "optimal":
        return LpSolution(status=status)
    x = np.zeros(n_real)
    for r in range(k2):
        x[basis2[r]] = T2[r, -1]
    x = x[:nv]
    return LpSolution(status="optimal", x=x, objective=float(c @ x))


@dataclass
class SegmentProblem:
    """LP coefficients for one segment's ratio row."""
    row_index: int
    m: int
    comp_a: list[np.ndarray] = field(default_factory=list)   # sharded s/B_j
    comp_c: list[np.ndarray] = field(default_factory=list)   # replicated s
    slope_M: float = 0.0
    linear_B: np.ndarray | None = None

    def __post_init__(self):
        if self.linear_B is None:
            self.linear_B = np.zeros(self.m)

    @property
    def trivial(self) -> bool:
        return (not self.comp_a and self.slope_M <= 0.0
                and not np.any(self.linear_B))


def segment_problems(instrs, spec: ClusterSpec,
                     assignment: SegmentAssignment) -> list[SegmentProblem]:
    """Split the program's stages into per-segment LP coefficient sets."""
    m = spec.m
    probs = [SegmentProblem(row_index=r, m=m) for r in range(assignment.count)]
    rates = [d.flops_per_second for d in spec.devices]
    for row, comm, comps in stages(instrs, assignment.row_index):
        prob = probs[row]
        if comm is not None:
            _, per_max_s, per_ratio_s = comm_terms(comm, spec)
            prob.slope_M += per_max_s
            prob.linear_B += per_ratio_s
        if comps:
            a = np.zeros(m)
            cvec = np.zeros(m)
            for instr in comps:
                for j in range(m):
                    if instr.sharded:
                        a[j] += instr.flops / rates[j]
                    else:
                        cvec[j] += instr.flops / rates[j]
            prob.comp_a.append(a)
            prob.comp_c.append(cvec)
    return probs


def build_lp(prob: SegmentProblem) -> tuple[np.ndarray, ...]:
    """Assemble the ratio LP for one segment as `solve_lp`'s arguments
    (c, A_ub, b_ub, A_eq, b_eq).

    Variables are [B_1..B_m, M, T_1..T_k]: M >= B_j models gather-style
    collectives that wait for the largest shard, and T_s >= a_sj*B_j + c_sj
    models stage s finishing when its slowest device does.  The objective is
    linear_B @ B + slope_M * M + sum(T); collective latencies and other terms
    that no choice of ratios changes are left out.

    Worked examples (m=2):
      * one stage with per-device slopes (1, 2), no communication
        -> B = [2/3, 1/3], objective 2/3 (equalize 1*B_1 = 2*B_2)
      * communication-dominated, slope_M huge and no compute
        -> B uniform (minimizing the largest shard is all that matters)
      * slopes (1, 2) plus slope_M = 3
        -> B = [0.5, 0.5], objective 3*0.5 + max(0.5, 1.0) = 2.5

    Second-valued coefficients are divided by a power-of-two unit (exact in
    floating point) before they enter the tableau: stage times sit around
    1e-10 s, far below the simplex pivot tolerance, and without the change of
    units the solver stops a pivot short of the optimum.  The ratio variables
    B_j are dimensionless and unaffected.
    """
    m = prob.m
    k = len(prob.comp_a)
    peak = max([float(prob.slope_M), float(np.max(np.abs(prob.linear_B), initial=0.0))]
               + [float(np.max(a, initial=0.0)) for a in prob.comp_a]
               + [float(np.max(cv, initial=0.0)) for cv in prob.comp_c])
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    nv = m + 1 + k
    c = np.zeros(nv)
    c[:m] = prob.linear_B / scale
    c[m] = prob.slope_M / scale
    c[m + 1:] = 1.0
    A_eq = np.zeros((1, nv))
    A_eq[0, :m] = 1.0
    b_eq = np.array([1.0])
    rows = []
    rhs = []
    for j in range(m):
        row = np.zeros(nv)
        row[j] = 1.0
        row[m] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for s in range(k):
        for j in range(m):
            row = np.zeros(nv)
            row[j] = prob.comp_a[s][j] / scale
            row[m + 1 + s] = -1.0
            rows.append(row)
            rhs.append(-prob.comp_c[s][j] / scale)
    return c, np.vstack(rows), np.asarray(rhs), A_eq, b_eq


def optimize_ratios(program, g: Graph, spec: ClusterSpec,
                    assignment: SegmentAssignment | None = None) -> ShardingRatios:
    """Best ratio rows for a fixed program, one independent LP per segment.

    Segments with nothing ratio-sensitive (no compute stages, no
    shard-size-dependent communication) fall back to uniform rows.
    """
    assignment = assignment or single_segment(g)
    m = spec.m
    out_rows: list[tuple[float, ...]] = []
    for prob in segment_problems(program.instrs, spec, assignment):
        if prob.trivial:
            out_rows.append(tuple(1.0 / m for _ in range(m)))
            continue
        sol = solve_lp(*build_lp(prob))
        if sol.status != "optimal":
            raise RuntimeError(f"ratio LP unexpectedly {sol.status} "
                               f"for segment {prob.row_index}")
        row = np.clip(sol.x[:m], 0.0, None)
        total = float(row.sum())
        if total <= _TOL:
            out_rows.append(tuple(1.0 / m for _ in range(m)))
        else:
            out_rows.append(tuple(float(v / total) for v in row))
    return ShardingRatios(rows=tuple(out_rows))


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
