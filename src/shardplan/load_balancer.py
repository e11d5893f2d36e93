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

The solver is a two-phase simplex with Bland's rule, run on Python lists of
floats so that planning needs only the standard library: the tableaux have
a few dozen columns at most, where numpy's per-call overhead costs more
than the arithmetic.  A pivot divides the pivot row by the pivot element and
subtracts f * pivot row from each other row, in place and only on the
columns where the pivot row is nonzero: most of a row's columns are slack
and artificial variables that the pivot row does not touch.  Every touched
entry computes `a / p` or `a - f * b` as a dense pivot does; a skipped
entry would have computed `0 / p` or `a - f * 0`, which can only flip the
sign of a zero, and no comparison, quotient or sum the solver forms tells
-0.0 from 0.0 (the clip in `optimize_ratios` maps it to 0.0).  With `_array_sum`
adding a ratio row in numpy's summation order, the ratios are bit-identical
to those of the same simplex on dense numpy arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cost_model import ClusterSpec, ShardingRatios, comm_terms, single_segment, stages
from .graph_ir import Graph, SegmentAssignment

_TOL = 1e-9


@dataclass
class LpSolution:
    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: list[float] | None = None


def _pivot(T: list[list[float]], basis: list[int], row: int, col: int) -> None:
    pivot_row = T[row]
    p = pivot_row[col]
    pivot = [(j, v / p) for j, v in enumerate(pivot_row) if v != 0.0]
    for j, b in pivot:
        pivot_row[j] = b
    for r, tr in enumerate(T):
        f = tr[col]
        if r != row and f != 0.0:
            for j, b in pivot:
                tr[j] -= f * b
    basis[row] = col


def _run_simplex(T: list[list[float]], basis: list[int], ncols: int) -> str:
    """Iterate to optimality on a tableau whose last row is the reduced-cost
    row and last column the right-hand side.  Bland's rule (lowest eligible
    index for both entering and leaving variable) prevents cycling."""
    k = len(T) - 1
    while True:
        cost = T[k]
        enter = next((j for j in range(ncols) if cost[j] < -_TOL), -1)
        if enter < 0:
            return "optimal"
        leave = -1
        best = math.inf
        for r in range(k):
            a = T[r][enter]
            if a > _TOL:
                ratio = T[r][-1] / a
                if ratio < best - _TOL or (ratio <= best + _TOL and
                                           (leave < 0 or basis[r] < basis[leave])):
                    best = min(best, ratio)
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def solve_lp(c, A_ub=(), b_ub=(), A_eq=(), b_eq=()) -> LpSolution:
    """Minimize c @ x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.
    Every argument is a sequence (of sequences) of numbers."""
    c = [float(v) for v in c]
    nv = len(c)
    A_eq = [[float(v) for v in r] for r in A_eq]
    A_ub = [[float(v) for v in r] for r in A_ub]
    slacks = len(A_ub)
    rows = [r + [0.0] * slacks for r in A_eq]
    rows += [r + [float(i == j) for j in range(slacks)] for i, r in enumerate(A_ub)]
    rhs = [float(v) for v in b_eq] + [float(v) for v in b_ub]
    k = len(rows)
    if k == 0:
        return LpSolution(status="optimal", x=[0.0] * nv)
    for r in range(k):
        if rhs[r] < 0:
            rows[r] = [-v for v in rows[r]]
            rhs[r] = -rhs[r]

    # Phase 1: minimize the sum of one artificial variable per row.
    n_real = nv + slacks
    T = [row + [float(i == r) for i in range(k)] + [b]
         for r, (row, b) in enumerate(zip(rows, rhs))]
    cost = [0.0] * n_real + [1.0] * k + [0.0]
    for row in T:
        cost = [a - b for a, b in zip(cost, row)]
    T.append(cost)
    basis = [n_real + r for r in range(k)]
    _run_simplex(T, basis, n_real + k)
    art_level = sum(T[r][-1] for r in range(k) if basis[r] >= n_real)
    if art_level > 1e-7:
        return LpSolution(status="infeasible")
    for r in range(k):
        if basis[r] >= n_real:
            for j in range(n_real):
                if abs(T[r][j]) > _TOL:
                    _pivot(T, basis, r, j)
                    break

    keep = [r for r in range(k) if basis[r] < n_real]
    basis2 = [basis[r] for r in keep]
    T2 = [T[r][:n_real] + [T[r][-1]] for r in keep]
    cost = c + [0.0] * (n_real - nv + 1)
    for r, row in enumerate(T2):
        f = cost[basis2[r]]
        if f != 0.0:
            cost = [a - f * b for a, b in zip(cost, row)]
    T2.append(cost)
    status = _run_simplex(T2, basis2, n_real)
    if status != "optimal":
        return LpSolution(status=status)
    x = [0.0] * n_real
    for r, j in enumerate(basis2):
        x[j] = T2[r][-1]
    return LpSolution(status="optimal", x=x[:nv])


@dataclass
class SegmentProblem:
    """LP coefficients for one segment's ratio row."""
    row_index: int
    m: int
    comp_a: list[list[float]] = field(default_factory=list)   # sharded s/B_j
    comp_c: list[list[float]] = field(default_factory=list)   # replicated s
    slope_M: float = 0.0
    linear_B: list[float] | None = None

    def __post_init__(self):
        if self.linear_B is None:
            self.linear_B = [0.0] * self.m

    @property
    def trivial(self) -> bool:
        return not self.comp_a and self.slope_M <= 0.0 and not any(self.linear_B)


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
            prob.linear_B = [v + per_ratio_s for v in prob.linear_B]
        if comps:
            a = [0.0] * m
            cvec = [0.0] * m
            for instr in comps:
                target = a if instr.sharded else cvec
                for j in range(m):
                    target[j] += instr.flops / rates[j]
            prob.comp_a.append(a)
            prob.comp_c.append(cvec)
    return probs


def build_lp(prob: SegmentProblem) -> tuple[list, ...]:
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
    peak = max([prob.slope_M, 0.0, *map(abs, prob.linear_B)]
               + [v for vec in prob.comp_a + prob.comp_c for v in vec])
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    nv = m + 1 + k
    c = [v / scale for v in prob.linear_B] + [prob.slope_M / scale] + [1.0] * k
    A_eq = [[1.0] * m + [0.0] * (k + 1)]
    rows = []
    rhs = []
    for j in range(m):
        row = [0.0] * nv
        row[j] = 1.0
        row[m] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for s in range(k):
        for j in range(m):
            row = [0.0] * nv
            row[j] = prob.comp_a[s][j] / scale
            row[m + 1 + s] = -1.0
            rows.append(row)
            rhs.append(-prob.comp_c[s][j] / scale)
    return c, rows, rhs, A_eq, [1.0]


def _array_sum(xs: list[float]) -> float:
    """Sum in numpy's pairwise order: sequential below 8 elements; up to 128,
    eight running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and
    then the tail; beyond that, the two halves split at a multiple of 8."""
    n = len(xs)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _array_sum(xs[:half]) + _array_sum(xs[half:])
    if n < 8:
        total = 0.0
        for v in xs:
            total += v
        return total
    r = xs[:8]
    for i in range(8, n - n % 8, 8):
        r = [a + b for a, b in zip(r, xs[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in xs[n - n % 8:]:
        total += v
    return total


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
        # Negative and signed-zero solutions clip to 0.0.
        row = [0.0 if v <= 0.0 else v for v in sol.x[:m]]
        total = _array_sum(row)
        if total <= _TOL:
            out_rows.append(tuple(1.0 / m for _ in range(m)))
        else:
            out_rows.append(tuple(v / total for v in row))
    return ShardingRatios(rows=tuple(out_rows))
