"""Sharding-ratio optimization for a fixed program.

The stages come from `cost_model.StagePricer.advance`, the walk that
prices programs.  The iteration time as a function of the ratio row is a
small linear program: ratio variables B_j (nonnegative, summing to one), one
variable M bounding every B_j (gather-style collectives move the largest
shard), and one variable T_i per stage with work bounding each device's affine
compute time.  Each collective enters through `cost_model.comm_terms` as a
constant, which no ratio row changes and the LP leaves out, plus a slope in
M, zero for AllReduce and grouped broadcast.  The LP's objective plus those
constants is the model's price, so its optimum is the best row for the
program.

A program with no replicated work and no slope needs no LP.  Its stage s
then takes F_s*B_j/r_j seconds on device j (F_s the stage's flops, r_j the
device's rate), so its objective is sum_s max_j F_s*B_j/r_j =
(sum_s F_s) * max_j B_j/r_j.  The B_j sum to one, so max_j B_j/r_j is at
least 1/sum(r), with equality only at B_j = r_j/sum(r): the row
`ShardingRatios.proportional_to_flops` builds is an exact optimum, and the
only one when some stage has flops (the simplex finds it only to within
rounding).  A program with no stage and no slope meets the condition
vacuously.  Replicated work or any slope (a gather-style collective) sends
the program to the simplex.

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
-0.0 from 0.0 (the clip in `optimize_ratios` maps it to 0.0).  Both phases
build their reduced-cost row the same way, subtracting each row into it in
place on the row's nonzero columns.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .cost_model import (ClusterSpec, ShardingRatios, StageCost, StagePricer, comm_terms,
                         replicated_seconds)
from .graph_ir import Graph

_TOL = 1e-9


class LpSolution(NamedTuple):
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
        for j, b in enumerate(row):
            if b != 0.0:
                cost[j] -= b
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
            for j, b in enumerate(row):
                if b != 0.0:
                    cost[j] -= f * b
    T2.append(cost)
    status = _run_simplex(T2, basis2, n_real)
    if status != "optimal":
        return LpSolution(status=status)
    x = [0.0] * n_real
    for r, j in enumerate(basis2):
        x[j] = T2[r][-1]
    return LpSolution(status="optimal", x=x[:nv])


class RatioProblem(NamedTuple):
    """LP coefficients for the program's ratio row: per stage with work,
    the seconds of its sharded work at a ratio of 1 and of its replicated
    work, and the collectives' total slope in M."""
    m: int
    comp_a: tuple[tuple[float, ...], ...] = ()      # sharded s/B_j
    comp_c: tuple[tuple[float, ...], ...] = ()      # replicated s
    slope_M: float = 0.0


class _CoefficientWalk(StagePricer):
    """`StagePricer.advance` with LP coefficients in place of prices.  A
    stage's `comp_s` holds 2m sums: the per-device seconds of its sharded
    work at a ratio of 1, then those of its replicated work.  Collectives
    cost nothing here; `ratio_problem` takes their slopes from
    `comm_terms`.  A stage whose sums are all zero adds only T_s >= 0,
    which changes no optimum, so it gets no T variable.  It sets only what
    `advance` reads: no ratios, no price caches."""

    def __init__(self, spec: ClusterSpec):
        self.rates = [d.flops_per_second for d in spec.devices]
        self.zeros = (0.0,) * spec.m
        self.empty = StageCost(0.0, self.zeros * 2, None)

    def comp(self, instr) -> tuple[float, ...]:
        seconds = replicated_seconds(instr, self.rates)
        return seconds + self.zeros if instr.sharded else self.zeros + seconds

    def comm(self, instr) -> float:
        return 0.0


def ratio_problem(instrs, spec: ClusterSpec) -> RatioProblem:
    """The LP coefficients of the program's stages."""
    m = spec.m
    walk = _CoefficientWalk(spec)
    closed, last = walk.advance(walk.empty, instrs)
    stages = closed + (last,)
    slope_M = 0.0
    for _, _, comm in stages:
        if comm is not None:
            slope_M += comm_terms(comm, spec)[1]
    work = [comp for _, comp, _ in stages if any(comp)]
    return RatioProblem(m, tuple(c[:m] for c in work), tuple(c[m:] for c in work), slope_M)


def build_lp(prob: RatioProblem) -> tuple[list, ...]:
    """Assemble the ratio LP as `solve_lp`'s arguments
    (c, A_ub, b_ub, A_eq, b_eq).

    Variables are [B_1..B_m, M, T_1..T_k]: M >= B_j models gather-style
    collectives that wait for the largest shard, and T_s >= a_sj*B_j + c_sj
    models stage s finishing when its slowest device does.  The objective is
    slope_M * M + sum(T); the collectives' constants, which no choice of
    ratios changes, are left out.

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
    peak = max([prob.slope_M, 0.0] + [v for vec in prob.comp_a + prob.comp_c for v in vec])
    scale = math.ldexp(1.0, math.frexp(peak)[1] - 1) if peak > 0.0 else 1.0
    nv = m + 1 + k
    c = [0.0] * m + [prob.slope_M / scale] + [1.0] * k
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


def optimize_ratios(program, g: Graph, spec: ClusterSpec,
                    assignment=None  # unread; kept while perfbench/ops.py passes it
                    ) -> ShardingRatios:
    """Best ratio row for a fixed program.

    A program whose stages do only sharded work and whose collectives cost
    nothing that depends on the ratios (`comp_c` all zero and `slope_M`
    zero, as in a program with no stage and no slope) gets the
    speed-proportional row, the exact optimum shown in the module
    docstring.  Every other program solves its LP.
    """
    prob = ratio_problem(program.instrs, spec)
    if prob.slope_M == 0.0 and not any(map(any, prob.comp_c)):
        return ShardingRatios.proportional_to_flops(spec)
    sol = solve_lp(*build_lp(prob))
    if sol.status != "optimal":
        raise RuntimeError(f"ratio LP unexpectedly {sol.status}")
    # Negative and signed-zero solutions clip to 0.0.
    row = [0.0 if v <= 0.0 else v for v in sol.x[:spec.m]]
    total = sum(row)
    return ShardingRatios(rows=(tuple(v / total for v in row),))
