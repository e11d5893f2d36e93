"""Independent oracles the tests compare the package against.

Everything here is deliberately brute-force: grids, vertex enumeration,
exhaustive integer compositions and unmerged program walks.  None of it
shares code with the package beyond calling into public evaluation entry
points, except the search-space walks, which step the package's own
`apply_triple` to list programs.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from shardplan.cost_model import decompose_stages, single_segment
from shardplan.graph_ir import node_flops
from shardplan.interpreter import (check_form, eval_reference,
                                   execute_instruction, random_inputs,
                                   table_sizes)
from shardplan.load_balancer import SegmentProblem
from shardplan.synthesizer import SearchConfig, SearchContext, apply_triple
from shardplan.theory import dist_id


# ---------------------------------------------------------------------------
# ratio-row grids and the segment objective


def grid_rows(m: int, step: float = 1e-2):
    """All rows of the m-simplex with coordinates on a `step` grid."""
    n = round(1.0 / step)
    if m == 1:
        yield (1.0,)
        return
    for combo in itertools.product(range(n + 1), repeat=m - 1):
        if sum(combo) <= n:
            row = [c / n for c in combo]
            row.append((n - sum(combo)) / n)
            yield tuple(row)


def segment_objective(prob: SegmentProblem, row) -> float:
    """Evaluate one segment's time at a fixed ratio row (same algebra as the
    LP, computed directly)."""
    row = np.asarray(row, dtype=float)
    total = float(prob.linear_B @ row) + prob.slope_M * float(row.max())
    total += prob.const_s
    for a, c in zip(prob.comp_a, prob.comp_c):
        total += float(np.max(a * row + c))
    return total


def grid_min_objective(prob: SegmentProblem, step: float = 1e-2) -> float:
    return min(segment_objective(prob, row) for row in grid_rows(prob.m, step))


# ---------------------------------------------------------------------------
# vertex enumeration for small LPs


def vertex_minimum(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> float | None:
    """Minimum objective over all vertices of the feasible region, found by
    enumerating basic solutions (every choice of n active constraints from
    equalities, tight inequalities and x_j = 0 bounds).  Returns None when no
    vertex is feasible."""
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    forced = 0
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        for r, bv in zip(A_eq, np.atleast_1d(b_eq)):
            rows.append(np.asarray(r, dtype=float))
            rhs.append(float(bv))
        forced = len(rows)
    if A_ub is not None:
        A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
        for r, bv in zip(A_ub, np.atleast_1d(b_ub)):
            rows.append(np.asarray(r, dtype=float))
            rhs.append(float(bv))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append(e)
        rhs.append(0.0)

    best = None
    optional = range(forced, len(rows))
    need = n - forced
    if need < 0:
        return None
    for combo in itertools.combinations(optional, need):
        idx = list(range(forced)) + list(combo)
        A = np.stack([rows[i] for i in idx])
        b = np.asarray([rhs[i] for i in idx])
        if np.linalg.matrix_rank(A) < n:
            continue
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if np.max(np.abs(A @ x - b)) > 1e-7:
            continue
        if np.any(x < -1e-7):
            continue
        if A_ub is not None and np.any(A_ub @ x - np.atleast_1d(b_ub) > 1e-7):
            continue
        if A_eq is not None and np.max(np.abs(A_eq @ x - np.atleast_1d(b_eq))) > 1e-7:
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# integer rounding and contiguous partition


def min_l1_rounding(extent: int, row) -> float:
    """Smallest achievable total |size - extent*ratio| over all splits of
    `extent` into len(row) non-negative integers."""
    targets = [extent * r for r in row]
    m = len(targets)

    def rec(i: int, left: int) -> float:
        if i == m - 1:
            return abs(left - targets[i])
        return min(abs(s - targets[i]) + rec(i + 1, left - s)
                   for s in range(left + 1))

    return rec(0, extent)


def min_max_contiguous(weights, count: int) -> float:
    """Minimal possible maximum block weight over contiguous partitions of
    `weights` into `count` blocks."""
    n = len(weights)
    best = math.inf
    for cuts in itertools.combinations(range(1, n), count - 1):
        bounds = [0, *cuts, n]
        worst = max(sum(weights[a:b]) for a, b in zip(bounds, bounds[1:]))
        best = min(best, worst)
    return best


# ---------------------------------------------------------------------------
# Hoare-triple soundness harness


def materialize_property(prop, reference: np.ndarray, m: int, shard_table: dict,
                         rng: np.random.Generator) -> list[np.ndarray]:
    """Produce per-device instances satisfying `prop` w.r.t. `reference`."""
    if prop.kind == "Id":
        return [reference.copy() for _ in range(m)]
    if prop.kind == "AG":
        sizes = table_sizes(shard_table, prop.ref, prop.axis, m)
        out = []
        start = 0
        for size in sizes:
            idx = [slice(None)] * reference.ndim
            idx[prop.axis] = slice(start, start + size)
            out.append(reference[tuple(idx)].copy())
            start += size
        return out
    if prop.kind == "AR":
        parts = [rng.normal(size=reference.shape) for _ in range(m - 1)]
        parts.append(reference - sum(parts) if parts else reference.copy())
        return [np.asarray(p, dtype=np.float64) for p in parts]
    raise ValueError(f"cannot materialize guard property {prop}")


def triple_violations(g, theory, spec, shard_table, seed: int = 0,
                      rtol: float = 1e-9) -> list[str]:
    """Instantiate every triple's precondition with concrete tensors, run its
    instructions, and check every (non-guard) postcondition form.  Returns
    human-readable descriptions of any failures."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(g, rng)
    refs = eval_reference(g, inputs)
    bad: list[str] = []
    for triple in theory.triples:
        env: dict[str, list[np.ndarray]] = {}
        for prop in triple.pre:
            if prop.is_guard:
                continue
            env[dist_id(prop.ref, prop)] = materialize_property(
                prop, refs[prop.ref], spec.m, shard_table, rng)
        try:
            for instr in triple.instrs:
                execute_instruction(instr, env, spec.m, inputs, shard_table)
        except Exception as e:  # noqa: BLE001 - report, don't crash the sweep
            bad.append(f"{triple}: execution failed: {e}")
            continue
        for prop in triple.post:
            if prop.is_guard:
                continue
            did = dist_id(prop.ref, prop)
            if did not in env:
                bad.append(f"{triple}: post {prop} not realized")
                continue
            if not check_form(prop, env[did], refs[prop.ref], rtol=rtol):
                bad.append(f"{triple}: post {prop} does not hold")
    return bad


# ---------------------------------------------------------------------------
# search-space walks


def expand(q, ctx) -> list:
    """All successors of q under applicable, non-vacuous triples."""
    return [apply_triple(q, ti, ctx) for ti in ctx.applicable(q.props)]


def enumerate_all_complete(g, theory, spec, B, max_len: int, assignment=None) -> set:
    """Every complete instruction sequence of at most max_len instructions
    (no merging; exponential, so only for tiny graphs)."""
    ctx = SearchContext(g, theory, spec, B, assignment,
                        SearchConfig(prune_properties=False))
    out = set()
    stack = [ctx.initial()]
    while stack:
        q = stack.pop()
        if q.complete:
            out.add(q.instrs)
            continue
        if len(q.instrs) >= max_len:
            continue
        stack.extend(expand(q, ctx))
    return out


# ---------------------------------------------------------------------------
# admissibility audit over the enumeration graph


def ecost(partial, g, spec, B, assignment=None) -> float:
    """Reference completion estimate, recomputed from the program alone.

    Counts (a) flops already accrued in the open trailing stage and (b) the
    single-device flops of every loss ancestor without a realized property,
    both charged at the aggregate cluster rate (best-case full sharding);
    communication is charged as zero.  Complete programs cost nothing more.
    The search keeps the same quantity incrementally (`ecost_s`).
    """
    if partial.complete:
        return 0.0
    assignment = assignment or single_segment(g)
    open_work = 0.0
    stages = decompose_stages(tuple(partial.instrs))
    if stages:
        trailing = stages[-1]
        first = trailing.comps[0] if trailing.comps else trailing.comm
        row = B.row(assignment.row_index(first.ref))
        for instr in trailing.comps:
            if instr.sharded:
                for b in row:
                    open_work += instr.flops * b
            else:
                open_work += float(instr.flops) * spec.m
    remaining = 0.0
    for node in g.nodes:
        if node.id in g.loss_ancestors and node.id not in partial.computed:
            remaining += node_flops(g, node)
    return (open_work + remaining) / spec.total_rate


def future_costs(states: dict) -> dict:
    """Cheapest completion cost from each enumeration state: length strictly
    increases along edges, so one sweep in descending length suffices."""
    future = {k: math.inf for k in states}
    for key in sorted(states, key=lambda k: -states[k].length):
        rec = states[key]
        if rec.complete:
            future[key] = rec.node.total_s - rec.node.closed_s
        for child_key, delta in rec.edges:
            cand = delta + future[child_key]
            if cand < future[key]:
                future[key] = cand
    return future


def admissibility_violations(g, spec, B, enum_result, assignment=None,
                             slack: float = 0.0) -> list[str]:
    """The search's completion estimate (`ecost_s`) must agree with the
    reference `ecost` and never exceed the true cheapest completion
    (cost(Q_c) - cost(Q) minimized over enumerated completions Q_c)."""
    states = enum_result.states
    future = future_costs(states)
    bad: list[str] = []
    for key, rec in states.items():
        h = rec.node.ecost_s
        ref = ecost(rec.node, g, spec, B, assignment)
        if abs(h - ref) > 1e-12 * rec.node.score_s:
            bad.append(f"state len={rec.length} ecost_s={h!r} != reference ecost {ref!r}")
        if future[key] != math.inf and h > future[key] + slack:
            bad.append(f"state len={rec.length} ecost={h!r} > future={future[key]!r}")
    return bad
