import random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import corpus
import oracles
from shardplan import (ClusterSpec, DistributedProgram, Instruction, ShardingRatios,
                       alternate, build_theory, optimize_ratios, synthesize)
from shardplan.cost_model import round_shards
from shardplan.graph_ir import SegmentAssignment, graph_from_dict
from shardplan.load_balancer import (SegmentProblem, _array_sum, build_lp, segment_problems,
                                     solve_lp)


def test_simplex_basics():
    sol = solve_lp([1.0], A_ub=[[-1.0]], b_ub=[-3.0])        # min x, x >= 3
    assert sol.status == "optimal"
    assert sol.x == pytest.approx([3.0])

    sol = solve_lp([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[2.0])
    assert sol.status == "optimal" and sum(sol.x) == pytest.approx(2.0)

    assert solve_lp([1.0], A_ub=[[1.0]], b_ub=[-1.0]).status == "infeasible"
    assert solve_lp([-1.0], A_ub=[[-1.0]], b_ub=[-1.0]).status == "unbounded"


def test_simplex_matches_vertex_enumeration():
    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 4))
        c = rng.normal(size=n)
        A_ub = rng.normal(size=(k, n))
        b_ub = rng.uniform(0.2, 2.0, size=k)
        A_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        sol = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
        expect = oracles.vertex_minimum(c, A_ub, b_ub, A_eq, b_eq)
        if expect is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert float(c @ sol.x) == pytest.approx(expect, abs=1e-7)
            solved += 1
    assert solved >= 20          # the sweep must mostly exercise the solver


def test_sparse_pivots_solve_as_dense_pivots_do():
    # Sparse rows, negative right-hand sides (whose rows are negated, zeros
    # included) and every status.
    rng = random.Random(0)
    coef = lambda: 0.0 if rng.random() < 0.4 else rng.uniform(-2.0, 2.0)
    statuses = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        A_ub = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 4))]
        A_eq = [[coef() for _ in range(n)] for _ in range(rng.randint(0, 2))]
        args = ([coef() for _ in range(n)], A_ub, [rng.uniform(-1.0, 2.0) for _ in A_ub],
                A_eq, [rng.uniform(-1.0, 2.0) for _ in A_eq])
        sol = solve_lp(*args)
        with oracles.dense_pivots():
            ref = solve_lp(*args)
        assert (sol.status, sol.x) == (ref.status, ref.x), args
        statuses.add(sol.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_ratio_rows_equal_dense_pivots_bit_for_bit(m):
    spec = ClusterSpec.from_dict(corpus._cluster([(j + 2) * 25e9 for j in range(m)],
                                                 2e-5, 12e9))
    for name, g in corpus.corpus_graphs():
        res = alternate(g, spec)
        rows = optimize_ratios(res.program, g, spec, res.assignment).rows
        with oracles.dense_pivots():
            ref = optimize_ratios(res.program, g, spec, res.assignment).rows
        assert [[v.hex() for v in row] for row in rows] == \
            [[v.hex() for v in row] for row in ref], name


def test_ratio_lp_analytic_cases():
    # slopes (1, 2), no communication: equalize 1*B1 = 2*B2
    prob = SegmentProblem(row_index=0, m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]])
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([2 / 3, 1 / 3])
    assert oracles.segment_objective(prob, sol.x[:2]) == pytest.approx(2 / 3)

    # communication-dominated: only the largest shard matters
    prob = SegmentProblem(row_index=0, m=2, slope_M=1e6)
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([0.5, 0.5])
    assert oracles.segment_objective(prob, sol.x[:2]) == pytest.approx(5e5)

    # compute pulls toward (2/3, 1/3), the collective pulls back to even
    prob = SegmentProblem(row_index=0, m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]],
                          slope_M=3.0)
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([0.5, 0.5])
    assert oracles.segment_objective(prob, sol.x[:2]) == pytest.approx(2.5)


def test_ratio_lp_matches_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        prob = SegmentProblem(
            row_index=0, m=2,
            comp_a=[rng.uniform(0.0, 2.0, size=2).tolist()
                    for _ in range(int(rng.integers(1, 3)))],
            comp_c=[rng.uniform(0.0, 0.5, size=2).tolist() for _ in range(2)][:1],
            slope_M=float(rng.uniform(0.0, 2.0)),
            linear_B=rng.uniform(0.0, 1.0, size=2).tolist())
        prob.comp_c = prob.comp_c * len(prob.comp_a)
        sol = solve_lp(*build_lp(prob))
        assert sol.status == "optimal"
        objective = oracles.segment_objective(prob, sol.x[:2])
        grid = oracles.grid_min_objective(prob, step=1e-2)
        assert objective <= grid + 1e-9
        assert objective >= grid - 0.05        # grid is only 1e-2 fine


def test_array_sum_adds_in_numpys_order():
    # optimize_ratios normalizes its rows by this sum; a different order
    # moves some 8-device ratios by one ulp.
    rng = random.Random(0)
    for n in range(300):
        xs = [rng.random() * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        assert _array_sum(xs).hex() == float(np.array(xs).sum()).hex(), n


def test_segment_problem_coefficients():
    spec = corpus.homog2()
    rate = 2.0 ** 30
    bw = 2.0 ** 33
    lat = 2.0 ** -16
    mk = lambda kind, n: Instruction(kind, "h", operands=("h@x",), output="h@y",
                                     axis=0, elements=n)
    mm = Instruction("matmul", "h", operands=("a", "b"), output="h@z",
                     sharded=True, flops=128)
    rep = Instruction("reduce", "h", operands=("h@y",), output="h@w",
                      dims=(0,), flops=10)
    instrs = [mm, mk("all_reduce", 32), mk("grouped_broadcast", 16),
              mk("all_gather", 8), rep]
    assignment = SegmentAssignment(segment_of={"h": 1}, count=1)
    probs = segment_problems(instrs, spec, assignment)
    assert len(probs) == 1
    p = probs[0]
    assert p.linear_B == [64 / bw, 64 / bw]
    assert p.slope_M == 32 / bw
    assert p.comp_a == [[128 / rate] * 2, [0.0, 0.0]]
    assert p.comp_c == [[0.0, 0.0], [10 / rate] * 2]
    assert not p.trivial
    assert SegmentProblem(row_index=0, m=2).trivial


def test_optimize_ratios_balances_heterogeneous_devices():
    g = graph_from_dict(corpus.matmul_reduce())
    th = build_theory(g, 2)
    spec = corpus.hetero2()
    res = synthesize(g, th, spec, ShardingRatios.uniform(2))
    B = optimize_ratios(res.program, g, spec)
    assert B.rows[0] == pytest.approx((0.7, 0.3), abs=1e-9)
    # homogeneous devices stay even
    even = optimize_ratios(synthesize(g, th, corpus.homog2(),
                                      ShardingRatios.uniform(2)).program,
                           g, corpus.homog2())
    assert even.rows[0] == pytest.approx((0.5, 0.5), abs=1e-12)
    # swapping the devices swaps the ratios
    flipped = ClusterSpec.from_dict(corpus._cluster([75e9, 175e9], 2e-5, 12e9))
    res2 = synthesize(g, th, flipped, ShardingRatios.uniform(2))
    assert optimize_ratios(res2.program, g, flipped).rows[0] == pytest.approx((0.3, 0.7),
                                                                             abs=1e-9)


def test_optimize_ratios_uniform_fallback_for_trivial_segments():
    g = graph_from_dict(corpus.matmul_reduce())
    ar_only = DistributedProgram(instrs=(Instruction("all_reduce", "h", operands=("h@partial",),
                                                     output="h@full", elements=16),),
                                 loss=g.loss)
    B = optimize_ratios(ar_only, g, corpus.hetero2())
    assert B.rows == ((0.5, 0.5),)


def test_round_shards_cases():
    assert round_shards(7, (0.5, 0.5)) == [4, 3]
    assert round_shards(10, (1 / 3, 2 / 3)) == [3, 7]
    assert round_shards(5, (1.0,)) == [5]
    assert round_shards(2, (100 / 101, 1 / 101)) == [2, 0]
    assert round_shards(1, (0.0, 0.0, 1.0)) == [0, 0, 1]
    assert round_shards(0, (0.5, 0.5)) == [0, 0]
    # float targets miss extents this large by many units
    for extent in (2**70, 10**307):
        for row in ((0.7, 0.3), (1 / 3, 1 / 3, 1 / 3)):
            sizes = round_shards(extent, row)
            assert sum(sizes) == extent and min(sizes) >= 0, (extent, row)
    with pytest.raises(ValueError):
        round_shards(-1, (1.0,))


def test_round_shards_is_l1_optimal():
    rows = [(0.5, 0.5), (0.7, 0.3), (1 / 3, 2 / 3), (100 / 101, 1 / 101),
            (0.2, 0.3, 0.5), (1 / 3, 1 / 3, 1 / 3)]
    for extent in range(13):
        for row in rows:
            sizes = round_shards(extent, row)
            err = sum(abs(s - extent * r) for s, r in zip(sizes, row))
            assert err == pytest.approx(oracles.min_l1_rounding(extent, row)), (extent, row)


@given(st.integers(min_value=0, max_value=50),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=4))
def test_round_shards_always_partitions(extent, weights):
    total = sum(weights)
    assume(total > 1e-6)
    row = [w / total for w in weights]
    sizes = round_shards(extent, row)
    assert sum(sizes) == extent
    assert all(s >= 0 for s in sizes)
    assert len(sizes) == len(row)
