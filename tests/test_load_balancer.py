import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from shardplan import (ClusterSpec, DistributedProgram, Instruction, ShardingRatios,
                       alternate, build_theory, load_balancer, optimize_ratios, synthesize)
from shardplan.cost_model import comm_terms, iteration_time, round_shards
from shardplan.graph_ir import graph_from_dict
from shardplan.load_balancer import RatioProblem, build_lp, ratio_problem, solve_lp


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


def _graded(m: int) -> ClusterSpec:
    return ClusterSpec.from_dict(corpus._cluster([(j + 2) * 25e9 for j in range(m)],
                                                 2e-5, 12e9))


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_ratio_rows_equal_dense_pivots_bit_for_bit(m):
    # `optimize_ratios` answers these plans in closed form, so their LPs
    # are solved here directly
    spec = _graded(m)
    for name, g in corpus.corpus_graphs():
        res = alternate(g, spec)
        prob = ratio_problem(res.program.instrs, spec)
        row = solve_lp(*build_lp(prob)).x[:m]
        with oracles.dense_pivots():
            ref = solve_lp(*build_lp(prob)).x[:m]
        assert [v.hex() for v in row] == [v.hex() for v in ref], name


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_ratio_rows_are_the_lp_optimum(m):
    spec = _graded(m)
    for name, g in corpus.corpus_graphs():
        res = alternate(g, spec)
        off = oracles.row_off_the_lp(res.program, g, spec)
        assert off is None, (name, off)


def test_sharded_plans_take_the_closed_form_and_mix_takes_the_lp():
    def no_lp(*args, **kwargs):
        raise AssertionError("solve_lp called")

    with mock.patch.object(load_balancer, "solve_lp", no_lp):
        for cname in ("hetero2", "hetero4", "hetero8"):
            spec = getattr(corpus, cname)()
            for name, g in corpus.corpus_graphs():
                assert alternate(g, spec).program, (cname, name)
    # a slope (the plan's reduce_scatter) and replicated work each take the LP
    g = graph_from_dict(corpus.mix_graph(2, 32, 32))
    with mock.patch.object(load_balancer, "solve_lp", wraps=solve_lp) as lp:
        res = alternate(g, corpus.slowhet2())
    assert lp.called
    assert oracles.row_off_the_lp(res.program, g, corpus.slowhet2()) is None
    spec = corpus.hetero2()
    mm = Instruction("matmul", "h", operands=("a", "b"), output="h@z", sharded=True,
                     flops=128)
    rep = Instruction("reduce", "h", operands=("h@z",), output="h@w", dims=(0,), flops=10)
    program = DistributedProgram(instrs=(mm, rep), loss="h")
    with mock.patch.object(load_balancer, "solve_lp", wraps=solve_lp) as lp:
        B = optimize_ratios(program, None, spec)
    assert lp.called and B.row[0] > 0.7
    assert oracles.row_off_the_lp(program, None, spec) is None


def test_ratio_lp_analytic_cases():
    # slopes (1, 2), no communication: equalize 1*B1 = 2*B2
    prob = RatioProblem(m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]])
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([2 / 3, 1 / 3])
    assert oracles.ratio_objective(prob, sol.x[:2]) == pytest.approx(2 / 3)

    # communication-dominated: only the largest shard matters
    prob = RatioProblem(m=2, slope_M=1e6)
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([0.5, 0.5])
    assert oracles.ratio_objective(prob, sol.x[:2]) == pytest.approx(5e5)

    # compute pulls toward (2/3, 1/3), the collective pulls back to even
    prob = RatioProblem(m=2, comp_a=[[1.0, 2.0]], comp_c=[[0.0, 0.0]],
                        slope_M=3.0)
    sol = solve_lp(*build_lp(prob))
    assert sol.x[:2] == pytest.approx([0.5, 0.5])
    assert oracles.ratio_objective(prob, sol.x[:2]) == pytest.approx(2.5)


def test_ratio_lp_matches_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        comp_a = [rng.uniform(0.0, 2.0, size=2).tolist()
                  for _ in range(int(rng.integers(1, 3)))]
        comp_c = [rng.uniform(0.0, 0.5, size=2).tolist() for _ in range(2)][:1]
        prob = RatioProblem(m=2, comp_a=comp_a, comp_c=comp_c * len(comp_a),
                            slope_M=float(rng.uniform(0.0, 2.0)))
        sol = solve_lp(*build_lp(prob))
        assert sol.status == "optimal"
        objective = oracles.ratio_objective(prob, sol.x[:2])
        grid = oracles.grid_min_objective(prob, step=1e-2)
        assert objective <= grid + 1e-9
        assert objective >= grid - 0.05        # grid is only 1e-2 fine


def test_ratio_problem_coefficients():
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
    p = ratio_problem(instrs, spec)
    # all_reduce and grouped_broadcast cost constants, which the LP leaves out
    assert p.slope_M == 32 / bw
    assert p.comp_a == ((128 / rate,) * 2, (0.0, 0.0))
    assert p.comp_c == ((0.0, 0.0), (10 / rate,) * 2)
    empty = RatioProblem(m=2)
    assert (empty.comp_a, empty.comp_c, empty.slope_M) == ((), (), 0.0)


def test_ratio_problems_charge_each_stage_with_work():
    spec = corpus.homog2()          # 2^30 flops/s, 2^33 B/s, 4 B/elt
    a = Instruction("matmul", "a", operands=("a@x", "a@y"), output="a@z",
                    sharded=True, flops=64)
    b = Instruction("reduce", "b", operands=("b@full",), output="b@full",
                    dims=(0,), flops=32)
    ag = Instruction("all_gather", "a", operands=("a@shard0",), output="a@full",
                     axis=0, elements=32)
    rs = Instruction("reduce_scatter", "b", operands=("b@partial",), output="b@shard0",
                     axis=0, elements=8)
    a_s, b_s, idle_s = (2.0 ** -24,) * 2, (2.0 ** -25,) * 2, (0.0, 0.0)

    def coefficients(instrs, spec=spec):
        p = ratio_problem(instrs, spec)
        return list(p.comp_a), list(p.comp_c), p.slope_M

    assert coefficients(()) == ([], [], 0.0)
    assert coefficients((a, b)) == ([a_s], [b_s], 0.0)
    assert coefficients((a, ag, b)) == ([a_s, idle_s], [idle_s, b_s], 2.0 ** -26)
    # a leading collective opens the first stage instead of closing one
    assert coefficients((ag, b)) == ([idle_s], [b_s], 2.0 ** -26)
    # a computation without flops adds no stage variable, at the start, after
    # a collective or beside work, and a stage that only communicates gets none
    idle = b._replace(flops=0)
    assert coefficients((ag, idle)) == ([], [], 2.0 ** -26)
    assert coefficients((idle, ag, b)) == coefficients((ag, b))
    assert coefficients((a, idle, ag, idle, b)) == coefficients((a, ag, b))
    assert coefficients((ag,)) == ([], [], 2.0 ** -26)
    assert coefficients((ag, rs)) == ([], [], 2.0 ** -26 + 2.0 ** -28)
    ar = ag._replace(kind="all_reduce")
    assert coefficients((ar, idle)) == ([], [], 0.0)
    assert coefficients((ar,)) == ([], [], 0.0)
    # so the simplex returns the same row, bit for bit, with a stage of
    # zero-flop work as without it; enough sharded work keeps the row off
    # the even one
    spec = corpus.hetero2()
    big = a._replace(flops=2 ** 20)
    for busy, bare in [((idle, ag, big, b), (ag, big, b)),
                       ((big, ag, idle, ar, b), (big, ag, ar, b))]:
        assert coefficients(busy, spec) == coefficients(bare, spec)
        with mock.patch.object(load_balancer, "solve_lp", wraps=solve_lp) as lp:
            rows = [optimize_ratios(DistributedProgram(instrs=p, loss="b"), None, spec).row
                    for p in (busy, bare)]
        assert lp.call_count == 2
        assert [v.hex() for v in rows[0]] == [v.hex() for v in rows[1]]


def test_ratio_lp_prices_what_the_model_prices():
    """At the planned ratios, the collectives' constant terms plus the LP's
    objective equal `iteration_time` to within rounding.  The hetero2 `mix`
    plans hold no collective and take seconds each, so the
    `mix` graphs run on the other clusters."""
    graphs = [g for _, g in corpus.corpus_graphs()]
    graphs += [graph_from_dict(corpus.chain_graph(blocks)) for blocks in (1, 2, 3)]
    mix = [graph_from_dict(corpus.mix_graph(2, batch, width))
           for batch in (32, 64) for width in (32, 64)]
    clusters = ("homog2", "homog3", "hetero2", "skew2", "slowhet2")
    cases = [(g, cname) for g in graphs for cname in clusters]
    cases += [(g, cname) for g in mix for cname in clusters if cname != "hetero2"]
    collectives = 0
    for g, cname in cases:
        spec = getattr(corpus, cname)()
        res = alternate(g, spec)
        instrs = res.program.instrs
        model = iteration_time(instrs, res.ratios, spec).total_s
        lp = sum(comm_terms(i, spec)[0] for i in instrs if i.is_comm)
        lp += oracles.ratio_objective(ratio_problem(instrs, spec), res.ratios.row)
        assert abs(lp - model) <= 1e-12 * model, cname
        collectives += any(i.is_comm for i in instrs)
    assert collectives == 16


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
    # a program with no stage and no slope meets the closed form's condition
    g = graph_from_dict(corpus.matmul_reduce())
    ar_only = DistributedProgram(instrs=(Instruction("all_reduce", "h", operands=("h@partial",),
                                                     output="h@full", elements=16),),
                                 loss=g.loss)
    B = optimize_ratios(ar_only, g, corpus.hetero2())
    assert B == ShardingRatios.proportional_to_flops(corpus.hetero2())


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


@settings(derandomize=True, database=None, max_examples=100)
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
