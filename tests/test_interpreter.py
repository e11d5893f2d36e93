from dataclasses import replace

import numpy as np
import pytest

import corpus
from oracles import check_form, run_checked
from shardplan import (ShardingRatios, alternate, build_shard_table, build_theory,
                       check_equivalence, synthesize)
from shardplan.cost_model import single_segment
from shardplan.graph_ir import graph_from_dict
from shardplan.interpreter import (ExecutionError, coll_all_gather,
                                   coll_all_reduce, coll_all_to_all,
                                   coll_reduce_scatter, eval_reference,
                                   execute_instruction, materialize_loss,
                                   random_inputs, run_distributed, run_single,
                                   slice_by_sizes)
from shardplan.theory import Instruction, all_gather, all_reduce, identity


def test_reference_eval():
    g = graph_from_dict(corpus.matmul_reduce())
    env = eval_reference(g, {"x": np.ones((8, 4)), "w": np.ones((4, 2))})
    assert np.array_equal(env["h"], np.full((8, 2), 4.0))
    assert env["loss"] == 64.0
    with pytest.raises(ExecutionError, match="no binding"):
        run_single(g, {"x": np.ones((8, 4))})
    with pytest.raises(ExecutionError, match="shape"):
        run_single(g, {"x": np.ones((8, 4)), "w": np.ones((2, 4))})


def test_reference_eval_unary_tags():
    x = np.array([[-1.0, 0.0], [1.0, 2.0]])
    expected = {
        "exp": np.exp(x),
        "neg": -x,
        "relu": np.array([[0.0, 0.0], [1.0, 2.0]]),
        "sigmoid": 1.0 / (1.0 + np.exp(-x)),
        "tanh": np.tanh(x),
    }
    for tag, want in expected.items():
        doc = {"nodes": [
            {"id": "x", "op": "Placeholder", "shape": [2, 2]},
            {"id": "u", "op": "ElemwiseUnary", "inputs": ["x"], "attrs": {"tag": tag}},
            {"id": "loss", "op": "Reduce", "inputs": ["u"], "attrs": {"dims": "all"}},
        ], "loss": "loss"}
        env = eval_reference(graph_from_dict(doc), {"x": x})
        assert np.allclose(env["u"], want), tag


def test_collective_primitives():
    a, b = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
    gathered = coll_all_gather([a, b], 0)
    assert len(gathered) == 2
    assert np.array_equal(gathered[0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(gathered[0], gathered[1])

    reduced = coll_all_reduce([a, b])
    assert np.array_equal(reduced[0], [[4.0, 6.0]])
    assert np.array_equal(reduced[0], reduced[1])

    rs = coll_reduce_scatter([a, b], 1, [1, 1])
    assert np.array_equal(rs[0], [[4.0]])
    assert np.array_equal(rs[1], [[6.0]])

    # row shards in, column shards out
    a2a = coll_all_to_all([a, b], 0, 1, [1, 1])
    assert np.array_equal(a2a[0], [[1.0], [3.0]])
    assert np.array_equal(a2a[1], [[2.0], [4.0]])


def test_slicing_allows_zero_size_shards():
    x = np.arange(12.0).reshape(3, 4)
    parts = slice_by_sizes(x, 0, [3, 0])
    assert parts[0].shape == (3, 4) and parts[1].shape == (0, 4)
    assert np.array_equal(np.concatenate(parts, axis=0), x)
    # a zero-size operand flows through compute without special-casing
    assert (parts[1] @ np.ones((4, 2))).shape == (0, 2)
    with pytest.raises(ExecutionError, match="do not cover"):
        slice_by_sizes(x, 0, [2, 2])


def test_execute_instruction_sources():
    x = np.arange(32.0).reshape(8, 4)
    env = {}
    execute_instruction(Instruction("placeholder", "x", output="x@full"),
                        env, 2, {"x": x}, {})
    assert all(np.array_equal(v, x) for v in env["x@full"])

    env = {}
    shard = Instruction("placeholder_shard", "x", axis=0, output="x@shard0", sharded=True)
    execute_instruction(shard, env, 2, {"x": x}, {("x", 0): [6, 2]})
    assert [v.shape for v in env["x@shard0"]] == [(6, 4), (2, 4)]
    with pytest.raises(ExecutionError, match="shard table lacks"):
        execute_instruction(shard, {}, 2, {"x": x}, {})
    with pytest.raises(ExecutionError, match="2 devices"):
        execute_instruction(shard, {}, 2, {"x": x}, {("x", 0): [8]})


def test_execute_instruction_errors():
    mm = Instruction("matmul", "h", operands=("x@full", "w@full"), output="h@full")
    with pytest.raises(ExecutionError, match="unrealized"):
        execute_instruction(mm, {}, 2, {}, {})
    bad = Instruction("broadcast", "x", output="x@full")
    with pytest.raises(ExecutionError, match="unsupported"):
        execute_instruction(bad, {}, 2, {"x": np.ones(2)}, {})
    env = {"x@full": [np.ones((2, 3))] * 2, "w@full": [np.ones((2, 3))] * 2}
    with pytest.raises(ExecutionError, match="shape mismatch"):
        execute_instruction(mm, env, 2, {}, {})


def test_check_form():
    ref = np.arange(6.0).reshape(2, 3)
    halves = [ref[:1], ref[1:]]
    assert check_form(all_gather("t", 0), halves, ref)
    assert not check_form(all_gather("t", 1), halves, ref)
    assert check_form(identity("t"), [ref, ref.copy()], ref)
    assert not check_form(identity("t"), [ref, ref + 1.0], ref)
    assert check_form(all_reduce("t"), [0.25 * ref, 0.75 * ref], ref)
    # exact by default, tolerant when asked
    jittered = [ref + 1e-12, np.zeros_like(ref)]
    assert not check_form(all_reduce("t"), jittered, ref)
    assert check_form(all_reduce("t"), jittered, ref, rtol=1e-9)
    from shardplan.theory import not_communicated
    with pytest.raises(ValueError):
        check_form(not_communicated("t"), [ref], ref)


def test_materialize_loss():
    parts = [np.float64(2.0), np.float64(3.0)]
    out = materialize_loss({"loss@partial": parts}, "loss", 2)
    assert [float(v) for v in out] == [5.0, 5.0]
    full = materialize_loss({"loss@full": parts}, "loss", 2)
    assert [float(v) for v in full] == [2.0, 3.0]
    with pytest.raises(ExecutionError):
        materialize_loss({}, "loss", 2)


def test_shard_table_rounds_each_axis():
    g = graph_from_dict(corpus.matmul_reduce())
    B = ShardingRatios.proportional_to_flops(corpus.hetero2())
    table = build_shard_table(g, B, single_segment(g))
    assert table == {
        ("x", 0): [6, 2], ("x", 1): [3, 1],
        ("w", 0): [3, 1], ("w", 1): [1, 1],
        ("h", 0): [6, 2], ("h", 1): [1, 1],
    }
    skew = ShardingRatios.proportional_to_flops(corpus.skew2())
    lopsided = build_shard_table(g, skew, single_segment(g))
    assert lopsided[("w", 1)] == [2, 0]          # the slow device gets nothing


def test_distributed_matches_reference():
    g = graph_from_dict(corpus.matmul_reduce())
    B = ShardingRatios.uniform(2)
    res = synthesize(g, build_theory(g, 2), corpus.homog2(), B)
    table = build_shard_table(g, B, single_segment(g))
    inputs = {"x": np.ones((8, 4)), "w": np.ones((4, 2))}
    losses = run_distributed(res.program, 2, inputs, table)
    assert [float(v) for v in losses] == [64.0, 64.0]
    # the checked run re-checks every declared property against the reference
    checked = run_checked(res.program, 2, inputs, table, eval_reference(g, inputs))
    assert [float(v) for v in checked] == [64.0, 64.0]
    report = check_equivalence(g, res.program, 2, table, trials=5)
    assert report.passed and report.trials == 5
    assert report.max_rel_err <= 1e-9
    vacuous = check_equivalence(g, res.program, 2, table, trials=0)
    assert vacuous.passed and vacuous.max_rel_err == 0.0


def test_equivalence_flags_wrong_results():
    g = graph_from_dict(corpus.param_only())
    spec = corpus.hetero2()
    res = alternate(g, spec)
    instrs = list(res.program.instrs)
    i = next(i for i, instr in enumerate(instrs) if instr.tag == "tanh")
    instrs[i] = replace(instrs[i], tag="exp")     # same shapes and flops, other values
    table = build_shard_table(g, res.ratios, res.assignment)
    assert check_equivalence(g, res.program, spec.m, table).passed
    swapped = replace(res.program, instrs=tuple(instrs))
    assert check_equivalence(g, swapped, spec.m, table).passed is False


def test_random_inputs_cover_sources_only():
    g = graph_from_dict(corpus.matmul_reduce())
    rng = np.random.default_rng(7)
    values = random_inputs(g, rng)
    assert set(values) == {"x", "w"}
    assert values["x"].shape == (8, 4)
    assert values["w"].shape == (4, 2)
