import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import corpus
import shardplan.interpreter as interp
from oracles import check_form, equivalence_per_trial, run_checked, trial_peak
from shardplan import (ShardingRatios, alternate, build_shard_table, build_theory,
                       check_equivalence, synthesize)
from shardplan.graph_ir import GraphTooLargeError, graph_from_dict
from shardplan.interpreter import (CHUNK_ELEMENTS, ExecutionError, coll_all_gather,
                                   coll_all_reduce, coll_all_to_all,
                                   coll_reduce_scatter, eval_reference,
                                   execute_instruction, materialize_loss,
                                   random_inputs, run_distributed, run_single,
                                   slice_by_sizes)
from shardplan.theory import Instruction, all_gather, all_reduce, identity


def test_reference_eval():
    g = graph_from_dict(corpus.matmul_reduce())
    # two trials: the second doubles x, and the trials stay apart
    x = np.stack([np.ones((8, 4)), np.full((8, 4), 2.0)])
    env = eval_reference(g, {"x": x, "w": np.ones((2, 4, 2))})
    assert np.array_equal(env["h"], np.stack([np.full((8, 2), 4.0), np.full((8, 2), 8.0)]))
    assert np.array_equal(env["loss"], [64.0, 128.0])
    with pytest.raises(ExecutionError, match="no binding"):
        run_single(g, {"x": np.ones((1, 8, 4))})
    with pytest.raises(ExecutionError, match="shape"):
        run_single(g, {"x": np.ones((1, 8, 4)), "w": np.ones((1, 2, 4))})
    with pytest.raises(ExecutionError, match="shape"):       # no trial axis
        run_single(g, {"x": np.ones((8, 4)), "w": np.ones((4, 2))})
    with pytest.raises(ExecutionError, match="want \\(2, 4, 2\\)"):   # unequal batches
        run_single(g, {"x": np.ones((2, 8, 4)), "w": np.ones((3, 4, 2))})


def test_reference_eval_unary_tags():
    x = np.array([[[-1.0, 0.0], [1.0, 2.0]]])
    expected = {
        "exp": np.exp(x),
        "neg": -x,
        "relu": np.array([[[0.0, 0.0], [1.0, 2.0]]]),
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
    # one trial; the axes the primitives take are tensor axes
    a, b = np.array([[[1.0, 2.0]]]), np.array([[[3.0, 4.0]]])
    gathered = coll_all_gather([a, b], 0)
    assert len(gathered) == 2
    assert np.array_equal(gathered[0], [[[1.0, 2.0], [3.0, 4.0]]])
    assert np.array_equal(gathered[0], gathered[1])

    reduced = coll_all_reduce([a, b])
    assert np.array_equal(reduced[0], [[[4.0, 6.0]]])
    assert np.array_equal(reduced[0], reduced[1])

    rs = coll_reduce_scatter([a, b], 1, [1, 1])
    assert np.array_equal(rs[0], [[[4.0]]])
    assert np.array_equal(rs[1], [[[6.0]]])

    # row shards in, column shards out
    a2a = coll_all_to_all([a, b], 0, 1, [1, 1])
    assert np.array_equal(a2a[0], [[[1.0], [3.0]]])
    assert np.array_equal(a2a[1], [[[2.0], [4.0]]])


def test_slicing_allows_zero_size_shards():
    x = np.arange(24.0).reshape(2, 3, 4)          # two trials of a (3, 4) tensor
    parts = slice_by_sizes(x, 0, [3, 0])
    assert parts[0].shape == (2, 3, 4) and parts[1].shape == (2, 0, 4)
    assert np.array_equal(np.concatenate(parts, axis=1), x)
    # a zero-size operand flows through compute without special-casing
    assert (parts[1] @ np.ones((2, 4, 2))).shape == (2, 0, 2)
    with pytest.raises(ExecutionError, match="do not cover"):
        slice_by_sizes(x, 0, [2, 2])
    with pytest.raises(ExecutionError, match="do not cover"):
        slice_by_sizes(x, 0, [1, 1])              # the trial axis is not a tensor axis


def test_execute_instruction_sources():
    x = np.arange(32.0).reshape(1, 8, 4)
    env = {}
    execute_instruction(Instruction("placeholder", "x", output="x@full"),
                        env, 2, {"x": x}, {})
    assert all(np.array_equal(v, x) for v in env["x@full"])

    env = {}
    shard = Instruction("placeholder_shard", "x", axis=0, output="x@shard0", sharded=True)
    execute_instruction(shard, env, 2, {"x": x}, {("x", 0): [6, 2]})
    assert [v.shape for v in env["x@shard0"]] == [(1, 6, 4), (1, 2, 4)]
    assert np.array_equal(env["x@shard0"][1], x[:, 6:])
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
    env = {"x@full": [np.ones((1, 2, 3))] * 2, "w@full": [np.ones((1, 2, 3))] * 2}
    with pytest.raises(ExecutionError, match="shape mismatch"):
        execute_instruction(mm, env, 2, {}, {})


def test_check_form():
    ref = np.arange(6.0).reshape(1, 2, 3)
    halves = [ref[:, :1], ref[:, 1:]]
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
    table = build_shard_table(g, B)
    assert table == {
        ("x", 0): [6, 2], ("x", 1): [3, 1],
        ("w", 0): [3, 1], ("w", 1): [1, 1],
        ("h", 0): [6, 2], ("h", 1): [1, 1],
    }
    skew = ShardingRatios.proportional_to_flops(corpus.skew2())
    lopsided = build_shard_table(g, skew)
    assert lopsided[("w", 1)] == [2, 0]          # the slow device gets nothing


def test_distributed_matches_reference():
    g = graph_from_dict(corpus.matmul_reduce())
    B = ShardingRatios.uniform(2)
    res = synthesize(g, build_theory(g, 2), corpus.homog2(), B)
    table = build_shard_table(g, B)
    inputs = {"x": np.ones((1, 8, 4)), "w": np.ones((1, 4, 2))}
    losses = run_distributed(res.program, 2, inputs, table)
    assert [v.tolist() for v in losses] == [[64.0], [64.0]]
    # the checked run re-checks every declared property against the reference
    checked = run_checked(res.program, 2, inputs, table, eval_reference(g, inputs))
    assert [v.tolist() for v in checked] == [[64.0], [64.0]]
    report = check_equivalence(g, res.program, 2, table, trials=5)
    assert report.passed and report.trials == 5
    assert report.max_rel_err <= 1e-9
    vacuous = check_equivalence(g, res.program, 2, table, trials=0)
    assert vacuous.passed and vacuous.max_rel_err == 0.0
    with pytest.raises(ValueError, match="non-negative"):
        check_equivalence(g, res.program, 2, table, trials=-1)


def test_equivalence_flags_wrong_results():
    g = graph_from_dict(corpus.param_only())
    spec = corpus.hetero2()
    res = alternate(g, spec)
    instrs = list(res.program.instrs)
    i = next(i for i, instr in enumerate(instrs) if instr.tag == "tanh")
    instrs[i] = instrs[i]._replace(tag="exp")     # same shapes and flops, other values
    table = build_shard_table(g, res.ratios)
    assert check_equivalence(g, res.program, spec.m, table).passed
    swapped = res.program._replace(instrs=tuple(instrs))
    assert check_equivalence(g, swapped, spec.m, table).passed is False


def test_random_inputs_cover_sources_only():
    g = graph_from_dict(corpus.matmul_reduce())
    values = random_inputs(g, np.random.default_rng(7), 3)
    assert set(values) == {"x", "w"}
    assert values["x"].shape == (3, 8, 4)
    assert values["w"].shape == (3, 4, 2)
    drawn = np.concatenate([value.ravel() for value in values.values()])
    assert np.all(drawn >= -1.0) and np.all(drawn < 1.0)
    assert drawn.min() < -0.5 and drawn.max() > 0.5     # both halves, not [0, 1)
    # trial-major: one generator drawing 3 trials matches a twin drawing 1, then 2
    twin = np.random.default_rng(7)
    first, rest = random_inputs(g, twin, 1), random_inputs(g, twin, 2)
    for source, value in values.items():
        assert np.array_equal(value, np.concatenate([first[source], rest[source]]))


def _planned(cases):
    for g, spec in cases:
        res = alternate(g, spec)
        yield g, res.program, spec.m, build_shard_table(g, res.ratios)


def _mix_cases():
    """Two batch-contracting graphs on slowhet2 whose chunks hold fewer
    trials than a check runs."""
    return [(graph_from_dict(corpus.mix_graph(2, batch, width)), corpus.slowhet2())
            for batch, width in ((64, 64), (24, 32))]


def _plans():
    """(graph, program, m, shard table) for every corpus graph on homog2,
    hetero2 and skew2, and for the two `_mix_cases`."""
    cases = [(g, spec) for _, g in corpus.corpus_graphs()
             for spec in (corpus.homog2(), corpus.hetero2(), corpus.skew2())]
    return _planned(cases + _mix_cases())


def _elements(g):
    return sum(math.prod(n.shape) for n in g.nodes)


def _chunk(g, program, m, trials):
    """Trials a pass of the check runs: all of them when every tensor of
    every trial fits the budget, else as many as the live peak lets fit."""
    if trials * _elements(g) <= interp.CHUNK_ELEMENTS:
        return max(1, trials)
    return max(1, interp.CHUNK_ELEMENTS // trial_peak(g, program, m))


def test_batched_check_matches_per_trial_oracle(monkeypatch):
    chunks = set()
    for g, program, m, table in _plans():
        for trials in (1, 5, 20, 23):
            want = equivalence_per_trial(g, program, m, table, trials=trials, seed=3)
            # the default budget, then three live peaks, so every graph's
            # checks of 5 or more trials run three trials a pass and cross
            # chunk boundaries
            for budget in (CHUNK_ELEMENTS, 3 * trial_peak(g, program, m)):
                monkeypatch.setattr(interp, "CHUNK_ELEMENTS", budget)
                chunks.add(_chunk(g, program, m, trials))
                got = check_equivalence(g, program, m, table, trials=trials, seed=3)
                assert got.max_rel_err == want.max_rel_err, (g.loss, trials, budget)
                assert got.passed == want.passed
                assert got.trials == trials
                assert got.passed
    # 64x64 runs one trial per pass, 24x32 nine, so 23 trials end on a short chunk
    assert {1, 3, 9} <= chunks


def test_check_runs_one_interpreter_pass_per_chunk(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(len(next(iter(args[2].values()))))   # trials in the batch
        return run_distributed(*args)

    monkeypatch.setattr(interp, "run_distributed", counting)
    spec = corpus.slowhet2()
    for name, doc in (("matmul_reduce", corpus.matmul_reduce()),
                      ("mix24x32", corpus.mix_graph(2, 24, 32))):
        g = graph_from_dict(doc)
        res = alternate(g, spec)
        table = build_shard_table(g, res.ratios)
        for trials in (0, 1, 20, 23):
            calls.clear()
            assert check_equivalence(g, res.program, spec.m, table, trials=trials).passed
            chunk = _chunk(g, res.program, spec.m, trials)
            full, short = divmod(trials, chunk)
            assert calls == [chunk] * full + [short] * (short > 0), (name, trials)


def _memory_cases():
    """The `_mix_cases`, and an eight-device chain whose full tensors count
    eight copies."""
    return _planned(_mix_cases() + [(graph_from_dict(corpus.chain_graph(3)),
                                     corpus.hetero8())])


def test_live_peak_matches_the_simulated_walks():
    # gram's plan on slow2 all-gathers: one shared result, not m copies
    gathered = _planned([(graph_from_dict(corpus.gram()), corpus.slow2())])
    for g, program, m, _ in itertools.chain(_plans(), _memory_cases(), gathered):
        assert interp.liveness(g, program, m).peak == trial_peak(g, program, m), (g.loss, m)


def test_warm_check_stays_within_its_chunk_budget():
    # A pass holds at most CHUNK_ELEMENTS live float64 elements by the
    # count; allow a quarter more for numpy's temporaries and the check's
    # own scratch arrays.
    for g, program, m, table in _memory_cases():
        check_equivalence(g, program, m, table, trials=20)
        tracemalloc.start()
        try:
            check_equivalence(g, program, m, table, trials=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * CHUNK_ELEMENTS * 5 // 4, (len(g.nodes), m, peak)


def test_check_refuses_a_trial_past_physical_memory(monkeypatch):
    g, program, m, table = next(_planned(_mix_cases()[1:]))
    peak = trial_peak(g, program, m)
    sysconf = os.sysconf

    def machine(pages):
        sizes = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(os, "sysconf", lambda name: sizes.get(name) or sysconf(name))

    machine(peak)                       # exactly one trial's peak fits
    assert check_equivalence(g, program, m, table, trials=20).passed
    machine(peak - 1)
    tracemalloc.start()
    try:
        with pytest.raises(GraphTooLargeError, match="do not fit in memory"):
            check_equivalence(g, program, m, table, trials=20)
        allocated = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert allocated < 8 * peak           # refused before drawing a trial
    # a check that fits the budget in one pass never asks
    assert check_equivalence(g, program, m, table, trials=1).passed


@pytest.mark.parametrize("bad_trials", [[2], [0, 1, 2, 3, 4]])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nan_or_infinite_losses_fail_the_check(monkeypatch, bad_trials, bad):
    g = graph_from_dict(corpus.matmul_reduce())
    B = ShardingRatios.uniform(2)
    res = synthesize(g, build_theory(g, 2), corpus.homog2(), B)
    table = build_shard_table(g, B)

    def corrupted(*args):
        losses = [v.copy() for v in run_distributed(*args)]
        losses[1][bad_trials] = bad
        return losses

    monkeypatch.setattr(interp, "run_distributed", corrupted)
    report = check_equivalence(g, res.program, 2, table, trials=5)
    assert report.passed is False
    if math.isnan(bad):
        assert math.isnan(report.max_rel_err)
    else:
        assert report.max_rel_err == math.inf

