import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import corpus
import shardplan
from shardplan import DistributedProgram, ShardingRatios, build_shard_table, iteration_time
from shardplan.cli import main
from shardplan.graph_ir import graph_from_dict

DATA = pathlib.Path(__file__).parent / "data"

PLAN_KEYS = ["schema_version", "graph_sha256", "devices", "segments",
             "segment_of", "ratios", "shard_table", "program", "estimate", "loop"]


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {
        "graph": _write(tmp_path, "graph.json", corpus.matmul_reduce()),
        "homog2": _write(tmp_path, "homog2.json", corpus.HOMOG2),
        "homog3": _write(tmp_path, "homog3.json", corpus.HOMOG3),
        "hetero2": _write(tmp_path, "hetero2.json", corpus.HETERO2),
        "tmp": tmp_path,
    }


def _plan(files, cluster="hetero2", name="plan.json", *extra):
    out = str(files["tmp"] / name)
    rc = main(["plan", files["graph"], files[cluster], "-o", out, *extra])
    assert rc == 0
    return out


def test_plan_document_layout(files, capsys):
    out = _plan(files)
    stdout = capsys.readouterr().out
    assert "cost: 5.76e-10 s" in stdout
    assert "rounds: 1 (fixed_point), 2 expansions, optimal" in stdout
    doc = json.loads(open(out).read())
    assert list(doc) == PLAN_KEYS
    assert doc["schema_version"] == 2
    assert doc["devices"] == 2 and doc["segments"] == 1
    assert doc["ratios"] == [[0.7, 0.3]]
    assert doc["shard_table"] == {"h:0": [6, 2], "x:0": [6, 2]}
    assert doc["estimate"] == {"total_s": 5.76e-10}
    assert doc["loop"] == {"optimal": True}
    restored = [i["kind"] for i in doc["program"]["instrs"]]
    assert "matmul" in restored and "reduce" in restored


def test_plan_is_byte_deterministic(files, capsys):
    a = open(_plan(files, name="a.json")).read()
    b = open(_plan(files, name="b.json")).read()
    assert a == b
    # and stable across releases, byte for byte
    golden = (DATA / "matmul_reduce.hetero2.plan.json").read_text()
    assert a == golden
    capsys.readouterr()


def test_plan_to_stdout_keeps_notes_on_stderr(files, capsys):
    rc = main(["plan", files["graph"], files["homog2"]])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert list(doc) == PLAN_KEYS
    assert "cost:" in captured.err and "wall:" in captured.err


def test_verify_accepts_own_plan(files, capsys):
    out = _plan(files)
    rc = main(["verify", out, files["graph"], files["hetero2"]])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "estimate: ok" in stdout
    assert "shard_table: ok" in stdout
    assert "equivalence: 5 trials" in stdout and "ok" in stdout


def test_verify_flags_tampered_estimate(files, capsys):
    out = _plan(files)
    doc = json.loads(open(out).read())
    doc["estimate"]["total_s"] *= 2
    bad = _write(files["tmp"], "bad.json", doc)
    assert main(["verify", bad, files["graph"], files["hetero2"]]) == 1
    assert "estimate: MISMATCH" in capsys.readouterr().err


def test_verify_flags_tampered_shard_table(files, capsys):
    out = _plan(files)
    doc = json.loads(open(out).read())
    doc["shard_table"]["x:0"] = [5, 3]
    bad = _write(files["tmp"], "bad.json", doc)
    assert main(["verify", bad, files["graph"], files["hetero2"]]) == 1
    assert "shard_table: MISMATCH" in capsys.readouterr().err


def test_verify_flags_wrong_results(files, capsys):
    graph = _write(files["tmp"], "param_only.json", corpus.param_only())
    out = str(files["tmp"] / "p.json")
    assert main(["plan", graph, files["hetero2"], "-o", out]) == 0
    doc = json.loads(open(out).read())
    tags = [i for i in doc["program"]["instrs"] if i.get("tag") == "tanh"]
    assert tags            # same shapes and flops, different values
    tags[0]["tag"] = "exp"
    index = doc["program"]["instrs"].index(tags[0])
    bad = _write(files["tmp"], "bad.json", doc)
    capsys.readouterr()
    # the graph's rules derive no exp here, so the plan is refused at load
    assert main(["verify", bad, graph, files["hetero2"]]) == 2
    assert capsys.readouterr().err.startswith(f"error: plan field program.instrs[{index}]:")


def test_verify_flags_program_that_does_not_run(files, capsys):
    doc = json.loads(open(_plan(files)).read())
    del doc["program"]["instrs"][0]        # well formed, but reads w@full unmade
    bad = _write(files["tmp"], "bad.json", doc)
    capsys.readouterr()
    assert main(["verify", bad, files["graph"], files["hetero2"]]) == 1
    assert "equivalence: MISMATCH (the program does not run" in capsys.readouterr().err


def test_verify_rejects_mismatched_inputs(files, capsys):
    out = _plan(files)
    other = _write(files["tmp"], "other.json", corpus.binary_add())
    assert main(["verify", out, other, files["hetero2"]]) == 2
    assert "different graph" in capsys.readouterr().err

    assert main(["verify", out, files["graph"], files["homog3"]]) == 2
    assert "devices" in capsys.readouterr().err

    doc = json.loads(open(out).read())
    doc["schema_version"] = 99
    bad = _write(files["tmp"], "bad.json", doc)
    assert main(["verify", bad, files["graph"], files["hetero2"]]) == 2
    assert "schema_version" in capsys.readouterr().err


def test_malformed_inputs_exit_2(files, capsys):
    broken = _write(files["tmp"], "broken.json", "{not json")
    assert main(["plan", broken, files["homog2"]]) == 2
    assert main(["plan", files["graph"], broken]) == 2
    assert main(["plan", str(files["tmp"] / "missing.json"), files["homog2"]]) == 2
    empty = _write(files["tmp"], "empty.json", {"nodes": [], "loss": "l"})
    assert main(["plan", empty, files["homog2"]]) == 2
    # valid JSON whose flops parse to an infinity
    overflow = json.dumps({**corpus.HOMOG2, "devices": [{"flops": "F"}] * 2})
    overflow = _write(files["tmp"], "inf.json", overflow.replace('"F"', "1e999"))
    assert main(["plan", files["graph"], overflow]) == 2
    assert "devices[0]" in capsys.readouterr().err
    # integer extents whose element count does not fit a float
    huge = _write(files["tmp"], "huge.json", _rows(10**400))
    for argv in (["plan", huge, files["homog2"]],
                 ["verify", _plan(files), huge, files["hetero2"]],
                 ["enumerate", huge, files["homog2"]]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: nodes[0] (id='x'):"), err
    # a byte count beyond float range: one element's, or one tensor's
    wide = _write(files["tmp"], "wide.json", {**corpus.HOMOG2, "bytes_per_element": 10**400})
    for argv in (["plan", files["graph"], wide], ["enumerate", files["graph"], wide]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: 'bytes_per_element' must be"), err
    mix = _write(files["tmp"], "mix.json", corpus.mix_graph(2, 32, 32))
    wide = _write(files["tmp"], "wide.json", {**corpus.HETERO2, "bytes_per_element": 10**307})
    for argv in (["plan", mix, wide], ["plan", files["graph"], wide],
                 ["verify", _plan(files), files["graph"], wide],
                 ["enumerate", files["graph"], wide]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: tensor ") and "float range" in err, err


def _rows(n):
    """matmul_reduce with n rows of x and h."""
    doc = corpus.matmul_reduce()
    for node in doc["nodes"]:
        if node["id"] in ("x", "h"):
            node["shape"][0] = n
    return doc


# Both sizes exceed the address space, so numpy refuses the arrays before
# allocating anything: 2**50 rows with a MemoryError, 2**62 with a ValueError.
@pytest.mark.parametrize("rows", [2**50, 2**62])
def test_verify_refuses_graph_too_large_to_execute(files, capsys, rows):
    graph = _write(files["tmp"], "big.json", _rows(rows))
    out = str(files["tmp"] / "big.plan.json")
    assert main(["plan", graph, files["hetero2"], "-o", out]) == 0
    capsys.readouterr()
    assert main(["verify", out, graph, files["hetero2"], "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the graph's tensors" in err, err
    assert "Traceback" not in err


def test_huge_extent_plans_and_verify_refuses_it(files, capsys):
    doc = corpus.skip_connection()
    for node in doc["nodes"]:
        if node["shape"]:
            node["shape"][0] = 10**307
    graph = _write(files["tmp"], "huge.json", doc)
    out = str(files["tmp"] / "huge.plan.json")
    assert main(["plan", graph, files["hetero2"], "-o", out]) == 0
    capsys.readouterr()
    assert main(["verify", out, graph, files["hetero2"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "the graph's tensors" in err, err
    assert "Traceback" not in err


def _run_cli(argv, timeout=60):
    """`shardplan ARGV` in a fresh process."""
    src = os.path.dirname(os.path.dirname(shardplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "shardplan.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_plan_has_no_segments_option(files):
    # In a fresh process: argparse rejects an unknown option by SystemExit.
    proc = _run_cli(["plan", files["graph"], files["hetero2"], "--segments", "2"])
    assert proc.returncode == 2, proc.stderr
    assert "--segments" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_enumerate_time_does_not_grow_with_max_len(files):
    # The enumeration stops with its last nonempty layer, so a length bound
    # far past every program prints the default answer in the default time.
    def timed(*extra):
        started = time.perf_counter()
        proc = _run_cli(["enumerate", files["graph"], files["hetero2"], *extra], timeout=30)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout, time.perf_counter() - started

    default, default_s = timed()
    far, far_s = timed("--max-len", str(10**18))
    assert far == default
    assert far_s < 2 * default_s + 1.0


def test_exhausted_budget_exits_3(files, capsys):
    assert main(["plan", files["graph"], files["homog2"], "--budget", "1"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_budget_exhausted_after_a_program_writes_a_plan_and_exits_3(files, capsys):
    graph = _write(files["tmp"], "rows.json", corpus.two_reduce_rows())
    out = str(files["tmp"] / "rows.plan.json")
    assert main(["plan", graph, files["hetero2"], "--budget", "3", "-o", out]) == 3
    captured = capsys.readouterr()
    assert "budget exhausted" in captured.out
    assert "warning: search budget exhausted; plan may be suboptimal" in captured.err
    assert json.loads(open(out).read())["loop"] == {"optimal": False}


def test_verify_plan_that_is_not_json_exits_2(files, capsys):
    bad = _write(files["tmp"], "bad.json", "{not json")
    for argv in (["verify", bad, files["graph"], files["hetero2"]],
                 ["enumerate", files["graph"], files["hetero2"], "--ratios", bad]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err == (f"error: invalid JSON in {bad} at line 1 col 2: "
                       "Expecting property name enclosed in double quotes\n"), (argv, err)


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000], ids=["not_utf8", "nested"])
def test_input_files_that_do_not_decode_exit_2(files, capsys, content):
    # bytes that are not UTF-8, and JSON nested deeper than the decoder
    # recurses, as each file argument of each command
    bad = files["tmp"] / "bad.json"
    bad.write_bytes(content)
    bad, plan = str(bad), _plan(files)
    for argv in (["plan", bad, files["homog2"]], ["plan", files["graph"], bad],
                 ["verify", bad, files["graph"], files["hetero2"]],
                 ["verify", plan, bad, files["hetero2"]],
                 ["verify", plan, files["graph"], bad],
                 ["enumerate", bad, files["homog2"]], ["enumerate", files["graph"], bad],
                 ["enumerate", files["graph"], files["hetero2"], "--ratios", bad]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert ("UTF-8" if content[0] == 0xff else "nested too deeply") in err, (argv, err)
        assert bad in err, (argv, err)


@pytest.mark.parametrize("content", ["{x", "[" * 100_000], ids=["malformed", "nested"])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["plan", "graph", "cluster"])
def test_verify_names_each_file_that_is_not_json(files, capsys, content, position):
    # the plan, graph and cluster files all word the error alike, with the path
    bad = _write(files["tmp"], "bad.json", content)
    argv = [_plan(files), files["graph"], files["hetero2"]]
    argv[position] = bad
    capsys.readouterr()
    assert main(["verify", *argv]) == 2
    where = (" at line 1 col 2: Expecting property name enclosed in double quotes"
             if content == "{x" else ": nested too deeply")
    assert capsys.readouterr().err == f"error: invalid JSON in {bad}{where}\n"


def _enumerated_minimum(files, capsys, plan):
    capsys.readouterr()
    assert main(["enumerate", files["graph"], files["hetero2"], "--ratios", plan]) == 0
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if l.startswith("minimum cost:"))
    return float(f"{float(line.split()[2]):.12g}")


def test_enumerate_confirms_plan_cost(files, capsys):
    out = _plan(files)
    doc = json.loads(open(out).read())
    assert _enumerated_minimum(files, capsys, out) == doc["estimate"]["total_s"]


def test_enumerate_confirms_multi_segment_plan_cost(files, capsys):
    # A plan holds one ratio row: a plan file with two segments, as plans
    # with several rows were written, or with two rows, is refused.
    doc = json.loads(open(_plan(files)).read())
    two_segments = dict(doc, segments=2, ratios=doc["ratios"] * 2,
                        segment_of={t: 1 + (k >= 2) for k, t in enumerate(doc["segment_of"])})
    two_rows = dict(doc, ratios=doc["ratios"] * 2)
    for bad, field in ((two_segments, "segments"), (two_rows, "ratios")):
        plan = _write(files["tmp"], "old.json", json.dumps(bad, indent=2) + "\n")
        for argv in (["verify", plan, files["graph"], files["hetero2"]],
                     ["enumerate", files["graph"], files["hetero2"], "--ratios", plan]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert err.startswith(f"error: plan field {field}: ") and err.count("\n") == 1, err
            assert not out, out


def test_enumerate_flops_ratios(files, capsys):
    assert main(["enumerate", files["graph"], files["hetero2"],
                 "--ratios", "flops"]) == 0
    assert "minimum cost:" in capsys.readouterr().out


def test_enumerate_guards_against_large_graphs(files, capsys):
    big = _write(files["tmp"], "big.json", corpus.chain_graph(2))
    assert main(["enumerate", big, files["homog2"]]) == 2
    assert "--force" in capsys.readouterr().err


def test_enumerate_reports_unreachable_loss(files, capsys):
    assert main(["enumerate", files["graph"], files["homog2"],
                 "--max-len", "1"]) == 1
    assert "no complete program" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", [
    [{"id": "x", "op": "Placeholder", "shape": []}],
    [{"id": "w", "op": "Parameter", "shape": []}],
    [{"id": "x", "op": "Placeholder", "shape": []},
     {"id": "loss", "op": "Reduce", "shape": [], "inputs": ["x"], "attrs": {"dims": "all"}}],
], ids=["placeholder", "parameter", "reduce_all"])
def test_plan_without_complete_program_exits_1(files, capsys, nodes):
    graph = _write(files["tmp"], "scalar.json", {"nodes": nodes, "loss": nodes[-1]["id"]})
    assert main(["plan", graph, files["hetero2"]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no complete program"), err
    assert "Traceback" not in err


def test_readme_verify_example_is_current(tmp_path, capsys):
    """README's graph and cluster, its pinned plan, and its `verify` output."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    graph, cluster = re.findall(r"```json\n(.*?)```", readme, re.S)[:2]
    shown = re.search(r"\$ shardplan verify plan.json graph.json cluster.json --trials 20\n"
                      r"(.*?)```", readme, re.S).group(1)
    argv = ["verify", str(DATA / "matmul_reduce.hetero2.plan.json"),
            _write(tmp_path, "graph.json", graph), _write(tmp_path, "cluster.json", cluster),
            "--trials", "20"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == shown.splitlines()


def _drop_program(doc):
    del doc["program"]


def _ratios_sum_past_one(doc):
    doc["ratios"] = [[0.8, 0.3]]


def _empty_segment_of(doc):
    doc["segment_of"] = {}


def _unknown_kind(doc):
    doc["program"]["instrs"][0]["kind"] = "teleport"


def _malformed_dist_id(doc):
    doc["program"]["instrs"][-1]["output"] = "w@foo"


def _reseal(doc):
    """Recompute the estimate for the plan's (edited) program, as `shardplan
    plan` would have written it, so that only the instructions are wrong."""
    program = DistributedProgram.from_json(doc["program"])
    ratios = ShardingRatios(rows=tuple(map(tuple, doc["ratios"])))
    total = iteration_time(program.instrs, ratios, corpus.hetero2()).total_s
    doc["estimate"]["total_s"] = float(f"{total:.12g}")


def _edit(doc, i, key, value):
    doc["program"]["instrs"][i][key] = value
    _reseal(doc)


def _gather_w(doc):
    """Shard the parameter w and all-gather it before use: a sound program
    the guarded planner never writes (it does not communicate sources)."""
    g = graph_from_dict(corpus.matmul_reduce())
    ratios = ShardingRatios(rows=tuple(map(tuple, doc["ratios"])))
    doc["shard_table"]["w:0"] = build_shard_table(g, ratios)[("w", 0)]
    doc["program"]["instrs"][0:1] = [
        {"kind": "parameter_shard", "ref": "w", "operands": [], "output": "w@shard0",
         "axis": 0, "sharded": True, "flops": 0, "elements": 0},
        {"kind": "all_gather", "ref": "w", "operands": ["w@shard0"], "output": "w@full",
         "axis": 0, "sharded": False, "flops": 0, "elements": 8},
    ]
    _reseal(doc)


def test_verify_accepts_hand_written_collective_on_a_parameter(files, capsys):
    doc = json.loads(open(_plan(files)).read())
    _gather_w(doc)
    good = _write(files["tmp"], "good.json", doc)
    capsys.readouterr()
    assert main(["verify", good, files["graph"], files["hetero2"]]) == 0
    assert "equivalence: 5 trials" in capsys.readouterr().out


def _zero_flops(doc):
    _edit(doc, 2, "flops", 0)


def _flip_sharded(doc):
    _edit(doc, 3, "sharded", False)


def _resize_collective(doc):
    _gather_w(doc)
    _edit(doc, 1, "elements", 16)


def _flops_true(doc):
    _edit(doc, 2, "flops", True)


def _flops_float(doc):
    _edit(doc, 3, "flops", 16.0)


def _estimate_nan(doc):
    doc["estimate"]["total_s"] = float("nan")


def _estimate_infinite(doc):
    doc["estimate"]["total_s"] = float("inf")


def _extra_top_level(doc):
    doc["notes"] = "hand edited"


def _extra_in_program(doc):
    doc["program"]["comment"] = ""


def _stage_estimates(doc):
    doc["estimate"]["stages"] = [{"comm_s": 0.0, "comp_s": [123.0, 123.0]}]


def _loop_telemetry(doc):
    doc["loop"]["expansions"] = -5


def _optimal_not_boolean(doc):
    doc["loop"]["optimal"] = 1


def _drop_loop(doc):
    del doc["loop"]


def _schema_1(doc):
    """The plan as schema 1 wrote it, with search telemetry and stages."""
    doc["schema_version"] = 1
    doc["estimate"]["stages"] = [{"comm_s": 0.0, "comp_s": [5.76e-10, 5.76e-10]}]
    doc["loop"] = {"rounds": 1, "reason": "fixed_point", "optimal": True, "expansions": 2}


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("damage, field", [
    (_drop_program, "program"),
    (_ratios_sum_past_one, "ratios"),
    (_empty_segment_of, "segment_of"),
    (_unknown_kind, "program.instrs[0].kind"),
    (_malformed_dist_id, "program.instrs[3].output"),
    (_zero_flops, "program.instrs[2]"),
    (_flip_sharded, "program.instrs[3]"),
    (_resize_collective, "program.instrs[1]"),
    (_flops_true, "program.instrs[2]"),
    (_flops_float, "program.instrs[3]"),
    (_estimate_nan, "estimate.total_s"),
    (_estimate_infinite, "estimate.total_s"),
    (_extra_top_level, "notes"),
    (_extra_in_program, "program.comment"),
    (_stage_estimates, "estimate.stages"),
    (_loop_telemetry, "loop.expansions"),
    (_optimal_not_boolean, "loop.optimal"),
    (_drop_loop, "loop"),
    (_schema_1, "schema_version"),
])
def test_malformed_plan_fields_exit_2(files, capsys, command, damage, field):
    doc = json.loads(open(_plan(files)).read())
    damage(doc)
    bad = _write(files["tmp"], "bad.json", doc)
    argv = (["verify", bad, files["graph"], files["hetero2"]] if command == "verify"
            else ["enumerate", files["graph"], files["hetero2"], "--ratios", bad])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    # an instruction is checked whole, so damage inside one names the instruction
    field = re.sub(r"(\[\d+\])\..*", r"\1", field)
    assert err.startswith(f"error: plan field {field}:"), err


@pytest.mark.parametrize("command, option, value", [
    ("plan", "--max-rounds", "0"),
    ("plan", "--budget", "-1"),
    ("verify", "--trials", "0"),
    ("verify", "--trials", "-3"),
    ("verify", "--seed", "-1"),
    ("enumerate", "--max-len", "-1"),
])
def test_numeric_option_out_of_range_exits_2(files, capsys, command, option, value):
    inputs = [files["graph"], files["hetero2"]]
    if command == "verify":
        inputs.insert(0, _plan(files))
    capsys.readouterr()
    assert main([command, *inputs, option, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option} "), err
    assert "Traceback" not in err
