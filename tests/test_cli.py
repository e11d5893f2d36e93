import json
import pathlib

import pytest

import corpus
from shardplan.cli import main

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
    assert "rounds: 1 (fixed_point), optimal" in stdout
    doc = json.loads(open(out).read())
    assert list(doc) == PLAN_KEYS
    assert doc["schema_version"] == 1
    assert doc["devices"] == 2 and doc["segments"] == 1
    assert doc["ratios"] == [[0.7, 0.3]]
    assert doc["shard_table"] == {"h:0": [6, 2], "x:0": [6, 2]}
    assert doc["estimate"]["total_s"] == 5.76e-10
    assert doc["loop"]["optimal"] is True
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
    bad = _write(files["tmp"], "bad.json", doc)
    assert main(["verify", bad, graph, files["hetero2"]]) == 1
    assert "equivalence" in capsys.readouterr().out


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
    capsys.readouterr()


def test_exhausted_budget_exits_3(files, capsys):
    assert main(["plan", files["graph"], files["homog2"], "--budget", "1"]) == 3
    assert "budget exhausted" in capsys.readouterr().err


def test_enumerate_confirms_plan_cost(files, capsys):
    out = _plan(files)
    doc = json.loads(open(out).read())
    rc = main(["enumerate", files["graph"], files["hetero2"], "--ratios", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if l.startswith("minimum cost:"))
    enum_cost = float(line.split()[2])
    assert float(f"{enum_cost:.12g}") == doc["estimate"]["total_s"]


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


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("damage, field", [
    (_drop_program, "program"),
    (_ratios_sum_past_one, "ratios"),
    (_empty_segment_of, "segment_of"),
    (_unknown_kind, "program.instrs[0].kind"),
    (_malformed_dist_id, "program.instrs[3].output"),
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
    assert err.startswith(f"error: plan field {field}:"), err


@pytest.mark.parametrize("command, option, value", [
    ("plan", "--segments", "99"),
    ("plan", "--segments", "0"),
    ("plan", "--segments", "-2"),
    ("plan", "--max-rounds", "0"),
    ("plan", "--budget", "-1"),
    ("verify", "--trials", "0"),
    ("verify", "--trials", "-3"),
    ("verify", "--seed", "-1"),
    ("enumerate", "--segments", "9"),
    ("enumerate", "--segments", "0"),
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
