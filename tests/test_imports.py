"""Planning runs on the standard library alone: `plan` and `enumerate` never
import numpy, which only the equivalence check behind `verify` needs, and
the package names that live in the interpreter are bound on first access.
Nor do they import `logging` or `dataclasses`, whose imports cost
milliseconds on every call."""
import json
import os
import subprocess
import sys

import pytest

import corpus
import shardplan
from shardplan import DistributedProgram, build_shard_table, interpreter
from shardplan.cost_model import single_segment
from shardplan.graph_ir import graph_from_dict

_CLI_RUN = """\
import sys
from shardplan.cli import main
graph, cluster, plan = sys.argv[1:]
assert "numpy" not in sys.modules, "importing the CLI loaded numpy"
assert "dataclasses" not in sys.modules, "importing the CLI loaded dataclasses"
assert "logging" not in sys.modules, "importing the CLI loaded logging"
assert main(["plan", graph, cluster, "-o", plan]) == 0
assert main(["enumerate", graph, cluster]) == 0
assert main(["enumerate", graph, cluster, "--ratios", plan]) == 0
assert "numpy" not in sys.modules, "plan or enumerate loaded numpy"
assert "dataclasses" not in sys.modules, "plan or enumerate loaded dataclasses"
assert "logging" not in sys.modules, "plan or enumerate loaded logging"
assert main(["verify", plan, graph, cluster]) == 0
assert "numpy" in sys.modules
"""


def test_plan_and_enumerate_never_import_numpy(tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(corpus.matmul_reduce()))
    cluster = tmp_path / "hetero2.json"
    cluster.write_text(json.dumps(corpus.HETERO2))
    src = os.path.dirname(os.path.dirname(shardplan.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _CLI_RUN, str(graph), str(cluster),
                           str(tmp_path / "plan.json")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "equivalence: 5 trials" in proc.stdout


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from shardplan import *", namespace)
    missing = [name for name in shardplan.__all__ if name not in namespace]
    assert not missing
    with pytest.raises(AttributeError):
        shardplan.no_such_name


def test_package_errors_are_the_ones_the_interpreter_raises():
    g = graph_from_dict(corpus.matmul_reduce())
    program = DistributedProgram(instrs=(), loss=g.loss)
    table = build_shard_table(g, shardplan.ShardingRatios.uniform(2), single_segment(g))
    with pytest.raises(shardplan.ExecutionError):
        interpreter.check_equivalence(g, program, 2, table, trials=1)

    doc = corpus.matmul_reduce()
    for node in doc["nodes"]:
        if node["id"] in ("x", "h"):
            node["shape"][0] = 2**62
    big = graph_from_dict(doc)
    with pytest.raises(shardplan.GraphTooLargeError):
        interpreter.check_equivalence(big, program, 2, {}, trials=1)
    assert shardplan.check_equivalence is interpreter.check_equivalence
