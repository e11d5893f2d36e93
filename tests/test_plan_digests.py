"""Byte-identical plans: the sha256 of every plan file the corpus produces.

`tests/data/plan_digests.json` pins the bytes `shardplan plan` writes for each
corpus graph on the homog2, hetero2 and skew2 clusters with 1 and 2
segments, and for the residual chains of 1 to 3 blocks.  A change that is
meant to leave plans alone must leave every digest alone; one that moves a
plan on purpose regenerates the file with

    PYTHONPATH=src:tests python tests/test_plan_digests.py > tests/data/plan_digests.json
"""
import hashlib
import json
import pathlib

import corpus
from shardplan import alternate
from shardplan.cli import load_plan, plan_document
from shardplan.graph_ir import graph_from_dict

DIGESTS = pathlib.Path(__file__).parent / "data" / "plan_digests.json"

CLUSTERS = {"homog2": corpus.homog2, "hetero2": corpus.hetero2, "skew2": corpus.skew2}


def _graphs():
    yield from corpus.CORPUS.items()
    for blocks in (1, 2, 3):
        yield f"chain{blocks}", corpus.chain_graph(blocks)


def corpus_plans():
    """(key, graph, cluster, planned program, plan text) of every pinned plan."""
    for name, doc in _graphs():
        g = graph_from_dict(doc)
        for cname, cluster in CLUSTERS.items():
            spec = cluster()
            for segments in (1, 2):
                result = alternate(g, spec, segments=segments)
                text = json.dumps(plan_document(g, spec, result), indent=2) + "\n"
                yield f"{name}.{cname}.s{segments}", g, spec, result.program, text


def plan_digests() -> dict[str, str]:
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, _, _, _, text in corpus_plans()}


def test_plan_bytes_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = plan_digests()
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"plan bytes changed for {moved}"


def test_every_pinned_plan_loads_to_its_program():
    count = 0
    for key, g, spec, program, text in corpus_plans():
        loaded = load_plan(json.loads(text), g, spec.m).program
        assert loaded == program, key
        assert json.dumps(loaded.to_json()) == json.dumps(program.to_json()), key
        count += 1
    assert count == len(json.loads(DIGESTS.read_text()))


if __name__ == "__main__":
    print(json.dumps(plan_digests(), indent=1, sort_keys=True))
