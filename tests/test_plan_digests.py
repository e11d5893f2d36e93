"""Byte-identical plans: the sha256 of every plan file the corpus produces.

`tests/data/plan_digests.json` pins the bytes `shardplan plan` writes for each
corpus graph on the homog2, hetero2 and skew2 clusters with 1 and 2
segments, and for the residual chains of 1 to 3 blocks.  A change that is
meant to leave plans alone must leave every digest alone; one that moves a
plan on purpose regenerates the file with

    PYTHONPATH=src:tests python tests/test_plan_digests.py > tests/data/plan_digests.json

None of those plans holds a collective, so `COLLECTIVE_PINS` adds three
batch-contracting `mix_graph` plans whose answers do, and `DOMINANCE_PINS`
two hetero2 plans whose searches drop dominated nodes.  Their digests cover
the plan without its `loop` object, so they pin the answer and not the
search effort spent finding it.
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


# (batch, width, cluster): (collective the plan must use, sha256 of the plan
# document without "loop").
COLLECTIVE_PINS = {
    (32, 32, "homog2"): (
        "reduce_scatter", "936d3bb330d5b405f4278120c81068aff15e39159b8693988ee0648839b46bf6"),
    # reduce_scatter of h2 here and all_gather of x1 cost the same to 1 ulp
    # (within OPTIMALITY_MARGIN); the search keeps whichever it completes first
    (64, 64, "slowhet2"): (
        "reduce_scatter", "7dbc2f09ac8f35b763c17538cdc0d8e4c25acde3f27ab217d245b568f1611502"),
    (24, 32, "slowhet2"): (
        "reduce_scatter", "0a1fd3c8476d35f2f4ed9ef5ae801c152085c9e5bc17a47025cb2b122444271e"),
}

# (batch, width, cluster): sha256 of the plan document without "loop".  Both
# searches drop dominated nodes in every synthesis call; neither final plan
# holds a collective.
DOMINANCE_PINS = {
    (32, 32, "hetero2"): "f36eaa295d11644d61d925103a33864d1458955fe43474243a13808ef2d85995",
    (64, 64, "hetero2"): "894bb6913fda9834dca6c9bb251854ac77c8baf8d3013d682e2660d2a0e2793b",
}


def mix_answer(batch: int, width: int, cname: str) -> dict:
    """The one-segment plan document of a 2-block `mix_graph`, without its
    `loop` object, which must report an optimal search."""
    g = graph_from_dict(corpus.mix_graph(2, batch, width))
    spec = getattr(corpus, cname)()
    doc = plan_document(g, spec, alternate(g, spec))
    assert doc.pop("loop")["optimal"], (batch, width, cname)
    return doc


def answer_digest(doc: dict) -> str:
    return hashlib.sha256((json.dumps(doc, indent=2) + "\n").encode()).hexdigest()


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


def test_collective_forcing_plans_match_pinned_digests():
    for (batch, width, cname), (collective, digest) in COLLECTIVE_PINS.items():
        key = f"mix{batch}x{width}@{cname}"
        doc = mix_answer(batch, width, cname)
        assert collective in {i["kind"] for i in doc["program"]["instrs"]}, key
        assert answer_digest(doc) == digest, key


def test_dominance_pruned_plans_match_pinned_digests():
    for (batch, width, cname), digest in DOMINANCE_PINS.items():
        assert answer_digest(mix_answer(batch, width, cname)) == digest, \
            f"mix{batch}x{width}@{cname}"


if __name__ == "__main__":
    print(json.dumps(plan_digests(), indent=1, sort_keys=True))
