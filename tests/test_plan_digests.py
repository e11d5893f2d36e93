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
from shardplan.cli import plan_document
from shardplan.graph_ir import graph_from_dict

DIGESTS = pathlib.Path(__file__).parent / "data" / "plan_digests.json"

CLUSTERS = {"homog2": corpus.homog2, "hetero2": corpus.hetero2, "skew2": corpus.skew2}


def _graphs():
    yield from corpus.CORPUS.items()
    for blocks in (1, 2, 3):
        yield f"chain{blocks}", corpus.chain_graph(blocks)


def plan_digests() -> dict[str, str]:
    out = {}
    for name, doc in _graphs():
        g = graph_from_dict(doc)
        for cname, cluster in CLUSTERS.items():
            spec = cluster()
            for segments in (1, 2):
                plan = plan_document(g, spec, alternate(g, spec, segments=segments))
                text = json.dumps(plan, indent=2) + "\n"
                out[f"{name}.{cname}.s{segments}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_plan_bytes_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = plan_digests()
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"plan bytes changed for {moved}"


if __name__ == "__main__":
    print(json.dumps(plan_digests(), indent=1, sort_keys=True))
