"""Byte-identical plans: the sha256 of every plan file the corpus produces.

`tests/data/plan_digests.json` pins the bytes `shardplan plan` writes for each
corpus graph on the homog2, hetero2, skew2, hetero4 and hetero8 clusters,
for the residual chains of 1 to 3 blocks on the three
2-device clusters, and for five `mix_graph` plans (`MIX_PINS`).  Every key
ends in `.s1`, the one segment of every plan.
A plan file holds the answer and not the search effort spent finding it, so
a change that is meant to leave answers alone must leave every digest alone.

`tests/data/ratio_digests.json` pins, for the same plans, the sha256 of every
ratio row `optimize_ratios` returns while `alternate` plans them, written in
`float.hex`: a row can move by an ulp and leave the plan's bytes alone.  The
4- and 8-device pins hold rows that no 2-device LP forms.  A change that
moves plans or rows on purpose regenerates both files with

    PYTHONPATH=src python tests/test_plan_digests.py

which writes the search counts and the enumeration digests too.

`tests/data/search_counts.json` pins the search's effort behind the same
plans: the expansions, generated and purged nodes of each plan's first
`synthesize` call.  The plan bytes hold only the answer, so a change to the
search order that happens to keep every plan would go by without them.

`tests/data/enumeration_digests.json` pins the whole answer of
`enumerate_programs` (`ENUMERATION_CASES`): the sha256 of its cost in
`float.hex`, its state and complete-state counts and its program as canonical
JSON.  The counts alone would let a changed tie-break of the program go by.

None of the corpus plans holds a collective, so three of the `mix_graph`
plans pin the collective each must use.  The two hetero2 ones are plans
whose searches drop dominated nodes in every synthesis call.
"""
import hashlib
import json
import pathlib

import pytest

import corpus
from shardplan import ShardingRatios, alternate, build_theory, optimize_ratios
from shardplan.cli import load_plan, plan_document
from shardplan.graph_ir import graph_from_dict
from shardplan.synthesizer import SearchConfig, enumerate_programs, synthesize

DIGESTS = pathlib.Path(__file__).parent / "data" / "plan_digests.json"
RATIO_DIGESTS = DIGESTS.with_name("ratio_digests.json")
ENUMERATION_DIGESTS = DIGESTS.with_name("enumeration_digests.json")
SEARCH_COUNTS = DIGESTS.with_name("search_counts.json")

CLUSTERS = ("homog2", "hetero2", "skew2")
WIDE_CLUSTERS = ("hetero4", "hetero8")

# (batch, width, cluster) of a 2-block `mix_graph`: the collective its plan
# must use, or None.
MIX_PINS = {
    (32, 32, "homog2"): "reduce_scatter",
    # reduce_scatter of h2 here and all_gather of x1 cost the same to 1 ulp
    # (within OPTIMALITY_MARGIN); the search keeps whichever it completes first
    (64, 64, "slowhet2"): "reduce_scatter",
    (24, 32, "slowhet2"): "reduce_scatter",
    (32, 32, "hetero2"): None,
    (64, 64, "hetero2"): None,
}


def _graphs():
    """(key prefix, graph document, cluster names)."""
    for name, doc in corpus.CORPUS.items():
        yield name, doc, CLUSTERS + WIDE_CLUSTERS
    for blocks in (1, 2, 3):
        yield f"chain{blocks}", corpus.chain_graph(blocks), CLUSTERS
    for (batch, width, cname) in MIX_PINS:
        yield f"mix{batch}x{width}", corpus.mix_graph(2, batch, width), (cname,)


def pinned_plans():
    """(key, graph, cluster, planned program, plan text, ratio rows, search
    counts) of every pinned plan; the rows are those of each
    `optimize_ratios` call, in `float.hex`, one line per row, and the counts
    are the first synthesis's [expansions, generated, purged]."""
    for name, doc, cnames in _graphs():
        g = graph_from_dict(doc)
        for cname in cnames:
            spec = getattr(corpus, cname)()
            rows, counts = [], []

            def synth(g, theory, spec, B, assignment, cfg):
                res = synthesize(g, theory, spec, B,
                                 cfg=SearchConfig(max_expansions=cfg.max_expansions))
                counts.append([res.expansions, res.generated, res.purged])
                return res

            def balance(program, g, spec, assignment):
                B = optimize_ratios(program, g, spec)
                rows.append(" ".join(v.hex() for v in B.row))
                return B

            result = alternate(g, spec, synth_fn=synth, balance_fn=balance)
            text = json.dumps(plan_document(g, spec, result), indent=2) + "\n"
            yield (f"{name}.{cname}.s1", g, spec, result.program, text, "\n".join(rows),
                   counts[0])


# The audited graphs but binary_mul_unary, whose enumerations on hetero2
# take the longest.
SMALL_AUDITED = corpus.AUDITED[:-1]

# (key prefix, cluster, ratio row, graphs, theory options, max_len) of the
# pinned enumerations: what `shardplan enumerate GRAPH homog2` computes for
# each audited graph; hetero2 at (0.7, 0.3); the guarded, fused theory the
# planner searches; and a length bound that cuts programs.
RAW = {"guards": False, "fuse": False}
ENUMERATION_CASES = (
    ("raw.homog2.s1", "homog2", (0.5, 0.5), corpus.AUDITED, RAW, None),
    ("raw.hetero2.s1", "hetero2", (0.7, 0.3), SMALL_AUDITED, RAW, None),
    ("fused.homog2.s1", "homog2", (0.5, 0.5), corpus.AUDITED, {}, None),
    ("raw.homog2.s1.len5", "homog2", (0.5, 0.5), corpus.AUDITED, RAW, 5),
)


def enumeration_digests() -> dict[str, str]:
    out = {}
    for prefix, cname, row, names, options, max_len in ENUMERATION_CASES:
        spec = getattr(corpus, cname)()
        B = ShardingRatios((row,))
        for name in names:
            g = graph_from_dict(corpus.CORPUS[name])
            res = enumerate_programs(g, build_theory(g, spec.m, **options), spec, B,
                                     max_len=max_len)
            text = "\n".join((res.cost_s.hex(), str(res.explored), str(res.complete_states),
                              json.dumps(res.program.to_json(), sort_keys=True)))
            out[f"{name}.{prefix}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def plans():
    return list(pinned_plans())


def plan_digests(plans) -> dict[str, str]:
    return {key: hashlib.sha256(text.encode()).hexdigest()
            for key, _, _, _, text, _, _ in plans}


def ratio_digests(plans) -> dict[str, str]:
    return {key: hashlib.sha256(rows.encode()).hexdigest()
            for key, _, _, _, _, rows, _ in plans}


def test_plan_bytes_match_pinned_digests(plans):
    pinned = json.loads(DIGESTS.read_text())
    got = plan_digests(plans)
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"plan bytes changed for {moved}"


def test_every_pinned_plan_loads_to_its_program(plans):
    for key, g, spec, program, text, _, _ in plans:
        loaded = load_plan(json.loads(text), g, spec.m).program
        assert loaded == program, key
        assert json.dumps(loaded.to_json()) == json.dumps(program.to_json()), key
    assert len(plans) == len(json.loads(DIGESTS.read_text()))


def test_collective_forcing_plans_use_their_collectives(plans):
    texts = {key: text for key, _, _, _, text, _, _ in plans}
    for (batch, width, cname), collective in MIX_PINS.items():
        if collective is not None:
            key = f"mix{batch}x{width}.{cname}.s1"
            kinds = {i["kind"] for i in json.loads(texts[key])["program"]["instrs"]}
            assert collective in kinds, key


def test_dominance_pruned_plans_match_pinned_digests(plans):
    pinned = json.loads(DIGESTS.read_text())
    got = plan_digests(plans)
    keys = [f"mix{batch}x{width}.{cname}.s1"
            for (batch, width, cname), collective in MIX_PINS.items()
            if cname == "hetero2" and collective is None]
    assert len(keys) == 2
    for key in keys:
        assert key in pinned, key
        assert got[key] == pinned[key], f"plan bytes changed for {key}"


def test_ratio_rows_match_pinned_digests(plans):
    pinned = json.loads(RATIO_DIGESTS.read_text())
    got = ratio_digests(plans)
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"ratio rows changed for {moved}"


def test_search_counts_match_pins(plans):
    pinned = json.loads(SEARCH_COUNTS.read_text())
    got = {key: counts for key, *_, counts in plans}
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"search counts changed for {moved}: " + ", ".join(
        f"{k} {pinned[k]} -> {got[k]}" for k in moved[:3])


def test_enumerations_match_pinned_digests():
    pinned = json.loads(ENUMERATION_DIGESTS.read_text())
    got = enumeration_digests()
    assert sorted(got) == sorted(pinned)
    moved = sorted(k for k in pinned if got[k] != pinned[k])
    assert not moved, f"enumeration results changed for {moved}"


if __name__ == "__main__":
    plans = list(pinned_plans())
    for path, digests in ((DIGESTS, plan_digests(plans)),
                          (RATIO_DIGESTS, ratio_digests(plans)),
                          (SEARCH_COUNTS, {key: counts for key, *_, counts in plans}),
                          (ENUMERATION_DIGESTS, enumeration_digests())):
        path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
