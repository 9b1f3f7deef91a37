"""The advise query streams: seeded, distinct when cold, equivalent when hot."""

import itertools
import json
import random

import pytest

from prodbench import streams
from repro.serve.query import normalize_query


def _take(seed, n):
    return list(itertools.islice(streams.cold_stream(seed), n))


def test_cold_stream_is_deterministic_per_seed():
    assert _take(1, 64) == _take(1, 64)
    assert _take(1, 64) != _take(2, 64)


def test_hot_set_and_replay_are_deterministic_per_seed():
    queries = streams.hot_set(5)
    assert queries == streams.hot_set(5)
    assert queries != streams.hot_set(6)
    replay = streams.hot_replay(5, queries, rounds=4)
    assert json.dumps(replay) == json.dumps(streams.hot_replay(5, queries, rounds=4))
    assert json.dumps(replay) != json.dumps(streams.hot_replay(6, queries, rounds=4))


def test_cold_stream_never_repeats_a_cell():
    seen = set()
    for doc in _take(3, 1000):
        for cell in normalize_query(doc).cells():
            assert cell.cell_id not in seen
            seen.add(cell.cell_id)


def test_cold_stream_mix_is_fixed_per_block():
    docs = _take(4, 80)
    for start in range(0, 80, 8):
        block = docs[start:start + 8]
        assert sum(d["workload"] == "gups" for d in block) == 4
        all_three = [d["workload"] for d in block if "policies" in d]
        assert sorted(all_three) == ["gups", "pagerank"]


def test_cold_queries_use_the_default_cell_size():
    for doc in _take(5, 16):
        query = normalize_query(doc)
        assert dict(query.params) == normalize_query(
            {"workload": doc["workload"]}).canonical()["params"]


def test_hot_set_shape():
    queries = streams.hot_set(7)
    assert len(queries) == streams.HOT_SET_SIZE
    assert sum(q["workload"] == "gups" for q in queries) == streams.HOT_SET_SIZE // 2
    assert sum(len(q["policies"]) == 3 for q in queries) == streams.HOT_SET_SIZE // 4
    assert {q.get("_anchor") for q in queries} >= {"milan", "spr"}
    cells = [c.cell_id for q in queries for c in normalize_query(streams.strip(q)).cells()]
    assert len(cells) == len(set(cells))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_hot_spelling_normalizes_to_the_canonical_cells(seed):
    queries = streams.hot_set(seed)
    canonical = [normalize_query(streams.strip(q)).cells() for q in queries]
    spellings = set()
    for qi, doc in streams.hot_replay(seed, queries, rounds=40):
        assert normalize_query(doc).cells() == canonical[qi]
        spellings.add(json.dumps(doc, sort_keys=False))
    assert len(spellings) > len(queries) * 10  # spellings really vary


def test_spellings_cover_every_variant():
    rng = random.Random(0)
    queries = streams.hot_set(1)
    docs = [streams.spell(q, rng) for q in queries for _ in range(30)]
    geos = [d["geometry"] for d in docs]
    assert any(isinstance(g, str) for g in geos)  # preset names
    assert any(isinstance(g, dict) and "cps" in g for g in geos)  # aliases
    assert any(isinstance(g, dict) and "chiplets_per_socket" in g for g in geos)
    assert any(isinstance(d["seed"], float) for d in docs)  # integral floats
    assert any("policy" in d for d in docs) and any("policies" in d for d in docs)
    assert len({tuple(d) for d in docs}) > 1  # key order varies
