"""Seeded what-if query streams for the two advise workloads.

The server receives only the JSON bodies built here; every random
choice comes from a ``random.Random`` seeded by the workload seed, so a
seed names one exact stream.

- :func:`cold_stream`: an endless stream of distinct queries at the
  default DSE cell size over the full geometry lattice.  Requests come
  in blocks of eight (four gups, four pagerank; one of each asks for
  all three policies, the rest for one), so every prefix has the same
  mix and the figures do not swing with the seed.  Each request carries
  its own query seed, so no two requests share a cell.
- :func:`hot_set` and :func:`hot_replay`: a small query set (anchors
  included) and its replay, where every arrival is an equivalent
  spelling of its canonical form: aliases or full axis names, preset
  names for the anchors, shuffled key order, integral floats, and
  ``policy`` or ``policies``.
"""

import random
from typing import Any, Dict, Iterator, List, Tuple

#: policies in the service's canonical answer order
POLICIES = ("charm", "ring", "static-2")

#: geometry axes: (full name, compact alias)
AXES = (
    ("chiplets_per_socket", "cps"),
    ("cores_per_chiplet", "cpc"),
    ("l3_mib_per_chiplet", "l3_mib"),
    ("mem_channels_per_socket", "channels"),
    ("link_latency_scale", "link_scale"),
)

#: preset spellings of the two anchor geometries
ANCHOR_PRESETS = {"milan": ("milan", "epyc-milan"),
                  "spr": ("sapphire-rapids", "xeon-spr")}

#: block composition of the cold stream: (workload, all three policies?)
_COLD_BLOCK = (("gups", True), ("gups", False), ("gups", False), ("gups", False),
               ("pagerank", True), ("pagerank", False), ("pagerank", False),
               ("pagerank", False))

#: size of the hot query set
HOT_SET_SIZE = 16


def _lattice() -> List[Tuple]:
    """The DSE geometry lattice as axis-value tuples, canonical order."""
    from repro.bench.dse import full_lattice

    return [tuple(getattr(g, name) for name, _ in AXES) for g in full_lattice()]


def _anchors() -> Dict[str, Tuple]:
    from repro.hw.machine import GEOMETRY_EPYC_MILAN, GEOMETRY_XEON_SPR

    return {key: tuple(getattr(g, name) for name, _ in AXES)
            for key, g in (("milan", GEOMETRY_EPYC_MILAN),
                           ("spr", GEOMETRY_XEON_SPR))}


def _axes_doc(values: Tuple, full: bool) -> Dict[str, Any]:
    return {(name if full else alias): v
            for (name, alias), v in zip(AXES, values)}


def cold_stream(seed: int) -> Iterator[Dict[str, Any]]:
    """Distinct cold queries, forever (callers stop when they have enough)."""
    return _cold_stream(random.Random(f"advise_cold:{seed}"), _lattice())


def _cold_stream(rng: random.Random, lattice: List[Tuple]) -> Iterator[Dict[str, Any]]:
    order: List[int] = []
    query_seed = rng.randrange(1, 1 << 20)
    while True:
        block = list(_COLD_BLOCK)
        rng.shuffle(block)
        for workload, all_three in block:
            if not order:
                order = rng.sample(range(len(lattice)), len(lattice))
            doc: Dict[str, Any] = {
                "workload": workload,
                "geometry": _axes_doc(lattice[order.pop()], full=False),
                "seed": query_seed,
            }
            query_seed += 1
            if all_three:
                doc["policies"] = list(POLICIES)
            else:
                doc["policy"] = rng.choice(POLICIES)
            yield doc


def hot_set(seed: int, size: int = HOT_SET_SIZE) -> List[Dict[str, Any]]:
    """The canonical hot query set: both anchors plus lattice points.

    Half gups, half pagerank; a quarter ask for all three policies.
    Canonical form spells every axis by its full name and always uses
    ``policies``.  The anchors are tagged with ``_anchor`` (stripped
    before sending) so a spelling may name them by preset.
    """
    rng = random.Random(f"advise_hot:{seed}")
    lattice = _lattice()
    anchors = _anchors()
    points: List[Tuple[Any, Tuple]] = [("milan", anchors["milan"]),
                                       ("spr", anchors["spr"])]
    for idx in rng.sample(range(len(lattice)), size - len(points)):
        if lattice[idx] not in anchors.values():
            points.append((None, lattice[idx]))
    while len(points) < size:  # a sampled point coincided with an anchor
        idx = rng.randrange(len(lattice))
        if all(lattice[idx] != p for _, p in points):
            points.append((None, lattice[idx]))
    n_all = size // 4
    shapes = ([("gups", True)] * (n_all // 2) + [("pagerank", True)] * (n_all - n_all // 2)
              + [("gups", False)] * (size // 2 - n_all // 2)
              + [("pagerank", False)] * (size - size // 2 - (n_all - n_all // 2)))
    rng.shuffle(shapes)
    queries = []
    for (anchor, values), (workload, all_three) in zip(points, shapes):
        doc: Dict[str, Any] = {
            "workload": workload,
            "geometry": _axes_doc(values, full=True),
            "policies": list(POLICIES) if all_three else [rng.choice(POLICIES)],
            "seed": rng.randrange(1, 1 << 16),
        }
        if anchor:
            doc["_anchor"] = anchor
        queries.append(doc)
    return queries


def _maybe_float(rng: random.Random, value: Any) -> Any:
    """An integral number spelled as int or float at random."""
    if isinstance(value, float) and value.is_integer():
        return int(value) if rng.random() < 0.5 else value
    if isinstance(value, int):
        return float(value) if rng.random() < 0.5 else value
    return value


def _shuffled(rng: random.Random, doc: Dict[str, Any]) -> Dict[str, Any]:
    items = list(doc.items())
    rng.shuffle(items)
    return dict(items)


def spell(canonical: Dict[str, Any], rng: random.Random) -> Dict[str, Any]:
    """One equivalent spelling of a canonical hot query."""
    from repro.serve.query import PARAM_DEFAULTS

    anchor = canonical.get("_anchor")
    geo: Any
    if anchor and rng.random() < 0.5:
        geo = rng.choice(ANCHOR_PRESETS[anchor])
    else:
        geo = {}
        for name, alias in AXES:
            key = name if rng.random() < 0.5 else alias
            geo[key] = _maybe_float(rng, canonical["geometry"][name])
        geo = _shuffled(rng, geo)
    doc: Dict[str, Any] = {"workload": canonical["workload"], "geometry": geo,
                           "seed": _maybe_float(rng, canonical["seed"])}
    policies = list(canonical["policies"])
    if len(policies) == 1 and rng.random() < 0.5:
        doc["policy"] = policies[0]
    else:
        spelled = policies + rng.sample(policies, rng.randrange(len(policies) + 1))
        rng.shuffle(spelled)
        doc["policies"] = spelled
    if rng.random() < 0.5:
        defaults = PARAM_DEFAULTS[canonical["workload"]]
        doc["params"] = _shuffled(rng, {k: _maybe_float(rng, v)
                                        for k, v in defaults.items()})
    return _shuffled(rng, doc)


def strip(canonical: Dict[str, Any]) -> Dict[str, Any]:
    """The canonical query as sent (benchmark-only tags removed)."""
    return {k: v for k, v in canonical.items() if not k.startswith("_")}


def hot_replay(seed: int, queries: List[Dict[str, Any]],
               rounds: int) -> List[Tuple[int, Dict[str, Any]]]:
    """``rounds`` passes over the set, each in a seeded order, each
    arrival a fresh spelling: ``[(query index, body), ...]``."""
    rng = random.Random(f"advise_hot_replay:{seed}")
    out = []
    for _ in range(rounds):
        order = list(range(len(queries)))
        rng.shuffle(order)
        out.extend((i, spell(queries[i], rng)) for i in order)
    return out
