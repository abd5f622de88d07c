"""End-to-end oracle: small OpenAlex-shaped corpora, each built from one
seed that Hypothesis draws, run through ``all`` online into an empty cache
and then offline from it.

Both runs must give the same outputs, and every file is rebuilt here from
the raw work items alone, in plain Python, by the oracle in ``util``: no
collabkit function computes an expected value. Floats are compared as the
files write them, at %.6g. Ward's merges are checked by a Lance-Williams
replay of ``merges.json``, which accepts any minimal pair, so a changed tie
break is ``tests/test_geometry.py``'s to catch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from collabkit import ingest
from collabkit.cli import EXIT_OK, EXIT_TRANSPORT, main
from collabkit.geometry import Dendrogram, Merge
from collabkit.ingest import TransportResponse
from util import FMT, Tally, bilateral_point, brute_cut, harvested, replay_ward, same

ROOT = "C100"
FIRST_YEAR = 2001
MISSING = object()  # a key left out of its object

# the auto ceiling of the ICD rescaling: just above the tallest merge
H0_REL, H0_ABS = 1e-6, 1e-9
OTHER = "__other__"
CELL_FILES = (
    "distances.csv", "dendrogram.newick", "merges.json", "chord.csv", "icd.csv",
    "series.csv", "volumes.csv", "bilateral.csv", "dendrogram.svg",
)
SVG = "{http://www.w3.org/2000/svg}"

# (country_code, ror) of the entities the corpora draw from; the bare ROR
# id and a lower-case country code name the same entity as the full forms
ENTITIES = (
    ("US", "https://ror.org/0us1"), ("DE", "https://ror.org/0de1"),
    ("FR", "https://ror.org/0fr1"), ("GB", "0gb1"), ("JP", "https://ror.org/0jp1"),
    ("CN", "https://ror.org/0cn1"), ("BR", "0br1"),
)
COUNTRY_CODES = [c for c, _ in ENTITIES] * 3 + ["us", "de", "jp", "", " ", None, MISSING]
ROR_CODES = [r for _, r in ENTITIES] * 3 + ["0de1", "https://ror.org/", "", None, MISSING]
BAD_CODES = [5, 0, False, [], {}]
BAD_LISTS = [0, False, "", {}]
WORK_IDS = [f"https://openalex.org/W{n}" for n in range(1, 81)] + ["W7", "https://openalex.org/W07"]
TYPES = ["journal-article"] * 4 + ["article", "Journal-Article", "preprint", "dataset", None, MISSING]
MAX_ITEMS = 40  # per page


def _object(**fields):
    return {name: value for name, value in fields.items() if value is not MISSING}


def seeded_corpus(seed):
    """(pages of raw work items, config fields) for one discipline over
    two or three adjacent periods, with items one year outside them, all
    drawn by ``random.Random(seed)``."""
    rng = random.Random(seed)

    def pick(common, rare, one_in):
        # one of ``common``, or one in ``one_in`` times one of ``rare``
        return rng.choice(rare if rng.randrange(one_in) == 0 else common)

    def authorship():
        if rng.randrange(15):
            return {"institutions": [
                _object(country_code=pick(COUNTRY_CODES, BAD_CODES, 40),
                        ror=pick(ROR_CODES, BAD_CODES, 40))
                for _ in range(rng.randint(0, 3))
            ]}
        return rng.choice([7, *(_object(institutions=v) for v in (MISSING, None, *BAD_LISTS))])

    def item():
        if rng.randrange(41) == 0:
            return rng.choice([5, "W1", None, []])
        if rng.randrange(15):
            authorships = [authorship() for _ in range(rng.randint(0, 4))]
        else:
            authorships = rng.choice([MISSING, None, [], *BAD_LISTS])
        return _object(
            id=pick(WORK_IDS, [None, "", 5, MISSING], 40),
            publication_year=pick(years, ["2001", True, None, MISSING, 2001.0], 40),
            type=pick(TYPES, [0, False, [], {}], 25),
            authorships=authorships,
        )

    periods, start = [], FIRST_YEAR
    for _ in range(rng.randint(2, 3)):
        end = start + rng.randint(1, 3) - 1
        periods.append({"label": f"{start}-{end}", "year_from": start, "year_to": end})
        start = end + 1
    years = list(range(FIRST_YEAR - 1, start + 1))
    pages = [[item() for _ in range(rng.randint(0, MAX_ITEMS))] for _ in range(rng.randint(2, 6))]
    # each period holds a journal article by two entities, so every cell
    # has two entities to compare under either key
    for i, period in enumerate(periods):
        page = rng.choice(pages)
        page.insert(rng.randint(0, len(page)), {
            "id": f"https://openalex.org/W9{i}",
            "publication_year": rng.randint(period["year_from"], period["year_to"]),
            "type": "journal-article",
            "authorships": [
                {"institutions": [{"country_code": c, "ror": r}]}
                for c, r in rng.sample(ENTITIES, 2)
            ],
        })
    config = {
        "disciplines": [ROOT],
        "periods": periods,
        "key": rng.choice(["country", "institution"]),
        "journal_only": rng.random() < 0.5,
        "top_n": rng.randint(2, 8),
        "min_volume": rng.randint(0, 3),
        "h_star": rng.choice([0.55, 0.95, 1.005, 1.3]),
        "rate_limit": 1e9,
    }
    return pages, config


# one seed per example, so no two examples run one corpus, and a failing
# example is reported as its seed
seeds = st.integers(0, 2**32 - 1)


class CorpusTransport:
    """One discipline root with no related concepts, and ``pages`` as one
    works chain at the cursors "*", "c1", "c2", ...; the page at
    ``lost_cursor`` has no next_cursor in its meta."""

    def __init__(self, pages, lost_cursor=None):
        self.pages = pages
        self.lost_cursor = lost_cursor

    def get(self, url, params):
        path = url.split("api.openalex.org/", 1)[-1]
        if path == f"concepts/{ROOT}":
            doc = {"id": f"https://openalex.org/{ROOT}", "level": 1, "related_concepts": []}
        elif path == "works":
            cursor = params["cursor"]
            k = 0 if cursor == "*" else int(cursor[1:])
            meta = {"next_cursor": f"c{k + 1}" if k + 1 < len(self.pages) else None}
            if k == self.lost_cursor:
                del meta["next_cursor"]
            doc = {"meta": meta, "results": self.pages[k]}
        else:
            return TransportResponse(404, b"{}")
        return TransportResponse(200, json.dumps(doc).encode())


def _main(argv, transport=None) -> tuple[int, str]:
    """main's exit status and stderr; online runs get ``transport``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with mock.patch.object(ingest, "RequestsTransport", lambda: transport):
            code = main(argv)
    return code, err.getvalue()


def check_csv(path: Path, header: str, rows: list[list]) -> None:
    lines = path.read_text().split("\n")
    assert lines.pop() == "", path
    assert lines[0] == header, path
    assert len(lines) - 1 == len(rows), (path, lines, rows)
    for line, row in zip(lines[1:], rows):
        fields = line.split(",")
        assert len(fields) == len(row) and all(map(same, fields, row)), (path, line, row)


def check_cell(out: Path, config, period, works, manifest) -> list:
    """Check one period's files and manifest stanza; returns its ICD
    trend row's fields."""
    label = period["label"]
    cell = out / ROOT / label
    years = range(period["year_from"], period["year_to"] + 1)
    tally = Tally(works, years)
    yearly = {year: Tally(works, [year]) for year in years}
    top = sorted(tally.unary, key=lambda e: (-tally.unary[e], e))[: config["top_n"]]
    n = len(top)

    check_csv(
        cell / "distances.csv",
        "entity_a,entity_b,distance",
        [[top[i], top[k], tally.distance(top[i], top[k])] for i in range(n) for k in range(i)],
    )
    shown = set(top)
    chord = [[a, b, c] for (a, b), c in tally.pairs.items() if a in shown and b in shown]
    for entity in top:
        chord.append([entity, entity, tally.unary[entity] - tally.multi[entity]])
        other = sum(
            c for pair, c in tally.pairs.items()
            if entity in pair and not shown.issuperset(pair)
        )
        if other:
            chord.append([entity, OTHER, other])
    check_csv(cell / "chord.csv", "source,target,value", sorted(chord))

    masked = Counter()
    rates, volumes = [], []
    for entity in top:
        for year, t in yearly.items():
            volume = t.unary[entity]
            reason = "missing_entity" if volume == 0 else (
                "below_min_volume" if volume < config["min_volume"] else None
            )
            masked[reason] += 1
            rate = "" if reason else t.multi[entity] / volume
            rates.append([ROOT, entity, year, rate, volume, str(bool(reason)).lower()])
            volumes.append([ROOT, entity, year, float(volume), volume, "false"])
    check_csv(cell / "series.csv", "discipline,entity,year,value,volume,masked", rates)
    check_csv(cell / "volumes.csv", "discipline,entity,year,value,volume,masked", volumes)
    a, b = top[0], top[1]
    bilateral = []
    for year, t in yearly.items():
        value, volume, mask, reason = bilateral_point(t, a, b, config["min_volume"])
        masked[reason] += 1
        bilateral.append([ROOT, a, b, year, "" if mask else value, volume, str(mask).lower()])
    check_csv(
        cell / "bilateral.csv", "discipline,entity,entity_b,year,value,volume,masked", bilateral
    )

    doc = json.loads((cell / "merges.json").read_text())
    assert doc["schema"] == 1 and doc["leaves"] == top
    heights = replay_ward(tally, top, doc["merges"])
    newick = (cell / "dendrogram.newick").read_text()
    assert sorted(re.findall(r"[(,]([^(),:;]+):", newick)) == sorted(top)
    h0 = max(heights) * (1.0 + H0_REL) + H0_ABS
    rescaled = [-math.log(h0 - h) for h in heights]
    mean = math.fsum(rescaled) / len(rescaled)
    ranked, mid = sorted(rescaled), len(rescaled) // 2
    median = ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    check_csv(
        cell / "icd.csv",
        "discipline,period,h0,merge_index,rescaled",
        [[ROOT, label, h0, k, value] for k, value in enumerate(rescaled)],
    )

    if n >= 3:
        check_csv(
            cell / "kde.csv",
            "discipline,period,x,density",
            [[ROOT, label, x, density] for x, density in kde_rows(rescaled)],
        )
    # the SVG's leaves carry the h_star cut of the replayed tree (collabkit's
    # Dendrogram only holds it for util's brute_cut), and its bars the
    # period's volumes
    merges = [Merge(m["left"], m["right"], h, m["size"]) for m, h in zip(doc["merges"], heights)]
    cut = brute_cut(Dendrogram(tuple(top), tuple(merges)), config["h_star"])
    svg = ET.parse(cell / "dendrogram.svg").getroot()
    leaves = [e.attrib for e in svg.iter(f"{SVG}circle") if e.get("class") == "leaf"]
    assert [(e["data-entity"], e["data-cluster"]) for e in leaves] == [
        (entity, str(cut[entity])) for entity in top
    ]
    bars = [e.attrib for e in svg.iter(f"{SVG}path") if e.get("class") == "bar"]
    assert [(e["data-entity"], e["data-volume"]) for e in bars] == [
        (entity, str(tally.unary[entity])) for entity in top
    ]

    info = manifest["cells"][f"{ROOT}/{label}"]
    del masked[None]
    assert (info["entities"], info["works"]) == (n, tally.total)
    assert info["n_clusters"] == 1 + sum(h >= config["h_star"] for h in heights)
    assert same(FMT % info["icd_mean"], mean)
    assert info["masked_points"] == dict(masked)
    kde = ("kde.csv",) if n >= 3 else ()
    assert sorted(p.name for p in cell.iterdir()) == sorted(CELL_FILES + kde)
    return [ROOT, label, h0, mean, median]


def kde_rows(values):
    """kde.csv's (x, density) rows: Silverman's bandwidth from numpy's
    linear quartiles, 512 grid points from min - 5 bw to max + 5 bw as
    np.linspace places them, and the average Gaussian kernel. Sums run
    left to right, which is numpy's order over fewer than eight values."""
    n = len(values)
    assert 2 <= n < 8

    def total(terms):
        acc = 0.0
        for term in terms:
            acc += term
        return acc

    mean = total(values) / n
    sd = math.sqrt(total((v - mean) * (v - mean) for v in values) / (n - 1))
    ranked, quartiles = sorted(values), []
    for q in (0.75, 0.25):
        at = (n - 1) * q
        below = math.floor(at)
        lo, hi, t = ranked[below], ranked[below + 1], at - below
        quartiles.append(lo + (hi - lo) * t if t < 0.5 else hi - (hi - lo) * (1 - t))
    spreads = [c for c in (sd, (quartiles[0] - quartiles[1]) / 1.34) if c > 0.0]
    bw = 0.9 * (min(spreads) if spreads else 0.0) * n ** (-0.2)
    if bw < 2.2250738585072014e-308:  # the smallest normal float
        bw = max(1.0, max(map(abs, values))) * 1e-9
    lo, hi = min(values) - 5.0 * bw, max(values) + 5.0 * bw
    step = (hi - lo) / 511
    grid = [i * step + lo for i in range(511)] + [hi]
    scale = n * bw * math.sqrt(2.0 * math.pi)
    return [
        (x, total(math.exp((z := (x - v) / bw) * z * -0.5) for v in values) / scale)
        for x in grid
    ]


# A failing example is reported as drawn, unshrunk: shrinking one from a
# planted mutation ran for minutes and grew past 600 MB.
UNSHRUNK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=25, deadline=None, derandomize=True, database=None, phases=UNSHRUNK)
@given(seeds)
def test_all_online_then_offline_matches_the_oracle(seed):
    pages, config = seeded_corpus(seed)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps({**config, "cache_dir": str(tmp / "cache")}))
        argv = ["all", "--config", str(path), "--out-dir"]
        online = _main([*argv, str(tmp / "online")], CorpusTransport(pages))
        offline = _main([*argv, str(tmp / "offline"), "--offline"])
        assert online == offline == (EXIT_OK, "")
        manifests = [json.loads((tmp / run / "manifest.json").read_text()) for run in ("online", "offline")]
        assert manifests[0]["outputs"] == manifests[1]["outputs"]
        assert manifests[0]["inputs"] == manifests[1]["inputs"]
        assert len(manifests[0]["inputs"]) == len(pages) + 1  # and the concept page
        manifest = manifests[1]

        pages = json.loads(json.dumps(pages))  # as the pipeline reads them
        works, malformed, duplicates = harvested(pages, config["key"], config["journal_only"])
        ingest_counts = manifest["ingest"]
        assert ingest_counts["malformed_items_skipped"] == malformed
        assert ingest_counts["duplicate_ids_dropped"] == duplicates
        out = tmp / "offline"
        trend = [check_cell(out, config, p, works, manifest) for p in config["periods"]]
        check_csv(out / ROOT / "icd_series.csv", "discipline,period,h0,mean,median", trend)
        first, last = config["periods"][0]["year_from"], config["periods"][-1]["year_to"]
        unknown = []
        for year in range(first, last + 1):
            t = Tally(works, [year])
            if t.total:
                unknown.append([ROOT, year, t.unknown, t.total, t.unknown / t.total])
        check_csv(
            out / ROOT / "unknown_rate.csv",
            "discipline,year,unknown_count,total_count,rate",
            unknown,
        )
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == set(manifest["outputs"]) | {"manifest.json"}


@settings(max_examples=5, deadline=None, derandomize=True, database=None, phases=UNSHRUNK)
@given(seeds, st.data())
def test_chain_cut_short_by_a_lost_cursor_exits_2(seed, data):
    # a works page whose meta lost its next_cursor mid-chain would end the
    # harvest early: the run stops instead, caches nothing from that page
    # on, and leaves no out_dir
    pages, config = seeded_corpus(seed)
    lost = data.draw(st.integers(0, len(pages) - 2))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "config.json"
        path.write_text(json.dumps({**config, "cache_dir": str(tmp / "cache")}))
        code, err = _main(
            ["all", "--config", str(path), "--out-dir", str(tmp / "out")],
            CorpusTransport(pages, lost_cursor=lost),
        )
        assert code == EXIT_TRANSPORT
        assert json.loads(err) == {
            "error": "ParseError",
            "exit_code": EXIT_TRANSPORT,
            "message": "works page meta is not an object holding next_cursor: {}",
        }
        assert not (tmp / "out").exists()
        cached = list((tmp / "cache").glob("*.meta.json"))
        assert len(cached) == lost + 1  # the concept page and the pages before
