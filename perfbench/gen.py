"""Seeded OpenAlex-shaped corpora and the in-process transport that serves them.

Every random choice comes from a ``random.Random`` seeded through sha256 of
the benchmark seed and the draw's coordinates, so the same seed gives the
same pages, byte for byte. Besides the serialized pages, a corpus keeps
what the correctness checks need: each deduplicated work's year and entity
sets, the page count and the record count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from collabkit.ingest import OPENALEX_BASE, TransportResponse, WorksQuery, query_params

PER_PAGE = 200
DOMAIN_ID = "C9000"
RETRY_STATUSES = (503, 429)
YEAR_FROM = 1971
YEAR_TO = 2020


def rng_for(seed: int, *parts) -> random.Random:
    digest = hashlib.sha256(":".join(map(str, (seed, *parts))).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@dataclass(frozen=True)
class CorpusSpec:
    """The generator's knobs."""

    disciplines: int
    works_per_year: int
    countries: int
    institutions: int
    team_weights: tuple[float, ...]  # relative weight of team sizes 1, 2, ...
    unknown_share: float  # works whose authors expose no institution
    duplicates: int  # extra copies of earlier work ids, per discipline
    error_share: float  # first attempts answered 503 or 429


@dataclass
class Work:
    """What the checks need from one deduplicated work."""

    year: int
    countries: frozenset[str]
    institutions: frozenset[str]


@dataclass
class Corpus:
    spec: CorpusSpec
    roots: tuple[str, ...]
    works: dict[str, list[Work]]  # discipline root -> deduplicated works
    bodies: dict[tuple, bytes]  # transport key -> serialized response body
    fail_first: dict[tuple, int]  # transport key -> status of its first attempt

    @property
    def pages(self) -> int:
        return len(self.bodies)

    @property
    def records(self) -> int:
        return sum(len(w) for w in self.works.values())

    def works_in(self, root: str, year_from: int, year_to: int) -> list[Work]:
        return [w for w in self.works[root] if year_from <= w.year <= year_to]


def _zipf_cum(n: int) -> list[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) for rank in range(n)))


def _country_code(i: int) -> str:
    return chr(65 + i // 26) + chr(65 + i % 26)


def _concept(cid: str, level: int, related: list[tuple[str, int]]) -> dict:
    return {
        "id": f"https://openalex.org/{cid}",
        "display_name": f"Benchmark concept {cid}",
        "level": level,
        "related_concepts": [
            {
                "id": f"https://openalex.org/{rid}",
                "display_name": f"Benchmark concept {rid}",
                "level": rlevel,
            }
            for rid, rlevel in related
        ],
    }


def generate(spec: CorpusSpec, seed: int) -> Corpus:
    """Build the corpus for ``seed``: pages, concept payloads and oracle data."""
    # Every country gets one institution; the others draw countries by Zipf weight.
    countries = range(spec.countries)
    inst_country = [_country_code(c) for c in [*countries, *rng_for(seed, "pools").choices(
        countries, cum_weights=_zipf_cum(spec.countries), k=spec.institutions - spec.countries)]]
    inst_payload = [
        {
            "id": f"https://openalex.org/I{7000000 + i}",
            "ror": f"https://ror.org/0pb{i:05d}",
            "country_code": inst_country[i],
        }
        for i in range(spec.institutions)
    ]
    inst_tail = [f"0pb{i:05d}" for i in range(spec.institutions)]
    inst_cum = _zipf_cum(spec.institutions)
    team_sizes = range(1, len(spec.team_weights) + 1)
    team_cum = list(itertools.accumulate(spec.team_weights))
    years = range(YEAR_FROM, YEAR_TO + 1)

    roots = tuple(f"C9{d + 1}00" for d in range(spec.disciplines))
    works: dict[str, list[Work]] = {}
    bodies: dict[tuple, bytes] = {}
    for root in roots:
        related = [f"{root[:-2]}10", f"{root[:-2]}20"]
        payloads = {root: _concept(root, 1, [(r, 2) for r in related] + [(DOMAIN_ID, 0)])}
        for rid in related:
            payloads[rid] = _concept(rid, 2, [(root, 1)])
        for cid, payload in payloads.items():
            bodies[(f"{OPENALEX_BASE}/concepts/{cid}", None, None)] = json.dumps(
                payload).encode()

        kept: list[Work] = []
        items: list[dict] = []
        dup_years = rng_for(seed, root, "dups").choices(years, k=spec.duplicates)
        for year in years:
            r = rng_for(seed, root, year)
            year_items = []
            for i in range(spec.works_per_year):
                size = r.choices(team_sizes, cum_weights=team_cum)[0]
                if r.random() < spec.unknown_share:
                    members: list[int] = []
                    authorships = [{"institutions": []} for _ in range(size)]
                else:
                    members = r.choices(range(spec.institutions), cum_weights=inst_cum, k=size)
                    authorships = [{"institutions": [inst_payload[m]]} for m in members]
                year_items.append({
                    "id": f"https://openalex.org/W{root[1:]}{year}{i:06d}",
                    "publication_year": year,
                    "type": "journal-article" if r.random() < 0.8 else "preprint",
                    "authorships": authorships,
                })
                kept.append(Work(
                    year,
                    frozenset(inst_country[m] for m in members),
                    frozenset(inst_tail[m] for m in members),
                ))
            for _ in range(dup_years.count(year)):
                year_items.append(r.choice(year_items))
            items.extend(year_items)
        works[root] = kept

        query = WorksQuery(concept_ids=(root, *related), year_from=YEAR_FROM, year_to=YEAR_TO)
        filt = query_params(query)["filter"]
        for offset in range(0, len(items), PER_PAGE):
            nxt = offset + PER_PAGE
            doc = {
                "meta": {
                    "count": len(items),
                    "per_page": PER_PAGE,
                    "next_cursor": f"c{nxt}" if nxt < len(items) else None,
                },
                "results": items[offset:nxt],
                "group_by": [],
            }
            cursor = "*" if offset == 0 else f"c{offset}"
            bodies[(f"{OPENALEX_BASE}/works", filt, cursor)] = json.dumps(doc).encode()

    err = rng_for(seed, "errors")
    fail_first = {
        key: err.choice(RETRY_STATUSES)
        for key in bodies
        if err.random() < spec.error_share
    }
    return Corpus(spec, roots, works, bodies, fail_first)


class ReplayTransport:
    """HttpTransport serving pre-serialized bodies with one dict lookup.

    The first attempt at a key listed in ``fail_first`` is answered with the
    status listed there, so the client's retry path runs.
    """

    def __init__(self, bodies: dict[tuple, bytes], fail_first: dict[tuple, int]):
        self.bodies = bodies
        self.fail_first = dict(fail_first)
        self.calls = 0
        self.failures = 0

    def get(self, url, params) -> TransportResponse:
        self.calls += 1
        key = (url, params.get("filter"), params.get("cursor"))
        status = self.fail_first.pop(key, None)
        if status is not None:
            self.failures += 1
            return TransportResponse(status, b'{"error": "injected"}')
        body = self.bodies.get(key)
        if body is None:
            return TransportResponse(404, b'{"error": "not found"}')
        return TransportResponse(200, body)
