"""Deterministic synthetic OpenAlex stand-in for the tests and for
``scripts/make_fixtures.py``, which builds the bundled cache from it.

Serves two fake level-1 disciplines (C100, C200) with a small concept
graph and fifty years of works (1971-2020). Collaboration intensity and
cross-block mixing rise over the years, so the full pipeline produces
shrinking integration distances on this corpus, mirroring the shape of
real data without containing any.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Mapping

from collabkit.ingest import TransportResponse

YEAR_FROM = 1971
YEAR_TO = 2020

BLOCKS = {
    "americas": ("US", "CA", "BR"),
    "europe": ("DE", "GB", "FR", "IT", "NL"),
    "asia": ("CN", "JP", "KR", "IN"),
}
COUNTRIES = tuple(c for block in BLOCKS.values() for c in block)
_BLOCK_OF = {c: name for name, block in BLOCKS.items() for c in block}

# Two institutions per country, addressed by ROR-style ids.
_INSTITUTIONS = {
    c: (f"0{c.lower()}x1{i}" for i in (1, 2)) for c in COUNTRIES
}
_INSTITUTIONS = {c: tuple(v) for c, v in _INSTITUTIONS.items()}

CONCEPT_GRAPH: dict[str, dict] = {
    "C100": {
        "display_name": "Synthetic Field A",
        "level": 1,
        "related": ["C110", "C120", "C900", "C001"],
    },
    "C110": {
        "display_name": "Methodology A1",
        "level": 2,
        "related": ["C111", "C120"],
    },
    "C120": {
        "display_name": "Methodology A2",
        "level": 2,
        "related": ["C121"],
    },
    "C111": {"display_name": "Technique A1a", "level": 3, "related": []},
    "C121": {"display_name": "Technique A2a", "level": 3, "related": ["C120"]},
    "C900": {"display_name": "Synthetic Field Z", "level": 1, "related": []},
    "C001": {"display_name": "Synthetic Domain", "level": 0, "related": []},
    "C200": {
        "display_name": "Synthetic Field B",
        "level": 1,
        "related": ["C210", "C001"],
    },
    "C210": {
        "display_name": "Methodology B1",
        "level": 2,
        "related": ["C211"],
    },
    "C211": {"display_name": "Technique B1a", "level": 3, "related": []},
}

ROOTS = ("C100", "C200")


def concept_payload(concept_id: str) -> dict | None:
    node = CONCEPT_GRAPH.get(concept_id)
    if node is None:
        return None
    return {
        "id": f"https://openalex.org/{concept_id}",
        "display_name": node["display_name"],
        "level": node["level"],
        "related_concepts": [
            {
                "id": f"https://openalex.org/{rid}",
                "display_name": CONCEPT_GRAPH[rid]["display_name"],
                "level": CONCEPT_GRAPH[rid]["level"],
            }
            for rid in node["related"]
        ],
    }


def _rng(root: str, year: int) -> random.Random:
    seed = hashlib.sha256(f"{root}:{year}".encode()).digest()
    return random.Random(int.from_bytes(seed[:8], "big"))


def _year_frac(year: int) -> float:
    return (year - YEAR_FROM) / (YEAR_TO - YEAR_FROM)


def _country_weights(year: int) -> list[float]:
    base = {
        "US": 10.0, "CA": 3.5, "BR": 1.5,
        "DE": 6.0, "GB": 6.0, "FR": 5.0, "IT": 4.0, "NL": 2.5,
        "CN": 2.0, "JP": 6.0, "KR": 1.5, "IN": 1.5,
    }
    base["CN"] += 9.0 * _year_frac(year)  # late rise
    base["KR"] += 2.0 * _year_frac(year)
    return [base[c] for c in COUNTRIES]


def works_count(root: str, year: int) -> int:
    growth = _year_frac(year)
    if root == "C100":
        return int(26 + 26 * growth)
    return int(20 + 22 * growth)


def _institutions_for(rng: random.Random, country: str) -> list[dict]:
    pool = _INSTITUTIONS[country]
    chosen = [rng.choice(pool)]
    if rng.random() < 0.25:
        other = pool[1] if chosen[0] == pool[0] else pool[0]
        chosen.append(other)
    return [
        {
            "id": f"https://openalex.org/I{ror}",
            "ror": f"https://ror.org/{ror}",
            "country_code": country,
        }
        for ror in chosen
    ]


def generate_works(root: str, year: int) -> list[dict]:
    """All synthetic works for one discipline-year, in a fixed order."""
    rng = _rng(root, year)
    frac = _year_frac(year)
    works = []
    count = works_count(root, year)
    for i in range(count):
        work_id = f"https://openalex.org/W{root[1:]}{year}{i:04d}"
        wtype = rng.choices(
            ["journal-article", "preprint", "dataset"], weights=[72, 18, 10]
        )[0]
        authorships: list[dict] = []
        if rng.random() < 0.08:
            # unknown nationality: institutions resolve neither country nor ror
            authorships.append({"institutions": [{}]})
        else:
            p_multi = 0.25 + 0.5 * frac
            first = rng.choices(COUNTRIES, weights=_country_weights(year))[0]
            team = [first]
            if rng.random() < p_multi:
                extra = 1 if rng.random() < 0.7 else 2
                for _ in range(extra):
                    if rng.random() < 0.2 + 0.6 * frac:
                        pool = COUNTRIES
                    else:
                        pool = BLOCKS[_BLOCK_OF[first]]
                    team.append(rng.choice(pool))
            for country in team:
                authorships.append(
                    {"institutions": _institutions_for(rng, country)}
                )
        works.append(
            {
                "id": work_id,
                "publication_year": year,
                "type": wtype,
                "authorships": authorships,
            }
        )
    if year % 7 == 0 and works:
        works.append(dict(works[0]))  # duplicate id: exercises harvest dedup
    return works


def _parse_filter(filter_value: str) -> tuple[list[str], int, int]:
    concept_ids: list[str] = []
    year_from, year_to = YEAR_FROM, YEAR_TO
    for clause in filter_value.split(","):
        key, _, value = clause.partition(":")
        if key == "concepts.id":
            concept_ids = [c.rsplit("/", 1)[-1] for c in value.split("|")]
        elif key == "from_publication_date":
            year_from = int(value.split("-")[0])
        elif key == "to_publication_date":
            year_to = int(value.split("-")[0])
    return concept_ids, year_from, year_to


class SyntheticOpenAlexTransport:
    """Drop-in HttpTransport serving the synthetic corpus.

    Counts every request in ``calls`` so tests can assert on traffic.
    """

    def __init__(self):
        self.calls = 0

    def get(self, url: str, params: Mapping[str, str]) -> TransportResponse:
        self.calls += 1
        path = url.split("api.openalex.org/", 1)[-1]
        if path.startswith("concepts/"):
            payload = concept_payload(path.split("/", 1)[1])
            if payload is None:
                return TransportResponse(404, b'{"error":"not found"}')
            return TransportResponse(200, json.dumps(payload).encode())
        if path == "works":
            return self._works(params)
        return TransportResponse(404, b'{"error":"no such endpoint"}')

    def _works(self, params: Mapping[str, str]) -> TransportResponse:
        concept_ids, year_from, year_to = _parse_filter(params.get("filter", ""))
        root = next((c for c in concept_ids if c in ROOTS), None)
        if root is None:
            doc = {"meta": {"count": 0, "next_cursor": None}, "results": []}
            return TransportResponse(200, json.dumps(doc).encode())
        works = [
            w
            for year in range(max(year_from, YEAR_FROM), min(year_to, YEAR_TO) + 1)
            for w in generate_works(root, year)
        ]
        per_page = int(params.get("per-page", 25))
        cursor = params.get("cursor", "*")
        offset = 0 if cursor == "*" else int(cursor[1:])
        page = works[offset : offset + per_page]
        next_cursor = (
            f"c{offset + per_page}" if offset + per_page < len(works) else None
        )
        doc = {
            "meta": {"count": len(works), "next_cursor": next_cursor},
            "results": page,
        }
        return TransportResponse(200, json.dumps(doc).encode())
