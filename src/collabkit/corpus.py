"""Work records and co-production count tables.

A work's nationality is the set of countries of its contributors'
institutions; works whose contributors expose no institution country are
counted as unknown. Tables can equally be keyed by institution.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import EmptySlice

COUNTRY_KEY = "country"
INSTITUTION_KEY = "institution"
VALID_KEYS = (COUNTRY_KEY, INSTITUTION_KEY)

_JOURNAL_TYPES = ("journal-article", "article")


@dataclass(frozen=True)
class WorkRecord:
    """One published work reduced to what the counting pipeline needs."""

    work_id: str
    year: int
    discipline_id: str
    nationalities: frozenset[str]
    institutions: frozenset[str]
    is_journal_article: bool


@dataclass(frozen=True)
class Period:
    """Inclusive year range with a display label."""

    label: str
    year_from: int
    year_to: int

    def __post_init__(self) -> None:
        if self.year_from > self.year_to:
            raise ValueError(f"period {self.label!r}: empty year range")

    def years(self) -> range:
        return range(self.year_from, self.year_to + 1)


def overlapping_periods(periods: Sequence[Period]) -> list[tuple[Period, Period]]:
    """All pairs of periods whose year ranges intersect."""
    clashes = []
    for a, b in combinations(periods, 2):
        if a.year_from <= b.year_to and b.year_from <= a.year_to:
            clashes.append((a, b))
    return clashes


def work_from_metadata(raw: Mapping, discipline_id: str) -> WorkRecord:
    """Build a WorkRecord from one raw works-endpoint item.

    One walk over every contributor's institutions collects the upper-cased
    country codes and the bare ROR ids (the https://ror.org/ prefix
    dropped); each counts once however often it appears. An empty country
    set means the nationality is unknown. Raises ValueError when the item
    is not a work object of the expected shape.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"work item is not an object: {raw!r}")
    work_id = raw.get("id")
    if not work_id:
        raise ValueError("work item has no id")
    year = raw.get("publication_year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError(f"work {work_id}: missing publication year")
    wtype = raw.get("type") or ""
    if not isinstance(wtype, str):
        raise ValueError(f"work {work_id}: type must be a string, got {wtype!r}")
    countries: set[str] = set()
    rors: set[str] = set()
    try:
        for authorship in raw.get("authorships") or ():
            for inst in authorship.get("institutions") or ():
                code, ror = inst.get("country_code"), inst.get("ror")
                if code:
                    countries.add(str(code).upper())
                if ror:
                    rors.add(str(ror).rsplit("/", 1)[-1])
    except (AttributeError, TypeError) as exc:
        # an authorship or institution entry that is not an object
        raise ValueError(f"work {work_id}: malformed authorships: {exc}") from exc
    return WorkRecord(
        work_id=str(work_id),
        year=year,
        discipline_id=discipline_id,
        nationalities=frozenset(countries),
        institutions=frozenset(rors),
        is_journal_article=wtype.lower() in _JOURNAL_TYPES,
    )


@dataclass(frozen=True)
class CountTable:
    """Production and co-production counts for one discipline/period slice.

    ``unary`` maps each entity to the number of works it appears in,
    ``pairwise`` maps each unordered pair (keys sorted ascending) to the
    number of works both appear in, and ``multi`` maps each entity to the
    number of its works involving at least one other entity. A work with
    an empty key set contributes only to ``unknown_count``. Completed
    tables are immutable and safe to share.
    """

    discipline_id: str
    period: Period
    key: str
    unary: dict[str, int] = field(default_factory=dict)
    pairwise: dict[tuple[str, str], int] = field(default_factory=dict)
    multi: dict[str, int] = field(default_factory=dict)
    unknown_count: int = 0
    total_count: int = 0

    def __post_init__(self) -> None:
        if self.key not in VALID_KEYS:
            raise ValueError(f"unknown aggregation key {self.key!r}")

    def pair_count(self, a: str, b: str) -> int:
        if a == b:
            return self.unary.get(a, 0)
        lo, hi = sorted((a, b))
        return self.pairwise.get((lo, hi), 0)


def count_years(
    records: Iterable[WorkRecord],
    discipline_id: str,
    years: range,
    key: str = COUNTRY_KEY,
) -> dict[int, CountTable]:
    """One-year count tables for ``years``, from one pass over ``records``.

    Records of another discipline or from a year outside ``years`` are
    skipped, and no record is kept once it is counted. Every work raises
    an entity's unary count at most once; pairwise counts cover each
    unordered entity pair present on the work.
    """
    if key not in VALID_KEYS:
        raise ValueError(f"unknown aggregation key {key!r}")
    unary: dict[int, Counter[str]] = {year: Counter() for year in years}
    pairwise: dict[int, Counter[tuple[str, str]]] = {year: Counter() for year in years}
    multi: dict[int, Counter[str]] = {year: Counter() for year in years}
    unknown = dict.fromkeys(years, 0)
    total = dict.fromkeys(years, 0)
    for rec in records:
        year = rec.year
        if rec.discipline_id != discipline_id or year not in total:
            continue
        total[year] += 1
        entities = sorted(
            rec.nationalities if key == COUNTRY_KEY else rec.institutions
        )
        if not entities:
            unknown[year] += 1
            continue
        for e in entities:
            unary[year][e] += 1
        if len(entities) >= 2:
            for e in entities:
                multi[year][e] += 1
            for pair in combinations(entities, 2):
                pairwise[year][pair] += 1
    return {
        year: CountTable(
            discipline_id=discipline_id,
            period=Period(str(year), year, year),
            key=key,
            unary=dict(unary[year]),
            pairwise=dict(pairwise[year]),
            multi=dict(multi[year]),
            unknown_count=unknown[year],
            total_count=total[year],
        )
        for year in years
    }


def build_count_table(
    records: Iterable[WorkRecord],
    discipline_id: str,
    period: Period,
    key: str = COUNTRY_KEY,
) -> CountTable:
    """Count works falling inside the discipline/period slice: the sum of
    the period's one-year tables from ``count_years``."""
    yearly = count_years(records, discipline_id, period.years(), key)
    return merge_tables(list(yearly.values()), period)


def merge_tables(tables: Sequence[CountTable], period: Period) -> CountTable:
    """Pointwise sum of count tables, labelled ``period``.

    The tables must count disjoint sets of works: a work counted in two of
    them is counted twice in the sum. They must share the discipline and
    the key, and each table's period must lie inside ``period``. The yearly
    tables of a period's years sum to that period's table.
    """
    if not tables:
        raise ValueError("merge_tables needs at least one table")
    discipline_id, key = tables[0].discipline_id, tables[0].key
    unary: Counter[str] = Counter()
    pairwise: Counter[tuple[str, str]] = Counter()
    multi: Counter[str] = Counter()
    unknown = 0
    total = 0
    for table in tables:
        if (table.discipline_id, table.key) != (discipline_id, key):
            raise ValueError("tables describe different disciplines or keys")
        if not (
            period.year_from <= table.period.year_from
            and table.period.year_to <= period.year_to
        ):
            raise ValueError(
                f"table period {table.period.label!r} lies outside {period.label!r}"
            )
        unary.update(table.unary)
        pairwise.update(table.pairwise)
        multi.update(table.multi)
        unknown += table.unknown_count
        total += table.total_count
    return CountTable(
        discipline_id=discipline_id,
        period=period,
        key=key,
        unary=dict(unary),
        pairwise=dict(pairwise),
        multi=dict(multi),
        unknown_count=unknown,
        total_count=total,
    )


def top_entities(table: CountTable, n: int) -> list[str]:
    """The n entities with the highest unary counts, ties broken by name."""
    ranked = sorted(table.unary.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, _ in ranked[:n]]


def unknown_rate(table: CountTable) -> float:
    """Fraction of works in the slice with an empty key set."""
    if table.total_count == 0:
        raise EmptySlice(
            f"{table.discipline_id} {table.period.label}: no works in slice"
        )
    return table.unknown_count / table.total_count
