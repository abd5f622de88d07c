"""Work records and co-production count tables.

A work's nationality is the set of countries of its contributors'
institutions; works whose contributors expose no institution country are
counted as unknown. Tables can equally be keyed by institution.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptySlice

COUNTRY_KEY = "country"
INSTITUTION_KEY = "institution"
VALID_KEYS = (COUNTRY_KEY, INSTITUTION_KEY)

_JOURNAL_TYPES = ("journal-article", "article")


@dataclass
class WorkRecord:
    """One published work reduced to what the counting pipeline needs; a
    record built for one aggregation key holds None for the other's set.

    A record has slots and no ``__dict__``, which makes it cheap to build.
    It compares by value but is not hashable, and nothing mutates one.
    The slots are declared by hand because ``dataclass(slots=True)`` drops
    weak references unless given ``weakref_slot``, which Python 3.10 lacks.
    """

    __slots__ = (
        "work_id", "year", "discipline_id", "nationalities", "institutions",
        "is_journal_article", "__weakref__",
    )

    work_id: str
    year: int
    discipline_id: str
    nationalities: frozenset[str] | None
    institutions: frozenset[str] | None
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


def work_from_metadata(
    raw: Mapping, discipline_id: str, key: str = COUNTRY_KEY
) -> WorkRecord:
    """Build a WorkRecord from one raw works-endpoint item.

    One walk over every contributor's institutions collects the upper-cased
    country codes and the bare ROR ids (the https://ror.org/ prefix
    dropped); each counts once however often it appears. A code that is
    empty or whitespace once normalised (``"https://ror.org/"``, ``" "``)
    names no entity and adds nothing. An empty country set means the
    nationality is unknown. Only ``key``'s set is collected; the other
    field is None. Raises ValueError for a key outside VALID_KEYS, and
    when the item is not a work object of the expected shape, whatever
    the key.
    """
    if key not in VALID_KEYS:
        raise ValueError(f"unknown aggregation key {key!r}")
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
    countries: set[str] | None = set() if key == COUNTRY_KEY else None
    rors: set[str] | None = None if countries is not None else set()
    try:
        for authorship in raw.get("authorships") or ():
            for inst in authorship.get("institutions") or ():
                # each wanted set reads its own field; either read fails
                # alike on an entry that is not an object
                if countries is not None and (code := inst.get("country_code")):
                    if (code := str(code).upper()).strip():
                        countries.add(code)
                if rors is not None and (ror := inst.get("ror")):
                    if (ror := str(ror).rsplit("/", 1)[-1]).strip():
                        rors.add(ror)
    except (AttributeError, TypeError) as exc:
        # an authorship or institution entry that is not an object
        raise ValueError(f"work {work_id}: malformed authorships: {exc}") from exc
    return WorkRecord(
        work_id=str(work_id),
        year=year,
        discipline_id=discipline_id,
        nationalities=None if countries is None else frozenset(countries),
        institutions=None if rors is None else frozenset(rors),
        is_journal_article=wtype.lower() in _JOURNAL_TYPES,
    )


# A pair of entity indices lo < hi is stored as the code (lo << 32) | hi.
PAIR_SHIFT = 32
PAIR_MASK = (1 << PAIR_SHIFT) - 1


@dataclass(frozen=True, eq=False)
class CountTable:
    """Production and co-production counts for one discipline/period slice.

    Counts are integer arrays over ``names``, the entity names in ascending
    order: ``unary_counts[i]`` is the number of works entity i appears in
    and ``multi_counts[i]`` the number of its works involving at least one
    other entity. Each unordered pair i < j that shares a work has its
    code ``(i << 32) | j`` in the ascending array ``pair_codes`` and the
    number of works both appear in at the same position of
    ``pair_counts``. A work with an empty key set contributes only to
    ``unknown_count``. The one-year tables of one ``count_years`` call
    share one ``names`` tuple, and entities may count zero in some years.

    ``unary``, ``pairwise`` (keys sorted ascending) and ``multi`` are the
    same counts keyed by name, holding only the non-zero ones; they are
    built on first read. Two tables are equal when they describe the same
    slice with the same non-zero counts. Completed tables are immutable
    and safe to share.
    """

    discipline_id: str
    period: Period
    key: str
    names: tuple[str, ...]
    unary_counts: np.ndarray
    multi_counts: np.ndarray
    pair_codes: np.ndarray
    pair_counts: np.ndarray
    unknown_count: int = 0
    total_count: int = 0

    def __post_init__(self) -> None:
        if self.key not in VALID_KEYS:
            raise ValueError(f"unknown aggregation key {self.key!r}")
        k = len(self.names)
        if self.unary_counts.shape != (k,) or self.multi_counts.shape != (k,):
            raise ValueError(f"unary and multi counts need one entry per name ({k})")
        if self.pair_codes.shape != self.pair_counts.shape:
            raise ValueError("pair codes and pair counts differ in length")

    def indices(self, entities: Sequence[str]) -> np.ndarray:
        """Index of each entity in ``names``, or -1 where it has none."""
        names = self.names
        out = np.full(len(entities), -1, dtype=np.int64)
        for k, entity in enumerate(entities):
            i = bisect_left(names, entity)
            if i < len(names) and names[i] == entity:
                out[k] = i
        return out

    @cached_property
    def _views(self) -> tuple[dict[str, int], dict[tuple[str, str], int], dict[str, int]]:
        """The non-zero unary, pairwise and multi counts keyed by name."""
        names = self.names
        unary = {names[i]: n for i, n in enumerate(self.unary_counts.tolist()) if n}
        multi = {names[i]: n for i, n in enumerate(self.multi_counts.tolist()) if n}
        lo, hi = self.pair_indices()
        pairwise = {
            (names[i], names[j]): count
            for i, j, count in zip(lo.tolist(), hi.tolist(), self.pair_counts.tolist())
        }
        return unary, pairwise, multi

    @property
    def unary(self) -> dict[str, int]:
        return self._views[0]

    @property
    def pairwise(self) -> dict[tuple[str, str], int]:
        return self._views[1]

    @property
    def multi(self) -> dict[str, int]:
        return self._views[2]

    def pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """The (lo, hi) entity indices of each entry of ``pair_codes``."""
        return self.pair_codes >> PAIR_SHIFT, self.pair_codes & PAIR_MASK

    def pair_count(self, a: str, b: str) -> int:
        """Works both entities appear in; for a == b, the entity's works."""
        i, j = self.indices(sorted((a, b))).tolist()
        if i < 0 or j < 0:
            return 0
        if i == j:
            return int(self.unary_counts[i])
        code = (i << PAIR_SHIFT) | j
        pos = int(np.searchsorted(self.pair_codes, code))
        if pos < len(self.pair_codes) and self.pair_codes[pos] == code:
            return int(self.pair_counts[pos])
        return 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return (
            self.discipline_id, self.period, self.key, self.unknown_count,
            self.total_count, self._views,
        ) == (
            other.discipline_id, other.period, other.key, other.unknown_count,
            other.total_count, other._views,
        )


def gather(values: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """``values`` at ``indices``, 0 where an index is -1."""
    out = np.zeros(len(indices), dtype=values.dtype)
    found = indices >= 0
    out[found] = values[indices[found]]
    return out


class _Interner(dict):
    """Entity name -> id, numbering names in order of first sight."""

    def __missing__(self, name: str) -> int:
        self[name] = n = len(self)
        return n


def count_years(
    records: Iterable[WorkRecord],
    discipline_id: str,
    years: range,
    key: str = COUNTRY_KEY,
) -> dict[int, CountTable]:
    """One-year count tables for ``years``, from one pass over ``records``.

    Records of another discipline or from a year outside ``years`` are
    skipped, and no record is kept once it is counted; a counted record
    built for the other key raises ValueError. Every work raises an
    entity's unary count at most once; pairwise counts cover each
    unordered entity pair present on the work.

    The pass only appends each counted work's year, its team size (the
    number of entities on it) and its interned entity ids to flat
    buffers. Once the stream ends, the ids are renumbered in name order,
    so every table shares one ``names``, and numpy reduces the buffers one
    team size at a time: the works of one size, in year order, form one
    block of works x size entity indices, which adds its (year, entity)
    cells to the unary counts and, for teams of two or more, to the multi
    counts, and whose row-sorted columns give every pair's code. Each
    year's codes from all sizes are then sorted and counted on their own,
    so no sort key holds a year. A table's unary and multi counts are
    rows of two (year, entity) blocks that all the years share; every
    array of every table is read-only.
    """
    from array import array  # a C extension; importing it here keeps it off start-up

    if key not in VALID_KEYS:
        raise ValueError(f"unknown aggregation key {key!r}")
    ids = _Interner()
    intern = ids.__getitem__
    work_years = array("q")  # one entry per counted work
    team_sizes = array("i")
    entity_ids = array("i")  # one entry per work and entity, work after work
    by_country = key == COUNTRY_KEY
    for rec in records:
        year = rec.year
        if rec.discipline_id != discipline_id or year not in years:
            continue
        entities = rec.nationalities if by_country else rec.institutions
        if entities is None:
            raise ValueError(f"work {rec.work_id}: record holds no {key} set")
        work_years.append(year)
        team_sizes.append(len(entities))
        entity_ids.extend(map(intern, entities))

    names = tuple(sorted(ids))
    k, n_years = len(names), len(years)
    rank = np.empty(k, dtype=np.int32)
    rank[np.fromiter(map(intern, names), dtype=np.int64, count=k)] = np.arange(k)
    # each buffer is released as soon as it is reduced
    slot = np.frombuffer(work_years, dtype=np.int64) - years.start
    slot //= years.step  # each work's index in ``years``
    del work_years
    size = np.frombuffer(team_sizes, dtype=np.int32)
    entity = rank[np.frombuffer(entity_ids, dtype=np.int32)]  # name index per work and entity
    del entity_ids, rank
    first_entity = np.cumsum(size, dtype=np.int64)
    first_entity -= size
    totals = np.bincount(slot, minlength=n_years).tolist()
    unknown = np.bincount(slot[size == 0], minlength=n_years).tolist()

    # ``by_size`` keeps each team size's pair codes, its works in year
    # order, and where each year's codes begin
    unary = np.zeros(n_years * k, dtype=np.int64)
    multi = np.zeros(n_years * k, dtype=np.int64)
    by_size = []
    year_edges = np.arange(n_years + 1)
    team_works = np.bincount(size).tolist()  # works per team size
    for s in range(1, len(team_works)):
        if not team_works[s]:
            continue
        works = np.flatnonzero(size == s)
        works = works[np.argsort(slot[works], kind="stable")]
        work_slot = slot[works]
        block = entity[first_entity[works, None] + np.arange(s)].astype(np.int64)
        cells = work_slot[:, None] * k + block
        np.add.at(unary, cells, 1)
        if s == 1:
            continue
        np.add.at(multi, cells, 1)
        block.sort(axis=1)  # distinct entities, so each pair is lo < hi
        lo, hi = np.triu_indices(s, 1)
        codes = (block[:, lo] << PAIR_SHIFT) | block[:, hi]
        starts = np.searchsorted(work_slot, year_edges) * len(lo)
        by_size.append((codes.ravel(), starts.tolist()))
    del entity, size, first_entity, slot, team_sizes
    unary, multi = unary.reshape(n_years, k), multi.reshape(n_years, k)
    unary.flags.writeable = multi.flags.writeable = False

    tables = {}
    for y, year in enumerate(years):
        # the year's pairs from every team size, each run of one code a count
        codes = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [pairs[starts[y]:starts[y + 1]] for pairs, starts in by_size]
        )
        codes.sort()
        first = np.flatnonzero(np.diff(codes, prepend=-1))
        pair_counts = np.diff(first, append=len(codes))
        codes = codes[first]
        codes.flags.writeable = pair_counts.flags.writeable = False
        tables[year] = CountTable(
            discipline_id=discipline_id,
            period=Period(str(year), year, year),
            key=key,
            names=names,
            unary_counts=unary[y],
            multi_counts=multi[y],
            pair_codes=codes,
            pair_counts=pair_counts,
            unknown_count=unknown[y],
            total_count=totals[y],
        )
    return tables


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
    the key, and each table's period must lie inside ``period``. They must
    also share their ``names``, as the tables of one ``count_years`` call
    do, and are summed array by array. The yearly tables of a period's
    years sum to that period's table.
    """
    if not tables:
        raise ValueError("merge_tables needs at least one table")
    discipline_id, key, names = tables[0].discipline_id, tables[0].key, tables[0].names
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
        if table.names != names:
            raise ValueError(
                "tables count different entity lists: merge the tables of one "
                "count_years call"
            )
    unary = np.sum([t.unary_counts for t in tables], axis=0, dtype=np.int64)
    multi = np.sum([t.multi_counts for t in tables], axis=0, dtype=np.int64)
    codes = np.concatenate([t.pair_codes for t in tables])
    counts = np.concatenate([t.pair_counts for t in tables])
    order = np.argsort(codes, kind="stable")
    codes, counts = codes[order], counts[order]
    first = np.flatnonzero(np.diff(codes, prepend=-1))  # start of each code's run
    return CountTable(
        discipline_id=discipline_id,
        period=period,
        key=key,
        names=names,
        unary_counts=unary,
        multi_counts=multi,
        pair_codes=codes[first],
        pair_counts=np.add.reduceat(counts, first) if first.size else counts,
        unknown_count=sum(t.unknown_count for t in tables),
        total_count=sum(t.total_count for t in tables),
    )


def top_entities(table: CountTable, n: int) -> list[str]:
    """The n entities with the highest unary counts, ties broken by name;
    entities with no works are never chosen."""
    present = np.flatnonzero(table.unary_counts)
    # index order is name order, so a stable sort on -count breaks ties by name
    ranked = present[np.argsort(-table.unary_counts[present], kind="stable")]
    return [table.names[i] for i in ranked[:n].tolist()]


def unknown_rate(table: CountTable) -> float:
    """Fraction of works in the slice with an empty key set."""
    if table.total_count == 0:
        raise EmptySlice(
            f"{table.discipline_id} {table.period.label}: no works in slice"
        )
    return table.unknown_count / table.total_count
