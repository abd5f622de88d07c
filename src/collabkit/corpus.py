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

COUNTRY_KEY = "country"
INSTITUTION_KEY = "institution"
VALID_KEYS = (COUNTRY_KEY, INSTITUTION_KEY)
# each key's institution field, and the normal form records hold of a code
# read there: a country code upper-cased, a ROR id after its last /
KEY_FIELDS = {
    COUNTRY_KEY: ("country_code", str.upper),
    INSTITUTION_KEY: ("ror", lambda code: code.rsplit("/", 1)[-1]),
}

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


def _no_entries(value, field: str, work_id: str) -> tuple:
    """The entries of a falsy list field: none for null or ``[]``, and a
    ValueError naming the field and the value for ``0``, ``False``, ``""``
    or ``{}``, which are not an empty list."""
    if value is None or isinstance(value, list):
        return ()
    raise ValueError(f"work {work_id}: {field} {value!r} is not a list")


def work_from_metadata(
    raw: Mapping, discipline_id: str, key: str = COUNTRY_KEY
) -> WorkRecord:
    """Build a WorkRecord from one raw works-endpoint item.

    One walk over every contributor's institutions reads only the field
    ``key`` names, and takes each code's normal form from ``KEY_FIELDS``:
    a ``country_code`` is upper-cased, a ``ror`` id keeps the part after
    its last ``/``. Each code counts once; one that is
    blank once normalised (``"https://ror.org/"``, ``" "``) adds nothing.
    An empty country set means the nationality is unknown. The other
    key's set is None. Raises ValueError for a key outside VALID_KEYS,
    for an item that is not a work object of the expected shape whatever
    the key, and, naming the field and the value, for a code that is
    neither a string nor null in the field ``key`` reads: ``0``, ``False``,
    ``[]`` and ``{}`` are refused, not read as no code. Only null or a
    missing key means "absent" in any field: ``authorships`` and
    ``institutions`` must be lists and ``type`` a string, so ``0``,
    ``False``, ``""`` or ``{}`` in a list field and ``0``, ``False``,
    ``[]`` or ``{}`` in ``type`` raise under both keys, as in
    ``work W1: authorships 0 is not a list``.
    """
    if key not in KEY_FIELDS:
        raise ValueError(f"unknown aggregation key {key!r}")
    field, normal = KEY_FIELDS[key]
    if not isinstance(raw, dict):
        raise ValueError(f"work item is not an object: {raw!r}")
    work_id = raw.get("id")
    if not isinstance(work_id, str) or not work_id:
        # a work id of 5 would otherwise be deduplicated with "5"
        raise ValueError(f"work item has no non-empty string id: {work_id!r}")
    year = raw.get("publication_year")
    if not isinstance(year, int) or isinstance(year, bool):
        raise ValueError(f"work {work_id}: missing publication year")
    wtype = raw.get("type")
    if not isinstance(wtype, str):
        if wtype is not None:  # 0, False, [] and {} included
            raise ValueError(f"work {work_id}: type {wtype!r} is not a string")
        wtype = ""
    codes: set[str] = set()
    code = None
    try:
        for authorship in (found := raw.get("authorships")) or _no_entries(
            found, "authorships", work_id
        ):
            for inst in (found := authorship.get("institutions")) or _no_entries(
                found, "institutions", work_id
            ):
                if (code := inst.get(field)) is not None:
                    code = normal(code)
                    if code.strip():
                        codes.add(code)
    except (AttributeError, TypeError) as exc:
        # code is the value that failed, or else a string or None left by
        # an earlier entry when an entry is not an object
        if code is not None and not isinstance(code, str):
            raise ValueError(f"work {work_id}: {field} {code!r} is not a string") from exc
        raise ValueError(f"work {work_id}: malformed authorships: {exc}") from exc
    by_country = key == COUNTRY_KEY
    return WorkRecord(
        work_id=work_id,
        year=year,
        discipline_id=discipline_id,
        nationalities=frozenset(codes) if by_country else None,
        institutions=None if by_country else frozenset(codes),
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
    names: tuple[str, ...]
    unary_counts: np.ndarray
    multi_counts: np.ndarray
    pair_codes: np.ndarray
    pair_counts: np.ndarray
    unknown_count: int = 0
    total_count: int = 0

    def __post_init__(self) -> None:
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
            self.discipline_id, self.period, self.unknown_count, self.total_count,
            self._views,
        ) == (
            other.discipline_id, other.period, other.unknown_count, other.total_count,
            other._views,
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

    The pass files each counted work under its year: the year's two flat
    buffers take the work's team size (the number of entities on it) and
    its interned entity ids. Once the stream ends, the ids are renumbered
    in name order, so every table shares one ``names``, and numpy reduces
    the years one at a time, each year's buffers dropped before the next
    year's are read. A year's entities are counted into its rows of two
    (year, entity) blocks that all the years share: the unary counts, and
    the multi counts from its teams of two or more. The works of each team
    size form a block of works x size entity indices whose row-sorted
    columns give every pair's code, and the year's codes are sorted and
    each run of one code counted. Every array of every table is read-only.
    """
    from array import array  # a C extension; importing it here keeps it off start-up

    if key not in VALID_KEYS:
        raise ValueError(f"unknown aggregation key {key!r}")
    ids = _Interner()
    intern = ids.__getitem__
    # year -> (team size per work, entity ids work after work)
    buffers = {year: (array("i"), array("i")) for year in years}
    by_country = key == COUNTRY_KEY
    for rec in records:
        if rec.discipline_id != discipline_id or (found := buffers.get(rec.year)) is None:
            continue
        entities = rec.nationalities if by_country else rec.institutions
        if entities is None:
            raise ValueError(f"work {rec.work_id}: record holds no {key} set")
        found[0].append(len(entities))
        found[1].extend(map(intern, entities))

    names = tuple(sorted(ids))
    k = len(names)
    rank = np.empty(k, dtype=np.int64)
    rank[np.fromiter(map(intern, names), dtype=np.int64, count=k)] = np.arange(k)
    unary = np.zeros((len(years), k), dtype=np.int64)
    multi = np.zeros((len(years), k), dtype=np.int64)
    triu = {}  # team size -> the (lo, hi) columns of its pairs
    tables = {}
    for y, year in enumerate(years):
        size, entity = buffers.pop(year)
        size = np.frombuffer(size, dtype=np.int32)
        entity = rank[np.frombuffer(entity, dtype=np.int32)]  # name index per entry
        unary[y] = np.bincount(entity, minlength=k)
        multi[y] = np.bincount(entity[np.repeat(size > 1, size)], minlength=k)
        start = np.cumsum(size, dtype=np.int64)
        start -= size  # each work's first entry
        team_works = np.bincount(size, minlength=1).tolist()  # works per team size
        codes = [np.empty(0, dtype=np.int64)]
        for s in range(2, len(team_works)):
            if team_works[s]:
                block = entity[start[size == s, None] + np.arange(s)]
                block.sort(axis=1)  # distinct entities, so each pair is lo < hi
                if s not in triu:
                    triu[s] = np.triu_indices(s, 1)
                lo, hi = triu[s]
                codes.append(((block[:, lo] << PAIR_SHIFT) | block[:, hi]).ravel())
        codes = np.concatenate(codes)
        codes.sort()
        first = np.flatnonzero(np.diff(codes, prepend=-1))  # start of each code's run
        pair_counts = np.diff(first, append=len(codes))
        codes = codes[first]
        table = CountTable(
            discipline_id=discipline_id,
            period=Period(str(year), year, year),
            names=names,
            unary_counts=unary[y],
            multi_counts=multi[y],
            pair_codes=codes,
            pair_counts=pair_counts,
            unknown_count=team_works[0],
            total_count=len(size),
        )
        for counts in (table.unary_counts, table.multi_counts, codes, pair_counts):
            counts.flags.writeable = False
        tables[year] = table
    unary.flags.writeable = multi.flags.writeable = False
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
    them is counted twice in the sum. They must share the discipline, and
    each table's period must lie inside ``period``. They must also share
    their ``names``, as the tables of one ``count_years`` call do, and are
    summed array by array. The yearly tables of a period's years sum to
    that period's table.
    """
    if not tables:
        raise ValueError("merge_tables needs at least one table")
    discipline_id, names = tables[0].discipline_id, tables[0].names
    for table in tables:
        if table.discipline_id != discipline_id:
            raise ValueError("tables describe different disciplines")
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
        raise ValueError(f"{table.discipline_id} {table.period.label}: no works in slice")
    return table.unknown_count / table.total_count
