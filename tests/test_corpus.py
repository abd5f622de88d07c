"""Counting rules: nationality extraction, count tables, rankings,
serialization."""

from __future__ import annotations

import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabkit.corpus import (
    COUNTRY_KEY,
    INSTITUTION_KEY,
    VALID_KEYS,
    CountTable,
    Period,
    WorkRecord,
    build_count_table,
    count_years,
    merge_tables,
    overlapping_periods,
    top_entities,
    unknown_rate,
    work_from_metadata,
)
from util import (
    POOL6,
    POOL12,
    brute_work_sets,
    brute_year_table,
    records_from_sets,
    table_from_sets,
)

nationality_sets = st.frozensets(st.sampled_from(POOL12), max_size=10)
corpora = st.lists(nationality_sets, min_size=0, max_size=50)

# one institution entry: any mix of a country code (any case, blank, not
# a string, or none) and a ROR id (bare, URL form, blank, not a string, or
# none), with absent and null keys both drawn
_non_string_code = st.sampled_from((5, True, ["US"], 0, False, [], {}))
_institutions = st.fixed_dictionaries(
    {},
    optional={
        "country_code": st.none()
        | st.sampled_from(("", " ", "\t"))
        | st.sampled_from(POOL6 + ("at", "fi"))
        | _non_string_code,
        "ror": st.none()
        | st.sampled_from(("", " ", "https://ror.org/", "https://ror.org/ "))
        | st.sampled_from(("01aaa", "02bbb", "https://ror.org/01aaa", "https://ror.org/03ccc"))
        | _non_string_code,
    },
)
# falsy values of a list field that are not null or [], and so not absent
_falsy_not_a_list = st.sampled_from((0, False, "", {}))
raw_authorships = st.fixed_dictionaries(
    {},
    optional={
        "authorships": st.none() | _falsy_not_a_list | st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "institutions": st.none()
                    | _falsy_not_a_list
                    | st.lists(_institutions, max_size=3)
                },
            ),
            max_size=4,
        )
    },
)

# any raw item, well-formed or not: a non-object, an object whose id, year
# or type may be missing or of the wrong type, a work whose authorships
# and institutions may be of any shape, or a work of well-formed shape
_not_an_object = st.sampled_from(["x", 5, None, [], True])
_authorship = st.fixed_dictionaries(
    {},
    optional={
        "institutions": st.none()
        | _not_an_object
        | _falsy_not_a_list
        | st.lists(_institutions | _not_an_object, max_size=3)
    },
)
_work_type = st.sampled_from(
    ["article", "Journal-Article", "preprint", "", None, 5, 0, False, [], {}]
)
raw_items = (
    _not_an_object
    | st.fixed_dictionaries(
        {},
        optional={
            "id": st.sampled_from(["W1", "", None]),
            "publication_year": st.sampled_from([2000, None, True, "2000"]),
            "type": _work_type,
        },
    )
    | st.fixed_dictionaries(
        {"id": st.just("https://openalex.org/W2"), "publication_year": st.just(1971)},
        optional={
            "type": _work_type,
            "authorships": st.none()
            | _not_an_object
            | _falsy_not_a_list
            | st.lists(_authorship | _not_an_object, max_size=4),
        },
    )
    | raw_authorships.map(lambda a: {"id": "W3", "publication_year": 1999, **a})
)


def _raw_work(countries_per_author, work_id="https://openalex.org/W1", year=2000,
              wtype="journal-article"):
    authorships = []
    for countries in countries_per_author:
        insts = []
        for j, c in enumerate(countries):
            if c is None:
                insts.append({})
            else:
                insts.append(
                    {
                        "ror": f"https://ror.org/{c.lower()}{j}77",
                        "country_code": c,
                    }
                )
        authorships.append({"institutions": insts})
    return {
        "id": work_id,
        "publication_year": year,
        "type": wtype,
        "authorships": authorships,
    }


def _sets(raw):
    """(nationalities, institutions) of one item, as work_from_metadata
    builds them for each key, None for a key that refuses the item; the
    item gets an id and a year unless it has them."""
    raw = {"id": "W1", "publication_year": 2000, **raw}
    sets = []
    for key, field in ((COUNTRY_KEY, "nationalities"), (INSTITUTION_KEY, "institutions")):
        try:
            sets.append(getattr(work_from_metadata(raw, "C1", key), field))
        except ValueError:
            sets.append(None)
    return tuple(sets)


def _non_string_code_fields(raw):
    """The institution fields that hold a code that is neither a string nor
    null in some institution object reached from ``raw`` through lists of
    objects."""

    def objects(value):
        return [v for v in value if isinstance(v, dict)] if isinstance(value, list) else []

    return {
        field
        for authorship in objects(raw.get("authorships") if isinstance(raw, dict) else None)
        for inst in objects(authorship.get("institutions"))
        for field in ("country_code", "ror")
        if inst.get(field) is not None and not isinstance(inst[field], str)
    }


def _authorships(*insts_per_author):
    return {"authorships": [{"institutions": list(insts)} for insts in insts_per_author]}


class TestNationality:
    def test_dual(self):
        raw = _raw_work([["US"], ["CN"]])
        assert _sets(raw) == ({"US", "CN"}, {"us077", "cn077"})

    def test_same_country_counts_once(self):
        raw = _raw_work([["US"], ["US"]])
        assert _sets(raw) == ({"US"}, {"us077"})

    def test_all_unknown(self):
        raw = _raw_work([[None], [None]])
        assert _sets(raw) == (frozenset(), frozenset())

    def test_partial_unknown_contributes_nothing(self):
        raw = _raw_work([["US"], [None]])
        assert _sets(raw) == ({"US"}, {"us077"})

    def test_missing_authorships(self):
        assert _sets({}) == (frozenset(), frozenset())

    def test_lowercase_normalized(self):
        raw = _authorships([{"country_code": "us"}])
        assert _sets(raw) == ({"US"}, frozenset())


class TestInstitutions:
    def test_ror_tail_normalization(self):
        raw = _raw_work([["US", "CN"]])
        assert _sets(raw) == ({"US", "CN"}, {"us077", "cn177"})

    def test_missing_ror_skipped(self):
        raw = _authorships([{"country_code": "US"}])
        assert _sets(raw) == ({"US"}, frozenset())

    def test_ror_without_country(self):
        raw = _authorships([{"ror": "https://ror.org/05abc"}], [{"country_code": "FR"}])
        assert _sets(raw) == ({"FR"}, {"05abc"})

    def test_country_without_ror(self):
        raw = _authorships([{"country_code": "DE", "ror": None}, {"ror": "06xyz"}])
        assert _sets(raw) == ({"DE"}, {"06xyz"})

    def test_lowercase_code_with_url_ror(self):
        raw = _authorships([{"country_code": "gb", "ror": "https://ror.org/052gg0110"}])
        assert _sets(raw) == ({"GB"}, {"052gg0110"})

    @given(raw_authorships)
    def test_matches_brute_force(self, raw):
        assert _sets(raw) == brute_work_sets(raw)

    @pytest.mark.parametrize(
        "inst,expected",
        [
            ({"country_code": 5}, (None, {"01aaa"})),
            ({"country_code": True}, (None, {"01aaa"})),
            ({"country_code": ["US"]}, (None, {"01aaa"})),
            ({"ror": 12}, ({"US"}, None)),
            ({"ror": ["https://ror.org/01aaa"]}, ({"US"}, None)),
            *(({"country_code": code}, (None, {"01aaa"})) for code in (0, False, [], {})),
            *(({"ror": code}, ({"US"}, None)) for code in (0, False, [], {})),
        ],
    )
    def test_non_string_code_is_refused_by_the_key_that_reads_it(self, inst, expected):
        # {"country_code": 5} is not the country "5", nor ["US"] "['US']",
        # and a falsy 0 is not a missing code
        known = {"country_code": "US", "ror": "https://ror.org/01aaa"}
        raw = _authorships([known], [inst])
        assert _sets(raw) == expected
        key = COUNTRY_KEY if expected[0] is None else INSTITUTION_KEY
        [(field, code)] = inst.items()
        message = f"work W1: {field} {code!r} is not a string"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            work_from_metadata({"id": "W1", "publication_year": 2000, **raw}, "C1", key)

    def test_blank_codes_name_no_entity(self):
        blank = {"country_code": " ", "ror": "https://ror.org/"}
        assert _sets(_authorships([blank])) == (frozenset(), frozenset())
        known = {"country_code": "US", "ror": "https://ror.org/01aaa"}
        assert _sets(_authorships([blank], [known])) == ({"US"}, {"01aaa"})

    @pytest.mark.parametrize("key,entity", [(COUNTRY_KEY, "US"), (INSTITUTION_KEY, "01aaa")])
    def test_blank_codes_count_as_unknown(self, key, entity):
        blank = {"country_code": " ", "ror": "https://ror.org/"}
        known = {"country_code": "US", "ror": "https://ror.org/01aaa"}
        raws = [
            {"id": f"W{i}", "publication_year": 2000, **authorships}
            for i, authorships in enumerate(
                [_authorships([blank]), _authorships([blank], [known])]
            )
        ]
        records = [work_from_metadata(raw, "C1", key) for raw in raws]
        table = count_years(records, "C1", range(2000, 2001), key)[2000]
        assert (table.unknown_count, table.total_count) == (1, 2)
        assert table.unary == {entity: 1} and table.multi == {}


class TestWorkFromMetadata:
    def test_fields(self):
        rec = work_from_metadata(_raw_work([["US"], ["CN"]]), "C1")
        assert rec.work_id == "https://openalex.org/W1"
        assert rec.year == 2000
        assert rec.discipline_id == "C1"
        assert rec.nationalities == {"US", "CN"}
        assert rec.is_journal_article

    @pytest.mark.parametrize(
        "wtype,expected",
        [
            ("journal-article", True),
            ("article", True),
            ("Article", True),
            ("preprint", False),
            ("dataset", False),
            ("book", False),
            (None, False),
        ],
    )
    def test_journal_flag(self, wtype, expected):
        raw = _raw_work([["US"]], wtype=wtype)
        assert work_from_metadata(raw, "C1").is_journal_article is expected

    def test_missing_id(self):
        raw = _raw_work([["US"]])
        del raw["id"]
        with pytest.raises(ValueError):
            work_from_metadata(raw, "C1")

    @pytest.mark.parametrize("work_id", ["", 5, True, 1.5, ["W1"], {"a": 1}])
    def test_id_must_be_a_non_empty_string(self, work_id):
        # {"id": 5} and {"id": "5"} are not one work
        raw = _raw_work([["US"]])
        raw["id"] = work_id
        for key in VALID_KEYS:
            with pytest.raises(ValueError, match="no non-empty string id"):
                work_from_metadata(raw, "C1", key)

    def test_missing_year(self):
        raw = _raw_work([["US"]])
        raw["publication_year"] = None
        with pytest.raises(ValueError):
            work_from_metadata(raw, "C1")

    @pytest.mark.parametrize(
        "field,value",
        [
            *(("authorships", value) for value in (0, False, "", {})),
            *(("institutions", value) for value in (0, False, "", {})),
            *(("type", value) for value in (0, False, [], {})),
        ],
    )
    def test_falsy_value_is_not_an_absent_one(self, field, value):
        # only null or a missing key means absent: {"authorships": 0} is not
        # a work without authorships, nor {"type": []} one without a type
        raw = _raw_work([["US"]])
        if field == "institutions":
            raw["authorships"][0]["institutions"] = value
        else:
            raw[field] = value
        kind = "a string" if field == "type" else "a list"
        message = f"work https://openalex.org/W1: {field} {value!r} is not {kind}"
        for key in VALID_KEYS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                work_from_metadata(raw, "C1", key)


class TestKeyAwareRecords:
    @given(raw=raw_items)
    def test_the_key_picks_the_set_not_the_shape(self, raw):
        # a key refuses an item whose field it reads holds a code that is
        # neither a string nor null; otherwise the two keys disagree about
        # nothing: both refuse a malformed shape with one message, or each
        # key's record holds that key's set, the other field None, and the
        # rest of the two records agree
        outcomes = {}
        for key in VALID_KEYS:
            try:
                outcomes[key] = work_from_metadata(raw, "C1", key)
            except ValueError as exc:
                outcomes[key] = str(exc)
        bad_fields = _non_string_code_fields(raw)
        for key, field in ((COUNTRY_KEY, "country_code"), (INSTITUTION_KEY, "ror")):
            if field in bad_fields:
                assert isinstance(outcomes[key], str)
        if bad_fields:
            return
        by_country, by_institution = outcomes[COUNTRY_KEY], outcomes[INSTITUTION_KEY]
        assert type(by_country) is type(by_institution)
        if isinstance(by_country, str):
            assert by_country == by_institution
            return
        assert by_country.institutions is None and by_institution.nationalities is None
        assert (by_country.nationalities, by_institution.institutions) == brute_work_sets(raw)
        assert replace(by_country, nationalities=None) == replace(
            by_institution, institutions=None
        )
        assert work_from_metadata(raw, "C1") == by_country

    def test_unknown_key_is_refused(self):
        with pytest.raises(ValueError, match="'Country'"):
            work_from_metadata(_raw_work([["US"]]), "C1", "Country")

    @pytest.mark.parametrize("key", VALID_KEYS)
    def test_count_years_refuses_the_other_keys_record(self, key):
        other = INSTITUTION_KEY if key == COUNTRY_KEY else COUNTRY_KEY
        rec = work_from_metadata(_raw_work([["US"], ["CN"]]), "C1", other)
        with pytest.raises(ValueError, match=f"W1: record holds no {key} set"):
            count_years([rec], "C1", range(2000, 2001), key)


class TestRecordShape:
    def test_weak_references_and_no_dict(self):
        rec = work_from_metadata(_raw_work([["US"]]), "C1")
        assert weakref.ref(rec)() is rec
        assert not hasattr(rec, "__dict__")
        with pytest.raises(AttributeError):
            rec.note = "x"

    def test_replace_and_equality(self):
        rec = work_from_metadata(_raw_work([["US"], ["CN"]]), "C1")
        moved = replace(rec, year=2001)
        assert moved.year == 2001 and rec.year == 2000
        assert moved != rec and replace(moved, year=2000) == rec
        assert (moved.work_id, moved.nationalities) == (rec.work_id, rec.nationalities)
        assert rec == work_from_metadata(_raw_work([["CN"], ["US"]]), "C1")
        assert rec != replace(rec, institutions=frozenset())


class TestPeriod:
    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Period("bad", 2000, 1999)

    def test_overlap_detection(self):
        a = Period("a", 1971, 1990)
        b = Period("b", 1990, 2000)
        c = Period("c", 2001, 2010)
        assert overlapping_periods([a, b, c]) == [(a, b)]
        assert overlapping_periods([a, c]) == []


class TestBuildCountTable:
    def test_three_work_example(self):
        table = table_from_sets([{"US", "CN"}, {"US"}, set()])
        assert table.unary == {"CN": 1, "US": 2}
        assert table.pairwise == {("CN", "US"): 1}
        assert table.unknown_count == 1
        assert table.total_count == 3

    def test_single_trilateral_work(self):
        table = table_from_sets([{"X", "Y", "Z"}])
        assert table.unary == {"X": 1, "Y": 1, "Z": 1}
        assert table.pairwise == {("X", "Y"): 1, ("X", "Z"): 1, ("Y", "Z"): 1}
        assert table.multi == {"X": 1, "Y": 1, "Z": 1}

    def test_empty_stream(self):
        table = table_from_sets([])
        assert table.unary == {} and table.pairwise == {}
        assert table.total_count == 0 and table.unknown_count == 0

    def test_multi_counts(self):
        table = table_from_sets([{"X"}, {"X", "Y"}, {"X", "Y", "Z"}])
        assert table.unary["X"] == 3
        assert table.multi == {"X": 2, "Y": 2, "Z": 1}

    def test_discipline_and_period_filtering(self):
        records = records_from_sets([{"US"}], discipline="C1", year=1999)
        records += records_from_sets([{"CN"}], discipline="C2", year=1999)
        records += records_from_sets([{"FR"}], discipline="C1", year=2005)
        table = build_count_table(records, "C1", Period("90s", 1990, 1999), "country")
        assert table.unary == {"US": 1}
        assert table.total_count == 1

    def test_institution_key(self):
        records = records_from_sets([{"US", "CN"}, {"US"}])
        table = build_count_table(
            records, "D1", Period("2000", 2000, 2000), "institution"
        )
        assert table.unary == {"cn01x": 1, "us01x": 2}
        assert table.pairwise == {("cn01x", "us01x"): 1}

    def test_bad_key(self):
        with pytest.raises(ValueError):
            build_count_table([], "D1", Period("2000", 2000, 2000), "continent")

    def test_arrays_must_fit_the_names(self):
        table = table_from_sets([{"US", "CN"}, {"US"}])
        with pytest.raises(ValueError, match="one entry per name"):
            replace(table, multi_counts=table.multi_counts[:1])
        with pytest.raises(ValueError, match="differ in length"):
            replace(table, pair_counts=table.pair_counts[:0])

    def test_pair_count_accessor(self):
        table = table_from_sets([{"US", "CN"}, {"US"}])
        assert table.pair_count("US", "CN") == 1
        assert table.pair_count("CN", "US") == 1
        assert table.pair_count("US", "US") == 2
        assert table.pair_count("US", "FR") == 0

    @given(corpora)
    def test_pairwise_bound(self, sets):
        table = table_from_sets(sets)
        for (a, b), count in table.pairwise.items():
            assert count <= min(table.unary[a], table.unary[b])

    @given(corpora, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, sets, rng):
        records = records_from_sets(sets)
        shuffled = list(records)
        rng.shuffle(shuffled)
        period = Period("2000", 2000, 2000)
        assert build_count_table(records, "D1", period, "country") == build_count_table(
            shuffled, "D1", period, "country"
        )

    @given(corpora)
    def test_inclusion_exclusion(self, sets):
        table = table_from_sets(sets)
        for x, y in combinations(sorted(table.unary), 2):
            union = sum(1 for s in sets if x in s or y in s)
            assert table.unary[x] + table.unary[y] - table.pair_count(x, y) == union

    def test_shard_merge(self):
        # shards counted apart count different entity lists; one count over
        # the chained shards gives the whole table
        period = Period("2000", 2000, 2000)
        shards = ([{"US", "CN"}, {"US"}], [{"JP", "US"}])
        tables = [build_count_table(records_from_sets(s), "D1", period) for s in shards]
        with pytest.raises(ValueError, match="merge the tables of one count_years call"):
            merge_tables(tables, period)

    def test_merge_years_into_period(self):
        records = records_from_sets([{"US", "CN"}, {"US"}], year=2000)
        records += records_from_sets([set(), {"CN", "JP", "US"}], year=2001)
        period = Period("2000-2001", 2000, 2001)
        yearly = count_years(records, "D1", period.years())
        y2000, y2001 = yearly[2000], yearly[2001]
        assert merge_tables([y2000, y2001], period) == build_count_table(
            records, "D1", period
        )
        other_discipline = table_from_sets([{"US"}], discipline="D2", year=2001)
        other_key = table_from_sets([{"US"}], year=2001, key="institution")
        outside = table_from_sets([{"US"}], year=2002)
        other_pass = build_count_table(records, "D1", Period("2000", 2000, 2000))
        for tables in (
            [y2000, other_discipline],
            [y2000, other_key],
            [y2000, outside],
            [other_pass, y2001],  # tables from two counting passes
            [],
        ):
            with pytest.raises(ValueError):
                merge_tables(tables, period)

    def test_cross_key_consistency(self):
        # one institution per country means both keyings count identically
        rng = random.Random(13)
        sets = [frozenset(rng.sample(POOL6, rng.randint(1, 3))) for _ in range(40)]
        country = table_from_sets(sets, key="country")
        institution = table_from_sets(sets, key="institution")
        mapped = {k.upper().replace("01X", ""): v for k, v in institution.unary.items()}
        assert mapped == country.unary
        assert institution.total_count == country.total_count
        assert institution.unknown_count == country.unknown_count


def _perfbench_shaped_records(n, seed=5):
    """n records of discipline D1 over 1971-2020, shaped like perfbench's
    corpora: team sizes 1 to 6 weighted (40, 25, 15, 10, 6, 4), 5% of works
    with no institution, and members drawn by Zipf weight from 3,000
    institutions spread over 60 countries, so both keys' sets are held."""
    rng = np.random.default_rng(seed)

    def zipf(m):
        weights = 1.0 / np.arange(1, m + 1)
        return weights / weights.sum()

    inst_country = np.concatenate([np.arange(60), rng.choice(60, 2940, p=zipf(60))])
    countries = [chr(65 + c // 26) + chr(65 + c % 26) for c in inst_country.tolist()]
    institutions = [f"0pb{i:05d}" for i in range(3000)]
    sizes = rng.choice(np.arange(1, 7), n, p=np.array([40, 25, 15, 10, 6, 4]) / 100)
    sizes[rng.random(n) < 0.05] = 0
    members = rng.choice(3000, int(sizes.sum()), p=zipf(3000)).tolist()
    records, at = [], 0
    for i, size in enumerate(sizes.tolist()):
        team = members[at:at + size]
        at += size
        records.append(WorkRecord(
            f"W{i}", 1971 + i % 50, "D1",
            frozenset(countries[m] for m in team),
            frozenset(institutions[m] for m in team),
            True,
        ))
    return records


@pytest.fixture(scope="module")
def shaped_records():
    return _perfbench_shaped_records(100_000)


class TestCountYears:
    @pytest.mark.parametrize("key", VALID_KEYS)
    @pytest.mark.parametrize(
        "years, populated",
        [
            # a step of 3, with works in every year, so two in three are skipped
            (range(1990, 2003, 3), range(1989, 2004)),
            # years with no work between populated ones
            (range(1990, 2000), (1990, 1991, 1995, 1999)),
        ],
        ids=["step-3", "empty-years"],
    )
    def test_match_brute_force(self, key, years, populated):
        rng = random.Random(37)
        records = [
            rec
            for year in populated
            for rec in records_from_sets(
                [rng.sample(POOL12, rng.choice((0, 1, 1, 2, 2, 3, 4, 7))) for _ in range(12)],
                year=year,
            )
        ]
        rng.shuffle(records)
        yearly = count_years(iter(records), "D1", years, key)
        assert list(yearly) == list(years)
        names = yearly[years[0]].names
        for year, table in yearly.items():
            assert table.names == names and table.period == Period(str(year), year, year)
            assert (
                table.unary, table.pairwise, table.multi, table.unknown_count, table.total_count
            ) == brute_year_table(records, year, key)
            if year not in populated:
                assert table.total_count == 0 and not table.unary_counts.any()
        assert sum(t.total_count for t in yearly.values()) == sum(
            rec.year in years for rec in records
        )

    @pytest.mark.parametrize("key", VALID_KEYS)
    def test_a_stream_of_unknown_works_names_no_entity(self, key):
        records = records_from_sets([set()] * 3, year=1990)
        records += records_from_sets([set()] * 2, year=1992)
        yearly = count_years(iter(records), "D1", range(1990, 1994), key)
        for year, table in yearly.items():
            assert table.names == ()
            for counts in (table.unary_counts, table.multi_counts, table.pair_codes):
                assert counts.shape == (0,)
            assert (
                table.unary, table.pairwise, table.multi, table.unknown_count, table.total_count
            ) == brute_year_table(records, year, key)
        assert [t.unknown_count for t in yearly.values()] == [3, 0, 2, 0]
        assert [t.total_count for t in yearly.values()] == [3, 0, 2, 0]

    @pytest.mark.parametrize("key", VALID_KEYS)
    def test_holds_little_beyond_its_tables(self, key, shaped_records):
        # the reduction takes one year at a time, so while it runs it holds
        # the flat per-work buffers and one year's arrays beside the tables;
        # reducing all works at once held 2.9 to 4.5 MB more at 10^5 works
        tracemalloc.start()
        try:
            yearly = count_years(shaped_records, "D1", range(1971, 2021), key)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.total_count for t in yearly.values()) == len(shaped_records)
        assert peak - held <= 1_000_000


class TestRankings:
    def test_top_entities_strict(self):
        table = table_from_sets([{"AT"}] * 5 + [{"BE"}] * 3 + [{"CH"}])
        assert top_entities(table, 2) == ["AT", "BE"]

    def test_top_entities_tie_lexicographic(self):
        table = table_from_sets([{"AT"}] * 5 + [{"BE"}] * 5)
        assert top_entities(table, 1) == ["AT"]

    def test_top_entities_truncation_noop(self):
        table = table_from_sets([{"AT"}, {"BE"}])
        assert top_entities(table, 10) == ["AT", "BE"]

    @pytest.mark.parametrize(
        "sets,expected",
        [
            ([{"US"}, {"US"}, {"CN"}, set()], 0.25),
            ([{"US"}], 0.0),
            ([set(), set()], 1.0),
        ],
    )
    def test_unknown_rate(self, sets, expected):
        assert unknown_rate(table_from_sets(sets)) == expected

    def test_unknown_rate_empty_slice(self):
        with pytest.raises(ValueError, match="no works in slice"):
            unknown_rate(table_from_sets([]))

