"""Series indicators and density estimation."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from collabkit.metrics import (
    REASON_BELOW_MIN_VOLUME,
    REASON_DEGENERATE,
    REASON_MISSING,
    YearSeries,
    apply_min_volume_mask,
    bilateral_distance_series,
    collab_rate_series,
    intl_collab_rate,
    _quartiles,
    kde,
    silverman_bandwidth,
    yearly_series,
)
from util import POOL6, Tally, bilateral_point, kde_reference, table_from_sets

nationality_sets = st.frozensets(st.sampled_from(POOL6), max_size=4)
corpora = st.lists(nationality_sets, min_size=1, max_size=50)
# a year may hold no works at all, so every entity can be missing
yearly_corpora = st.dictionaries(
    st.integers(2000, 2009), st.lists(nationality_sets, max_size=20), min_size=1
)


def _tables_by_year(sets_by_year):
    return {year: table_from_sets(sets, year=year) for year, sets in sets_by_year.items()}


def _series(values, volumes, reasons=None, years=None):
    """A D1/US series from plain lists; years default to 2000, 2001, ..."""
    return YearSeries(
        "D1",
        "US",
        tuple(years or range(2000, 2000 + len(volumes))),
        np.array(values, dtype=float),
        np.array(volumes, dtype=np.int64),
        np.array(reasons or [None] * len(volumes), dtype=object),
    )


class TestCollabRate:
    def test_three_work_example(self):
        table = table_from_sets([{"X"}, {"X", "Y"}, {"X", "Y", "Z"}])
        assert intl_collab_rate(table, "X") == pytest.approx(2 / 3, abs=1e-15)

    def test_all_solo(self):
        table = table_from_sets([{"X"}, {"X"}])
        assert intl_collab_rate(table, "X") == 0.0

    def test_all_multinational(self):
        table = table_from_sets([{"X", "Y"}, {"X", "Z"}])
        assert intl_collab_rate(table, "X") == 1.0

    def test_empty_entity(self):
        table = table_from_sets([{"Y"}])
        with pytest.raises(ValueError, match="X: no works in"):
            intl_collab_rate(table, "X")

    def test_unknown_works_do_not_dilute(self):
        table = table_from_sets([{"X", "Y"}, set(), set()])
        assert intl_collab_rate(table, "X") == 1.0

    @given(corpora)
    def test_brute_force_equality(self, sets):
        table = table_from_sets(sets)
        for entity in table.unary:
            containing = [s for s in sets if entity in s]
            expected = sum(1 for s in containing if len(s) >= 2) / len(containing)
            assert intl_collab_rate(table, entity) == pytest.approx(
                expected, abs=1e-12
            )
            assert 0.0 <= intl_collab_rate(table, entity) <= 1.0


class TestSeriesConstruction:
    def test_years_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            _series([1.0, 1.0], [5, 5], years=(2000, 2000))

    @pytest.mark.parametrize("column", ["values", "volumes", "reasons"])
    def test_column_length_must_match_years(self, column):
        series = _series([1.0, 1.0], [5, 5])
        with pytest.raises(ValueError, match="one entry per year"):
            replace(series, **{column: getattr(series, column)[:1]})

    def test_points_view(self):
        series = _series([0.5, math.nan], [7, 0], [REASON_BELOW_MIN_VOLUME, REASON_MISSING])
        assert series.masked.tolist() == [True, True]
        assert [(p.year, p.value, p.volume, p.reason) for p in series.points] == [
            (2000, 0.5, 7, REASON_BELOW_MIN_VOLUME),
            (2001, None, 0, REASON_MISSING),
        ]

    def test_collab_rate_series(self):
        tables = _tables_by_year(
            {
                2000: [{"US"}, {"US", "CN"}],
                2001: [{"US"}],
                2002: [{"CN"}],
            }
        )
        series = collab_rate_series(tables, "D1", "US")
        assert [p.year for p in series.points] == [2000, 2001, 2002]
        assert series.points[0].value == pytest.approx(0.5)
        assert series.points[0].volume == 2
        assert series.points[1].value == 0.0
        assert series.points[2].masked and series.points[2].reason == REASON_MISSING

    def test_volume_series(self):
        tables = _tables_by_year({2000: [{"US"}, {"US"}], 2001: [{"CN"}]})
        _, (series,) = yearly_series(tables, "D1", ["US"])
        assert [(p.year, p.value, p.volume) for p in series.points] == [
            (2000, 2.0, 2),
            (2001, 0.0, 0),
        ]


def _point_tuples(series):
    return [(p.year, p.value, p.volume, p.masked, p.reason) for p in series.points]


class TestYearlySeries:
    @given(yearly_corpora, st.integers(0, 6))
    def test_rates_match_masked_single_series(self, sets_by_year, min_volume):
        # the pipeline's rate path against the acceptance-bound one
        tables = _tables_by_year(sets_by_year)
        entities = [*POOL6, "ZZ"]  # ZZ never has works
        rates, volumes = yearly_series(tables, "D1", entities, min_volume)
        for entity, rate, volume in zip(entities, rates, volumes):
            expected = apply_min_volume_mask(
                collab_rate_series(tables, "D1", entity), min_volume
            )
            assert (rate.discipline_id, rate.entity, rate.entity_b) == ("D1", entity, None)
            assert rate.points == expected.points  # every point field, reasons included
            assert (volume.discipline_id, volume.entity) == ("D1", entity)
            assert [(p.year, p.value, p.volume, p.masked) for p in volume.points] == [
                (year, float(t.unary[entity]), t.unary[entity], False)
                for year, t in _tallies(sets_by_year).items()
            ]


def _tallies(sets_by_year):
    """util's Tally of each year's work sets, in year order."""
    return {
        year: Tally([("W", year, frozenset(s), True) for s in sets], [year])
        for year, sets in sorted(sets_by_year.items())
    }


def _oracle_points(sets_by_year, a, b, min_volume):
    """Each year's point of the pair, from util's bilateral point."""
    return [
        (year, *bilateral_point(t, a, b, min_volume))
        for year, t in _tallies(sets_by_year).items()
    ]


class TestBilateralOracle:
    SETS_BY_YEAR = {
        2000: [{"AT"}, {"AT", "CH"}],  # BE missing
        2001: [{"AT"}, {"BE"}],  # degenerate
        2002: [{"AT", "BE"}] * 3 + [{"AT"}],  # three joint works
        2003: [{"AT", "BE", "CH"}] * 6 + [{"BE"}] * 2,  # six joint works
        2004: [],  # no works at all
    }

    @pytest.mark.parametrize("min_volume", [0, 4, 100])
    @pytest.mark.parametrize("pair", [("AT", "BE"), ("BE", "AT"), ("AT", "AT"), ("CH", "DK")])
    def test_every_case(self, pair, min_volume):
        tables = _tables_by_year(self.SETS_BY_YEAR)
        series = bilateral_distance_series(tables, "D1", *pair, min_volume=min_volume)
        assert (series.entity, series.entity_b) == pair
        assert _point_tuples(series) == _oracle_points(self.SETS_BY_YEAR, *pair, min_volume)

    def test_cases_covered(self):
        tables = _tables_by_year(self.SETS_BY_YEAR)
        reasons = {
            p.reason
            for pair in (("AT", "BE"), ("AT", "AT"))
            for p in bilateral_distance_series(tables, "D1", *pair, min_volume=4).points
        }
        assert reasons == {
            None,
            REASON_MISSING,
            REASON_DEGENERATE,
            REASON_BELOW_MIN_VOLUME,
        }

    @given(
        yearly_corpora,
        st.sampled_from(POOL6),
        st.sampled_from(POOL6),
        st.integers(0, 6),
    )
    def test_random_corpora(self, sets_by_year, a, b, min_volume):
        tables = _tables_by_year(sets_by_year)
        oracle = _oracle_points(sets_by_year, a, b, min_volume)
        for pair in ((a, b), (b, a)):
            series = bilateral_distance_series(tables, "D1", *pair, min_volume=min_volume)
            assert _point_tuples(series) == oracle


class TestMasking:
    def _series(self, volumes):
        return _series([0.5] * len(volumes), volumes)

    def test_paper_example(self):
        masked = apply_min_volume_mask(self._series([90, 150]), 100)
        assert [p.masked for p in masked.points] == [True, False]
        assert masked.points[0].reason == REASON_BELOW_MIN_VOLUME

    def test_threshold_zero_masks_nothing(self):
        masked = apply_min_volume_mask(self._series([0, 5]), 0)
        assert not any(p.masked for p in masked.points)

    def test_all_below(self):
        masked = apply_min_volume_mask(self._series([1, 2, 3]), 10)
        assert all(p.masked for p in masked.points)

    def test_values_retained(self):
        masked = apply_min_volume_mask(self._series([1]), 10)
        assert masked.points[0].value == 0.5

    def test_existing_mask_reason_kept(self):
        series = _series([math.nan], [0], [REASON_MISSING])
        masked = apply_min_volume_mask(series, 10)
        assert masked.points[0].reason == REASON_MISSING

    def test_shared_blocks_left_alone(self):
        # the series of one yearly_series call are column slices of one block
        tables = _tables_by_year({2000: [{"US"}, {"US", "CN"}], 2001: [{"CN"}] * 3})
        rates, volumes = yearly_series(tables, "D1", ["US", "CN"])
        assert rates[0].reasons.base is rates[1].reasons.base is not None
        before = [s.reasons.tolist() for s in rates + volumes]
        masked = apply_min_volume_mask(rates[0], 10)
        assert masked.reasons.tolist() == [REASON_BELOW_MIN_VOLUME, REASON_MISSING]
        assert [s.reasons.tolist() for s in rates + volumes] == before

    def test_shared_blocks_are_read_only(self):
        # a rate's volumes and the volume series are the same memory
        tables = _tables_by_year({2000: [{"US"}, {"US", "CN"}], 2001: [{"CN"}] * 3})
        rates, volumes = yearly_series(tables, "D1", ["US", "CN"])
        assert np.shares_memory(rates[0].volumes, volumes[0].volumes)
        for s in rates + volumes:
            for column in (s.values, s.volumes, s.reasons):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[1]
        assert volumes[0].volumes.tolist() == [2, 0]


class TestBilateral:
    def test_frozen_arithmetic(self):
        # n_X=100, n_Y=50, joint 25: affinity 0.2, distance 0.8
        sets = (
            [{"US", "CN"}] * 25 + [{"US"}] * 75 + [{"CN"}] * 25
        )
        tables = _tables_by_year({2000: sets})
        series = bilateral_distance_series(tables, "D1", "US", "CN", min_volume=0)
        point = series.points[0]
        assert point.value == pytest.approx(1.6094379124341003, abs=1e-12)
        assert point.volume == 25
        assert not point.masked

    def test_disjoint_masked_degenerate(self):
        tables = _tables_by_year({2000: [{"US"}, {"CN"}]})
        series = bilateral_distance_series(tables, "D1", "US", "CN", min_volume=0)
        point = series.points[0]
        assert point.masked and point.reason == REASON_DEGENERATE
        assert point.value is None

    def test_identity_pair_zero(self):
        tables = _tables_by_year({2000: [{"US"}, {"US", "CN"}]})
        series = bilateral_distance_series(tables, "D1", "US", "US", min_volume=0)
        assert series.points[0].value == 0.0

    def test_missing_entity_year(self):
        tables = _tables_by_year({2000: [{"US"}], 2001: [{"US", "CN"}]})
        series = bilateral_distance_series(tables, "D1", "US", "CN", min_volume=0)
        assert series.points[0].masked
        assert series.points[0].reason == REASON_MISSING
        assert not series.points[1].masked

    def test_min_volume_masking_keeps_value(self):
        sets = [{"US", "CN"}] * 5 + [{"US"}] * 5
        tables = _tables_by_year({2000: sets})
        series = bilateral_distance_series(tables, "D1", "US", "CN", min_volume=100)
        point = series.points[0]
        assert point.masked and point.reason == REASON_BELOW_MIN_VOLUME
        assert point.value is not None and point.volume == 5

    def test_symmetry(self):
        rng = random.Random(5)
        sets_by_year = {
            y: [
                frozenset(rng.sample(POOL6, rng.randint(1, 3)))
                for _ in range(rng.randint(2, 30))
            ]
            for y in range(2000, 2010)
        }
        tables = _tables_by_year(sets_by_year)
        ab = bilateral_distance_series(tables, "D1", "AT", "BE", min_volume=2)
        ba = bilateral_distance_series(tables, "D1", "BE", "AT", min_volume=2)
        assert [(p.year, p.value, p.volume, p.masked) for p in ab.points] == [
            (p.year, p.value, p.volume, p.masked) for p in ba.points
        ]


class TestKde:
    def test_too_few_values(self):
        with pytest.raises(ValueError, match="needs >= 2 values, got 1"):
            kde([1.0])

    def test_symmetric_input_symmetric_density(self):
        curve = kde([-2.0, -1.0, 1.0, 2.0])
        assert np.abs(curve.density - curve.density[::-1]).max() < 1e-9

    def test_repeated_value_peaks_there(self):
        curve = kde([3.0, 3.0, 3.0])
        peak_x = curve.x[np.argmax(curve.density)]
        assert abs(peak_x - 3.0) < 1e-6

    def test_normal_sample_peak_near_zero(self):
        rng = np.random.default_rng(42)
        curve = kde(rng.standard_normal(10000))
        peak_x = curve.x[np.argmax(curve.density)]
        assert abs(peak_x) < 0.1

    def test_integral_close_to_one(self):
        rng = random.Random(9)
        for _ in range(10):
            values = [rng.gauss(0, 1 + rng.random()) for _ in range(rng.randint(2, 200))]
            curve = kde(values)
            x, d = curve.x, curve.density
            assert np.sum(np.diff(x) * (d[1:] + d[:-1])) / 2 == pytest.approx(1.0, abs=1e-3)
            assert (curve.density >= 0).all()

    def test_grid_covers_three_bandwidths(self):
        values = [0.0, 1.0, 2.0, 5.0]
        curve = kde(values)
        bw = curve.bandwidth
        assert curve.x[0] <= min(values) - 3 * bw
        assert curve.x[-1] >= max(values) + 3 * bw

    def test_silverman_frozen(self):
        assert silverman_bandwidth([0.0, 1.0, 2.0, 3.0, 4.0]) == pytest.approx(
            0.9735846228506357, rel=1e-12
        )

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=300))
    @example([0.0, 0.0, 0.0, 1.0, 1.5e-177])  # a bandwidth 1e177 times below the range
    def test_matches_whole_array_reference(self, values):
        grid, density, bw = kde_reference(values)
        curve = kde(values)
        assert curve.bandwidth == bw
        assert np.array_equal(curve.x, grid)
        assert np.array_equal(curve.density, density)

    @given(st.lists(st.floats(), min_size=1, max_size=300))
    def test_quartiles_are_percentile_bits(self, values):
        # every float, including -0.0, infinities and NaN, and a lone value
        x = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf, as in numpy's own steps
            expected = np.percentile(x, [75.0, 25.0])
            quartiles = _quartiles(x)
        assert np.array_equal(quartiles.view(np.int64), expected.view(np.int64))

    def test_silverman_degenerate_fallback(self):
        assert silverman_bandwidth([2.0, 2.0, 2.0]) > 0.0

    def test_subnormal_spread_falls_back(self):
        # a subnormal bandwidth would underflow the kernel normaliser
        values = [0.0, 5e-324, 1e-323]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            curve = kde(values)
        assert curve.bandwidth == 1e-9 == kde_reference(values)[2]
        assert np.isfinite(curve.density).all()
        x, d = curve.x, curve.density
        assert np.sum(np.diff(x) * (d[1:] + d[:-1])) / 2 == pytest.approx(1.0, abs=1e-3)
        # a normal-range width, however small, is kept
        assert 0.0 < silverman_bandwidth([0.0, 1e-300]) < 1e-300
