"""Presentation layer: chord tables, circular dendrogram SVG, and the
CSV export formats."""

from __future__ import annotations

import math
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabkit.corpus import Period, build_count_table, top_entities
from collabkit.geometry import (
    Dendrogram,
    IcdResult,
    cut_clusters,
    distance_matrix,
    euclidean_embedding,
    ward_cluster,
)
from collabkit.metrics import (
    REASON_BELOW_MIN_VOLUME,
    REASON_DEGENERATE,
    REASON_MISSING,
    YearSeries,
    kde,
)
from collabkit.report import (
    PALETTE,
    TRUNK_COLOR,
    chord_to_csv,
    icd_detail_to_csv,
    icd_series_to_csv,
    kde_to_csv,
    render_circular_dendrogram,
    series_to_csv,
    writable_name,
)
from tests.util import (
    all_ties_chain,
    brute_leaf_sets,
    chord_csv_reference,
    random_dendrogram,
    records_from_sets,
    series_to_csv_reference,
    svg_reference,
    table_from_sets,
)

PERIOD = Period("2000", 2000, 2000)


def _svg_root(svg: str) -> ET.Element:
    return ET.fromstring(svg.split("?>", 1)[1])


def _tags(root, suffix):
    return [el for el in root.iter() if el.tag.split("}")[-1] == suffix]


@pytest.mark.parametrize(
    "name,writable",
    [("US", True), ("05abc", True), ("é日", True), ("", False), (" ", False),
     ("a,b", False), ("(x)", False), ("u\ts", False)],
)
def test_writable_name(name, writable):
    assert writable_name(name) is writable


# ids on both sides of __other__ in string order, and __other__ itself,
# whose rows then tie on (source, target) and sort by value
CHORD_NAMES = (
    "US", "CN", "JP", "0abc1", "0zz9", "a01", "b02x", "Z9", "_a", "__p", "`x", "~y",
    "__other__",
)


def _chord_rows(table, entities):
    """chord.csv's rows as (source, target, value), below its header."""
    header, *lines = "".join(chord_to_csv(table, entities)).splitlines()
    assert header == "source,target,value"
    return [(a, b, int(n)) for a, b, n in (line.split(",") for line in lines)]


class TestChordData:
    def test_two_entity_flow(self):
        table = table_from_sets([{"US", "CN"}] * 5 + [{"US"}] * 3)
        top = top_entities(table, 2)
        assert top == ["US", "CN"]  # count order: US 8, CN 5
        # one flow, the solo counts US 3 and CN 0, and no __other__ row
        assert _chord_rows(table, top) == [("CN", "CN", 0), ("CN", "US", 5), ("US", "US", 3)]

    def test_three_work_example(self):
        table = table_from_sets([{"US"}, {"CN", "US"}, set()])
        rows = _chord_rows(table, top_entities(table, 2))
        assert rows == [("CN", "CN", 0), ("CN", "US", 1), ("US", "US", 1)]

    def test_other_arc(self):
        # US co-produces with CN (kept) and once with BR (dropped at n=2)
        table = table_from_sets([{"US", "CN"}] * 3 + [{"US", "BR"}] + [{"CN"}])
        top = top_entities(table, 2)
        assert top == ["CN", "US"]  # tie at 4, lexicographic
        assert _chord_rows(table, top) == [
            ("CN", "CN", 1), ("CN", "US", 3), ("US", "US", 0), ("US", "__other__", 1)
        ]
        # the rows do not depend on the order the entities are given in
        assert _chord_rows(table, top[::-1]) == _chord_rows(table, top)

    def test_n_larger_than_entity_count(self):
        table = table_from_sets([{"US", "CN"}])
        top = top_entities(table, 10)
        assert top == ["CN", "US"]  # tie on count, lexicographic
        assert _chord_rows(table, top) == [("CN", "CN", 0), ("CN", "US", 1), ("US", "US", 0)]

    def test_n_below_two(self):
        table = table_from_sets([{"US", "CN"}])
        with pytest.raises(ValueError):  # at the call, before any block is drawn
            chord_to_csv(table, top_entities(table, 1))

    def test_entity_not_in_table(self):
        table = table_from_sets([{"US", "CN"}])
        with pytest.raises(ValueError):  # at the call, before any block is drawn
            chord_to_csv(table, ["US", "JP"])

    def test_csv_frozen(self):
        table = table_from_sets([{"US", "CN"}] * 5 + [{"US"}] * 3 + [{"US", "BR"}])
        # rows sort lexicographically; zero __other__ rows are omitted
        expected = (
            "source,target,value\n"
            "CN,CN,0\n"
            "CN,US,5\n"
            "US,US,3\n"
            "US,__other__,1\n"
        )
        assert "".join(chord_to_csv(table, top_entities(table, 2))) == expected

    def test_flow_conservation(self):
        table = table_from_sets(
            [{"US", "CN"}] * 4 + [{"US", "JP"}] * 2 + [{"CN", "JP"}] + [{"US"}] * 3
        )
        top = top_entities(table, 3)
        rows = _chord_rows(table, top)
        for ent in top:
            # its solo row, the flows it ends and its __other__ row
            total = sum(n for a, b, n in rows if ent in (a, b))
            assert total <= table.unary[ent]

    @given(
        st.lists(st.frozensets(st.sampled_from(CHORD_NAMES), max_size=5), max_size=40),
        st.sampled_from([2, 3, 5, 12]),
    )
    def test_matches_name_keyed_reference(self, sets, n):
        table = table_from_sets(sets)
        top = top_entities(table, n)
        if len(top) < 2:
            with pytest.raises(ValueError):
                chord_to_csv(table, top)
        else:
            assert "".join(chord_to_csv(table, top)) == chord_csv_reference(table, top)


def _clustered(sets, h_star=1.005):
    table = table_from_sets(sets)
    entities = sorted(table.unary)
    dm = distance_matrix(table, entities)
    dend = ward_cluster(dm)
    cut = cut_clusters(dend, h_star)
    volumes = {e: table.unary[e] for e in entities}
    return dend, cut, volumes


class TestDendrogramSvg:
    def test_two_leaves(self):
        dend, cut, volumes = _clustered([{"US", "CN"}] * 2 + [{"US"}] * 3)
        svg = render_circular_dendrogram(dend, cut, volumes)
        root = _svg_root(svg)
        assert root.get("width") == "640" and root.get("height") == "640"
        texts = _tags(root, "text")
        assert sorted(t.text for t in texts) == ["CN", "US"]
        circles = [c for c in _tags(root, "circle") if c.get("class") == "leaf"]
        assert len(circles) == 2
        assert all(c.get("data-entity") in ("US", "CN") for c in circles)

    def test_leaf_angles_uniform(self):
        sets = []
        pool = [f"Z{i:02d}" for i in range(30)]
        for i, a in enumerate(pool):
            sets.extend([{a}] * (i + 1))
            sets.append({a, pool[(i + 1) % 30]})
        dend, cut, volumes = _clustered(sets)
        svg = render_circular_dendrogram(dend, cut, volumes)
        root = _svg_root(svg)
        circles = [c for c in _tags(root, "circle") if c.get("class") == "leaf"]
        assert len(circles) == 30
        angles = sorted(
            math.atan2(float(c.get("cy")) - 320.0, float(c.get("cx")) - 320.0)
            for c in circles
        )
        gaps = [angles[i + 1] - angles[i] for i in range(len(angles) - 1)]
        gaps.append(2 * math.pi + angles[0] - angles[-1])
        for gap in gaps:
            assert gap == pytest.approx(2 * math.pi / 30, abs=1e-6)
        for c in circles:
            r = math.hypot(float(c.get("cx")) - 320.0, float(c.get("cy")) - 320.0)
            assert r == pytest.approx(200.0, abs=1e-4)

    def test_cluster_color_count_matches_cut(self):
        dend, cut, volumes = _clustered(
            [{"US", "CA"}] * 8 + [{"DE", "FR"}] * 8 + [{"US"}, {"CA"}, {"DE"}, {"FR"}]
        )
        svg = render_circular_dendrogram(dend, cut, volumes)
        root = _svg_root(svg)
        circles = [c for c in _tags(root, "circle") if c.get("class") == "leaf"]
        fills = {c.get("fill") for c in circles}
        assert len(fills) == cut.n_clusters
        assert fills <= set(PALETTE)
        for c in circles:
            label = cut.assignment[c.get("data-entity")]
            assert c.get("data-cluster") == str(label)
            assert c.get("fill") == PALETTE[(label - 1) % len(PALETTE)]

    def test_link_strokes_match_leaf_sets(self):
        # each merge draws its arc, then the spokes to its left and right
        # child; a node is coloured by its cluster when every leaf under it
        # shares one, and is trunk otherwise
        rng = random.Random(59)
        trees = [random_dendrogram(rng, rng.randint(2, 40)) for _ in range(60)]
        for dend in trees + [all_ties_chain(300)]:
            n = dend.n_leaves
            leaf_sets = brute_leaf_sets(dend)
            volumes = {e: i + 1 for i, e in enumerate(dend.entities)}
            for h_star in (rng.choice(dend.heights), 1.0, 1.005):
                cut = cut_clusters(dend, h_star)
                labels = [cut.assignment[e] for e in dend.entities]

                def color(node):
                    shared = {labels[i] for i in leaf_sets[node]}
                    if len(shared) > 1:
                        return TRUNK_COLOR
                    return PALETTE[(shared.pop() - 1) % len(PALETTE)]

                expected = [
                    color(node)
                    for k, m in enumerate(dend.merges)
                    for node in (n + k, m.left, m.right)
                ]
                root = _svg_root(render_circular_dendrogram(dend, cut, volumes))
                links = next(g for g in _tags(root, "g") if g.get("class") == "links")
                assert [path.get("stroke") for path in links] == expected

    def test_volume_bars_present(self):
        dend, cut, volumes = _clustered([{"US", "CN"}] * 2 + [{"US"}] * 6)
        svg = render_circular_dendrogram(dend, cut, volumes)
        root = _svg_root(svg)
        bars = [el for el in _tags(root, "path") if el.get("class") == "bar"]
        assert {b.get("data-entity") for b in bars} == {"US", "CN"}
        vols = {b.get("data-entity"): b.get("data-volume") for b in bars}
        assert vols == {"US": "8", "CN": "2"}

    def test_missing_volume_rejected(self):
        dend, cut, volumes = _clustered([{"US", "CN"}] * 2 + [{"US"}] * 3)
        volumes.pop("CN")
        with pytest.raises(ValueError, match="volume"):
            render_circular_dendrogram(dend, cut, volumes)

    def test_radius_decreases_with_height(self):
        dend, cut, volumes = _clustered(
            [{"US", "CA"}] * 8 + [{"DE", "FR"}] * 8 + [{"US"}, {"CA"}, {"DE"}, {"FR"}]
        )
        svg = render_circular_dendrogram(dend, cut, volumes)
        root = _svg_root(svg)
        paths = _tags(root, "path")
        assert paths  # at least the merge links exist
        # root node sits strictly inside the leaf ring
        h_max = max(m.height for m in dend.merges)
        assert h_max > 0

    def test_deterministic_bytes(self):
        dend, cut, volumes = _clustered([{"US", "CN"}] * 2 + [{"US"}] * 3)
        a = render_circular_dendrogram(dend, cut, volumes)
        b = render_circular_dendrogram(dend, cut, volumes)
        assert a == b

    # every character ElementTree escapes in an attribute or in text, an
    # apostrophe it leaves alone, and non-ASCII
    NAME_ALPHABET = "ab&<>\"'\r\n\té日"

    @given(
        st.randoms(use_true_random=False),
        st.integers(2, 40),
        st.data(),
    )
    def test_bytes_match_the_element_tree_reference(self, rng, n, data):
        names = data.draw(
            st.lists(
                st.text(self.NAME_ALPHABET, min_size=1, max_size=5),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
        dend = Dendrogram(tuple(names), random_dendrogram(rng, n).merges)
        # a cut at, just below or just above a merge height, or past them all
        h_star = data.draw(
            st.tuples(st.sampled_from(dend.heights), st.sampled_from((-1e-9, 0.0, 1e-9))).map(sum)
            | st.sampled_from((0.0, 1.005, max(dend.heights) + 1.0))
        )
        cut = cut_clusters(dend, h_star)
        counts = data.draw(
            st.just([0] * n) | st.lists(st.integers(0, 10**6), min_size=n, max_size=n)
        )
        volumes = dict(zip(names, counts))
        svg = render_circular_dendrogram(dend, cut, volumes)
        assert svg == svg_reference(dend, cut, volumes)
        root = _svg_root(svg)
        # attribute values keep CR as &#13;; a parser reads element text's CR as LF
        leaves = [c.get("data-entity") for c in _tags(root, "circle")]
        assert leaves == names
        bars = next(g for g in _tags(root, "g") if g.get("class") == "bars")
        assert len(bars) == (n if any(counts) else 0)

    def test_escaped_names_and_empty_bars_group(self):
        names = ('a&"b', "<\r\n\t>")
        dend = Dendrogram(names, all_ties_chain(2).merges)
        cut = cut_clusters(dend, 1.005)
        svg = render_circular_dendrogram(dend, cut, dict.fromkeys(names, 0))
        assert '<g class="bars" />' in svg
        assert 'data-entity="a&amp;&quot;b"' in svg
        assert 'data-entity="&lt;&#13;&#10;&#09;&gt;"' in svg
        assert '>a&amp;"b</text>' in svg
        assert ">&lt;\r\n\t&gt;</text>" in svg

    @pytest.mark.parametrize("n", [200, 2000])
    def test_large_tree_matches_the_reference(self, n):
        rng = random.Random(n)
        dend = random_dendrogram(rng, n)
        cut = cut_clusters(dend, dend.heights[n // 2])
        volumes = {e: rng.randrange(1000) for e in dend.entities}
        assert render_circular_dendrogram(dend, cut, volumes) == svg_reference(
            dend, cut, volumes
        )


SERIES = YearSeries(
    discipline_id="C1",
    entity="US",
    years=(1990, 1991),
    values=np.array([0.25, np.nan]),
    volumes=np.array([120, 30]),
    reasons=np.array([None, REASON_BELOW_MIN_VOLUME], dtype=object),
)

BILATERAL = YearSeries(
    discipline_id="C1",
    entity="US",
    years=(1990,),
    values=np.array([1.6094379124341003]),
    volumes=np.array([25]),
    reasons=np.array([None], dtype=object),
    entity_b="CN",
)


@st.composite
def _year_series(draw):
    """A single or pair series whose points are unmasked with a value,
    masked below min volume with their value kept, or masked missing or
    degenerate with none; some values repeat, -0.0 among them."""
    years = sorted(draw(st.sets(st.integers(1960, 2030), max_size=6)))
    reasons = draw(
        st.lists(
            st.sampled_from([None, REASON_BELOW_MIN_VOLUME, REASON_MISSING, REASON_DEGENERATE]),
            min_size=len(years),
            max_size=len(years),
        )
    )
    value = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(allow_nan=False))
    values = [
        draw(value) if reason in (None, REASON_BELOW_MIN_VOLUME) else math.nan
        for reason in reasons
    ]
    volumes = draw(st.lists(st.integers(0, 500), min_size=len(years), max_size=len(years)))
    return YearSeries(
        draw(st.sampled_from(["C1", "C2"])),
        draw(st.sampled_from(["US", "CN"])),
        tuple(years),
        np.array(values, dtype=float),
        np.array(volumes, dtype=np.int64),
        np.array(reasons, dtype=object),
        draw(st.sampled_from([None, "CN", "JP"])),
    )


class TestSeriesExports:
    def test_csv_frozen(self):
        expected = (
            "discipline,entity,year,value,volume,masked\n"
            "C1,US,1990,0.25,120,false\n"
            "C1,US,1991,,30,true\n"
        )
        assert "".join(series_to_csv([SERIES])) == expected

    def test_bilateral_csv_has_entity_b(self):
        expected = (
            "discipline,entity,entity_b,year,value,volume,masked\n"
            "C1,US,CN,1990,1.60944,25,false\n"
        )
        assert "".join(series_to_csv([BILATERAL])) == expected

    def test_mixed_collections_use_pair_header(self):
        text = "".join(series_to_csv([SERIES, BILATERAL]))
        lines = text.strip().split("\n")
        assert lines[0] == "discipline,entity,entity_b,year,value,volume,masked"
        assert lines[1] == "C1,US,,1990,0.25,120,false"  # unary rows blank the column

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            series_to_csv([])
        with pytest.raises(ValueError):
            icd_series_to_csv("C1", [])

    def test_round_trip_via_parser(self):
        expected = (
            "discipline,entity,entity_b,year,value,volume,masked\n"
            "C1,US,,1990,0.25,120,false\n"
            "C1,US,,1991,,30,true\n"
            "C1,US,CN,1990,1.60944,25,false\n"
        )
        assert "".join(series_to_csv([SERIES, BILATERAL])) == expected

    def test_byte_determinism(self):
        assert "".join(series_to_csv([SERIES])) == "".join(series_to_csv([SERIES]))
        assert "".join(series_to_csv([BILATERAL])) == "".join(series_to_csv([BILATERAL]))

    @given(st.lists(_year_series(), min_size=1, max_size=5))
    def test_matches_point_by_point_reference(self, collection):
        assert "".join(series_to_csv(collection)) == series_to_csv_reference(collection)


def _icd_series(labels):
    out = []
    for i, label in enumerate(labels):
        start = 1971 + 5 * i
        result = IcdResult(
            h0=1.1, rescaled=(2.0 + i, 2.5 + i), mean=2.25 + i, median=2.25 + i
        )
        out.append((Period(label, start, start + 4), result))
    return out


class TestIcdExports:
    def test_csv_frozen(self):
        rows = "".join(icd_series_to_csv("C1", _icd_series(["1971-1975", "1976-1980"])))
        expected = (
            "discipline,period,h0,mean,median\n"
            "C1,1971-1975,1.1,2.25,2.25\n"
            "C1,1976-1980,1.1,3.25,3.25\n"
        )
        assert rows == expected

    def test_ten_period_labels(self):
        labels = [f"{y}-{y + 4}" for y in range(1971, 2020, 5)]
        csv_text = "".join(icd_series_to_csv("C1", _icd_series(labels)))
        lines = csv_text.strip().split("\n")[1:]
        assert [ln.split(",")[1] for ln in lines] == labels
        assert len(lines) == 10

    def test_detail_csv(self):
        text = "".join(icd_detail_to_csv("C1", *_icd_series(["1971-1975"])[0]))
        assert text == (
            "discipline,period,h0,merge_index,rescaled\n"
            "C1,1971-1975,1.1,0,2\n"
            "C1,1971-1975,1.1,1,2.5\n"
        )


class TestKdeExport:
    def test_kde_csv_shape(self):
        curve = kde([2.0, 2.1, 2.5, 3.0, 3.2])
        text = "".join(kde_to_csv("C1", PERIOD, curve))
        lines = text.strip().split("\n")
        assert lines[0] == "discipline,period,x,density"
        assert len(lines) == 1 + len(curve.x)
        first = lines[1].split(",")
        assert first[0] == "C1" and first[1] == "2000"
        assert float(first[3]) >= 0.0
