"""Acceptance gate: the binding correctness criteria for the package.

Each test covers one criterion at its stated tolerance and prints a
single PASS line on success (visible with -rA or -s); a failure shows
up as the usual pytest FAILED line for that criterion.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import socket
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from collabkit.cli import main, run
from collabkit.corpus import Period, build_count_table, work_from_metadata
from collabkit.errors import InvalidH0
from collabkit.geometry import (
    Dendrogram,
    DistanceMatrix,
    Merge,
    cut_clusters,
    distance_matrix,
    euclidean_embedding,
    icd,
    ward_cluster,
)
from collabkit.metrics import (
    apply_min_volume_mask,
    collab_rate_series,
    intl_collab_rate,
)
from util import (
    POOL6,
    brute_jaccard_distance,
    random_corpus,
    random_dendrogram,
    records_from_sets,
    table_from_sets,
    ward_oracle,
)


@contextmanager
def no_network():
    """Fail loudly if anything opens a socket inside the block."""

    def blocked(*args, **kwargs):
        raise AssertionError("network access attempted during an offline run")

    real = socket.socket
    socket.socket = blocked
    try:
        yield
    finally:
        socket.socket = real


def _points_matrix(points: np.ndarray) -> tuple[DistanceMatrix, np.ndarray]:
    """Exactly symmetric distance matrix from coordinates, scaled into [0, 1]."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    top = dist.max()
    if top > 0:
        points = points / top
        dist = dist / top
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    entities = tuple(f"P{i:02d}" for i in range(len(points)))
    return DistanceMatrix(entities, dist), points


def _chain_dendrogram(heights) -> Dendrogram:
    n = len(heights) + 1
    entities = tuple(f"E{i:02d}" for i in range(n))
    merges = []
    node = 0
    for k, h in enumerate(heights):
        left = node if k else 0
        right = k + 1
        merges.append(Merge(min(left, right), max(left, right), h, k + 2))
        node = n + k
    return Dendrogram(entities, tuple(merges))


def test_jaccard_oracle():
    """distance_matrix equals brute-force set Jaccard on random corpora."""
    rng = random.Random(1234)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        sets = random_corpus(rng, n_works=rng.randint(5, 50))
        table = table_from_sets(sets)
        entities = sorted(table.unary)
        if len(entities) < 2:
            continue
        dm = distance_matrix(table, entities)
        for i, x in enumerate(entities):
            for y in entities[i + 1 :]:
                expected = brute_jaccard_distance(sets, x, y)
                assert abs(dm.pair(x, y) - expected) <= 1e-12
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"jaccard oracle took {elapsed:.2f}s"
    print(f"PASS: jaccard oracle ({checked} pairs across 200 corpora, {elapsed:.2f}s)")


def test_triangle_inequality():
    """No triple of any generated 30x30 matrix violates the metric bound."""
    rng = random.Random(4321)
    pool = tuple(f"{a}{b}" for a in "QX" for b in "ABCDEFGHIJKLMNO")
    assert len(pool) == 30
    worst = -math.inf
    for _ in range(10):
        sets = [frozenset((c,)) for c in pool]
        sets += random_corpus(rng, n_works=400, pool=pool, max_team=5, p_unknown=0.05)
        table = table_from_sets(sets)
        dm = distance_matrix(table, sorted(table.unary))
        d = dm.values
        assert d.shape == (30, 30)
        # violation(i,j,k) = d_ij - d_ik - d_kj, maximized over all triples
        gap = d[:, :, None] - d[:, None, :] - d.T[None, :, :]
        worst = max(worst, float(gap.max()))
        assert gap.max() <= 1e-12
    print(f"PASS: triangle inequality (10 matrices, worst violation {worst:.3e})")


def test_embedding_round_trip():
    """Embedding coordinates reproduce the input distances within 1e-8."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        k = int(rng.integers(1, 11))
        points = rng.normal(size=(n, k))
        dm, _ = _points_matrix(points)
        emb = euclidean_embedding(dm)
        assert emb.embeddable
        err = float(np.abs(emb.pairwise_distances() - dm.values).max())
        worst = max(worst, err)
        assert err <= 1e-8
    print(f"PASS: embedding round-trip (100 point sets, max error {worst:.3e})")


def test_ward_oracle():
    """ward_cluster matches coordinate-space Ward for all n <= 8 inputs."""
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    for trial in range(500):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        raw = rng.normal(size=(n, k))
        dm, scaled = _points_matrix(raw)
        dend = ward_cluster(dm)
        expected = ward_oracle(scaled)
        got = [(m.left, m.right, m.size) for m in dend.merges]
        assert got == [(l, r, s) for l, r, _, s in expected], f"trial {trial}"
        np.testing.assert_allclose(
            [m.height for m in dend.merges],
            [h for _, _, h, _ in expected],
            atol=1e-10,
            err_msg=f"trial {trial}",
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"ward oracle took {elapsed:.2f}s"
    print(f"PASS: ward oracle (500 trials, {elapsed:.2f}s)")


def test_cluster_count_formula():
    """Partition size always equals the count of heights at or above the cut, plus one."""
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(2, 40)
        dend = random_dendrogram(rng, n)
        heights = dend.heights
        if rng.random() < 0.3:
            h_star = rng.choice(heights)  # exact boundary hits
        else:
            h_star = rng.random() * max(heights) * 1.2 + 1e-9
        cut = cut_clusters(dend, h_star)
        expected = sum(1 for h in heights if h >= h_star) + 1
        assert cut.n_clusters == expected
        assert len(set(cut.assignment.values())) == expected

    straddle = Dendrogram(
        ("A", "B", "C", "D", "E"),
        (
            Merge(0, 1, 0.3, 2),
            Merge(2, 5, 0.8, 3),
            Merge(3, 6, 1.005, 4),
            Merge(4, 7, 1.4, 5),
        ),
    )
    cut = cut_clusters(straddle, 1.005)
    assert cut.n_clusters == 3  # hand count: heights 1.005 and 1.4 clear the cut
    print("PASS: cluster count formula (1000 random cuts + straddle fixture)")


def test_icd_arithmetic():
    """Frozen value, monotonicity, and the strict-ceiling error behave as specified."""
    two = Dendrogram(("A", "B"), (Merge(0, 1, 0.9, 2),))
    value = icd(two, h0=1.0)
    assert abs(value.mean - 2.302585092994046) <= 1e-12
    assert abs(value.median - 2.302585092994046) <= 1e-12

    rng = random.Random(31415)
    for _ in range(1000):
        count = rng.randint(1, 14)
        heights = sorted(rng.uniform(0.05, 0.95) for _ in range(count))
        shrink = rng.uniform(0.2, 0.9)
        lower = [h * shrink for h in heights]
        high = icd(_chain_dendrogram(heights), h0=1.0)
        low = icd(_chain_dendrogram(lower), h0=1.0)
        assert low.mean < high.mean

    with pytest.raises(InvalidH0):
        icd(_chain_dendrogram([0.5, 1.0]), h0=1.0)
    with pytest.raises(InvalidH0):
        icd(_chain_dendrogram([0.5, 1.2]), h0=1.0)
    print("PASS: icd arithmetic (frozen -ln(0.1), 1000 monotonicity trials, strict ceiling)")


def test_counting_rules():
    """Unary, pairwise, multi, and unknown counts match brute force on raw metadata."""
    rng = random.Random(777)
    pool = POOL6

    def raw_work(i):
        authorships = []
        expected = set()
        for _ in range(rng.randint(1, 4)):
            insts = []
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.15:
                    insts.append({})  # institution without a country
                else:
                    cc = rng.choice(pool)
                    code = cc.lower() if rng.random() < 0.3 else cc
                    insts.append({"country_code": code, "ror": f"https://ror.org/0{cc.lower()}x"})
                    expected.add(cc)
            if insts and rng.random() < 0.25:
                insts.append(dict(insts[0]))  # duplicate entry changes nothing
            authorships.append({"institutions": insts})
        raw = {
            "id": f"W{i}",
            "publication_year": 2000,
            "type": "journal-article",
            "authorships": authorships,
        }
        return raw, frozenset(expected)

    period = Period("2000", 2000, 2000)
    for _ in range(100):
        works = [raw_work(i) for i in range(rng.randint(1, 40))]
        records = [work_from_metadata(raw, "D1") for raw, _ in works]
        truth = [nat for _, nat in works]
        assert [r.nationalities for r in records] == truth

        table = build_count_table(records, "D1", period, "country")
        seen = sorted({c for nat in truth for c in nat})
        for c in seen:
            assert table.unary[c] == sum(1 for nat in truth if c in nat)
            assert table.multi.get(c, 0) == sum(
                1 for nat in truth if c in nat and len(nat) >= 2
            )
        for i, a in enumerate(seen):
            for b in seen[i + 1 :]:
                expected = sum(1 for nat in truth if a in nat and b in nat)
                assert table.pairwise.get((a, b), 0) == expected
        assert table.unknown_count == sum(1 for nat in truth if not nat)
        assert table.total_count == len(truth)
    print("PASS: counting rules (100 brute-forced corpora)")


def test_collaboration_rate(offline_records):
    """Rates match brute force on the bundled corpora; threshold-100 masking
    hides exactly the sub-threshold years."""
    checked = 0
    for root, records in offline_records.items():
        for year in range(1971, 2021, 7):
            period = Period(str(year), year, year)
            table = build_count_table(records, root, period, "country")
            for entity in table.unary:
                mine = [r for r in records if r.year == year and entity in r.nationalities]
                expected = sum(1 for r in mine if len(r.nationalities) >= 2) / len(mine)
                assert abs(intl_collab_rate(table, entity) - expected) <= 1e-12
                checked += 1

    # masking on a corpus whose volumes straddle the default threshold
    yearly = {}
    for year, solo, joint in ((1990, 140, 20), (1991, 60, 30), (1992, 150, 50)):
        sets = [{"US"}] * solo + [{"US", "CA"}] * joint
        yearly[year] = table_from_sets(sets, year=year)
    series = apply_min_volume_mask(collab_rate_series(yearly, "D1", "US"), 100)
    assert [p.volume for p in series.points] == [160, 90, 200]
    assert [p.masked for p in series.points] == [False, True, False]

    for root, records in offline_records.items():
        yearly = {
            year: build_count_table(records, root, Period(str(year), year, year), "country")
            for year in range(1971, 2021)
        }
        for entity in ("US", "DE"):
            series = apply_min_volume_mask(
                collab_rate_series(yearly, root, entity), 100
            )
            for p in series.points:
                assert p.masked == (p.volume < 100)
    print(f"PASS: collaboration rate ({checked} brute-forced rates + exact masking)")


@pytest.fixture(scope="module")
def offline_pipeline(fixture_cache_dir, tmp_path_factory):
    """Two full offline CLI runs into the same directory, snapshotted."""
    base = tmp_path_factory.mktemp("acceptance")
    out = base / "out"
    config_doc = json.loads(
        (Path(__file__).parent / "fixtures" / "config.json").read_text()
    )
    config_doc["cache_dir"] = str(fixture_cache_dir)
    config_doc["out_dir"] = str(out)
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config_doc))

    def snapshot():
        return {
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    with no_network():
        assert main(["all", "--config", str(config_path), "--offline"]) == 0
        first = snapshot()
        shutil.rmtree(out)
        assert main(["all", "--config", str(config_path), "--offline"]) == 0
        second = snapshot()
    return first, second, out


def test_end_to_end_determinism(offline_pipeline):
    """Offline reruns are byte-identical and touch the network zero times."""
    first, second, _ = offline_pipeline
    assert first, "no output files produced"
    assert first == second
    assert "manifest.json" in first
    print(
        f"PASS: end-to-end determinism ({len(first)} files byte-identical, zero network calls)"
    )


def test_svg_validity(offline_pipeline):
    """Every SVG parses, spaces leaves uniformly, and shows one color per cluster."""
    _, _, out = offline_pipeline
    manifest = json.loads((out / "manifest.json").read_text())
    svgs = sorted(out.rglob("dendrogram.svg"))
    assert svgs, "no dendrogram SVGs emitted"
    for path in svgs:
        root = ET.fromstring(path.read_text())
        circles = [
            el
            for el in root.iter()
            if el.tag.endswith("circle") and el.get("class") == "leaf"
        ]
        n = len(circles)
        assert n >= 2
        angles = sorted(
            math.atan2(float(c.get("cy")) - 320.0, float(c.get("cx")) - 320.0)
            for c in circles
        )
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi + angles[0] - angles[-1])
        for gap in gaps:
            assert abs(gap - 2.0 * math.pi / n) <= 1e-6

        cell = "/".join(path.relative_to(out).parts[:2])
        expected_clusters = manifest["cells"][cell]["n_clusters"]
        fills = {c.get("fill") for c in circles}
        assert len(fills) == expected_clusters, cell
    print(f"PASS: svg validity ({len(svgs)} files: well-formed, uniform leaves, N* colors)")
