"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from itertools import combinations
from typing import Mapping

import numpy as np

from collabkit.corpus import Period, WorkRecord, build_count_table, gather
from collabkit.errors import MissingFixtures
from collabkit.geometry import (
    MERGE_TIE_EPS,
    ClusterCut,
    Dendrogram,
    DistanceMatrix,
    Merge,
    ward_cluster,
)
from collabkit.ingest import normalize_concept_id, parse_concept_page
from collabkit.report import _COORD, BAR_COLOR, PALETTE, TRUNK_COLOR

POOL6 = ("AT", "BE", "CH", "DK", "ES", "FI")
POOL12 = POOL6 + ("GR", "HU", "IE", "JP", "KR", "LU")

WARD_TIE_EPS = 1e-12


def records_from_sets(sets, discipline="D1", year=2000):
    """One WorkRecord per nationality set; institutions mirror countries
    one-to-one so country- and institution-keyed tables stay comparable."""
    records = []
    for i, s in enumerate(sets):
        nat = frozenset(s)
        records.append(
            WorkRecord(
                work_id=f"W{i}",
                year=year,
                discipline_id=discipline,
                nationalities=nat,
                institutions=frozenset(f"{c.lower()}01x" for c in nat),
                is_journal_article=True,
            )
        )
    return records


def brute_work_sets(raw):
    """(countries, bare ROR ids) of one raw work item, by brute force: every
    institution of every contributor, then one comprehension per set, less
    the blank codes. A set is None where its field holds a code that is
    neither a string nor null: the key that reads that field refuses the
    item. Both are None where ``authorships`` or an ``institutions`` is
    neither a list nor null: both keys refuse the item."""
    authorships = raw.get("authorships")
    lists = [authorships]
    if isinstance(authorships, list):
        lists += [authorship.get("institutions") for authorship in authorships]
    if any(value is not None and not isinstance(value, list) for value in lists):
        return None, None
    insts = [inst for value in lists[1:] for inst in value or []]

    def codes(field, normalise):
        found = [i[field] for i in insts if i.get(field) is not None]
        if not all(isinstance(code, str) for code in found):
            return None
        # a code that is blank once normalised names no entity
        return frozenset(c for c in map(normalise, found) if c.strip())

    return codes("country_code", str.upper), codes("ror", lambda r: r.split("/")[-1])


def fetch_of(payloads):
    """A concept fetch function over the given concept payloads, for
    ``expand_concept``; an id with no payload raises MissingFixtures, as
    the offline client does on a cache miss."""
    concepts = {}
    for payload in payloads:
        concept = parse_concept_page(json.dumps(payload).encode())
        concepts[concept.concept_id] = concept

    def fetch(concept_id):
        try:
            return concepts[normalize_concept_id(concept_id)]
        except KeyError:
            raise MissingFixtures(concept_id) from None

    return fetch


def table_from_sets(sets, discipline="D1", year=2000, key="country"):
    period = Period(str(year), year, year)
    return build_count_table(
        records_from_sets(sets, discipline, year), discipline, period, key
    )


def brute_year_table(records, year, key, discipline="D1"):
    """unary, pairwise, multi, unknown and total for ``discipline`` in one
    year, each entry counted over the year's works from the counting rules."""
    sets = [
        rec.nationalities if key == "country" else rec.institutions
        for rec in records
        if rec.discipline_id == discipline and rec.year == year
    ]
    entities = sorted(set().union(*sets))
    unary = {e: sum(e in s for s in sets) for e in entities}
    pairwise = {
        (a, b): n
        for a, b in combinations(entities, 2)
        if (n := sum(a in s and b in s for s in sets))
    }
    multi = {e: n for e in entities if (n := sum(e in s and len(s) > 1 for s in sets))}
    return unary, pairwise, multi, sum(not s for s in sets), len(sets)


def brute_jaccard_distance(sets, x, y):
    """Set-theoretic Jaccard distance over explicit work index sets."""
    sx = {i for i, s in enumerate(sets) if x in s}
    sy = {i for i, s in enumerate(sets) if y in s}
    union = sx | sy
    if not union:
        return None
    return 1.0 - len(sx & sy) / len(union)


def ward_oracle(points):
    """Greedy Ward agglomeration computed from raw coordinates.

    Unlike the production Lance-Williams recurrence, every step recomputes
    delta(A,B) = sqrt(2|A||B| / (|A|+|B|)) * ||centroid_A - centroid_B||
    directly from the leaf coordinates. Ties (squared criterion within
    WARD_TIE_EPS of the minimum) break toward the smallest
    (min leaf, partner's min leaf) pair, matching the production rule.
    Returns scipy-style merges [(left, right, height, size)].
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    leaves = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        ids = sorted(leaves)

        def crit(a, b):
            la, lb = leaves[a], leaves[b]
            ca = pts[la].mean(axis=0)
            cb = pts[lb].mean(axis=0)
            return (
                2.0 * len(la) * len(lb) / (len(la) + len(lb))
            ) * float(((ca - cb) ** 2).sum())

        best = min(crit(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :])
        pick = None
        pick_key = None
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                if crit(a, b) <= best + WARD_TIE_EPS:
                    lo, hi = sorted((a, b), key=lambda node: min(leaves[node]))
                    key = (min(leaves[lo]), min(leaves[hi]))
                    if pick_key is None or key < pick_key:
                        pick_key = key
                        pick = (lo, hi)
        a, b = pick
        node = n + step
        height = crit(a, b) ** 0.5
        leaves[node] = leaves.pop(a) + leaves.pop(b)
        merges.append((a, b, height, len(leaves[node])))
    return merges


def ward_reference(dm: DistanceMatrix) -> Dendrogram:
    """Pair-scan Ward agglomeration over node ids, the loop form of
    ``ward_cluster``.

    Every step scans all active pairs twice: once for the minimal squared
    criterion, once for the tied pair (within the MERGE_TIE_EPS slack) with
    the smallest (smallest leaf, partner's smallest leaf) key. Merged clusters
    get fresh rows in a (2n-1)-square matrix, filled by the same
    Lance-Williams expression, so heights must match ``ward_cluster``
    exactly. Cubic in n; for tests only.
    """
    n = dm.size
    if n < 2:
        raise ValueError("clustering needs at least 2 entities")
    total = 2 * n - 1
    d2 = np.zeros((total, total))
    d2[:n, :n] = dm.values**2
    sizes = np.zeros(total, dtype=int)
    sizes[:n] = 1
    reps = list(range(total))  # smallest leaf index inside each node
    active = list(range(n))
    merges: list[Merge] = []
    for step in range(n - 1):
        best = math.inf
        for ia, a in enumerate(active):
            for b in active[ia + 1 :]:
                if d2[a, b] < best:
                    best = d2[a, b]
        limit = best + MERGE_TIE_EPS * min(best, 1.0)
        pick: tuple[int, int] | None = None
        pick_key: tuple[int, int] | None = None
        for ia, a in enumerate(active):
            for b in active[ia + 1 :]:
                if d2[a, b] <= limit:
                    lo, hi = sorted((a, b), key=lambda node: reps[node])
                    key = (reps[lo], reps[hi])
                    if pick_key is None or key < pick_key:
                        pick_key = key
                        pick = (lo, hi)
        assert pick is not None
        a, b = pick
        new = n + step
        height = math.sqrt(max(d2[a, b], 0.0))
        nab = sizes[a] + sizes[b]
        for c in active:
            if c == a or c == b:
                continue
            val = (
                (sizes[a] + sizes[c]) * d2[a, c]
                + (sizes[b] + sizes[c]) * d2[b, c]
                - sizes[c] * d2[a, b]
            ) / (nab + sizes[c])
            d2[new, c] = d2[c, new] = val
        sizes[new] = nab
        reps[new] = reps[a]
        active.remove(a)
        active.remove(b)
        active.append(new)
        merges.append(Merge(left=a, right=b, height=height, size=int(nab)))
    return Dendrogram(dm.entities, tuple(merges))


def ward_full_scan(dm: DistanceMatrix) -> Dendrogram:
    """Ward agglomeration that rescans every row minimum at every step.

    The slot-per-rep matrix form of ``ward_cluster``, with the same tie
    pick and the same Lance-Williams expression, but no cached minima:
    each step is one O(n^2) scan, so it stays usable at n in the hundreds,
    where ``ward_reference`` is too slow. For tests only.
    """
    n = dm.size
    if n < 2:
        raise ValueError("clustering needs at least 2 entities")
    d2 = dm.values**2
    np.fill_diagonal(d2, np.inf)
    sizes = np.ones(n, dtype=int)
    node = list(range(n))  # node id of the cluster in each slot
    merges: list[Merge] = []
    for step in range(n - 1):
        row_min = d2.min(axis=1)
        m = row_min.min()
        limit = m + MERGE_TIE_EPS * min(m, 1.0)
        a = int(np.argmax(row_min <= limit))
        b = int(np.argmax(d2[a] <= limit))
        d_ab = d2[a, b]
        nab = sizes[a] + sizes[b]
        c = np.flatnonzero(np.isfinite(d2[a]))
        c = c[c != b]
        sc = sizes[c]
        d2[a, c] = d2[c, a] = (
            (sizes[a] + sc) * d2[a, c] + (sizes[b] + sc) * d2[b, c] - sc * d_ab
        ) / (nab + sc)
        d2[b, :] = d2[:, b] = np.inf
        height = math.sqrt(max(d_ab, 0.0))
        merges.append(Merge(left=node[a], right=node[b], height=height, size=int(nab)))
        sizes[a] = nab
        node[a] = n + step
    return Dendrogram(dm.entities, tuple(merges))


def random_dendrogram(rng, n, plateau_prob=0.2, start=0.1):
    """A structurally random dendrogram with non-decreasing heights."""
    entities = tuple(f"E{i:02d}" for i in range(n))
    sizes = {i: 1 for i in range(n)}
    active = list(range(n))
    merges = []
    h = start * rng.random()
    for k in range(n - 1):
        a = active.pop(rng.randrange(len(active)))
        b = active.pop(rng.randrange(len(active)))
        if rng.random() > plateau_prob:
            h += rng.random() * 0.4
        node = n + k
        sizes[node] = sizes[a] + sizes[b]
        merges.append(Merge(min(a, b), max(a, b), h, sizes[node]))
        active.append(node)
    return Dendrogram(entities, tuple(merges))


def brute_leaf_sets(dendrogram):
    """The leaf indices under every node id, each set found by its own walk
    down the tree from that node."""
    n = dendrogram.n_leaves
    sets = []
    for node in range(2 * n - 1):
        leaves, stack = set(), [node]
        while stack:
            x = stack.pop()
            if x < n:
                leaves.add(x)
            else:
                m = dendrogram.merges[x - n]
                stack.extend((m.left, m.right))
        sets.append(frozenset(leaves))
    return sets


def brute_cut(dendrogram, h_star):
    """Cluster label of each entity, by brute force: two leaves share a
    cluster when some merge below ``h_star`` covers both, and labels count
    from 1 in order of each cluster's first leaf."""
    n = dendrogram.n_leaves
    sets = brute_leaf_sets(dendrogram)
    below = [sets[n + k] for k, m in enumerate(dendrogram.merges) if m.height < h_star]
    label = {}
    for i in range(n):
        if i not in label:
            cluster = set().union({i}, *(s for s in below if i in s))
            next_label = len(set(label.values())) + 1
            label.update(dict.fromkeys(cluster, next_label))
    return {e: label[i] for i, e in enumerate(dendrogram.entities)}


def all_ties_chain(n):
    """Ward's tree over ``n`` entities at distance 1 from each other: one
    cluster grown a leaf at a time, a chain n - 1 levels deep."""
    dm = DistanceMatrix(tuple(f"E{i}" for i in range(n)), 1.0 - np.eye(n))
    return ward_cluster(dm)


def random_corpus(rng, n_works=50, pool=POOL6, max_team=4, p_unknown=0.1):
    """Random nationality sets, including empty (unknown) ones."""
    sets = []
    for _ in range(n_works):
        if rng.random() < p_unknown:
            sets.append(frozenset())
        else:
            size = rng.randint(1, max_team)
            sets.append(frozenset(rng.sample(pool, min(size, len(pool)))))
    return sets


def series_to_csv_reference(collection):
    """series.csv text written point by point from each series' ``points``
    view: the loop the columnar exporter replaced, kept as its oracle."""
    has_pair = any(series.entity_b for series in collection)
    columns = ["discipline", "entity"]
    if has_pair:
        columns.append("entity_b")
    columns += ["year", "value", "volume", "masked"]
    rows = []
    for series in collection:
        for p in series.points:
            val = "" if p.masked else "%.6g" % p.value
            fields = [series.discipline_id, series.entity]
            if has_pair:
                fields.append(series.entity_b or "")
            fields += [str(p.year), val, str(p.volume), str(p.masked).lower()]
            rows.append(",".join(fields))
    return "\n".join([",".join(columns), *rows, ""])


def chord_csv_reference(table, entities):
    """chord.csv text built row by row from the name-keyed views
    ``pairwise``, ``unary`` and ``multi``, which do not read the arrays
    ``chord_to_csv`` reads."""
    shown = set(entities)
    rows = [(a, b, n) for (a, b), n in table.pairwise.items() if {a, b} <= shown]
    for e in entities:
        rows.append((e, e, table.unary.get(e, 0) - table.multi.get(e, 0)))
        other = sum(
            n for pair, n in table.pairwise.items() if e in pair and not set(pair) <= shown
        )
        if other:
            rows.append((e, "__other__", other))
    lines = [f"{a},{b},{n}" for a, b, n in sorted(rows)]
    return "\n".join(["source,target,value", *lines, ""])


def distance_matrix_reference(table, entities):
    """``distance_matrix``'s values from whole-matrix expressions: the int64
    co-count block, its n x n bound check and union, then 1 - C / union.
    The in-place version is compared against it bit for bit."""
    ents = tuple(entities)
    n = len(ents)
    idx = table.indices(ents)
    unary = gather(table.unary_counts, idx)
    slot = np.full(len(table.names), -1, dtype=np.int64)
    slot[idx[idx >= 0]] = np.flatnonzero(idx >= 0)
    lo, hi = (slot[ends] for ends in table.pair_indices())
    shown = (lo >= 0) & (hi >= 0)
    joint = np.zeros((n, n), dtype=np.int64)
    joint[lo[shown], hi[shown]] = joint[hi[shown], lo[shown]] = table.pair_counts[shown]
    if np.any(joint > np.minimum(unary[:, None], unary[None, :])):
        raise ValueError("joint count exceeds a marginal count")
    union = unary[:, None] + unary[None, :] - joint
    np.fill_diagonal(union, 1)
    if np.any(union <= 0):
        raise ValueError("affinity undefined: no works in the union")
    values = 1.0 - joint / union
    np.fill_diagonal(values, 0.0)
    return values


def anchored_gram_reference(values):
    """The anchored Gram matrix of a distance matrix's values, from one
    broadcast expression."""
    sq = values**2
    return (sq[0, :][None, :] + sq[:, 0][:, None] - sq) / 2.0


def kde_reference(values):
    """(grid, density, bandwidth) of ``kde`` from whole-array expressions,
    with Silverman's bandwidth taken from ``np.percentile``."""
    x = np.asarray(values, dtype=float)
    sd = float(x.std(ddof=1))
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    candidates = [c for c in (sd, iqr / 1.34) if c > 0.0]
    bw = 0.9 * (min(candidates) if candidates else 0.0) * x.size ** (-0.2)
    if bw < np.finfo(float).tiny:
        bw = max(1.0, float(np.abs(x).max())) * 1e-9
    grid = np.linspace(float(x.min()) - 5.0 * bw, float(x.max()) + 5.0 * bw, 512)
    with np.errstate(over="ignore"):  # a kernel that far out is exp(-inf) = 0
        z = (grid[:, None] - x[None, :]) / bw
        z = -0.5 * z**2
    density = np.exp(z).sum(axis=1) / (x.size * bw * math.sqrt(2.0 * math.pi))
    return grid, density, bw


def distance_csv_reference(dm):
    """distances.csv text formatted pair by pair, every value on its own."""
    rows = [
        f"{a},{b},{'%.6g' % dm.values[i, j]}"
        for i, a in enumerate(dm.entities)
        for j, b in enumerate(dm.entities[:i])
    ]
    return "\n".join(["entity_a,entity_b,distance", *rows, ""])


def tree_snapshot(root):
    """Every entry under ``root``: a file's bytes, or None for a directory."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


def svg_reference(
    dendrogram: Dendrogram,
    cut: ClusterCut,
    volumes: Mapping[str, int],
) -> str:
    """``render_circular_dendrogram`` as an ElementTree tree serialized by
    ``ET.tostring``: the same SVG, with ElementTree's escaping.

    Leaves sit at uniform angles on a circle; a merge's radius shrinks
    linearly as its height grows, so earlier couplings sit closer to the
    rim. Branches whose leaves share a cluster take that cluster's color;
    links above the cut stay a neutral trunk color.
    """
    entities = dendrogram.entities
    missing = [e for e in entities if e not in volumes]
    if missing:
        raise ValueError(f"volumes missing for leaves: {missing}")
    n = dendrogram.n_leaves
    size = 640.0
    center = size / 2.0
    r_leaf = 200.0
    r_label = 212.0
    r_bar = 252.0
    bar_len_max = 56.0
    r_root = 40.0

    heights = dendrogram.heights
    h_top = max(max(heights), 1e-12)

    def radius(height: float) -> float:
        return r_leaf - (r_leaf - r_root) * (height / h_top)

    angle_of: dict[int, float] = {}
    for position, leaf in enumerate(dendrogram.leaf_order()):
        angle_of[leaf] = 2.0 * math.pi * position / n - math.pi / 2.0
    radius_of: dict[int, float] = {i: r_leaf for i in range(n)}
    for k, m in enumerate(dendrogram.merges):
        angle_of[n + k] = (angle_of[m.left] + angle_of[m.right]) / 2.0
        radius_of[n + k] = radius(m.height)

    def point(node: int, r: float | None = None) -> tuple[float, float]:
        rr = radius_of[node] if r is None else r
        a = angle_of[node]
        return center + rr * math.cos(a), center + rr * math.sin(a)

    labels = [cut.assignment[e] for e in entities]
    # the cluster label every leaf under a node shares, or 0 if they differ
    common = list(labels)
    for m in dendrogram.merges:
        common.append(common[m.left] if common[m.left] == common[m.right] else 0)

    def node_color(node: int) -> str:
        label = common[node]
        return PALETTE[(label - 1) % len(PALETTE)] if label else TRUNK_COLOR

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": "%d" % int(size),
            "height": "%d" % int(size),
            "viewBox": "0 0 %d %d" % (int(size), int(size)),
        },
    )
    ET.SubElement(
        svg,
        "rect",
        {"x": "0", "y": "0", "width": "%d" % int(size), "height": "%d" % int(size), "fill": "#ffffff"},
    )

    links = ET.SubElement(svg, "g", {"class": "links", "fill": "none"})
    for k, m in enumerate(dendrogram.merges):
        node = n + k
        r = radius_of[node]
        color = node_color(node)
        a1, a2 = sorted((angle_of[m.left], angle_of[m.right]))
        x1, y1 = center + r * math.cos(a1), center + r * math.sin(a1)
        x2, y2 = center + r * math.cos(a2), center + r * math.sin(a2)
        large = "1" if (a2 - a1) > math.pi else "0"
        arc = (
            f"M {_COORD % x1} {_COORD % y1} "
            f"A {_COORD % r} {_COORD % r} 0 {large} 1 {_COORD % x2} {_COORD % y2}"
        )
        ET.SubElement(links, "path", {"d": arc, "stroke": color, "stroke-width": "1.4"})
        for child in (m.left, m.right):
            cx, cy = point(child)
            px, py = point(child, r)
            ET.SubElement(
                links,
                "path",
                {
                    "d": f"M {_COORD % cx} {_COORD % cy} L {_COORD % px} {_COORD % py}",
                    "stroke": node_color(child),
                    "stroke-width": "1.4",
                },
            )

    vol_max = max((volumes[e] for e in entities), default=0)
    bar_width = max(1.0, min(12.0, 2.0 * math.pi * r_bar / n * 0.5))
    bars = ET.SubElement(svg, "g", {"class": "bars"})
    for leaf, entity in enumerate(entities):
        if vol_max <= 0:
            continue
        length = bar_len_max * volumes[entity] / vol_max
        x1, y1 = point(leaf, r_bar)
        x2, y2 = point(leaf, r_bar + length)
        ET.SubElement(
            bars,
            "path",
            {
                "d": f"M {_COORD % x1} {_COORD % y1} L {_COORD % x2} {_COORD % y2}",
                "stroke": BAR_COLOR,
                "stroke-width": _COORD % bar_width,
                "class": "bar",
                "data-entity": entity,
                "data-volume": str(volumes[entity]),
            },
        )

    leaves_group = ET.SubElement(svg, "g", {"class": "leaves"})
    for leaf, entity in enumerate(entities):
        x, y = point(leaf)
        color = PALETTE[(labels[leaf] - 1) % len(PALETTE)]
        ET.SubElement(
            leaves_group,
            "circle",
            {
                "class": "leaf",
                "cx": _COORD % x,
                "cy": _COORD % y,
                "r": "3.5",
                "fill": color,
                "data-entity": entity,
                "data-cluster": str(labels[leaf]),
            },
        )
        deg = math.degrees(angle_of[leaf])
        flip = 90.0 < deg % 360.0 < 270.0
        tx, ty = point(leaf, r_label)
        transform = f"rotate({_COORD % (deg + (180.0 if flip else 0.0))} {_COORD % tx} {_COORD % ty})"
        ET.SubElement(
            leaves_group,
            "text",
            {
                "class": "leaf-label",
                "x": _COORD % tx,
                "y": _COORD % ty,
                "font-family": "sans-serif",
                "font-size": "10",
                "dominant-baseline": "middle",
                "text-anchor": "end" if flip else "start",
                "transform": transform,
            },
        ).text = entity

    body = ET.tostring(svg, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
