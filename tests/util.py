"""Shared corpus builders and brute-force oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from collabkit.corpus import Period, WorkRecord, build_count_table
from collabkit.geometry import MERGE_TIE_EPS, Dendrogram, DistanceMatrix, Merge
from collabkit.ingest import ConceptCatalog

POOL6 = ("AT", "BE", "CH", "DK", "ES", "FI")

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


def catalog_of(payloads):
    """A concept catalog holding the given concept payloads and their stubs."""
    catalog = ConceptCatalog()
    for payload in payloads:
        catalog.add_payload(payload)
    return catalog


def table_from_sets(sets, discipline="D1", year=2000, key="country"):
    period = Period(str(year), year, year)
    return build_count_table(
        records_from_sets(sets, discipline, year), discipline, period, key
    )


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
