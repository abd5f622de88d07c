"""Distance geometry unit tests: frozen hand-worked values plus
structural properties."""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collabkit.corpus import PAIR_SHIFT, CountTable, Period, count_years
from collabkit.errors import InvalidH0
from collabkit.geometry import (
    EMBED_CLAMP_REL,
    _anchored_gram,
    _embeddable,
    Dendrogram,
    DistanceMatrix,
    Merge,
    affinity,
    anchored_block,
    cut_clusters,
    distance_matrix,
    euclidean_embedding,
    icd,
    is_embeddable,
    rescaled_distance,
    ward_cluster,
)
from collabkit.report import distance_matrix_to_csv, merges_to_json, to_newick
from util import (
    POOL6,
    all_ties_chain,
    anchored_gram_reference,
    brute_cut,
    brute_jaccard_distance,
    distance_csv_reference,
    distance_matrix_reference,
    random_corpus,
    random_dendrogram,
    records_from_sets,
    table_from_sets,
    ward_full_scan,
    ward_reference,
)

# Six works over three entities; every co-count is hand-enumerable.
TOY_SETS = [
    {"AA"},
    {"AA", "BB"},
    {"BB"},
    {"BB", "CC"},
    {"AA", "CC"},
    {"AA", "BB", "CC"},
]


class TestAffinity:
    @pytest.mark.parametrize(
        "n_x,n_y,n_xy,expected",
        [
            (100, 50, 25, 0.2),
            (5, 5, 5, 1.0),
            (3, 4, 0, 0.0),
            (1, 1, 0, 0.0),
            (4, 4, 2, 1.0 / 3.0),
        ],
    )
    def test_values(self, n_x, n_y, n_xy, expected):
        assert affinity(n_x, n_y, n_xy) == pytest.approx(expected, abs=1e-15)

    def test_empty_union(self):
        with pytest.raises(ValueError, match="no works in the union"):
            affinity(0, 0, 0)

    def test_joint_bound(self):
        with pytest.raises(ValueError):
            affinity(3, 2, 3)

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            affinity(-1, 2, 0)

    @given(
        n_x=st.integers(0, 500),
        n_y=st.integers(0, 500),
        frac=st.floats(0, 1),
    )
    def test_range_and_symmetry(self, n_x, n_y, frac):
        n_xy = int(min(n_x, n_y) * frac)
        if n_x + n_y - n_xy == 0:
            return
        a = affinity(n_x, n_y, n_xy)
        assert 0.0 <= a <= 1.0
        assert a == affinity(n_y, n_x, n_xy)


class TestDistanceMatrix:
    def test_toy_corpus_values(self):
        table = table_from_sets(TOY_SETS)
        dm = distance_matrix(table, ["AA", "BB", "CC"])
        assert dm.pair("AA", "BB") == pytest.approx(0.6666666666666667, abs=1e-15)
        assert dm.pair("AA", "CC") == pytest.approx(0.6, abs=1e-15)
        assert dm.pair("BB", "CC") == pytest.approx(0.6, abs=1e-15)
        assert dm.pair("AA", "AA") == 0.0

    def test_matches_brute_force_sets(self):
        rng = random.Random(7)
        for _ in range(25):
            sets = [
                frozenset(rng.sample(POOL6, rng.randint(1, 4)))
                for _ in range(rng.randint(3, 40))
            ]
            present = sorted({c for s in sets for c in s})
            if len(present) < 2:
                continue
            dm = distance_matrix(table_from_sets(sets), present)
            for i, x in enumerate(present):
                for y in present[i + 1 :]:
                    assert dm.pair(x, y) == pytest.approx(
                        brute_jaccard_distance(sets, x, y), abs=1e-12
                    )

    @given(st.randoms(use_true_random=False))
    def test_counted_tables_match_brute_force(self, rng):
        # every entry, from count_years' arrays, against explicit work sets;
        # the entity listed last never appears, so its distances are all 1
        sets = random_corpus(rng, n_works=rng.randint(1, 60))
        present = sorted({c for s in sets for c in s})
        if not present:
            return
        table = count_years(records_from_sets(sets), "D1", range(2000, 2001))[2000]
        entities = present + ["ZZ"]
        dm = distance_matrix(table, entities)
        for i, x in enumerate(entities):
            for j, y in enumerate(entities):
                expected = 0.0 if i == j else brute_jaccard_distance(sets, x, y)
                assert dm.values[i, j] == expected

    @given(st.randoms(use_true_random=True))
    def test_matches_whole_matrix_reference(self, rng):
        # the in-place build, its Gram matrix and its CSV against the
        # whole-matrix expressions, bit for bit; an entity outside the
        # table has no works, and two of them make an empty union
        pool = tuple(f"I{i:03d}" for i in range(rng.randint(2, 40)))
        sets = random_corpus(rng, n_works=rng.randint(1, 200), pool=pool, max_team=6)
        table = table_from_sets(sets)
        entities = rng.sample(pool + ("ZZ1", "ZZ2"), rng.randint(1, len(pool) + 2))
        try:
            expected = distance_matrix_reference(table, entities)
        except ValueError as exc:
            # the reference also refuses a joint count above a marginal
            assert str(exc) == "affinity undefined: no works in the union"
            with pytest.raises(ValueError, match="no works in the union"):
                distance_matrix(table, entities)
            return
        dm = distance_matrix(table, entities)
        assert np.array_equal(dm.values, expected)
        assert np.array_equal(_anchored_gram(dm), anchored_gram_reference(expected))
        assert "".join(distance_matrix_to_csv(dm)) == distance_csv_reference(dm)

    def test_csv_formats_negative_zero_apart(self):
        dm = DistanceMatrix(("A", "B", "C"), np.array([[0, -0.0, 0], [-0.0, 0, 0.5], [0, 0.5, 0]]))
        assert "".join(distance_matrix_to_csv(dm)) == distance_csv_reference(dm)
        assert "B,A,-0\n" in distance_csv_reference(dm)

    def test_csv_rows_of_unequal_names(self):
        # one block per matrix row after the header: the second row holds
        # one pair, and a one-entity matrix holds none
        values = np.array(
            [[0, 0.5, 1, 0.25], [0.5, 0, 1, 1], [1, 1, 0, 1 / 3], [0.25, 1, 1 / 3, 0]]
        )
        dm = DistanceMatrix(("A", "BBBBBB", "CC", "DDDD"), values)
        blocks = list(distance_matrix_to_csv(dm))
        assert "".join(blocks) == distance_csv_reference(dm)
        assert blocks[1] == "BBBBBB,A,0.5\n"
        assert blocks[3] == "DDDD,A,0.25\nDDDD,BBBBBB,1\nDDDD,CC,0.333333\n"
        one = DistanceMatrix(("SOLO",), np.zeros((1, 1)))
        assert list(distance_matrix_to_csv(one)) == [distance_csv_reference(one)]

    def test_joint_count_above_marginal(self):
        table = CountTable(
            "D1", Period("2000", 2000, 2000), names=("AA", "BB"),
            unary_counts=np.array([2, 1]), multi_counts=np.array([1, 1]),
            pair_codes=np.array([(0 << PAIR_SHIFT) | 1]), pair_counts=np.array([2]),
        )
        with pytest.raises(ValueError, match="joint count"):
            distance_matrix(table, ["AA", "BB"])

    def test_empty_union(self):
        table = table_from_sets([{"AA"}])
        with pytest.raises(ValueError, match="no works in the union"):
            distance_matrix(table, ["BB", "CC"])
        assert distance_matrix(table, ["AA", "BB"]).pair("AA", "BB") == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(("A", "B"), np.array([[0.0, 0.1], [0.2, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(("A", "B"), np.array([[0.1, 0.2], [0.2, 0.0]]))
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            DistanceMatrix(("A", "B"), np.array([[0.0, 1.2], [1.2, 0.0]]))
        with pytest.raises(ValueError, match="matrix"):
            DistanceMatrix(("A", "B", "C"), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unique"):
            DistanceMatrix(("A", "A"), np.zeros((2, 2)))

    def test_missing_entity(self):
        dm = DistanceMatrix(("A", "B"), np.array([[0.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(ValueError, match="'Z' is not in the matrix"):
            dm.pair("A", "Z")

    def test_csv_export(self):
        dm = DistanceMatrix(
            ("A", "B", "C"),
            np.array([[0.0, 0.5, 0.25], [0.5, 0.0, 0.75], [0.25, 0.75, 0.0]]),
        )
        assert "".join(distance_matrix_to_csv(dm)) == (
            "entity_a,entity_b,distance\n"
            "B,A,0.5\n"
            "C,A,0.25\n"
            "C,B,0.75\n"
        )


def _random_points_matrix(rng, n, k):
    pts = np.array([[rng.uniform(-1, 1) for _ in range(k)] for _ in range(n)])
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff**2).sum(axis=2))
    scale = d.max()
    if scale > 0:
        d = d / scale
        pts = pts / scale
    d = (d + d.T) / 2.0
    np.fill_diagonal(d, 0.0)
    return pts, DistanceMatrix(tuple(f"P{i}" for i in range(n)), d)


def _named_matrix(values):
    return DistanceMatrix(tuple(f"E{i}" for i in range(len(values))), values)


class TestEmbedding:
    def test_two_points(self):
        dm = DistanceMatrix(("A", "B"), np.array([[0.0, 0.8], [0.8, 0.0]]))
        emb = euclidean_embedding(dm)
        assert emb.embeddable
        d = emb.pairwise_distances()
        assert d[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_anchor_at_origin(self):
        rng = random.Random(3)
        _, dm = _random_points_matrix(rng, 8, 3)
        emb = euclidean_embedding(dm)
        np.testing.assert_allclose(emb.coordinates[0], 0.0, atol=1e-9)

    def test_round_trip_random_points(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(2, 12)
            k = rng.randint(1, 5)
            _, dm = _random_points_matrix(rng, n, k)
            emb = euclidean_embedding(dm)
            assert emb.embeddable
            err = np.abs(emb.pairwise_distances() - dm.values).max()
            assert err < 1e-8

    def test_eigenvalues_descending(self):
        rng = random.Random(5)
        _, dm = _random_points_matrix(rng, 10, 4)
        emb = euclidean_embedding(dm)
        assert all(
            a >= b - 1e-12 for a, b in zip(emb.eigenvalues, emb.eigenvalues[1:])
        )

    def test_non_euclidean_flagged(self):
        # Star metric: three points at distance 0.5 from a hub and 1.0 from
        # each other need a circumradius of 1/sqrt(3) > 0.5, impossible in
        # any Euclidean space.
        d = np.array(
            [
                [0.0, 0.5, 0.5, 0.5],
                [0.5, 0.0, 1.0, 1.0],
                [0.5, 1.0, 0.0, 1.0],
                [0.5, 1.0, 1.0, 0.0],
            ]
        )
        emb = euclidean_embedding(DistanceMatrix(("H", "X", "Y", "Z"), d))
        assert not emb.embeddable
        assert emb.eigenvalues.min() < 0

    def test_flag_from_eigenvalues_agrees(self):
        rng = random.Random(23)
        matrices = [_random_points_matrix(rng, rng.randint(2, 40), 3)[1] for _ in range(20)]
        matrices += [_named_matrix(1.0 - np.eye(n)) for n in (2, 3, 30)]  # a simplex
        star = np.full((4, 4), 1.0) - np.eye(4)
        star[0, 1:] = star[1:, 0] = 0.5
        matrices.append(_named_matrix(star))
        pool = tuple(f"C{i:02d}" for i in range(30))
        for _ in range(20):
            sets = random_corpus(rng, n_works=rng.randint(20, 120), pool=pool)
            present = sorted({c for s in sets for c in s})
            matrices.append(distance_matrix(table_from_sets(sets), present))
        flags = [is_embeddable(anchored_block(dm))[0] for dm in matrices]
        assert flags == [euclidean_embedding(dm).embeddable for dm in matrices]
        assert True in flags and False in flags

    @given(st.randoms(use_true_random=True))
    def test_flag_on_count_tables_matches_eigenvalues(self, rng):
        pool = tuple(f"I{i:03d}" for i in range(rng.randint(1, 40)))
        sets = random_corpus(
            rng, n_works=rng.randint(1, 200), pool=pool, max_team=rng.randint(1, 6)
        )
        present = sorted({c for s in sets for c in s})
        if not present:
            return
        entities = rng.sample(present, rng.randint(1, len(present)))
        dm = distance_matrix(table_from_sets(sets), entities)
        flag, _ = is_embeddable(anchored_block(dm))
        assert flag == _embeddable(np.linalg.eigvalsh(_anchored_gram(dm)))

    @given(
        n=st.integers(2, 31),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        ratio=st.sampled_from([-2.0, -0.5, 0.5, 2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_flag_at_the_threshold(self, n, scale, ratio, seed):
        # Q diag(lambda) Q^T with lambda_min at ratio times the flag's
        # threshold: a block at -2x is not embeddable, and only one with a
        # positive lambda_min is certified
        rng = np.random.default_rng(seed)
        lam = np.concatenate(
            [[scale, ratio * EMBED_CLAMP_REL * scale], rng.uniform(0.0, scale, n - 2)]
        )
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        block = (q * lam) @ q.T
        block = (block + block.T) / 2.0
        flag, by = is_embeddable(block)
        gram = np.zeros((n + 1, n + 1))
        gram[1:, 1:] = block
        assert flag == _embeddable(np.linalg.eigvalsh(gram)) == (ratio > -1.0)
        assert by == ("cholesky" if ratio > 0 else "eigvalsh")

    def test_star_takes_the_fallback_on_the_full_gram(self, monkeypatch):
        # the star is not embeddable: its block has no Cholesky factor, and
        # eigvalsh sees the whole anchored Gram matrix, byte for byte
        star = np.full((4, 4), 1.0) - np.eye(4)
        star[0, 1:] = star[1:, 0] = 0.5
        dm = _named_matrix(star)
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def recording(a, *args, **kwargs):
            seen.append(a.copy())
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        assert is_embeddable(anchored_block(dm)) == (False, "eigvalsh")
        (gram,) = seen
        expected = anchored_gram_reference(dm.values)
        assert gram.shape == expected.shape
        assert gram.tobytes() == expected.tobytes()


class TestWard:
    def test_two_leaves_merge_at_distance(self):
        dm = DistanceMatrix(("A", "B"), np.array([[0.0, 0.8], [0.8, 0.0]]))
        dend = ward_cluster(dm)
        assert len(dend.merges) == 1
        m = dend.merges[0]
        assert (m.left, m.right, m.size) == (0, 1, 2)
        assert m.height == pytest.approx(0.8, abs=1e-14)

    def test_three_leaves_hand_lance_williams(self):
        dm = DistanceMatrix(
            ("A", "B", "C"),
            np.array([[0.0, 0.2, 0.9], [0.2, 0.0, 0.8], [0.9, 0.8, 0.0]]),
        )
        dend = ward_cluster(dm)
        first, second = dend.merges
        assert (first.left, first.right, first.size) == (0, 1, 2)
        assert first.height == pytest.approx(0.2, abs=1e-14)
        assert (second.left, second.right, second.size) == (3, 2, 3)
        # ((1+1)*0.9^2 + (1+1)*0.8^2 - 0.2^2) / 3, then sqrt
        assert second.height == pytest.approx(0.9763879010584541, abs=1e-12)

    def test_tie_break_all_equal(self):
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        dend = ward_cluster(DistanceMatrix(("A", "B", "C", "D"), d))
        assert [(m.left, m.right) for m in dend.merges] == [(0, 1), (4, 2), (5, 3)]
        for m in dend.merges:
            assert m.height == pytest.approx(0.5, abs=1e-12)

    def test_near_zero_pair_does_not_tie_with_zero(self):
        # squared criteria 8.1e-13 and 0 differ by less than MERGE_TIE_EPS;
        # an absolute slack merged (A, B) first and broke monotonicity
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 9e-7
        d[2, 3] = d[3, 2] = 0.0
        dm = DistanceMatrix(("A", "B", "C", "D"), d)
        dend = ward_cluster(dm)
        assert [(m.left, m.right) for m in dend.merges] == [(2, 3), (0, 1), (5, 4)]
        assert dend.heights[:2] == pytest.approx((0.0, 9e-7), rel=1e-12, abs=0)
        assert dend.merges == ward_reference(dm).merges

    def test_heights_monotone_random(self):
        rng = random.Random(23)
        for _ in range(30):
            sets = [
                frozenset(rng.sample(POOL6, rng.randint(1, 4)))
                for _ in range(rng.randint(5, 50))
            ]
            present = sorted({c for s in sets for c in s})
            if len(present) < 2:
                continue
            dend = ward_cluster(distance_matrix(table_from_sets(sets), present))
            heights = dend.heights
            assert all(b >= a - 1e-9 for a, b in zip(heights, heights[1:]))

    def test_needs_two_entities(self):
        with pytest.raises(ValueError):
            ward_cluster(DistanceMatrix(("A",), np.zeros((1, 1))))

    def test_permutation_equivariance(self):
        # relabeling entities permutes leaves but preserves merge heights
        # (generic tie-free distances, so order ambiguity cannot bite)
        rng = random.Random(17)
        pts, dm = _random_points_matrix(rng, 9, 3)
        perm = list(range(9))
        rng.shuffle(perm)
        shuffled = DistanceMatrix(
            tuple(dm.entities[i] for i in perm),
            dm.values[np.ix_(perm, perm)],
        )
        base = ward_cluster(dm).heights
        permuted = ward_cluster(shuffled).heights
        np.testing.assert_allclose(sorted(base), sorted(permuted), atol=1e-10)

    def test_deterministic(self):
        rng = random.Random(19)
        _, dm = _random_points_matrix(rng, 12, 2)
        assert ward_cluster(dm).merges == ward_cluster(dm).merges

    def test_matches_reference_random(self):
        rng = np.random.default_rng(31)
        for case in range(120):
            n = int(rng.integers(2, 61))
            upper = np.triu(rng.random((n, n)), 1)
            dm = _named_matrix(upper + upper.T)
            assert ward_cluster(dm).merges == ward_reference(dm).merges, f"case {case}"

    def test_matches_reference_tie_heavy(self):
        # pairs that never co-publish all sit at distance 1, so real
        # matrices are dominated by exact ties
        rng = np.random.default_rng(37)
        for case in range(120):
            n = int(rng.integers(2, 61))
            levels = rng.choice(
                [0.25, 0.5, 0.75, 1.0], p=[0.1, 0.1, 0.1, 0.7], size=(n, n)
            )
            upper = np.triu(levels, 1)
            dm = _named_matrix(upper + upper.T)
            assert ward_cluster(dm).merges == ward_reference(dm).merges, f"case {case}"

    def test_matches_reference_jaccard(self):
        rng = random.Random(41)
        pool = tuple(f"C{i:02d}" for i in range(40))
        for case in range(60):
            sets = random_corpus(
                rng,
                n_works=rng.randint(5, 200),
                pool=pool[: rng.randint(2, len(pool))],
                max_team=rng.randint(1, 6),
            )
            present = sorted({c for s in sets for c in s})
            if len(present) < 2:
                continue
            dm = distance_matrix(table_from_sets(sets), present)
            assert ward_cluster(dm).merges == ward_reference(dm).merges, f"case {case}"

    @pytest.mark.parametrize(
        "n,levels,p",
        [
            (500, None, None),
            (600, [0.25, 0.5, 0.75, 1.0], [0.1, 0.1, 0.1, 0.7]),
        ],
        ids=["random", "tie-heavy"],
    )
    def test_matches_full_scan_at_target_size(self, n, levels, p):
        # the cached row minima must pick every merge a full rescan picks
        rng = np.random.default_rng(n)
        draws = rng.random((n, n)) if levels is None else rng.choice(levels, p=p, size=(n, n))
        upper = np.triu(draws, 1)
        dm = _named_matrix(upper + upper.T)
        assert ward_cluster(dm).merges == ward_full_scan(dm).merges

    @pytest.mark.parametrize("n", [50, 300])
    def test_heights_match_scipy(self, n):
        hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
        distance = pytest.importorskip("scipy.spatial.distance")
        # continuous coordinates: no two merge criteria tie, so scipy's
        # own tie order cannot differ from ours
        _, dm = _random_points_matrix(random.Random(n), n, 3)
        expected = hierarchy.linkage(distance.squareform(dm.values), "ward")[:, 2]
        np.testing.assert_allclose(
            ward_cluster(dm).heights, expected, rtol=0, atol=1e-10
        )


class TestDendrogram:
    def test_validation_counts(self):
        with pytest.raises(ValueError, match="merges"):
            Dendrogram(("A", "B", "C"), (Merge(0, 1, 0.1, 2),))

    def test_validation_monotone(self):
        merges = (Merge(0, 1, 0.5, 2), Merge(3, 2, 0.1, 3))
        with pytest.raises(ValueError, match="non-decreasing"):
            Dendrogram(("A", "B", "C"), merges)

    def test_validation_range(self):
        merges = (Merge(0, 3, 0.1, 2), Merge(4, 2, 0.2, 3))
        with pytest.raises(ValueError, match="merge 0 references node 3 out of range"):
            Dendrogram(("A", "B", "C"), merges)

    def test_validation_reuse(self):
        merges = (Merge(0, 0, 0.1, 2), Merge(3, 2, 0.2, 3))
        with pytest.raises(ValueError, match="consumed"):
            Dendrogram(("A", "B", "C"), merges)

    def test_leaf_order_covers_all_leaves(self):
        assert Dendrogram(("A",), ()).leaf_order() == [0]
        rng = random.Random(31)
        for _ in range(20):
            dend = random_dendrogram(rng, rng.randint(2, 40))
            order = dend.leaf_order()
            assert sorted(order) == list(range(dend.n_leaves))


class TestCut:
    def _fixture(self):
        # heights straddle the default threshold 1.005
        merges = (
            Merge(0, 1, 0.3, 2),
            Merge(5, 2, 0.8, 3),
            Merge(6, 3, 1.005, 4),
            Merge(7, 4, 1.4, 5),
        )
        return Dendrogram(("A", "B", "C", "D", "E"), merges)

    def test_straddle_1005(self):
        cut = cut_clusters(self._fixture(), 1.005)
        assert cut.n_clusters == 3
        assert cut.assignment == {"A": 1, "B": 1, "C": 1, "D": 2, "E": 3}

    def test_threshold_above_root(self):
        cut = cut_clusters(self._fixture(), 2.0)
        assert cut.n_clusters == 1
        assert set(cut.assignment.values()) == {1}

    def test_threshold_zero(self):
        cut = cut_clusters(self._fixture(), 0.0)
        assert cut.n_clusters == 5
        assert sorted(cut.assignment.values()) == [1, 2, 3, 4, 5]

    def test_formula_matches_partition_random(self):
        rng = random.Random(41)
        for _ in range(200):
            dend = random_dendrogram(rng, rng.randint(2, 25))
            h_star = rng.choice(
                [rng.uniform(0, max(dend.heights) * 1.2)]
                + [rng.choice(dend.heights)]
            )
            cut = cut_clusters(dend, h_star)
            expected = sum(1 for h in dend.heights if h >= h_star) + 1
            assert cut.n_clusters == expected
            assert len(set(cut.assignment.values())) == expected

    def test_assignment_matches_leaf_sets(self):
        rng = random.Random(37)
        trees = [random_dendrogram(rng, rng.randint(2, 40)) for _ in range(100)]
        for dend in trees + [all_ties_chain(300)]:
            for h_star in (
                rng.uniform(0, max(dend.heights) * 1.2),
                rng.choice(dend.heights),
                1.0,
                1.005,
            ):
                assert cut_clusters(dend, h_star).assignment == brute_cut(dend, h_star)

    def test_labels_first_seen_order(self):
        cut = cut_clusters(self._fixture(), 1.0)
        labels = [cut.assignment[e] for e in ("A", "B", "C", "D", "E")]
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == sorted(seen)


class TestIcd:
    def test_frozen_single_height(self):
        dend = Dendrogram(("A", "B"), (Merge(0, 1, 0.9, 2),))
        result = icd(dend, 1.0)
        assert result.mean == pytest.approx(2.302585092994046, abs=1e-12)
        assert result.median == result.mean
        assert result.rescaled == (result.mean,)

    def test_auto_ceiling(self):
        dend = Dendrogram(("A", "B"), (Merge(0, 1, 0.9, 2),))
        result = icd(dend, "auto")
        assert result.h0 == pytest.approx(0.9 * (1 + 1e-6) + 1e-9, rel=1e-12)
        assert result.h0 > 0.9

    def test_invalid_h0(self):
        dend = Dendrogram(("A", "B"), (Merge(0, 1, 0.9, 2),))
        with pytest.raises(InvalidH0):
            icd(dend, 0.9)
        with pytest.raises(InvalidH0):
            icd(dend, 0.5)

    def test_strict_mode_errors_at_one(self):
        dend = Dendrogram(("A", "B"), (Merge(0, 1, 1.2, 2),))
        with pytest.raises(InvalidH0):
            icd(dend, 1.0)

    def test_mean_median(self):
        merges = (Merge(0, 1, 0.2, 2), Merge(3, 2, 0.5, 3), Merge(4, 5, 0.8, 5))
        # needs 5 leaves: build explicitly
        merges = (
            Merge(0, 1, 0.2, 2),
            Merge(5, 2, 0.5, 3),
            Merge(6, 3, 0.8, 4),
            Merge(7, 4, 0.9, 5),
        )
        dend = Dendrogram(("A", "B", "C", "D", "E"), merges)
        result = icd(dend, 1.0)
        expected = [-math.log(1 - h) for h in (0.2, 0.5, 0.8, 0.9)]
        assert result.mean == pytest.approx(sum(expected) / 4, abs=1e-12)
        assert result.median == pytest.approx(
            (expected[1] + expected[2]) / 2, abs=1e-12
        )

    @given(
        st.lists(st.floats(0.0, 1e3), min_size=1, max_size=30),
        st.one_of(st.just("auto"), st.floats(1.0, 100.0)),
    )
    def test_mean_median_are_those_of_statistics(self, heights, h0_over):
        heights = sorted(heights)
        n = len(heights) + 1
        # a chain: the first two leaves, then each next leaf joins the tree
        merges = [Merge(0, 1, heights[0], 2)]
        merges += [Merge(n + k - 1, k + 1, h, k + 2) for k, h in enumerate(heights[1:], 1)]
        dend = Dendrogram(tuple(f"E{i}" for i in range(n)), tuple(merges))
        h0 = h0_over if h0_over == "auto" else heights[-1] + h0_over
        result = icd(dend, h0)
        assert result.mean == statistics.fmean(result.rescaled)
        assert result.median == statistics.median(result.rescaled)

    def test_monotone_in_heights(self):
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(2, 12)
            dend = random_dendrogram(rng, n)
            top = max(dend.heights)
            lower = tuple(
                Merge(m.left, m.right, m.height * 0.9, m.size) for m in dend.merges
            )
            dend_lower = Dendrogram(dend.entities, lower)
            h0 = top * 1.5 + 0.1
            assert icd(dend_lower, h0).mean <= icd(dend, h0).mean + 1e-12


class TestRescaledDistance:
    def test_frozen(self):
        assert rescaled_distance(0.8) == pytest.approx(1.6094379124341003, abs=1e-12)
        assert rescaled_distance(0.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            rescaled_distance(1.0)
        with pytest.raises(ValueError):
            rescaled_distance(-0.1)

    @given(st.floats(0, 0.999), st.floats(0, 0.999))
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = sorted((a, b))
        assert rescaled_distance(lo) < rescaled_distance(hi)


class TestTreeExports:
    def _dend(self):
        dm = DistanceMatrix(
            ("A", "B", "C"),
            np.array([[0.0, 0.2, 0.9], [0.2, 0.0, 0.8], [0.9, 0.8, 0.0]]),
        )
        return ward_cluster(dm)

    def test_newick_frozen(self):
        assert to_newick(self._dend()) == "((A:0.2,B:0.2):0.776388,C:0.976388);"

    def test_newick_balanced_parens(self):
        rng = random.Random(47)
        for _ in range(10):
            dend = random_dendrogram(rng, rng.randint(2, 30))
            text = to_newick(dend)
            assert text.count("(") == text.count(")")
            assert text.endswith(";")
            for entity in dend.entities:
                assert entity in text

    def test_newick_deep_chain(self):
        # top entities that never co-produce: all distances 1, and Ward
        # grows one cluster a leaf at a time, a chain 1,099 levels deep
        n = 1100
        dend = all_ties_chain(n)
        assert all(n + k - 1 in (m.left, m.right) for k, m in enumerate(dend.merges) if k)
        text = to_newick(dend)
        assert text.count("(") == n - 1
        assert text.startswith("(" * (n - 1) + "E0:1,E1:1):0,E2:1)")
        # the recursive writer's bytes, with the recursion limit raised
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "494ea5cf68326941fd99e900631b9435603c18aaf82d44b8666bc7ec60238056"
        )

    def test_merges_json(self):
        doc = json.loads(merges_to_json(self._dend()))
        assert doc["leaves"] == ["A", "B", "C"]
        assert doc["merges"][0] == {"left": 0, "right": 1, "height": 0.2, "size": 2}
        assert doc["merges"][1]["left"] == 3
        assert doc["merges"][1]["height"] == pytest.approx(0.976388, abs=1e-6)
