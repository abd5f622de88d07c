"""Distance geometry of co-production: affinity and distance matrices,
Euclidean embedding, Ward agglomeration, threshold cuts and the
log-rescaled integration measure derived from merge heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CountTable, gather
from .errors import InvalidH0

# Candidate merges whose squared criterion m' satisfies
# m' <= m + MERGE_TIE_EPS * min(m, 1) for the minimum m are treated as tied
# and broken deterministically. The slack is relative below 1, so a pair at
# a tiny positive criterion never ties with (and merges before) an exact 0.
MERGE_TIE_EPS = 1e-12

# Eigenvalues below -EMBED_CLAMP_REL * lambda_max mark a non-embeddable
# matrix; anything negative is clamped to zero either way. ``is_embeddable``
# certifies the flag when a Cholesky factorisation's backward error fits in
# half of this margin, and leaves the other half to eigvalsh's own rounding.
EMBED_CLAMP_REL = 1e-9

# Auto ceiling for the log rescaling: just above the tallest merge.
H0_AUTO_REL = 1e-6
H0_AUTO_ABS = 1e-9


def affinity(n_x: int, n_y: int, n_xy: int) -> float:
    """Overlap of two entities' production: n_xy / (n_x + n_y - n_xy).

    ``n_xy`` counts works produced jointly, so it can never exceed either
    marginal count. Raises ValueError when both entities produced nothing.
    """
    if n_x < 0 or n_y < 0 or n_xy < 0:
        raise ValueError("counts must be non-negative")
    if n_xy > min(n_x, n_y):
        raise ValueError("joint count exceeds a marginal count")
    union = n_x + n_y - n_xy
    if union <= 0:
        raise ValueError("affinity undefined: no works in the union")
    return n_xy / union


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of pairwise distances in [0, 1], zero diagonal."""

    entities: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        n = len(self.entities)
        if v.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {v.shape}")
        if len(set(self.entities)) != n:
            raise ValueError("entity names must be unique")
        if not np.array_equal(v, v.T):
            raise ValueError("matrix must be symmetric")
        if np.any(np.diagonal(v) != 0.0):
            raise ValueError("diagonal must be zero")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("distances must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return len(self.entities)

    def index_of(self, entity: str) -> int:
        try:
            return self.entities.index(entity)
        except ValueError:
            raise ValueError(f"{entity!r} is not in the matrix") from None

    def pair(self, a: str, b: str) -> float:
        return float(self.values[self.index_of(a), self.index_of(b)])


def distance_matrix(table: CountTable, entities: Sequence[str]) -> DistanceMatrix:
    """Jaccard distance matrix (1 - affinity) over the given entities.

    Counts come from a completed CountTable; entity order is preserved so
    downstream leaf indices stay aligned with the caller's selection. The
    co-count block C is filled in one pass over the table's pair codes,
    and 1 - C / (n_i + n_j - C) is then computed in floating point: IEEE
    division of exact integers gives the same doubles as ``affinity``,
    whose guards apply entry by entry. Counts below 2**53 are exact in
    float64, so C and the union are held as doubles from the start, and
    every step after them runs in place: no more than two n x n arrays are
    alive at once.
    """
    ents = tuple(entities)
    n = len(ents)
    idx = table.indices(ents)
    unary = gather(table.unary_counts, idx)
    # position of each table entity among ``ents``, -1 for the rest
    slot = np.full(len(table.names), -1, dtype=np.int64)
    slot[idx[idx >= 0]] = np.flatnonzero(idx >= 0)
    lo, hi = (slot[ends] for ends in table.pair_indices())
    shown = (lo >= 0) & (hi >= 0)
    lo, hi, counts = lo[shown], hi[shown], table.pair_counts[shown]
    if np.any(counts > np.minimum(unary[lo], unary[hi])):
        raise ValueError("joint count exceeds a marginal count")
    values = np.zeros((n, n))  # C, then C / union, then the distances
    values[lo, hi] = values[hi, lo] = counts
    margins = unary.astype(float)
    union = np.add.outer(margins, margins)
    union -= values
    np.fill_diagonal(union, 1.0)  # the diagonal is no pair; its distance is 0
    if n and union.min() <= 0.0:
        raise ValueError("affinity undefined: no works in the union")
    values /= union
    del union
    np.subtract(1.0, values, out=values)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(ents, values)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Coordinates realizing a distance matrix, anchored at the first entity.

    Row i of ``coordinates`` is the position of entity i; the first row is
    the origin. ``eigenvalues`` are the spectrum of the anchored Gram
    matrix in descending order, before clamping. ``embeddable`` is False
    when a significantly negative eigenvalue had to be clamped, i.e. the
    input distances are not exactly Euclidean.
    """

    entities: tuple[str, ...]
    coordinates: np.ndarray
    eigenvalues: np.ndarray
    embeddable: bool

    def pairwise_distances(self) -> np.ndarray:
        diff = self.coordinates[:, None, :] - self.coordinates[None, :, :]
        return np.sqrt((diff**2).sum(axis=2))


def anchored_block(dm: DistanceMatrix) -> np.ndarray:
    """The anchored Gram matrix without the anchor's row and column, which
    are exact zeros: B_ij = ((d(i,1)^2 + d(1,j)^2) - d(i,j)^2) / 2 for
    i, j > 1, the same doubles as that expression over the whole matrix,
    built with two (n-1) x (n-1) arrays alive at most besides the
    distances."""
    v = dm.values
    block = np.add.outer(np.square(v[1:, 0]), np.square(v[0, 1:]))
    block -= np.square(v[1:, 1:])
    block /= 2.0
    return block


def _bordered(block: np.ndarray) -> np.ndarray:
    """The anchored Gram matrix of ``block``: its zero row and column added
    back in front."""
    gram = np.zeros((len(block) + 1,) * 2)
    gram[1:, 1:] = block
    return gram


def _anchored_gram(dm: DistanceMatrix) -> np.ndarray:
    """G_ij = (d(1,j)^2 + d(i,1)^2 - d(i,j)^2) / 2."""
    return _bordered(anchored_block(dm))


def _embeddable(evals: np.ndarray) -> bool:
    """False when an eigenvalue of the anchored Gram matrix lies below
    -EMBED_CLAMP_REL times the largest (taken as 0 if negative)."""
    lam_max = max(float(evals.max()), 0.0)
    return bool(evals.min() >= -EMBED_CLAMP_REL * lam_max)


def is_embeddable(block: np.ndarray) -> tuple[bool, str]:
    """``euclidean_embedding(dm).embeddable`` from ``anchored_block(dm)``,
    with the computation that decided it: "cholesky" or "eigvalsh".

    A Cholesky factorisation of the n x n block B that runs to completion
    is exact for B + E with |E| <= gamma |R^T| |R|, gamma = (n+1)u / (1 -
    (n+1)u) and u the unit roundoff (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, Thm 10.3). B + E = R^T R is positive
    semidefinite, so lambda_min(B) >= -||E||_2 >= -gamma trace(B) / (1 -
    gamma). The flag is True when that lies within half of its margin,
    EMBED_CLAMP_REL times a lower bound on lambda_max(B): B's largest
    diagonal entry or its all-ones Rayleigh quotient, whichever is larger.
    Otherwise, or when the factorisation fails, the flag is read from
    eigvalsh of the anchored Gram matrix, the same doubles that
    ``euclidean_embedding`` decomposes, so a False flag is always an
    eigenvalue's verdict: the Jaccard distance need not be Euclidean
    (Gower & Legendre 1986, J. Classification 3:5-48).

    Besides the block, the factorisation holds two arrays of its size and
    the fallback two of the Gram matrix's size.
    """
    n = len(block)
    u = np.finfo(float).eps / 2
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    diagonal = np.diagonal(block)
    lam_lo = max(float(diagonal.max(initial=0.0)), float(block.sum()) / max(n, 1))
    if lam_lo > 0 and gamma * float(diagonal.sum()) / (1 - gamma) <= (
        EMBED_CLAMP_REL * lam_lo / 2
    ):
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            pass
        else:
            return True, "cholesky"
    return _embeddable(np.linalg.eigvalsh(_bordered(block))), "eigvalsh"


def euclidean_embedding(dm: DistanceMatrix) -> Embedding:
    """Embed a distance matrix in Euclidean space via its anchored Gram form.

    G_ij = (d(1,j)^2 + d(i,1)^2 - d(i,j)^2) / 2 is the Gram matrix of the
    points relative to entity 1, so an eigendecomposition G = P L P^T gives
    coordinates P sqrt(L). Negative eigenvalues (curvature the plane cannot
    hold) are clamped to zero.
    """
    evals, evecs = np.linalg.eigh(_anchored_gram(dm))
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    coords = evecs * np.sqrt(np.clip(evals, 0.0, None))[None, :]
    return Embedding(dm.entities, coords, evals, _embeddable(evals))


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: node ids of the two children, the merge
    height, and the size of the resulting cluster."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True, eq=False)
class Dendrogram:
    """Full agglomeration history over ``entities``.

    Node ids follow the usual convention: leaves are 0..n-1 in entity
    order, merge k creates node n+k, the root is 2n-2. Heights are
    non-decreasing along the merge sequence.
    """

    entities: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self) -> None:
        n = len(self.entities)
        if len(self.merges) != n - 1:
            raise ValueError(f"{n} leaves need {n - 1} merges, got {len(self.merges)}")
        consumed: set[int] = set()
        prev = 0.0
        for k, m in enumerate(self.merges):
            node = n + k
            for child in (m.left, m.right):
                if not 0 <= child < node:
                    raise ValueError(f"merge {k} references node {child} out of range")
                if child in consumed:
                    raise ValueError(f"node {child} consumed twice")
                consumed.add(child)
            if m.height < prev - 1e-9:
                raise ValueError("merge heights must be non-decreasing")
            prev = max(prev, m.height)

    @property
    def n_leaves(self) -> int:
        return len(self.entities)

    @property
    def heights(self) -> tuple[float, ...]:
        return tuple(m.height for m in self.merges)

    def leaf_order(self) -> list[int]:
        """Leaf indices in left-to-right display order."""
        n = self.n_leaves
        order: list[int] = []
        stack = [2 * n - 2]
        while stack:
            node = stack.pop()
            if node < n:
                order.append(node)
            else:
                m = self.merges[node - n]
                stack.append(m.right)
                stack.append(m.left)
        return order


def ward_cluster(dm: DistanceMatrix) -> Dendrogram:
    """Agglomerate by Ward's minimum-variance criterion on squared distances.

    The pairwise criterion is updated with the Lance-Williams recurrence
    (alpha_i = (n_i + n_k) / (n_i + n_j + n_k), beta = -n_k / (n_i + n_j + n_k)),
    and the recorded height is the square root of the minimal squared
    criterion, so two singletons merge at exactly their input distance.

    The criterion lives in one symmetric n x n matrix whose slot i holds
    the cluster whose smallest leaf index (its rep) is i. A merge keeps the
    lower slot, which is the merged cluster's rep, and retires the higher
    one by filling its row and column with inf, as the diagonal is.
    Ties within MERGE_TIE_EPS of the minimum are broken toward the pair
    whose (smallest leaf, partner's smallest leaf) index pair sorts first,
    which makes the result independent of accumulation order. With slots
    indexed by rep that pair is the first tied entry in row-major order:
    it lies in the upper triangle, because a lower-triangle entry's mirror
    comes earlier, so it is found as the first row whose minimum is tied,
    then the first tied column in that row. The node in the lower slot is
    the left child.

    Each row's minimum is cached across steps, as in the generic algorithm
    of Muellner (2011, arXiv:1109.2378, section 3). A merge changes a live
    row c only at the kept slot a (its new criterion) and the retired slot
    b, so c's minimum is rescanned only when its old entry at a or b was
    its minimum; otherwise the new entry at a is folded in. The cache thus
    always equals a full rescan's row minima, and so do the merges.
    """
    n = dm.size
    if n < 2:
        raise ValueError("clustering needs at least 2 entities")
    d2 = dm.values**2
    np.fill_diagonal(d2, np.inf)
    row_min = d2.min(axis=1)
    sizes = np.ones(n, dtype=int)
    node = list(range(n))  # node id of the cluster in each slot
    merges: list[Merge] = []
    for step in range(n - 1):
        m = row_min.min()
        limit = m + MERGE_TIE_EPS * min(m, 1.0)
        a = int(np.argmax(row_min <= limit))
        b = int(np.argmax(d2[a] <= limit))
        d_ab = d2[a, b]
        nab = sizes[a] + sizes[b]
        c = np.flatnonzero(np.isfinite(d2[a]))
        c = c[c != b]
        sc = sizes[c]
        old_min = row_min[c]
        stale = (d2[c, a] <= old_min) | (d2[c, b] <= old_min)
        new = ((sizes[a] + sc) * d2[a, c] + (sizes[b] + sc) * d2[b, c] - sc * d_ab) / (
            nab + sc
        )
        d2[a, c] = d2[c, a] = new
        d2[b, :] = d2[:, b] = np.inf
        row_min[c] = np.minimum(old_min, new)
        rescan = c[stale]
        row_min[rescan] = d2[rescan].min(axis=1)
        row_min[a] = d2[a].min()
        row_min[b] = np.inf
        height = math.sqrt(max(d_ab, 0.0))
        merges.append(Merge(left=node[a], right=node[b], height=height, size=int(nab)))
        sizes[a] = nab
        node[a] = n + step
    return Dendrogram(dm.entities, tuple(merges))


@dataclass(frozen=True)
class ClusterCut:
    """Flat clustering induced by removing merges at or above a threshold.

    ``n_clusters`` is the count of removed merges plus one; labels are
    1-based and assigned in order of each cluster's first entity.
    """

    assignment: dict[str, int]
    n_clusters: int


def cut_clusters(dendrogram: Dendrogram, h_star: float) -> ClusterCut:
    """Cut the tree at ``h_star``: merges with height >= h_star are undone."""
    n = dendrogram.n_leaves
    removed = sum(1 for h in dendrogram.heights if h >= h_star)
    n_clusters = removed + 1
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = list(range(n))  # one leaf of each node, by node id
    for m in dendrogram.merges:
        first.append(first[m.left])
        if m.height < h_star:
            parent[find(first[m.right])] = find(first[m.left])
    labels: dict[int, int] = {}
    assignment: dict[str, int] = {}
    for i, entity in enumerate(dendrogram.entities):
        root = find(i)
        if root not in labels:
            labels[root] = len(labels) + 1
        assignment[entity] = labels[root]
    return ClusterCut(assignment=assignment, n_clusters=n_clusters)


@dataclass(frozen=True)
class IcdResult:
    """Log-rescaled merge heights and their summary statistics."""

    h0: float
    rescaled: tuple[float, ...]
    mean: float
    median: float


def icd(dendrogram: Dendrogram, h0: float | str = "auto") -> IcdResult:
    """Integration measure of a dendrogram: mean of -ln(h0 - h_k).

    The ceiling ``h0`` must exceed every merge height. "auto" places it
    just above the tallest merge; passing 1.0 reproduces the classical
    normalization for trees whose heights stay below one, and raises
    InvalidH0 otherwise.
    """
    heights = dendrogram.heights
    h_max = max(heights)
    if h0 == "auto":
        ceiling = h_max * (1.0 + H0_AUTO_REL) + H0_AUTO_ABS
    else:
        ceiling = float(h0)
        if ceiling <= h_max:
            raise InvalidH0(f"h0={ceiling} must exceed the tallest merge {h_max}")
    rescaled = tuple(-math.log(ceiling - h) for h in heights)
    # statistics.fmean and statistics.median, without importing statistics
    # (and with it fractions and decimal)
    ranked = sorted(rescaled)
    mid = len(ranked) // 2
    median = ranked[mid] if len(ranked) % 2 else (ranked[mid - 1] + ranked[mid]) / 2
    return IcdResult(
        h0=ceiling,
        rescaled=rescaled,
        mean=math.fsum(rescaled) / len(rescaled),
        median=median,
    )


def rescaled_distance(distance: float) -> float:
    """Map a distance in [0, 1) onto the unbounded scale -ln(1 - D)."""
    if not 0.0 <= distance < 1.0:
        raise ValueError("rescaling needs a distance in [0, 1)")
    return -math.log1p(-distance)

