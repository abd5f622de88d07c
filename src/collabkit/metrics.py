"""Yearly indicator series and density estimation.

Masking is presentation-level: a masked point keeps its computed value in
memory so thresholds can be revisited without recounting; exporters are
responsible for blanking masked values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .corpus import CountTable, gather
from .geometry import affinity, rescaled_distance

REASON_BELOW_MIN_VOLUME = "below_min_volume"
REASON_DEGENERATE = "degenerate_distance"
REASON_MISSING = "missing_entity"

KDE_GRID_SIZE = 512
# The grid extends five bandwidths past the data so the Gaussian tails it
# must cover (three bandwidths, per the usual display convention) carry
# essentially all of their mass inside the grid.
KDE_GRID_PAD = 5.0


@dataclass(frozen=True)
class SeriesPoint:
    """One yearly observation with its supporting volume and mask state."""

    year: int
    value: float | None
    volume: int
    masked: bool = False
    reason: str | None = None


@dataclass(frozen=True, eq=False)
class YearSeries:
    """One yearly indicator for an entity (or an entity pair), as columns
    with one entry per year.

    ``values`` is float64, NaN where a point has no value; ``volumes`` is
    int64; ``reasons`` holds each point's mask reason, ``None`` where it is
    unmasked. Which indicator the values carry is decided by the producing
    function and by the file a series is exported into. The series of one
    ``yearly_series`` call share their blocks, which are read-only.
    """

    discipline_id: str
    entity: str
    years: tuple[int, ...]
    values: np.ndarray
    volumes: np.ndarray
    reasons: np.ndarray
    entity_b: str | None = None

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.years, self.years[1:])):
            raise ValueError("years must be strictly increasing")
        if any(len(col) != len(self.years) for col in (self.values, self.volumes, self.reasons)):
            raise ValueError("every column must have one entry per year")

    @property
    def masked(self) -> np.ndarray:
        return np.not_equal(self.reasons, None)

    @property
    def points(self) -> tuple[SeriesPoint, ...]:
        """The series point by point, built on each read; NaN reads as None."""
        values = [None if math.isnan(v) else v for v in self.values.tolist()]
        columns = (self.volumes.tolist(), self.masked.tolist(), self.reasons.tolist())
        return tuple(map(SeriesPoint, self.years, values, *columns))


def _year_counts(
    tables_by_year: Mapping[int, CountTable], entities: Sequence[str]
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The years in ascending order, and the (years x entities) blocks of
    unary and multi counts; an entity a year's table lacks counts 0 there.
    Entity indices are looked up once per distinct ``names`` tuple, and
    the one-year tables of one ``count_years`` call share theirs."""
    years = tuple(sorted(tables_by_year))
    unary = np.zeros((len(years), len(entities)), dtype=np.int64)
    multi = np.zeros_like(unary)
    names, idx = None, None
    for row, year in enumerate(years):
        table = tables_by_year[year]
        if table.names is not names:
            names, idx = table.names, table.indices(entities)
        unary[row] = gather(table.unary_counts, idx)
        multi[row] = gather(table.multi_counts, idx)
    return years, unary, multi


def _below_min_volume(volumes: np.ndarray, masked: np.ndarray, threshold: int) -> np.ndarray:
    """Points the min-volume rule masks: not masked yet, volume below threshold."""
    return ~masked & (volumes < threshold)


def intl_collab_rate(table: CountTable, entity: str) -> float:
    """Share of an entity's works involving at least one other entity.

    The denominator is the entity's unary count, so works of unknown
    nationality dilute nothing. Raises ValueError when the entity has no
    works in the slice.
    """
    idx = table.indices([entity])
    unary = gather(table.unary_counts, idx)
    if unary[0] == 0:
        raise ValueError(f"{entity}: no works in {table.period.label}")
    return float(gather(table.multi_counts, idx)[0] / unary[0])


def yearly_series(
    tables_by_year: Mapping[int, CountTable],
    discipline_id: str,
    entities: Sequence[str],
    min_volume: int = 0,
) -> tuple[list[YearSeries], list[YearSeries]]:
    """Yearly international collaboration rate and production volume of
    each entity, from one gather of the counts.

    The rates are as from ``collab_rate_series`` then
    ``apply_min_volume_mask(..., min_volume)``: a year without the entity's
    works is masked as missing, with no value and volume 0, and a rate's
    volume is the entity's unary count. The volumes carry that unary count
    as their value and are never masked. Each series' columns are column
    slices of the blocks this call gathers, which are read-only.
    """
    years, unary, multi = _year_counts(tables_by_year, entities)
    present = unary > 0
    # float64 division of counts below 2**53 is the correctly rounded quotient
    rates = np.where(present, multi / np.maximum(unary, 1), np.nan)
    reasons = np.where(present, None, REASON_MISSING)
    reasons[_below_min_volume(unary, ~present, min_volume)] = REASON_BELOW_MIN_VOLUME
    unmasked = np.full(unary.shape, None, dtype=object)
    floats = unary.astype(float)
    for block in (unary, rates, reasons, unmasked, floats):
        block.flags.writeable = False
    return tuple(
        [
            YearSeries(discipline_id, entity, years, values[:, j], unary[:, j], why[:, j])
            for j, entity in enumerate(entities)
        ]
        for values, why in ((rates, reasons), (floats, unmasked))
    )


def collab_rate_series(
    tables_by_year: Mapping[int, CountTable],
    discipline_id: str,
    entity: str,
) -> YearSeries:
    """Yearly international collaboration rate for one entity."""
    return yearly_series(tables_by_year, discipline_id, [entity])[0][0]


def bilateral_distance_series(
    tables_by_year: Mapping[int, CountTable],
    discipline_id: str,
    entity_a: str,
    entity_b: str,
    min_volume: int = 100,
) -> YearSeries:
    """Yearly rescaled collaboration distance -ln(1 - D) for one pair.

    D is the Jaccard distance from that year's counts; the point's volume
    is the pair's joint count. D = 1 (no joint works) maps to infinity and
    is emitted masked with no value instead of crashing; years where either
    entity is absent are masked as missing, and points below ``min_volume``
    as ``apply_min_volume_mask`` would. The series is symmetric in its two
    entities.
    """
    years, unary, _ = _year_counts(tables_by_year, (entity_a, entity_b))
    joint = np.array([tables_by_year[y].pair_count(entity_a, entity_b) for y in years], np.int64)
    degenerate = np.where(joint == 0, REASON_DEGENERATE, None)
    reasons = np.where(unary.min(axis=1) == 0, REASON_MISSING, degenerate)
    values = np.array(
        [
            math.nan if reason else rescaled_distance(1.0 - affinity(n_a, n_b, n_ab))
            for reason, (n_a, n_b), n_ab in zip(reasons.tolist(), unary.tolist(), joint.tolist())
        ],
        dtype=float,
    )
    below = _below_min_volume(joint, np.not_equal(reasons, None), min_volume)
    reasons[below] = REASON_BELOW_MIN_VOLUME
    return YearSeries(discipline_id, entity_a, years, values, joint, reasons, entity_b)


def apply_min_volume_mask(series: YearSeries, threshold: int) -> YearSeries:
    """Mask points whose volume falls below ``threshold``.

    Values are kept; only the mask flag and reason change. A threshold of
    zero masks nothing new.
    """
    reasons = series.reasons.copy()  # the input's block may be shared
    reasons[_below_min_volume(series.volumes, series.masked, threshold)] = REASON_BELOW_MIN_VOLUME
    return replace(series, reasons=reasons)


@dataclass(frozen=True, eq=False)
class KdeCurve:
    """Gaussian kernel density estimate sampled on an even grid."""

    x: np.ndarray
    density: np.ndarray
    bandwidth: float


def _quartiles(x: np.ndarray) -> np.ndarray:
    """``np.percentile(x, [75, 25])`` of a 1-d float64 array, bit for bit.

    The steps are numpy's "linear" method: the same partition of a copy,
    the same neighbours and the same two-sided interpolation. numpy picks
    the partition points with ``np.unique``, which imports ``numpy.ma``
    (about 18 ms); here they are sorted and deduplicated in Python.
    """
    n = x.size
    at = (n - 1) * np.array([0.75, 0.25])
    below = np.floor(at)
    above = below + 1
    last = at >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    arr = x.flatten()
    arr.partition(sorted({0, -1, *below.tolist(), *above.tolist()}))
    a, b = arr[below], arr[above]
    t = at - below
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(arr[-1]):
        out[:] = arr[-1]
    return out


def silverman_bandwidth(values: Sequence[float]) -> float:
    """Silverman's rule: 0.9 * min(sd, IQR / 1.34) * n^(-1/5).

    Degenerate spreads (all values equal, a collapsed quartile range, or a
    width below the smallest normal float, whose kernel normaliser would
    underflow) fall back to a tiny positive width so the estimate stays
    defined.
    """
    x = np.asarray(values, dtype=float)
    n = x.size
    sd = float(x.std(ddof=1))
    q75, q25 = _quartiles(x)
    iqr = float(q75 - q25)
    candidates = [c for c in (sd, iqr / 1.34) if c > 0.0]
    spread = min(candidates) if candidates else 0.0
    bw = 0.9 * spread * n ** (-0.2)
    if bw < np.finfo(float).tiny:
        scale = max(1.0, float(np.abs(x).max()))
        bw = scale * 1e-9
    return bw


def kde(values: Sequence[float]) -> KdeCurve:
    """Gaussian KDE with Silverman's bandwidth over an even grid of
    ``KDE_GRID_SIZE`` points padded past the data range.

    The curve is a plain average of kernels (no renormalization), so its
    integral over the grid is 1 up to tail truncation. Raises ValueError
    for fewer than two observations.
    """
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError(f"density estimate needs >= 2 values, got {x.size}")
    bw = silverman_bandwidth(x)
    lo = float(x.min()) - KDE_GRID_PAD * bw
    hi = float(x.max()) + KDE_GRID_PAD * bw
    grid = np.linspace(lo, hi, KDE_GRID_SIZE)
    # exp(-0.5 * ((grid - x) / bw) ** 2) in place, one (grid x n) array; a
    # point that lies beyond 1e154 bandwidths overflows to inf, whose kernel
    # is exactly 0
    z = np.subtract.outer(grid, x)
    with np.errstate(over="ignore"):
        z /= bw
        z *= z
    z *= -0.5
    np.exp(z, out=z)
    density = z.sum(axis=1) / (x.size * bw * math.sqrt(2.0 * math.pi))
    return KdeCurve(x=grid, density=density, bandwidth=bw)
