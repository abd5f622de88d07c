"""Every output format: chord rows, circular dendrogram SVGs, the
Newick and merge-JSON trees, and bit-stable CSV exports.

Styling is deliberately minimal; these files feed external plotting, so
data fidelity and byte-for-byte determinism are the contract. Every file
is written as text: every CSV goes through ``_csv`` and every float
through ``_fmt``, and the SVG is joined from fixed markup templates with
its coordinates through ``_COORD`` and its entity names escaped by
ElementTree's rules. A CSV exporter returns the file's text as blocks,
drawn as they are written (join them for the whole text); the others
return one string.
"""

from __future__ import annotations

import math
import struct
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import CountTable, Period, unknown_rate
from .fsio import json_text
from .geometry import ClusterCut, Dendrogram, DistanceMatrix, IcdResult
from .metrics import KdeCurve, YearSeries

_FMT = "%.6g"
_COORD = "%.6f"
# ``_csv`` writes fields unquoted, so no field may hold one of these.
CSV_SPECIALS = frozenset(',"\r\n')
# ``to_newick`` writes leaf labels unquoted, so no label may hold one of
# Newick's punctuation, quote or comment characters, nor whitespace.
_NEWICK_SPECIALS = frozenset("(),:;'[]")
# ElementTree's escapes, which the SVG's entity names go through: one
# table for an attribute value and one for element text.
_ATTR_ESCAPES = str.maketrans(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
     "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"}
)
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

# Fixed cluster palette, cycled by 1-based cluster label.
PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
    "#aec7e8", "#ffbb78", "#98df8a", "#ff9896", "#c5b0d5",
    "#c49c94", "#f7b6d2", "#c7c7c7", "#dbdb8d", "#9edae5",
    "#393b79", "#637939", "#8c6d31", "#843c39", "#7b4173",
    "#5254a3", "#8ca252", "#bd9e39", "#ad494a", "#a55194",
)
TRUNK_COLOR = "#555555"
BAR_COLOR = "#b8b8b8"

# Label used for the aggregate arc of co-production with entities outside
# the displayed top-N selection.
OTHER_LABEL = "__other__"


# Rows per text block that ``_csv`` yields.
CSV_BLOCK_ROWS = 1024

_INT64 = struct.Struct("=q")
_FLOAT64 = struct.Struct("=d")


def writable_name(name: str) -> bool:
    """Whether an entity name can be written unquoted both as a CSV field
    and as a Newick label: it is not empty and holds no CSV_SPECIALS, no
    _NEWICK_SPECIALS and no whitespace."""
    return name != "" and not any(
        c in CSV_SPECIALS or c in _NEWICK_SPECIALS or c.isspace() for c in name
    )


def _fmt(value: float) -> str:
    return _FMT % value


class _FloatTexts(dict):
    """``_fmt`` texts of float64 values keyed by their bit patterns (as
    ``view(np.int64)`` gives them), each value formatted on first use, so
    that -0.0 keeps its own text."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = _fmt(_FLOAT64.unpack(_INT64.pack(bits))[0])
        return text


def _csv(header: str, rows: Iterable[str]) -> Iterator[str]:
    """The header line, then the rows in blocks of up to CSV_BLOCK_ROWS
    lines; each line, the last too, ends in a newline. Joined, the blocks
    are the file's text. Rows are drawn one block at a time."""
    yield header + "\n"
    rows = iter(rows)
    while block := list(islice(rows, CSV_BLOCK_ROWS)):
        block.append("")
        yield "\n".join(block)


def chord_to_csv(table: CountTable, entities: Sequence[str]) -> Iterator[str]:
    """Chord rows source,target,value among the displayed entities.

    A pair whose ends are both displayed is a flow row with its joint
    count. Each displayed entity has a self row with its solo count (its
    works carrying no other entity at all) and, where it is not 0, a row
    targeting __other__ with the sum of its co-counts with entities
    outside the selection. Flows overlap for works spanning three or more
    entities, so an entity's rows need not add up to its works. Rows are
    sorted as (source, target, value) tuples. The arguments are checked
    and the counts gathered from the table's arrays at the call; only the
    text is drawn with the blocks.
    """
    if len(entities) < 2:
        raise ValueError("chord data needs at least 2 displayed entities")
    top = table.indices(entities)
    if np.any(top < 0):
        raise ValueError("every displayed entity must be in the count table")
    names = table.names
    shown = np.zeros(len(names), dtype=bool)
    shown[top] = True
    lo, hi = table.pair_indices()
    lo_shown, hi_shown = shown[lo], shown[hi]
    both = lo_shown & hi_shown
    rows = [
        (names[a], names[b], count)
        for a, b, count in zip(
            lo[both].tolist(), hi[both].tolist(), table.pair_counts[both].tolist()
        )
    ]
    other = np.zeros(len(names), dtype=np.int64)
    for end, alone in ((lo, lo_shown & ~hi_shown), (hi, hi_shown & ~lo_shown)):
        np.add.at(other, end[alone], table.pair_counts[alone])
    solo = table.unary_counts[top] - table.multi_counts[top]
    for i, alone, outside in zip(top.tolist(), solo.tolist(), other[top].tolist()):
        rows.append((names[i], names[i], alone))
        if outside:
            rows.append((names[i], OTHER_LABEL, outside))
    rows.sort()
    return _csv("source,target,value", (f"{a},{b},{count}" for a, b, count in rows))


def render_circular_dendrogram(
    dendrogram: Dendrogram,
    cut: ClusterCut,
    volumes: Mapping[str, int],
) -> str:
    """Standalone SVG: radial tree, cluster-colored leaves and branches,
    and an outer bar ring scaled to per-leaf volumes.

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

    side = "%d" % int(size)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}"'
        f' viewBox="0 0 {side} {side}">'
        f'<rect x="0" y="0" width="{side}" height="{side}" fill="#ffffff" />'
        '<g class="links" fill="none">'
    ]
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
        parts.append(f'<path d="{arc}" stroke="{color}" stroke-width="1.4" />')
        for child in (m.left, m.right):
            cx, cy = point(child)
            px, py = point(child, r)
            parts.append(
                f'<path d="M {_COORD % cx} {_COORD % cy} L {_COORD % px} {_COORD % py}"'
                f' stroke="{node_color(child)}" stroke-width="1.4" />'
            )
    parts.append("</g>")

    vol_max = max((volumes[e] for e in entities), default=0)
    bar_width = max(1.0, min(12.0, 2.0 * math.pi * r_bar / n * 0.5))
    if vol_max > 0:
        parts.append('<g class="bars">')
        for leaf, entity in enumerate(entities):
            length = bar_len_max * volumes[entity] / vol_max
            x1, y1 = point(leaf, r_bar)
            x2, y2 = point(leaf, r_bar + length)
            parts.append(
                f'<path d="M {_COORD % x1} {_COORD % y1} L {_COORD % x2} {_COORD % y2}"'
                f' stroke="{BAR_COLOR}" stroke-width="{_COORD % bar_width}" class="bar"'
                f' data-entity="{entity.translate(_ATTR_ESCAPES)}"'
                f' data-volume="{volumes[entity]}" />'
            )
        parts.append("</g>")
    else:
        parts.append('<g class="bars" />')

    parts.append('<g class="leaves">')
    for leaf, entity in enumerate(entities):
        x, y = point(leaf)
        color = PALETTE[(labels[leaf] - 1) % len(PALETTE)]
        parts.append(
            f'<circle class="leaf" cx="{_COORD % x}" cy="{_COORD % y}" r="3.5"'
            f' fill="{color}" data-entity="{entity.translate(_ATTR_ESCAPES)}"'
            f' data-cluster="{labels[leaf]}" />'
        )
        deg = math.degrees(angle_of[leaf])
        flip = 90.0 < deg % 360.0 < 270.0
        tx, ty = point(leaf, r_label)
        transform = f"rotate({_COORD % (deg + (180.0 if flip else 0.0))} {_COORD % tx} {_COORD % ty})"
        parts.append(
            f'<text class="leaf-label" x="{_COORD % tx}" y="{_COORD % ty}"'
            ' font-family="sans-serif" font-size="10" dominant-baseline="middle"'
            f' text-anchor="{"end" if flip else "start"}" transform="{transform}">'
            f"{entity.translate(_TEXT_ESCAPES)}</text>"
        )
    parts.append("</g></svg>\n")
    return "".join(parts)


def to_newick(dendrogram: Dendrogram) -> str:
    """Serialize the tree in Newick format with branch lengths.

    A child's branch length is its parent's height minus its own height
    (leaves sit at height zero), so path lengths reproduce merge heights.
    """
    n = dendrogram.n_leaves
    # node id -> its subtree's text and height; merge order is bottom-up,
    # so no recursion limits the tree's depth
    text = list(dendrogram.entities)
    height = [0.0] * n
    for m in dendrogram.merges:
        left, right = (
            f"{text[c]}:{_fmt(m.height - height[c])}" for c in (m.left, m.right)
        )
        text[m.left] = text[m.right] = ""  # each subtree is used once
        text.append(f"({left},{right})")
        height.append(m.height)
    return text[-1] + ";"


def merges_to_json(dendrogram: Dendrogram) -> str:
    """JSON document of the merge list, suitable for replotting elsewhere."""
    doc = {
        "schema": 1,
        "leaves": list(dendrogram.entities),
        "merges": [
            {
                "left": m.left,
                "right": m.right,
                "height": float(_fmt(m.height)),
                "size": m.size,
            }
            for m in dendrogram.merges
        ],
    }
    return json_text(doc) + "\n"


def distance_matrix_to_csv(dm: DistanceMatrix) -> Iterator[str]:
    """Lower-triangle CSV of a distance matrix, one row per pair.

    Each distinct distance is formatted once, when first met; most pairs
    of a large selection never co-publish and share the distance 1. Each
    block after the header is one matrix row's lines, joined once from
    the names' ``"name,"`` texts and the distances' texts as the blocks
    are drawn, so no n^2-sized copy or text is made.
    """
    yield "entity_a,entity_b,distance\n"
    text = _FloatTexts()
    heads = [f"{name}," for name in dm.entities]
    for i in range(1, len(heads)):
        # line k is pieces[3k:3k+3]: this row's name, the k-th name and
        # their distance, each line but the first led by a newline
        pieces = [f"\n{heads[i]}"] * (3 * i)
        pieces[0] = heads[i]
        pieces[1::3] = heads[:i]
        pieces[2::3] = map(text.__getitem__, dm.values[i, :i].view(np.int64).tolist())
        pieces.append("\n")
        yield "".join(pieces)


def series_to_csv(collection: Sequence[YearSeries]) -> Iterator[str]:
    """CSV rows discipline,entity,year,value,volume,masked.

    Pair series add an entity_b column after entity; the column appears
    only when the collection holds at least one pair series. Masked
    points keep their volume but emit an empty value field. Each distinct
    unmasked value is formatted once, keyed by its bit pattern so that
    -0.0 keeps its own text.
    """
    if not collection:
        raise ValueError("nothing to export")
    has_pair = any(series.entity_b for series in collection)
    header = "discipline,entity,entity_b," if has_pair else "discipline,entity,"
    return _csv(header + "year,value,volume,masked", _series_rows(collection, has_pair))


def _series_rows(collection: Sequence[YearSeries], has_pair: bool) -> Iterator[str]:
    text = _FloatTexts()
    for series in collection:
        pair = [series.entity_b or ""] if has_pair else []
        head = ",".join([series.discipline_id, series.entity, *pair])
        yield from (
            f"{head},{year},{'' if hide else text[key]},{volume},{'true' if hide else 'false'}"
            for year, key, volume, hide in zip(
                series.years,
                series.values.view(np.int64).tolist(),
                series.volumes.tolist(),
                series.masked.tolist(),
            )
        )


def icd_series_to_csv(
    discipline_id: str, cells: Sequence[tuple[Period, IcdResult]]
) -> Iterator[str]:
    """Trend rows discipline,period,h0,mean,median, one per (period, result)."""
    if not cells:
        raise ValueError("nothing to export")
    rows = (
        f"{discipline_id},{period.label},{_fmt(r.h0)},{_fmt(r.mean)},{_fmt(r.median)}"
        for period, r in cells
    )
    return _csv("discipline,period,h0,mean,median", rows)


def icd_detail_to_csv(
    discipline_id: str, period: Period, result: IcdResult
) -> Iterator[str]:
    """Per-merge rescaled heights: discipline,period,h0,merge_index,rescaled."""
    head = f"{discipline_id},{period.label},{_fmt(result.h0)}"
    rows = (f"{head},{k},{_fmt(value)}" for k, value in enumerate(result.rescaled))
    return _csv("discipline,period,h0,merge_index,rescaled", rows)


def kde_to_csv(discipline_id: str, period: Period, curve: KdeCurve) -> Iterator[str]:
    head = f"{discipline_id},{period.label}"
    rows = (f"{head},{_fmt(x)},{_fmt(d)}" for x, d in zip(curve.x, curve.density))
    return _csv("discipline,period,x,density", rows)


def unknown_rate_to_csv(
    discipline_id: str, yearly: Mapping[int, CountTable]
) -> Iterator[str]:
    """Rows discipline,year,unknown_count,total_count,rate for each year
    of ``yearly`` that has works, in its order."""
    rows = (
        f"{discipline_id},{year},{table.unknown_count},"
        f"{table.total_count},{_fmt(unknown_rate(table))}"
        for year, table in yearly.items()
        if table.total_count
    )
    return _csv("discipline,year,unknown_count,total_count,rate", rows)
