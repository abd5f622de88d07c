"""Span tracing around collabkit's public calls, and the per-layer metrics
derived from the spans.

The wrappers replace module attributes that the pipeline looks up at call
time (``collabkit.cli.*``, ``collabkit.ingest.*``) and the ``PageCache`` /
``OpenAlexClient`` methods, so nothing under ``src/`` changes. Each span is
(name, start, end, parent); spans of one traced run share the file's run
id. Counts are taken at the same boundaries. A name missing from the
program is skipped, and its time falls to the caller's self time.
"""

from __future__ import annotations

import json
import time
from collections import Counter

# span name -> per-layer metric carrying its self time
SELF_TIME_METRICS = {
    "cli.run": "cli.self_s",
    "ingest.harvest": "ingest.harvest_self_s",
    "ingest.fetch": "ingest.fetch_self_s",
    "ingest.cache_get": "ingest.cache_read_s",
    "ingest.cache_put": "ingest.cache_write_s",
    "ingest.decode": "ingest.decode_s",
    "ingest.transport": "ingest.transport_s",
    "corpus.record_build": "corpus.record_build_s",
    "corpus.count": "corpus.count_s",
    "corpus.top": "corpus.top_s",
    "geometry.distance": "geometry.distance_s",
    "geometry.embed": "geometry.embed_s",
    "geometry.ward": "geometry.ward_s",
    "geometry.cut_icd": "geometry.cut_icd_s",
    "geometry.serialize": "geometry.serialize_s",
    "metrics.series": "metrics.series_s",
    "metrics.kde": "metrics.kde_s",
    "report.chord": "report.chord_s",
    "report.svg": "report.svg_s",
    "report.export": "report.export_s",
    "fsio.write": "fsio.write_s",
}

COUNT_METRICS = (
    "ingest.pages",
    "ingest.page_bytes",
    "ingest.records",
    "ingest.transport_calls",
    "ingest.retries",
    "ingest.sleep_requested_s",
    "corpus.count_calls",
    "corpus.records_scanned",
    "corpus.pairs",
    "geometry.ward_leaves",
    "metrics.masked_points",
    "report.svg_bytes",
    "fsio.files",
    "fsio.bytes",
)

# span name -> attributes of collabkit.cli wrapped under it
CLI_SPANS = {
    "ingest.harvest": ("harvest",),
    "corpus.count": ("build_count_table",),
    "corpus.top": ("top_entities",),
    "geometry.distance": ("distance_matrix",),
    "geometry.embed": ("euclidean_embedding",),
    "geometry.ward": ("ward_cluster",),
    "geometry.cut_icd": ("cut_clusters", "icd"),
    "geometry.serialize": ("to_newick", "merges_to_json", "distance_matrix_to_csv"),
    "metrics.series": (
        "collab_rate_series",
        "volume_series",
        "bilateral_distance_series",
        "apply_min_volume_mask",
    ),
    "metrics.kde": ("kde",),
    "report.chord": ("chord_data", "chord_to_csv"),
    "report.svg": ("render_circular_dendrogram",),
    "report.export": ("series_to_csv", "export_series", "icd_detail_to_csv", "kde_to_csv"),
    "fsio.write": ("write_text_atomic",),
}
INGEST_SPANS = {
    "ingest.decode": ("parse_works_page",),
    "corpus.record_build": ("work_from_metadata",),
    "fsio.write": ("write_bytes_atomic",),
}
METHOD_SPANS = {
    "ingest.cache_get": ("PageCache", ("get",)),
    "ingest.cache_put": ("PageCache", ("put",)),
    "ingest.fetch": ("OpenAlexClient", ("fetch_page", "fetch_concept")),
}


class Tracer:
    """In-memory span recorder for one run, single-threaded."""

    def __init__(self, run_id: str, periods=()):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._periods = {(p.label, p.year_from, p.year_to) for p in periods}

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def wrap_iter(self, name: str, fn):
        """Time the call and then each resumption of the iterator it returns."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._close(idx)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts["ingest.records"] += 1
                yield item

        return traced

    def install(self, cli, ingest, transport=None) -> None:
        on_result = {
            "build_count_table": self._count_table,
            "apply_min_volume_mask": self._masked,
            "bilateral_distance_series": self._masked,
            "ward_cluster": lambda args, dend: self._add("geometry.ward_leaves", len(dend.entities)),
            "render_circular_dendrogram": lambda args, svg: self._add("report.svg_bytes", len(svg)),
            "write_text_atomic": self._written,
            "write_bytes_atomic": self._written,
            "parse_works_page": self._page,
        }
        for module, table in ((cli, CLI_SPANS), (ingest, INGEST_SPANS)):
            for name, attrs in table.items():
                for attr in attrs:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    if name == "ingest.harvest":
                        wrapper = self.wrap_iter(name, fn)
                    else:
                        wrapper = self.wrap(name, fn, on_result.get(attr))
                    setattr(module, attr, wrapper)
        for name, (cls_name, methods) in METHOD_SPANS.items():
            cls = getattr(ingest, cls_name, None)
            for method in methods:
                fn = getattr(cls, method, None)
                if fn is not None:
                    setattr(cls, method, self.wrap(name, fn))
        if transport is not None:
            transport.get = self.wrap("ingest.transport", transport.get)

    def _add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def _count_table(self, args, table) -> None:
        self.counts["corpus.count_calls"] += 1
        records = args[0] if args else None
        if hasattr(records, "__len__"):
            self.counts["corpus.records_scanned"] += len(records)
        period = table.period
        if (period.label, period.year_from, period.year_to) in self._periods:
            self.counts["corpus.pairs"] += len(table.pairwise)

    def _masked(self, args, series) -> None:
        self.counts["metrics.masked_points"] += sum(1 for p in series.points if p.masked)

    def _written(self, args, result) -> None:
        payload = args[1]
        if isinstance(payload, str):
            payload = payload.encode("utf-8")
        self.counts["fsio.files"] += 1
        self.counts["fsio.bytes"] += len(payload)

    def _page(self, args, result) -> None:
        self.counts["ingest.pages"] += 1
        self.counts["ingest.page_bytes"] += len(args[0])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}, fh
            )


def layer_metrics(trace_doc: dict) -> dict[str, float]:
    """Per-layer self times and counts from a dumped trace.

    A span's self time is its duration minus its direct children's.
    """
    spans = trace_doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metrics = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for (name, start, end, parent), covered in zip(spans, child_time):
        metrics[SELF_TIME_METRICS[name]] += (end - start) - covered
    counts = trace_doc["counts"]
    for key in COUNT_METRICS:
        metrics[key] = counts.get(key, 0)
    calls = metrics["ingest.transport_calls"]
    metrics["ingest.useful_ratio"] = (calls - metrics["ingest.retries"]) / calls if calls else 0.0
    return metrics
