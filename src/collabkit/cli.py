"""End-to-end pipeline driver.

Stages: harvest (fill the page cache), analyze (counts, geometry, data
exports), report (SVG dendrograms), all (one pass over everything),
validate (config diagnostics only). A declarative JSON config feeds every
stage; flags override config fields. Exit codes: 0 success, 1 config
error, 2 transport error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    COUNTRY_KEY,
    CountTable,
    Period,
    VALID_KEYS,
    count_years,
    merge_tables,
    overlapping_periods,
    top_entities,
    unknown_rate,
)
from .errors import (
    CollabKitError,
    ConfigError,
    MissingFixtures,
    ParseError,
    TransportError,
    UnknownConcept,
    WrongLevel,
)
from .fsio import write_text_atomic
from .geometry import (
    cut_clusters,
    distance_matrix,
    distance_matrix_to_csv,
    euclidean_embedding,
    icd,
    merges_to_json,
    to_newick,
    ward_cluster,
)
from .ingest import (
    DEFAULT_RATE_LIMIT,
    OpenAlexClient,
    PageCache,
    expand_concept,
    harvest,
)
from .metrics import (
    IcdSeries,
    apply_min_volume_mask,
    bilateral_distance_series,
    collab_rate_series,
    kde,
    volume_series,
)
from .report import (
    chord_data,
    chord_to_csv,
    icd_detail_to_csv,
    icd_series_to_csv,
    kde_to_csv,
    render_circular_dendrogram,
    series_to_csv,
)

PERIOD_PRESETS: dict[str, tuple[tuple[str, int, int], ...]] = {
    "paper-4": (
        ("1971-1990", 1971, 1990),
        ("1991-2000", 1991, 2000),
        ("2001-2010", 2001, 2010),
        ("2011-2020", 2011, 2020),
    ),
    "paper-10": tuple(
        (f"{y}-{y + 4}", y, y + 4) for y in range(1971, 2020, 5)
    ),
}

H0_MODES = ("auto", "strict-1.0")
EXPANSION_MODES = ("transitive", "one-hop")
STAGES = ("harvest", "analyze", "report", "all")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRANSPORT = 2
EXIT_ANALYSIS = 3

_CONFIG_ERRORS = (ConfigError, UnknownConcept, WrongLevel)
_TRANSPORT_ERRORS = (TransportError, ParseError)  # includes RateLimited, MissingFixtures


def resolve_periods(spec) -> tuple[Period, ...]:
    """Turn a preset name or an explicit list into Period objects."""
    if isinstance(spec, str):
        if spec not in PERIOD_PRESETS:
            raise ConfigError(
                f"unknown period preset {spec!r}; choose from {sorted(PERIOD_PRESETS)}"
            )
        return tuple(Period(label, lo, hi) for label, lo, hi in PERIOD_PRESETS[spec])
    periods = []
    for item in spec:
        if not (
            isinstance(item, dict)
            and _is_json(item.get("label"), str)
            and _is_json(item.get("year_from"), int)
            and _is_json(item.get("year_to"), int)
        ):
            raise ConfigError(
                "bad config value: periods entries need a string label and "
                f"int year_from/year_to, got {item!r}"
            )
        try:
            periods.append(Period(item["label"], item["year_from"], item["year_to"]))
        except ValueError as exc:
            raise ConfigError(
                f"bad config value: periods entry {item!r}: {exc}"
            ) from exc
    return tuple(periods)


@dataclass(frozen=True)
class AnalysisConfig:
    """Declarative description of one full analysis run."""

    disciplines: tuple[str, ...]
    periods: tuple[Period, ...]
    key: str = COUNTRY_KEY
    top_n: int = 30
    h_star: float = 1.005
    h0_mode: str = "auto"
    min_volume: int = 100
    journal_only: bool = False
    expansion: str = "transitive"
    rate_limit: float = DEFAULT_RATE_LIMIT
    bilateral_pairs: tuple[tuple[str, str], ...] = ()
    cache_dir: str = "cache"
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return {
            "disciplines": list(self.disciplines),
            "periods": [
                {"label": p.label, "year_from": p.year_from, "year_to": p.year_to}
                for p in self.periods
            ],
            "key": self.key,
            "top_n": self.top_n,
            "h_star": self.h_star,
            "h0_mode": self.h0_mode,
            "min_volume": self.min_volume,
            "journal_only": self.journal_only,
            "expansion": self.expansion,
            "rate_limit": self.rate_limit,
            "bilateral_pairs": [list(p) for p in self.bilateral_pairs],
            "cache_dir": self.cache_dir,
            "out_dir": self.out_dir,
        }


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: which config field, and what is wrong."""

    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


_CONFIG_KEYS = frozenset(f.name for f in fields(AnalysisConfig))

_NUMBER = (int, float)


def _is_json(value, kind) -> bool:
    """isinstance, except that a bool is not a JSON int or number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _typed_value(doc: dict, name: str, kind, default):
    """doc[name], or the default, if it is a JSON value of type ``kind``.

    No coercion: ``bool("false")`` is True and ``int(30.9)`` is 30, so a
    mistyped value would otherwise change the run without a word.
    """
    value = doc.get(name, default)
    if not _is_json(value, kind):
        what = "a number" if kind is _NUMBER else kind.__name__
        raise ConfigError(f"bad config value: {name} must be {what}, got {value!r}")
    return value


def config_from_dict(doc: dict) -> AnalysisConfig:
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "disciplines" not in doc:
        raise ConfigError("config needs a disciplines list")
    disciplines = doc["disciplines"]
    if not isinstance(disciplines, list) or not all(
        isinstance(d, str) for d in disciplines
    ):
        raise ConfigError(
            "bad config value: disciplines must be a list of concept id strings, "
            f"got {disciplines!r}"
        )
    pairs = doc.get("bilateral_pairs", [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_json(e, str) for e in p)
        for p in pairs
    ):
        raise ConfigError(
            "bad config value: bilateral_pairs must be a list of two-string lists, "
            f"got {pairs!r}"
        )
    try:
        return AnalysisConfig(
            disciplines=tuple(disciplines),
            periods=resolve_periods(doc.get("periods", "paper-4")),
            key=doc.get("key", COUNTRY_KEY),
            top_n=_typed_value(doc, "top_n", int, 30),
            h_star=float(_typed_value(doc, "h_star", _NUMBER, 1.005)),
            h0_mode=doc.get("h0_mode", "auto"),
            min_volume=_typed_value(doc, "min_volume", int, 100),
            journal_only=_typed_value(doc, "journal_only", bool, False),
            expansion=doc.get("expansion", "transitive"),
            rate_limit=float(
                _typed_value(doc, "rate_limit", _NUMBER, DEFAULT_RATE_LIMIT)
            ),
            bilateral_pairs=tuple(tuple(p) for p in pairs),
            cache_dir=_typed_value(doc, "cache_dir", str, "cache"),
            out_dir=_typed_value(doc, "out_dir", str, "out"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_config(path: str | Path) -> AnalysisConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return config_from_dict(doc)


def validate(config: AnalysisConfig, cache: PageCache | None = None) -> list[Diagnostic]:
    """Config diagnostics; empty list means a run would start.

    With a non-empty page cache, each discipline's concept page is read
    from it offline: a missing page, one that fails decoding or its
    sidecar check, or a root that is not level 1 is a diagnostic. Without
    one the ids go unchecked here and are verified on first fetch.
    """
    diags: list[Diagnostic] = []
    if not config.disciplines:
        diags.append(Diagnostic("disciplines", "at least one root concept id required"))
    for i, d in enumerate(config.disciplines):
        if not d:
            diags.append(Diagnostic(f"disciplines[{i}]", "empty concept id"))
    if not config.periods:
        diags.append(Diagnostic("periods", "at least one period required"))
    labels = [p.label for p in config.periods]
    if len(set(labels)) != len(labels):
        diags.append(Diagnostic("periods", "period labels must be unique"))
    for a, b in overlapping_periods(config.periods):
        diags.append(
            Diagnostic("periods", f"periods {a.label!r} and {b.label!r} overlap")
        )
    if config.key not in VALID_KEYS:
        diags.append(Diagnostic("key", f"must be one of {VALID_KEYS}"))
    if config.top_n < 2:
        diags.append(Diagnostic("top_n", "need at least 2 entities to compare"))
    if not config.h_star > 0:
        diags.append(Diagnostic("h_star", "threshold must be positive"))
    if config.h0_mode not in H0_MODES:
        diags.append(Diagnostic("h0_mode", f"must be one of {H0_MODES}"))
    if config.min_volume < 0:
        diags.append(Diagnostic("min_volume", "must be non-negative"))
    if config.expansion not in EXPANSION_MODES:
        diags.append(Diagnostic("expansion", f"must be one of {EXPANSION_MODES}"))
    if not config.rate_limit > 0:
        diags.append(Diagnostic("rate_limit", "must be positive"))
    for i, pair in enumerate(config.bilateral_pairs):
        if len(pair) != 2 or not pair[0] or not pair[1]:
            diags.append(
                Diagnostic(f"bilateral_pairs[{i}]", "expected a pair of entity codes")
            )
    if cache is not None and not cache.is_empty():
        client = OpenAlexClient(cache, transport=None)
        for i, d in enumerate(config.disciplines):
            if not d:
                continue
            try:
                # one-hop reads the root page only and checks its level
                expand_concept(d, client.fetch_concept, "one-hop")
            except MissingFixtures:
                diags.append(Diagnostic(f"disciplines[{i}]", f"{d} not in offline cache"))
            except (ParseError, WrongLevel) as exc:
                diags.append(Diagnostic(f"disciplines[{i}]", str(exc)))
    return diags


def config_hash(config: AnalysisConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _analyze_cell(
    config: AnalysisConfig,
    table: CountTable,
    period_years: dict[int, CountTable],
    stage: str,
) -> tuple[dict[str, str], IcdSeries, dict]:
    """Compute one (discipline, period) cell from its count table.

    ``period_years`` holds the one-year tables of the period's years, which
    feed the yearly series. Returns artifact texts keyed by path relative
    to the out dir, the cell's IcdSeries, and a manifest stanza. Pure
    function of its inputs.
    """
    discipline, period = table.discipline_id, table.period
    top = top_entities(table, config.top_n)
    if len(top) < 2:
        raise CollabKitError(
            f"{discipline} {period.label}: fewer than 2 entities with works"
        )
    dm = distance_matrix(table, top)
    emb = euclidean_embedding(dm)
    dend = ward_cluster(dm)
    cut = cut_clusters(dend, config.h_star)
    h0 = "auto" if config.h0_mode == "auto" else 1.0
    result = icd(dend, h0)
    curve = kde(result.rescaled) if len(result.rescaled) >= 2 else None
    cell = IcdSeries(discipline, period, result, curve)

    prefix = f"{discipline}/{period.label}"
    outputs: dict[str, str] = {}
    if stage in ("analyze", "all"):
        outputs[f"{prefix}/distances.csv"] = distance_matrix_to_csv(dm)
        outputs[f"{prefix}/dendrogram.newick"] = to_newick(dend)
        outputs[f"{prefix}/merges.json"] = merges_to_json(dend)
        outputs[f"{prefix}/chord.csv"] = chord_to_csv(chord_data(table, config.top_n))
        outputs[f"{prefix}/icd.csv"] = icd_detail_to_csv(cell)
        if curve is not None:
            outputs[f"{prefix}/kde.csv"] = kde_to_csv(discipline, period, curve)
        rate_series = [
            apply_min_volume_mask(
                collab_rate_series(period_years, discipline, entity),
                config.min_volume,
            )
            for entity in top
        ]
        outputs[f"{prefix}/series.csv"] = series_to_csv(rate_series)
        outputs[f"{prefix}/volumes.csv"] = series_to_csv(
            [volume_series(period_years, discipline, e) for e in top]
        )
        pairs = config.bilateral_pairs or ((top[0], top[1]),)
        bilateral = [
            bilateral_distance_series(
                period_years, discipline, a, b, config.min_volume
            )
            for a, b in pairs
        ]
        outputs[f"{prefix}/bilateral.csv"] = series_to_csv(bilateral)
    if stage in ("report", "all"):
        volumes = {e: table.unary.get(e, 0) for e in top}
        outputs[f"{prefix}/dendrogram.svg"] = render_circular_dendrogram(
            dend, cut, volumes
        )

    info = {
        "entities": len(top),
        "works": table.total_count,
        "embeddable": emb.embeddable,
        "n_clusters": cut.n_clusters,
        "icd_mean": result.mean,
    }
    return outputs, cell, info


def run(
    config: AnalysisConfig,
    mode: str = "online",
    stage: str = "all",
    transport=None,
    sleep=None,
) -> tuple[int, dict]:
    """Execute one stage of the pipeline; returns (exit status, manifest).

    ``mode="fixtures"`` forbids network access: every page must already
    sit in the cache, and an empty cache aborts before anything is
    written. Module errors propagate to the caller (the CLI maps them to
    exit codes).
    """
    if mode not in ("online", "fixtures"):
        raise ConfigError(f"unknown mode {mode!r}")
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")
    diags = validate(config)
    if diags:
        raise ConfigError("; ".join(str(d) for d in diags))

    cache = PageCache(config.cache_dir)
    if mode == "fixtures":
        if cache.is_empty():
            raise MissingFixtures(
                f"fixtures mode needs a populated cache at {config.cache_dir}"
            )
        transport = None
    elif transport is None:
        from .ingest import RequestsTransport

        transport = RequestsTransport()

    client_kwargs = dict(rate_limit=config.rate_limit)
    if sleep is not None:
        client_kwargs["sleep"] = sleep
    client = OpenAlexClient(cache, transport, **client_kwargs)

    out_root = Path(config.out_dir)
    outputs: dict[str, str] = {}
    cells_info: dict[str, dict] = {}
    year_lo = min(p.year_from for p in config.periods)
    year_hi = max(p.year_to for p in config.periods)

    for discipline in config.disciplines:
        concepts = expand_concept(discipline, client.fetch_concept, config.expansion)
        records = harvest(
            client,
            discipline,
            sorted(concepts),
            year_lo,
            year_hi,
            journal_only=config.journal_only,
        )
        if stage == "harvest":
            for _ in records:  # fills the cache; nothing is counted
                pass
            continue

        yearly = count_years(
            records, discipline, range(year_lo, year_hi + 1), config.key
        )

        icd_cells = []
        for period in config.periods:
            period_years = {year: yearly[year] for year in period.years()}
            table = merge_tables(list(period_years.values()), period)
            cell_outputs, icd_cell, info = _analyze_cell(
                config, table, period_years, stage
            )
            outputs.update(cell_outputs)
            icd_cells.append(icd_cell)
            cells_info[f"{discipline}/{period.label}"] = info

        if stage in ("analyze", "all"):
            outputs[f"{discipline}/icd_series.csv"] = icd_series_to_csv(icd_cells)
            lines = ["discipline,year,unknown_count,total_count,rate"]
            for year, table in yearly.items():
                if table.total_count == 0:
                    continue
                lines.append(
                    f"{discipline},{year},{table.unknown_count},"
                    f"{table.total_count},{'%.6g' % unknown_rate(table)}"
                )
            outputs[f"{discipline}/unknown_rate.csv"] = "\n".join(lines) + "\n"

    manifest = {
        "schema": 1,
        "stage": stage,
        "mode": mode,
        "config": config.to_dict(),
        "config_sha256": config_hash(config),
        "versions": {
            "collabkit": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": dict(sorted(client.consumed.items())),
        "outputs": {},
        "cells": dict(sorted(cells_info.items())),
    }
    for rel in sorted(outputs):
        text = outputs[rel]
        write_text_atomic(out_root / rel, text)
        manifest["outputs"][rel] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if stage != "harvest":
        write_text_atomic(
            out_root / "manifest.json",
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )
    return EXIT_OK, manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collabkit",
        description="Research co-production analytics pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("harvest", "fetch pages into the cache"),
        ("analyze", "compute counts, clustering, and data exports"),
        ("report", "render dendrogram SVGs"),
        ("all", "harvest, analyze, and report in one pass"),
        ("validate", "check the configuration and exit"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="path to a JSON config file")
        cmd.add_argument(
            "--disciplines", help="comma-separated root concept ids"
        )
        cmd.add_argument(
            "--periods",
            help="period preset name (paper-4 or paper-10)",
            choices=sorted(PERIOD_PRESETS),
        )
        cmd.add_argument("--key", choices=list(VALID_KEYS))
        cmd.add_argument("--top-n", type=int, dest="top_n")
        cmd.add_argument("--h-star", type=float, dest="h_star")
        cmd.add_argument("--h0", choices=["auto", "1.0"])
        cmd.add_argument("--min-volume", type=int, dest="min_volume")
        cmd.add_argument(
            "--journal-only", action="store_true", default=None, dest="journal_only"
        )
        cmd.add_argument("--cache-dir", dest="cache_dir")
        cmd.add_argument("--out-dir", dest="out_dir")
        cmd.add_argument(
            "--offline",
            action="store_true",
            help="serve everything from the cache; fail on a miss",
        )
    return parser


def _config_from_args(args: argparse.Namespace) -> AnalysisConfig:
    if args.config:
        config = load_config(args.config)
    else:
        if not args.disciplines:
            raise ConfigError("either --config or --disciplines is required")
        config = config_from_dict({"disciplines": args.disciplines.split(",")})
    updates: dict = {}
    if args.disciplines:
        updates["disciplines"] = tuple(args.disciplines.split(","))
    if args.periods:
        updates["periods"] = resolve_periods(args.periods)
    for name in ("key", "top_n", "h_star", "min_volume", "cache_dir", "out_dir"):
        value = getattr(args, name)
        if value is not None:
            updates[name] = value
    if args.journal_only is not None:
        updates["journal_only"] = args.journal_only
    if args.h0 is not None:
        updates["h0_mode"] = "auto" if args.h0 == "auto" else "strict-1.0"
    return replace(config, **updates)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "validate":
            diags = validate(config, PageCache(config.cache_dir))
            for diag in diags:
                print(diag, file=sys.stderr)
            return EXIT_OK if not diags else EXIT_CONFIG
        mode = "fixtures" if args.offline else "online"
        code, manifest = run(config, mode=mode, stage=args.command)
        print(
            f"{args.command}: wrote {len(manifest['outputs'])} files to {config.out_dir}"
        )
        return code
    except _CONFIG_ERRORS as exc:
        _report_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except _TRANSPORT_ERRORS as exc:
        _report_error(exc, EXIT_TRANSPORT)
        return EXIT_TRANSPORT
    except CollabKitError as exc:
        _report_error(exc, EXIT_ANALYSIS)
        return EXIT_ANALYSIS
    except Exception as exc:  # anything unexpected still reports machine-readably
        _report_error(exc, EXIT_ANALYSIS)
        return EXIT_ANALYSIS


def _report_error(exc: Exception, code: int) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
