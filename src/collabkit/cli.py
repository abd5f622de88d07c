"""End-to-end pipeline driver.

Stages: harvest (fill the page cache), analyze (counts, geometry, data
exports), report (SVG dendrograms), all (one pass over everything),
validate (build the config, then check each discipline against the cache).
A declarative JSON config feeds every stage; flags override config fields.
Exit codes: 0 success, 1 config error, 2 transport error, 3 analysis error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import platform
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    COUNTRY_KEY,
    INSTITUTION_KEY,
    CountTable,
    Period,
    VALID_KEYS,
    count_years,
    gather,
    merge_tables,
    overlapping_periods,
    top_entities,
)
from .errors import (
    CollabKitError,
    ConfigError,
    MissingFixtures,
    ParseError,
    TransportError,
)
from .fsio import StagedTree, json_text
from .geometry import (
    IcdResult,
    anchored_block,
    cut_clusters,
    distance_matrix,
    icd,
    is_embeddable,
    ward_cluster,
)
from .ingest import (
    DEFAULT_RATE_LIMIT,
    EXPANSION_MODES,
    OpenAlexClient,
    PageCache,
    expand_concept,
    harvest,
    normalize_concept_id,
)
from .metrics import bilateral_distance_series, kde, yearly_series
from .report import (
    CSV_SPECIALS,
    chord_to_csv,
    distance_matrix_to_csv,
    icd_detail_to_csv,
    icd_series_to_csv,
    kde_to_csv,
    merges_to_json,
    render_circular_dendrogram,
    series_to_csv,
    to_newick,
    unknown_rate_to_csv,
    writable_name,
)

PERIOD_PRESETS: dict[str, tuple[Period, ...]] = {
    "paper-4": (
        Period("1971-1990", 1971, 1990),
        Period("1991-2000", 1991, 2000),
        Period("2001-2010", 2001, 2010),
        Period("2011-2020", 2011, 2020),
    ),
    "paper-10": tuple(Period(f"{y}-{y + 4}", y, y + 4) for y in range(1971, 2020, 5)),
}

H0_MODES = ("auto", "strict-1.0")
STAGES = ("harvest", "analyze", "report", "all")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_TRANSPORT = 2
EXIT_ANALYSIS = 3

_TRANSPORT_ERRORS = (TransportError, ParseError)


_NUMBER = (int, float)


def _is_json(value, kind) -> bool:
    """isinstance, except that a bool is not a JSON int or number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _is_list_of(value, kind) -> bool:
    return isinstance(value, (list, tuple)) and all(_is_json(v, kind) for v in value)


# A bare discipline id and a period label each name a directory under
# out_dir and fill CSV fields.
_NAME_SPECIALS = CSV_SPECIALS | frozenset("/\\")
_PLAIN_NAME = 'must name one directory and hold no / \\ , " CR or LF'
# The files written once per discipline, beside its period directories,
# which a period label therefore must not name.
_DISCIPLINE_FILES = ("icd_series.csv", "unknown_rate.csv")


def _is_plain_name(name) -> bool:
    plain = isinstance(name, str) and _NAME_SPECIALS.isdisjoint(name)
    return plain and name not in ("", ".", "..")


def _period(entry) -> Period | str:
    """A period entry, an object or a Period, as a Period, or what is wrong with it."""
    if isinstance(entry, Period):
        entry = asdict(entry)
    if not (
        isinstance(entry, dict)
        and _is_json(entry.get("label"), str)
        and _is_json(entry.get("year_from"), int)
        and _is_json(entry.get("year_to"), int)
    ):
        return f"needs a string label and int year_from/year_to, got {entry!r}"
    try:
        return Period(entry["label"], entry["year_from"], entry["year_to"])
    except ValueError as exc:
        return str(exc)


# field -> (JSON type, rule a value of that type must keep, what the rule says)
_SCALAR_RULES = {
    "key": (str, lambda v: v in VALID_KEYS, f"must be one of {VALID_KEYS}"),
    "top_n": (int, lambda v: v >= 2, "need at least 2 entities to compare"),
    "h_star": (
        _NUMBER, lambda v: 0 < v < math.inf, "threshold must be positive and finite"
    ),
    "h0_mode": (str, lambda v: v in H0_MODES, f"must be one of {H0_MODES}"),
    "min_volume": (int, lambda v: v >= 0, "must be non-negative"),
    "journal_only": (bool, None, None),
    "expansion": (
        str, lambda v: v in EXPANSION_MODES, f"must be one of {EXPANSION_MODES}"
    ),
    "rate_limit": (_NUMBER, lambda v: 0 < v < math.inf, "must be positive and finite"),
    "cache_dir": (str, None, None),
    "out_dir": (str, None, None),
}


@dataclass(frozen=True)
class AnalysisConfig:
    """Declarative description of one full analysis run.

    Each field takes its JSON shape: a list or a tuple, and for
    ``periods`` a preset name or a list of ``{label, year_from, year_to}``
    entries (or Periods). Every rule is checked when the config is built,
    by ``config_from_dict``, ``dataclasses.replace`` or a direct call, and
    a config that breaks any raises one ConfigError naming each
    ``field: message``. No value is coerced: a bool is not an int, and
    ``int(30.9)`` would change the run without a word. A valid config is
    stored in one canonical form: tuples, Periods, discipline ids bare
    (``C100``, not its OpenAlex URL) and distinct, and ``h_star`` and
    ``rate_limit`` as floats.
    """

    disciplines: tuple[str, ...] = ()
    periods: tuple[Period, ...] = "paper-4"  # resolved in __post_init__
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

    def __post_init__(self) -> None:
        diags = self._settle()
        if diags:
            raise ConfigError("bad config value: " + "; ".join(diags))

    def _settle(self) -> list[str]:
        """Store each readable field in its canonical form; return the findings."""
        diags: list[str] = []

        def add(field: str, message: str) -> None:
            diags.append(f"{field}: {message}")

        def store(field: str, value) -> None:
            object.__setattr__(self, field, value)

        if not _is_list_of(self.disciplines, str):
            add("disciplines", f"must be a list of strings, got {self.disciplines!r}")
        elif not self.disciplines:
            add("disciplines", "at least one root concept id required")
        else:
            store("disciplines", tuple(map(normalize_concept_id, self.disciplines)))
            first: dict[str, int] = {}  # bare id -> index it first appears at
            for i, bare in enumerate(self.disciplines):
                if not _is_plain_name(bare):
                    add(f"disciplines[{i}]", f"id {bare!r} {_PLAIN_NAME}")
                elif bare in first:
                    add(f"disciplines[{i}]", f"duplicate of disciplines[{first[bare]}]")
                else:
                    first[bare] = i

        spec = self.periods
        if isinstance(spec, str):
            spec = PERIOD_PRESETS.get(spec, spec)
        if isinstance(spec, str):
            add("periods", f"unknown preset {spec!r}, not one of {sorted(PERIOD_PRESETS)}")
        elif not isinstance(spec, (list, tuple)):
            add("periods", f"must be a preset name or a list of periods, got {spec!r}")
        elif not spec:
            add("periods", "at least one period required")
        else:
            entries = list(map(_period, spec))
            for i, entry in enumerate(entries):
                if isinstance(entry, str):
                    add(f"periods[{i}]", entry)
                elif not _is_plain_name(entry.label):
                    add(f"periods[{i}]", f"label {entry.label!r} {_PLAIN_NAME}")
                elif entry.label in _DISCIPLINE_FILES:
                    add(
                        f"periods[{i}]",
                        f"label {entry.label!r} is the name of a discipline file",
                    )
            store("periods", tuple(p for p in entries if isinstance(p, Period)))
            labels = [p.label for p in self.periods]
            if len(set(labels)) != len(labels):
                add("periods", "period labels must be unique")
            for a, b in overlapping_periods(self.periods):
                add("periods", f"periods {a.label!r} and {b.label!r} overlap")

        for name, (kind, rule, message) in _SCALAR_RULES.items():
            value = getattr(self, name)
            if not _is_json(value, kind):
                what = "a number" if kind is _NUMBER else kind.__name__
                add(name, f"must be {what}, got {value!r}")
            elif rule is not None and not rule(value):
                add(name, message)
            elif kind is _NUMBER:
                store(name, float(value))

        if not isinstance(self.bilateral_pairs, (list, tuple)):
            add("bilateral_pairs", f"must be a list of pairs, got {self.bilateral_pairs!r}")
        else:
            pairs = []
            at: dict[frozenset[str], int] = {}  # pair, in either order -> its index
            for i, pair in enumerate(self.bilateral_pairs):
                field = f"bilateral_pairs[{i}]"
                if not (_is_list_of(pair, str) and len(pair) == 2):
                    add(field, f"expected two entity codes, got {pair!r}")
                elif not all(code.strip() for code in pair):
                    add(field, f"codes {pair!r} must not be blank: records hold no blank code")
                elif any(not CSV_SPECIALS.isdisjoint(code) for code in pair):
                    add(field, f"codes {pair!r} must hold no , \" CR or LF")
                elif pair[0] == pair[1]:
                    add(field, f"codes {pair!r} must name two different entities")
                elif self.key == COUNTRY_KEY and any(c != c.upper() for c in pair):
                    add(
                        field, f"codes {pair!r} must be upper case, as records hold country codes"
                    )
                elif self.key == INSTITUTION_KEY and any("/" in c for c in pair):
                    add(
                        field,
                        f"codes {pair!r} must hold no /: records hold the bare ROR id, "
                        "the part of its URL after the last /",
                    )
                elif frozenset(pair) in at:
                    add(field, f"duplicate of bilateral_pairs[{at[frozenset(pair)]}]")
                else:
                    at[frozenset(pair)] = i
                    pairs.append(tuple(pair))
            store("bilateral_pairs", tuple(pairs))
        return diags


_CONFIG_KEYS = frozenset(f.name for f in fields(AnalysisConfig))


def config_from_dict(doc: dict) -> AnalysisConfig:
    """Build a config from its JSON document; unknown keys are refused."""
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return AnalysisConfig(**doc)


def _read_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"config file {path} cannot be read: {reason}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} does not hold a JSON object")
    return doc


def load_config(path: str | Path) -> AnalysisConfig:
    return config_from_dict(_read_config(path))


def validate(config: AnalysisConfig, cache: PageCache | None = None) -> None:
    """Check a built, hence valid, config against the page cache.

    With a non-empty page cache, each discipline's concept page is read
    from it offline: a missing page, one that fails decoding or its
    sidecar check, or a root that is not level 1 is a finding, and one
    ConfigError names every finding. Without one the ids go unchecked
    here and are verified on first fetch.
    """
    if cache is None or cache.is_empty():
        return
    client = OpenAlexClient(cache, transport=None)
    diags: list[str] = []
    for i, d in enumerate(config.disciplines):
        try:
            # one-hop reads the root page only and checks its level
            expand_concept(d, client.fetch_concept, "one-hop")
        except MissingFixtures:
            diags.append(f"disciplines[{i}]: {d} not in offline cache")
        except (ParseError, ConfigError) as exc:
            diags.append(f"disciplines[{i}]: {exc}")
    if diags:
        raise ConfigError("config does not match the cache: " + "; ".join(diags))


def config_hash(config: AnalysisConfig) -> str:
    canonical = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _analyze_cell(
    config: AnalysisConfig,
    table: CountTable,
    period_years: dict[int, CountTable],
    stage: str,
    staged: StagedTree,
) -> tuple[IcdResult, dict]:
    """Compute one (discipline, period) cell from its count table and
    stage each of its files as it is built.

    ``period_years`` holds the one-year tables of the period's years, which
    feed the yearly series. Each file goes to ``staged`` under its path
    relative to the out dir, so every CSV exporter is drained before this
    returns. Returns the cell's ICD result and its manifest stanza.
    """
    discipline, period = table.discipline_id, table.period
    top = top_entities(table, config.top_n)
    if len(top) < 2:
        raise CollabKitError(
            f"{discipline} {period.label}: fewer than 2 entities with works"
        )
    for name in top:
        if not writable_name(name):
            raise CollabKitError(
                f"{discipline} {period.label}: entity {name!r} is empty or holds a"
                " comma, quote, Newick metacharacter or whitespace, which the CSV"
                " and Newick outputs cannot carry"
            )
    prefix = f"{discipline}/{period.label}"
    dm = distance_matrix(table, top)
    dend = ward_cluster(dm)
    if stage in ("analyze", "all"):
        staged.put(f"{prefix}/distances.csv", distance_matrix_to_csv(dm))
    block = anchored_block(dm)
    # the flag's factorisation copies the block and allocates its factor:
    # the distances are dropped first, so the cell never holds more than
    # three matrices at once
    del dm
    embeddable, embeddable_by = is_embeddable(block)
    del block
    cut = cut_clusters(dend, config.h_star)
    h0 = "auto" if config.h0_mode == "auto" else 1.0
    result = icd(dend, h0)

    info = {
        "entities": len(top),
        "works": table.total_count,
        "embeddable": embeddable,
        "embeddable_by": embeddable_by,
        "n_clusters": cut.n_clusters,
        "icd_mean": result.mean,
    }
    if stage in ("analyze", "all"):
        staged.put(f"{prefix}/dendrogram.newick", to_newick(dend))
        staged.put(f"{prefix}/merges.json", merges_to_json(dend))
        staged.put(f"{prefix}/chord.csv", chord_to_csv(table, top))
        staged.put(f"{prefix}/icd.csv", icd_detail_to_csv(discipline, period, result))
        if len(result.rescaled) >= 2:
            curve = kde(result.rescaled)
            staged.put(f"{prefix}/kde.csv", kde_to_csv(discipline, period, curve))
        rates, yearly_volumes = yearly_series(period_years, discipline, top, config.min_volume)
        staged.put(f"{prefix}/series.csv", series_to_csv(rates))
        staged.put(f"{prefix}/volumes.csv", series_to_csv(yearly_volumes))
        pairs = config.bilateral_pairs or ((top[0], top[1]),)
        bilateral = [
            bilateral_distance_series(
                period_years, discipline, a, b, config.min_volume
            )
            for a, b in pairs
        ]
        staged.put(f"{prefix}/bilateral.csv", series_to_csv(bilateral))
        # the masked points of series.csv and bilateral.csv; volumes.csv has none
        masked = Counter(np.concatenate([s.reasons for s in rates + bilateral]).tolist())
        del masked[None]
        info["masked_points"] = dict(masked)
    if stage in ("report", "all"):
        volumes = dict(zip(top, gather(table.unary_counts, table.indices(top)).tolist()))
        staged.put(
            f"{prefix}/dendrogram.svg", render_circular_dendrogram(dend, cut, volumes)
        )
    return result, info


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

    ``sleep`` stands in for ``time.sleep`` in the client's rate limit and
    retry waits.

    Each file is written into a staging directory inside ``out_dir`` as
    soon as it is built, so every CSV exporter is drained at the line that
    makes it. Once every cell is done,
    the staged files are moved over their places in ``out_dir`` one at a
    time, in sorted order, and ``manifest.json`` last. A run that raises
    before that removes the staging directory, and ``out_dir`` too if the
    run made it, so ``out_dir`` is left as it was. Files of an earlier run
    that this run does not write stay.

    An enabled cycle collector is paused for the whole call, in every
    mode and stage, and enabled again afterwards, also when the run
    raises; a collector the caller had disabled stays disabled. The pause
    is process-wide: other threads of the host run without cycle
    collection meanwhile.
    """
    if mode not in ("online", "fixtures"):
        raise ConfigError(f"unknown mode {mode!r}")
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r}")

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

    client = OpenAlexClient(
        cache, transport, rate_limit=config.rate_limit, sleep=sleep or time.sleep
    )

    staged = StagedTree(config.out_dir)
    # A run makes no reference cycles, so collecting during it would only
    # rescan live objects.
    pause = gc.isenabled()
    if pause:
        gc.disable()
    try:
        cells_info = _stage_disciplines(config, client, stage, staged)
        manifest = {
            "schema": 1,
            "stage": stage,
            "mode": mode,
            "config": json.loads(json.dumps(asdict(config))),
            "config_sha256": config_hash(config),
            "versions": {
                "collabkit": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "inputs": dict(sorted(client.consumed.items())),
            "ingest": client.ingest,
            "outputs": dict(sorted(staged.digests.items())),
            "cells": dict(sorted(cells_info.items())),
        }
        if stage != "harvest":
            staged.put(StagedTree.MANIFEST, json_text(manifest) + "\n")
            staged.commit()
    except BaseException:
        staged.discard()
        raise
    finally:
        if pause:
            gc.enable()
    return EXIT_OK, manifest


def _stage_disciplines(
    config: AnalysisConfig, client: OpenAlexClient, stage: str, staged: StagedTree
) -> dict[str, dict]:
    """Harvest, count and analyse each discipline, staging every cell's
    files as soon as the cell is computed; returns the cells' manifest
    stanzas keyed by ``discipline/period``."""
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
            key=config.key,
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
            result, info = _analyze_cell(config, table, period_years, stage, staged)
            icd_cells.append((period, result))
            cells_info[f"{discipline}/{period.label}"] = info

        if stage in ("analyze", "all"):
            texts = (
                icd_series_to_csv(discipline, icd_cells),
                unknown_rate_to_csv(discipline, yearly),
            )
            for name, text in zip(_DISCIPLINE_FILES, texts):
                staged.put(f"{discipline}/{name}", text)
    return cells_info


def _number(text: str):
    """A numeric flag's value as an int or a float where it reads as one;
    any other text is passed on as given, for the config rules to judge."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


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
            "--disciplines",
            type=lambda text: text.split(","),
            help="comma-separated root concept ids",
        )
        cmd.add_argument("--periods", help="period preset name (paper-4 or paper-10)")
        cmd.add_argument("--key", help="country or institution")
        cmd.add_argument("--top-n", type=_number, dest="top_n")
        cmd.add_argument("--h-star", type=_number, dest="h_star")
        cmd.add_argument("--h0", help="auto or 1.0")
        cmd.add_argument("--min-volume", type=_number, dest="min_volume")
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
    """The --config document, or an empty one, with each given flag laid over it."""
    doc = _read_config(args.config) if args.config else {}
    for name, value in vars(args).items():
        if name in _CONFIG_KEYS and value is not None:
            doc[name] = value
    if args.h0 is not None:
        doc["h0_mode"] = {"1.0": "strict-1.0"}.get(args.h0, args.h0)
    return config_from_dict(doc)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "validate":
            validate(config, PageCache(config.cache_dir))
            return EXIT_OK
        mode = "fixtures" if args.offline else "online"
        code, manifest = run(config, mode=mode, stage=args.command)
        if args.command == "harvest":
            # a page read twice counts twice in pages_from_cache, once in inputs
            counts, pages = manifest["ingest"], len(manifest["inputs"])
            print(
                f"harvest: {pages} pages in {config.cache_dir}"
                f" ({counts['pages_fetched']} fetched,"
                f" {pages - counts['pages_fetched']} already cached),"
                f" {sum(counts['retries_by_status'].values())} retries,"
                f" {counts['duplicate_ids_dropped']} duplicate ids dropped,"
                f" {counts['malformed_items_skipped']} malformed items skipped"
            )
        else:
            print(
                f"{args.command}: wrote {len(manifest['outputs'])} files"
                f" to {config.out_dir}"
            )
        return code
    except ConfigError as exc:
        _report_error(exc, EXIT_CONFIG)
        return EXIT_CONFIG
    except _TRANSPORT_ERRORS as exc:
        _report_error(exc, EXIT_TRANSPORT)
        return EXIT_TRANSPORT
    except Exception as exc:  # analysis errors, and anything unexpected, report alike
        _report_error(exc, EXIT_ANALYSIS)
        return EXIT_ANALYSIS


def _report_error(exc: Exception, code: int) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
