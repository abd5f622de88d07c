"""Orchestration: config handling, validation diagnostics, staged runs
over the bundled offline corpus, manifests, and exit codes."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabkit import cli, ingest, metrics
from collabkit.cli import (
    EXIT_ANALYSIS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRANSPORT,
    AnalysisConfig,
    _build_parser,
    _config_from_args,
    config_from_dict,
    config_hash,
    load_config,
    main,
    run,
    validate,
)
from collabkit.corpus import (
    VALID_KEYS,
    CountTable,
    Period,
    WorkRecord,
    build_count_table,
    count_years,
    merge_tables,
)
from collabkit.errors import (
    CollabKitError,
    ConfigError,
    InvalidH0,
    MissingFixtures,
    ParseError,
    TransportError,
)
from collabkit.fsio import STAGING_PREFIX, StagedTree
from collabkit.metrics import REASON_BELOW_MIN_VOLUME, REASON_DEGENERATE, REASON_MISSING
from collabkit.ingest import PageCache, TransportResponse
import synthetic
from synthetic import SyntheticOpenAlexTransport
from util import POOL12, brute_year_table, table_from_sets, tree_snapshot

FIXTURE_CONFIG = Path(__file__).resolve().parent / "fixtures" / "config.json"

# key -> (files, sha256 of the outputs map) of the bundled config's all run
FIXTURE_OUTPUTS = {
    "country": (84, "cd30e9cb7f89f64fec4fe3c61970dce56b853388f06149db5acd9be17bb009dc"),
    "institution": (76, "9cfa65212eb34f4ae4488321b8f03f2e48212ad91d8dd60a3c66d692814d45ce"),
}

PAPER4_LABELS = ["1971-1990", "1991-2000", "2001-2010", "2011-2020"]

# names that would not name one directory under out_dir or fit a CSV field
NOT_PLAIN_NAMES = ["", ".", "..", "../x", "a/b", "a\\b", "a,b", 'a"b', "a\rb", "a\nb"]

CELL_FILES = [
    "distances.csv",
    "dendrogram.newick",
    "merges.json",
    "chord.csv",
    "icd.csv",
    "kde.csv",
    "series.csv",
    "volumes.csv",
    "bilateral.csv",
    "dendrogram.svg",
]


def _periods(spec) -> tuple[Period, ...]:
    return config_from_dict({"disciplines": ["C1"], "periods": spec}).periods


class TestPeriods:
    def test_paper4_preset(self):
        periods = _periods("paper-4")
        assert [p.label for p in periods] == PAPER4_LABELS
        assert periods[0].year_from == 1971 and periods[0].year_to == 1990
        assert periods[-1].year_to == 2020

    def test_paper10_preset(self):
        periods = _periods("paper-10")
        assert len(periods) == 10
        assert [p.label for p in periods] == [
            f"{y}-{y + 4}" for y in range(1971, 2020, 5)
        ]
        assert all(p.year_to - p.year_from == 4 for p in periods)

    def test_explicit_list(self):
        periods = _periods([{"label": "90s", "year_from": 1990, "year_to": 1999}])
        assert periods == (Period("90s", 1990, 1999),)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            _periods("paper-99")

    def test_bad_entry(self):
        with pytest.raises(ConfigError):
            _periods([{"label": "x"}])


class TestConfig:
    def test_defaults(self):
        config = config_from_dict({"disciplines": ["C1"]})
        assert config.top_n == 30
        assert config.h_star == 1.005
        assert config.min_volume == 100
        assert config.key == "country"
        assert config.h0_mode == "auto"
        assert [p.label for p in config.periods] == PAPER4_LABELS

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="min_vol"):
            config_from_dict({"disciplines": ["C1"], "min_vol": 5})

    def test_missing_disciplines(self):
        with pytest.raises(ConfigError, match="disciplines"):
            config_from_dict({})

    def test_bad_value_types(self):
        with pytest.raises(ConfigError, match="bad config value"):
            config_from_dict({"disciplines": ["C1"], "top_n": "many"})
        with pytest.raises(ConfigError, match="bad config value"):
            config_from_dict({"disciplines": ["C1"], "bilateral_pairs": [["US"]]})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("journal_only", "false"),
            ("journal_only", 0),
            ("top_n", 30.9),
            ("top_n", True),
            ("min_volume", 5.0),
            ("min_volume", False),
            ("h_star", True),
            ("h_star", "1.005"),
            ("rate_limit", True),
            ("periods", [{"label": 7, "year_from": 1990, "year_to": 1999}]),
            ("periods", [{"label": "90s", "year_from": 1990.7, "year_to": 1999}]),
            ("periods", [{"label": "90s", "year_from": 1990, "year_to": "1999"}]),
            ("bilateral_pairs", [["US", 1]]),
            ("cache_dir", 5),
            ("out_dir", 5),
            ("periods", (Period("90s", 1990.7, 1999),)),
        ],
    )
    def test_mistyped_values_not_coerced(self, field, value):
        # the same rules hold however the config is built
        for build in (
            lambda: config_from_dict({"disciplines": ["C1"], field: value}),
            lambda: replace(config_from_dict({"disciplines": ["C1"]}), **{field: value}),
            lambda: AnalysisConfig(disciplines=("C1",), **{field: value}),
        ):
            with pytest.raises(ConfigError, match=f"bad config value: {field}"):
                build()

    def test_every_bad_field_named_at_once(self):
        # period findings sit beside every other field's: an unknown preset,
        # a malformed entry and an empty year range hide nothing
        bad_entries = [
            {"label": "early", "year_from": 1971, "year_to": 1990},
            {"label": "x"},
            {"label": "late", "year_from": 2000, "year_to": 1991},
        ]
        for periods, period_findings in (
            ("paper-3", ["periods: unknown preset 'paper-3'"]),
            (bad_entries, ["periods[1]: ", "periods[2]: "]),
        ):
            with pytest.raises(ConfigError) as caught:
                config_from_dict(
                    {
                        "disciplines": ["C1", ""],
                        "periods": periods,
                        "top_n": 1,
                        "h_star": True,
                        "key": "continent",
                        "bilateral_pairs": [["US", "CN"], ["US"]],
                    }
                )
            message = str(caught.value)
            named = [
                "disciplines[1]: ",
                *period_findings,
                "top_n: ",
                "h_star: ",
                "key: ",
                "bilateral_pairs[1]: ",
            ]
            for finding in named:
                assert finding in message
            assert message.count("; ") == len(named) - 1

    def test_json_shapes_build_the_canonical_config(self):
        # lists and a preset name, given in Python, settle to what the
        # same JSON document gives: equal, and hashing alike
        doc = {
            "disciplines": ["C1", "https://openalex.org/C2"],
            "periods": "paper-10",
            "bilateral_pairs": [["US", "CN"]],
        }
        from_doc = config_from_dict(doc)
        for config in (
            AnalysisConfig(**doc),
            replace(config_from_dict({"disciplines": ["C9"]}), **doc),
        ):
            assert config == from_doc and hash(config) == hash(from_doc)
            assert config_hash(config) == config_hash(from_doc)
        assert from_doc.disciplines == ("C1", "C2")
        assert from_doc.bilateral_pairs == (("US", "CN"),)
        assert from_doc.periods == cli.PERIOD_PRESETS["paper-10"]

    @pytest.mark.parametrize(
        "doc,digest",
        [
            (
                json.loads(FIXTURE_CONFIG.read_text()),
                "58f68d6c43173eed026ef72111dc50009ac8341c3149a8db7ce6607f1476a1df",
            ),
            (
                {
                    "disciplines": ["C1", "C2"],
                    "bilateral_pairs": [["US", "CN"]],
                    "periods": "paper-10",
                    "rate_limit": 3,
                },
                "acd53985cec6ff95ff3b4cab45232758f8b92af00daab86beff5765513b8aa85",
            ),
        ],
        ids=["fixture-config", "paper-10-pairs"],
    )
    def test_pinned_hashes(self, doc, digest):
        # config_sha256 in existing manifests stays comparable; an int
        # rate_limit hashes as the float it is stored as
        assert config_hash(config_from_dict(doc)) == digest

    def test_discipline_ids_stored_bare(self):
        config = config_from_dict({"disciplines": ["https://openalex.org/C100/", "C2"]})
        assert config.disciplines == ("C100", "C2")
        assert config_hash(config) == config_hash(
            config_from_dict({"disciplines": ["C100", "C2"]})
        )

    def test_duplicate_disciplines_refused(self):
        # the same root twice, once as its URL: run() would analyse it twice
        # and the second pass would overwrite the first's outputs
        twice = ("C100", "C2", "https://openalex.org/C100")
        for build in (
            lambda: config_from_dict({"disciplines": list(twice)}),
            lambda: replace(config_from_dict({"disciplines": ["C1"]}), disciplines=twice),
            lambda: AnalysisConfig(disciplines=twice),
        ):
            with pytest.raises(
                ConfigError, match=re.escape("disciplines[2]: duplicate of disciplines[0]")
            ):
                build()

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match=f"{re.escape(str(bad))} is not valid JSON"):
            load_config(bad)
        scalar = tmp_path / "scalar.json"
        scalar.write_text('"just a string"')
        with pytest.raises(
            ConfigError, match=f"{re.escape(str(scalar))} does not hold a JSON object"
        ):
            load_config(scalar)
        utf16 = tmp_path / "utf16.json"
        utf16.write_bytes(b"\xff\xfe{\x00}\x00")
        with pytest.raises(ConfigError, match=f"{re.escape(str(utf16))} is not UTF-8"):
            load_config(utf16)
        with pytest.raises(ConfigError, match=f"{re.escape(str(tmp_path))} cannot be read"):
            load_config(tmp_path)
        assert main(["validate", "--config", str(tmp_path)]) == EXIT_CONFIG

    def test_load_config_round_trip(self, tmp_path):
        doc = {"disciplines": ["C100"], "periods": "paper-10", "top_n": 12}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_config(path)
        assert config.disciplines == ("C100",)
        assert len(config.periods) == 10
        assert config.top_n == 12

    def test_hash_stability(self):
        a = config_from_dict({"disciplines": ["C1"]})
        b = config_from_dict({"disciplines": ["C1"]})
        c = config_from_dict({"disciplines": ["C1"], "top_n": 12})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 64


def _config(**overrides) -> AnalysisConfig:
    base = config_from_dict({"disciplines": ["C1"]})
    return replace(base, **overrides)


class TestValidate:
    def test_clean_config(self):
        assert validate(_config()) is None

    @pytest.mark.parametrize(
        "field,overrides",
        [
            ("disciplines", {"disciplines": ()}),
            ("periods", {"periods": ()}),
            ("key", {"key": "continent"}),
            ("top_n", {"top_n": 1}),
            ("h_star", {"h_star": 0.0}),
            ("h0_mode", {"h0_mode": "exact"}),
            ("min_volume", {"min_volume": -1}),
            ("expansion", {"expansion": "all"}),
            ("rate_limit", {"rate_limit": 0.0}),
            ("h_star", {"h_star": math.inf}),
            ("rate_limit", {"rate_limit": math.inf}),
            ("periods", {"periods": 5}),
            ("bilateral_pairs", {"bilateral_pairs": "US-CN"}),
        ],
    )
    def test_field_diagnostics(self, field, overrides):
        with pytest.raises(ConfigError, match=f"bad config value: {field}: "):
            _config(**overrides)

    def test_overlapping_periods_named(self):
        with pytest.raises(ConfigError, match="periods: periods 'a' and 'b' overlap"):
            _config(periods=(Period("a", 1990, 2000), Period("b", 1995, 2005)))

    def test_duplicate_labels(self):
        with pytest.raises(ConfigError, match="periods: period labels must be unique"):
            _config(periods=(Period("x", 1990, 1991), Period("x", 1992, 1993)))

    def test_bad_pair(self):
        # pairs no run can serve: a blank or repeated code, a pair listed
        # twice, and codes in a form records of the run's key never hold
        refused = {
            "country": [("us", "cn"), ("US", "https://ror.org/x")],
            "institution": [("00f54p054", "https://ror.org/x")],
        }
        for key in VALID_KEYS:
            assert _config(key=key, bilateral_pairs=[["US", "CN"]]).bilateral_pairs
            for pairs, finding in [
                ([("US", "")], "[0]: "),
                ([("US", " ")], "[0]: "),
                ([("US", "US")], "[0]: "),
                ([("US", "CN"), ("CN", "US")], "[1]: duplicate of bilateral_pairs[0]"),
                (
                    [("US", "CN"), ("JP", "US"), ("US", "CN")],
                    "[2]: duplicate of bilateral_pairs[0]",
                ),
            ] + [([("US", "JP"), pair], "[1]: ") for pair in refused[key]]:
                with pytest.raises(ConfigError) as info:
                    _config(key=key, bilateral_pairs=pairs)
                message = str(info.value)
                assert message.startswith(f"bad config value: bilateral_pairs{finding}")
        # each key holds the form the other refuses
        assert _config(key="institution", bilateral_pairs=[["us", "cn"]]).bilateral_pairs
        assert _config(key="country", bilateral_pairs=[["US", "A/B"]]).bilateral_pairs
        # under an unknown key only the key is named
        with pytest.raises(ConfigError) as info:
            _config(key="continent", bilateral_pairs=[["us", "a/b"]])
        assert str(info.value).startswith("bad config value: key: ")
        assert "bilateral_pairs" not in str(info.value)

    # the last two are plain, but name the files beside the period directories
    @pytest.mark.parametrize(
        "label", NOT_PLAIN_NAMES + ["icd_series.csv", "unknown_rate.csv"]
    )
    def test_label_must_be_a_plain_name(self, label):
        periods = [
            {"label": "early", "year_from": 1971, "year_to": 1990},
            {"label": label, "year_from": 1991, "year_to": 2020},
        ]
        with pytest.raises(ConfigError) as info:
            config_from_dict({"disciplines": ["C1"], "periods": periods})
        assert str(info.value).startswith("bad config value: periods[1]: label ")
        assert "periods[0]" not in str(info.value)

    @pytest.mark.parametrize("name", NOT_PLAIN_NAMES)
    def test_discipline_id_must_be_a_plain_name(self, name):
        # the bare id names a directory under out_dir and fills CSV fields,
        # as a label does; a "/" ends an id's URL part, so "../x" and "a/b"
        # are read as the plain ids x and b
        doc = {"disciplines": ["C1", name]}
        if "/" in name:
            assert config_from_dict(doc).disciplines == ("C1", name.rsplit("/", 1)[1])
            return
        with pytest.raises(ConfigError) as info:
            config_from_dict(doc)
        assert str(info.value) == (
            f"bad config value: disciplines[1]: id {name!r} must name one "
            'directory and hold no / \\ , " CR or LF'
        )

    @pytest.mark.parametrize("code", ["C,N", 'C"N', "C\rN", "C\nN"])
    def test_pair_code_fits_a_csv_field(self, code):
        pairs = [["US", "JP"], ["US", code]]
        with pytest.raises(ConfigError) as info:
            config_from_dict({"disciplines": ["C1"], "bilateral_pairs": pairs})
        assert str(info.value).startswith("bad config value: bilateral_pairs[1]: ")

    def test_catalog_check(self, fixture_cache_dir):
        cache = PageCache(fixture_cache_dir)
        assert validate(_config(disciplines=("C100",)), cache) is None
        # one error names every finding
        with pytest.raises(ConfigError) as info:
            validate(_config(disciplines=("C998", "C100", "C999")), cache)
        assert str(info.value) == (
            "config does not match the cache: disciplines[0]: C998 not in offline cache;"
            " disciplines[2]: C999 not in offline cache"
        )

    @pytest.mark.parametrize("damage", ["level-2-root", "flipped-byte", "swapped-root"])
    def test_discipline_page_checked_against_cache(
        self, tmp_path, fixture_cache_dir, capsys, damage
    ):
        cache_dir = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache_dir)
        disciplines = ["C100", "C200"]
        if damage == "level-2-root":
            disciplines[0] = "C110"  # cached, but not a discipline root
            finding = "C110 has level 2, discipline roots have level 1"
        else:
            cache = PageCache(cache_dir)
            fp, other = (
                next(f for f in cache.fingerprints() if cache.meta(f)["endpoint"] == endpoint)
                for endpoint in ("concepts/C100", "concepts/C200")
            )
            page = cache.path_for(fp)
            body = page.read_bytes()
            if damage == "flipped-byte":
                page.write_bytes(body.replace(b"Synthetic Field A", b"Synthetic Field a", 1))
                finding = f"cached page {fp} does not match the sha256 in its sidecar"
            else:
                # C200's page and sidecar, both intact, filed under C100's request
                shutil.copyfile(cache.path_for(other), page)
                shutil.copyfile(cache.sidecar_for(other), cache.sidecar_for(fp))
                finding = (
                    f"cached page {fp} answers another request: its sidecar's request"
                    f" has fingerprint {other}"
                )
            assert page.read_bytes() != body
        message = f"config does not match the cache: disciplines[0]: {finding}"
        with pytest.raises(ConfigError) as info:
            validate(_config(disciplines=tuple(disciplines)), PageCache(cache_dir))
        assert str(info.value) == message
        path = _write_config(tmp_path, cache_dir, disciplines=disciplines)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ConfigError", "exit_code": 1, "message": message}

    @pytest.mark.parametrize(
        "disciplines", ["C100", ["C100", 100]], ids=["bare-string", "int-item"]
    )
    def test_disciplines_must_be_string_list(
        self, tmp_path, fixture_cache_dir, capsys, disciplines
    ):
        # a bare string used to be split into one-character concept ids
        with pytest.raises(ConfigError, match="disciplines"):
            config_from_dict({"disciplines": disciplines})
        path = _write_config(tmp_path, fixture_cache_dir, disciplines=disciplines)
        assert main(["all", "--config", path, "--offline"]) == EXIT_CONFIG
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def fixtures_run(fixture_config, tmp_path_factory):
    """One full offline run over the bundled corpus, shared read-only."""
    out = tmp_path_factory.mktemp("cli_out")
    config = replace(fixture_config, disciplines=("C100",), out_dir=str(out))
    code, manifest = run(config, mode="fixtures", stage="all")
    assert code == EXIT_OK
    return config, manifest, out


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


class TestRun:
    def test_all_cell_files_written(self, fixtures_run):
        _, _, out = fixtures_run
        for label in PAPER4_LABELS:
            for name in CELL_FILES:
                assert (out / "C100" / label / name).is_file(), f"{label}/{name}"
        assert (out / "C100" / "icd_series.csv").is_file()
        assert (out / "C100" / "unknown_rate.csv").is_file()
        assert (out / "manifest.json").is_file()

    def test_manifest_structure(self, fixtures_run):
        config, manifest, out = fixtures_run
        assert set(manifest) == {
            "schema",
            "stage",
            "mode",
            "config",
            "config_sha256",
            "versions",
            "inputs",
            "ingest",
            "outputs",
            "cells",
        }
        assert manifest["stage"] == "all"
        assert manifest["mode"] == "fixtures"
        assert manifest["config_sha256"] == config_hash(config)
        assert set(manifest["versions"]) == {"collabkit", "python", "numpy"}
        on_disk = json.loads(
            (out / "manifest.json").read_text(), parse_constant=_refuse_constant
        )
        assert on_disk == manifest

    def test_manifest_inputs_are_page_hashes(self, fixtures_run):
        _, manifest, _ = fixtures_run
        assert manifest["inputs"]
        for fp, digest in manifest["inputs"].items():
            assert len(fp) == 64 and len(digest) == 64
            int(fp, 16) and int(digest, 16)

    def test_manifest_ingest_replay_is_all_cache(self, fixtures_run):
        # an offline replay reads every page from the cache, each once; the
        # bundled corpus repeats one work in every seventh year, 7 in C100
        _, manifest, _ = fixtures_run
        assert manifest["ingest"] == {
            "pages_from_cache": len(manifest["inputs"]),
            "pages_fetched": 0,
            "network_calls": 0,
            "retries_by_status": {},
            "duplicate_ids_dropped": 7,
            "malformed_items_skipped": 0,
        }

    def test_manifest_output_hashes_match_files(self, fixtures_run):
        _, manifest, out = fixtures_run
        assert manifest["outputs"]
        for rel, digest in manifest["outputs"].items():
            data = (out / rel).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, rel

    def test_manifest_cells(self, fixtures_run):
        _, manifest, _ = fixtures_run
        assert sorted(manifest["cells"]) == [f"C100/{l}" for l in PAPER4_LABELS]
        for info in manifest["cells"].values():
            assert set(info) == {
                "entities",
                "works",
                "embeddable",
                "embeddable_by",
                "n_clusters",
                "icd_mean",
                "masked_points",
            }
            assert isinstance(info["embeddable"], bool)
            assert info["embeddable_by"] in ("cholesky", "eigvalsh")
            assert info["entities"] >= 2
            assert info["n_clusters"] >= 1

    def test_masked_points_count_the_masked_rows(self, fixtures_run):
        _, manifest, out = fixtures_run
        reasons = set()
        for cell, info in manifest["cells"].items():
            flags = [
                row["masked"]
                for name in ("series.csv", "bilateral.csv", "volumes.csv")
                for row in csv.DictReader(io.StringIO((out / cell / name).read_text()))
            ]
            assert sum(info["masked_points"].values()) == flags.count("true"), cell
            assert all(n > 0 for n in info["masked_points"].values())
            reasons.update(info["masked_points"])
        assert reasons == {REASON_BELOW_MIN_VOLUME, REASON_DEGENERATE, REASON_MISSING}

    def test_icd_series_rows(self, fixtures_run):
        _, _, out = fixtures_run
        lines = (out / "C100" / "icd_series.csv").read_text().strip().split("\n")
        assert lines[0] == "discipline,period,h0,mean,median"
        assert [ln.split(",")[1] for ln in lines[1:]] == PAPER4_LABELS

    def test_unknown_rate_rows(self, fixtures_run):
        _, _, out = fixtures_run
        lines = (out / "C100" / "unknown_rate.csv").read_text().strip().split("\n")
        assert lines[0] == "discipline,year,unknown_count,total_count,rate"
        for ln in lines[1:]:
            rate = float(ln.split(",")[4])
            assert 0.0 <= rate <= 1.0

    def test_bilateral_pairs_from_config(self, fixtures_run):
        config, _, out = fixtures_run
        text = (out / "C100" / "1991-2000" / "bilateral.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "discipline,entity,entity_b,year,value,volume,masked"
        pairs = {(ln.split(",")[1], ln.split(",")[2]) for ln in lines[1:]}
        assert pairs == set(config.bilateral_pairs)

    def test_series_schema(self, fixtures_run):
        _, _, out = fixtures_run
        text = (out / "C100" / "1991-2000" / "series.csv").read_text()
        assert text.startswith("discipline,entity,year,value,volume,masked\n")

    def test_every_csv_is_rectangular(self, fixtures_run):
        _, _, out = fixtures_run
        paths = sorted(out.rglob("*.csv"))
        assert len(paths) == 2 + 7 * len(PAPER4_LABELS)
        for path in paths:
            text = path.read_bytes().decode("utf-8")
            assert text.endswith("\n") and not text.endswith("\n\n"), path
            header, *rows = csv.reader(io.StringIO(text, newline=""))
            assert rows, path
            assert {len(row) for row in rows} == {len(header)}, path

    def test_harvest_stage_writes_nothing(self, fixture_config, tmp_path, monkeypatch):
        config = replace(
            fixture_config, disciplines=("C100",), out_dir=str(tmp_path / "o")
        )
        counted = []
        monkeypatch.setattr(cli, "count_years", lambda *a, **k: counted.append(a))
        code, manifest = run(config, mode="fixtures", stage="harvest")
        assert code == EXIT_OK
        assert counted == []
        assert manifest["outputs"] == {}
        assert not (tmp_path / "o").exists()
        assert manifest["inputs"]  # pages were still consumed

    def test_analyze_stage_skips_svg(self, fixture_config, tmp_path):
        config = replace(
            fixture_config, disciplines=("C100",), out_dir=str(tmp_path / "o")
        )
        _, manifest = run(config, mode="fixtures", stage="analyze")
        names = {rel.rsplit("/", 1)[-1] for rel in manifest["outputs"]}
        assert "dendrogram.svg" not in names
        assert "distances.csv" in names

    def test_report_stage_only_svg(self, fixture_config, tmp_path):
        config = replace(
            fixture_config, disciplines=("C100",), out_dir=str(tmp_path / "o")
        )
        _, manifest = run(config, mode="fixtures", stage="report")
        names = {rel.rsplit("/", 1)[-1] for rel in manifest["outputs"]}
        assert names == {"dendrogram.svg"}
        assert not any("masked_points" in info for info in manifest["cells"].values())

    def test_report_stage_computes_no_kde(self, fixture_config, tmp_path, monkeypatch):
        def kde(values):
            raise AssertionError("the report stage writes no kde.csv")

        monkeypatch.setattr(cli, "kde", kde)
        config = replace(fixture_config, out_dir=str(tmp_path))
        code, manifest = run(config, mode="fixtures", stage="report")
        assert code == EXIT_OK
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert files == set(manifest["outputs"]) | {"manifest.json"}
        assert {rel.rsplit("/", 1)[-1] for rel in manifest["outputs"]} == {"dendrogram.svg"}

    @pytest.mark.parametrize("key", sorted(FIXTURE_OUTPUTS))
    def test_fixture_outputs_digest(self, fixture_config, tmp_path, key):
        # the byte contract for refactors: the bundled config, both
        # disciplines, every stage, under each key
        config = replace(fixture_config, out_dir=str(tmp_path), key=key)
        _, manifest = run(config, mode="fixtures", stage="all")
        outputs = manifest["outputs"]
        files, sha256 = FIXTURE_OUTPUTS[key]
        assert len(outputs) == files
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == sha256

    @pytest.mark.parametrize("key", sorted(FIXTURE_OUTPUTS))
    def test_fixture_flags_are_certified(self, fixture_config, tmp_path, key):
        # the eigvalsh fallback would give the same flags and bytes, so only
        # the manifest tells that the factorisation decided every cell
        config = replace(fixture_config, out_dir=str(tmp_path), key=key)
        _, manifest = run(config, mode="fixtures", stage="all")
        cells = manifest["cells"]
        assert len(cells) == 8
        assert {info["embeddable_by"] for info in cells.values()} == {"cholesky"}

    @pytest.mark.parametrize("stage", ["analyze", "report"])
    def test_no_distances_alive_while_factorising(
        self, fixture_config, tmp_path, monkeypatch, stage
    ):
        # the factorisation's two working copies take the distance matrix's
        # place: no DistanceMatrix of the cell, nor its values, outlives
        # its last use
        made = []
        factorised = []
        build, cholesky = cli.distance_matrix, np.linalg.cholesky

        def tracked_build(*args):
            dm = build(*args)
            made.append((weakref.ref(dm), weakref.ref(dm.values)))
            return dm

        def checked_cholesky(a):
            factorised.append([ref() is None for pair in made for ref in pair])
            return cholesky(a)

        monkeypatch.setattr(cli, "distance_matrix", tracked_build)
        monkeypatch.setattr(np.linalg, "cholesky", checked_cholesky)
        config = replace(fixture_config, disciplines=("C100",), out_dir=str(tmp_path))
        run(config, mode="fixtures", stage=stage)
        assert len(factorised) == len(made) == 4
        assert all(all(dead) for dead in factorised)

    def test_run_leaves_only_its_files(self, fixtures_run):
        _, manifest, out = fixtures_run
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == set(manifest["outputs"]) | {"manifest.json"}
        assert not any(p.name.startswith(STAGING_PREFIX) for p in out.rglob("*"))

    def test_stale_files_stay(self, fixture_config, tmp_path):
        # a run replaces the files it writes and leaves every other one
        (tmp_path / "C100").mkdir()
        (tmp_path / "C100" / "old.csv").write_text("stale")
        (tmp_path / "notes.txt").write_text("mine")
        config = replace(fixture_config, disciplines=("C100",), out_dir=str(tmp_path))
        _, manifest = run(config, mode="fixtures", stage="all")
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert files == set(manifest["outputs"]) | {"manifest.json", "C100/old.csv", "notes.txt"}
        assert (tmp_path / "C100" / "old.csv").read_text() == "stale"

    @pytest.mark.parametrize("previous", ["absent", "earlier-tree"])
    @pytest.mark.parametrize("failure", ["flipped-byte", "analysis-error"])
    def test_failure_after_first_cell_leaves_out_dir(
        self, fixture_config, fixture_cache_dir, tmp_path, monkeypatch, failure, previous
    ):
        out = tmp_path / "out"
        config = replace(fixture_config, out_dir=str(out))  # C100, then C200
        if previous == "earlier-tree":
            run(config, mode="fixtures", stage="all")
        before = tree_snapshot(out) if out.exists() else None
        if failure == "flipped-byte":  # a works page of the second discipline
            cache = tmp_path / "cache"
            shutil.copytree(fixture_cache_dir, cache)
            meta = next(
                p for p in sorted(cache.glob("*.meta.json"))
                if json.loads(p.read_text())["params"].get("filter", "").startswith("concepts.id:C200")
            )
            page = meta.with_name(meta.name.replace(".meta.json", ".json"))
            body = page.read_bytes()
            assert b'"country_code": "US"' in body
            page.write_bytes(body.replace(b'"country_code": "US"', b'"country_code": "UT"', 1))
            config = replace(config, cache_dir=str(cache))
            expected = ParseError
        else:  # in the third cell
            calls = []
            real_ward = cli.ward_cluster

            def ward_cluster(dm):
                calls.append(dm.size)
                if len(calls) == 3:
                    raise CollabKitError("injected analysis error")
                return real_ward(dm)

            monkeypatch.setattr(cli, "ward_cluster", ward_cluster)
            expected = CollabKitError
        staged = []
        real_put = StagedTree.put
        monkeypatch.setattr(
            StagedTree, "put", lambda self, rel, blocks: staged.append(rel) or real_put(self, rel, blocks)
        )
        with pytest.raises(expected):
            run(config, mode="fixtures", stage="all")
        assert any(rel.startswith("C100/1971-1990/") for rel in staged)
        if before is None:
            assert not out.exists()
        else:
            assert tree_snapshot(out) == before

    def test_run_leaves_numpy_ma_unimported(self, tmp_path, fixture_cache_dir):
        # numpy.ma costs about 18 ms to import; np.unique and np.percentile
        # would load it. No xml module is loaded either: the SVG is
        # written as text. Nor is logging: the run reports through the
        # manifest and stdout, and errors as one JSON line.
        probe = "import sys, numpy; print('numpy.ma' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        loaded = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        path = _write_config(tmp_path, fixture_cache_dir, disciplines=["C100", "C200"])
        script = (
            "import sys\n"
            "from collabkit.cli import load_config, run\n"
            f"run(load_config({path!r}), mode='fixtures', stage='all')\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'xml'))\n"
            "print('logging' in sys.modules)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
        )
        xml_modules, logging_loaded, ma_loaded = done.stdout.splitlines()
        assert (xml_modules, logging_loaded) == ("[]", "False")
        assert (tmp_path / "out" / "manifest.json").is_file()
        if loaded.stdout.strip() == "True":
            pytest.skip("importing numpy loads numpy.ma here")
        assert ma_loaded == "False"

    def test_import_leaves_statistics_unimported(self):
        # statistics loads fractions and decimal for what icd computes in
        # two lines
        probe = "import sys, {}; print('statistics' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        loaded = {
            module: subprocess.run(
                [sys.executable, "-c", probe.format(module)],
                capture_output=True, text=True, env=env, check=True,
            ).stdout.strip()
            for module in ("numpy", "collabkit.cli")
        }
        if loaded["numpy"] == "True":
            pytest.skip("importing numpy loads statistics here")
        assert loaded["collabkit.cli"] == "False"

    def test_invalid_config_writes_nothing(self, fixture_config, tmp_path):
        # an invalid config cannot be built, so no run can start from one
        out = tmp_path / "fresh"
        with pytest.raises(ConfigError, match="h_star"):
            run(
                replace(fixture_config, h_star=-1.0, out_dir=str(out)),
                mode="fixtures",
                stage="all",
            )
        assert not out.exists()

    def test_empty_cache_aborts_before_output(self, fixture_config, tmp_path):
        out = tmp_path / "fresh"
        config = replace(
            fixture_config,
            cache_dir=str(tmp_path / "empty_cache"),
            out_dir=str(out),
        )
        with pytest.raises(MissingFixtures):
            run(config, mode="fixtures", stage="all")
        assert not out.exists()

    def test_unknown_stage_and_mode(self, fixture_config):
        with pytest.raises(ConfigError):
            run(fixture_config, mode="fixtures", stage="plot")
        with pytest.raises(ConfigError):
            run(fixture_config, mode="dry-run", stage="all")


_ENTITIES = st.frozensets(st.sampled_from(POOL12), max_size=10)
_RECORDS = st.lists(
    st.builds(
        WorkRecord,
        work_id=st.just("W"),
        year=st.integers(1986, 2003),
        discipline_id=st.sampled_from(("D1", "D2")),
        nationalities=_ENTITIES,
        institutions=_ENTITIES,
        is_journal_article=st.just(True),
    ),
    max_size=60,
)


def _assert_full_scan(records, key):
    """count_years over 1990-1999 for D1 against the brute-force tables,
    year by year and summed into two periods; returns the yearly tables."""
    # the pass takes a one-shot iterator
    yearly = count_years(iter(records), "D1", range(1990, 2000), key)
    assert list(yearly) == list(range(1990, 2000))
    for year, table in yearly.items():
        assert table == build_count_table(records, "D1", Period(str(year), year, year), key)
        assert (
            table.unary,
            table.pairwise,
            table.multi,
            table.unknown_count,
            table.total_count,
        ) == brute_year_table(records, year, key)
    for period in (Period("a", 1990, 1994), Period("b", 1995, 1999)):
        assert merge_tables(
            [yearly[y] for y in period.years()], period
        ) == build_count_table(records, "D1", period, key)
    return yearly


@given(records=_RECORDS, key=st.sampled_from(VALID_KEYS))
def test_count_years_match_full_scan(records, key):
    # records arrive in any year order, some outside the run's 1990-1999
    # and some of another discipline
    _assert_full_scan(records, key)


@pytest.mark.parametrize("key", VALID_KEYS)
def test_count_years_match_full_scan_across_team_sizes(key):
    # a 40-entity work; works of every size from 0 to 6 in one year, given
    # twice, with a work of size 2 from an earlier year between them; a year
    # of unknown works only; and works the pass skips
    def works(year, sets, discipline="D1"):
        return [WorkRecord("W", year, discipline, s, s, True) for s in sets]

    every_size = [frozenset(POOL12[:n]) for n in range(7)]
    records = (
        works(1992, every_size)
        + works(1990, [frozenset(f"E{i:02d}" for i in range(40)), frozenset({"AT", "E07"})])
        + works(1995, [frozenset()] * 3)
        + works(1992, every_size[::-1])
        + works(1992, every_size, discipline="D2")
        + works(2005, every_size)
    )
    yearly = _assert_full_scan(records, key)
    assert yearly[1990].pairwise[("AT", "E07")] == 1 and len(yearly[1990].pairwise) == 781
    assert yearly[1992].total_count == 14 and yearly[1992].unknown_count == 2
    assert yearly[1995].total_count == yearly[1995].unknown_count == 3
    assert not yearly[1995].unary and not yearly[1995].pairwise
    # the years' unary and multi counts are rows of shared blocks, so no
    # table's array may be written through
    for table in yearly.values():
        for array in (
            table.unary_counts, table.multi_counts, table.pair_codes, table.pair_counts
        ):
            assert not array.flags.writeable


def test_count_years_of_an_empty_stream():
    yearly = count_years(iter(()), "D1", range(1990, 1993))
    assert list(yearly) == [1990, 1991, 1992]
    for table in yearly.values():
        assert table.names == () and table.total_count == 0
        assert table.unary_counts.shape == (0,) and table.pair_codes.shape == (0,)


def test_each_record_counted_once(fixture_config, tmp_path, monkeypatch):
    harvested, totals = [], []

    def recording_harvest(*args, **kwargs):
        for rec in real_harvest(*args, **kwargs):
            harvested.append(rec)
            yield rec

    def recording_count(*args, **kwargs):
        yearly = real_count(*args, **kwargs)
        totals.extend(table.total_count for table in yearly.values())
        return yearly

    real_harvest, real_count = cli.harvest, cli.count_years
    monkeypatch.setattr(cli, "harvest", recording_harvest)
    monkeypatch.setattr(cli, "count_years", recording_count)
    config = replace(fixture_config, out_dir=str(tmp_path))
    run(config, mode="fixtures", stage="all")
    year_lo = min(p.year_from for p in config.periods)
    year_hi = max(p.year_to for p in config.periods)
    in_range = [rec for rec in harvested if year_lo <= rec.year <= year_hi]
    assert in_range and sum(totals) == len(in_range)


def test_run_never_builds_name_keyed_views(fixture_config, tmp_path, monkeypatch):
    # the pipeline reads the count arrays only; the unary/pairwise/multi
    # dicts are for library callers, and building them per table is the
    # cost the array form removed
    built = []

    def views(table):
        built.append(table.period.label)
        return {}, {}, {}

    monkeypatch.setattr(CountTable, "_views", property(views))
    code, manifest = run(
        replace(fixture_config, out_dir=str(tmp_path)), mode="fixtures", stage="all"
    )
    assert code == EXIT_OK and len(manifest["outputs"]) == 84
    assert built == []


def test_run_never_builds_series_points(fixture_config, tmp_path, monkeypatch):
    # the pipeline reads the series columns only; SeriesPoint is the
    # library callers' view
    def boom(*args, **kwargs):
        raise AssertionError("run() built a SeriesPoint")

    monkeypatch.setattr(metrics, "SeriesPoint", boom)
    code, manifest = run(
        replace(fixture_config, out_dir=str(tmp_path)), mode="fixtures", stage="all"
    )
    assert code == EXIT_OK and len(manifest["outputs"]) == 84


def test_run_never_remasks_series(fixture_config, tmp_path, monkeypatch):
    # every series is masked as it is built; masking it again through
    # apply_min_volume_mask is the library caller's path
    def boom(*args, **kwargs):
        raise AssertionError("run() reached apply_min_volume_mask")

    monkeypatch.setattr(metrics, "apply_min_volume_mask", boom)
    code, manifest = run(
        replace(fixture_config, out_dir=str(tmp_path)), mode="fixtures", stage="all"
    )
    assert code == EXIT_OK and len(manifest["outputs"]) == 84


def test_no_record_outlives_its_count(fixture_config, tmp_path, monkeypatch):
    alive = {}

    def weak_harvest(client, discipline, *args, **kwargs):
        refs = []
        for rec in real_harvest(client, discipline, *args, **kwargs):
            refs.append(weakref.ref(rec))
            yield rec
        rec = None
        gc.collect()
        alive[discipline] = (sum(ref() is not None for ref in refs), len(refs))

    real_harvest = cli.harvest
    monkeypatch.setattr(cli, "harvest", weak_harvest)
    run(replace(fixture_config, out_dir=str(tmp_path)), mode="fixtures", stage="all")
    assert set(alive) == {"C100", "C200"}
    for kept, harvested in alive.values():
        # the consumer's loop variable may still hold the last record
        assert harvested > 1000 and kept <= 2


def test_run_builds_only_the_counted_set(fixture_config, tmp_path, monkeypatch):
    harvested = []

    def recording_harvest(*args, **kwargs):
        for rec in real_harvest(*args, **kwargs):
            harvested.append((rec.nationalities is None, rec.institutions is None))
            yield rec

    real_harvest = cli.harvest
    monkeypatch.setattr(cli, "harvest", recording_harvest)
    assert fixture_config.key == "country"
    _, manifest = run(
        replace(fixture_config, out_dir=str(tmp_path)), mode="fixtures", stage="all"
    )
    assert len(harvested) > 2000 and set(harvested) == {(False, True)}
    # 7 repeated works in each of the two disciplines
    assert manifest["ingest"]["duplicate_ids_dropped"] == 14
    assert manifest["ingest"]["malformed_items_skipped"] == 0


class FlakySyntheticTransport(SyntheticOpenAlexTransport):
    """The synthetic corpus, served after one 503, one 429 and one raised
    transport error."""

    def __init__(self):
        super().__init__()
        self.failures = [503, 429, None]

    def get(self, url, params):
        if self.failures:
            status = self.failures.pop(0)
            if status is None:
                raise ConnectionError("injected")
            return TransportResponse(status, b'{"error": "injected"}')
        return super().get(url, params)


def _collected() -> int:
    """Objects the cycle collector has freed in this process so far."""
    return sum(gen["collected"] for gen in gc.get_stats())


@pytest.mark.parametrize("key", VALID_KEYS)
@pytest.mark.parametrize("mode", ["fixtures", "online"])
@pytest.mark.parametrize("stage", cli.STAGES)
def test_run_pauses_the_collector_and_leaves_no_cycles(
    fixture_config, tmp_path, monkeypatch, stage, mode, key
):
    # run() pauses the cycle collector for the whole call; that pays only
    # because no mode or stage leaves cyclic garbage behind, retries and
    # cache writes included
    collecting = set()

    def recording_harvest(*args, **kwargs):
        for rec in real_harvest(*args, **kwargs):
            collecting.add(gc.isenabled())
            yield rec

    real_harvest = cli.harvest
    monkeypatch.setattr(cli, "harvest", recording_harvest)
    config = replace(fixture_config, key=key, out_dir=str(tmp_path / "out"))
    transport = None
    if mode == "online":
        config = replace(config, cache_dir=str(tmp_path / "cache"), rate_limit=1e9)
        transport = FlakySyntheticTransport()
    assert gc.isenabled()
    gc.collect()
    before = _collected()
    _, manifest = run(config, mode, stage, transport=transport, sleep=lambda s: None)
    # the first allocation after the pause may already collect the run's
    # young objects, so what the collector freed since `before` counts too
    assert gc.collect() == 0 and _collected() == before
    assert gc.isenabled() and collecting == {False}
    if mode == "online":
        assert manifest["ingest"]["pages_from_cache"] == 0
        assert manifest["ingest"]["retries_by_status"] == {
            "429": 1,
            "503": 1,
            "exception": 1,
        }


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "damage", [None, "flipped-byte", "interrupt"], ids=["clean", "flipped-byte", "interrupt"]
)
def test_run_restores_the_collectors_state(
    fixture_config, fixture_cache_dir, tmp_path, monkeypatch, enabled, damage
):
    # the collector is paused while the harvest stage drains the records
    # and while they are counted, and run() leaves it as it found it
    cache = fixture_cache_dir
    if damage == "flipped-byte":
        cache = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache)
        fp = next(
            p.name[: -len(".meta.json")]
            for p in sorted(cache.glob("*.meta.json"))
            if json.loads(p.read_text())["endpoint"] == "works"
        )
        page = cache / f"{fp}.json"
        page.write_bytes(page.read_bytes().replace(b"US", b"UT", 1))
    collecting = {}

    def recording_harvest(*args, **kwargs):
        for rec in real_harvest(*args, **kwargs):
            collecting.setdefault(stage, set()).add(gc.isenabled())
            if damage == "interrupt":
                raise KeyboardInterrupt
            yield rec

    real_harvest = cli.harvest
    monkeypatch.setattr(cli, "harvest", recording_harvest)
    config = replace(fixture_config, cache_dir=str(cache), out_dir=str(tmp_path / "out"))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for stage in ("harvest", "all"):
            if damage == "flipped-byte":
                with pytest.raises(ParseError, match=fp):
                    run(config, mode="fixtures", stage=stage)
            elif damage == "interrupt":
                with pytest.raises(KeyboardInterrupt):
                    run(config, mode="fixtures", stage=stage)
            else:
                run(config, mode="fixtures", stage=stage)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    if damage != "flipped-byte":
        assert collecting == {"harvest": {False}, "all": {False}}


class TestArgs:
    def _parse(self, argv):
        return _config_from_args(_build_parser().parse_args(argv))

    def test_disciplines_flag(self):
        config = self._parse(["analyze", "--disciplines", "C1,C2"])
        assert config.disciplines == ("C1", "C2")
        assert [p.label for p in config.periods] == PAPER4_LABELS

    def test_h0_strict_mapping(self):
        config = self._parse(["analyze", "--disciplines", "C1", "--h0", "1.0"])
        assert config.h0_mode == "strict-1.0"
        config = self._parse(["analyze", "--disciplines", "C1", "--h0", "auto"])
        assert config.h0_mode == "auto"

    def test_flag_overrides(self):
        config = self._parse(
            [
                "analyze",
                "--disciplines",
                "C1",
                "--periods",
                "paper-10",
                "--top-n",
                "12",
                "--key",
                "institution",
                "--journal-only",
                "--min-volume",
                "7",
            ]
        )
        assert len(config.periods) == 10
        assert config.top_n == 12
        assert config.key == "institution"
        assert config.journal_only is True
        assert config.min_volume == 7

    def test_config_file_plus_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"disciplines": ["C100"], "top_n": 10}))
        config = self._parse(["analyze", "--config", str(path), "--top-n", "5"])
        assert config.top_n == 5
        assert config.disciplines == ("C100",)

    def test_requires_config_or_disciplines(self):
        with pytest.raises(ConfigError):
            self._parse(["analyze"])


def _write_config(tmp_path, fixture_cache_dir, **overrides) -> str:
    doc = {
        "disciplines": ["C100"],
        "periods": "paper-4",
        "top_n": 10,
        "min_volume": 5,
        "cache_dir": str(fixture_cache_dir),
        "out_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _works_chain(cache: Path, root: str) -> list[str]:
    """The fingerprints of ``root``'s cached works pages, in cursor order."""
    chain = {}  # cursor -> fingerprint
    for meta_path in cache.glob("*.meta.json"):
        meta = json.loads(meta_path.read_text())
        if meta["endpoint"] == "works" and f"{root}|" in meta["params"]["filter"]:
            chain[meta["params"]["cursor"]] = meta_path.name[: -len(".meta.json")]
    pages, cursor = [], "*"
    while cursor is not None:
        pages.append(chain[cursor])
        cursor = json.loads((cache / f"{pages[-1]}.json").read_bytes())["meta"]["next_cursor"]
    assert len(pages) == len(chain) >= 3
    return pages


class TestMain:
    def test_validate_ok(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        assert main(["validate", "--config", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "error,code",
        [
            (ConfigError, EXIT_CONFIG),
            (TransportError, EXIT_TRANSPORT),
            (MissingFixtures, EXIT_TRANSPORT),
            (ParseError, EXIT_TRANSPORT),
            (InvalidH0, EXIT_ANALYSIS),
            (CollabKitError, EXIT_ANALYSIS),
            (ValueError, EXIT_ANALYSIS),
        ],
        ids=lambda value: value.__name__ if isinstance(value, type) else str(value),
    )
    def test_exit_code_of_each_error(
        self, tmp_path, fixture_cache_dir, capsys, monkeypatch, error, code
    ):
        # README's exit-code list, one error class at a time
        def run(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "run", run)
        path = _write_config(tmp_path, fixture_cache_dir)
        assert main(["all", "--config", path, "--offline"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": error.__name__, "exit_code": code, "message": "injected"
        }

    @pytest.mark.parametrize("stage", cli.STAGES)
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    def test_out_dir_that_cannot_be_a_directory(
        self, tmp_path, fixture_cache_dir, capsys, monkeypatch, stage, under
    ):
        # an out_dir at or under a file is a config error, found before any
        # page is read, in every stage, harvest too
        blocker = tmp_path / "blocker"
        blocker.write_text("kept")
        out = blocker / "sub" if under else blocker
        path = _write_config(tmp_path, fixture_cache_dir, out_dir=str(out))
        read = []
        get = PageCache.get
        monkeypatch.setattr(PageCache, "get", lambda cache, fp: read.append(fp) or get(cache, fp))
        before = tree_snapshot(tmp_path)
        assert main([stage, "--config", path, "--offline"]) == EXIT_CONFIG
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.count("\n") == 1
        assert json.loads(printed.err) == {
            "error": "ConfigError",
            "exit_code": 1,
            "message": f"out_dir {out}: {blocker} exists and is not a directory",
        }
        assert read == []
        assert tree_snapshot(tmp_path) == before

    def test_root_of_wrong_level_is_a_config_error(self, tmp_path, fixture_cache_dir, capsys):
        # C110 is cached, but a level-2 concept cannot root a discipline
        path = _write_config(tmp_path, fixture_cache_dir, disciplines=["C110"])
        assert main(["all", "--config", path, "--offline"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError",
            "exit_code": 1,
            "message": "C110 has level 2, discipline roots have level 1",
        }
        assert not (tmp_path / "out").exists()

    def test_validate_reports_diagnostics(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        code = main(["validate", "--config", path, "--h-star", "-2"])
        assert code == EXIT_CONFIG
        assert "h_star" in capsys.readouterr().err

    def test_validate_refuses_a_discipline_file_label(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        # C100/icd_series.csv would be both a period directory and a file
        periods = [{"label": "icd_series.csv", "year_from": 1971, "year_to": 2020}]
        path = _write_config(tmp_path, fixture_cache_dir, periods=periods)
        assert main(["validate", "--config", path]) == EXIT_CONFIG
        assert "periods[0]: label 'icd_series.csv'" in capsys.readouterr().err

    def test_validate_unknown_discipline_against_cache(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        path = _write_config(tmp_path, fixture_cache_dir, disciplines=["C999"])
        code = main(["validate", "--config", path])
        assert code == EXIT_CONFIG
        assert "C999 not in offline cache" in capsys.readouterr().err

    def test_offline_analyze_succeeds(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        code = main(["analyze", "--config", path, "--offline"])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").is_file()

    @pytest.mark.parametrize("command", ["validate", "all"])
    def test_bad_flag_value_writes_nothing(
        self, tmp_path, fixture_cache_dir, capsys, command
    ):
        path = _write_config(tmp_path, fixture_cache_dir)
        code = main([command, "--config", path, "--offline", "--top-n", "1"])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "top_n" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--key", "foo", "key"),
            ("--periods", "paper-3", "periods"),
            ("--h0", "2", "h0_mode"),
            ("--top-n", "1.5", "top_n"),
            ("--h-star", "x", "h_star"),
            ("--min-volume", "x", "min_volume"),
            ("--h-star", "1e999", "h_star"),
        ],
    )
    def test_bad_flag_value_is_a_config_error(self, capsys, flag, value, field):
        # judged by the config rules, as the same value in a config file is
        code = main(["validate", "--disciplines", "C1", flag, value])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and captured.out == ""
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["exit_code"] == EXIT_CONFIG
        assert f"{field}: " in err["message"]

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--disciplines", "C1", "--workers", "2"])
        assert exc.value.code == 2

    def test_duplicate_discipline_writes_nothing(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        path = _write_config(
            tmp_path, fixture_cache_dir, disciplines=["C100", "https://openalex.org/C100"]
        )
        assert main(["all", "--config", path, "--offline"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "duplicate" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "overrides,field",
        [
            (
                {
                    "periods": [
                        {"label": "../../escaped", "year_from": 1971, "year_to": 1990},
                        {"label": "a,b", "year_from": 1991, "year_to": 2020},
                    ]
                },
                "periods[0]",
            ),
            ({"bilateral_pairs": [["US", "C,N"]]}, "bilateral_pairs[0]"),
            ({"bilateral_pairs": [["US", "US"]]}, "bilateral_pairs[0]"),
            ({"bilateral_pairs": [["US", "CN"], ["CN", "US"]]}, "bilateral_pairs[1]"),
            ({"bilateral_pairs": [["us", "cn"]]}, "bilateral_pairs[0]"),
        ],
        ids=["labels", "pair-code", "self-pair", "pair-twice", "lower-case"],
    )
    def test_unsafe_label_or_code_writes_nothing(
        self, tmp_path, fixture_cache_dir, capsys, overrides, field
    ):
        out = tmp_path / "out" / "run"
        path = _write_config(tmp_path, fixture_cache_dir, out_dir=str(out), **overrides)
        assert main(["all", "--config", path, "--offline"]) == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and f"{field}: " in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize(
        "code", ["a,b", 'u"s', "fr(x):1;", "u s", "u\ts", "u\ns", "u\rs", "[us]", "u's"]
    )
    def test_unwritable_entity_name_is_refused(
        self, tmp_path, fixture_cache_dir, capsys, code
    ):
        # a cached works page whose country code the CSV and Newick writers
        # would split; its sidecar digest is rewritten so the page verifies
        cache = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache)
        rewritten = 0
        for meta_path in sorted(cache.glob("*.meta.json")):
            page = meta_path.with_name(meta_path.name.replace(".meta.json", ".json"))
            body = page.read_bytes()
            new_body = body.replace(
                b'"country_code": "US"', b'"country_code": ' + json.dumps(code).encode()
            )
            if new_body != body:
                page.write_bytes(new_body)
                meta = json.loads(meta_path.read_text())
                meta["sha256"] = hashlib.sha256(new_body).hexdigest()
                meta_path.write_text(json.dumps(meta))
                rewritten += 1
        assert rewritten
        path = _write_config(tmp_path, cache)
        assert main(["all", "--config", path, "--offline"]) == EXIT_ANALYSIS
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CollabKitError" and err["exit_code"] == EXIT_ANALYSIS
        assert repr(code.upper()) in err["message"]
        assert not (tmp_path / "out").exists()

    def test_empty_entity_name_is_refused(self, fixture_config, tmp_path):
        # records never hold a blank code, so the name "" reaches a cell
        # only through a table built some other way
        table = table_from_sets([{"", "US"}] * 2 + [{"US"}])
        staged = StagedTree(tmp_path)
        with pytest.raises(CollabKitError, match="entity '' is empty or holds a comma"):
            cli._analyze_cell(fixture_config, table, {}, "all", staged)
        assert staged.digests == {} and staged.staging is None

    def test_url_discipline_ids_write_bare_paths(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        outputs = []
        for i, discipline in enumerate(["https://openalex.org/C100", "C100"]):
            out = tmp_path / f"out{i}"
            path = _write_config(
                tmp_path, fixture_cache_dir, disciplines=[discipline], out_dir=str(out)
            )
            assert main(["all", "--config", path, "--offline"]) == EXIT_OK
            outputs.append(json.loads((out / "manifest.json").read_text())["outputs"])
        assert outputs[0] == outputs[1]
        assert all(rel.startswith("C100/") for rel in outputs[0])

    def test_config_error_exit_code(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir, extra_knob=1)
        code = main(["analyze", "--config", path, "--offline"])
        assert code == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert err["exit_code"] == EXIT_CONFIG

    def test_missing_fixtures_exit_code(self, tmp_path, capsys):
        path = _write_config(tmp_path, tmp_path / "empty")
        code = main(["analyze", "--config", path, "--offline"])
        assert code == EXIT_TRANSPORT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MissingFixtures"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "damage", ["flipped-byte", "deleted-sidecar", "unreadable-sidecar"]
    )
    def test_corrupt_cache_exit_code(self, tmp_path, fixture_cache_dir, capsys, damage):
        cache = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache)
        fp = next(
            p.name[: -len(".meta.json")]
            for p in sorted(cache.glob("*.meta.json"))
            if json.loads(p.read_text())["endpoint"] == "works"
        )
        page = cache / f"{fp}.json"
        if damage == "flipped-byte":
            body = page.read_bytes()
            assert b'"country_code": "US"' in body
            page.write_bytes(body.replace(b'"country_code": "US"', b'"country_code": "UT"', 1))
        elif damage == "deleted-sidecar":
            (cache / f"{fp}.meta.json").unlink()
        else:
            (cache / f"{fp}.meta.json").write_text("[]")
        path = _write_config(tmp_path, cache, disciplines=["C100", "C200"])
        code = main(["all", "--config", path, "--offline"])
        assert code == EXIT_TRANSPORT
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ParseError" and fp in err["message"]
        if damage == "flipped-byte":
            assert "does not match the sha256 in its sidecar" in err["message"]
        else:
            sidecar = cache / f"{fp}.meta.json"
            assert f"has no readable sidecar {sidecar}; delete {page}" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda body: body.pop("meta"),
                "works page meta is not an object holding next_cursor: None",
            ),
            (
                lambda body: body["meta"].update(next_cursor=""),
                "works page next_cursor is not a non-empty string: ''",
            ),
        ],
        ids=["lost-meta", "empty-cursor"],
    )
    def test_works_page_without_a_cursor_is_refused(
        self, tmp_path, fixture_cache_dir, capsys, edit, message
    ):
        # C100's second-to-last works page loses its cursor, and its sidecar
        # is rewritten so the page verifies: the chain must not end there
        cache = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache)
        fp = _works_chain(cache, "C100")[-2]
        page = json.loads((cache / f"{fp}.json").read_bytes())
        edit(page)
        body = json.dumps(page).encode()
        (cache / f"{fp}.json").write_bytes(body)
        meta_path = cache / f"{fp}.meta.json"
        meta = json.loads(meta_path.read_text())
        meta["sha256"] = hashlib.sha256(body).hexdigest()
        meta_path.write_text(json.dumps(meta))
        path = _write_config(tmp_path, cache)
        assert main(["all", "--config", path, "--offline"]) == EXIT_TRANSPORT
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ParseError",
            "exit_code": EXIT_TRANSPORT,
            "message": f"cached page {fp}: {message}",
        }
        assert not (tmp_path / "out").exists()

    def test_page_filed_under_another_request_is_refused(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        # page 2 of C100's works chain and its sidecar are overwritten by
        # page 3's: each file matches the other, but the pair answers page
        # 3's request, and reading it would skip page 2's works
        cache = tmp_path / "cache"
        shutil.copytree(fixture_cache_dir, cache)
        second, third = _works_chain(cache, "C100")[1:3]
        for suffix in (".json", ".meta.json"):
            shutil.copyfile(cache / f"{third}{suffix}", cache / f"{second}{suffix}")
        path = _write_config(tmp_path, cache)
        assert main(["all", "--config", path, "--offline"]) == EXIT_TRANSPORT
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ParseError",
            "exit_code": EXIT_TRANSPORT,
            "message": f"cached page {second} answers another request: its sidecar's"
            f" request has fingerprint {third}",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("offline", [True, False], ids=["offline", "online"])
    def test_concept_page_of_another_concept_is_refused(
        self, tmp_path, fixture_cache_dir, capsys, monkeypatch, offline
    ):
        # C100's request is answered with C200's page: online by the server,
        # offline by a cached page whose sidecar was rewritten to match it
        message = "concept page for C100 holds concept C200"
        if offline:
            shutil.copytree(fixture_cache_dir, tmp_path / "cache")
            cache = PageCache(tmp_path / "cache")
            meta = {fp: cache.meta(fp) for fp in cache.fingerprints()}
            fp, other = (
                next(f for f, m in meta.items() if m["endpoint"] == endpoint)
                for endpoint in ("concepts/C100", "concepts/C200")
            )
            cache.put(fp, cache.get(other)[0], "concepts/C100", meta[fp]["params"])
            message = f"cached page {fp}: {message}"
        else:
            payload = synthetic.concept_payload
            monkeypatch.setattr(
                synthetic,
                "concept_payload",
                lambda concept_id: payload("C200" if concept_id == "C100" else concept_id),
            )
            monkeypatch.setattr(ingest, "RequestsTransport", SyntheticOpenAlexTransport)
        path = _write_config(tmp_path, tmp_path / "cache", rate_limit=1e9)
        argv = ["all", "--config", path] + (["--offline"] if offline else [])
        assert main(argv) == EXIT_TRANSPORT
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParseError", "exit_code": EXIT_TRANSPORT, "message": message,
        }
        if not offline:
            assert PageCache(tmp_path / "cache").is_empty()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "failing", ["page-write", "sidecar-write", "sidecar-rename", "page-rename"]
    )
    def test_interrupted_put_leaves_a_miss(
        self, tmp_path, fixture_cache_dir, capsys, monkeypatch, failing
    ):
        # the put of a works page fails part way through writing its page or
        # its sidecar, at its sidecar's rename, or at its page's: no temp
        # file and no page without a sidecar that matches it is left,
        # offline the page is missing, and online it is fetched again
        shutil.copytree(fixture_cache_dir, tmp_path / "cache")
        cache = PageCache(tmp_path / "cache")
        fp = next(fp for fp in cache.fingerprints() if cache.meta(fp)["endpoint"] == "works")
        body, meta = cache.get(fp)
        cache.path_for(fp).unlink()
        cache.sidecar_for(fp).unlink()
        steps = ["page-write", "sidecar-write", "sidecar-rename", "page-rename"]
        begun = []  # the name each step wrote or renamed to, the failing one too

        def cut_short(blocks):
            yield blocks[:7]
            raise OSError("interrupted")

        def write_new(path, blocks):
            begun.append(Path(path).name)
            if steps[len(begun) - 1] == failing:
                blocks = cut_short(blocks)
            return real_write_new(path, blocks)

        def replace(src, dst):
            begun.append(Path(dst).name)
            if steps[len(begun) - 1] == failing:
                raise OSError("interrupted")
            os_replace(src, dst)

        os_replace, real_write_new = os.replace, ingest.write_new
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", replace)
            patch.setattr(ingest, "write_new", write_new)
            with pytest.raises(OSError, match="interrupted"):
                cache.put(fp, body, meta["endpoint"], meta["params"])
        names = [rf"\.{fp}\.json\.[0-9a-f]{{12}}", rf"\.{fp}\.meta\.json\.[0-9a-f]{{12}}"]
        names += [rf"{fp}\.meta\.json", rf"{fp}\.json"]
        assert len(begun) == steps.index(failing) + 1
        assert all(re.fullmatch(name, got) for name, got in zip(names, begun)), begun
        for page in cache.fingerprints():
            assert cache.get(page) is not None, page  # it raises for a page its sidecar refuses
        assert not [p for p in cache.root.iterdir() if p.name.startswith(".")]

        path = _write_config(tmp_path, cache.root, disciplines=["C100", "C200"], rate_limit=1e9)
        assert main(["all", "--config", path, "--offline"]) == EXIT_TRANSPORT
        assert json.loads(capsys.readouterr().err)["error"] == "MissingFixtures"
        monkeypatch.setattr(ingest, "RequestsTransport", SyntheticOpenAlexTransport)
        assert main(["all", "--config", path]) == EXIT_OK
        assert cache.get(fp) == (body, meta)

    @pytest.mark.parametrize("offline", [True, False], ids=["offline", "online"])
    def test_harvest_says_what_it_did(
        self, tmp_path, fixture_cache_dir, capsys, monkeypatch, offline
    ):
        cache = fixture_cache_dir if offline else tmp_path / "cache"
        path = _write_config(tmp_path, cache, disciplines=["C100", "C200"], rate_limit=1e9)
        argv = ["harvest", "--config", path]
        if offline:
            argv.append("--offline")
        else:
            # C110's page is fetched for C100 and read from the cache for C200
            related = [*synthetic.CONCEPT_GRAPH["C200"]["related"], "C110"]
            monkeypatch.setitem(synthetic.CONCEPT_GRAPH["C200"], "related", related)
            monkeypatch.setattr(ingest, "RequestsTransport", FlakySyntheticTransport)
            monkeypatch.setattr(ingest, "BACKOFF_S", 0.0)
        assert main(argv) == EXIT_OK
        pages = len(PageCache(cache).fingerprints())
        fetched, retries = (0, 0) if offline else (pages, 3)
        assert capsys.readouterr().out == (
            f"harvest: {pages} pages in {cache} ({fetched} fetched,"
            f" {pages - fetched} already cached), {retries} retries,"
            " 14 duplicate ids dropped, 0 malformed items skipped\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "related",
        [["x"], [{"id": "C110", "level": "x"}], 5, [{"id": "C110"}]],
        ids=["entry-not-an-object", "level-not-an-int", "not-a-list", "level-missing"],
    )
    def test_malformed_concept_page_exit_code(
        self, tmp_path, fixture_cache_dir, capsys, related
    ):
        shutil.copytree(fixture_cache_dir, tmp_path / "cache")
        cache = PageCache(tmp_path / "cache")
        meta = {fp: cache.meta(fp) for fp in cache.fingerprints()}
        fp = next(fp for fp, m in meta.items() if m["endpoint"] == "concepts/C100")
        body = {"id": "C100", "level": 1, "related_concepts": related}
        cache.put(fp, json.dumps(body).encode(), "concepts/C100", meta[fp]["params"])
        path = _write_config(tmp_path, tmp_path / "cache")
        code = main(["all", "--config", path, "--offline"])
        assert code == EXIT_TRANSPORT
        assert json.loads(capsys.readouterr().err)["error"] == "ParseError"
        assert not (tmp_path / "out").exists()

    def test_related_concept_without_level_is_refused_online(self, tmp_path, capsys, monkeypatch):
        # C100's page lists C110 without its level: C110 and C111 must not
        # drop out of the works filter without a word
        payload = synthetic.concept_payload

        def without_level(concept_id):
            doc = payload(concept_id)
            for item in doc["related_concepts"]:
                if concept_id == "C100" and item["id"].endswith("/C110"):
                    del item["level"]
            return doc

        monkeypatch.setattr(synthetic, "concept_payload", without_level)
        monkeypatch.setattr(ingest, "RequestsTransport", SyntheticOpenAlexTransport)
        path = _write_config(tmp_path, tmp_path / "cache", rate_limit=1e9)
        assert main(["all", "--config", path]) == EXIT_TRANSPORT
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParseError",
            "exit_code": EXIT_TRANSPORT,
            "message": "concept page: related concept https://openalex.org/C110"
            " level None is not an int",
        }
        assert PageCache(tmp_path / "cache").is_empty()
        assert not (tmp_path / "out").exists()

    def test_analysis_error_exit_code(self, tmp_path, fixture_cache_dir, capsys, monkeypatch):
        # top_n is valid, but a 1971-only slice has too few entities in
        # the bundled corpus to compare, which surfaces mid-analysis
        path = _write_config(
            tmp_path,
            fixture_cache_dir,
            periods=[{"label": "none", "year_from": 2021, "year_to": 2021}],
        )
        code = main(["analyze", "--config", path, "--offline"])
        assert code in (EXIT_TRANSPORT, EXIT_ANALYSIS)
        assert capsys.readouterr().err.startswith("{")
        # online, the synthetic corpus holds no work before 1971, so the
        # cell of the 1960s has fewer than 2 entities
        monkeypatch.setattr(ingest, "RequestsTransport", SyntheticOpenAlexTransport)
        path = _write_config(
            tmp_path,
            tmp_path / "cache",
            periods=[{"label": "1960s", "year_from": 1960, "year_to": 1969}],
            rate_limit=1e9,
        )
        assert main(["all", "--config", path]) == EXIT_ANALYSIS
        assert json.loads(capsys.readouterr().err) == {
            "error": "CollabKitError",
            "exit_code": EXIT_ANALYSIS,
            "message": "C100 1960s: fewer than 2 entities with works",
        }
        assert not (tmp_path / "out").exists()
