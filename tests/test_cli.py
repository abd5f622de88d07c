"""Orchestration: config handling, validation diagnostics, staged runs
over the bundled offline corpus, manifests, and exit codes."""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabkit import cli
from collabkit.cli import (
    EXIT_ANALYSIS,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_TRANSPORT,
    AnalysisConfig,
    _build_parser,
    _config_from_args,
    _year_buckets,
    config_from_dict,
    config_hash,
    load_config,
    main,
    resolve_periods,
    run,
    validate,
)
from collabkit.corpus import (
    VALID_KEYS,
    Period,
    WorkRecord,
    build_count_table,
    merge_tables,
)
from collabkit.errors import ConfigError, MissingFixtures
from collabkit.synthetic import concept_payload
from util import POOL6, catalog_of

FIXTURE_OUTPUTS_SHA256 = "cd30e9cb7f89f64fec4fe3c61970dce56b853388f06149db5acd9be17bb009dc"

PAPER4_LABELS = ["1971-1990", "1991-2000", "2001-2010", "2011-2020"]

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


class TestPeriods:
    def test_paper4_preset(self):
        periods = resolve_periods("paper-4")
        assert [p.label for p in periods] == PAPER4_LABELS
        assert periods[0].year_from == 1971 and periods[0].year_to == 1990
        assert periods[-1].year_to == 2020

    def test_paper10_preset(self):
        periods = resolve_periods("paper-10")
        assert len(periods) == 10
        assert [p.label for p in periods] == [
            f"{y}-{y + 4}" for y in range(1971, 2020, 5)
        ]
        assert all(p.year_to - p.year_from == 4 for p in periods)

    def test_explicit_list(self):
        periods = resolve_periods(
            [{"label": "90s", "year_from": 1990, "year_to": 1999}]
        )
        assert periods == (Period("90s", 1990, 1999),)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            resolve_periods("paper-99")

    def test_bad_entry(self):
        with pytest.raises(ConfigError):
            resolve_periods([{"label": "x"}])


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
        ],
    )
    def test_mistyped_values_not_coerced(self, field, value):
        with pytest.raises(ConfigError, match=f"bad config value: {field}"):
            config_from_dict({"disciplines": ["C1"], field: value})

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(bad)
        scalar = tmp_path / "scalar.json"
        scalar.write_text('"just a string"')
        with pytest.raises(ConfigError, match="object"):
            load_config(scalar)

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
        assert validate(_config()) == []

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
        ],
    )
    def test_field_diagnostics(self, field, overrides):
        diags = validate(_config(**overrides))
        assert any(d.field.startswith(field) for d in diags)

    def test_overlapping_periods_named(self):
        config = _config(
            periods=(Period("a", 1990, 2000), Period("b", 1995, 2005))
        )
        diags = validate(config)
        assert any("'a'" in d.message and "'b'" in d.message for d in diags)

    def test_duplicate_labels(self):
        config = _config(
            periods=(Period("x", 1990, 1991), Period("x", 1992, 1993))
        )
        assert any("unique" in d.message for d in validate(config))

    def test_bad_pair(self):
        diags = validate(_config(bilateral_pairs=(("US", ""),)))
        assert any(d.field == "bilateral_pairs[0]" for d in diags)

    def test_catalog_check(self):
        catalog = catalog_of([concept_payload("C100")])
        good = validate(_config(disciplines=("C100",)), catalog)
        assert good == []
        bad = validate(_config(disciplines=("C100", "C999")), catalog)
        assert [d.field for d in bad] == ["disciplines[1]"]
        assert "C999" in bad[0].message

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
            "outputs",
            "cells",
        }
        assert manifest["stage"] == "all"
        assert manifest["mode"] == "fixtures"
        assert manifest["config_sha256"] == config_hash(config)
        assert set(manifest["versions"]) == {"collabkit", "python", "numpy"}
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk == manifest

    def test_manifest_inputs_are_page_hashes(self, fixtures_run):
        _, manifest, _ = fixtures_run
        assert manifest["inputs"]
        for fp, digest in manifest["inputs"].items():
            assert len(fp) == 64 and len(digest) == 64
            int(fp, 16) and int(digest, 16)

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
                "n_clusters",
                "icd_mean",
            }
            assert isinstance(info["embeddable"], bool)
            assert info["entities"] >= 2
            assert info["n_clusters"] >= 1

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

    def test_harvest_stage_writes_nothing(self, fixture_config, tmp_path):
        config = replace(
            fixture_config, disciplines=("C100",), out_dir=str(tmp_path / "o")
        )
        code, manifest = run(config, mode="fixtures", stage="harvest")
        assert code == EXIT_OK
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

    def test_fixture_outputs_digest(self, fixture_config, tmp_path):
        # the byte contract for refactors: the bundled config, both
        # disciplines, every stage
        config = replace(fixture_config, out_dir=str(tmp_path))
        _, manifest = run(config, mode="fixtures", stage="all")
        outputs = manifest["outputs"]
        assert len(outputs) == 84
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8"))
        assert digest.hexdigest() == FIXTURE_OUTPUTS_SHA256

    def test_invalid_config_writes_nothing(self, fixture_config, tmp_path):
        out = tmp_path / "fresh"
        config = replace(fixture_config, h_star=-1.0, out_dir=str(out))
        with pytest.raises(ConfigError):
            run(config, mode="fixtures", stage="all")
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


_ENTITIES = st.frozensets(st.sampled_from(POOL6), max_size=4)
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


@given(records=_RECORDS, key=st.sampled_from(VALID_KEYS))
def test_year_buckets_match_full_scan(records, key):
    # records arrive in any year order, some outside the run's 1990-1999
    buckets = _year_buckets(iter(records), 1990, 1999)
    assert list(buckets) == list(range(1990, 2000))
    in_range = [rec for rec in records if 1990 <= rec.year <= 1999]
    assert [rec for bucket in buckets.values() for rec in bucket] == sorted(
        in_range, key=lambda rec: rec.year
    )
    yearly = {}
    for year, bucket in buckets.items():
        period = Period(str(year), year, year)
        yearly[year] = build_count_table(bucket, "D1", period, key)
        assert yearly[year] == build_count_table(records, "D1", period, key)
    for period in (Period("a", 1990, 1994), Period("b", 1995, 1999)):
        assert merge_tables(
            [yearly[y] for y in period.years()], period
        ) == build_count_table(records, "D1", period, key)


def test_each_record_counted_once(fixture_config, tmp_path, monkeypatch):
    harvested, scanned = [], []

    def recording_harvest(*args, **kwargs):
        for rec in real_harvest(*args, **kwargs):
            harvested.append(rec)
            yield rec

    def recording_count(records, *args, **kwargs):
        scanned.append(len(records))
        return real_count(records, *args, **kwargs)

    real_harvest, real_count = cli.harvest, cli.build_count_table
    monkeypatch.setattr(cli, "harvest", recording_harvest)
    monkeypatch.setattr(cli, "build_count_table", recording_count)
    config = replace(fixture_config, out_dir=str(tmp_path))
    run(config, mode="fixtures", stage="all")
    year_lo = min(p.year_from for p in config.periods)
    year_hi = max(p.year_to for p in config.periods)
    in_range = [rec for rec in harvested if year_lo <= rec.year <= year_hi]
    assert in_range and sum(scanned) == len(in_range)


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


class TestMain:
    def test_validate_ok(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        assert main(["validate", "--config", path]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_validate_reports_diagnostics(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        code = main(["validate", "--config", path, "--h-star", "-2"])
        assert code == EXIT_CONFIG
        assert "h_star" in capsys.readouterr().err

    def test_validate_unknown_discipline_against_cache(
        self, tmp_path, fixture_cache_dir, capsys
    ):
        path = _write_config(tmp_path, fixture_cache_dir, disciplines=["C999"])
        code = main(["validate", "--config", path])
        assert code == EXIT_CONFIG
        assert "not in offline catalog" in capsys.readouterr().err

    def test_offline_analyze_succeeds(self, tmp_path, fixture_cache_dir, capsys):
        path = _write_config(tmp_path, fixture_cache_dir)
        code = main(["analyze", "--config", path, "--offline"])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "out" / "manifest.json").is_file()

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
        assert not (tmp_path / "out").exists()

    def test_analysis_error_exit_code(self, tmp_path, fixture_cache_dir, capsys):
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
