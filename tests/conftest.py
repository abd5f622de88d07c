"""Shared fixtures: paths to the bundled offline corpus and records
decoded from it once per session."""

from __future__ import annotations

from pathlib import Path

import pytest

from collabkit.cli import load_config
from collabkit.ingest import OpenAlexClient, PageCache, expand_concept, harvest

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_CACHE = FIXTURE_DIR / "cache"
FIXTURE_CONFIG = FIXTURE_DIR / "config.json"


@pytest.fixture(scope="session")
def fixture_cache_dir() -> Path:
    assert FIXTURE_CACHE.is_dir(), "bundled fixture cache missing; run scripts/make_fixtures.py"
    return FIXTURE_CACHE


@pytest.fixture(scope="session")
def fixture_config(fixture_cache_dir):
    config = load_config(FIXTURE_CONFIG)
    from dataclasses import replace

    return replace(config, cache_dir=str(fixture_cache_dir))


@pytest.fixture(scope="session")
def offline_records(fixture_cache_dir):
    """Country-key WorkRecords for both bundled disciplines, decoded from
    the cache."""
    client = OpenAlexClient(PageCache(fixture_cache_dir), transport=None)
    records = {}
    for root in ("C100", "C200"):
        concepts = expand_concept(root, client.fetch_concept)
        records[root] = list(harvest(client, root, sorted(concepts), 1971, 2020))
    return records
