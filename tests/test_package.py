"""Package surface: the exported names, the documented config example and
the bundled fixture cache's generator."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import collabkit
from collabkit.cli import config_from_dict, validate

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in collabkit.__all__ if not hasattr(collabkit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from collabkit import *", namespace)
    assert set(collabkit.__all__) <= set(namespace)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_config_example_is_valid(doc):
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / doc).read_text(), re.DOTALL)
    assert len(blocks) == 1
    config = config_from_dict(json.loads(blocks[0]))
    assert validate(config) == []


def test_fixture_cache_matches_generator(tmp_path):
    cache = tmp_path / "cache"
    script = ROOT / "scripts" / "make_fixtures.py"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run(
        [sys.executable, str(script), "--cache-dir", str(cache)],
        check=True,
        capture_output=True,
        env=env,
    )
    bundled = ROOT / "tests" / "fixtures" / "cache"
    names = sorted(p.name for p in bundled.iterdir())
    assert sorted(p.name for p in cache.iterdir()) == names
    for name in names:
        assert (cache / name).read_bytes() == (bundled / name).read_bytes(), name
