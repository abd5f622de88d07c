"""Package surface: the exported names and the documented config example."""

from __future__ import annotations

import json
import re
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
