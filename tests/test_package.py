"""Package surface: the exported names, the documented config example and
output layout, and the bundled fixture cache's generator."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import collabkit
from collabkit.cli import config_from_dict, run, validate

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    missing = [name for name in collabkit.__all__ if not hasattr(collabkit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from collabkit import *", namespace)
    assert set(collabkit.__all__) <= set(namespace)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "collabkit").glob("*.py")), ids=lambda p: p.name
)
def test_source_parses_as_python_3_10(path):
    # pyproject promises Python 3.10, but the suite runs on whichever
    # interpreter has numpy; this checks the 3.10 grammar on any of them
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_imports_are_declared_dependencies():
    # every top-level module a source file imports is relative, in the
    # standard library, or one of pyproject's [project] dependencies
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    undeclared = set()
    for path in sorted((ROOT / "src" / "collabkit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top.lower() not in declared:
                    undeclared.add(f"{path.name}: {name}")
    assert undeclared == set()


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_config_example_is_valid(doc):
    blocks = re.findall(r"```json\n(.*?)```", (ROOT / doc).read_text(), re.DOTALL)
    assert len(blocks) == 1
    config = config_from_dict(json.loads(blocks[0]))
    assert validate(config) is None


def _readme_layout() -> dict[int, set[str]]:
    """Names in README's output layout block by depth: 1 for the out dir,
    2 for a discipline directory, 3 for a cell directory."""
    section = (ROOT / "README.md").read_text().split("## Output layout", 1)[1]
    block = re.search(r"```\n(out/\n.*?)```", section, re.DOTALL).group(1)
    levels: dict[int, set[str]] = {}
    for line in block.splitlines()[1:]:
        text = line.lstrip(" ")
        indent = len(line) - len(text)
        if indent in (2, 4, 6):  # deeper lines continue a description
            levels.setdefault(indent // 2, set()).add(text.split()[0])
    return levels


def test_readme_output_layout_is_the_run_layout(fixture_config, tmp_path):
    config = replace(fixture_config, disciplines=("C100",), out_dir=str(tmp_path))
    run(config, mode="fixtures", stage="all")

    def files(directory: Path) -> set[str]:
        return {p.name for p in directory.iterdir() if p.is_file()}

    def dirs(directory: Path) -> list[Path]:
        return sorted(p for p in directory.iterdir() if p.is_dir())

    layout = _readme_layout()
    assert layout[1] == files(tmp_path) | {"<discipline>/"}
    assert [d.name for d in dirs(tmp_path)] == ["C100"]
    for discipline in dirs(tmp_path):
        assert layout[2] == files(discipline) | {"<period>/"}
        cells = dirs(discipline)
        assert len(cells) == len(config.periods)
        for cell in cells:
            assert layout[3] == files(cell), cell.name


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


_FAILING_PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # warnings fail the suite, and a failing @given test's report imports
    # libcst, which warns; that must not end the session as INTERNALERROR
    (tmp_path / "test_probe.py").write_text(_FAILING_PROBE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_probe.py"]
        + ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "FAILED test_probe.py::test_fails" in out
    assert "1 failed, 1 passed" in out


def test_suite_collects_without_the_repo_on_sys_path(tmp_path):
    # the `pytest` entry point puts no repo directory on sys.path, so a test
    # module importing ``tests.util`` fails to collect there, and the run
    # stops with no test run; under `python -m pytest` from the repo root
    # util would load twice, as ``util`` and ``tests.util``
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
        + [str(ROOT / "tests")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
