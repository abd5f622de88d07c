"""The file writer, the staged output tree and the indented JSON layout."""

from __future__ import annotations

import gc
import json
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from collabkit import fsio
from collabkit.corpus import count_years
from collabkit.errors import ConfigError
from collabkit.fsio import STAGING_PREFIX, StagedTree, json_text, write_new
from collabkit.geometry import Dendrogram, Merge, distance_matrix
from collabkit.ingest import PageCache
from collabkit.report import distance_matrix_to_csv, merges_to_json
from util import records_from_sets, tree_snapshot

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(st.characters(codec="utf-8"))
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


class TestJsonText:
    @given(json_docs)
    def test_same_bytes_as_json_dumps(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [
            [], {}, {"a": [], "b": {}}, [[{}]], {"é": ["ß", "日本"]}, -0.0, 1e300 * 10,
            math.nan, [math.inf, -math.inf],
        ],
    )
    def test_edge_documents(self, doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            json_text({"a": object()})
        with pytest.raises(TypeError):
            json_text({1: "a"})

    def test_writers_leave_no_cyclic_garbage(self, tmp_path):
        # json's indenting encoder leaves its closures for the collector on
        # every call; merges.json and the page sidecars must not
        dend = Dendrogram(
            ("A", "B", "C"),
            (Merge(0, 1, 0.2, 2), Merge(3, 2, 0.976, 3)),
        )
        cache = PageCache(tmp_path)
        cache.put("ab" * 32, b"{}", "works", {"cursor": "*"})  # makes the directory
        gc.collect()
        gc.disable()
        try:
            merges_to_json(dend)
            cache.put("cd" * 32, b"{}", "works", {"cursor": "*", "filter": "x"})
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestWriteNew:
    def test_blocks_hashed_as_written(self, tmp_path):
        digest = write_new(tmp_path / "f", iter(["a,b\n", b"\xc3\xa9\n", "é\n"]))
        data = (tmp_path / "f").read_bytes()
        assert data == "a,b\né\né\n".encode()
        assert digest == __import__("hashlib").sha256(data).hexdigest()

    def test_refuses_an_existing_file(self, tmp_path):
        (tmp_path / "f").write_text("old")
        with pytest.raises(FileExistsError):
            write_new(tmp_path / "f", "new")
        assert (tmp_path / "f").read_text() == "old"

    def test_failure_removes_the_partial_file(self, tmp_path):
        def blocks():
            yield "first\n"
            raise RuntimeError("exporter failed")

        with pytest.raises(RuntimeError):
            write_new(tmp_path / "f", blocks())
        assert list(tmp_path.iterdir()) == []

        def vanishing_blocks():
            # the partial file is gone before the failure: its error is
            # still the one raised
            yield "first\n"
            (tmp_path / "f").unlink()
            raise RuntimeError("exporter failed")

        with pytest.raises(RuntimeError, match="exporter failed"):
            write_new(tmp_path / "f", vanishing_blocks())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
    def test_staged_file_mode_is_0o666_less_the_umask(self, tmp_path, umask):
        staged = StagedTree(tmp_path / "out")
        old = os.umask(umask)
        try:
            staged.put("a/x.csv", "x")
        finally:
            os.umask(old)
        mode = (staged.staging / "a" / "x.csv").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask


class TestStagedTree:
    def test_nothing_made_before_the_first_put(self, tmp_path):
        staged = StagedTree(tmp_path / "out")
        staged.commit()
        staged.discard()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rel", ["f", "f/out", "f/a/b", "link", "link/out"])
    def test_root_at_or_under_a_file_is_refused(self, tmp_path, rel):
        (tmp_path / "f").write_text("kept")
        (tmp_path / "link").symlink_to(tmp_path / "gone")
        found = tmp_path / rel.partition("/")[0]
        with pytest.raises(ConfigError, match=f"out_dir {tmp_path / rel}: {found} exists"):
            StagedTree(tmp_path / rel)
        assert tree_snapshot(tmp_path) == {"f": b"kept", "link": None}

    def test_commit_moves_files_in_order_manifest_last(self, tmp_path, monkeypatch):
        staged = StagedTree(tmp_path / "out")
        for rel in ("manifest.json", "b/y.csv", "a/x.csv", "top.csv"):
            staged.put(rel, rel)
        moved = []
        replace = os.replace
        monkeypatch.setattr(
            fsio.os, "replace", lambda src, dst: moved.append(dst) or replace(src, dst)
        )
        staged.commit()
        out = tmp_path / "out"
        assert moved == [out / r for r in ("a/x.csv", "b/y.csv", "top.csv", "manifest.json")]
        assert tree_snapshot(out) == {
            "a": None, "a/x.csv": b"a/x.csv", "b": None, "b/y.csv": b"b/y.csv",
            "manifest.json": b"manifest.json", "top.csv": b"top.csv",
        }

    def test_discard_removes_a_root_it_made(self, tmp_path):
        staged = StagedTree(tmp_path / "new" / "out")
        staged.put("a/x.csv", "x")
        staged.discard()
        assert list(tmp_path.iterdir()) == []

    def test_discard_leaves_an_existing_root_alone(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "x.csv").write_text("old")
        before = tree_snapshot(tmp_path)
        staged = StagedTree(tmp_path)
        staged.put("a/x.csv", "new")
        assert any(p.name.startswith(STAGING_PREFIX) for p in tmp_path.iterdir())
        staged.discard()
        assert tree_snapshot(tmp_path) == before

    def test_error_during_commit(self, tmp_path, monkeypatch):
        # the files moved before the error are in place, the earlier
        # manifest stays, and the staging directory goes with the rest
        (tmp_path / "manifest.json").write_text("earlier")
        staged = StagedTree(tmp_path)
        for rel in ("a.csv", "b.csv", "c.csv", "manifest.json"):
            staged.put(rel, "new " + rel)
        replace = os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk gone")
            replace(src, dst)

        monkeypatch.setattr(fsio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            staged.commit()
        staged.discard()
        assert tree_snapshot(tmp_path) == {"a.csv": b"new a.csv", "manifest.json": b"earlier"}

    def test_distance_file_streams(self, tmp_path):
        # a top_n 600 distance matrix from counts, as the pipeline builds
        # it: while its CSV goes through the writer, allocations peak far
        # below the file's size
        rng = random.Random(600)
        pool = [f"I{i:04d}" for i in range(600)]
        sets = [rng.sample(pool, rng.choice((1, 1, 2, 2, 3, 5))) for _ in range(6000)]
        table = count_years(records_from_sets(sets), "D1", range(2000, 2001))[2000]
        dm = distance_matrix(table, pool)
        staged = StagedTree(tmp_path)
        tracemalloc.start()
        try:
            staged.put("distances.csv", distance_matrix_to_csv(dm))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = os.path.getsize(staged.staging / "distances.csv")
        assert size > 2_000_000
        assert peak < size / 4
        staged.discard()
