"""Harvesting plumbing: concept expansion, fingerprints, cache, rate
limiting, retries, pagination, and record streaming."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import stat
import tempfile
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabkit import ingest
from collabkit.errors import ConfigError, MissingFixtures, ParseError, TransportError
from collabkit.ingest import (
    CURSOR_START,
    Concept,
    OpenAlexClient,
    PageCache,
    TokenBucket,
    TransportResponse,
    WorksQuery,
    expand_concept,
    fingerprint,
    harvest,
    normalize_concept_id,
    parse_concept_page,
    parse_works_page,
    query_params,
)
from synthetic import SyntheticOpenAlexTransport
from util import fetch_of, harvested


def _concept(cid, level, related=()):
    return {
        "id": f"https://openalex.org/{cid}",
        "display_name": cid,
        "level": level,
        "related_concepts": [
            {"id": f"https://openalex.org/{r}", "display_name": r, "level": lv}
            for r, lv in related
        ],
    }


class ScriptedTransport:
    """Returns canned responses in sequence for any URL."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = 0
        self.requests = []

    def get(self, url, params):
        self.calls += 1
        self.requests.append((url, dict(params)))
        if not self.responses:
            raise AssertionError("transport exhausted")
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok(doc) -> TransportResponse:
    return TransportResponse(200, json.dumps(doc).encode())


EMPTY_PAGE = {"meta": {"count": 0, "next_cursor": None}, "results": []}


class TestConceptIds:
    def test_normalize(self):
        assert normalize_concept_id("C123") == "C123"
        assert normalize_concept_id("https://openalex.org/C123") == "C123"
        assert normalize_concept_id("https://openalex.org/C123/") == "C123"


class TestCatalogAndExpansion:
    def _fetch(self):
        return fetch_of(
            [
                _concept("C1", 1, [("C10", 2), ("C20", 2), ("C2", 1), ("C0", 0)]),
                _concept("C10", 2, [("C11", 3)]),
                _concept("C20", 2, [("C21", 3), ("C10", 2)]),
                _concept("C11", 3),
                _concept("C21", 3),
                _concept("C2", 1),
                _concept("C0", 0),
            ]
        )

    def test_transitive_expansion(self):
        selected = expand_concept("C1", self._fetch())
        assert selected == {"C1", "C10", "C20", "C11", "C21"}

    def test_one_hop_expansion(self):
        selected = expand_concept("C1", self._fetch(), mode="one-hop")
        assert selected == {"C1", "C10", "C20"}

    def test_low_levels_pruned_not_traversed(self):
        # C2 (level 1) and C0 (level 0) are neighbors but never selected
        selected = expand_concept("C1", self._fetch())
        assert "C2" not in selected and "C0" not in selected

    def test_unknown_root(self):
        with pytest.raises(MissingFixtures):
            expand_concept("C999", self._fetch())

    def test_wrong_level_root(self):
        with pytest.raises(ConfigError, match="C10 has level 2, discipline roots have level 1"):
            expand_concept("C10", self._fetch())
        with pytest.raises(ConfigError, match="C0 has level 0, discipline roots have level 1"):
            expand_concept("C0", self._fetch())

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            expand_concept("C1", self._fetch(), mode="recursive")

    def test_url_form_ids(self):
        selected = expand_concept("https://openalex.org/C1/", self._fetch(), mode="one-hop")
        assert selected == {"C1", "C10", "C20"}

    @pytest.mark.parametrize(
        "mode, selected, calls",
        [
            ("transitive", {"C100", "C110", "C120", "C111", "C121"}, 5),
            ("one-hop", {"C100", "C110", "C120"}, 1),
        ],
        ids=["transitive", "one-hop"],
    )
    def test_fetches_only_what_it_follows(self, tmp_path, mode, selected, calls):
        # the synthetic root also lists a level-1 sibling and a level-0
        # domain; neither is fetched, and one-hop reads the root alone
        client = _client(SyntheticOpenAlexTransport(), tmp_path)
        assert expand_concept("C100", client.fetch_concept, mode) == selected
        assert client.ingest["network_calls"] == calls

    def test_wrong_level_root_fetched_alone(self, tmp_path):
        client = _client(SyntheticOpenAlexTransport(), tmp_path)
        with pytest.raises(ConfigError, match="discipline roots have level 1"):
            expand_concept("C110", client.fetch_concept)
        assert client.ingest["network_calls"] == 1


class TestWorksQuery:
    def test_canonicalization(self):
        q = WorksQuery(("https://openalex.org/C2", "C1", "C2"), 1990, 2000)
        assert q.concept_ids == ("C1", "C2")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorksQuery((), 1990, 2000)
        with pytest.raises(ValueError):
            WorksQuery(("C1",), 2001, 2000)

    def test_params(self):
        q = WorksQuery(("C2", "C1"), 1971, 2020)
        assert query_params(q) == {
            "filter": (
                "concepts.id:C1|C2,"
                "from_publication_date:1971-01-01,"
                "to_publication_date:2020-12-31"
            ),
            "per-page": "200",
            "cursor": "*",
        }
        assert query_params(q, "c2") == {**query_params(q), "cursor": "c2"}


class TestFingerprint:
    def test_sensitive_to_params_and_endpoint(self):
        base = fingerprint("works", {"filter": "x", "cursor": "*"})
        assert fingerprint("works", {"filter": "x", "cursor": "c200"}) != base
        assert fingerprint("works", {"filter": "y", "cursor": "*"}) != base
        assert fingerprint("concepts/C1", {"filter": "x", "cursor": "*"}) != base

    def test_order_independent(self):
        assert fingerprint("works", {"a": "1", "b": "2"}) == fingerprint(
            "works", {"b": "2", "a": "1"}
        )


class TestPageCache(object):
    def test_round_trip(self, tmp_path):
        cache = PageCache(tmp_path / "cache")
        fp = fingerprint("works", {"cursor": "*"})
        assert cache.is_empty()
        assert cache.get(fp) is None
        digest = cache.put(fp, b'{"x":1}', "works", {"cursor": "*"})
        assert digest == hashlib.sha256(b'{"x":1}').hexdigest()
        assert cache.get(fp) == (
            b'{"x":1}',
            {"endpoint": "works", "params": {"cursor": "*"}, "sha256": digest},
        )
        assert not cache.is_empty()
        assert cache.fingerprints() == [fp]

    def test_get_misses_without_a_page(self, tmp_path):
        cache = PageCache(tmp_path)
        assert cache.get("ab" * 32) is None
        # a put cut short between its renames leaves this sidecar behind
        cache.sidecar_for("ab" * 32).write_text(
            json.dumps({"sha256": hashlib.sha256(b"{}").hexdigest()})
        )
        assert cache.get("ab" * 32) is None

    @pytest.mark.parametrize(
        "sidecar", [None, b"[]", b'"sha256"', b"{", b"\xff"],
        ids=["missing", "list", "string", "cut-short", "not-utf8"],
    )
    def test_get_refuses_a_page_without_a_readable_sidecar(self, tmp_path, sidecar):
        cache = PageCache(tmp_path)
        fp = "ab" * 32
        cache.put(fp, b"{}", "works", {"cursor": "*"})
        if sidecar is None:
            cache.sidecar_for(fp).unlink()
        else:
            cache.sidecar_for(fp).write_bytes(sidecar)
        with pytest.raises(ParseError) as info:
            cache.get(fp)
        assert str(info.value) == (
            f"cached page {fp} has no readable sidecar {cache.sidecar_for(fp)};"
            f" delete {cache.path_for(fp)} and fetch it again online"
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.pop("sha256"),
            lambda meta: meta.update(sha256=hashlib.sha256(b"[]").hexdigest()),
            lambda meta: meta.update(sha256=None),
        ],
        ids=["no-sha256", "other-digest", "null-sha256"],
    )
    def test_get_refuses_a_page_its_sidecar_does_not_match(self, tmp_path, edit):
        cache = PageCache(tmp_path)
        fp = fingerprint("works", {"cursor": "*"})
        cache.put(fp, b"{}", "works", {"cursor": "*"})
        meta = json.loads(cache.sidecar_for(fp).read_bytes())
        edit(meta)
        cache.sidecar_for(fp).write_text(json.dumps(meta))
        with pytest.raises(ParseError) as info:
            cache.get(fp)
        assert str(info.value) == f"cached page {fp} does not match the sha256 in its sidecar"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta.update(endpoint="concepts/C1"),
            lambda meta: meta["params"].update(cursor="c2"),
            lambda meta: meta["params"].pop("cursor"),
        ],
        ids=["other-endpoint", "other-cursor", "no-cursor"],
    )
    @pytest.mark.parametrize("digest", ["kept", "other"])
    def test_get_refuses_a_page_filed_under_another_request(self, tmp_path, edit, digest):
        # the sidecar describes a request, and that request is checked
        # before the bytes, so a page and sidecar copied under another
        # request's fingerprint are refused even though they match
        cache = PageCache(tmp_path)
        fp = fingerprint("works", {"cursor": "*", "filter": "x"})
        cache.put(fp, b"{}", "works", {"cursor": "*", "filter": "x"})
        meta = json.loads(cache.sidecar_for(fp).read_bytes())
        edit(meta)
        if digest == "other":
            meta["sha256"] = hashlib.sha256(b"[]").hexdigest()
        cache.sidecar_for(fp).write_text(json.dumps(meta))
        with pytest.raises(ParseError) as info:
            cache.get(fp)
        assert str(info.value) == (
            f"cached page {fp} answers another request: its sidecar's request has"
            f" fingerprint {fingerprint(meta['endpoint'], meta['params'])}"
        )

    @pytest.mark.parametrize(
        "request_",
        [
            {"params": {"cursor": "*"}},
            {"endpoint": None, "params": {"cursor": "*"}},
            {"endpoint": 5, "params": {"cursor": "*"}},
            {"endpoint": "works"},
            {"endpoint": "works", "params": None},
            {"endpoint": "works", "params": [["cursor", "*"]]},
            {"endpoint": "works", "params": "cursor=*"},
            {"endpoint": "works", "params": {"cursor": 5}},
            {"endpoint": "works", "params": {"cursor": None}},
            {"endpoint": "works", "params": {"cursor": ["*"]}},
        ],
        ids=[
            "no-endpoint", "null-endpoint", "int-endpoint", "no-params", "null-params",
            "list-params", "string-params", "int-value", "null-value", "list-value",
        ],
    )
    def test_get_refuses_a_sidecar_that_names_no_request(self, tmp_path, request_):
        cache = PageCache(tmp_path)
        fp = fingerprint("works", {"cursor": "*"})
        digest = cache.put(fp, b"{}", "works", {"cursor": "*"})
        cache.sidecar_for(fp).write_text(json.dumps({**request_, "sha256": digest}))
        with pytest.raises(ParseError) as info:
            cache.get(fp)
        assert str(info.value) == f"cached page {fp}: its sidecar names no request"

    @pytest.mark.parametrize("damage", ["page", "sidecar"])
    def test_fetch_decodes_no_refused_page(self, tmp_path, monkeypatch, damage):
        query = WorksQuery(("C1",), 1990, 1991)
        _client(ScriptedTransport([_ok(EMPTY_PAGE)]), tmp_path).fetch_page(query)
        cache = PageCache(tmp_path / "cache")
        [fp] = cache.fingerprints()
        if damage == "page":
            cache.path_for(fp).write_bytes(cache.path_for(fp).read_bytes() + b" ")
        else:
            cache.sidecar_for(fp).unlink()
        decoded = []
        real = ingest.parse_works_page
        monkeypatch.setattr(
            ingest, "parse_works_page", lambda body: decoded.append(body) or real(body)
        )
        client = _client(None, tmp_path)
        with pytest.raises(ParseError, match=f"cached page {fp} "):
            client.fetch_page(query)
        assert decoded == []
        assert client.consumed == {} and client.ingest["pages_from_cache"] == 0

    def test_sidecar_alone_is_empty(self, tmp_path):
        cache = PageCache(tmp_path)
        (tmp_path / ("ab" * 32 + ".meta.json")).write_text("{}")
        (tmp_path / "notes.txt").write_text("")
        assert cache.is_empty() and cache.fingerprints() == []
        (tmp_path / ("ab" * 32 + ".json")).write_text("{}")
        assert not cache.is_empty()
        assert PageCache(tmp_path / "notes.txt").is_empty()

    def test_meta_sidecar(self, tmp_path):
        cache = PageCache(tmp_path)
        cache.put("cd" * 32, b"{}", "works", {"cursor": "*"})
        meta = json.loads((tmp_path / ("cd" * 32 + ".meta.json")).read_text())
        assert meta["endpoint"] == "works"
        assert meta["params"] == {"cursor": "*"}
        assert meta["sha256"] == hashlib.sha256(b"{}").hexdigest()

    def test_sidecar_renamed_before_page(self, tmp_path, monkeypatch):
        # a put cut short between the renames leaves a sidecar without its
        # page, which is a miss, never a page without its sidecar
        renamed = []
        real = os.replace

        def replace(src, dst):
            renamed.append(os.path.basename(dst))
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        PageCache(tmp_path).put("ab" * 32, b"{}", "works", {"cursor": "*"})
        assert renamed == ["ab" * 32 + ".meta.json", "ab" * 32 + ".json"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_modes_follow_umask(self, tmp_path, umask, mode):
        # pages and sidecars get the modes that outputs get from write_new
        old = os.umask(umask)
        try:
            PageCache(tmp_path).put("ef" * 32, b"{}", "works", {"cursor": "*"})
        finally:
            os.umask(old)
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == ["ef" * 32 + ".json", "ef" * 32 + ".meta.json"]
        assert [stat.S_IMODE(p.stat().st_mode) for p in written] == [mode, mode]


class TestTokenBucket:
    def test_burst_then_wait(self):
        clock = {"t": 0.0}
        sleeps = []

        def fake_sleep(s):
            sleeps.append(s)
            clock["t"] += s

        bucket = TokenBucket(rate=2.0, clock=lambda: clock["t"], sleep=fake_sleep)
        bucket.take()
        bucket.take()
        assert sleeps == []
        bucket.take()
        assert sleeps == [pytest.approx(0.5)]

    def test_refill(self):
        clock = {"t": 0.0}
        sleeps = []

        def fake_sleep(s):
            sleeps.append(s)
            clock["t"] += s

        bucket = TokenBucket(rate=1.0, clock=lambda: clock["t"], sleep=fake_sleep)
        bucket.take()
        clock["t"] += 1.0
        bucket.take()  # exactly one token refilled, so no wait
        assert sleeps == []

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


def _client(transport, tmp_path, **kwargs):
    kwargs.setdefault("rate_limit", 10000.0)
    kwargs.setdefault("sleep", lambda s: None)
    return OpenAlexClient(PageCache(tmp_path / "cache"), transport, **kwargs)


class TestClient:
    def test_fetch_caches_and_replays(self, tmp_path):
        transport = ScriptedTransport([_ok(EMPTY_PAGE)])
        client = _client(transport, tmp_path)
        q = WorksQuery(("C1",), 1990, 1991)
        page1 = client.fetch_page(q)
        page2 = client.fetch_page(q)
        assert transport.calls == 1
        assert page1 == page2
        [(fp, digest)] = client.consumed.items()
        assert digest == client.cache.meta(fp)["sha256"]
        assert (client.ingest["pages_fetched"], client.ingest["pages_from_cache"]) == (1, 1)

    def test_retries_count_as_network_calls(self, tmp_path):
        transport = ScriptedTransport([TransportResponse(503, b""), _ok(EMPTY_PAGE)])
        client = _client(transport, tmp_path)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        counts = [client.ingest[k] for k in ("pages_fetched", "pages_from_cache", "network_calls")]
        assert counts == [1, 0, 2]

    def test_offline_miss_raises(self, tmp_path):
        client = _client(None, tmp_path)
        with pytest.raises(MissingFixtures):
            client.fetch_page(WorksQuery(("C1",), 1990, 1991))

    def test_retry_on_429_then_success(self, tmp_path):
        sleeps = []
        transport = ScriptedTransport(
            [TransportResponse(429, b""), _ok(EMPTY_PAGE)]
        )
        client = _client(transport, tmp_path, sleep=sleeps.append)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 2
        assert sleeps == [0.5]

    def test_rate_limited_after_retries(self, tmp_path):
        transport = ScriptedTransport([TransportResponse(429, b"")] * 4)
        client = _client(transport, tmp_path)
        with pytest.raises(TransportError, match=r"works: rate limited \(HTTP 429\)"):
            client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 4

    def test_server_errors_retried(self, tmp_path):
        transport = ScriptedTransport(
            [TransportResponse(500, b""), TransportResponse(503, b""), _ok(EMPTY_PAGE)]
        )
        client = _client(transport, tmp_path)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 3

    def test_server_error_exhausted(self, tmp_path):
        transport = ScriptedTransport([TransportResponse(500, b"")] * 4)
        client = _client(transport, tmp_path)
        with pytest.raises(TransportError):
            client.fetch_page(WorksQuery(("C1",), 1990, 1991))

    def test_client_error_immediate(self, tmp_path):
        transport = ScriptedTransport([TransportResponse(404, b"")])
        client = _client(transport, tmp_path)
        with pytest.raises(TransportError):
            client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 1

    def test_connection_errors_retried(self, tmp_path):
        transport = ScriptedTransport(
            [OSError("boom"), OSError("boom"), _ok(EMPTY_PAGE)]
        )
        client = _client(transport, tmp_path)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 3
        assert client.ingest["retries_by_status"] == {"exception": 2}

    def test_retries_counted_by_status(self, tmp_path):
        transport = ScriptedTransport(
            [TransportResponse(429, b""), TransportResponse(503, b""), _ok(EMPTY_PAGE)]
        )
        client = _client(transport, tmp_path, sleep=lambda s: None)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert client.ingest["retries_by_status"] == {"429": 1, "503": 1}
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))  # from the cache now
        assert client.ingest["retries_by_status"] == {"429": 1, "503": 1}

    @pytest.mark.parametrize(
        "fetch, body",
        [
            (lambda c: c.fetch_page(WorksQuery(("C1",), 1990, 1991)), b"not json"),
            (lambda c: c.fetch_page(WorksQuery(("C1",), 1990, 1991)), b'{"results": "x"}'),
            (lambda c: c.fetch_concept("C1"), b"[]"),
            (lambda c: c.fetch_concept("C1"), b"not json"),
            (
                lambda c: c.fetch_concept("C1"),
                b'{"id": "C1", "level": 1, "related_concepts": ["x"]}',
            ),
            (
                lambda c: c.fetch_concept("C1"),
                b'{"id": "C1", "level": 1, "related_concepts": [{"id": "C2", "level": "x"}]}',
            ),
            (
                lambda c: c.fetch_concept("C1"),
                b'{"id": "C1", "level": 1, "related_concepts": 5}',
            ),
            (lambda c: c.fetch_concept("C1"), b'{"level": 1}'),
            (lambda c: c.fetch_concept("C1"), b'{"id": "C1", "level": "1"}'),
            (lambda c: c.fetch_concept("C1"), b'{"id": "C1", "level": true}'),
        ],
        ids=[
            "not-json",
            "works-not-a-page",
            "concept-not-an-object",
            "concept-not-json",
            "related-entry-not-an-object",
            "related-level-not-an-int",
            "related-not-a-list",
            "concept-without-id",
            "level-not-an-int",
            "level-a-bool",
        ],
    )
    def test_malformed_body_not_cached(self, tmp_path, fetch, body):
        transport = ScriptedTransport([TransportResponse(200, body)])
        client = _client(transport, tmp_path)
        with pytest.raises(ParseError):
            fetch(client)
        assert client.cache.is_empty()
        assert client.consumed == {}

    def test_mailto_sent_but_not_fingerprinted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENALEX_MAILTO", "env@example.org")
        transport = ScriptedTransport([_ok(EMPTY_PAGE)])
        client = OpenAlexClient(
            PageCache(tmp_path / "cache"),
            transport,
            rate_limit=10000.0,
            sleep=lambda s: None,
        )
        q = WorksQuery(("C1",), 1990, 1991)
        client.fetch_page(q)
        _, sent = transport.requests[0]
        assert sent["mailto"] == "env@example.org"
        cache = client.cache
        [fp] = cache.fingerprints()
        assert cache.meta(fp)["params"] == query_params(q)  # no mailto
        monkeypatch.delenv("OPENALEX_MAILTO")
        offline = OpenAlexClient(PageCache(tmp_path / "cache"), None)
        assert offline.fetch_page(q) is not None  # cache hit despite no mailto


class TestParsing:
    def test_parse_works_page(self):
        doc = {
            "meta": {"count": 2, "next_cursor": "abc"},
            "results": [{"id": "W1"}, {"id": "W2"}],
        }
        page = parse_works_page(json.dumps(doc).encode())
        assert len(page.works) == 2
        assert page.next_cursor == "abc"

    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            b"[]",
            b'{"meta": {}}',
            b'{"results": "nope"}',
            b'{"results": [], "meta": "x"}',
            b'{"results": [], "meta": {"next_cursor": 5}}',
            # a page without a cursor would end the chain
            b'{"results": []}',
            b'{"results": [], "meta": {"count": 0}}',
            # nor may an empty one
            b'{"results": [], "meta": {"next_cursor": ""}}',
        ],
    )
    def test_parse_errors(self, body):
        with pytest.raises(ParseError):
            parse_works_page(body)

    def test_related_concept_ids(self):
        # only a null or missing related id is skipped: 5 is not the
        # concept "5", and 0 or "" is not a missing id
        def related(*items):
            doc = {"id": "C1", "level": 1, "related_concepts": list(items)}
            return parse_concept_page(json.dumps(doc).encode()).related

        assert related({"level": 2}, {"id": None, "level": 2}, {"id": "C2", "level": 2}) == (
            ("C2", 2),
        )
        for rid in (5, True, ["C1"], 0, False, "", {}):
            message = f"concept page: related id {rid!r} is not a non-empty string"
            with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
                related({"id": rid, "level": 2})

    @pytest.mark.parametrize(
        "item", [{"id": "C2"}, {"id": "C2", "level": None}], ids=["missing", "null"]
    )
    def test_related_level_required(self, item):
        # the level decides whether expansion selects the concept, so a
        # missing one is refused rather than read as a level-0 domain
        doc = {"id": "C1", "level": 1, "related_concepts": [item]}
        message = "concept page: related concept C2 level None is not an int"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_concept_page(json.dumps(doc).encode())

    def test_null_related_concepts_means_none(self):
        doc = {"id": "C1", "level": 1, "related_concepts": None}
        assert parse_concept_page(json.dumps(doc).encode()) == Concept("C1", 1)


class TestPagination:
    def _paged_transport(self):
        def page(results, cursor):
            return _ok({"meta": {"count": 5, "next_cursor": cursor}, "results": results})

        return ScriptedTransport(
            [
                page([{"id": "W1"}, {"id": "W2"}], "c2"),
                page([{"id": "W3"}, {"id": "W4"}], "c4"),
                page([{"id": "W5"}], None),
            ]
        )

    def test_follows_cursors(self, tmp_path):
        client = _client(self._paged_transport(), tmp_path)
        pages = list(client.pages(WorksQuery(("C1",), 1990, 1991)))
        assert [len(p.works) for p in pages] == [2, 2, 1]
        cursors = [params["cursor"] for _, params in client.transport.requests]
        assert cursors == ["*", "c2", "c4"]

    def test_each_page_decoded_once(self, tmp_path, monkeypatch):
        transport = self._paged_transport()
        bodies = {resp.body for resp in transport.responses}
        decoded = []
        loads = ingest.json.loads

        def counting_loads(data, *args, **kwargs):
            if data in bodies:
                decoded.append(data)
            return loads(data, *args, **kwargs)

        monkeypatch.setattr(ingest.json, "loads", counting_loads)
        q = WorksQuery(("C1",), 1990, 1991)
        online = list(_client(transport, tmp_path).pages(q))
        assert len(decoded) == 3
        replayed = list(_client(None, tmp_path).pages(q))
        assert len(decoded) == 6
        assert replayed == online

    def test_cursor_loop_detected(self, tmp_path):
        looped = ScriptedTransport(
            [
                _ok({"meta": {"next_cursor": "c1"}, "results": []}),
                _ok({"meta": {"next_cursor": "c1"}, "results": []}),
            ]
        )
        client = _client(looped, tmp_path)
        with pytest.raises(ParseError, match="cursor loop"):
            list(client.pages(WorksQuery(("C1",), 1990, 1991)))


class TestHarvest:
    def test_dedup_and_counts(self, tmp_path):
        works = [
            {"id": f"W{i}", "publication_year": 1990, "type": "journal-article",
             "authorships": []}
            for i in range(8)
        ]
        works.insert(3, dict(works[0]))
        works.append(dict(works[5]))
        assert len(works) == 10
        transport = ScriptedTransport(
            [_ok({"meta": {"next_cursor": None}, "results": works})]
        )
        client = _client(transport, tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1990))
        assert len(records) == 8
        assert len({r.work_id for r in records}) == 8

    def test_journal_only_filter(self, tmp_path):
        works = [
            {"id": f"W{i}", "publication_year": 1990,
             "type": "journal-article" if i < 5 else "preprint", "authorships": []}
            for i in range(10)
        ]
        transport = ScriptedTransport(
            [_ok({"meta": {"next_cursor": None}, "results": works})]
        )
        client = _client(transport, tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1990, journal_only=True))
        assert len(records) == 5
        assert all(r.is_journal_article for r in records)

    def test_empty_year_range(self, tmp_path):
        transport = ScriptedTransport([])
        client = _client(transport, tmp_path)
        assert list(harvest(client, "C1", ["C1"], 2000, 1999)) == []
        assert transport.calls == 0

    def test_unknown_key_is_refused(self, tmp_path):
        # not every item skipped as malformed
        transport = ScriptedTransport([])
        client = _client(transport, tmp_path)
        with pytest.raises(ValueError, match="'Country'"):
            list(harvest(client, "C1", ["C1"], 1990, 1990, key="Country"))
        assert transport.calls == 0

    def test_malformed_items_skipped(self, tmp_path, capfd, caplog):
        works = [
            {"id": "W1", "publication_year": 1990, "type": "article", "authorships": []},
            {"publication_year": 1990},
            {"id": "W2", "publication_year": None},
            "x",
            {"id": "W4", "publication_year": 1990, "authorships": ["x"]},
            {
                "id": "W5",
                "publication_year": 1990,
                "authorships": [{"institutions": ["x"]}],
            },
            {"id": "W6", "publication_year": True},
            {"id": "W7", "publication_year": 1990, "type": 5},
            {"id": 8, "publication_year": 1990, "type": "article", "authorships": []},
            {"id": True, "publication_year": 1990, "type": "article", "authorships": []},
            # a non-string code in the field the country key reads, then in
            # the field it does not read
            {
                "id": "W9",
                "publication_year": 1990,
                "authorships": [{"institutions": [{"country_code": 5}]}],
            },
            {
                "id": "W10",
                "publication_year": 1990,
                "authorships": [{"institutions": [{"country_code": "us", "ror": 12}]}],
            },
            # a falsy code is not a missing one
            {
                "id": "W11",
                "publication_year": 1990,
                "authorships": [{"institutions": [{"country_code": 0}]}],
            },
            # nor are falsy authorships missing ones
            {"id": "W12", "publication_year": 1990, "type": "article", "authorships": 0},
            {"id": "W3", "publication_year": 1990, "type": "article", "authorships": []},
        ]
        transport = ScriptedTransport(
            [_ok({"meta": {"next_cursor": None}, "results": works})]
        )
        client = _client(transport, tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1990))
        assert [r.work_id for r in records] == ["W1", "W10", "W3"]
        assert records[1].nationalities == {"US"}
        assert client.ingest["malformed_items_skipped"] == 12
        # the count is the only report: nothing is logged or written to
        # stderr (pytest's log capture would keep a warning off stderr)
        assert capfd.readouterr().err == "" and caplog.records == []

    def test_client_counts_dropped_items(self, tmp_path):
        works = [
            {"id": "W1", "publication_year": 1990, "authorships": []},
            {"id": "W2", "publication_year": 1990, "authorships": ["x"]},
            {"id": "W1", "publication_year": 1991, "authorships": []},
            {"id": "W3", "publication_year": 1990, "authorships": []},
        ]
        transport = ScriptedTransport(
            [_ok({"meta": {"next_cursor": None}, "results": works})]
        )
        client = _client(transport, tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1991))
        assert [r.work_id for r in records] == ["W1", "W3"]
        counts = [client.ingest[k] for k in ("duplicate_ids_dropped", "malformed_items_skipped")]
        assert counts == [1, 1]

    def test_one_decoded_page_alive_at_a_time(self, tmp_path, monkeypatch):
        def page(i, cursor):
            works = [
                {"id": f"W{i}{j}", "publication_year": 1990, "authorships": []}
                for j in range(2)
            ]
            return _ok({"meta": {"next_cursor": cursor}, "results": works})

        transport = ScriptedTransport([page(1, "c2"), page(2, "c3"), page(3, None)])
        decoded, yielded = [], []
        alive_at_decode = []

        def parse(body):
            alive = decoded + yielded
            alive_at_decode.append(sum(ref() is not None for ref in alive))
            parsed = parse_works_page(body)
            decoded.append(weakref.ref(parsed))
            return parsed

        monkeypatch.setattr(ingest, "parse_works_page", parse)
        work_ids = []
        # the records are let go of as they come, so any that is alive
        # when a page is decoded is held by harvest
        for record in harvest(_client(transport, tmp_path), "C1", ["C1"], 1990, 1990):
            work_ids.append(record.work_id)
            yielded.append(weakref.ref(record))
            del record
        assert work_ids == ["W10", "W11", "W20", "W21", "W30", "W31"]
        assert alive_at_decode == [0, 0, 0]

    def test_deterministic_replay_from_cache(self, tmp_path):
        transport = SyntheticOpenAlexTransport()
        client = _client(transport, tmp_path)
        first = list(harvest(client, "C100", ["C100", "C110"], 1971, 1975))
        calls = transport.calls
        offline = OpenAlexClient(client.cache, None)
        second = list(harvest(offline, "C100", ["C100", "C110"], 1971, 1975))
        assert first == second
        assert transport.calls == calls


URL = "https://openalex.org/W"
# Each is its own work. The canonical ones are URL and 1 to 18 ASCII digits
# with no leading zero; the rest sit next to that form.
ODD_IDS = [
    URL + "1", "W1", URL + "01", "W01", URL + "0", "W0", URL, "W",
    URL + "1" * 18, URL + "9" * 18, URL + "1" * 19, URL + "9" * 19,
    URL + "12", URL + "\u0661\u0662", URL + "+1", URL + " 1", URL + "1_0",
    URL + "10", URL + "1\x00", URL + "\u00b2", URL.upper() + "1",
]
work_ids = st.one_of(
    st.sampled_from(ODD_IDS),
    st.integers(1, 30).map(lambda n: f"{URL}{n}"),
    st.integers(1, 10**18 - 1).map(lambda n: f"{URL}{n}"),
    st.integers(0, 30).map(lambda n: f"W{n}"),
)


def _item(work_id, year=1990, journal=True):
    return {
        "id": work_id,
        "publication_year": year,
        "type": "journal-article" if journal else "preprint",
        "authorships": [],
    }


# a null year makes the item malformed
work_items = st.builds(_item, work_ids, st.sampled_from([1990, 1990, 1990, None]), st.booleans())


def _page_chain(pages):
    return ScriptedTransport(
        [
            _ok({"meta": {"next_cursor": f"c{i}" if i < len(pages) else None}, "results": works})
            for i, works in enumerate(pages, 1)
        ]
    )


def _assert_harvested(client, records, pages, journal_only):
    """harvest's records and counters are what util's harvest oracle keeps
    and counts, reading the items itself and deduplicating through a set
    of the id strings."""
    works, malformed, duplicates = harvested(pages, "country", journal_only)
    assert [
        (r.work_id, r.year, r.nationalities, r.is_journal_article) for r in records
    ] == works
    assert client.ingest["duplicate_ids_dropped"] == duplicates
    assert client.ingest["malformed_items_skipped"] == malformed


class TestHarvestDeduplication:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(work_items, max_size=60), min_size=1, max_size=5), st.booleans())
    # a malformed first occurrence leaves the id to a valid repeat
    @example([[_item(URL + "1", year=None)], [_item(URL + "1"), _item("W1", year=None)]], False)
    # the first of two repeats within a page wins, and is then filtered
    @example([[_item(URL + "1", journal=False), _item(URL + "1")]], True)
    # a leading zero or a non-ASCII digit makes another work
    @example([[_item(URL + "1"), _item(URL + "01")]], False)
    @example([[_item(URL + "12")], [_item(URL + "\u0661\u0662"), _item(URL + "12")]], False)
    # an id of 19 digits is not one of its first 18
    @example([[_item(URL + "1" * 18), _item(URL + "1" * 19)]], False)
    def test_matches_a_set_of_id_strings(self, pages, journal_only):
        with tempfile.TemporaryDirectory() as tmp:
            client = _client(_page_chain(pages), Path(tmp))
            records = list(harvest(client, "C1", ["C1"], 1990, 1990, journal_only=journal_only))
        _assert_harvested(client, records, pages, journal_only)

    def test_repeats_met_across_merged_runs(self, tmp_path):
        # About 23,600 distinct ids: a repeat meets its first occurrence
        # earlier on its page, in the batch not yet merged, or in one of the
        # sorted runs that batches are merged into
        rng = random.Random(3)
        items = [
            _item(f"{URL}{rng.randrange(1, 60_000)}", journal=rng.random() < 0.5)
            for _ in range(30_000)
        ]
        pages = [items[i:i + 200] for i in range(0, len(items), 200)]
        client = _client(_page_chain(pages), tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1990))
        _assert_harvested(client, records, pages, False)

    def test_seen_ids_cost_at_most_24_bytes_each(self, tmp_path):
        # A canonical id costs 8 bytes once seen; a set of the id strings
        # costs over 100. tracemalloc also traces numpy's buffers.
        cache = PageCache(tmp_path / "cache")
        numbers = random.Random(7).sample(range(10**9, 10**10), 25_000)
        sizes = {1990: 5_000, 1991: 20_000}
        for year, size in sizes.items():
            query = WorksQuery(("C1",), year, year)
            ids, numbers = [f"{URL}{n}" for n in numbers[:size]], numbers[size:]
            cursor = CURSOR_START
            for start in range(0, size, 200):
                following = f"c{start + 200}" if start + 200 < size else None
                works = [{"id": work_id, "publication_year": year} for work_id in ids[start:start + 200]]
                body = json.dumps({"meta": {"next_cursor": following}, "results": works})
                params = query_params(query, cursor)
                cache.put(fingerprint("works", params), body.encode(), "works", params)
                cursor = following

        def drain(year):
            for _ in harvest(OpenAlexClient(cache, None), "C1", ["C1"], year, year):
                pass

        def traced_peak(year):
            tracemalloc.start()
            try:
                drain(year)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        drain(1990)  # whatever the first harvest sets up once is not counted
        small, large = traced_peak(1990), traced_peak(1991)
        assert (large - small) / (sizes[1991] - sizes[1990]) <= 24
