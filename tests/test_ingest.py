"""Harvesting plumbing: catalog expansion, fingerprints, cache, rate
limiting, retries, pagination, and record streaming."""

from __future__ import annotations

import json

import pytest

from collabkit import ingest
from collabkit.errors import (
    MissingFixtures,
    ParseError,
    RateLimited,
    TransportError,
    UnknownConcept,
    WrongLevel,
)
from collabkit.ingest import (
    OpenAlexClient,
    PageCache,
    TokenBucket,
    TransportResponse,
    WorksQuery,
    catalog_from_cache,
    crawl_concepts,
    expand_concept,
    fingerprint,
    harvest,
    normalize_concept_id,
    parse_works_page,
    query_params,
)
from collabkit.synthetic import SyntheticOpenAlexTransport
from util import catalog_of


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
    def _catalog(self):
        return catalog_of(
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
        selected = expand_concept("C1", self._catalog())
        assert selected == {"C1", "C10", "C20", "C11", "C21"}

    def test_one_hop_expansion(self):
        selected = expand_concept("C1", self._catalog(), mode="one-hop")
        assert selected == {"C1", "C10", "C20"}

    def test_low_levels_pruned_not_traversed(self):
        # C2 (level 1) and C0 (level 0) are neighbors but never selected
        selected = expand_concept("C1", self._catalog())
        assert "C2" not in selected and "C0" not in selected

    def test_unknown_root(self):
        with pytest.raises(UnknownConcept):
            expand_concept("C999", self._catalog())

    def test_wrong_level_root(self):
        with pytest.raises(WrongLevel):
            expand_concept("C10", self._catalog())
        with pytest.raises(WrongLevel):
            expand_concept("C0", self._catalog())

    def test_unresolved_related_skipped(self):
        catalog = catalog_of([_concept("C1", 1)])
        # no stub information at all for a dangling id
        catalog.entries["C1"] = catalog.entries["C1"].__class__(
            concept_id="C1", display_name="C1", level=1, related=("C404",)
        )
        assert expand_concept("C1", catalog) == {"C1"}

    def test_stub_entries_from_related_lists(self):
        catalog = catalog_of([_concept("C1", 1, [("C10", 2)])])
        stub = catalog.get("C10")
        assert stub is not None and stub.stub and stub.level == 2
        # stub has no outgoing links, so expansion stops there
        assert expand_concept("C1", catalog) == {"C1", "C10"}

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            expand_concept("C1", self._catalog(), mode="recursive")

    def test_url_form_ids(self):
        assert "C1" in self._catalog()
        assert self._catalog().get("https://openalex.org/C10").concept_id == "C10"


class TestWorksQuery:
    def test_canonicalization(self):
        q = WorksQuery(("https://openalex.org/C2", "C1", "C2"), 1990, 2000)
        assert q.concept_ids == ("C1", "C2")

    def test_validation(self):
        with pytest.raises(ValueError):
            WorksQuery((), 1990, 2000)
        with pytest.raises(ValueError):
            WorksQuery(("C1",), 2001, 2000)
        with pytest.raises(ValueError):
            WorksQuery(("C1",), 1990, 2000, per_page=0)

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


class TestFingerprint:
    def test_mailto_excluded(self):
        a = fingerprint("works", {"filter": "x", "cursor": "*"})
        b = fingerprint("works", {"filter": "x", "cursor": "*", "mailto": "a@b.c"})
        assert a == b

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
        assert cache.is_empty()
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, b'{"x":1}', "works", {"cursor": "*", "mailto": "p@q.r"})
        assert cache.get("ab" * 32) == b'{"x":1}'
        assert not cache.is_empty()
        assert cache.fingerprints() == ["ab" * 32]

    def test_meta_sidecar(self, tmp_path):
        cache = PageCache(tmp_path)
        cache.put("cd" * 32, b"{}", "works", {"cursor": "*", "mailto": "p@q.r"})
        meta = json.loads((tmp_path / ("cd" * 32 + ".meta.json")).read_text())
        assert meta["endpoint"] == "works"
        assert "mailto" not in meta["params"]
        assert meta["sha256"] == __import__("hashlib").sha256(b"{}").hexdigest()


class TestTokenBucket:
    def test_burst_then_wait(self):
        clock = {"t": 0.0}
        sleeps = []

        def fake_sleep(s):
            sleeps.append(s)
            clock["t"] += s

        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=lambda: clock["t"], sleep=fake_sleep)
        bucket.take()
        bucket.take()
        assert sleeps == []
        bucket.take()
        assert sleeps == [pytest.approx(0.5)]

    def test_refill(self):
        clock = {"t": 0.0}
        bucket = TokenBucket(rate=4.0, capacity=1.0, clock=lambda: clock["t"], sleep=lambda s: None)
        bucket.take()
        clock["t"] += 0.25
        bucket.take()  # exactly one token refilled; no sleep path asserted via no exception

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)


def _client(transport, tmp_path, **kwargs):
    kwargs.setdefault("rate_limit", 10000.0)
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("mailto", None)
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

    def test_offline_miss_raises(self, tmp_path):
        client = _client(None, tmp_path)
        with pytest.raises(MissingFixtures):
            client.fetch_page(WorksQuery(("C1",), 1990, 1991))

    def test_retry_on_429_then_success(self, tmp_path):
        sleeps = []
        transport = ScriptedTransport(
            [TransportResponse(429, b""), _ok(EMPTY_PAGE)]
        )
        client = _client(transport, tmp_path, sleep=sleeps.append, backoff=0.5)
        client.fetch_page(WorksQuery(("C1",), 1990, 1991))
        assert transport.calls == 2
        assert sleeps == [0.5]

    def test_rate_limited_after_retries(self, tmp_path):
        transport = ScriptedTransport([TransportResponse(429, b"")] * 4)
        client = _client(transport, tmp_path, max_retries=3)
        with pytest.raises(RateLimited):
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

    @pytest.mark.parametrize(
        "fetch, body",
        [
            (lambda c: c.fetch_page(WorksQuery(("C1",), 1990, 1991)), b"not json"),
            (lambda c: c.fetch_page(WorksQuery(("C1",), 1990, 1991)), b'{"results": "x"}'),
            (lambda c: c.fetch_concept("C1"), b"[]"),
        ],
        ids=["not-json", "works-not-a-page", "concept-not-an-object"],
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
        offline = OpenAlexClient(PageCache(tmp_path / "cache"), None, mailto=None)
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
        ],
    )
    def test_parse_errors(self, body):
        with pytest.raises(ParseError):
            parse_works_page(body)


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
        pages = list(client.pages(WorksQuery(("C1",), 1990, 1991, per_page=2)))
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
        q = WorksQuery(("C1",), 1990, 1991, per_page=2)
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


class TestCrawl:
    def test_crawl_synthetic_graph(self, tmp_path):
        client = _client(SyntheticOpenAlexTransport(), tmp_path)
        catalog = crawl_concepts(client, "C100")
        fetched = {cid for cid, c in catalog.entries.items() if not c.stub}
        assert fetched == {"C100", "C110", "C120", "C111", "C121"}
        # shallow neighbors stay stubs and are never fetched
        assert catalog.get("C900").stub and catalog.get("C001").stub

    def test_catalog_from_cache(self, tmp_path):
        client = _client(SyntheticOpenAlexTransport(), tmp_path)
        crawl_concepts(client, "C100")
        rebuilt = catalog_from_cache(client.cache)
        assert "C100" in rebuilt and rebuilt.get("C100").level == 1
        assert "C110" in rebuilt
        assert "C999" not in rebuilt


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

    def test_malformed_items_skipped(self, tmp_path):
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
            {"id": "W3", "publication_year": 1990, "type": "article", "authorships": []},
        ]
        transport = ScriptedTransport(
            [_ok({"meta": {"next_cursor": None}, "results": works})]
        )
        client = _client(transport, tmp_path)
        records = list(harvest(client, "C1", ["C1"], 1990, 1990))
        assert [r.work_id for r in records] == ["W1", "W3"]

    def test_deterministic_replay_from_cache(self, tmp_path):
        transport = SyntheticOpenAlexTransport()
        client = _client(transport, tmp_path)
        first = list(harvest(client, "C100", ["C100", "C110"], 1971, 1975))
        calls = transport.calls
        offline = OpenAlexClient(client.cache, None)
        second = list(harvest(offline, "C100", ["C100", "C110"], 1971, 1975))
        assert first == second
        assert transport.calls == calls
