"""OpenAlex harvesting: concept expansion, query canonicalization, a
fingerprinted page cache, and a polite rate-limited client.

Every page request is identified by a fingerprint of its canonical query,
and responses are cached verbatim on disk, so a harvest replayed against a
warm cache touches the network zero times and yields identical records. A
cached page is served only if it still matches the sha256 in its sidecar.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Protocol, TypeVar

from .corpus import COUNTRY_KEY, VALID_KEYS, WorkRecord, work_from_metadata
from .errors import (
    MissingFixtures,
    ParseError,
    RateLimited,
    TransportError,
    WrongLevel,
)
from .fsio import json_text, write_bytes_atomic

log = logging.getLogger(__name__)

OPENALEX_BASE = "https://api.openalex.org"
MAILTO_ENV = "OPENALEX_MAILTO"
DEFAULT_RATE_LIMIT = 8.0
MAX_RETRIES = 3
BACKOFF_S = 0.5
TIMEOUT_S = 30.0
DEFAULT_PER_PAGE = 200
CURSOR_START = "*"

ROOT_LEVEL = 1
MIN_EXPANSION_LEVEL = 2
EXPANSION_MODES = ("transitive", "one-hop")

T = TypeVar("T")


def normalize_concept_id(concept_id: str) -> str:
    """Reduce a concept id or its canonical URL to the bare C-number."""
    return concept_id.rstrip("/").rsplit("/", 1)[-1]


@dataclass(frozen=True)
class Concept:
    """One taxonomy node and the (id, level) pairs of its related list."""

    concept_id: str
    level: int
    related: tuple[tuple[str, int], ...] = ()


def expand_concept(
    root_id: str,
    fetch: Callable[[str], Concept],
    mode: str = "transitive",
) -> frozenset[str]:
    """Concept ids spanned by a discipline root.

    ``fetch`` maps a concept id to its Concept. The root must be a
    level-1 concept. Expansion selects the related concepts listed at
    level >= 2 (level-0 domains and sibling level-1 roots are pruned and
    not traversed). "one-hop" stops at the root's direct neighbors and
    fetches nothing but the root; "transitive" fetches every newly
    selected concept and follows its related list.
    """
    if mode not in EXPANSION_MODES:
        raise ValueError(f"unknown expansion mode {mode!r}")
    root = normalize_concept_id(root_id)
    concept = fetch(root)
    if concept.level != ROOT_LEVEL:
        raise WrongLevel(
            f"{root} has level {concept.level}, discipline roots have level {ROOT_LEVEL}"
        )
    selected = {root}
    frontier = [concept]
    while frontier:
        for rid, level in frontier.pop().related:
            if level < MIN_EXPANSION_LEVEL or rid in selected:
                continue
            selected.add(rid)
            if mode == "transitive":
                frontier.append(fetch(rid))
    return frozenset(selected)


@dataclass(frozen=True)
class WorksQuery:
    """Canonical works request: sorted concept filter, inclusive years."""

    concept_ids: tuple[str, ...]
    year_from: int
    year_to: int
    cursor: str = CURSOR_START

    def __post_init__(self) -> None:
        ids = tuple(sorted({normalize_concept_id(c) for c in self.concept_ids}))
        if not ids:
            raise ValueError("query needs at least one concept id")
        object.__setattr__(self, "concept_ids", ids)
        if self.year_from > self.year_to:
            raise ValueError("empty year range")


def query_params(query: WorksQuery) -> dict[str, str]:
    filt = ",".join(
        [
            "concepts.id:" + "|".join(query.concept_ids),
            f"from_publication_date:{query.year_from}-01-01",
            f"to_publication_date:{query.year_to}-12-31",
        ]
    )
    return {
        "filter": filt,
        "per-page": str(DEFAULT_PER_PAGE),
        "cursor": query.cursor,
    }


def fingerprint(endpoint: str, params: Mapping[str, str]) -> str:
    """Stable id of one page request.

    The mailto courtesy parameter is excluded, so cached pages are shared
    across contact addresses.
    """
    parts = [endpoint]
    for key in sorted(params):
        if key == "mailto":
            continue
        parts.append(f"{key}={params[key]}")
    canonical = "?".join([parts[0], "&".join(parts[1:])])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class PageCache:
    """Verbatim response store: <fingerprint>.json plus a .meta.json
    sidecar describing the request that produced it and the sha256 of
    the stored bytes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._root_made = False

    def path_for(self, fp: str) -> Path:
        return self.root / f"{fp}.json"

    def sidecar_for(self, fp: str) -> Path:
        return self.root / f"{fp}.meta.json"

    def get(self, fp: str) -> bytes | None:
        path = self.path_for(fp)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def meta(self, fp: str) -> dict | None:
        """The page's sidecar, or None if it is missing or unreadable."""
        try:
            meta = json.loads(self.sidecar_for(fp).read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def put(self, fp: str, payload: bytes, endpoint: str, params: Mapping[str, str]) -> str:
        """Store a page and its sidecar; returns the sha256 recorded there.
        The cache directory is made on the first put."""
        if not self._root_made:
            self.root.mkdir(parents=True, exist_ok=True)
            self._root_made = True
        digest = write_bytes_atomic(self.path_for(fp), payload)
        meta = {
            "endpoint": endpoint,
            "params": {k: v for k, v in params.items() if k != "mailto"},
            "sha256": digest,
        }
        write_bytes_atomic(self.sidecar_for(fp), json_text(meta) + "\n")
        return digest

    def _page_names(self) -> Iterator[str]:
        """Fingerprints of the stored pages, in directory order: every
        ``*.json`` but the ``.meta.json`` sidecars. A missing or unreadable
        root holds none."""
        try:
            entries = os.scandir(self.root)
        except OSError:
            return
        with entries:
            for entry in entries:
                name = entry.name
                if name.endswith(".json") and not name.endswith(".meta.json"):
                    yield name[: -len(".json")]

    def fingerprints(self) -> list[str]:
        return sorted(self._page_names())

    def is_empty(self) -> bool:
        """Whether the cache holds no page; reads only up to the first one."""
        return next(self._page_names(), None) is None


class TokenBucket:
    """Blocking token bucket on a monotonic clock; it holds at most
    ``max(1, rate)`` tokens."""

    def __init__(self, rate: float, clock=time.monotonic, sleep=time.sleep):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.capacity = max(1.0, self.rate)
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()

    def take(self) -> None:
        """Wait until a token is available and take it."""
        while True:
            now = self._clock()
            self._tokens = min(
                self.capacity, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            self._sleep((1.0 - self._tokens) / self.rate)


@dataclass(frozen=True)
class TransportResponse:
    status: int
    body: bytes


class HttpTransport(Protocol):
    def get(self, url: str, params: Mapping[str, str]) -> TransportResponse: ...


class RequestsTransport:
    """Thin synchronous HTTP adapter."""

    def __init__(self):
        import requests

        self._session = requests.Session()

    def get(self, url: str, params: Mapping[str, str]) -> TransportResponse:
        resp = self._session.get(url, params=dict(params), timeout=TIMEOUT_S)
        return TransportResponse(status=resp.status_code, body=resp.content)


@dataclass(frozen=True)
class ParsedPage:
    """One decoded works page: raw work items and the next cursor."""

    works: tuple[Mapping, ...]
    next_cursor: str | None


def parse_works_page(body: bytes) -> ParsedPage:
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        raise ParseError("works page lacks a results list")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ParseError(f"works page meta is not an object: {meta!r}")
    cursor = meta.get("next_cursor")
    if cursor is not None and not isinstance(cursor, str):
        raise ParseError(f"works page next_cursor is not a string: {cursor!r}")
    return ParsedPage(
        works=tuple(doc["results"]),
        next_cursor=cursor or None,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_concept_page(body: bytes) -> Concept:
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"concept page is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("concept page is not an object")
    cid, level = doc.get("id"), doc.get("level")
    if not isinstance(cid, str) or not cid:
        raise ParseError(f"concept page: id {cid!r} is not a non-empty string")
    if not _is_int(level):
        raise ParseError(f"concept page: level {level!r} is not an int")
    related = doc.get("related_concepts", [])
    if not isinstance(related, list) or not all(isinstance(i, dict) for i in related):
        raise ParseError("concept page: related_concepts is not a list of objects")
    links = []
    for item in related:
        rlevel = item.get("level", 0)
        if not _is_int(rlevel):
            raise ParseError(f"concept page: related level {rlevel!r} is not an int")
        if item.get("id"):
            links.append((normalize_concept_id(str(item["id"])), rlevel))
    return Concept(normalize_concept_id(cid), level, tuple(links))


class OpenAlexClient:
    """Cache-first client with rate limiting and bounded retries.

    With ``transport=None`` the client is strictly offline: a cache miss
    raises MissingFixtures instead of touching the network.
    """

    def __init__(
        self,
        cache: PageCache,
        transport: HttpTransport | None = None,
        rate_limit: float = DEFAULT_RATE_LIMIT,
        mailto: str | None = None,
        sleep=time.sleep,
    ):
        self.cache = cache
        self.transport = transport
        self.bucket = TokenBucket(rate_limit, sleep=sleep)
        self.mailto = mailto if mailto is not None else os.environ.get(MAILTO_ENV)
        self._sleep = sleep
        self.pages_from_cache = 0  # pages read from the cache
        self.pages_fetched = 0  # pages downloaded, then cached
        self.network_calls = 0  # transport requests, retries included
        self.duplicate_ids_dropped = 0  # work items harvest dropped as repeats
        self.malformed_items_skipped = 0  # work items harvest could not read
        # failed transport attempts that were retried or ran out of retries:
        # HTTP status as a string, or "exception" for a raised transport error
        self.retries_by_status: Counter[str] = Counter()
        self.consumed: dict[str, str] = {}

    def _fetch(self, endpoint: str, params: Mapping[str, str], decode: Callable[[bytes], T]) -> T:
        """The page for one request, as ``decode`` returns it.

        A cached page must match the sha256 in its sidecar. A downloaded
        page is cached only once ``decode`` has accepted it.
        """
        fp = fingerprint(endpoint, params)
        cached = self.cache.get(fp)
        if cached is not None:
            digest = hashlib.sha256(cached).hexdigest()
            meta = self.cache.meta(fp)
            if meta is None:
                raise ParseError(
                    f"cached page {fp} has no readable sidecar"
                    f" {self.cache.sidecar_for(fp)}; delete {self.cache.path_for(fp)}"
                    " and fetch it again online"
                )
            if meta.get("sha256") != digest:
                raise ParseError(f"cached page {fp} does not match the sha256 in its sidecar")
            self.consumed[fp] = digest
            self.pages_from_cache += 1
            return decode(cached)
        if self.transport is None:
            raise MissingFixtures(
                f"offline run: no cached page for {endpoint} (fingerprint {fp[:12]})"
            )
        send_params = dict(params)
        if self.mailto:
            send_params["mailto"] = self.mailto
        url = f"{OPENALEX_BASE}/{endpoint}"
        failure: TransportError | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self._sleep(BACKOFF_S * 2 ** (attempt - 1))
            self.bucket.take()
            self.network_calls += 1
            try:
                resp = self.transport.get(url, send_params)
            except Exception as exc:
                self.retries_by_status["exception"] += 1
                failure = TransportError(f"{endpoint}: {exc}")
                continue
            if resp.status == 200:
                page = decode(resp.body)
                self.consumed[fp] = self.cache.put(fp, resp.body, endpoint, params)
                self.pages_fetched += 1
                return page
            if resp.status == 429:
                failure = RateLimited(f"{endpoint}: rate limited (HTTP 429)")
            elif 500 <= resp.status < 600:
                failure = TransportError(f"{endpoint}: HTTP {resp.status}")
            else:
                raise TransportError(f"{endpoint}: HTTP {resp.status}")
            self.retries_by_status[str(resp.status)] += 1
        assert failure is not None
        raise failure

    def fetch_concept(self, concept_id: str) -> Concept:
        cid = normalize_concept_id(concept_id)
        return self._fetch(f"concepts/{cid}", {}, parse_concept_page)

    def fetch_page(self, query: WorksQuery) -> ParsedPage:
        # parse_works_page is read from the module on every call, so a
        # wrapper set on the module attribute sees every works page
        return self._fetch("works", query_params(query), parse_works_page)

    def pages(self, query: WorksQuery) -> Iterator[ParsedPage]:
        """Follow cursor pagination until the server stops handing out
        cursors."""
        cursor = query.cursor
        seen = {cursor}
        while True:
            page = self.fetch_page(replace(query, cursor=cursor))
            yield page
            if page.next_cursor is None:
                return
            if page.next_cursor in seen:
                raise ParseError(f"cursor loop at {page.next_cursor!r}")
            cursor = page.next_cursor
            seen.add(cursor)


def harvest(
    client: OpenAlexClient,
    discipline_id: str,
    concept_ids: Iterable[str],
    year_from: int,
    year_to: int,
    journal_only: bool = False,
    key: str = COUNTRY_KEY,
) -> Iterator[WorkRecord]:
    """Stream deduplicated WorkRecords for a discipline's concept set.

    Each record is built by ``work_from_metadata`` with ``key``, so it
    holds only that key's entity set. Works are deduplicated by id (first
    occurrence wins). An empty year range yields nothing. Items that
    cannot be turned into a record are skipped with a warning rather than
    aborting the stream. The client counts the duplicates dropped and the
    items skipped. A key outside VALID_KEYS raises ValueError before any
    page is read.
    """
    if key not in VALID_KEYS:  # else every item would be skipped as malformed
        raise ValueError(f"unknown aggregation key {key!r}")
    if year_from > year_to:
        return
    query = WorksQuery(
        concept_ids=tuple(concept_ids), year_from=year_from, year_to=year_to
    )
    seen: set[str] = set()
    for page in client.pages(query):
        for raw in page.works:
            try:
                record = work_from_metadata(raw, discipline_id, key)
            except ValueError as exc:
                log.warning("skipping malformed work item: %s", exc)
                client.malformed_items_skipped += 1
                continue
            if record.work_id in seen:
                client.duplicate_ids_dropped += 1
                continue
            seen.add(record.work_id)
            if journal_only and not record.is_journal_article:
                continue
            yield record
