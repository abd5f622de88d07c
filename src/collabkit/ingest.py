"""OpenAlex harvesting: concept catalog, query canonicalization, a
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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Protocol, TypeVar

from .corpus import WorkRecord, work_from_metadata
from .errors import (
    MissingFixtures,
    ParseError,
    RateLimited,
    TransportError,
    UnknownConcept,
    WrongLevel,
)
from .fsio import write_bytes_atomic

log = logging.getLogger(__name__)

OPENALEX_BASE = "https://api.openalex.org"
MAILTO_ENV = "OPENALEX_MAILTO"
DEFAULT_RATE_LIMIT = 8.0
DEFAULT_PER_PAGE = 200
CURSOR_START = "*"

ROOT_LEVEL = 1
MIN_EXPANSION_LEVEL = 2

T = TypeVar("T")


def normalize_concept_id(concept_id: str) -> str:
    """Reduce a concept id or its canonical URL to the bare C-number."""
    return concept_id.rstrip("/").rsplit("/", 1)[-1]


@dataclass(frozen=True)
class Concept:
    """One taxonomy node. ``stub`` entries come from a neighbor's related
    list and carry no related links of their own."""

    concept_id: str
    display_name: str
    level: int
    related: tuple[str, ...] = ()
    stub: bool = False


def concept_from_payload(payload: Mapping) -> Concept:
    cid = payload.get("id")
    level = payload.get("level")
    if not cid or not isinstance(level, int):
        raise ParseError("concept payload lacks id or level")
    related = tuple(
        normalize_concept_id(str(item["id"]))
        for item in payload.get("related_concepts") or ()
        if item.get("id")
    )
    return Concept(
        concept_id=normalize_concept_id(str(cid)),
        display_name=str(payload.get("display_name") or ""),
        level=level,
        related=related,
    )


@dataclass
class ConceptCatalog:
    """Id-indexed collection of concepts plus stubs for their neighbors."""

    entries: dict[str, Concept] = field(default_factory=dict)

    def add_payload(self, payload: Mapping) -> Concept:
        concept = concept_from_payload(payload)
        self.entries[concept.concept_id] = concept
        for item in payload.get("related_concepts") or ():
            rid = normalize_concept_id(str(item.get("id") or ""))
            if rid and rid not in self.entries:
                self.entries[rid] = Concept(
                    concept_id=rid,
                    display_name=str(item.get("display_name") or ""),
                    level=int(item.get("level") or 0),
                    stub=True,
                )
        return concept

    def get(self, concept_id: str) -> Concept | None:
        return self.entries.get(normalize_concept_id(concept_id))

    def __contains__(self, concept_id: str) -> bool:
        return self.get(concept_id) is not None


def expand_concept(
    root_id: str,
    catalog: ConceptCatalog,
    mode: str = "transitive",
) -> frozenset[str]:
    """Concept ids spanned by a discipline root.

    The root must be a level-1 concept. Expansion walks related links,
    keeping only concepts of level >= 2 (level-0 domains and sibling
    level-1 roots are pruned and not traversed). "one-hop" stops at the
    root's direct neighbors; "transitive" follows related links through
    every kept concept. Related ids missing from the catalog are skipped.
    """
    if mode not in ("transitive", "one-hop"):
        raise ValueError(f"unknown expansion mode {mode!r}")
    root = normalize_concept_id(root_id)
    concept = catalog.get(root)
    if concept is None:
        raise UnknownConcept(root)
    if concept.level != ROOT_LEVEL:
        raise WrongLevel(
            f"{root} has level {concept.level}, discipline roots have level {ROOT_LEVEL}"
        )
    selected = {root}
    frontier = [root]
    while frontier:
        current = catalog.get(frontier.pop())
        if current is None:
            continue
        for rid in current.related:
            neighbor = catalog.get(rid)
            if neighbor is None:
                log.warning("skipping unresolved related concept %s", rid)
                continue
            if neighbor.level < MIN_EXPANSION_LEVEL or rid in selected:
                continue
            selected.add(rid)
            if mode == "transitive":
                frontier.append(rid)
    return frozenset(selected)


@dataclass(frozen=True)
class WorksQuery:
    """Canonical works request: sorted concept filter, inclusive years."""

    concept_ids: tuple[str, ...]
    year_from: int
    year_to: int
    per_page: int = DEFAULT_PER_PAGE
    cursor: str = CURSOR_START

    def __post_init__(self) -> None:
        ids = tuple(sorted({normalize_concept_id(c) for c in self.concept_ids}))
        if not ids:
            raise ValueError("query needs at least one concept id")
        object.__setattr__(self, "concept_ids", ids)
        if self.year_from > self.year_to:
            raise ValueError("empty year range")
        if not 1 <= self.per_page <= 200:
            raise ValueError("per_page must be in 1..200")


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
        "per-page": str(query.per_page),
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

    def path_for(self, fp: str) -> Path:
        return self.root / f"{fp}.json"

    def get(self, fp: str) -> bytes | None:
        path = self.path_for(fp)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def meta(self, fp: str) -> dict | None:
        """The page's sidecar, or None if it is missing or unreadable."""
        try:
            meta = json.loads((self.root / f"{fp}.meta.json").read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def put(self, fp: str, payload: bytes, endpoint: str, params: Mapping[str, str]) -> str:
        """Store a page and its sidecar; returns the sha256 recorded there."""
        digest = hashlib.sha256(payload).hexdigest()
        meta = {
            "endpoint": endpoint,
            "params": {k: v for k, v in sorted(params.items()) if k != "mailto"},
            "sha256": digest,
        }
        write_bytes_atomic(self.path_for(fp), payload)
        write_bytes_atomic(
            self.root / f"{fp}.meta.json",
            (json.dumps(meta, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        return digest

    def fingerprints(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name[: -len(".json")]
            for p in self.root.glob("*.json")
            if not p.name.endswith(".meta.json")
        )

    def is_empty(self) -> bool:
        return not self.fingerprints()


class TokenBucket:
    """Blocking token bucket on a monotonic clock."""

    def __init__(
        self,
        rate: float,
        capacity: float | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.capacity = float(capacity) if capacity is not None else max(1.0, rate)
        self._tokens = self.capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()

    def take(self, tokens: float = 1.0) -> None:
        while True:
            now = self._clock()
            self._tokens = min(
                self.capacity, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return
            self._sleep((tokens - self._tokens) / self.rate)


@dataclass(frozen=True)
class TransportResponse:
    status: int
    body: bytes


class HttpTransport(Protocol):
    def get(self, url: str, params: Mapping[str, str]) -> TransportResponse: ...


class RequestsTransport:
    """Thin synchronous HTTP adapter."""

    def __init__(self, timeout: float = 30.0):
        import requests

        self._session = requests.Session()
        self._timeout = timeout

    def get(self, url: str, params: Mapping[str, str]) -> TransportResponse:
        resp = self._session.get(url, params=dict(params), timeout=self._timeout)
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


def parse_concept_page(body: bytes) -> dict:
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"concept page is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("concept page is not an object")
    return doc


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
        max_retries: int = 3,
        backoff: float = 0.5,
        mailto: str | None = None,
        sleep=time.sleep,
    ):
        self.cache = cache
        self.transport = transport
        self.bucket = TokenBucket(rate_limit, sleep=sleep)
        self.max_retries = max_retries
        self.backoff = backoff
        self.mailto = mailto if mailto is not None else os.environ.get(MAILTO_ENV)
        self._sleep = sleep
        self.network_calls = 0
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
            if meta is None or meta.get("sha256") != digest:
                raise ParseError(f"cached page {fp} does not match the sha256 in its sidecar")
            self.consumed[fp] = digest
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
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(self.backoff * 2 ** (attempt - 1))
            self.bucket.take()
            self.network_calls += 1
            try:
                resp = self.transport.get(url, send_params)
            except Exception as exc:
                failure = TransportError(f"{endpoint}: {exc}")
                continue
            if resp.status == 200:
                page = decode(resp.body)
                self.consumed[fp] = self.cache.put(fp, resp.body, endpoint, params)
                return page
            if resp.status == 429:
                failure = RateLimited(f"{endpoint}: rate limited (HTTP 429)")
                continue
            if 500 <= resp.status < 600:
                failure = TransportError(f"{endpoint}: HTTP {resp.status}")
                continue
            raise TransportError(f"{endpoint}: HTTP {resp.status}")
        assert failure is not None
        raise failure

    def fetch_concept(self, concept_id: str) -> dict:
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


def catalog_from_cache(cache: PageCache) -> ConceptCatalog:
    """Rebuild a concept catalog from every cached concepts/ page.

    Lets offline validation check discipline ids without any network;
    unparseable entries are simply skipped.
    """
    catalog = ConceptCatalog()
    for fp in cache.fingerprints():
        meta = cache.meta(fp)
        if meta is None or not str(meta.get("endpoint") or "").startswith("concepts/"):
            continue
        body = cache.get(fp)
        if body is None:
            continue
        try:
            catalog.add_payload(parse_concept_page(body))
        except ParseError:
            continue
    return catalog


def crawl_concepts(client: OpenAlexClient, root_id: str) -> ConceptCatalog:
    """Fetch the root concept and, transitively, every related concept of
    level >= 2, recording shallower neighbors as stubs."""
    catalog = ConceptCatalog()
    queue = [normalize_concept_id(root_id)]
    fetched: set[str] = set()
    while queue:
        cid = queue.pop(0)
        if cid in fetched:
            continue
        fetched.add(cid)
        concept = catalog.add_payload(client.fetch_concept(cid))
        for rid in concept.related:
            neighbor = catalog.get(rid)
            if (
                neighbor is not None
                and neighbor.level >= MIN_EXPANSION_LEVEL
                and rid not in fetched
            ):
                queue.append(rid)
    return catalog


def harvest(
    client: OpenAlexClient,
    discipline_id: str,
    concept_ids: Iterable[str],
    year_from: int,
    year_to: int,
    journal_only: bool = False,
) -> Iterator[WorkRecord]:
    """Stream deduplicated WorkRecords for a discipline's concept set.

    Works are deduplicated by id (first occurrence wins). An empty year
    range yields nothing. Items that cannot be turned into a record are
    skipped with a warning rather than aborting the stream.
    """
    if year_from > year_to:
        return
    query = WorksQuery(
        concept_ids=tuple(concept_ids), year_from=year_from, year_to=year_to
    )
    seen: set[str] = set()
    for page in client.pages(query):
        for raw in page.works:
            try:
                record = work_from_metadata(raw, discipline_id)
            except ValueError as exc:
                log.warning("skipping malformed work item: %s", exc)
                continue
            if record.work_id in seen:
                continue
            seen.add(record.work_id)
            if journal_only and not record.is_journal_article:
                continue
            yield record
