"""OpenAlex harvesting: concept expansion, query canonicalization, a
fingerprinted page cache, and a polite rate-limited client.

Every page request is identified by a fingerprint of its canonical query,
and responses are cached verbatim on disk, so a harvest replayed against a
warm cache touches the network zero times and yields identical records. Only
``PageCache`` reads or writes a cached page, and it serves only verified ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Protocol, TypeVar

import numpy as np

from .corpus import COUNTRY_KEY, VALID_KEYS, WorkRecord, work_from_metadata
from .errors import ConfigError, MissingFixtures, ParseError, TransportError
from .fsio import json_text, write_new

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

    ``fetch`` maps a concept id to its Concept. A root that is not a
    level-1 concept raises ConfigError before anything else is fetched.
    Expansion selects the related concepts listed at level >= 2 (level-0
    domains and sibling level-1 roots are pruned and not traversed).
    "one-hop" stops at the root's direct neighbors and
    fetches nothing but the root; "transitive" fetches every newly
    selected concept and follows its related list.
    """
    if mode not in EXPANSION_MODES:
        raise ValueError(f"unknown expansion mode {mode!r}")
    root = normalize_concept_id(root_id)
    concept = fetch(root)
    if concept.level != ROOT_LEVEL:
        raise ConfigError(
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
    """Canonical works request: sorted concept filter, inclusive years.
    Each page's cursor is passed beside it."""

    concept_ids: tuple[str, ...]
    year_from: int
    year_to: int

    def __post_init__(self) -> None:
        ids = tuple(sorted({normalize_concept_id(c) for c in self.concept_ids}))
        if not ids:
            raise ValueError("query needs at least one concept id")
        object.__setattr__(self, "concept_ids", ids)
        if self.year_from > self.year_to:
            raise ValueError("empty year range")


def query_params(query: WorksQuery, cursor: str = CURSOR_START) -> dict[str, str]:
    """Request parameters of ``query``'s page at ``cursor`` (the first page)."""
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
        "cursor": cursor,
    }


def fingerprint(endpoint: str, params: Mapping[str, str]) -> str:
    """Stable id of one page request: every one of ``params`` counts."""
    query = "&".join(f"{key}={params[key]}" for key in sorted(params))
    return hashlib.sha256(f"{endpoint}?{query}".encode("utf-8")).hexdigest()


class PageCache:
    """Verbatim response store, and the only code that reads or writes it:
    <fingerprint>.json plus a .meta.json sidecar describing the request
    that produced it and the sha256 of the stored bytes."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._root_made = False

    def path_for(self, fp: str) -> Path:
        return self.root / f"{fp}.json"

    def sidecar_for(self, fp: str) -> Path:
        return self.root / f"{fp}.meta.json"

    def get(self, fp: str) -> tuple[bytes, dict] | None:
        """The stored page and its sidecar, or None if no page is stored. A
        page with no readable sidecar, with a sidecar whose ``endpoint``
        and ``params`` are not the request ``fp`` fingerprints, or with
        another sha256, raises ParseError."""
        page = self.path_for(fp)
        try:
            body = page.read_bytes()
        except FileNotFoundError:
            return None
        sidecar = self.meta(fp)
        if sidecar is None:
            raise ParseError(
                f"cached page {fp} has no readable sidecar"
                f" {self.sidecar_for(fp)}; delete {page} and fetch it again online"
            )
        endpoint, params = sidecar.get("endpoint"), sidecar.get("params")
        if not (
            isinstance(endpoint, str)
            and isinstance(params, dict)
            and all(isinstance(value, str) for value in params.values())
        ):
            raise ParseError(f"cached page {fp}: its sidecar names no request")
        if (filed := fingerprint(endpoint, params)) != fp:
            raise ParseError(
                f"cached page {fp} answers another request: its sidecar's request"
                f" has fingerprint {filed}"
            )
        if sidecar.get("sha256") != hashlib.sha256(body).hexdigest():
            raise ParseError(f"cached page {fp} does not match the sha256 in its sidecar")
        return body, sidecar

    def meta(self, fp: str) -> dict | None:
        """The page's sidecar, or None if it is missing or unreadable."""
        try:
            meta = json.loads(self.sidecar_for(fp).read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def put(self, fp: str, payload: bytes, endpoint: str, params: Mapping[str, str]) -> str:
        """Store a page and its sidecar; returns the sha256 recorded there.
        The cache directory is made on the first put.

        Both are written under temp names, ``.<name>.<12 hex>``, and the
        sidecar is renamed into place first, so a write cut short leaves at
        most a sidecar without its page, which is a miss. A failed put
        removes its temp files.
        """
        if not self._root_made:
            self.root.mkdir(parents=True, exist_ok=True)
            self._root_made = True
        page, sidecar = self.path_for(fp), self.sidecar_for(fp)
        page_tmp, sidecar_tmp = (
            path.parent / f".{path.name}.{os.urandom(6).hex()}" for path in (page, sidecar)
        )
        try:
            digest = write_new(page_tmp, payload)
            meta = {"endpoint": endpoint, "params": dict(params), "sha256": digest}
            write_new(sidecar_tmp, json_text(meta) + "\n")
            os.replace(sidecar_tmp, sidecar)
            os.replace(page_tmp, page)
        except BaseException:
            page_tmp.unlink(missing_ok=True)
            sidecar_tmp.unlink(missing_ok=True)
            raise
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
    """Decode a works page: an object with a ``results`` list and a
    ``meta`` object holding ``next_cursor``, which is null on the last page
    of a chain and a non-empty string on every other. Anything else raises
    ParseError."""
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        raise ParseError("works page lacks a results list")
    meta = doc.get("meta")
    if not isinstance(meta, dict) or "next_cursor" not in meta:
        # a page without a cursor would end the chain, however many follow
        raise ParseError(f"works page meta is not an object holding next_cursor: {meta!r}")
    cursor = meta["next_cursor"]
    if cursor is not None and (not isinstance(cursor, str) or not cursor):
        raise ParseError(f"works page next_cursor is not a non-empty string: {cursor!r}")
    return ParsedPage(works=tuple(doc["results"]), next_cursor=cursor)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_concept_page(body: bytes) -> Concept:
    """Decode a concept page: an object with a non-empty string ``id``, an
    int ``level`` and ``related_concepts``, a list of objects, where null
    or a missing key means none. A related entry with a null or missing
    ``id`` is skipped; any other must have a non-empty string ``id`` and
    an int ``level``, since the level decides whether expansion selects
    it. Anything else raises ParseError; a bool is not an int."""
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
    related = doc.get("related_concepts")
    if related is None:
        related = []
    if not isinstance(related, list) or not all(isinstance(i, dict) for i in related):
        raise ParseError("concept page: related_concepts is not a list of objects")
    links = []
    for item in related:
        rid = item.get("id")
        if rid is None:
            continue
        if not isinstance(rid, str) or not rid:
            raise ParseError(f"concept page: related id {rid!r} is not a non-empty string")
        rlevel = item.get("level")
        if not _is_int(rlevel):
            raise ParseError(f"concept page: related concept {rid} level {rlevel!r} is not an int")
        links.append((normalize_concept_id(rid), rlevel))
    return Concept(normalize_concept_id(cid), level, tuple(links))


class OpenAlexClient:
    """Cache-first client with rate limiting and bounded retries.

    With ``transport=None`` the client is strictly offline: a cache miss
    raises MissingFixtures instead of touching the network. The contact
    address in ``OPENALEX_MAILTO`` is added only to the request sent, never
    to the fingerprint or the sidecar, so cached pages are shared across
    contact addresses. ``PageCache.get`` verifies each cached page, so the
    client holds no check of the cache's files. ``consumed`` maps each page
    read to its sha256; ``ingest`` counts what it read, keyed and shaped as
    the manifest's ``ingest`` stanza.
    """

    def __init__(
        self,
        cache: PageCache,
        transport: HttpTransport | None = None,
        rate_limit: float = DEFAULT_RATE_LIMIT,
        sleep=time.sleep,
    ):
        self.cache = cache
        self.transport = transport
        self.bucket = TokenBucket(rate_limit, sleep=sleep)
        self.mailto = os.environ.get(MAILTO_ENV)
        self._sleep = sleep
        self.ingest = {
            "pages_from_cache": 0,  # pages read from the cache
            "pages_fetched": 0,  # pages downloaded, then cached
            "network_calls": 0,  # transport requests, retries included
            # failed transport attempts that were retried or ran out of retries:
            # HTTP status as a string, or "exception" for a raised transport error
            "retries_by_status": Counter(),
            "duplicate_ids_dropped": 0,  # work items harvest dropped as repeats
            "malformed_items_skipped": 0,  # work items harvest could not read
        }
        self.consumed: dict[str, str] = {}

    def _fetch(self, endpoint: str, params: Mapping[str, str], decode: Callable[[bytes], T]) -> T:
        """The page for one request, as ``decode`` returns it.

        A cached page is served as ``cache.get`` verified it. A downloaded
        page is cached only once ``decode`` has accepted it.
        """
        fp = fingerprint(endpoint, params)
        cached = self.cache.get(fp)
        if cached is not None:
            body, sidecar = cached
            self.consumed[fp] = sidecar["sha256"]
            self.ingest["pages_from_cache"] += 1
            try:
                return decode(body)
            except ParseError as exc:
                raise ParseError(f"cached page {fp}: {exc}") from exc
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
            self.ingest["network_calls"] += 1
            try:
                resp = self.transport.get(url, send_params)
            except Exception as exc:
                self.ingest["retries_by_status"]["exception"] += 1
                failure = TransportError(f"{endpoint}: {exc}")
                continue
            if resp.status == 200:
                page = decode(resp.body)
                self.consumed[fp] = self.cache.put(fp, resp.body, endpoint, params)
                self.ingest["pages_fetched"] += 1
                return page
            if resp.status == 429:
                failure = TransportError(f"{endpoint}: rate limited (HTTP 429)")
            elif 500 <= resp.status < 600:
                failure = TransportError(f"{endpoint}: HTTP {resp.status}")
            else:
                raise TransportError(f"{endpoint}: HTTP {resp.status}")
            self.ingest["retries_by_status"][str(resp.status)] += 1
        assert failure is not None
        raise failure

    def fetch_concept(self, concept_id: str) -> Concept:
        """The concept page for ``concept_id``; a page that decodes to
        another concept raises ParseError, and is never cached."""
        cid = normalize_concept_id(concept_id)

        def decode(body: bytes) -> Concept:
            concept = parse_concept_page(body)
            if concept.concept_id != cid:
                raise ParseError(f"concept page for {cid} holds concept {concept.concept_id}")
            return concept

        return self._fetch(f"concepts/{cid}", {}, decode)

    def fetch_page(self, query: WorksQuery, cursor: str = CURSOR_START) -> ParsedPage:
        """``query``'s page at ``cursor`` (by default the first page)."""
        # parse_works_page is read from the module on every call, so a
        # wrapper set on the module attribute sees every works page
        return self._fetch("works", query_params(query, cursor), parse_works_page)

    def pages(self, query: WorksQuery) -> Iterator[ParsedPage]:
        """Follow cursor pagination from the first page until the server
        stops handing out cursors."""
        cursor = CURSOR_START
        seen = {cursor}
        while True:
            page = self.fetch_page(query, cursor)
            yield page
            # hold no page while the next one is read and decoded
            cursor = page.next_cursor
            del page
            if cursor is None:
                return
            if cursor in seen:
                raise ParseError(f"cursor loop at {cursor!r}")
            seen.add(cursor)


# A canonical work id is this URL and 1 to 18 ASCII digits with no leading
# zero, so its number fits an int64 and no other string has that number.
_WORK_URL = "https://openalex.org/W"
_DIGITS = 18
_TENS = 10 ** np.arange(_DIGITS - 1, -1, -1, dtype=np.int64)
# A canonical id padded with "0"s to _PADDED characters holds, column by
# column, a byte from _LOWEST to _LOWEST + _SPAN: the URL, then 1-9, then 0-9.
_PADDED = len(_WORK_URL) + _DIGITS  # 40, so a row of bytes is five 8-byte words
_LOWEST = np.frombuffer((_WORK_URL + "1".ljust(_DIGITS, "0")).encode(), np.uint8)
_SPAN = np.array([0] * len(_WORK_URL) + [8] + [9] * (_DIGITS - 1), np.uint8)
# the padding of an id of each length, as a power of ten
_PADDING = np.ones(_PADDED + 1, np.int64)
_PADDING[len(_WORK_URL) + 1 :] = _TENS
# New numbers gather in a sorted batch until it is this long. The batch
# then becomes a sorted run, and a run is merged into the one before it
# until each is under 1/_RUN_RATIO of the one before. So each number is
# merged O(log n) times, and O(log n) runs are searched, where one growing
# array would be copied once per batch.
_FOLD_AT = 4096
_RUN_RATIO = 4


class _SeenWorkIds:
    """The work ids that harvest has met. Two ids are one work only if
    their strings are equal. A canonical id is held as its number in
    sorted int64 arrays, 8 bytes each; any other id as its string."""

    def __init__(self) -> None:
        self._runs: list[np.ndarray] = []  # ascending, shrinking
        self._batch = np.empty(0, np.int64)  # ascending, under _FOLD_AT long
        self._other: set[str] = set()

    @staticmethod
    def _numbers(ids: list[str]) -> np.ndarray:
        """Each id's number if it is canonical, else -1."""
        # Each id padded with "0"s to _PADDED characters is one row of
        # bytes, and the rows are checked and read all at once. A character
        # outside ASCII is encoded as "?", so "²" or "١" is no digit.
        n = len(ids)
        lengths = np.fromiter(map(len, ids), np.intp, n)
        if n and lengths.max() > _PADDED:
            # an id too long to be canonical is read as "", which is not
            ids = [work_id if len(work_id) <= _PADDED else "" for work_id in ids]
        padded = "".join(map(str.ljust, ids, repeat(_PADDED), repeat("0")))
        rows = np.frombuffer(padded.encode("ascii", "replace"), np.uint8)
        rows = rows.reshape(n, _PADDED) - _LOWEST  # a byte below _LOWEST wraps round
        # a row is read as its five words: five steps a row, not 40
        canonical = ~(rows > _SPAN).view(np.uint64).any(1)
        # the first digit counts from 1
        padded_numbers = rows[:, len(_WORK_URL):] @ _TENS + _TENS[0]
        numbers = padded_numbers // _PADDING.take(lengths, mode="clip")
        return np.where(canonical, numbers, -1)

    def firsts(self, ids: list[str]) -> list[bool]:
        """Whether each of ``ids`` is met here for the first time, earlier
        ones in the list included; all of them count as met afterwards."""
        numbers = self._numbers(ids)
        order = numbers.argsort(kind="stable")
        ranked = numbers[order]
        first = np.ones(len(ranked), bool)
        first[1:] = ranked[1:] != ranked[:-1]  # repeats within the list
        for held in (*self._runs, self._batch):
            if len(held):
                first &= held.take(held.searchsorted(ranked), mode="clip") != ranked
        other = 0  # the -1s rank first
        while other < len(ranked) and ranked[other] < 0:
            work_id = ids[order[other]]
            first[other] = work_id not in self._other
            self._other.add(work_id)
            other += 1
        fresh = ranked[other:][first[other:]]
        if len(fresh):
            # a stable sort of two ascending runs is one merge pass
            batch = np.concatenate((self._batch, fresh))
            batch.sort(kind="stable")
            if len(batch) >= _FOLD_AT:
                runs = self._runs
                runs.append(batch)
                while len(runs) > 1 and len(runs[-2]) < _RUN_RATIO * len(runs[-1]):
                    merged = np.concatenate(runs[-2:])
                    merged.sort(kind="stable")
                    runs[-2:] = [merged]
                batch = batch[:0]
            self._batch = batch
        in_order = np.empty(len(first), bool)
        in_order[order] = first
        return in_order.tolist()


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
    holds only that key's entity set. Items that cannot be turned into a
    record are skipped rather than aborting the stream. The records left
    are deduplicated by id, and the first of them wins; ``journal_only``
    then drops those that are not journal articles. Two ids are one work
    only if their strings are equal, so ``https://openalex.org/W1`` and
    ``W1`` are two works. An id met is remembered until the stream ends: a
    canonical one (``https://openalex.org/W`` and 1 to 18 ASCII digits
    with no leading zero) in 8 bytes, any other as its string. Records
    come page by page, and while the next page is read neither the last
    decoded page nor its records are held here. An empty year range
    yields nothing. The duplicates dropped and the items skipped are
    counted in ``client.ingest``; nothing is logged. A key outside
    VALID_KEYS raises ValueError before any page is read.
    """
    if key not in VALID_KEYS:  # else every item would be skipped as malformed
        raise ValueError(f"unknown aggregation key {key!r}")
    if year_from > year_to:
        return
    query = WorksQuery(
        concept_ids=tuple(concept_ids), year_from=year_from, year_to=year_to
    )
    seen = _SeenWorkIds()
    for page in client.pages(query):
        records = []
        for raw in page.works:
            try:
                records.append(work_from_metadata(raw, discipline_id, key))
            except ValueError:
                client.ingest["malformed_items_skipped"] += 1
        del page  # else it lives on while pages() decodes the next one
        firsts = seen.firsts(list(map(attrgetter("work_id"), records)))
        client.ingest["duplicate_ids_dropped"] += firsts.count(False)
        kept = compress(records, firsts)
        if journal_only:
            kept = filter(attrgetter("is_journal_article"), kept)
        # drained, the iterators let go of the page's records, so none of
        # them lives on here while pages() decodes the next page
        del records, firsts
        yield from kept
