"""Correctness checks behind the benchmark's error count.

Each check returns a list of problems; an empty list means it passed. The
oracle recomputes every expected number from the generator's own work
sets, never from the program's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np

FIXTURE_FILES = 84
FIXTURE_DIGEST = "cd30e9cb7f89f64fec4fe3c61970dce56b853388f06149db5acd9be17bb009dc"

# merges.json and distances.csv carry 6 significant digits
REL_TOL = 1e-5
# collabkit's Ward treats criteria within this much of the minimum as tied
TIE_EPS = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs_digest(manifest: dict) -> str:
    return sha256(json.dumps(manifest["outputs"], sort_keys=True).encode("utf-8"))


def check_files(out_dir: Path, manifest: dict) -> list[str]:
    """Every output file exists, matches its manifest sha256, and no other file does."""
    expected = manifest["outputs"]
    present = {
        p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file()
    } - {"manifest.json"}
    problems = [f"unlisted output {rel}" for rel in sorted(present - set(expected))]
    problems += [f"missing output {rel}" for rel in sorted(set(expected) - present)]
    for rel in sorted(set(expected) & present):
        if sha256((out_dir / rel).read_bytes()) != expected[rel]:
            problems.append(f"{rel}: sha256 differs from the manifest")
    return problems


def check_fixture(out_dir: Path, manifest: dict) -> list[str]:
    problems = check_files(out_dir, manifest)
    if len(manifest["outputs"]) != FIXTURE_FILES:
        problems.append(f"fixture run wrote {len(manifest['outputs'])} files, not {FIXTURE_FILES}")
    if outputs_digest(manifest) != FIXTURE_DIGEST:
        problems.append(f"fixture outputs digest {outputs_digest(manifest)} != {FIXTURE_DIGEST}")
    return problems


def check_cache(cache_dir: Path, corpus) -> list[str]:
    """The cache holds exactly the served bodies, each with a sidecar."""
    served = Counter(sha256(body) for body in corpus.bodies.values())
    pages = [p for p in cache_dir.glob("*.json") if not p.name.endswith(".meta.json")]
    problems = []
    if len(pages) != corpus.pages:
        problems.append(f"cache holds {len(pages)} pages, generator served {corpus.pages}")
    if Counter(sha256(p.read_bytes()) for p in pages) != served:
        problems.append("cached page bytes differ from the served bodies")
    missing = [p.name for p in pages if not p.with_name(p.name[:-5] + ".meta.json").is_file()]
    if missing:
        problems.append(f"{len(missing)} pages lack a .meta.json sidecar")
    return problems


class Oracle:
    """Expected cell contents, from the generator's deduplicated work sets."""

    def __init__(self, corpus, config):
        self.corpus = corpus
        self.config = config
        self._cells: dict[str, dict] = {}

    def cell_keys(self) -> list[str]:
        return [f"{r}/{p.label}" for r in self.corpus.roots for p in self.config.periods]

    def cell(self, key: str) -> dict:
        if key not in self._cells:
            root, label = key.split("/", 1)
            period = next(p for p in self.config.periods if p.label == label)
            works = self.corpus.works_in(root, period.year_from, period.year_to)
            attr = "countries" if self.config.key == "country" else "institutions"
            members: dict[str, set[int]] = {}
            for i, work in enumerate(works):
                for entity in getattr(work, attr):
                    members.setdefault(entity, set()).add(i)
            ranked = sorted(members, key=lambda e: (-len(members[e]), e))
            top = ranked[: self.config.top_n]
            distance = {}
            for a, b in combinations(top, 2):
                n_a, n_b = len(members[a]), len(members[b])
                n_ab = len(members[a] & members[b])
                distance[frozenset((a, b))] = 1.0 - n_ab / (n_a + n_b - n_ab)
            self._cells[key] = {"works": len(works), "top": top, "distance": distance}
        return self._cells[key]

    def check_cells(self, manifest: dict) -> list[str]:
        problems = []
        cells = manifest.get("cells", {})
        if sorted(cells) != sorted(self.cell_keys()):
            return [f"manifest cells {sorted(cells)} != {sorted(self.cell_keys())}"]
        for key, info in cells.items():
            want = self.cell(key)
            if info.get("works") != want["works"]:
                problems.append(f"{key}: {info.get('works')} works, generator has {want['works']}")
            if info.get("entities") != len(want["top"]):
                problems.append(f"{key}: {info.get('entities')} entities, expected {len(want['top'])}")
        return problems

    def check_geometry(self, out_dir: Path) -> list[str]:
        """Every distances.csv entry against brute-force Jaccard, and every
        merges.json merge against a Ward replay and, where no tie allowed
        another order, against scipy's Ward (skipped without scipy)."""
        problems = []
        for key in self.cell_keys():
            want = self.cell(key)
            rows = (out_dir / key / "distances.csv").read_text().splitlines()[1:]
            for row in rows:
                a, b, value = row.split(",")
                expected = want["distance"].get(frozenset((a, b)))
                if expected is None or not _close(float(value), expected):
                    problems.append(f"{key}/distances.csv: {a},{b} = {value}, brute force {expected}")
            if len(rows) != len(want["distance"]):
                problems.append(f"{key}/distances.csv: {len(rows)} rows, expected {len(want['distance'])}")
            doc = json.loads((out_dir / key / "merges.json").read_text())
            if doc["leaves"] != want["top"]:
                problems.append(f"{key}/merges.json: leaves differ from the top-{self.config.top_n}")
                continue
            top = want["top"]
            square = np.zeros((len(top), len(top)))
            for i, j in combinations(range(len(top)), 2):
                square[i, j] = square[j, i] = want["distance"][frozenset((top[i], top[j]))]
            problems += [f"{key}/merges.json: {p}" for p in check_ward(square, doc["merges"])]
        return problems[:20]


def _close(value: float, expected: float) -> bool:
    return math.isclose(value, expected, rel_tol=REL_TOL, abs_tol=1e-9)


def check_ward(square: np.ndarray, merges: list[dict]) -> list[str]:
    """Replay the merge list with the Lance-Williams recurrence: each merge
    must join a pair of minimal Ward criterion, at the recorded height. When
    no step had a tie, Ward's result is unique and scipy's heights must match."""
    n = len(square)
    if len(merges) != n - 1:
        return [f"{len(merges)} merges for {n} leaves"]
    total = 2 * n - 1
    d2 = np.full((total, total), np.inf)
    d2[:n, :n] = square**2
    np.fill_diagonal(d2, np.inf)
    sizes = np.zeros(total)
    sizes[:n] = 1.0
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    tied = False
    for k, merge in enumerate(merges):
        a, b, new = merge["left"], merge["right"], n + k
        if a == b or not (0 <= a < new and 0 <= b < new and active[a] and active[b]):
            return [f"merge {k} joins inactive nodes {a}, {b}"]
        idx = np.flatnonzero(active)
        block = d2[np.ix_(idx, idx)]
        best = block.min()
        if d2[a, b] > best + TIE_EPS:
            return [f"merge {k} is not a minimal Ward pair"]
        tied = tied or np.count_nonzero(block <= best + TIE_EPS) > 2
        if not _close(merge["height"], math.sqrt(max(d2[a, b], 0.0))):
            return [f"merge {k} height {merge['height']}, Ward gives {math.sqrt(max(d2[a, b], 0.0))}"]
        rest = idx[(idx != a) & (idx != b)]
        d2[new, rest] = d2[rest, new] = (
            (sizes[a] + sizes[rest]) * d2[a, rest]
            + (sizes[b] + sizes[rest]) * d2[b, rest]
            - sizes[rest] * d2[a, b]
        ) / (sizes[a] + sizes[b] + sizes[rest])
        sizes[new] = sizes[a] + sizes[b]
        active[a] = active[b] = False
        active[new] = True
    if tied:
        return []
    try:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform
    except ImportError:
        return []
    reference = sorted(linkage(squareform(square, checks=False), "ward")[:, 2])
    heights = sorted(m["height"] for m in merges)
    if not all(_close(h, r) for h, r in zip(heights, reference)):
        return ["heights differ from scipy's Ward"]
    return []
