#!/usr/bin/env python3
"""Rebuild the bundled offline fixture cache.

Runs the harvest stage against the deterministic synthetic transport in
``tests/synthetic.py`` with the bundled demo configuration, so the
committed cache contains exactly the pages an offline run requests. The
harvest stage writes nothing but the cache.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from dataclasses import replace
from pathlib import Path

from collabkit.cli import load_config, run
from collabkit.ingest import PageCache

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CACHE = REPO_ROOT / "tests" / "fixtures" / "cache"
DEMO_CONFIG = REPO_ROOT / "tests" / "fixtures" / "config.json"

sys.path.insert(0, str(REPO_ROOT / "tests"))
from synthetic import SyntheticOpenAlexTransport  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE), help="cache directory to populate"
    )
    args = parser.parse_args()
    cache_dir = Path(args.cache_dir)
    if cache_dir.exists():
        shutil.rmtree(cache_dir)

    transport = SyntheticOpenAlexTransport()
    config = replace(load_config(DEMO_CONFIG), cache_dir=str(cache_dir))
    run(config, mode="online", stage="harvest", transport=transport, sleep=lambda s: None)

    pages = PageCache(cache_dir).fingerprints()
    print(f"cached {len(pages)} pages ({transport.calls} transport calls) in {cache_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
