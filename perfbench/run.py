"""Replay benchmark for collabkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a seeded OpenAlex-shaped corpus, fills a page cache with the real
online harvest, and then times ``collabkit.cli.run()`` in fresh worker
processes, one at a time (``workers=1``), for about S seconds. Every
sample's outputs are checked. With ``--trace 1`` one more sample runs with
spans around each layer's public calls and the per-layer metrics are
reported instead of the end-to-end ones. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_CONFIG = ROOT / "tests" / "fixtures" / "config.json"
WORK_ROOT = ROOT / ".perfbench-work"

# Identical on every commit measured: one BLAS thread in every worker.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SAMPLES = 3
SETUP_PROBES = 9
PROBES_PER_SAMPLE = 2
# No sample starts after this many seconds, so a run ends well inside 180 s.
DEADLINE_S = 140.0

TEAM_WEIGHTS = (40, 25, 15, 10, 6, 4)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict  # CorpusSpec fields
    config: dict  # analysis fields of the collabkit config
    cold: bool  # harvest online into an empty cache instead of replaying one


COUNTRY_SPEC = dict(
    disciplines=2, works_per_year=500, countries=60, institutions=300,
    team_weights=TEAM_WEIGHTS, unknown_share=0.05, duplicates=40, error_share=0.05,
)
COUNTRY_CONFIG = dict(key="country", top_n=30, periods="paper-10", min_volume=5)

# Why each workload exists, and what the sizes were shrunk from: README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("country-paper10", COUNTRY_SPEC, COUNTRY_CONFIG, cold=False),
        Workload(
            "institution-top300",
            dict(
                disciplines=1, works_per_year=400, countries=60, institutions=3000,
                team_weights=TEAM_WEIGHTS, unknown_share=0.05, duplicates=20, error_share=0.05,
            ),
            dict(key="institution", top_n=200, periods="paper-4", min_volume=5),
            cold=False,
        ),
        Workload("cold-harvest", COUNTRY_SPEC, COUNTRY_CONFIG, cold=True),
    )
}


class Tally:
    """Checked run() calls and the problems found in them.

    ``attempted`` and ``failed`` count run() calls only, so that their ratio
    is the error rate. Problems found outside a run() call (a set-up probe,
    the trace accounting) make the result incorrect without entering it.
    """

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.other_failures = 0
        self.log = log

    def record(self, what: str, problems: list[str], run_call: bool = True) -> bool:
        if run_call:
            self.attempted += 1
            self.failed += bool(problems)
        else:
            self.other_failures += bool(problems)
        for problem in problems[:10]:
            self.log(f"FAIL {what}: {problem}")
        return not problems


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ratio", "ratio"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> str:
    import numpy

    try:
        size = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True,
                              timeout=10).stdout.strip()
        l3 = f"{int(size) / 2**20:.0f} MiB"
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = "unknown"
    blas = " ".join(f"{k}={v}" for k, v in THREAD_ENV.items())
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, {blas}, "
        f"nproc {len(os.sched_getaffinity(0))}, L3 {l3}"
    )


def bench(wl: Workload, seed: int, seconds: float, trace: bool, tamper: str | None = None,
          log=print) -> dict:
    """Run one benchmark invocation; returns the result object."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{wl.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        return _bench(wl, seed, seconds, trace, tamper, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(wl, seed, seconds, trace, tamper, work: Path, log) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import checks
    import gen
    import spans
    from collabkit.cli import load_config, run

    started = time.perf_counter()
    tally = Tally(log)
    env = {**os.environ, **THREAD_ENV}
    corpus = gen.generate(gen.CorpusSpec(**wl.spec), seed)
    works_pages = sum(1 for key in corpus.bodies if key[0].endswith("/works"))

    def write_config(name: str, cache_dir: Path, out_dir: Path) -> Path:
        doc = {"disciplines": list(corpus.roots), "rate_limit": 1e9, **wl.config,
               "cache_dir": str(cache_dir), "out_dir": str(out_dir)}
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2))
        return path

    base_config = write_config("config", work / "cache", work / "out-ref")
    config = load_config(base_config)
    oracle = checks.Oracle(corpus, config)

    def harvest_problems(manifest, calls, failures, sleeps, cache_dir) -> list[str]:
        problems = checks.check_cache(cache_dir, corpus)
        if len(manifest["inputs"]) != corpus.pages:
            problems.append(f"manifest lists {len(manifest['inputs'])} inputs, not {corpus.pages}")
        if calls != corpus.pages + len(corpus.fail_first) or failures != len(corpus.fail_first):
            problems.append(f"{calls} transport calls with {failures} failures, expected "
                            f"{corpus.pages + len(corpus.fail_first)} with {len(corpus.fail_first)}")
        if sleeps != len(corpus.fail_first):
            problems.append(f"{sleeps} backoff sleeps for {len(corpus.fail_first)} injected errors")
        return problems

    def replay_problems(manifest, out_dir: Path) -> list[str]:
        return (checks.check_files(out_dir, manifest) + oracle.check_cells(manifest)
                + oracle.check_geometry(out_dir))

    def in_process(what: str, call, check):
        """A run() call in this process, outside any timing."""
        try:
            _, manifest = call()
        except Exception as exc:
            tally.record(what, [f"{type(exc).__name__}: {exc}"])
            return None
        return manifest if tally.record(what, check(manifest)) else None

    # Behaviour contract: the bundled fixture replays to known bytes.
    fixture_out = work / "fixture-out"
    fixture = replace(load_config(FIXTURE_CONFIG), cache_dir=str(ROOT / "tests/fixtures/cache"),
                      out_dir=str(fixture_out))
    in_process("fixture replay", lambda: run(fixture, mode="fixtures", stage="all"),
               lambda m: checks.check_fixture(fixture_out, m))

    # The replay cache, written by the real online harvest.
    transport = gen.ReplayTransport(corpus.bodies, corpus.fail_first)
    sleeps: list[float] = []
    in_process(
        "setup harvest",
        lambda: run(config, mode="online", stage="harvest", transport=transport, sleep=sleeps.append),
        lambda m: harvest_problems(m, transport.calls, transport.failures, len(sleeps), work / "cache"),
    )
    reference_digest = None
    if wl.cold:
        with open(work / "bodies.pkl", "wb") as fh:
            pickle.dump((corpus.bodies, corpus.fail_first), fh, protocol=pickle.HIGHEST_PROTOCOL)
        ref = in_process("reference replay", lambda: run(config, mode="fixtures", stage="all"),
                         lambda m: replay_problems(m, work / "out-ref"))
        reference_digest = checks.outputs_digest(ref) if ref else None
        shutil.rmtree(work / "out-ref", ignore_errors=True)

    def remaining() -> float:
        return max(1.0, 170.0 - (time.perf_counter() - started))

    # setup_s: a fresh interpreter imports collabkit.cli, loads and validates the
    # config. The probes are spread between the samples, so that their median
    # does not rest on one stretch of machine speed.
    probe_cmd = [sys.executable, str(HERE / "worker.py"), "setup", str(base_config)]
    setup_times: list[float] = []

    def probe() -> None:
        # CLOCK_MONOTONIC is system-wide, so the probe's reading ends the interval
        # exactly; timing the wait here would add the up to 50 ms that
        # subprocess.run sleeps between polls when given a timeout.
        t0 = time.monotonic()
        try:
            proc = subprocess.run(probe_cmd, env=env, timeout=remaining(), capture_output=True,
                                  text=True)
        except subprocess.TimeoutExpired:
            tally.record("setup probe", ["timed out"], run_call=False)
            return
        if tally.record("setup probe", [] if proc.returncode == 0 else
                        [f"exit {proc.returncode}: {proc.stderr[-200:]}"], run_call=False):
            setup_times.append(float(proc.stdout.split()[-1]) - t0)

    if not trace:
        subprocess.run(probe_cmd, env=env, timeout=remaining(),
                       capture_output=True)  # warm bytecode and file caches

    reference_inputs = None
    last_cold_cache = None

    def sample(k: int, trace_path: Path | None = None) -> dict | None:
        nonlocal reference_digest, reference_inputs, last_cold_cache
        out_dir = work / f"out-{k}"
        cache_dir = work / f"cold-{k}" if wl.cold else work / "cache"
        job = {
            "config": str(write_config(f"config-{k}", cache_dir, out_dir)),
            "mode": "online" if wl.cold else "fixtures",
            "stage": "harvest" if wl.cold else "all",
            "bodies": str(work / "bodies.pkl") if wl.cold else None,
            "trace": str(trace_path) if trace_path else None,
            "tamper": tamper,
            "result": str(work / f"result-{k}.json"),
        }
        job_path = work / f"job-{k}.json"
        job_path.write_text(json.dumps(job))
        what = f"{'traced ' if trace_path else ''}sample {k}"
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(job_path)],
                                  env=env, timeout=remaining())
        except subprocess.TimeoutExpired:
            tally.record(what, ["timed out"])
            return None
        result_path = Path(job["result"])
        if not result_path.is_file():
            tally.record(what, [f"worker exited {proc.returncode} without a result"])
            return None
        res = json.loads(result_path.read_text())
        manifest = res["manifest"]
        if manifest is None or res["code"] != 0 or proc.returncode != 0:
            tally.record(what, [res.get("error") or f"exit {proc.returncode}, code {res['code']}"])
            return None
        if wl.cold:
            problems = harvest_problems(manifest, res["transport_calls"], res["transport_failures"],
                                        res["sleeps"], cache_dir)
            reference_inputs = reference_inputs or manifest["inputs"]
            if manifest["inputs"] != reference_inputs:
                problems.append("harvested pages differ from an earlier sample's")
            if last_cold_cache is not None:
                shutil.rmtree(last_cold_cache, ignore_errors=True)
            last_cold_cache = cache_dir
        else:
            # Outputs are checked in full until one sample passes. After that,
            # files that match their manifest and the passed digest are the
            # same bytes, so the oracle need not see them again.
            digest = checks.outputs_digest(manifest)
            if reference_digest is None:
                problems = replay_problems(manifest, out_dir)
                reference_digest = None if problems else digest
            else:
                problems = checks.check_files(out_dir, manifest) + oracle.check_cells(manifest)
                if digest != reference_digest:
                    problems.append(f"outputs digest {digest} differs from an earlier sample's")
            shutil.rmtree(out_dir, ignore_errors=True)
        return res if tally.record(what, problems) else None

    samples = []
    budget = seconds / 2 if trace else seconds
    min_samples = 1 if trace else MIN_SAMPLES
    t_measure = time.perf_counter()
    k = 0
    while time.perf_counter() - started < DEADLINE_S and (
        k < min_samples or time.perf_counter() - t_measure < budget
    ):
        k += 1
        res = sample(k)
        if res is not None:
            samples.append(res)
        if not trace:
            for _ in range(PROBES_PER_SAMPLE):
                probe()
    for _ in range(0 if trace else SETUP_PROBES - len(setup_times)):
        probe()

    if wl.cold and last_cold_cache is not None:
        # The freshly written cache replays to the same outputs as the setup cache.
        verify = replace(config, cache_dir=str(last_cold_cache), out_dir=str(work / "out-verify"))

        def same_as_setup(m) -> list[str]:
            problems = checks.check_files(work / "out-verify", m) + oracle.check_cells(m)
            if checks.outputs_digest(m) != reference_digest:
                problems.append("replay of the harvested cache differs from the setup cache's")
            return problems

        in_process("replay of harvested cache", lambda: run(verify, mode="fixtures", stage="all"),
                   same_as_setup)

    lines = [f"workload {wl.name}, seed {seed}: {len(samples)} timed samples; {environment()}"]
    if reference_digest:
        lines.append(f"outputs digest {reference_digest}")
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str, note: str = "") -> None:
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:26s} {value:14.6f} {unit:6s} {note}".rstrip())

    if trace:
        k += 1
        trace_path = work / f"trace-{uuid.uuid4().hex}.json"
        traced = sample(k, trace_path)
        if traced is not None and samples:
            doc = json.loads(trace_path.read_text())
            layers = spans.layer_metrics(doc)
            # The self times add up to the cli.run span by construction. What
            # can fail is that span against the stopwatch around it, and the
            # counts against the generator's.
            problems = []
            root_s = sum(end - start for _, start, end, parent in doc["spans"] if parent < 0)
            if abs(root_s - traced["run_s"]) > 0.005 + 0.02 * traced["run_s"]:
                problems.append(f"the cli.run span is {root_s:.6f} s, "
                                f"traced run_s is {traced['run_s']:.6f} s")
            if layers["ingest.records"] != corpus.records:
                problems.append(f"harvest yielded {layers['ingest.records']} records, not {corpus.records}")
            if layers["ingest.pages"] != works_pages:
                problems.append(f"decoded {layers['ingest.pages']} works pages, not {works_pages}")
            tally.record("trace accounting", problems, run_call=False)
            lines.append(f"cli.self_s is {layers['cli.self_s'] / traced['run_s']:.1%} of the traced "
                         "run: time that no wrapped layer covers")
            untraced = statistics.median(s["run_s"] for s in samples)
            layers["cli.cpu_s"] = statistics.median(s["cpu_s"] for s in samples)
            layers["trace.overhead_s"] = traced["run_s"] - untraced
            for name in sorted(layers):
                put(name, layers[name], layer_unit(name))
    else:
        if samples:
            put("run_s", statistics.median(s["run_s"] for s in samples), "s",
                f"median of {len(samples)}: " + " ".join(f"{s['run_s']:.3f}" for s in samples))
            transport_mb = statistics.median(s["transport_mb"] for s in samples)
            put("peak_rss_mb", statistics.median(s["rss_mb"] for s in samples), "MB",
                f"median of {len(samples)}" + (f", without the transport's {transport_mb:.1f} MB "
                                               "of page bodies" if wl.cold else ""))
        if setup_times:
            put("setup_s", statistics.median(setup_times), "s",
                f"median of {len(setup_times)}: " + " ".join(f"{t:.3f}" for t in setup_times))
    lines.append(f"{'error_rate':26s} {tally.failed / tally.attempted:14.6f} ratio  "
                 f"{tally.failed} failed of {tally.attempted} checked run() calls")
    if tally.other_failures:
        lines.append(f"{tally.other_failures} failed checks outside run() calls")
    for line in lines:
        log(line)
    return {
        "correct": tally.failed == 0 and tally.other_failures == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (SRC / "collabkit" / "cli.py", FIXTURE_CONFIG):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing; run from a collabkit checkout", file=sys.stderr)
            return 2
    result = bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
