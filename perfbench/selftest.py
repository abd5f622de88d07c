"""Self-test of the benchmark itself, at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload with tracing off and on, checks that each declares
exactly the metrics BENCHMARK.json lists and reports no failure, and shows
that the checks bite: a tampered distance or Ward height must be counted
as a failed call. Exits non-zero on the first broken expectation.
"""

import json
import sys
from dataclasses import replace

import run


def tiny(wl: run.Workload) -> run.Workload:
    return replace(
        wl,
        spec={**wl.spec, "works_per_year": 12, "duplicates": 3},
        config={**wl.config, "top_n": min(wl.config["top_n"], 20)},
    )


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_units = {
        False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        True: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    expect({w["name"] for w in declared["workloads"]} == set(run.WORKLOADS),
           "BENCHMARK.json names the benchmark's workloads")
    quiet = lambda line: None  # noqa: E731
    for name, wl in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.bench(tiny(wl), seed=7, seconds=1, trace=trace, log=quiet)
            label = f"{name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: no failed call ({result['failed']} of {result['attempted']})")
            units = {metric: m["unit"] for metric, m in result["metrics"].items()}
            wrong = sorted(set(units.items()) ^ set(declared_units[trace].items()))
            expect(not wrong, f"{label}: metrics and units as declared (differing: {wrong})")
    for target, name in (("distance", "country-paper10"), ("ward", "institution-top300")):
        result = run.bench(tiny(run.WORKLOADS[name]), seed=7, seconds=1, trace=False,
                           tamper=target, log=quiet)
        expect(not result["correct"] and result["failed"] > 0,
               f"tampered {target} on {name} raises the error rate "
               f"({result['failed']} of {result['attempted']} failed)")
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
