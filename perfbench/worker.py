"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py setup CONFIG   import collabkit.cli, load and
                                               validate CONFIG, print the clock
    python3 perfbench/worker.py run JOB        set up, time one run(), write
                                               the result file JOB names

Only ``sys``, ``time`` and ``pathlib`` are imported before collabkit, so the
interval from spawning a setup probe to the clock it prints is what a CLI
user pays before the first page is read.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def setup(config_path: str) -> int:
    """Print the system-wide monotonic clock once the config is validated."""
    from collabkit.cli import load_config, validate

    diagnostics = validate(load_config(config_path))
    print(repr(time.monotonic()))
    return 1 if diagnostics else 0


def status_mb(field: str) -> float:
    """A memory figure of this process from /proc/self/status (Linux).

    The peak is VmHWM, not ``ru_maxrss``: Linux carries ``ru_maxrss`` across
    exec, so it would also count the benchmark process that spawned the
    worker. VmHWM covers only the worker's own address space.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} line in /proc/self/status")


def _tamper(cli, what: str) -> None:
    """Corrupt one number the checks must catch: a distance or a Ward height."""
    if what == "distance":
        original = cli.distance_matrix

        def distance_matrix(table, entities):
            dm = original(table, entities)
            values = dm.values.copy()
            d = values[0, 1]
            values[0, 1] = values[1, 0] = d - 0.01 if d >= 0.01 else d + 0.01
            return type(dm)(dm.entities, values)

        cli.distance_matrix = distance_matrix
    elif what == "ward":
        original = cli.ward_cluster

        def ward_cluster(dm):
            dend = original(dm)
            last = dend.merges[-1]
            bumped = type(last)(last.left, last.right, last.height * 1.01 + 1e-3, last.size)
            return type(dend)(dend.entities, dend.merges[:-1] + (bumped,))

        cli.ward_cluster = ward_cluster
    else:
        raise ValueError(f"unknown tamper target {what!r}")


def run(job_path: str) -> int:
    import json
    import pickle

    job = json.loads(Path(job_path).read_text())
    from collabkit import cli, ingest

    config = cli.load_config(job["config"])
    transport = None
    transport_mb = 0.0  # resident memory of the served page bodies
    if job.get("bodies"):
        from gen import ReplayTransport

        before = status_mb("VmRSS")
        with open(job["bodies"], "rb") as fh:
            bodies, fail_first = pickle.load(fh)
        transport_mb = status_mb("VmRSS") - before
        transport = ReplayTransport(bodies, fail_first)
    sleeps: list[float] = []
    tracer = None
    run_fn = cli.run
    if job.get("trace"):
        from spans import Tracer

        tracer = Tracer(run_id=Path(job["trace"]).stem, periods=config.periods)
        tracer.install(cli, ingest, transport)
        run_fn = tracer.wrap("cli.run", cli.run)
    if job.get("tamper"):
        _tamper(cli, job["tamper"])

    result: dict = {}
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code, manifest = run_fn(
            config, mode=job["mode"], stage=job["stage"], transport=transport, sleep=sleeps.append
        )
    except Exception as exc:  # the parent counts this sample as failed
        result["error"] = f"{type(exc).__name__}: {exc}"
        code, manifest = None, None
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    result.update(
        code=code,
        manifest=manifest,
        run_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        # The program's peak: the page bodies belong to the benchmark's transport.
        rss_mb=status_mb("VmHWM") - transport_mb,
        transport_mb=transport_mb,
        transport_calls=transport.calls if transport else 0,
        transport_failures=transport.failures if transport else 0,
        sleeps=len(sleeps),
        sleep_s=sum(sleeps),
    )
    if tracer is not None:
        tracer.counts["ingest.transport_calls"] = result["transport_calls"]
        tracer.counts["ingest.retries"] = result["transport_failures"]
        tracer.counts["ingest.sleep_requested_s"] = result["sleep_s"]
        tracer.dump(job["trace"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("setup", "run"):
        sys.exit("usage: worker.py setup CONFIG | worker.py run JOB")
    sys.exit(setup(sys.argv[2]) if sys.argv[1] == "setup" else run(sys.argv[2]))
