"""Benchmark of tdlclab time-to-verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dynamics-deep --seed 0 --seconds 10 --trace 0

Workloads: dynamics-deep, clopen-algebra, groups-certify (see
bench/README.md for why each exists and what it should move).  The
benchmark is one closed-loop client: one job at a time, in a fresh
interpreter per run, so process-wide caches start cold.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the job
list untraced and then traced, checks that both give identical outputs,
and prints the per-layer metrics.  Every job output is checked against
bench/references/<workload>.json; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` regenerates the references of the given seed from the
current code instead of checking them.
"""
from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from worker import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"

# setup_s is the median of this many cold set-ups, each in a fresh interpreter
SETUP_SAMPLES = 9
# A job or query that has not answered by then is killed and counted as
# failed; the slowest job takes about 13 s on a 2-core Xeon.
JOB_TIMEOUT_S = 60.0
QUERY_TIMEOUT_S = 20.0
# Whatever has not run by then counts as failed, so a run ends within 180 s.
RUN_BUDGET_S = 165.0
# Each timing is scaled by the speed-probe samples within this window of it.
PROBE_WINDOW_S = 0.25


class Pass:
    """What one pass over a workload's job list and stream produced.

    Every timed event gets ``wall_s``, its wall time without the probe's
    own, and ``s``, that time scaled to the nominal host speed.
    """

    def __init__(self) -> None:
        self.setup: list[dict] = []
        self.jobs: dict[str, dict] = {}
        self.queries: list[dict] = []
        self.peak_rss_kb = 0
        self.layers: dict | None = None


def rescale(events: list[dict], samples: list[list[float]]) -> None:
    """Set ``wall_s`` and ``s`` on the timed events of one worker."""
    samples.sort()
    starts = [start for start, _ in samples]
    for event in events:
        t0, t1, probe_s = event["at"]
        lo = bisect.bisect_left(starts, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, t1 + PROBE_WINDOW_S)
        near = [took for _, took in samples[lo:hi]]
        if not near and samples:
            near = [samples[min(lo, len(samples) - 1)][1]]
        speed = statistics.fmean(SpeedProbe.NOMINAL_S / took for took in near) if near else 1.0
        event["wall_s"] = t1 - t0 - probe_s
        event["s"] = event["wall_s"] * speed


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _worker(name: str, seed: int, workdir: Path, *options: str) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(seed), "--workdir", str(workdir), *options,
    ]
    return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def setup_samples(name: str, seed: int, workdir: Path, count: int, deadline: float) -> list[dict]:
    """Cold set-ups, each in a fresh interpreter that exits after it."""
    setups = []
    for _ in range(count):
        proc = _worker(name, seed, workdir, "--setup-only")
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            break
        for line in out.splitlines():
            event = json.loads(line)
            rescale([event], event["probes"])
            setups.append(event)
    return setups


def run_pass(name: str, seed: int, workdir: Path, *, trace: bool, stream_seconds: float,
             deadline: float) -> Pass:
    """Run the workload in worker processes, restarting past a failed job."""
    job_ids = workloads.WORKLOADS[name](seed, workdir).job_ids()
    result = Pass()
    first = 0
    while True:
        options = ["--first-job", str(first), "--stream-seconds", str(stream_seconds)]
        proc = _worker(name, seed, workdir, *options, *(["--trace"] if trace else []))
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
        reader.start()
        next_job, failure, last, done = first, None, time.monotonic(), False
        timed: list[dict] = []
        samples: list[list[float]] = []
        try:
            while not done:
                limit = JOB_TIMEOUT_S if next_job < len(job_ids) else QUERY_TIMEOUT_S
                wait = min(limit, deadline - time.monotonic())
                try:
                    line = lines.get(timeout=max(wait, 0.0))
                except queue.Empty:
                    failure = f"no answer within {wait:.0f} s"
                    break
                if line is None:
                    failure = f"worker exited with code {proc.wait()}"
                    break
                last = time.monotonic()
                event = json.loads(line)
                samples += event.pop("probes")
                if "at" in event:
                    timed.append(event)
                if "setup" in event:
                    result.setup.append(event)
                elif "job" in event:
                    result.jobs[event["job"]] = event
                    next_job += 1
                elif "query" in event:
                    result.queries.append(event)
                else:
                    result.peak_rss_kb = max(result.peak_rss_kb, event["peak_rss_kb"])
                    result.layers = event["layers"]
                    done = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            reader.join()
            rescale(timed, samples)
        if done or next_job >= len(job_ids):
            return result  # a stream cut short leaves its missing queries failed
        result.jobs[job_ids[next_job]] = {
            "job": job_ids[next_job], "s": time.monotonic() - last,
            "wall_s": time.monotonic() - last, "error": failure,
        }
        first = next_job + 1
        if time.monotonic() >= deadline:
            for job_id in job_ids[first:]:
                result.jobs[job_id] = {"job": job_id, "s": 0.0, "wall_s": 0.0,
                                       "error": "run budget spent"}
            return result


def load_references(name: str) -> dict:
    path = REFERENCES / f"{name}.json"
    if not path.exists():
        return {"workload": name, "jobs": {}, "streams": {}}
    return json.loads(path.read_text())


def failures(workload: workloads.Workload, result: Pass, queries: int,
             refs: dict | None) -> dict[str, str]:
    """Every job and the ``queries`` stream queries of the pass that are
    missing or wrong, with why.

    With ``refs`` None only errors and oracle checks count (recording).
    """
    bad = {}
    for job_id in workload.job_ids():
        event = result.jobs.get(job_id, {"error": "not run"})
        got = {k: event.get(k) for k in ("exit", "verdict", "sha256")}
        if "error" in event:
            bad[f"job {job_id}"] = event["error"]
        elif refs is not None and got != refs["jobs"].get(job_id):
            bad[f"job {job_id}"] = f"got {got}, expected {refs['jobs'].get(job_id)}"
    digests = refs["streams"].get(str(workload.seed), []) if refs else []
    for i in range(max(len(result.queries), queries)):
        event = result.queries[i] if i < len(result.queries) else {"error": "not run"}
        if "error" in event or not event["ok"]:
            bad[f"query {i}"] = event.get("error", "oracle check failed")
        elif i < len(digests) and event["sha"] != digests[i]:
            bad[f"query {i}"] = "output digest differs from the reference"
    return bad


def verdict_seconds(workload: workloads.Workload, result: Pass, key: str = "s") -> float:
    """The job list: every job plus the first min_queries stream queries."""
    timed = list(result.jobs.values()) + result.queries[: workload.min_queries]
    return sum(event[key] for event in timed)


def end_to_end(workload: workloads.Workload, result: Pass, setups: list[dict], key: str) -> dict:
    """The end-to-end metrics, from scaled (``s``) or wall (``wall_s``) times."""
    latencies = [q[key] * 1000.0 for q in result.queries]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else 0.0
    values = {
        "setup_s": (statistics.median(e[key] for e in setups) if setups else 0.0, "s"),
        "verdict_s": (verdict_seconds(workload, result, key), "s"),
        "query_p50_ms": (statistics.median(latencies) if latencies else 0.0, "ms"),
        "query_p90_ms": (p90, "ms"),
        "peak_rss_mb": (result.peak_rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
    }


def record(workload: workloads.Workload, result: Pass) -> int:
    """Write this seed's outputs into the reference file."""
    refs = load_references(workload.name)
    bad = failures(workload, result, workload.min_queries, None)
    if bad:
        for item, why in bad.items():
            print(f"{item}: {why}", file=sys.stderr)
        return 1
    for job_id in workload.job_ids():
        event = result.jobs[job_id]
        entry = {k: event[k] for k in ("exit", "verdict", "sha256")}
        if refs["jobs"].setdefault(job_id, entry) != entry:
            print(f"job {job_id} differs from the recorded output of another seed", file=sys.stderr)
            return 1
    refs["streams"][str(workload.seed)] = [q["sha"] for q in result.queries[: workload.min_queries]]
    REFERENCES.mkdir(exist_ok=True)
    path = REFERENCES / f"{workload.name}.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(workload.job_ids())} jobs and {workload.min_queries} queries "
          f"of seed {workload.seed} in {path.relative_to(ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the query stream, as the number of queries "
                             "this commit runs in that time at nominal host speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "tdlclab" / "__init__.py").is_file():
        print(f"error: no tdlclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    # The build: bytecode for every module, so setup_s times an import from
    # bytecode whether or not the environment lets Python write it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.write_specs()
        if args.record:
            return record(workload, run_pass(args.workload, args.seed, workdir, trace=False,
                                             stream_seconds=0.0, deadline=deadline))
        if args.trace:
            plain = run_pass(args.workload, args.seed, workdir, trace=False,
                             stream_seconds=0.0, deadline=deadline)
            traced = run_pass(args.workload, args.seed, workdir, trace=True,
                              stream_seconds=0.0, deadline=deadline)
        else:
            setups = setup_samples(args.workload, args.seed, workdir, SETUP_SAMPLES - 1, deadline)
            plain = run_pass(args.workload, args.seed, workdir, trace=False,
                             stream_seconds=args.seconds, deadline=deadline)
            setups += plain.setup

    refs = load_references(args.workload)
    queries = workload.stream_length(0.0 if args.trace else args.seconds)
    bad = failures(workload, plain, queries, refs)
    if args.trace:
        traced_bad = failures(workload, traced, queries, refs)
        bad.update((item, f"traced: {why}") for item, why in traced_bad.items())
        # tracing must not change a single output byte
        for job_id, event in plain.jobs.items():
            if traced.jobs.get(job_id, {}).get("sha256") != event.get("sha256"):
                bad[f"job {job_id}"] = "output differs with tracing on"
        for mine, theirs in zip(plain.queries, traced.queries):
            if mine["sha"] != theirs["sha"]:
                bad[f"query {mine['query']}"] = "output differs with tracing on"
    attempted = len(workload.job_ids()) + max(len(plain.queries), queries)

    print(f"machine: {json.dumps(machine(), sort_keys=True)}")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    for item, why in bad.items():
        print(f"FAILED {item}: {why}")
    if args.trace:
        metrics = dict(traced.layers or {})
        overhead = verdict_seconds(workload, traced) - verdict_seconds(workload, plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        walls = {}
    else:
        print(f"queries: {len(plain.queries)} ({workload.stream}); set-ups: {len(setups)}")
        print(f"{'failed_frac':<40} {len(bad) / attempted:16.6f} ratio")
        metrics = end_to_end(workload, plain, setups, "s")
        walls = end_to_end(workload, plain, setups, "wall_s")
        print("times are scaled to the nominal host speed; the last column is plain wall time")
    for name, metric in metrics.items():
        wall = f" {walls[name]['value']:16.6f}" if name in walls else ""
        print(f"{name:<40} {metric['value']:16.6f} {metric['unit']:<6}{wall}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
