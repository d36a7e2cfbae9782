"""One fresh interpreter running one workload; driven by run.py.

Reports JSON lines on its standard output, one per event:

* ``{"setup": true, "at": at}`` once the package is imported and the
  fixtures built;
* ``{"job": id, "at": at, "exit": ..., "verdict": ..., "sha256": ...}``
  per job, with ``"error"`` in place of the outcome if it raised;
* ``{"query": i, "at": at, "ok": ..., "sha": ...}`` per stream query;
* ``{"done": true, "peak_rss_kb": ..., "layers": {...}}`` at the end.

``at`` is ``[start, end, probe_seconds]`` on the ``perf_counter`` clock,
and every event carries the speed-probe samples taken since the previous
one (see ``SpeedProbe``).  Only the library call of each job or query is
timed; hashing and oracle checks run outside the timer and with tracing
off.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


class SpeedProbe:
    """Times a fixed loop of dict, tuple and hash work 20 times a second.

    On a shared host the speed of this process can halve for tens of
    seconds at a time.  run.py divides each timing by the probe's speed
    around it, so a timing reads the same whichever phase the host was in.
    The probe runs from a SIGALRM handler, between two bytecodes of
    whatever is being timed; ``spent`` is subtracted from those timings.
    """

    INTERVAL_S = 0.05
    # the probe's usual time on an idle 2-core Xeon: times are reported at
    # the host speed where it takes this long
    NOMINAL_S = 0.00025

    def __init__(self) -> None:
        self.samples: list[list[float]] = []  # [start, seconds]
        self.spent = 0.0
        self._table: dict = {}

    def sample(self, *_signal) -> None:
        started = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap, not the host
        table, acc = self._table, 0
        for i in range(600):
            key = ((i * 7919) & 255, i & 7)
            table[key] = table.get(key, 0) + 1
            acc ^= hash(key)
        if collecting:
            gc.enable()
        took = time.perf_counter() - started
        self.samples.append([started, took])
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def drain(self) -> list[list[float]]:
        taken, self.samples = self.samples, []
        return taken


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--first-job", type=int, default=0)
    parser.add_argument("--stream-seconds", type=float, default=0.0)
    args = parser.parse_args()

    channel = sys.stdout  # jobs capture sys.stdout; events keep the real one
    probe = SpeedProbe()

    def emit(event: dict) -> None:
        event["probes"] = probe.drain()
        channel.write(json.dumps(event) + "\n")
        channel.flush()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    sys.path.insert(0, str(SRC))
    probe.start()
    for _ in range(5):  # the set-up is shorter than the probe interval
        probe.sample()
    started, spent = time.perf_counter(), probe.spent
    workload.setup()
    at = [started, time.perf_counter(), probe.spent - spent]
    for _ in range(5):
        probe.sample()
    emit({"setup": True, "at": at})
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    def timed(call):
        """(result, error, at); a failed call is reported, the run goes on."""
        if tracer:
            tracer.on = True
        started, spent = time.perf_counter(), probe.spent
        result, error = None, None
        try:
            result = call()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.on = False
        return result, error, [started, time.perf_counter(), probe.spent - spent]

    for job in workload.jobs()[args.first_job:]:
        raw, error, at = timed(job.call)
        event = {"job": job.id, "at": at}
        if error:
            event["error"] = error
        else:
            event["exit"], event["verdict"], event["sha256"] = job.describe(raw)
        emit(event)

    for i in range(workload.stream_length(args.stream_seconds)):
        call, check = workload.query(i)
        raw, error, at = timed(call)
        event = {"query": i, "at": at}
        if error:
            event.update(ok=False, sha="", error=error)
        else:
            event["ok"], event["sha"] = check(raw)
        emit(event)

    layers = tracer.metrics() if tracer else None
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    emit({"done": True, "peak_rss_kb": peak_kb, "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
