"""One workload in a fresh process: set up, time ops, report as JSON.

Started by run.py from the checkout root with ``src/`` on PYTHONPATH:

    worker.py setup|run|trace WORKLOAD SEED SECONDS WORKDIR
    worker.py golden SEED DIR

It prints ``READY`` once set up (inputs built, warm-up ops done), so the
parent can time set-up from spawn to that line. ``setup`` then exits;
``run`` and ``trace`` time ops for SECONDS and print one JSON line.
``golden`` writes the golden-scenario pair (see workloads.write_golden_pair).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, write_golden_pair

MAX_REPORTED_FAILURES = 5


def timed_loop(workload, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops back to back until SECONDS of op time have passed.

    Only the op is timed; its check runs after the clock stops. An op that
    raises or fails its check counts as failed, and its latency is left out
    of the percentiles. With a tracer, every second op runs traced: the
    tracer is installed before that op's clock starts and uninstalled after
    it stops, and the traced ops' count and op time are kept apart.
    """
    latencies: list[float] = []
    attempted = failed = 0
    busy = 0.0
    traced_ops = 0
    traced_busy = 0.0
    while busy < seconds:
        attempted += 1
        traced = tracer is not None and attempted % 2 == 0
        if traced:
            tracer.op_id = attempted
            tracer.install()
        raised = False
        t0 = time.perf_counter()
        try:
            out = workload.op()
        except Exception:  # a failing op is a result to report, not a crash
            raised = True
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            traced_ops += 1
            traced_busy += elapsed
        busy += elapsed
        if raised:
            continue
        try:
            problems = workload.check(out)
        except Exception as err:  # a check that cannot judge the output fails it
            problems = [f"check raised {err!r}"]
        if problems:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print(f"op {attempted} failed its check: {problems}", file=sys.stderr)
        else:
            latencies.append(elapsed)
    return {
        "attempted": attempted,
        "failed": failed,
        "busy": busy,
        "latencies": latencies,
        "traced_ops": traced_ops,
        "traced_busy": traced_busy,
    }


def end_to_end(loop: dict, workload) -> dict:
    lat = sorted(loop["latencies"])
    if len(lat) < 2:
        raise SystemExit(f"only {len(lat)} ops passed their check; no latency percentiles")
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    return {
        "ops_per_s": (loop["attempted"] - loop["failed"]) / loop["busy"],
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p90": p90 * 1e3,
        "samples": len(loop["latencies"]),
        "above_p90": sum(x > p90 for x in lat),
        "peak_rss_mb": workload.peak_rss_mb(),
        "ops_ok_ratio": (loop["attempted"] - loop["failed"]) / loop["attempted"],
    }


def main(argv: list[str]) -> int:
    if argv[0] == "golden":
        write_golden_pair(int(argv[1]), Path(argv[2]))
        return 0
    mode, name, seed, seconds, workdir = argv
    seconds = float(seconds)
    workload = WORKLOADS[name](int(seed), Path(workdir))
    workload.setup()
    for problem in workload.setup_problems:
        print(f"warm-up op failed its check: {problem}", file=sys.stderr)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    result = {"checks_ok": not workload.setup_problems}
    if mode == "run":
        loop = timed_loop(workload, seconds)
        result.update(end_to_end(loop, workload))
    else:
        tracer = Tracer()
        loop = timed_loop(workload, seconds, tracer)
        traced_ops, traced_busy = loop["traced_ops"], loop["traced_busy"]
        plain_ops, plain_busy = loop["attempted"] - traced_ops, loop["busy"] - traced_busy
        layers = layer_metrics(tracer.totals(), traced_ops)
        layers["trace.overhead_ratio"] = (traced_busy / traced_ops) / (plain_busy / plain_ops)
        result["layers"] = layers
    result["attempted"] = loop["attempted"]
    result["failed"] = loop["failed"]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
