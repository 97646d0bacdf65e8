"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``src/`` need not be installed. The
workload runs in a fresh worker process (worker.py). With ``--trace 0`` the
last stdout line is a JSON object with every end-to-end metric of
BENCHMARK.json; set-up is timed from spawn to the worker's READY line, in
SETUP_SAMPLES fresh processes, and reported as their median. With
``--trace 1`` it carries every per-layer metric instead: per-op counts and
self times from the traced ops (every second op of the worker's loop), the
tracing overhead, and the cold-CLI split measured by separate spawns after
the worker ended.
The lines before it repeat the metrics for a human reader.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "data" / "golden_evolve.json"
GOLDEN_SEED = 42
SETUP_SAMPLES = 9
PROBE_ROUNDS = 5
# Everything a run starts must be over well within the 180 s a run may take.
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def child_env() -> dict:
    """Environment for child interpreters: ``src/`` on the import path.

    Bytecode caching is left at Python's default (on), whatever the caller's
    environment says, so a cold start reads ``.pyc`` files as a user's would
    and only the first spawn in a fresh checkout pays for compiling.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str]) -> tuple[int, bytes]:
    """Run a child interpreter from the checkout root; return (exit code,
    stdout). Its stderr is passed through."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_worker(mode: str, args, workdir: Path) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, its result)."""
    workdir.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "worker.py"), mode, args.workload,
        str(args.seed), str(args.seconds), str(workdir),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,  # one process group: a kill reaches its children
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        with proc.stdout:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise BenchmarkError(f"{mode} worker for {args.workload} exited {code}")
    return setup_s, (json.loads(lines[-1]) if mode != "setup" else None)


# A cold `evolve` that reports, after its JSON, how long `cli.run` took once
# `parasitech.cli` was imported: the compute share of the CLI wall time.
TIMED_EVOLVE = (
    "import sys, time, parasitech.cli as cli; t = time.perf_counter(); "
    "code = cli.run(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)"
)


def cli_split(seed: int, workdir: Path) -> tuple[dict[str, float], list[str]]:
    """Median wall ms of cold spawns (bare interpreter, imports) and of the
    compute inside a cold golden-scenario ``evolve``; and the problems with
    what ``evolve`` printed.

    With seed 42 the report must equal tests/data/golden_evolve.json byte for
    byte; with other seeds, the in-process render of the same files.
    """
    code, _ = run_child([str(HERE / "worker.py"), "golden", str(seed), str(workdir)])
    if code != 0:
        raise BenchmarkError(f"writing the golden-scenario pair exited {code}")
    expected = (GOLDEN if seed == GOLDEN_SEED else workdir / "expected.json").read_bytes()
    problems = []
    probes = {
        "cli.interp_ms": ["-c", "pass"],
        "cli.import_numpy_ms": ["-c", "import numpy"],
        "cli.import_scipy_special_ms": ["-c", "import scipy.special"],
        "cli.import_parasitech_ms": ["-c", "import parasitech.cli"],
        "cli.compute_ms": [
            "-c", TIMED_EVOLVE, "evolve",
            "--host", str(workdir / "golden_host.csv"),
            "--parasite", str(workdir / "golden_parasite.csv"),
            "--format", "json",
        ],
    }
    times: dict[str, list[float]] = {name: [] for name in probes}
    for _ in range(PROBE_ROUNDS):  # interleaved, so drift hits all alike
        for name, argv in probes.items():
            t0 = time.perf_counter()
            code, out = run_child(argv)
            wall = time.perf_counter() - t0
            if code != 0:
                raise BenchmarkError(f"probe {name} exited {code}")
            if name == "cli.compute_ms":
                report, _, seconds = out.rstrip(b"\n").rpartition(b"\n")
                if report + b"\n" != expected:
                    problems.append("golden-scenario evolve printed another report")
                try:
                    wall = float(seconds)
                except ValueError:
                    raise BenchmarkError("evolve probe printed no timing line") from None
            times[name].append(wall)
    return {name: statistics.median(ts) * 1e3 for name, ts in times.items()}, problems


def measure(args, run_dir: Path) -> tuple[dict, dict, list[str]]:
    if args.trace:
        _, result = run_worker("trace", args, run_dir / "trace")
        split, notes = cli_split(args.seed, run_dir / "probes")
        result["checks_ok"] = result["checks_ok"] and not notes
        values = dict(result["layers"], **split)
    else:
        setups = [
            run_worker("setup", args, run_dir / f"setup{i}")[0]
            for i in range(SETUP_SAMPLES - 1)
        ]
        setup_s, result = run_worker("run", args, run_dir / "run")
        setups.append(setup_s)
        values = dict(result, setup_s=statistics.median(setups))
        notes = [
            f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
            f"latency samples: {result['samples']}, above op_ms_p90: {result['above_p90']}",
        ]
    return values, result, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "parasitech" / "__init__.py").is_file():
        print(f"no parasitech sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    base = ROOT / ".perfbench-run"
    run_dir = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        values, result, notes = measure(args, run_dir)
    except BenchmarkError as err:
        print(err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed}: {name} = {m['value']!r} {m['unit']}")
    for note in notes:
        print(f"{args.workload} seed={args.seed}: {note}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["checks_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
