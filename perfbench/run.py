"""superhs benchmark: run one workload through the real CLI and report its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record PATH]

Workloads are defined in ``workloads.py``; the metric names, units and bounds
in ``BENCHMARK.json``.  Every program run happens in a child interpreter with
``src`` on its path, one process and one thread at a time:

* ``setup_s``: median over fresh interpreters of importing superhs and
  building the inputs (``probe.py``);
* ``wall_s`` and ``peak_rss_mb``: back-to-back CLI runs for S seconds in one
  child (``worker.py``), every output checked (``checks.py``);
* with ``--trace 1``: alternating S/4-second quarters untraced and traced
  (``spans.py``); the per-layer metrics are medians over the traced runs.

Earlier stdout lines carry a run record (machine, versions, config and its
sha256, sample counts, failure reasons); the last line is the result JSON.
Exits 1 without a result when the program cannot be run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import numpy as np

from workloads import WORKLOADS, write_config

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9
PROBE_TIMEOUT = 30.0
WORKER_SLACK = 60.0  # a run that starts just before the deadline may overrun it


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same dict/set layouts in every child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(script: str, args, timeout: float) -> str:
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return proc.stdout.strip().splitlines()[-1]


def _setup_seconds(cli_argv) -> list:
    _run_child("probe.py", cli_argv, PROBE_TIMEOUT)  # warm-up: byte-compiles the package
    return [float(_run_child("probe.py", cli_argv, PROBE_TIMEOUT)) for _ in range(SETUP_PROBES)]


def _worker(name: str, work: str, seconds: float, trace: bool) -> dict:
    args = ["--workload", name, "--work", work, "--seconds", repr(seconds)]
    if trace:
        args.append("--trace")
    return json.loads(_run_child("worker.py", args, seconds + WORKER_SLACK))


def _pool(results) -> dict:
    """One worker result from several: samples concatenated, absent labels merged."""
    return {
        "walls": [x for r in results for x in r["walls"]],
        "layers": [x for r in results for x in r["layers"]],
        "absent": sorted({x for r in results for x in r["absent"]}),
        "hook_errors": sorted({x for r in results for x in r["hook_errors"]}),
    }


def _tail(walls) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    k = len(walls)
    if k < 11:
        return {}
    return {"percentile": 100.0 * (k - 10) / k, "value": sorted(walls)[k - 11]}


def _git_sha() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None  # a checkout without git metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def _metric_specs(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args) -> dict:
    w = WORKLOADS[args.workload]
    work = os.path.join(".perfbench_work", f"{w.name}-{args.seed}-{os.getpid()}")  # relative to ROOT
    os.makedirs(work)
    try:
        config_text = write_config(w, args.seed, work)
        cli_argv = w.argv(work)
        identity = config_text if config_text is not None else " ".join(cli_argv[:3])
        record = {
            "workload": w.name,
            "why": w.why,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "machine": _machine(),
            "argv": cli_argv,
            "config": json.loads(config_text) if config_text is not None else None,
            "config_sha256": hashlib.sha256(identity.encode()).hexdigest(),
        }
        values = {}
        if not args.trace:
            setup = _setup_seconds(cli_argv)
            plain = _worker(w.name, work, args.seconds, False)
            runs = [plain]
            values["setup_s"] = statistics.median(setup)
            values["wall_s"] = statistics.median(plain["walls"])
            values["peak_rss_mb"] = plain["peak_rss_mb"]
            record["setup_samples"] = setup
            record["wall_s_tail"] = _tail(plain["walls"])
        else:
            # alternate untraced and traced quarters, so a slow spell of the
            # machine does not land on one side of trace_overhead_frac
            runs = [_worker(w.name, work, args.seconds / 4, t) for t in (False, True, False, True)]
            plain, traced = _pool(runs[0::2]), _pool(runs[1::2])
            for name in traced["layers"][0]:
                values[name] = statistics.median(lay[name] for lay in traced["layers"])
            values["trace_overhead_frac"] = (
                statistics.median(traced["walls"]) / statistics.median(plain["walls"]) - 1.0
            )
            record["absent"] = traced["absent"]
            record["hook_errors"] = traced["hook_errors"]
            record["traced_wall_samples"] = traced["walls"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        record["wall_samples"] = plain["walls"]
        record["wall_sample_count"] = len(plain["walls"])
        record["attempted"] = attempted
        record["failed"] = failed
        record["failed_frac"] = failed / attempted
        record["failure_reasons"] = [why for r in runs for why in r["reasons"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only if no concurrent run still uses it

    units = _metric_specs(bool(args.trace))
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run record as JSON here")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "superhs", "cli.py")):
        print("error: run from a superhs checkout (src/superhs/cli.py not found)", file=sys.stderr)
        return 1
    try:
        out = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(out["record"], handle, indent=2, sort_keys=True)
            handle.write("\n")
    print("record " + json.dumps(out["record"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
