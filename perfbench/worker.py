"""Run one workload's CLI command back to back in this process, checking every run.

Usage: python3 perfbench/worker.py --workload NAME --work DIR --seconds S [--trace]

Runs ``superhs.cli.main`` until S seconds have passed (at least MIN_RUNS
times) and prints one JSON object as its last line: per-run wall times,
operations attempted and failed, peak resident memory and, with --trace,
per-run layer metrics from ``spans.Tracer``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

import checks
from workloads import WORKLOADS, config_path, report_path, sim_out_dir

MIN_RUNS = 3
MAX_REASONS = 10


def _clear_outputs(kind: str, work_dir: str) -> None:
    if kind == "verify":
        with contextlib.suppress(FileNotFoundError):
            os.remove(report_path(work_dir))
    else:
        shutil.rmtree(sim_out_dir(work_dir), ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    w = WORKLOADS[args.workload]

    from superhs import cli
    from superhs.reporting import VerificationReport

    tracer = None
    absent = []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        absent = tracer.install()
    cfg = scales = None
    if w.kind == "simulate":
        with open(config_path(args.work)) as handle:
            cfg = json.load(handle)
        scales = checks.drift_scales(cfg)

    argv = w.argv(args.work)
    walls, layers, reasons = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_RUNS or time.perf_counter() < deadline:
        _clear_outputs(w.kind, args.work)
        gc.collect()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed run; keep measuring the others
            traceback.print_exc()
            rc = -1
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            layers.append(tracer.collect())
        if w.kind == "verify":
            n_failed, why = checks.verify_failures(w, args.work, rc, VerificationReport)
        else:
            n_failed, why = checks.simulate_failures(w, cfg, scales, args.work, rc)
        attempted += w.ops_per_run()
        failed += n_failed
        reasons.extend(why[: MAX_REASONS - len(reasons)])

    print(json.dumps({
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "absent": absent,
        "hook_errors": sorted(tracer.hook_errors) if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
