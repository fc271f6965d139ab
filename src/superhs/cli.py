"""Command-line entry point: run verification suites, simulations, and reports.

Exit codes: 0 success, 1 check failure, 2 usage/configuration error
(including an output path that cannot be written), 3 simulation blow-up.

The solver modules, and numpy with them, are imported only by ``simulate``,
so ``verify`` and ``report`` run on the pure-Python symbolic layer.  Beyond
the standard library's start-up modules, ``verify`` imports ``argparse``,
``json``, ``fractions``, ``typing`` and ``tempfile`` (for the atomic report
write), with what they import.  No command loads OpenSSL: ``verify``'s config
hash, one SHA-256 of the check names, comes from CPython's builtin digest
module, because ``hashlib`` maps OpenSSL's libcrypto into the process (about
3.6 MB resident and 4-5 ms of import).  No command loads ``dataclasses``
either: the package's records are plain classes, because ``dataclasses``
imports ``inspect``, ``ast``, ``dis`` and ``tokenize`` (about 6 ms) and
decorating the seven classes on the ``verify`` path took about 3.6 ms more.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from .reporting import (
    CheckResult,
    VerificationReport,
    make_metadata,
    write_atomic,
)
from .structures import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BLOWUP = 3


def _sha256_hex(text: str) -> str:
    """Hex SHA-256 of the UTF-8 text, from the builtin module where CPython ships one."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:  # a build that routes every digest through OpenSSL
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


def _parse_suite(raw: Sequence[str]) -> List[str]:
    """Check names in first-requested order, each once; ``all`` stands for every check."""
    requested = [part for chunk in raw for part in chunk.split(",") if part]
    unknown = [n for n in requested if n != "all" and n not in SUITE_NAMES]
    if unknown:
        raise ValueError(
            f"unknown suite name(s) {', '.join(unknown)}; "
            f"choose from: all, {', '.join(SUITE_NAMES)}"
        )
    if not requested:
        raise ValueError("suite selection is empty")
    expanded = (SUITE_NAMES if n == "all" else (n,) for n in requested)
    return list(dict.fromkeys(name for group in expanded for name in group))


def _print_table(entries: Sequence[CheckResult]) -> None:
    width = max(len(e.check_id) for e in entries)
    for e in entries:
        status = "PASS" if e.passed else "FAIL"
        line = f"{status}  {e.check_id:<{width}}  {e.elapsed:8.3f}s"
        if e.detail:
            line += f"  {e.detail}"
        print(line)
        if not e.passed and e.residual:
            print(f"      residual: {e.residual[:200]}")


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        names = _parse_suite(args.suite)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    entries = run_suite(names)
    config_hash = _sha256_hex(",".join(names))[:16]
    report = VerificationReport(entries=entries, metadata=make_metadata(config_hash))
    _print_table(entries)
    if args.out:
        try:
            write_atomic(args.out, report.to_json())
        except OSError as exc:
            print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {args.out}")
    return EXIT_OK if report.all_passed() else EXIT_CHECK_FAILED


def _drift_summary(traj) -> dict:
    """Per-level drift of H1 and H2: the body and every level nonzero in some sample.

    ``max_rel_drift`` is the drift over max(|initial|, S), S the level's largest
    L1 norm over the samples, so a level that integrates to zero does not read
    roundoff over roundoff; a level whose S is 0 reports 0.
    """
    from .grassmann import even_masks
    from .numerics import mask_label

    out = {}
    for name in ("h1", "h2"):
        for row, m in enumerate(even_masks(traj.final.n_grassmann)):
            values = [float(getattr(s, name)[row]) for s in traj.samples]
            if m and not any(values):
                continue
            initial = values[0]
            drift = max(abs(v - initial) for v in values)
            l1 = max(float(getattr(s, f"{name}_l1")[row]) for s in traj.samples)
            scale = max(abs(initial), l1)
            out[f"{name.upper()}_{mask_label(m)}"] = {
                "initial": initial,
                "max_abs_drift": drift,
                "max_rel_drift": drift / scale if scale else 0.0,
            }
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    from .numerics import (
        BlowUpError,
        evolve,
        initial_state,
        load_config,
        write_series_csv,
        write_state_csv,
    )

    try:
        cfg, init_spec = load_config(args.config)
        start = [initial_state(init_spec, cfg)]
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested JSON recurses
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {args.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    summary: dict = {"config": args.config, "n_grassmann": cfg.n_grassmann}
    blowup = None
    try:
        # popped, so that evolve holds the only reference and frees the
        # initial state after its first step (on CPython 3.11 and later)
        traj = evolve(start.pop(), cfg)
    except BlowUpError as exc:
        blowup = exc
        summary.update(status="blowup", blowup_time=exc.time, diagnostics=exc.diagnostics)
    else:
        summary["status"] = "ok"
        summary["final_time"] = traj.final.time
        summary["conservation"] = _drift_summary(traj)
        summary["max_abs_ux"] = max(s.max_abs_ux for s in traj.samples)
        if traj.residual is not None:
            summary["residual_check"] = traj.residual
    try:
        if blowup is None:
            write_series_csv(os.path.join(args.out_dir, "series.csv"), traj)
            write_state_csv(os.path.join(args.out_dir, "final_state.csv"), traj.final)
        write_atomic(os.path.join(args.out_dir, "summary.json"), json.dumps(summary, indent=2))
    except OSError as exc:
        print(f"error: cannot write output in {args.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if blowup is not None:
        print(f"simulation aborted: {blowup}", file=sys.stderr)
        return EXIT_BLOWUP
    print(f"simulation complete at t = {traj.final.time:g}; outputs in {args.out_dir}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    any_fail = False
    for path in args.files:
        try:
            with open(path) as handle:
                report = VerificationReport.from_json(handle.read())
        except (OSError, ValueError, RecursionError) as exc:
            print(f"error: cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"== {path}")
        _print_table(report.entries)
        any_fail = any_fail or not report.all_passed()
    return EXIT_CHECK_FAILED if any_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhs",
        description=(
            "Verify the algebraic identities of the supersymmetric "
            "Hunter-Saxton system and integrate it on the circle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run identity checks")
    p_verify.add_argument(
        "--suite",
        action="append",
        required=True,
        help=(
            "comma-separated check names or 'all', repeatable; each check runs once "
            f"({', '.join(SUITE_NAMES)})"
        ),
    )
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="run a simulation from a JSON config")
    p_sim.add_argument("--config", required=True, help="JSON configuration file")
    p_sim.add_argument("--out-dir", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("report", help="summarize report files")
    p_rep.add_argument("files", nargs="+", help="verification report JSON files")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
