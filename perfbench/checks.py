"""Correctness gates on the files each CLI run writes.

A ``verify`` run is judged per check, a ``simulate`` run as a whole.  The
simulate gates use only the generated config and the output files: the body
slope is compared with the Riccati closed form and the per-level invariants
with a drift bound scaled as in the acceptance tests.
"""
from __future__ import annotations

import csv
import json
import os
from typing import Dict, List, Tuple

import numpy as np

from workloads import (
    Workload,
    body_slope_constants,
    report_path,
    riccati_min_slope,
    sim_out_dir,
    spectral_dx,
    trig_series,
)

RICCATI_TOL = 1e-10  # absolute error on min u_x; observed gaps are ~1e-13
DRIFT_TOL = 1e-7  # per-level H1/H2 drift over the scale from drift_scales
# A level whose integrand starts at zero (e.g. H1 on all six generators, which
# needs soul levels of u that only the flow excites) still drifts by roundoff;
# allow that much relative to the largest level of the same invariant.
ROUNDOFF_TOL = 1e-13


def verify_failures(w: Workload, work_dir: str, rc: int, report_cls) -> Tuple[int, List[str]]:
    """Failed checks of one ``verify`` run, with reasons."""
    everything = len(w.expected_ids)
    try:
        with open(report_path(work_dir)) as handle:
            text = handle.read()
        report = report_cls.from_json(text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return everything, [f"report unreadable: {exc}"]
    if report.to_json() != text:
        return everything, ["report does not round-trip through from_json"]
    ids = sorted(e.check_id for e in report.entries)
    if ids != sorted(w.expected_ids):
        return everything, [f"check ids {ids} differ from the requested set"]
    failed = [e.check_id for e in report.entries if not e.passed]
    if rc != 0 and not failed:
        return everything, [f"exit code {rc} with every check passing"]
    reasons = [f"check {c} failed" for c in failed]
    if failed and rc == 0:
        reasons.append("exit code 0 despite failed checks")
    return len(failed), reasons


def _mask_label(mask: int) -> str:
    if mask == 0:
        return "body"
    return "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _merge_sign(a: int, b: int) -> int:
    if a & b:
        return 0
    inversions = sum(bin(a >> (i + 1)).count("1") for i in range(b.bit_length()) if b >> i & 1)
    return -1 if inversions % 2 else 1


def _product(fa: Dict[int, np.ndarray], fb: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
    out: Dict[int, np.ndarray] = {}
    for ma, xa in fa.items():
        for mb, xb in fb.items():
            sign = _merge_sign(ma, mb)
            if sign:
                out[ma | mb] = out.get(ma | mb, 0.0) + sign * (xa * xb)
    return out


def _combine(fa: Dict[int, np.ndarray], fb: Dict[int, np.ndarray], sign: float) -> Dict[int, np.ndarray]:
    out = dict(fa)
    for m, x in fb.items():
        out[m] = out.get(m, 0.0) + sign * x
    return out


def drift_scales(cfg: dict) -> Dict[str, float]:
    """Per-level L1 size of the initial H1 and H2 integrands, keyed like series.csv.

    Soul levels start near zero, so drift relative to H(0) alone is
    meaningless there; the integrand's L1 norm is the natural scale.  The
    Grassmann products are recomputed here rather than taken from
    ``superhs.numerics``, whose level representation is due to change.
    """
    n = cfg["n_modes"]
    fields: Dict[str, Dict[int, np.ndarray]] = {"u": {}, "xi": {}}
    for name, entries in cfg["initial"].items():
        for e in entries:
            mask = sum(1 << (i - 1) for i in e["level"])
            fields[name][mask] = fields[name].get(mask, 0.0) + trig_series(n, e)
    u, xi = fields["u"], fields["xi"]
    u_x = {m: spectral_dx(a) for m, a in u.items()}
    xi_x = {m: spectral_dx(a) for m, a in xi.items()}
    xi_xx = {m: spectral_dx(a, 2) for m, a in xi.items()}
    ux2 = _product(u_x, u_x)
    h1 = _combine(ux2, _product(xi_xx, xi_x), 1.0)
    h2 = _combine(_product(u, ux2), _product(u, _product(xi_x, xi_xx)), -1.0)
    scales = {}
    for name, fam in (("H1", h1), ("H2", h2)):
        for m, arr in fam.items():
            scales[f"{name}_{_mask_label(m)}"] = 0.5 * float(np.abs(arr).mean()) * 2 * np.pi
    return scales


def _read_csv(path: str) -> Dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, j] for j, name in enumerate(rows[0])}


def simulate_failures(
    w: Workload, cfg: dict, scales: Dict[str, float], work_dir: str, rc: int
) -> Tuple[int, List[str]]:
    """1 and the reasons if one ``simulate`` run is wrong, else 0 and []."""
    out = sim_out_dir(work_dir)
    reasons: List[str] = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    try:
        with open(os.path.join(out, "summary.json")) as handle:
            summary = json.load(handle)
        final = _read_csv(os.path.join(out, "final_state.csv"))
        series = _read_csv(os.path.join(out, "series.csv"))
    except (OSError, ValueError, IndexError) as exc:
        return 1, reasons + [f"outputs unreadable: {exc}"]
    if summary.get("status") != "ok":
        reasons.append(f"status {summary.get('status')!r}")
    if summary.get("final_time") != cfg["t_end"]:
        reasons.append(f"final_time {summary.get('final_time')!r} != t_end {cfg['t_end']!r}")

    c, q0 = body_slope_constants(cfg)
    slope = float(spectral_dx(final["u_body"]).min())
    gap = abs(slope - riccati_min_slope(c, q0, cfg["t_end"]))
    if not gap <= RICCATI_TOL:
        reasons.append(f"body min u_x misses the Riccati closed form by {gap:.3g}")

    n_samples = w.steps // w.stride + 1 + (1 if w.steps % w.stride else 0)
    if len(series["time"]) != n_samples:
        reasons.append(f"{len(series['time'])} samples, expected {n_samples}")
    invariants = {k: v for k, v in series.items() if k[:3] in ("H1_", "H2_")}
    largest = {
        name: max([abs(float(v[0])) for k, v in invariants.items() if k.startswith(name)]
                  + [s for k, s in scales.items() if k.startswith(name)])
        for name in ("H1_", "H2_")
    }
    for key, values in invariants.items():
        drift = float(np.abs(values - values[0]).max())
        scale = max(abs(float(values[0])), scales.get(key, 0.0))
        if not drift <= DRIFT_TOL * scale + ROUNDOFF_TOL * largest[key[:3]]:
            reasons.append(f"{key} drifts by {drift:.3g} (scale {scale:.3g})")
    return (1 if reasons else 0), reasons
