"""Workload definitions and the seeded input generator.

Each workload is one ``superhs`` CLI command.  The two ``verify`` workloads
take no seed: the identity suites are fixed inputs (``jacobi`` keeps its own
60 triples and seed).  The two ``simulate`` workloads get a config generated
here from the workload seed; the program sees only that JSON file.

``BENCHMARK.json`` gates on ``verify_all`` and ``sim_levels``.  The other two
are their counterparts for per-layer comparisons (``verify_identities`` drops
the jacobi product loop, ``sim_fine_dense`` has little level-product work) and
run with the same command.  On a shared 2-core machine wall time steadies
only over ~50 s windows, and four workloads at that length are too slow to
repeat as often as a regression check needs.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

ALL_SUITES = (
    "bracket", "geodesic", "biham", "lagrangian", "susy",
    "superspace", "lax", "recursion", "conservation", "jacobi",
)

# dt is a power of two, so every step time k*dt is exact in binary floating
# point and the solver's final time equals t_end with no rounding.
DT = 1.0 / 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "verify" or "simulate"
    suite: str = ""
    expected_ids: Tuple[str, ...] = ()
    n_grassmann: int = 0
    n_modes: int = 0
    steps: int = 0
    stride: int = 1

    def argv(self, work_dir: str) -> List[str]:
        if self.kind == "verify":
            return ["verify", "--suite", self.suite, "--out", report_path(work_dir)]
        return ["simulate", "--config", config_path(work_dir), "--out-dir", sim_out_dir(work_dir)]

    def ops_per_run(self) -> int:
        """Operations one CLI run attempts: one per check, or one per simulation."""
        return len(self.expected_ids) if self.kind == "verify" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify_all",
            why="every identity suite via superhs verify; jacobi's product loop is ~90% of it, "
            "so symbolic-kernel work (SymExpr products, jets) shows here",
            kind="verify",
            suite="all",
            expected_ids=ALL_SUITES,
        ),
        Workload(
            name="verify_identities",
            why="all suites but jacobi; the conservation flux certificate (substitute plus "
            "exact elimination) dominates, the jacobi product loop is absent",
            kind="verify",
            suite=",".join(s for s in ALL_SUITES if s != "jacobi"),
            expected_ids=tuple(s for s in ALL_SUITES if s != "jacobi"),
        ),
        Workload(
            name="sim_levels",
            why="superhs simulate at N=6, n=1024, sparse sampling; 32+32 Grassmann levels "
            "make level_product and per-level FFTs dominate",
            kind="simulate",
            n_grassmann=6,
            n_modes=1024,
            steps=12,
            stride=4,
        ),
        Workload(
            name="sim_fine_dense",
            why="N=2, n=4096, every step sampled; FFT-bound stepping plus per-sample "
            "diagnostics and stored states, with little level-product work",
            kind="simulate",
            n_grassmann=2,
            n_modes=4096,
            steps=96,
            stride=1,
        ),
    )
}


def report_path(work_dir: str) -> str:
    return os.path.join(work_dir, "report.json")


def config_path(work_dir: str) -> str:
    return os.path.join(work_dir, "config.json")


def sim_out_dir(work_dir: str) -> str:
    return os.path.join(work_dir, "out")


def _levels(n_grassmann: int, parity: int) -> List[List[int]]:
    """Soul levels (1-based generator lists) of the given parity, lowest first."""
    out = []
    for mask in range(1, 1 << n_grassmann):
        if bin(mask).count("1") % 2 == parity:
            out.append([i + 1 for i in range(n_grassmann) if mask >> i & 1])
    return out


def sim_config(w: Workload, seed: int) -> dict:
    """Config for a simulate workload, with soul amplitudes drawn from ``seed``.

    The body stays ``u = cos x``: its steepest characteristic sits at
    x = pi/2, a grid point, so the Riccati closed form for min u_x is exact.
    Odd levels of xi and even soul levels of u of cardinality two get one
    low-wavenumber mode each.
    """
    rng = random.Random(f"{w.name}:{seed}")

    def mode() -> dict:
        kind = rng.choice(("cos", "sin"))
        return {kind: {str(rng.choice((1, 2))): round(rng.uniform(0.05, 0.15), 6)}}

    xi = [dict(level=lvl, **mode()) for lvl in _levels(w.n_grassmann, 1) if len(lvl) == 1]
    u = [{"level": [], "cos": {"1": 1.0}}]
    u += [dict(level=lvl, **mode()) for lvl in _levels(w.n_grassmann, 0) if len(lvl) == 2]
    cfg = {
        "n_modes": w.n_modes,
        "dt": DT,
        "t_end": w.steps * DT,
        "n_grassmann": w.n_grassmann,
        "gauge": "zero_mean_ut",
        "dealias": True,
        "sample_stride": w.stride,
        "initial": {"u": u, "xi": xi},
    }
    if w.n_modes % 4:
        raise ValueError("the minimising characteristic x = pi/2 must be a grid point")
    if cfg["t_end"] > 0.5 * breaking_time(*body_slope_constants(cfg)):
        raise ValueError("t_end leaves the resolved window of the Riccati oracle")
    return cfg


def write_config(w: Workload, seed: int, work_dir: str) -> Optional[str]:
    """Write the generated config (simulate workloads); return its JSON text."""
    if w.kind != "simulate":
        return None
    text = json.dumps(sim_config(w, seed), indent=2, sort_keys=True)
    with open(config_path(work_dir), "w") as handle:
        handle.write(text)
    return text


# ---------------------------------------------------------------------------
# closed forms, computed from the config alone with plain numpy, so that the
# reference does not change when the solver under test does


def trig_series(n: int, entry: dict) -> np.ndarray:
    x = 2.0 * np.pi * np.arange(n) / n
    out = np.zeros(n)
    for k, amp in entry.get("cos", {}).items():
        out += float(amp) * np.cos(int(k) * x)
    for k, amp in entry.get("sin", {}).items():
        out += float(amp) * np.sin(int(k) * x)
    return out


def spectral_dx(arr: np.ndarray, order: int = 1) -> np.ndarray:
    n = arr.shape[-1]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    return np.fft.irfft(np.fft.rfft(arr) * (1j * k) ** order, n)


def body_slope_constants(cfg: dict) -> Tuple[float, float]:
    """(c, q0): c = sqrt(mean(u_x(0)^2)) and q0 = min u_x(0) of the body."""
    n = cfg["n_modes"]
    body = sum(
        (trig_series(n, e) for e in cfg["initial"]["u"] if not e["level"]), np.zeros(n)
    )
    ux = spectral_dx(body)
    return math.sqrt(float(np.mean(ux * ux))), float(ux.min())


def breaking_time(c: float, q0: float) -> float:
    return (2.0 / c) * (math.atan(q0 / c) + math.pi / 2)


def riccati_min_slope(c: float, q0: float, t: float) -> float:
    """min_x u_x(t) along the steepest characteristic (Hunter & Saxton 1991)."""
    return c * math.tan(math.atan(q0 / c) - c * t / 2)
