"""Span tracer that instruments ``superhs`` from outside the package.

Every public function defined in a ``superhs`` module is wrapped, and the
wrapper is bound in every module namespace (and module-level registry dict,
such as ``structures.CHECKS``) that holds the original, so ``from .x import
y`` bindings are traced too.  ``SymExpr.__mul__`` and ``__add__`` are patched
on the class, and ``numpy.fft.rfft``/``irfft`` are wrapped with a counter.

Spans live in memory as parallel lists with parent links; ``collect`` turns
one CLI run's spans into per-layer metrics and clears them.  The hottest
helpers (``__hash__``, ``_sort_factors``, ``merge_sign``) are not wrapped:
their call counts are derived from the arguments of their callers
(``algebra.mul_pairs``, ``numerics.level_product_pairs``).
"""
from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import defaultdict
from typing import Callable, Dict, List

import numpy as np

LAYERS = ("algebra", "calculus", "density", "structures", "reporting", "grassmann", "numerics", "cli")
MODULES = LAYERS + ("sexpr",)
NOT_WRAPPED = frozenset({"merge_sign"})

# span labels the per-layer metrics read; a missing one is reported as absent
NAMED = (
    "algebra.mul", "algebra.add", "structures.lie_bracket", "structures.conservation_check",
    "calculus.substitute", "calculus.dx", "calculus.dt", "calculus.superD",
    "density.is_total_x_derivative", "density.euler_x",
    "numerics.level_product", "numerics.spectral_dx", "numerics.step",
    "numerics.rhs_once_integrated", "numerics.evolve", "numerics.conserved_quantities",
    "numerics.residual_check", "numerics.write_series_csv", "numerics.write_state_csv",
    "reporting.write_atomic", "cli.main",
)
ELIMINATION_CHILDREN = (
    "calculus.substitute", "calculus.dx", "calculus.dt", "density.is_total_x_derivative",
)


def _nbytes(value) -> int:
    """Bytes of the arrays in a level family (dict, sequence or stacked array)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = value.values()
    return sum(_nbytes(v) for v in value)


class Tracer:
    def __init__(self) -> None:
        self.label_ids: Dict[str, int] = {}
        self.labels: List[str] = []
        self._reset()
        self.suites: Dict[str, str] = {}  # suite name -> span label of its check
        self.hook_errors: set = set()  # labels whose derived counters could not be taken
        self._overlap_cache: Dict[tuple, int] = {}

    def _reset(self) -> None:
        self.name: List[int] = []
        self.parent: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.fft_start: List[int] = []
        self.fft_end: List[int] = []
        self.outermost: List[bool] = []
        self.stack: List[int] = []
        self.active: Dict[int, int] = defaultdict(int)
        self.fft_calls = 0
        self.fft_points = 0
        self.counters: Dict[str, float] = defaultdict(float)

    # -- instrumentation ---------------------------------------------------
    def _wrap(self, label: str, fn: Callable, after: Callable = None) -> Callable:
        lid = self.label_ids.setdefault(label, len(self.labels))
        if lid == len(self.labels):
            self.labels.append(label)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name)
            tracer.name.append(lid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.outermost.append(tracer.active[lid] == 0)
            tracer.active[lid] += 1
            tracer.stack.append(idx)
            tracer.fft_start.append(tracer.fft_calls)
            tracer.fft_end.append(0)
            tracer.end.append(0.0)
            tracer.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf()
                tracer.fft_end[idx] = tracer.fft_calls
                tracer.stack.pop()
                tracer.active[lid] -= 1
            if after is not None:
                try:
                    after(args, result)
                except (AttributeError, TypeError, ValueError):
                    tracer.hook_errors.add(label)  # the function's interface changed
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> List[str]:
        """Instrument the package for the rest of the process; return absent NAMED labels."""
        import superhs

        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"superhs.{short}")
            except ImportError:
                continue
        hooks = {
            "calculus.substitute": self._count_substitute,
            "numerics.level_product": self._count_level_pairs,
            "numerics.evolve": self._count_state_bytes,
        }
        wrappers: Dict[int, Callable] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in NOT_WRAPPED
                ):
                    label = f"{short}.{attr}"
                    wrappers[id(obj)] = self._wrap(label, obj, hooks.get(label))
        for mod in [superhs, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            obj[key] = wrappers[id(value)]
        checks = getattr(modules.get("structures"), "CHECKS", {})
        for suite, fn in checks.items():
            self.suites[suite] = f"structures.{getattr(fn, '__wrapped__', fn).__name__}"

        algebra = modules.get("algebra")
        sym = getattr(algebra, "SymExpr", None)
        if sym is not None:
            sym.__mul__ = self._wrap("algebra.mul", sym.__mul__, self._count_mul)
            sym.__add__ = self._wrap("algebra.add", sym.__add__)
        for attr in ("rfft", "irfft"):
            setattr(np.fft, attr, self._count_fft(getattr(np.fft, attr), attr == "rfft"))
        return [label for label in NAMED if label not in self.label_ids]

    # -- derived counters --------------------------------------------------
    def _count_fft(self, fn: Callable, forward: bool) -> Callable:
        tracer = self

        def counted(a, n=None, *args, **kwargs):
            shape = np.shape(a)
            if n is None:
                n = shape[-1] if forward else 2 * (shape[-1] - 1)
            tracer.fft_calls += 1
            tracer.fft_points += n * math.prod(shape[:-1])  # every row of a batch
            return fn(a, n, *args, **kwargs)

        return counted

    def _count_mul(self, args, result) -> None:
        this, other = args
        if isinstance(other, type(this)) and isinstance(result, type(this)):
            # one _mul_keys/_sort_factors call per pair of terms
            self.counters["algebra.mul_pairs"] += len(this) * len(other)
            self.counters["algebra.mul_terms_out"] += len(result)

    def _count_substitute(self, _args, result) -> None:
        self.counters["calculus.substitute_terms_out"] += len(result)

    def _count_level_pairs(self, args, _result) -> None:
        a, b = args
        sig = (tuple(a), tuple(b))
        disjoint = self._overlap_cache.get(sig)
        if disjoint is None:
            disjoint = sum(1 for ma in a for mb in b if not ma & mb)
            self._overlap_cache[sig] = disjoint
        self.counters["numerics.level_product_pairs"] += len(a) * len(b)
        self.counters["numerics.level_product_disjoint"] += disjoint

    def _count_state_bytes(self, _args, traj) -> None:
        states = getattr(traj, "states", ())
        self.counters["numerics.state_bytes"] += sum(
            _nbytes(s.u) + _nbytes(s.xi) for s in states
        )

    # -- aggregation -------------------------------------------------------
    def collect(self) -> Dict[str, float]:
        """Per-layer metrics of the spans since the last call; clears them."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_total = [0.0] * n
        elim_children = [0.0] * n
        elim_ids = {self.label_ids[l] for l in ELIMINATION_CHILDREN if l in self.label_ids}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_total[p] += dur[i]
                if self.name[i] in elim_ids:
                    elim_children[p] += dur[i]
        incl = defaultdict(float)  # outermost spans only, so recursion is not double counted
        calls = defaultdict(int)
        self_time = defaultdict(float)
        fft_in = defaultdict(int)
        conservation_self = 0.0
        cons = self.label_ids.get("structures.conservation_check")
        for i in range(n):
            label = self.labels[self.name[i]]
            calls[label] += 1
            self_time[label] += dur[i] - child_total[i]
            if self.outermost[i]:
                incl[label] += dur[i]
                fft_in[label] += self.fft_end[i] - self.fft_start[i]
            if self.name[i] == cons:
                conservation_self += dur[i] - elim_children[i]

        m: Dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                t for label, t in self_time.items() if label.split(".", 1)[0] == layer
            )
        for fn in ("mul", "add"):
            m[f"algebra.{fn}_s"] = incl[f"algebra.{fn}"]
            m[f"algebra.{fn}_calls"] = calls[f"algebra.{fn}"]
        m["algebra.mul_pairs"] = self.counters["algebra.mul_pairs"]
        m["algebra.mul_terms_out"] = self.counters["algebra.mul_terms_out"]
        m["algebra.mul_yield"] = _ratio(m["algebra.mul_terms_out"], m["algebra.mul_pairs"])
        for suite, label in self.suites.items():
            m[f"structures.{suite}_s"] = incl[label]
        m["structures.lie_bracket_s"] = incl["structures.lie_bracket"]
        m["structures.lie_bracket_calls"] = calls["structures.lie_bracket"]
        m["structures.conservation_check_s"] = incl["structures.conservation_check"]
        m["structures.conservation_check_self_s"] = conservation_self
        m["calculus.substitute_s"] = incl["calculus.substitute"]
        m["calculus.substitute_calls"] = calls["calculus.substitute"]
        m["calculus.substitute_terms_out"] = self.counters["calculus.substitute_terms_out"]
        m["calculus.dx_s"] = incl["calculus.dx"]
        m["calculus.dx_calls"] = calls["calculus.dx"]
        m["calculus.superD_s"] = incl["calculus.superD"]
        m["density.is_total_x_derivative_s"] = incl["density.is_total_x_derivative"]
        m["density.euler_x_s"] = incl["density.euler_x"]
        m["numerics.level_product_s"] = incl["numerics.level_product"]
        m["numerics.level_product_pairs"] = self.counters["numerics.level_product_pairs"]
        m["numerics.level_product_yield"] = _ratio(
            self.counters["numerics.level_product_disjoint"], m["numerics.level_product_pairs"]
        )
        m["numerics.spectral_dx_s"] = incl["numerics.spectral_dx"]
        m["numerics.spectral_dx_calls"] = calls["numerics.spectral_dx"]
        m["numerics.fft_calls_per_rhs"] = _ratio(
            fft_in["numerics.rhs_once_integrated"], calls["numerics.rhs_once_integrated"]
        )
        m["numerics.fft_points"] = self.fft_points
        m["numerics.step_s"] = incl["numerics.step"]
        m["numerics.step_calls"] = calls["numerics.step"]
        m["numerics.step_ms"] = 1e3 * _ratio(m["numerics.step_s"], m["numerics.step_calls"])
        m["numerics.rhs_once_integrated_s"] = incl["numerics.rhs_once_integrated"]
        m["numerics.evolve_s"] = incl["numerics.evolve"]
        m["numerics.conserved_quantities_s"] = incl["numerics.conserved_quantities"]
        m["numerics.residual_check_s"] = incl["numerics.residual_check"]
        m["numerics.write_csv_s"] = incl["numerics.write_series_csv"] + incl["numerics.write_state_csv"]
        m["numerics.state_bytes"] = self.counters["numerics.state_bytes"]
        m["reporting.write_atomic_s"] = incl["reporting.write_atomic"]
        m["cli.main_self_s"] = self_time["cli.main"]
        self._reset()
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
