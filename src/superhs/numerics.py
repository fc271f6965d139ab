"""Pseudospectral time integration of the system on the circle.

The fields take values in a finite Grassmann algebra Lambda_N.  Each field is
one level stack: u an ``(n_even, n)`` array with a row per even-cardinality
generator subset, xi an ``(n_odd, n)`` array with a row per odd one, in
``even_masks(N)`` / ``odd_masks(N)`` order; ``gmul_stack`` multiplies stacks
and the spectral helpers act on the last axis.  The default N = 2 is the
smallest truncation in which the fermionic backreaction on u is visible (it
needs two distinct generators), giving four coupled real components.

Time stepping solves the once-integrated form of the equations: the right
sides of u_tx and xi_tx are made mean-free (periodic solvability fixes the
integration constants) and inverted spectrally with the zero-mean gauge on
u_t, the canonical choice on the homogeneous space of the flow.  Each right
side takes one forward transform per field and applies the 2/3 truncation,
mean removal and 1/(ik) in one spectral pass.  A classical explicit
fourth-order one-step method advances the solution; wave-breaking shows up
as a NaN/Inf and aborts with a diagnostic rather than attempting continuation.
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .grassmann import EVEN, ODD, even_masks, gmul_stack, mask_row, odd_masks

TWO_PI = 2.0 * np.pi
# rows per field stack grow as 2**(N-1) and product pairs as 3**N
MAX_GRASSMANN = 8
# evolve keeps every sampled state: each holds 2**N rows of n_modes doubles
MAX_STEPS = 10**7
MAX_TRAJECTORY_BYTES = 2**30


class BlowUpError(RuntimeError):
    """Raised when the solution develops NaN/Inf (wave-breaking)."""

    def __init__(self, time: float, diagnostics: Dict[str, float]):
        super().__init__(f"solution blew up at t={time:.6g}: {diagnostics}")
        self.time = time
        self.diagnostics = diagnostics


# value type of each config field, by its annotation; bools count only as bool
_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


def _require(value, kind, what: str):
    """``value`` if it is a ``kind`` (bools never count as numbers), else ValueError."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what}, got {value!r}")
    return value


@dataclass(frozen=True)
class SolverConfig:
    n_modes: int = 256
    dt: float = 1e-3
    t_end: float = 1.0
    n_grassmann: int = 2
    gauge: str = "zero_mean_ut"
    dealias: bool = True
    sample_stride: int = 1

    def __post_init__(self):
        for f in fields(self):
            _require(getattr(self, f.name), _FIELD_TYPES[f.type], f"{f.name} must be of type {f.type}")
        if self.n_modes < 16 or self.n_modes & (self.n_modes - 1):
            raise ValueError("n_modes must be a power of two, at least 16")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        ratio = self.t_end / self.dt
        if not (math.isfinite(ratio) and round(ratio) >= 1):  # also rejects NaN and inf
            raise ValueError("t_end must allow at least one step of size dt")
        if abs(round(ratio) * self.dt - self.t_end) > 1e-9 * self.t_end:  # rounding slack
            raise ValueError(f"t_end {self.t_end!r} is not a whole number of steps dt {self.dt!r}")
        if not 0 <= self.n_grassmann <= MAX_GRASSMANN:
            raise ValueError(f"n_grassmann must be in 0..{MAX_GRASSMANN}, got {self.n_grassmann}")
        if self.gauge != "zero_mean_ut":
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")
        n_steps = round(ratio)
        if n_steps > MAX_STEPS:
            raise ValueError(f"t_end / dt is {n_steps} steps, above the limit of {MAX_STEPS}")
        # the initial state, every sample_stride-th step and the final step
        stored = 1 + -(-n_steps // self.sample_stride)
        state_bytes = stored * 2**self.n_grassmann * self.n_modes * 8
        if state_bytes > MAX_TRAJECTORY_BYTES:
            raise ValueError(
                f"the stored trajectory would take {state_bytes} bytes, "
                f"above the limit of {MAX_TRAJECTORY_BYTES}"
            )

    @staticmethod
    def from_dict(data: Mapping) -> "SolverConfig":
        unknown = sorted(set(data) - {f.name for f in fields(SolverConfig)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return SolverConfig(**data)


def grid(n_modes: int) -> np.ndarray:
    return TWO_PI * np.arange(n_modes) / n_modes


def _derivatives(arr: np.ndarray, orders: Sequence[int]) -> List[np.ndarray]:
    """Derivatives of the given orders along the last axis, from one transform."""
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    ik = 1j * np.fft.rfftfreq(n, d=1.0 / n)
    return [np.fft.irfft(spec * ik**order, n) for order in orders]


def spectral_dx(arr: np.ndarray, order: int = 1) -> np.ndarray:
    return _derivatives(arr, (order,))[0]


def spectral_antiderivative(arr: np.ndarray, dealias: bool = False) -> np.ndarray:
    """Zero-mean antiderivative on the circle; the input mean is discarded.

    ``dealias`` first cuts the top third of the modes as ``dealias_23`` does.
    """
    n = arr.shape[-1]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    spec = np.fft.rfft(arr)
    if dealias:
        spec[..., k > n / 3.0] = 0.0
    spec[..., 0] = 0.0
    spec[..., 1:] /= 1j * k[1:]
    return np.fft.irfft(spec, n)


def dealias_23(arr: np.ndarray) -> np.ndarray:
    """Standard two-thirds truncation of the top modes."""
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    spec[..., np.fft.rfftfreq(n, d=1.0 / n) > n / 3.0] = 0.0
    return np.fft.irfft(spec, n)


@dataclass
class GridState:
    """Physical-space samples of every Grassmann level of u and xi.

    ``u`` holds the even levels and ``xi`` the odd ones, one row each; the
    complementary levels are identically zero by parity and never stored.
    """

    u: np.ndarray
    xi: np.ndarray
    time: float = 0.0

    @property
    def n_modes(self) -> int:
        return self.u.shape[-1]

    @property
    def n_grassmann(self) -> int:
        # 2**(N-1) odd rows for N >= 1, none for N = 0
        return self.xi.shape[0].bit_length()

    def copy(self) -> "GridState":
        return GridState(self.u.copy(), self.xi.copy(), self.time)

    @staticmethod
    def zeros(n_modes: int, n_grassmann: int, time: float = 0.0) -> "GridState":
        u = np.zeros((len(even_masks(n_grassmann)), n_modes))
        xi = np.zeros((len(odd_masks(n_grassmann)), n_modes))
        return GridState(u, xi, time)

    def finite(self) -> bool:
        return bool(np.isfinite(self.u).all() and np.isfinite(self.xi).all())

    def max_abs_ux(self) -> float:
        return float(np.abs(spectral_dx(self.u)).max())


def rhs_once_integrated(state: GridState, cfg: SolverConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Time derivatives (u_t, xi_t) from the once-integrated equations.

    u_tx  = -(u u_xx + u_x**2/2 + xi_x xi_xx/2) - a(t)
    xi_tx = -(u xi_xx + u_x xi_x/2)             - b(t)

    a and b are the unique Grassmann-valued constants making the right sides
    mean-free (periodic solvability); u_t and xi_t then come from the
    zero-mean spectral antiderivative, which drops the mean.
    """
    n_gen = state.n_grassmann
    u_x, u_xx = _derivatives(state.u, (1, 2))
    xi_x, xi_xx = _derivatives(state.xi, (1, 2))
    w = -(
        gmul_stack(state.u, EVEN, u_xx, EVEN, n_gen)
        + 0.5 * gmul_stack(u_x, EVEN, u_x, EVEN, n_gen)
        + 0.5 * gmul_stack(xi_x, ODD, xi_xx, ODD, n_gen)
    )
    v = -(
        gmul_stack(state.u, EVEN, xi_xx, ODD, n_gen)
        + 0.5 * gmul_stack(u_x, EVEN, xi_x, ODD, n_gen)
    )
    return tuple(spectral_antiderivative(f, cfg.dealias) for f in (w, v))


def step(state: GridState, cfg: SolverConfig) -> GridState:
    """One classical fourth-order explicit step of size cfg.dt."""
    dt = cfg.dt
    max_u = float(np.abs(state.u).max())
    if dt * max_u > TWO_PI / state.n_modes:
        warnings.warn(
            f"dt*max|u| = {dt * max_u:.3g} exceeds the grid spacing; "
            "the step may be under-resolved",
            RuntimeWarning,
            stacklevel=2,
        )

    def add(s: GridState, c: float, du: np.ndarray, dxi: np.ndarray) -> GridState:
        return GridState(s.u + c * du, s.xi + c * dxi, s.time)

    with np.errstate(all="ignore"):
        k1u, k1x = rhs_once_integrated(state, cfg)
        k2u, k2x = rhs_once_integrated(add(state, dt / 2, k1u, k1x), cfg)
        k3u, k3x = rhs_once_integrated(add(state, dt / 2, k2u, k2x), cfg)
        k4u, k4x = rhs_once_integrated(add(state, dt, k3u, k3x), cfg)
        new = GridState(
            state.u + dt / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
            state.xi + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x),
            state.time + dt,
        )
    if not new.finite():
        diagnostics = {"max_abs_u": max_u, "max_abs_ux": state.max_abs_ux()}
        raise BlowUpError(new.time, diagnostics)
    return new


def conserved_quantities(state: GridState) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral quadrature of the two invariants as even level stacks.

    H1 = (1/2) integral (u_x**2 + xi_xx xi_x) dx
    H2 = (1/2) integral (u u_x**2 - u xi_x xi_xx) dx

    Each is an ``(n_even,)`` array, one entry per ``even_masks(N)`` level.
    """
    n = state.n_grassmann
    u_x = spectral_dx(state.u)
    xi_x, xi_xx = _derivatives(state.xi, (1, 2))
    ux2 = gmul_stack(u_x, EVEN, u_x, EVEN, n)
    h1_density = ux2 + gmul_stack(xi_xx, ODD, xi_x, ODD, n)
    h2_density = gmul_stack(state.u, EVEN, ux2, EVEN, n) - gmul_stack(
        state.u, EVEN, gmul_stack(xi_x, ODD, xi_xx, ODD, n), EVEN, n
    )
    # adding 0.0 turns a -0.0 into 0.0, so a level that vanishes always prints as 0
    return tuple(0.5 * density.mean(axis=-1) * TWO_PI + 0.0 for density in (h1_density, h2_density))


@dataclass
class ConservedSample:
    time: float
    h1: np.ndarray
    h2: np.ndarray
    max_abs_ux: float


@dataclass
class Trajectory:
    states: List[GridState] = field(default_factory=list)
    samples: List[ConservedSample] = field(default_factory=list)

    @property
    def final(self) -> GridState:
        return self.states[-1]


def evolve(state0: GridState, cfg: SolverConfig) -> Trajectory:
    """Advance to t_end, storing states and invariants every sample_stride steps."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    traj = Trajectory()

    def record(s: GridState) -> None:
        h1, h2 = conserved_quantities(s)
        traj.states.append(s.copy())
        traj.samples.append(ConservedSample(s.time, h1, h2, s.max_abs_ux()))

    state = state0.copy()
    record(state)
    for i in range(1, n_steps + 1):
        state = step(state, cfg)
        if i % cfg.sample_stride == 0 or i == n_steps:
            record(state)
    return traj


def residual_check(traj: Trajectory) -> float:
    """Max PDE residual of the stored trajectory (manufactured-residual style).

    Time derivatives come from centered differences of the samples, space
    derivatives are spectral; both lines of the second-order system are
    evaluated on every Grassmann level.
    """
    if len(traj.states) < 3:
        raise ValueError("need at least three stored samples")
    # require uniform spacing (the last sample may repeat the stride boundary)
    times = [s.time for s in traj.states]
    dt_s = times[1] - times[0]
    usable = len(traj.states)
    for i in range(1, usable):
        if abs((times[i] - times[i - 1]) - dt_s) > 1e-12:
            usable = i
            break
    n_gen = traj.states[0].n_grassmann
    worst = 0.0
    for i in range(1, usable - 1):
        prev, cur, nxt = traj.states[i - 1], traj.states[i], traj.states[i + 1]
        u_t = (nxt.u - prev.u) / (2 * dt_s)
        xi_t = (nxt.xi - prev.xi) / (2 * dt_s)
        u_x, u_xx, u_xxx = _derivatives(cur.u, (1, 2, 3))
        xi_x, xi_xx, xi_xxx = _derivatives(cur.xi, (1, 2, 3))
        line1 = (
            -spectral_dx(u_t, 2)
            - 2.0 * gmul_stack(u_x, EVEN, u_xx, EVEN, n_gen)
            - gmul_stack(cur.u, EVEN, u_xxx, EVEN, n_gen)
            - 0.5 * gmul_stack(xi_x, ODD, xi_xxx, ODD, n_gen)
        )
        line2 = (
            -spectral_dx(xi_t, 2)
            - gmul_stack(cur.u, EVEN, xi_xxx, ODD, n_gen)
            - 1.5 * gmul_stack(u_x, EVEN, xi_xx, ODD, n_gen)
            - 0.5 * gmul_stack(u_xx, EVEN, xi_x, ODD, n_gen)
        )
        for line in (line1, line2):
            worst = max(worst, float(np.abs(line).max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# initial conditions and file formats


def fourier_series(n_modes: int, cos_amps: Mapping, sin_amps: Mapping) -> np.ndarray:
    """Real trigonometric polynomial from {wavenumber: amplitude} tables."""
    x = grid(n_modes)
    out = np.zeros(n_modes)
    for k, amp in cos_amps.items():
        out += float(amp) * np.cos(int(k) * x)
    for k, amp in sin_amps.items():
        out += float(amp) * np.sin(int(k) * x)
    return out


def _mask_from_level(level: Sequence[int], n_grassmann: int) -> int:
    mask = 0
    for index in level:
        _require(index, numbers.Integral, "a generator index must be an integer")
        if not 1 <= index <= n_grassmann:
            raise ValueError(f"generator index {index} outside 1..{n_grassmann}")
        if mask >> (index - 1) & 1:
            raise ValueError(f"repeated generator index {index}")
        mask |= 1 << (index - 1)
    return mask


def _check_amplitudes(table, where: str) -> None:
    for k, amp in _require(table, Mapping, f"{where} must map wavenumbers to amplitudes").items():
        try:
            int(k)
        except ValueError:
            raise ValueError(f"{where} wavenumber {k!r} is not an integer") from None
        if not math.isfinite(_require(amp, numbers.Real, f"{where}[{k!r}] must be a number")):
            raise ValueError(f"{where}[{k!r}] must be finite, got {amp!r}")


def initial_state(spec: Mapping, cfg: SolverConfig) -> GridState:
    """Build a GridState from the JSON initial-condition specification.

    ``spec`` maps "u" and "xi" to lists of ``{"level": [...], "cos": {...},
    "sin": {...}}`` entries; levels are 1-based generator index lists, even
    cardinality for u, odd for xi.  Any other shape, key or a non-finite
    amplitude raises ValueError.
    """
    _require(spec, Mapping, "initial must be an object with 'u' and 'xi' lists")
    unknown = sorted(set(spec) - {"u", "xi"})
    if unknown:
        raise ValueError(f"unknown initial key(s): {', '.join(unknown)}")
    state = GridState.zeros(cfg.n_modes, cfg.n_grassmann)
    for name, target, want_parity in (("u", state.u, 0), ("xi", state.xi, 1)):
        entries = _require(spec.get(name, []), list, f"initial {name} must be a list of entries")
        for entry in entries:
            _require(entry, Mapping, f"each initial {name} entry must be an object")
            unknown = sorted(set(entry) - {"level", "cos", "sin"})
            if unknown:
                raise ValueError(f"unknown key(s) in an initial {name} entry: {', '.join(unknown)}")
            level = _require(entry.get("level", []), list, f"initial {name} level must be a list")
            mask = _mask_from_level(level, cfg.n_grassmann)
            if mask.bit_count() % 2 != want_parity:
                raise ValueError(f"{name} component on level {level} has the wrong parity")
            cos, sin = entry.get("cos", {}), entry.get("sin", {})
            _check_amplitudes(cos, f"initial {name} cos")
            _check_amplitudes(sin, f"initial {name} sin")
            target[mask_row(mask)] += fourier_series(cfg.n_modes, cos, sin)
    return state


def load_config(path: str) -> Tuple[SolverConfig, Mapping]:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("the configuration must be a JSON object")
    settings = {key: value for key, value in data.items() if key != "initial"}
    return SolverConfig.from_dict(settings), data.get("initial", {})


def mask_label(mask: int) -> str:
    if mask == 0:
        return "body"
    return "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def write_series_csv(path: str, traj: Trajectory) -> None:
    """time, per-level H1 and H2, and max|u_x| for every stored sample."""
    e_masks = even_masks(traj.final.n_grassmann)
    header = ["time"]
    header += [f"H1_{mask_label(m)}" for m in e_masks]
    header += [f"H2_{mask_label(m)}" for m in e_masks]
    header.append("max_abs_ux")
    lines = [",".join(header)]
    for sample in traj.samples:
        row = [f"{sample.time:.12g}"]
        row += [f"{v:.16e}" for v in sample.h1.tolist()]
        row += [f"{v:.16e}" for v in sample.h2.tolist()]
        row.append(f"{sample.max_abs_ux:.16e}")
        lines.append(",".join(row))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_state_csv(path: str, state: GridState) -> None:
    """x followed by every stored level of u and xi."""
    header = ["x"]
    header += [f"u_{mask_label(m)}" for m in even_masks(state.n_grassmann)]
    header += [f"xi_{mask_label(m)}" for m in odd_masks(state.n_grassmann)]
    columns = np.vstack([grid(state.n_modes), state.u, state.xi])
    lines = [",".join(header)]
    lines += [",".join(f"{v:.16e}" for v in row.tolist()) for row in columns.T]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
