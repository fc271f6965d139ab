"""Pseudospectral time integration of the system on the circle.

The fields take values in a finite Grassmann algebra Lambda_N.  Each field is
one level stack: u an ``(n_even, n)`` array with a row per even-cardinality
generator subset, xi an ``(n_odd, n)`` array with a row per odd one, in
``even_masks(N)`` / ``odd_masks(N)`` order; ``gmul_stack`` multiplies stacks
and the spectral helpers act on the last axis.  The default N = 2 is the
smallest truncation in which the fermionic backreaction on u is visible (it
needs two distinct generators), giving four coupled real components.

The solver writes no equation of its own.  ``evaluate`` multiplies a
symbolic expression out on level stacks, and the same loop, ``_sum_products``,
runs the expressions that ``structures`` derives and checks: the
once-integrated potentials for the right side, the Hamiltonian densities for
the invariants and the second-order right sides for the residual.  They are
checked and turned into float terms once per process.

Time stepping solves the once-integrated form of the equations: the right
sides of u_tx and xi_tx are made mean-free (periodic solvability fixes the
integration constants) and inverted spectrally with the zero-mean gauge on
u_t, the canonical choice on the homogeneous space of the flow.  Each right
side takes one forward transform per field and applies the 2/3 truncation,
mean removal and 1/(ik) in one spectral pass: one multiply by a factor that
is zero on the cut modes and the mean and (ik)**-1 on the rest.  The
spectral derivatives multiply by (ik)**order the same way; each factor is
built once per grid and order.  A classical explicit fourth-order one-step
method advances the solution, summing its weighted slopes as each stage
ends; wave-breaking shows up as a NaN/Inf and aborts with a diagnostic
rather than attempting continuation.

``evolve`` checks each run against the second-order system as it goes: the
residual at a sample needs only its neighbours, so it is taken as the samples
arrive, and the solver holds the last three sampled states, never the whole
trajectory.  ``residual_check`` takes the same residual of any sequence of
states with the same per-triple kernel.
"""
from __future__ import annotations

import json
import math
import numbers
import warnings
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import EVEN, THETA, JetFactor, ParityError, SymExpr
from .grassmann import even_masks, gmul_stack, mask_row, odd_masks
from .structures import XI, U, geodesic_system, hamiltonian_densities

TWO_PI = 2.0 * np.pi
# rows per field stack grow as 2**(N-1) and product pairs as 3**N
MAX_GRASSMANN = 8
MAX_STEPS = 10**7
# all sampled states together, 2**N rows of n_modes doubles each: evolve holds only
# the last three, so this bounds the recorded series rather than the memory held
MAX_TRAJECTORY_BYTES = 2**30


class BlowUpError(RuntimeError):
    """Raised when the solution develops NaN/Inf (wave-breaking)."""

    def __init__(self, time: float, diagnostics: Dict[str, float]):
        super().__init__(f"solution blew up at t={time:.6g}: {diagnostics}")
        self.time = time
        self.diagnostics = diagnostics


# each config field: the type its value must have, that type's name, and its default
_CONFIG_FIELDS = {
    "n_modes": (numbers.Integral, "int", 256),
    "dt": (numbers.Real, "float", 1e-3),
    "t_end": (numbers.Real, "float", 1.0),
    "n_grassmann": (numbers.Integral, "int", 2),
    "gauge": (str, "str", "zero_mean_ut"),
    "dealias": (bool, "bool", True),
    "sample_stride": (numbers.Integral, "int", 1),
}


def _require(value, kind, what: str):
    """``value`` if it is a ``kind`` (bools never count as numbers), else ValueError."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what}, got {value!r}")
    return value


class SolverConfig:
    """The solver's settings, given by keyword; each one absent takes its ``_CONFIG_FIELDS`` default."""

    __slots__ = tuple(_CONFIG_FIELDS)

    def __init__(self, **settings):
        unknown = sorted(set(settings) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        for name, (kind, type_name, default) in _CONFIG_FIELDS.items():
            value = settings.get(name, default)
            setattr(self, name, _require(value, kind, f"{name} must be of type {type_name}"))
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


def grid(n_modes: int) -> np.ndarray:
    return TWO_PI * np.arange(n_modes) / n_modes


@lru_cache(maxsize=None)
def _spectral_factor(n: int, order: int, cut: bool) -> np.ndarray:
    """(ik)**order on the modes of an n-point real transform, built once per argument set.

    Zero at k = 0 for a negative order (the mean is dropped) and, with
    ``cut``, above n/3 (the two-thirds rule).
    """
    k = np.fft.rfftfreq(n, d=1.0 / n)
    kept = slice(1 if order < 0 else 0, n // 3 + 1 if cut else len(k))
    factor = np.zeros(len(k), dtype=complex)
    factor[kept] = (1j * k[kept]) ** order
    factor.setflags(write=False)  # shared by every caller
    return factor


def _derivatives(arr: np.ndarray, orders: Sequence[int]) -> List[np.ndarray]:
    """Derivatives of the given orders along the last axis, from one transform.

    Order 0 is ``arr`` itself and takes no inverse transform.
    """
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    return [
        np.fft.irfft(spec * _spectral_factor(n, order, False), n) if order else arr for order in orders
    ]


def spectral_dx(arr: np.ndarray, order: int = 1) -> np.ndarray:
    return _derivatives(arr, (order,))[0]


def spectral_antiderivative(arr: np.ndarray, dealias: bool = False) -> np.ndarray:
    """Zero-mean antiderivative on the circle; the input mean is discarded.

    ``dealias`` first cuts the modes above n/3 (the two-thirds rule).
    """
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    spec *= _spectral_factor(n, -1, dealias)
    return np.fft.irfft(spec, n)


class GridState:
    """Physical-space samples of every Grassmann level of u and xi.

    ``u`` holds the even levels and ``xi`` the odd ones, one row each; the
    complementary levels are identically zero by parity and never stored.
    """

    __slots__ = ("u", "xi", "time")

    def __init__(self, u: np.ndarray, xi: np.ndarray, time: float = 0.0):
        self.u, self.xi, self.time = u, xi, time

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


# ---------------------------------------------------------------------------
# symbolic expressions on level stacks


def _float_terms(exprs: Sequence[SymExpr]) -> Tuple[list, list]:
    """Check expressions for evaluation; return their shared slots and float terms.

    The slots are the jets, sorted by field name and order, after ``None``,
    the body 1 that a field-free term starts from.  A monomial becomes
    ``(coeff, slot, parity, rest)``: its last factor's slot and parity, then
    the other factors' ``(slot, parity)`` from right to left.  A mixed-parity
    expression, lam, theta and superspace jets raise.
    """
    jets = set()
    for expr in exprs:
        if expr.parity() is None:
            raise ParityError("cannot evaluate a mixed-parity expression")
        for (lam, factors), _ in expr.terms():
            if lam or THETA in factors:
                raise ValueError("cannot evaluate expressions containing lam or theta")
            jets.update(factors or (None,))
    for f in jets - {None}:
        if f.symbol.superspace:
            raise ValueError(f"cannot evaluate superspace jet {f}")
    slots = sorted(jets, key=lambda f: () if f is None else (f.symbol.name, f.dt, f.dx))
    index = {f: i for i, f in enumerate(slots)}

    def float_term(factors, coeff):
        last, *rest = [(index[f], f.parity) for f in reversed(factors)] or [(index[None], EVEN)]
        return (float(coeff), *last, tuple(rest))

    return slots, [[float_term(key[1], c) for key, c in expr.terms()] for expr in exprs]


def _sum_products(terms: list, stacks: Sequence[np.ndarray], n_generators: int) -> np.ndarray:
    """The package's one loop that multiplies monomials into level stacks.

    Sums nonempty float terms with each slot bound to its stack.  A monomial
    starts from its last factor's stack and takes the others on from the left
    with ``gmul_stack`` (``a*b*c`` is ``a*(b*c)``); its coefficient scales it
    last.
    """
    total = None
    for coeff, slot, parity, rest in terms:
        acc = stacks[slot]
        for slot, factor_parity in rest:
            acc = gmul_stack(stacks[slot], factor_parity, acc, parity, n_generators)
            parity ^= factor_parity
        if rest:
            acc *= coeff  # a fresh product
        else:
            acc = acc * coeff  # a copy, so the total never aliases a bound stack
        if total is None:
            total = acc
        else:
            total += acc
    return total


def evaluate(
    expr: SymExpr,
    bindings: Mapping[JetFactor, Union[float, np.ndarray]],
    n_generators: int = 0,
) -> np.ndarray:
    """Evaluate ``expr`` with every jet bound to a level stack of ``Lambda_N``.

    A jet's stack has one row per ``even_masks(N)``/``odd_masks(N)`` mask of
    the jet's parity, and its trailing axes, if any, index points; an even jet
    may instead be bound to a float, which is its body.  Returns the stack of
    the expression's parity (the zero expression gives an even zero stack).
    A mixed-parity expression, lam, theta, superspace jets and a stack with
    the wrong row count raise.
    """
    slots, (terms,) = _float_terms((expr,))
    n_rows = (len(even_masks(n_generators)), len(odd_masks(n_generators)))
    stacks = []
    for f in slots:
        if f is not None and f not in bindings:
            raise KeyError(f"no binding for jet {f}")
        val, parity = (1.0, EVEN) if f is None else (bindings[f], f.parity)
        if not isinstance(val, np.ndarray):
            if parity:
                raise ValueError(f"odd jet {f} must be bound to a level stack")
            val = np.array([float(val)] + [0.0] * (n_rows[EVEN] - 1))
        if val.shape[:1] != (n_rows[parity],):
            raise ValueError(
                f"jet {f} needs {n_rows[parity]} rows at N = {n_generators}, "
                f"got shape {val.shape}"
            )
        stacks.append(val)
    points = np.broadcast_shapes(*(v.shape[1:] for v in stacks))
    if not terms:
        return np.zeros((n_rows[EVEN],) + points)
    # a product takes its point axes from its left factor, so give every stack all of them
    stacks = [v.reshape(v.shape[:1] + (1,) * (len(points) + 1 - v.ndim) + v.shape[1:]) for v in stacks]
    return _sum_products(terms, [np.broadcast_to(v, v.shape[:1] + points) for v in stacks], n_generators)


@lru_cache(maxsize=None)
def _system_terms() -> Dict[str, tuple]:
    """The system's equations as float terms, derived by ``structures`` once per process.

    ``"rhs"`` holds the once-integrated potentials, ``"invariants"`` the H1
    and H2 densities and ``"residual"`` rhs_m and rhs_eta.  Each entry is the
    x-orders of u and of xi that its slots bind, then each expression's terms.
    """
    system = geodesic_system()
    out = {}
    for name, exprs in (
        ("rhs", system.once_integrated_potentials()),
        ("invariants", hamiltonian_densities()),
        ("residual", (system.rhs_m, system.rhs_eta)),
    ):
        slots, terms = _float_terms(exprs)
        # sorted by field name, the slots hold the jets of u and then those of xi
        if any(f is None or f.symbol not in (U, XI) or f.dt for f in slots):
            raise ValueError(f"the solver binds only x-jets of u and xi, got {slots}")
        out[name] = [tuple(f.dx for f in slots if f.symbol == field) for field in (U, XI)], terms
    return out


def _jet_stacks(state: GridState, orders: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """Slot stacks: u's and then xi's jets at the given x-orders, one transform per field."""
    return _derivatives(state.u, orders[0]) + _derivatives(state.xi, orders[1])


def rhs_once_integrated(state: GridState, cfg: SolverConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Time derivatives (u_t, xi_t) from the once-integrated equations.

    u_tx = pot_u - a(t) and xi_tx = pot_xi - b(t), with the potentials of
    ``geodesic_system().once_integrated_potentials()``, the exact
    x-antiderivatives of the verified right-hand sides.  a and b are the
    unique Grassmann-valued constants making the right sides mean-free
    (periodic solvability); u_t and xi_t then come from the zero-mean
    spectral antiderivative, which drops the mean.
    """
    orders, potentials = _system_terms()["rhs"]
    # the jet stacks stay alive through both antiderivatives: freeing them first
    # made the allocator hand back the heap top and fault it in again, 1.5x the
    # page faults and a slower step at N = 6, n = 1024
    stacks = _jet_stacks(state, orders)
    return tuple(
        spectral_antiderivative(_sum_products(terms, stacks, state.n_grassmann), cfg.dealias)
        for terms in potentials
    )


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
        # k1 + 2 k2 + 2 k3 + k4 is summed left to right into k1's arrays as each
        # stage ends, and a stage's slopes are dropped once the next stage state
        # exists, so the step never holds more than two slope pairs
        sum_u, sum_xi = rhs_once_integrated(state, cfg)
        stage = add(state, dt / 2, sum_u, sum_xi)
        # k2, k3 and k4: each one's weight and the offset of the stage it starts
        for weight, offset in ((2.0, dt / 2), (2.0, dt), (1.0, None)):
            k_u, k_xi = rhs_once_integrated(stage, cfg)
            stage = None if offset is None else add(state, offset, k_u, k_xi)
            k_u *= weight
            k_xi *= weight
            sum_u += k_u
            sum_xi += k_xi
            del k_u, k_xi
        new = GridState(state.u + dt / 6 * sum_u, state.xi + dt / 6 * sum_xi, state.time + dt)
    if not new.finite():
        diagnostics = {"max_abs_u": max_u, "max_abs_ux": state.max_abs_ux()}
        raise BlowUpError(new.time, diagnostics)
    return new


def _invariants_with_l1(state: GridState) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """H1 and H2 and their L1 norms 2*pi*mean_x|integrand|, each per ``even_masks(N)`` level."""
    orders, densities = _system_terms()["invariants"]
    stacks = _jet_stacks(state, orders)
    integrals, l1_norms = [], []
    for terms in densities:
        rho = _sum_products(terms, stacks, state.n_grassmann)
        # adding 0.0 turns a -0.0 into 0.0, so a level that vanishes always prints as 0
        integrals.append(rho.mean(axis=-1) * TWO_PI + 0.0)
        l1_norms.append(np.abs(rho, out=rho).mean(axis=-1) * TWO_PI)
        del rho  # so that the next integrand is not built beside this one
    return tuple(integrals), tuple(l1_norms)


def conserved_quantities(state: GridState) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral quadrature of H1 and H2, the densities of ``hamiltonian_densities()``.

    Each is an ``(n_even,)`` array, one entry per ``even_masks(N)`` level.
    """
    return _invariants_with_l1(state)[0]


class ConservedSample:
    """H1 and H2 per level at one time, with their L1 norms 2*pi*mean|integrand|."""

    __slots__ = ("time", "h1", "h2", "max_abs_ux", "h1_l1", "h2_l1")

    def __init__(self, time: float, h1: np.ndarray, h2: np.ndarray, max_abs_ux: float,
                 h1_l1: np.ndarray, h2_l1: np.ndarray):
        self.time, self.h1, self.h2, self.max_abs_ux = time, h1, h2, max_abs_ux
        self.h1_l1, self.h2_l1 = h1_l1, h2_l1


class Trajectory:
    """The invariants of every sample, the final state and the run's residual.

    ``residual`` is ``residual_check`` of the sampled states, or None when
    fewer than three of them are evenly spaced from the start.
    """

    __slots__ = ("samples", "final", "residual")

    def __init__(self, samples: List[ConservedSample], final: GridState, residual: Optional[float]):
        self.samples, self.final, self.residual = samples, final, residual


def _evenly_spaced(gap: float, dt_s: float) -> bool:
    """Is a gap between samples the first spacing, up to rounding?"""
    return abs(gap - dt_s) <= 1e-12


def _triple_residual(prev: GridState, cur: GridState, nxt: GridState, dt_s: float) -> float:
    """Max residual of both lines of the second-order system at ``cur``.

    Time derivatives are centered differences over ``prev`` and ``nxt``.  The
    jets, m_t and eta_t are freed when the call returns, so no two triples'
    temporaries are alive at once.
    """
    orders, (rhs_m, rhs_eta) = _system_terms()["residual"]
    # m_t and eta_t for m = -u_xx and eta = -xi_xx
    m_t = -spectral_dx((nxt.u - prev.u) / (2 * dt_s), 2)
    eta_t = -spectral_dx((nxt.xi - prev.xi) / (2 * dt_s), 2)
    stacks = _jet_stacks(cur, orders)
    worst = 0.0
    for lhs, terms in ((m_t, rhs_m), (eta_t, rhs_eta)):
        rhs = _sum_products(terms, stacks, cur.n_grassmann)
        worst = max(worst, float(np.abs(lhs - rhs).max(initial=0.0)))
    return worst


def evolve(state0: GridState, cfg: SolverConfig) -> Trajectory:
    """Advance to t_end, sampling the invariants every sample_stride steps and at the end.

    The residual is taken as the samples arrive, one triple of consecutive
    samples at a time, so only the last three sampled states are ever held;
    it equals ``residual_check`` of all of them.  ``state0`` is not modified.
    """
    n_steps = int(round(cfg.t_end / cfg.dt))
    samples: List[ConservedSample] = []
    window: List[GridState] = []  # copies of the last sampled states, at most three
    residual: Optional[float] = None
    uniform = True  # the samples so far are evenly spaced from the start

    def record(s: GridState) -> None:
        nonlocal residual, uniform
        integrals, l1_norms = _invariants_with_l1(s)
        samples.append(ConservedSample(s.time, *integrals, s.max_abs_ux(), *l1_norms))
        # ``step`` returns fresh arrays, but they were allocated among its
        # temporaries; under glibc malloc, keeping them instead of a copy
        # fragments the heap (peak RSS 44.7 -> 48.0 MB at N=6, n=1024)
        window.append(s.copy())
        if uniform and len(samples) > 2:
            dt_s = samples[1].time - samples[0].time  # every triple's, as in residual_check
            uniform = _evenly_spaced(s.time - samples[-2].time, dt_s)
            if uniform:
                worst = _triple_residual(*window, dt_s)
                residual = worst if residual is None else max(residual, worst)
        del window[:-2]

    state = state0
    del state0  # so that the first step frees the initial state unless the caller holds it
    record(state)
    for i in range(1, n_steps + 1):
        state = step(state, cfg)
        if i % cfg.sample_stride == 0 or i == n_steps:
            record(state)
    return Trajectory(samples, window[-1], residual)


def residual_check(states: Sequence[GridState]) -> float:
    """Max PDE residual of a sequence of sampled states (manufactured-residual style).

    Time derivatives come from centered differences of the samples, space
    derivatives are spectral; both lines of the second-order system,
    m_t = rhs_m and eta_t = rhs_eta of ``geodesic_system()``, are evaluated on
    every Grassmann level at each interior sample of the longest run evenly
    spaced from the start (the last sample may be closer).  ``evolve`` takes
    the same residual as it samples.  Fewer than three evenly spaced samples
    raise ``ValueError``: they have no interior sample.
    """
    times = [s.time for s in states]
    usable = len(times)
    if usable >= 2:
        dt_s = times[1] - times[0]
        gaps = (i for i in range(2, usable) if not _evenly_spaced(times[i] - times[i - 1], dt_s))
        usable = next(gaps, usable)
    if usable < 3:
        raise ValueError("need at least three samples evenly spaced from the start")
    return max(_triple_residual(*states[i - 1 : i + 2], dt_s) for i in range(1, usable - 1))


# ---------------------------------------------------------------------------
# initial conditions and file formats


def fourier_series(n_modes: int, cos_amps: Mapping, sin_amps: Mapping) -> np.ndarray:
    """Real trigonometric polynomial from {wavenumber: amplitude} tables (k reduced mod n in integers)."""
    x = grid(n_modes)
    out = np.zeros(n_modes)
    for k, amp in cos_amps.items():
        out += float(amp) * np.cos(int(k) % n_modes * x)
    for k, amp in sin_amps.items():
        out += float(amp) * np.sin(int(k) % n_modes * x)
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
            float(int(k))  # a wavenumber past the float range is a configuration error
        except ValueError:
            raise ValueError(f"{where} wavenumber {k!r} is not an integer") from None
        except OverflowError:
            raise ValueError(f"{where} wavenumber {k!r} is too large for a float") from None
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
    return SolverConfig(**settings), data.get("initial", {})


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
    row = ",".join(["%.12g"] + ["%.16e"] * (len(header) - 1)) + "\n"
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(
            row % (sample.time, *sample.h1.tolist(), *sample.h2.tolist(), sample.max_abs_ux)
            for sample in traj.samples
        )


def write_state_csv(path: str, state: GridState) -> None:
    """x followed by every stored level of u and xi, one grid point per line.

    Lines go to the file as they are formatted, so the text of the whole
    table is never held at once.
    """
    header = ["x"]
    header += [f"u_{mask_label(m)}" for m in even_masks(state.n_grassmann)]
    header += [f"xi_{mask_label(m)}" for m in odd_masks(state.n_grassmann)]
    columns = np.vstack([grid(state.n_modes), state.u, state.xi])
    row = ",".join(["%.16e"] * len(header)) + "\n"
    with open(path, "w") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(row % tuple(values.tolist()) for values in columns.T)
