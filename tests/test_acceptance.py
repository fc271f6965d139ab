"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Symbolic criteria demand exact zero residuals; numeric criteria carry
the stated tolerances.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from superhs.algebra import EVEN, ODD
from superhs.calculus import dx, superD
from superhs.density import euler_x, is_total_x_derivative
from superhs.grassmann import even_masks, gmul_stack, mask_row
from superhs.numerics import (
    GridState,
    SolverConfig,
    evaluate,
    evolve,
    grid,
    residual_check,
    rhs_once_integrated,
    spectral_dx,
    step,
)
from superhs.structures import (
    U,
    XI,
    check_biham,
    check_conservation,
    check_geodesic,
    check_jacobi,
    check_lagrangian,
    check_lax,
    check_recursion,
    check_superspace,
    check_susy,
    conservation_check,
    geodesic_system,
    hamiltonian_densities,
    lax_compatibility,
    closing_ansatz,
)

from helpers import random_expr, random_x_poly, sampled_lie_failures
import helpers

HALF = Fraction(1, 2)


@contextmanager
def criterion(number, description):
    """Print exactly one pass/fail line per criterion."""
    note = {}
    try:
        yield note
    except BaseException:
        print(f"ACCEPTANCE {number:>2} FAIL: {description}", flush=True)
        raise
    extra = f" [{note['info']}]" if "info" in note else ""
    print(f"ACCEPTANCE {number:>2} PASS: {description}{extra}", flush=True)


def test_criterion_01_geodesic_derivation():
    with criterion(1, "geodesic assembly reproduces the system exactly, < 1 s"):
        result = check_geodesic()
        assert result.passed, result.detail
        assert result.elapsed < 1.0
        system = geodesic_system()
        assert system.rhs_m == (
            2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3) + HALF * (XI(dx=1) * XI(dx=3))
        )
        assert system.bosonic_reduction().rhs_m == 2 * (U(dx=1) * U(dx=2)) + U() * U(dx=3)


def test_criterion_02_bihamiltonian_identity():
    with criterion(2, "both Hamiltonian legs verified exactly (inverse-free), < 1 s"):
        result = check_biham()
        assert result.passed, result.detail
        assert result.elapsed < 1.0


def test_criterion_03_susy_invariance():
    with criterion(3, "first-order SUSY invariance exact; wrong transformation rejected, < 1 s"):
        result = check_susy()
        assert result.passed, result.detail
        assert result.elapsed < 1.0


def test_criterion_04_superspace_equivalence():
    with criterion(4, "superspace equation and Berezin bracket/metric reduce to components exactly"):
        result = check_superspace()
        assert result.passed, result.detail


def test_criterion_05_lax_pair():
    with criterion(5, "Lax ansatz closes two coefficient equations; third is the superspace flow"):
        result = check_lax()
        assert result.passed, result.detail
        # identity in the formal spectral parameter: residuals vanish as polynomials
        closed = lax_compatibility(closing_ansatz())
        assert closed["DG"].is_zero() and closed["Gx"].is_zero()


def test_criterion_06_recursion_eigenrelations():
    with criterion(6, "bosonic and super recursion eigenrelations exact; wrong factors rejected"):
        result = check_recursion()
        assert result.passed, result.detail


def test_criterion_07_lagrangian():
    with criterion(7, "space-time Euler operators of the action vanish on the flow"):
        result = check_lagrangian()
        assert result.passed, result.detail


def test_criterion_08_symbolic_conservation():
    with criterion(8, "d/dt of H1 and H2 densities exact along the flow; u^2 control fails"):
        result = check_conservation()
        assert result.passed, result.detail
        h1, h2 = hamiltonian_densities()
        system = geodesic_system()
        assert conservation_check(h1, system)
        assert conservation_check(h2, system)
        assert not conservation_check(U() ** 2, system)


def test_criterion_09_algebra_properties():
    with criterion(9, "Jacobi/antisymmetry (50), D^2 = d/dx (100), Euler kernel on exact terms (50)"):
        jac = check_jacobi()
        assert jac.passed, jac.detail
        assert sampled_lie_failures(50, seed=777) == []

        rng = random.Random(888)
        for _ in range(100):
            e = random_expr(rng, allow_theta=True)
            assert (superD(superD(e)) - dx(e)).is_zero()

        rng2 = random.Random(999)
        fields = (helpers.U, helpers.V, helpers.XI, helpers.PHI)
        for _ in range(50):
            exact = dx(random_x_poly(rng2, fields))
            for f in fields:
                assert euler_x(exact, f).is_zero()
            assert is_total_x_derivative(exact)


def _drift_scales(state0, n_grassmann):
    """Per-level normalisation: |H(0)| or the L1 size of the initial integrand."""
    n = n_grassmann
    u_x = spectral_dx(state0.u)
    xi_x = spectral_dx(state0.xi)
    xi_xx = spectral_dx(state0.xi, 2)
    ux2 = gmul_stack(u_x, EVEN, u_x, EVEN, n)
    h1_int = ux2 + gmul_stack(xi_xx, ODD, xi_x, ODD, n)
    h2_int = gmul_stack(state0.u, EVEN, ux2, EVEN, n) - gmul_stack(
        state0.u, EVEN, gmul_stack(xi_x, ODD, xi_xx, ODD, n), EVEN, n
    )
    scales = {}
    for name, fam in (("h1", h1_int), ("h2", h2_int)):
        for m, arr in zip(even_masks(n), fam):
            scales[(name, m)] = 0.5 * np.abs(arr).mean() * 2 * np.pi
    return scales


def _check_conservation_series(traj, state0, n_grassmann, tol):
    scales = _drift_scales(state0, n_grassmann)
    for name in ("h1", "h2"):
        series = np.array([getattr(s, name) for s in traj.samples])
        # one column per even level: odd levels have no place to appear
        assert series.shape[1] == len(even_masks(n_grassmann)), name
        for m, values in zip(even_masks(n_grassmann), series.T):
            drift = max(abs(v - values[0]) for v in values)
            scale = max(abs(values[0]), scales.get((name, m), 0.0), 1e-12)
            assert drift <= tol * scale, (name, m, drift, scale)


def test_criterion_10_numerics_bosonic():
    with criterion(10, "bosonic run: H1 to 1e-8, H2 to 1e-7, u_t(0) closed form, 4th order") as note:
        t_start = time.perf_counter()
        n = 256
        cfg = SolverConfig(n_modes=n, dt=1e-3, t_end=1.0, n_grassmann=0, sample_stride=10)
        state = GridState.zeros(n, 0)
        state.u[0][:] = np.cos(grid(n))

        du, _ = rhs_once_integrated(state, cfg)
        assert np.abs(du[0] - 0.375 * np.sin(2 * grid(n))).max() <= 1e-10

        traj = evolve(state, cfg)
        h1 = [s.h1[0] for s in traj.samples]
        assert max(abs(v - h1[0]) for v in h1) <= 1e-8 * abs(h1[0])
        _check_conservation_series(traj, state, 0, 1e-7)

        def advance(dt_step, n_steps):
            s = state.copy()
            c = SolverConfig(n_modes=n, dt=dt_step, t_end=dt_step * n_steps, n_grassmann=0)
            for _ in range(n_steps):
                s = step(s, c)
            return s.u[0]

        interval = 0.02
        reference = advance(interval / 40, 40)
        ratio = (
            np.abs(advance(interval, 1) - reference).max()
            / np.abs(advance(interval / 2, 2) - reference).max()
        )
        assert 14.0 <= ratio <= 18.0

        elapsed = time.perf_counter() - t_start
        assert elapsed < 30.0
        note["info"] = f"Richardson {ratio:.2f}, {elapsed:.1f} s"


def _fermionic_state(n):
    x = grid(n)
    state = GridState.zeros(n, 2)
    state.u[0][:] = np.cos(x)
    state.xi[mask_row(0b01)][:] = 0.1 * np.cos(x)
    state.xi[mask_row(0b10)][:] = 0.1 * np.sin(x)
    return state


def test_criterion_11_numerics_fermionic():
    with criterion(11, "fermionic run: top level excited, all levels conserved to 1e-7, residual order") as note:
        t_start = time.perf_counter()
        cfg = SolverConfig(n_modes=256, dt=1e-3, t_end=0.5, n_grassmann=2, sample_stride=10)
        state = _fermionic_state(256)
        traj = evolve(state, cfg)

        assert np.abs(traj.final.u[mask_row(0b11)]).max() > 1e-5  # top level excited
        _check_conservation_series(traj, state, 2, 1e-7)

        coarse = residual_check(traj)
        cfg_fine = SolverConfig(n_modes=512, dt=5e-4, t_end=0.5, n_grassmann=2, sample_stride=10)
        fine = residual_check(evolve(_fermionic_state(512), cfg_fine))
        ratio = coarse / fine
        assert 3.5 <= ratio <= 4.5  # second-order sampling of the time derivative

        elapsed = time.perf_counter() - t_start
        assert elapsed < 60.0
        note["info"] = f"residual ratio {ratio:.2f}, {elapsed:.1f} s"


_ANALYTIC = {
    "u_body": [("cos", 1, 1.0), ("sin", 2, 0.3)],
    "u_top": [("sin", 1, 0.2), ("cos", 2, -0.1)],
    "xi_1": [("cos", 1, 0.1), ("sin", 2, 0.05)],
    "xi_2": [("sin", 1, 0.1), ("cos", 2, -0.2)],
}


def _analytic_value(name, order, x):
    total = 0.0
    for kind, k, amp in _ANALYTIC[name]:
        phase = k * x + order * np.pi / 2  # each derivative shifts the phase
        total += amp * (k**order) * (np.cos(phase) if kind == "cos" else np.sin(phase))
    return total


def _analytic_samples(name, order, xs):
    return np.array([_analytic_value(name, order, x) for x in xs])


def test_criterion_12_symbolic_numeric_cross_check():
    with criterion(12, "symbolic right-hand side matches the numeric one to 1e-10 at 100 points") as note:
        # modest grid: the fields are low-order trig polynomials, and spectral
        # differentiation noise grows with the square of the mode count
        n = 128
        x = grid(n)
        cfg = SolverConfig(n_modes=n, dt=1e-3, t_end=0.1, n_grassmann=2)
        state = GridState.zeros(n, 2)
        state.u[0][:] = _analytic_samples("u_body", 0, x)
        state.u[mask_row(0b11)][:] = _analytic_samples("u_top", 0, x)
        state.xi[mask_row(0b01)][:] = _analytic_samples("xi_1", 0, x)
        state.xi[mask_row(0b10)][:] = _analytic_samples("xi_2", 0, x)

        du, dxi = rhs_once_integrated(state, cfg)
        m_t = -spectral_dx(du, 2)
        eta_t = -spectral_dx(dxi, 2)

        system = geodesic_system()
        rng = random.Random(1234)
        js = [rng.randrange(n) for _ in range(100)]
        xs = x[js]
        # all 100 points in one binding: stack rows (body, e1e2) for u, (e1, e2) for xi
        bindings = {}
        for k in range(0, 4):
            bindings[U.jet(dx=k)] = np.array(
                [_analytic_samples("u_body", k, xs), _analytic_samples("u_top", k, xs)]
            )
            bindings[XI.jet(dx=k)] = np.array(
                [_analytic_samples("xi_1", k, xs), _analytic_samples("xi_2", k, xs)]
            )
        sym_m = evaluate(system.rhs_m, bindings, 2)
        sym_eta = evaluate(system.rhs_eta, bindings, 2)
        worst = max(np.abs(sym_m - m_t[:, js]).max(), np.abs(sym_eta - eta_t[:, js]).max())
        assert worst <= 1e-10
        note["info"] = f"max deviation {worst:.2e}"
