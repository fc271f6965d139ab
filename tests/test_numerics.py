import tracemalloc
import warnings

import numpy as np
import pytest

from superhs.algebra import EVEN, ODD, FieldSymbol, ParityError, SymExpr, lam_power, theta_factor
from superhs.grassmann import even_masks, gmul_stack, mask_row, odd_masks
from superhs.numerics import (
    BlowUpError,
    GridState,
    SolverConfig,
    _derivatives,
    conserved_quantities,
    evaluate,
    evolve,
    fourier_series,
    grid,
    initial_state,
    residual_check,
    rhs_once_integrated,
    spectral_antiderivative,
    spectral_dx,
    step,
    write_series_csv,
    write_state_csv,
)

from helpers import (
    dealias_23,
    gmul,
    ref_derivatives,
    ref_spectral_antiderivative,
    ref_state_csv,
)


def bosonic_cos_state(n=256):
    state = GridState.zeros(n, 0)
    state.u[0][:] = np.cos(grid(n))
    return state


def fermionic_state(n=256):
    x = grid(n)
    state = GridState.zeros(n, 2)
    state.u[0][:] = np.cos(x)
    state.xi[mask_row(0b01)][:] = 0.1 * np.cos(x)
    state.xi[mask_row(0b10)][:] = 0.1 * np.sin(x)
    return state


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(n_modes=100)
    with pytest.raises(ValueError):
        SolverConfig(n_modes=8)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gauge="fix_left_end")
    with pytest.raises(ValueError):
        SolverConfig(dt=50.0, t_end=0.5)  # would take zero steps


def test_spectral_helpers():
    x = grid(64)
    assert np.abs(spectral_dx(np.sin(x)) - np.cos(x)).max() < 1e-12
    assert np.abs(spectral_dx(np.cos(2 * x), 2) + 4 * np.cos(2 * x)).max() < 1e-11
    anti = spectral_antiderivative(np.cos(x))
    assert np.abs(anti - np.sin(x)).max() < 1e-12
    assert abs(anti.mean()) < 1e-15


def test_zero_state_is_fixed_point():
    cfg = SolverConfig(n_modes=32, dt=1e-2, t_end=0.1, n_grassmann=2)
    state = GridState.zeros(32, 2)
    du, dxi = rhs_once_integrated(state, cfg)
    assert all(np.abs(a).max() == 0.0 for a in du)
    assert all(np.abs(a).max() == 0.0 for a in dxi)
    stepped = step(state, cfg)
    assert all(np.abs(a).max() == 0.0 for a in stepped.u)


def test_cos_initial_velocity_closed_form():
    cfg = SolverConfig(n_modes=256, dt=1e-3, t_end=1.0, n_grassmann=0)
    state = bosonic_cos_state()
    du, _ = rhs_once_integrated(state, cfg)
    expected = 0.375 * np.sin(2 * grid(256))
    assert np.abs(du[0] - expected).max() < 1e-12


def test_single_fermion_level_is_inert():
    # with u = 0 and xi on one generator only, nothing moves: the fermion
    # backreaction needs two distinct generators
    cfg = SolverConfig(n_modes=64, dt=1e-3, t_end=0.1, n_grassmann=2)
    state = GridState.zeros(64, 2)
    state.xi[mask_row(0b01)][:] = 0.2 * np.cos(grid(64))
    du, dxi = rhs_once_integrated(state, cfg)
    assert all(np.abs(a).max() < 1e-15 for a in du)
    assert all(np.abs(a).max() < 1e-15 for a in dxi)


def test_one_step_matches_refined_reference():
    state = bosonic_cos_state()
    coarse = step(state, SolverConfig(n_modes=256, dt=1e-3, t_end=1e-3, n_grassmann=0))
    fine = state.copy()
    cfg_fine = SolverConfig(n_modes=256, dt=1e-5, t_end=1e-3, n_grassmann=0)
    for _ in range(100):
        fine = step(fine, cfg_fine)
    assert np.abs(coarse.u[0] - fine.u[0]).max() < 1e-9


def test_one_step_first_order_taylor():
    dt = 1e-3
    state = bosonic_cos_state()
    cfg = SolverConfig(n_modes=256, dt=dt, t_end=dt, n_grassmann=0)
    du, _ = rhs_once_integrated(state, cfg)
    stepped = step(state, cfg)
    taylor_err = np.abs(stepped.u[0] - state.u[0] - dt * du[0]).max()
    assert taylor_err < 1.0 * dt**2  # O(dt^2) remainder with a modest constant


def test_fourth_order_richardson_ratio():
    def advance(dt, n_steps):
        s = bosonic_cos_state()
        cfg = SolverConfig(n_modes=256, dt=dt, t_end=dt * n_steps, n_grassmann=0)
        for _ in range(n_steps):
            s = step(s, cfg)
        return s.u[0]

    interval = 0.02
    reference = advance(interval / 40, 40)
    err_one = np.abs(advance(interval, 1) - reference).max()
    err_two = np.abs(advance(interval / 2, 2) - reference).max()
    ratio = err_one / err_two
    assert 14.0 <= ratio <= 18.0


def test_gauge_zero_mean_velocities():
    cfg = SolverConfig(n_modes=128, dt=1e-3, t_end=0.1, n_grassmann=2)
    state = fermionic_state(128)
    du, dxi = rhs_once_integrated(state, cfg)
    for arr in list(du) + list(dxi):
        assert abs(arr.mean()) < 1e-13
        # mean-free right side of the once-integrated equation: solvability
        assert abs(spectral_dx(arr).mean()) < 1e-13
        assert arr.dtype == np.float64 and np.isfinite(arr).all()


def test_parity_structure_of_state():
    state = GridState.zeros(64, 2)
    assert even_masks(2) == [0b00, 0b11] and state.u.shape == (2, 64)
    assert odd_masks(2) == [0b01, 0b10] and state.xi.shape == (2, 64)


def test_bosonic_consistency_across_truncations():
    # N = 2 with zero fermions must match the N = 0 solver to machine precision
    n = 128
    cfg0 = SolverConfig(n_modes=n, dt=2e-3, t_end=0.2, n_grassmann=0, sample_stride=10)
    cfg2 = SolverConfig(n_modes=n, dt=2e-3, t_end=0.2, n_grassmann=2, sample_stride=10)
    s0 = GridState.zeros(n, 0)
    s2 = GridState.zeros(n, 2)
    s0.u[0][:] = np.cos(grid(n))
    s2.u[0][:] = np.cos(grid(n))
    t0 = evolve(s0, cfg0)
    t2 = evolve(s2, cfg2)
    assert np.abs(t0.final.u[0] - t2.final.u[0]).max() < 1e-14
    assert np.abs(t2.final.u[mask_row(0b11)]).max() == 0.0


def _oracle_rhs(ub, x1, x2, us, dealias):
    """Independent right-hand side for the four coupled Lambda_2 components.

    body-u solves the bosonic flow, xi_1 and xi_2 the linear fermion equation
    against body-u, and the top u level is forced by the fermion pair.
    """

    def dsp(a, k=1):
        n = a.size
        kk = np.fft.rfftfreq(n, d=1.0 / n)
        return np.fft.irfft(np.fft.rfft(a) * (1j * kk) ** k, n)

    def anti(a):
        n = a.size
        kk = np.fft.rfftfreq(n, d=1.0 / n)
        spec = np.fft.rfft(a - a.mean())
        spec[0] = 0.0
        spec[1:] /= 1j * kk[1:]
        return np.fft.irfft(spec, n)

    def cut(a):
        if not dealias:
            return a
        n = a.size
        kk = np.fft.rfftfreq(n, d=1.0 / n)
        spec = np.fft.rfft(a)
        spec[kk > n / 3.0] = 0.0
        return np.fft.irfft(spec, n)

    w_body = -(ub * dsp(ub, 2) + 0.5 * dsp(ub) ** 2)
    w_top = -(
        ub * dsp(us, 2)
        + us * dsp(ub, 2)
        + dsp(ub) * dsp(us)
        + 0.5 * (dsp(x1) * dsp(x2, 2) - dsp(x2) * dsp(x1, 2))
    )
    v1 = -(ub * dsp(x1, 2) + 0.5 * dsp(ub) * dsp(x1))
    v2 = -(ub * dsp(x2, 2) + 0.5 * dsp(ub) * dsp(x2))
    return anti(cut(w_body)), anti(cut(v1)), anti(cut(v2)), anti(cut(w_top))


def test_rhs_matches_independent_component_oracle():
    n = 128
    x = grid(n)
    cfg = SolverConfig(n_modes=n, dt=1e-3, t_end=0.1, n_grassmann=2)
    state = GridState.zeros(n, 2)
    rng = np.random.default_rng(42)
    # smooth random trig data on every level
    state.u[0][:] = np.cos(x) + 0.3 * np.sin(2 * x)
    state.u[mask_row(0b11)][:] = 0.2 * np.sin(x) - 0.1 * np.cos(3 * x)
    state.xi[mask_row(0b01)][:] = 0.1 * np.cos(x) + 0.05 * np.sin(2 * x)
    state.xi[mask_row(0b10)][:] = 0.1 * np.sin(x) - 0.2 * np.cos(2 * x)
    du, dxi = rhs_once_integrated(state, cfg)
    ub_t, x1_t, x2_t, us_t = _oracle_rhs(
        state.u[0],
        state.xi[mask_row(0b01)],
        state.xi[mask_row(0b10)],
        state.u[mask_row(0b11)],
        cfg.dealias,
    )
    assert np.abs(du[0] - ub_t).max() < 1e-13
    assert np.abs(dxi[mask_row(0b01)] - x1_t).max() < 1e-13
    assert np.abs(dxi[mask_row(0b10)] - x2_t).max() < 1e-13
    assert np.abs(du[mask_row(0b11)] - us_t).max() < 1e-13


def _pointwise_rhs(state, n_gen, dealias):
    """Reference right-hand side: one {mask: coeff} element per grid point and gmul."""
    n = state.n_modes
    e_masks, o_masks = even_masks(n_gen), odd_masks(n_gen)

    def elements(levels, masks, order):
        rows = [spectral_dx(row, order) if order else row for row in levels]
        return [{m: r[j] for m, r in zip(masks, rows)} for j in range(n)]

    def combine(*terms):
        out = {}
        for weight, element in terms:
            for m, c in element.items():
                out[m] = out.get(m, 0.0) + weight * c
        return out

    u = elements(state.u, e_masks, 0)
    u_x, u_xx = (elements(state.u, e_masks, k) for k in (1, 2))
    xi_x, xi_xx = (elements(state.xi, o_masks, k) for k in (1, 2))
    w = [
        combine((-1.0, gmul(u[j], u_xx[j])), (-0.5, gmul(u_x[j], u_x[j])),
                (-0.5, gmul(xi_x[j], xi_xx[j])))
        for j in range(n)
    ]
    v = [combine((-1.0, gmul(u[j], xi_xx[j])), (-0.5, gmul(u_x[j], xi_x[j]))) for j in range(n)]

    def integrate(values, masks):
        out = []
        for m in masks:
            level = np.array([g.get(m, 0.0) for g in values])
            if dealias:
                level = dealias_23(level)
            out.append(spectral_antiderivative(level - level.mean()))
        return np.array(out).reshape(len(masks), n)

    return integrate(w, e_masks), integrate(v, o_masks)


@pytest.mark.parametrize("dealias", [True, False])
def test_rhs_matches_pointwise_reference_at_n4(dealias):
    n, n_gen = 64, 4
    x = grid(n)
    cfg = SolverConfig(n_modes=n, dt=1e-3, t_end=0.1, n_grassmann=n_gen, dealias=dealias)
    state = GridState.zeros(n, n_gen)
    rng = np.random.default_rng(4)
    for stack in (state.u, state.xi):
        for row in stack:
            a, b = rng.uniform(-0.3, 0.3, 2)
            k = rng.integers(1, 12)  # products reach past the 2/3 cut at n/3
            row[:] = a * np.cos(k * x) + b * np.sin((k + 1) * x)
    state.u[0] += np.cos(x)
    du, dxi = rhs_once_integrated(state, cfg)
    ref_du, ref_dxi = _pointwise_rhs(state, n_gen, dealias)
    assert np.abs(du - ref_du).max() < 1e-13
    assert np.abs(dxi - ref_dxi).max() < 1e-13


def test_conserved_quantities_match_pointwise_reference_at_n4():
    # H1 = (1/2) int (u_x**2 + xi_xx xi_x), H2 = (1/2) int (u u_x**2 - u xi_x xi_xx)
    n, n_gen = 64, 4
    x = grid(n)
    state = GridState.zeros(n, n_gen)
    rng = np.random.default_rng(5)
    for stack in (state.u, state.xi):
        for row in stack:
            a, b = rng.uniform(-0.3, 0.3, 2)
            k = rng.integers(1, 6)
            row[:] = a * np.cos(k * x) + b * np.sin((k + 1) * x)
    state.u[0] += np.cos(x)
    e_masks, o_masks = even_masks(n_gen), odd_masks(n_gen)

    def at(j, stack, masks, order):
        return {m: (spectral_dx(row, order) if order else row)[j] for m, row in zip(masks, stack)}

    h1 = {m: 0.0 for m in e_masks}
    h2 = {m: 0.0 for m in e_masks}
    for j in range(n):
        u, u_x = at(j, state.u, e_masks, 0), at(j, state.u, e_masks, 1)
        xi_x, xi_xx = at(j, state.xi, o_masks, 1), at(j, state.xi, o_masks, 2)
        ux2 = gmul(u_x, u_x)
        fermi = gmul(xi_x, xi_xx)
        for m, c in ux2.items():
            h1[m] += c
        for m, c in gmul(xi_xx, xi_x).items():
            h1[m] += c
        for m, c in gmul(u, ux2).items():
            h2[m] += c
        for m, c in gmul(u, fermi).items():
            h2[m] -= c
    got_h1, got_h2 = conserved_quantities(state)
    scale = np.pi / n  # (1/2) * 2 pi / n for the mean over the grid
    assert np.abs(got_h1 - scale * np.array([h1[m] for m in e_masks])).max() < 1e-13
    assert np.abs(got_h2 - scale * np.array([h2[m] for m in e_masks])).max() < 1e-13
    assert np.abs(got_h2[1:]).max() > 1e-3  # the souls of H2 are exercised


def test_trajectory_matches_component_oracle():
    n = 64
    dt = 2e-3
    steps = 50
    cfg = SolverConfig(n_modes=n, dt=dt, t_end=dt * steps, n_grassmann=2, sample_stride=steps)
    state = fermionic_state(n)
    traj = evolve(state, cfg)

    ub = state.u[0].copy()
    x1 = state.xi[mask_row(0b01)].copy()
    x2 = state.xi[mask_row(0b10)].copy()
    us = state.u[mask_row(0b11)].copy()
    for _ in range(steps):
        k1 = _oracle_rhs(ub, x1, x2, us, cfg.dealias)
        k2 = _oracle_rhs(
            ub + dt / 2 * k1[0], x1 + dt / 2 * k1[1], x2 + dt / 2 * k1[2], us + dt / 2 * k1[3], cfg.dealias
        )
        k3 = _oracle_rhs(
            ub + dt / 2 * k2[0], x1 + dt / 2 * k2[1], x2 + dt / 2 * k2[2], us + dt / 2 * k2[3], cfg.dealias
        )
        k4 = _oracle_rhs(
            ub + dt * k3[0], x1 + dt * k3[1], x2 + dt * k3[2], us + dt * k3[3], cfg.dealias
        )
        ub = ub + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        x1 = x1 + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        x2 = x2 + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        us = us + dt / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
    final = traj.final
    assert np.abs(final.u[0] - ub).max() < 1e-12
    assert np.abs(final.xi[mask_row(0b01)] - x1).max() < 1e-12
    assert np.abs(final.xi[mask_row(0b10)] - x2).max() < 1e-12
    assert np.abs(final.u[mask_row(0b11)] - us).max() < 1e-12


def test_top_level_gets_excited():
    cfg = SolverConfig(n_modes=128, dt=1e-3, t_end=0.5, n_grassmann=2, sample_stride=100)
    traj = evolve(fermionic_state(128), cfg)
    assert np.abs(traj.final.u[mask_row(0b11)]).max() > 1e-5


def test_conserved_quantities_structure():
    state = fermionic_state(128)
    h1, h2 = conserved_quantities(state)
    assert abs(h1[0] - np.pi / 2) < 1e-12
    assert abs(h1[mask_row(0b11)] + 0.01 * np.pi) < 1e-12
    # one entry per even level; odd levels cannot appear in either invariant
    assert h1.shape == h2.shape == (len(even_masks(2)),)


def test_level_product_merge_signs():
    # odd stacks over Lambda_2: rows e1, e2
    a = np.array([[2.0], [3.0]])
    b = np.array([[5.0], [7.0]])
    out = gmul_stack(a, ODD, b, ODD, 2)
    # e1*e2 component: 2*7 - 3*5 = -1
    assert np.all(out[mask_row(0b00)] == 0.0)
    assert np.allclose(out[mask_row(0b11)], [-1.0])


def test_blowup_detection():
    cfg = SolverConfig(n_modes=64, dt=50.0, t_end=500.0, n_grassmann=0)
    state = GridState.zeros(64, 0)
    state.u[0][:] = np.cos(grid(64))
    with pytest.raises(BlowUpError) as info:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            evolve(state, cfg)
    assert info.value.time > 0
    assert "max_abs_ux" in info.value.diagnostics


def test_cfl_warning():
    cfg = SolverConfig(n_modes=256, dt=0.5, t_end=0.5, n_grassmann=0)
    state = bosonic_cos_state()
    with pytest.warns(RuntimeWarning):
        step(state, cfg)


def sampled_states(state, cfg):
    """The states ``evolve`` samples, stepped by hand: the first, every sample_stride-th and the last."""
    n_steps = round(cfg.t_end / cfg.dt)
    states = [state]
    for i in range(1, n_steps + 1):
        state = step(state, cfg)
        if i % cfg.sample_stride == 0 or i == n_steps:
            states.append(state)
    return states


def test_residual_check_flags_corruption():
    cfg = SolverConfig(n_modes=128, dt=1e-3, t_end=0.05, n_grassmann=0, sample_stride=10)
    states = sampled_states(bosonic_cos_state(128), cfg)
    clean = residual_check(states)
    states[2].u[0][7] += 0.1
    corrupted = residual_check(states)
    assert corrupted > 100 * clean


def test_residual_check_needs_three_samples():
    cfg = SolverConfig(n_modes=64, dt=1e-3, t_end=2e-3, n_grassmann=0, sample_stride=5)
    states = sampled_states(GridState.zeros(64, 0), cfg)
    with pytest.raises(ValueError):
        residual_check(states)
    assert evolve(GridState.zeros(64, 0), cfg).residual is None


def test_residual_check_needs_an_evenly_spaced_interior_sample():
    # samples at 0, 4 dt and 6 dt: three states, of which only two are evenly
    # spaced from the start, so there is no interior sample to check
    cfg = SolverConfig(n_modes=64, dt=1e-3, t_end=6e-3, n_grassmann=2, sample_stride=4)
    states = sampled_states(fermionic_state(64), cfg)
    assert len(states) == 3
    with pytest.raises(ValueError):
        residual_check(states)
    assert evolve(fermionic_state(64), cfg).residual is None


def test_residual_check_zero_state_is_exact():
    cfg = SolverConfig(n_modes=64, dt=1e-3, t_end=0.01, n_grassmann=2, sample_stride=1)
    assert residual_check(sampled_states(GridState.zeros(64, 2), cfg)) == 0.0
    assert evolve(GridState.zeros(64, 2), cfg).residual == 0.0


@pytest.mark.parametrize("dt", [1 / 1024, 1e-3])
def test_evolve_streams_the_residual_of_its_samples(dt):
    # samples at 0, 3, ..., 18 steps and a short last stride to 20; at dt = 1e-3
    # a triple's own spacing differs from the first spacing in its last bits,
    # and every triple must use the first, as residual_check does
    cfg = SolverConfig(n_modes=64, dt=dt, t_end=20 * dt, n_grassmann=2, sample_stride=3)
    states = sampled_states(fermionic_state(64), cfg)
    traj = evolve(fermionic_state(64), cfg)
    assert [s.time for s in traj.samples] == [s.time for s in states]
    assert traj.residual == residual_check(states)
    assert traj.final.u.tobytes() == states[-1].u.tobytes()
    assert traj.final.xi.tobytes() == states[-1].xi.tobytes()


def test_evolve_memory_does_not_grow_with_the_sample_count():
    # the bench's state size: 64 rows of 1024 doubles, 512 KiB
    n, n_grassmann = 1024, 6
    x = grid(n)
    state = GridState.zeros(n, n_grassmann)
    state.u[0][:] = np.cos(x)
    for row in range(len(state.xi)):
        state.xi[row][:] = 0.05 * np.cos((row % 3 + 1) * x)

    def peak(n_samples):
        cfg = SolverConfig(
            n_modes=n, dt=1 / 1024, t_end=(n_samples - 1) / 1024, n_grassmann=n_grassmann, sample_stride=1
        )
        tracemalloc.start()
        try:
            evolve(state, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the per-process caches (float terms, spectral factors) are built outside the measured runs
    few, many = peak(4), peak(40)
    # a count of allocated bytes, so it holds whatever the heap layout
    assert many - few < state.u.nbytes + state.xi.nbytes


def test_initial_state_parsing_and_validation():
    cfg = SolverConfig(n_modes=64, dt=1e-3, t_end=0.1, n_grassmann=2)
    state = initial_state(
        {
            "u": [{"level": [], "cos": {"1": 1.0}, "sin": {"2": 0.5}}],
            "xi": [{"level": [1], "cos": {"1": 0.1}}],
        },
        cfg,
    )
    x = grid(64)
    assert np.abs(state.u[0] - (np.cos(x) + 0.5 * np.sin(2 * x))).max() < 1e-14
    assert np.abs(state.xi[mask_row(0b01)] - 0.1 * np.cos(x)).max() < 1e-14
    with pytest.raises(ValueError):
        initial_state({"u": [{"level": [1], "cos": {"1": 1.0}}]}, cfg)
    with pytest.raises(ValueError):
        initial_state({"xi": [{"level": [1, 2], "cos": {"1": 1.0}}]}, cfg)
    with pytest.raises(ValueError):
        initial_state({"xi": [{"level": [3], "cos": {"1": 1.0}}]}, cfg)


@pytest.mark.parametrize("k", [64 + 1, 2**53 + 1, 10**30 + 1])
def test_wavenumbers_alias_exactly_on_the_grid(k):
    # on 64 points mode k is mode k mod 64; a k past 2**53 must not be rounded first
    x = grid(64)
    assert np.array_equal(fourier_series(64, {str(k): 1.0}, {}), np.cos((k % 64) * x))
    assert np.array_equal(fourier_series(64, {}, {str(k): 1.0}), np.sin((k % 64) * x))


def test_csv_writers(tmp_path):
    cfg = SolverConfig(n_modes=32, dt=1e-2, t_end=0.05, n_grassmann=2, sample_stride=1)
    traj = evolve(fermionic_state(32), cfg)
    series = tmp_path / "series.csv"
    state_csv = tmp_path / "final.csv"
    write_series_csv(str(series), traj)
    write_state_csv(str(state_csv), traj.final)
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "time,H1_body,H1_12,H2_body,H2_12,max_abs_ux"
    assert len(lines) == len(traj.samples) + 1
    header = state_csv.read_text().splitlines()[0]
    assert header == "x,u_body,u_12,xi_1,xi_2"


def random_state(n_modes, n_grassmann, seed):
    rng = np.random.default_rng(seed)
    state = GridState.zeros(n_modes, n_grassmann)
    state.u[:] = rng.uniform(-0.5, 0.5, state.u.shape)
    state.xi[:] = rng.uniform(-0.5, 0.5, state.xi.shape)
    return state


def test_write_state_csv_streams_the_joined_text(tmp_path):
    # the bench's state size; the file is about 1.7 MB, its table of floats 0.5 MB
    state = random_state(1024, 6, 5)
    path = tmp_path / "final_state.csv"
    tracemalloc.start()
    try:
        write_state_csv(str(path), state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a count of allocated bytes, so it holds whatever the heap layout
    assert peak < path.stat().st_size
    assert path.read_bytes() == ref_state_csv(state).encode()


@pytest.mark.parametrize("n_grassmann", [2, 4])
def test_step_is_the_textbook_rk4_exactly(n_grassmann):
    cfg = SolverConfig(n_modes=32, dt=1e-3, t_end=1e-3, n_grassmann=n_grassmann)
    state = random_state(32, n_grassmann, n_grassmann)
    dt = cfg.dt
    with np.errstate(all="ignore"):
        k1 = rhs_once_integrated(state, cfg)
        k2 = rhs_once_integrated(GridState(state.u + dt / 2 * k1[0], state.xi + dt / 2 * k1[1]), cfg)
        k3 = rhs_once_integrated(GridState(state.u + dt / 2 * k2[0], state.xi + dt / 2 * k2[1]), cfg)
        k4 = rhs_once_integrated(GridState(state.u + dt * k3[0], state.xi + dt * k3[1]), cfg)
        expected = [
            now + dt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
            for now, s1, s2, s3, s4 in zip((state.u, state.xi), k1, k2, k3, k4)
        ]
    new = step(state, cfg)
    assert new.time == dt
    # byte equality: the same floats, zero signs included
    assert new.u.tobytes() == expected[0].tobytes()
    assert new.xi.tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("rows", [(), (5,)])
def test_spectral_helpers_equal_the_mask_and_divide_forms(n, rows):
    arr = np.random.default_rng(n + len(rows)).standard_normal(rows + (n,))
    for dealias in (False, True):
        out = spectral_antiderivative(arr, dealias)
        assert out.tobytes() == ref_spectral_antiderivative(arr, dealias).tobytes()
    orders = (0, 1, 2, 3, 4)
    for got, want in zip(_derivatives(arr, orders), ref_derivatives(arr, orders)):
        assert got.tobytes() == want.tobytes()


def test_dealias_cuts_top_third():
    x = grid(96)
    noisy = np.cos(40 * x)  # above the 2/3 cutoff for n = 96
    assert np.abs(dealias_23(noisy)).max() < 1e-12
    kept = np.cos(10 * x)
    assert np.abs(dealias_23(kept) - kept).max() < 1e-12


u = FieldSymbol("u", EVEN)
xi = FieldSymbol("xi", ODD)


def test_evaluate_grassmann():
    # at N = 2 odd stacks have rows (e1, e2) and even ones (body, e1e2)
    e = u() * xi(dx=1)
    n = 2
    eta1, eta2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    out = evaluate(e, {u.jet(): 2.0, xi.jet(dx=1): eta1}, n)
    assert out.tolist() == [2.0, 0.0]
    # odd factors anticommute through evaluation
    e2 = xi() * xi(dx=1)
    assert evaluate(e2, {xi.jet(): eta1, xi.jet(dx=1): eta2}, n).tolist() == [0.0, 1.0]
    assert evaluate(e2, {xi.jet(): eta2, xi.jet(dx=1): eta1}, n).tolist() == [0.0, -1.0]


def test_evaluate_stacks_at_points_and_rejections():
    n = 2
    even = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]])  # three points
    odd = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    # (b + s e1e2)(x1 e1 + x2 e2) = b x1 e1 + b x2 e2, since e1e2 e_i = 0
    out = evaluate(u() * xi(), {u.jet(): even, xi.jet(): odd}, n)
    assert out.tolist() == [[1.0, 0.0, 6.0], [0.0, 2.0, 3.0]]
    assert evaluate(SymExpr.zero(), {}, n).tolist() == [0.0, 0.0]
    # a field-free term is the body times its coefficient, at every point
    out = evaluate(SymExpr.scalar(3) + u(), {u.jet(): even}, n)
    assert out.tolist() == [[4.0, 5.0, 6.0], [0.5, 0.0, -1.0]]
    # a float-bound even jet first, times a stack with point axes
    out = evaluate(u() * u(dx=1) * xi(), {u.jet(): 2.0, u.jet(dx=1): even, xi.jet(): odd}, n)
    assert out.tolist() == [[2.0, 0.0, 12.0], [0.0, 4.0, 6.0]]
    with pytest.raises(ParityError):
        evaluate(u() + xi(), {u.jet(): 1.0, xi.jet(): odd}, n)
    with pytest.raises(ValueError, match="must be bound to a level stack"):
        evaluate(xi(), {xi.jet(): 1.0}, n)
    with pytest.raises(ValueError, match="needs 2 rows"):
        evaluate(u(), {u.jet(): np.zeros((4, 3))}, n)


def test_evaluate_rejects_lam_theta():
    with pytest.raises(ValueError):
        evaluate(lam_power(1), {}, 0)
    with pytest.raises(ValueError):
        evaluate(theta_factor(), {}, 0)
