import random
from fractions import Fraction

import numpy as np
import pytest

from superhs.algebra import EVEN, ODD, FieldSymbol, SymExpr, lam_power, theta_factor
from superhs.calculus import berezin, dx, superD
from superhs.density import (
    _Tag,
    _elimination_key,
    _reduce_against,
    canonical_density,
    equals_mod_dx,
    euler_x,
    euler_xt,
    integrate_x,
    is_total_x_derivative,
    partial_jet,
    reduce_mod_dx,
    variational_derivative,
)

from helpers import random_expr, random_x_poly, ref_is_total_x_derivative, ref_split, ref_window_system

u = FieldSymbol("u", EVEN)
v = FieldSymbol("v", EVEN)
xi = FieldSymbol("xi", ODD)
phi = FieldSymbol("phi", ODD)
a = FieldSymbol("a", EVEN, constant=True)
c = FieldSymbol("c", ODD, constant=True)

# coefficients for random expressions: formal constants, theta and lam
COEFFICIENTS = [SymExpr.scalar(1), a(), c(), theta_factor(), lam_power(1), lam_power(-2) * a() * c()]

H1_DENSITY = Fraction(1, 2) * (u(dx=1) ** 2 + xi(dx=2) * xi(dx=1))
H2_DENSITY = Fraction(1, 2) * (u() * u(dx=1) ** 2 - u() * xi(dx=1) * xi(dx=2))


def test_gradient_of_quadratic_invariant():
    assert variational_derivative(Fraction(1, 2) * u(dx=1) ** 2, u) == -u(dx=2)
    assert variational_derivative(H1_DENSITY, u) == -u(dx=2)
    assert variational_derivative(H1_DENSITY, xi) == -xi(dx=3)


def test_gradients_of_cubic_invariant():
    grad_u = variational_derivative(H2_DENSITY, u)
    assert grad_u == -Fraction(1, 2) * (
        u(dx=1) ** 2 + 2 * (u() * u(dx=2)) + xi(dx=1) * xi(dx=2)
    )
    grad_xi = variational_derivative(H2_DENSITY, xi)
    assert grad_xi == -Fraction(1, 2) * (
        2 * (u() * xi(dx=3)) + 3 * (u(dx=1) * xi(dx=2)) + u(dx=2) * xi(dx=1)
    )


def test_partial_jet_right_convention():
    # d/d(xi_x) of u*xi_x*xi_xx commutes xi_x past the odd suffix: one flip
    e = u() * xi(dx=1) * xi(dx=2)
    assert partial_jet(e, xi.jet(dx=1)) == -(u() * xi(dx=2))
    assert partial_jet(e, xi.jet(dx=2)) == u() * xi(dx=1)


def test_equals_mod_dx_examples():
    assert equals_mod_dx(u(dx=1) ** 2, -(u() * u(dx=2)))
    assert not equals_mod_dx(u(dx=1) ** 2, u(dx=1) ** 2 + u())
    extra = dx(Fraction(1, 2) * (xi(dx=1) * xi(dx=1)))  # normalizes to zero
    assert equals_mod_dx(xi(dx=1) * xi(dx=2), extra + xi(dx=1) * xi(dx=2))


def test_exactness_with_constant_coefficients():
    a = FieldSymbol("a", EVEN, constant=True)
    assert is_total_x_derivative(a() * u(dx=1))
    assert not is_total_x_derivative(a() * u())
    assert not is_total_x_derivative(a())  # field-free terms have a mean


def test_integrate_x_round_trip_randomized():
    # dx(G) for random G with theta, lam, t-jets, odd fields and formal
    # constants: the antiderivative is G less the field-free terms dx kills
    rng = random.Random(43)
    for _ in range(300):
        g = random_expr(rng) * rng.choice(COEFFICIENTS) + rng.choice(COEFFICIENTS)
        e = dx(g)
        antiderivative = integrate_x(e)
        assert dx(antiderivative) == e
        assert antiderivative == g.filter_terms(
            lambda key, _c: any(not f.symbol.constant for f in key[1])
        )


def test_integrate_x_rejects_field_free_and_non_exact_input():
    assert integrate_x(SymExpr.zero()).is_zero()
    for e in (
        a(),
        theta_factor(),
        lam_power(1),
        a() * u(dx=1) + c(),  # exact but for a field-free term
        u(),
        u() * u(dx=2),
        xi() * xi(dx=1),
        theta_factor() * u(dt=1),
    ):
        with pytest.raises(ValueError, match="not a total x-derivative"):
            integrate_x(e)


def test_exactness_rejects_superspace_jets():
    big_u = FieldSymbol("U", EVEN, superspace=True)
    for check in (is_total_x_derivative, integrate_x, canonical_density):
        with pytest.raises(ValueError, match="superspace"):
            check(dx(big_u() * big_u(dx=1)))


def test_exactness_agrees_with_variational_criterion_randomized():
    rng = random.Random(47)
    verdicts = []
    for _ in range(200):
        e = random_expr(rng) * rng.choice(COEFFICIENTS)
        if rng.random() < 0.5:
            e = dx(e) + (random_expr(rng) if rng.random() < 0.3 else SymExpr.zero())
        verdict = is_total_x_derivative(e)
        assert verdict == ref_is_total_x_derivative(e)
        verdicts.append(verdict)
    assert 50 < sum(verdicts) < 150


def test_euler_annihilates_exact_terms_randomized():
    rng = random.Random(23)
    fields = (u, v, xi, phi)
    for _ in range(60):
        e = dx(random_x_poly(rng, fields))
        for f in fields:
            assert euler_x(e, f).is_zero()
        assert is_total_x_derivative(e)


def test_euler_detects_nonexact_randomized():
    rng = random.Random(29)
    hits = 0
    for _ in range(40):
        e = random_x_poly(rng, (u, xi))
        if not is_total_x_derivative(e):
            hits += 1
    assert hits > 20  # generic polynomials are not exact


def test_canonical_density_examples():
    assert canonical_density(u() * u(dx=2)) == -(u(dx=1) ** 2)
    assert canonical_density(dx(u() ** 3)).is_zero()
    lhs = canonical_density(u() * xi(dx=1) * xi(dx=2))
    rhs = canonical_density(-(u(dx=1) * xi() * xi(dx=2)) - u() * xi() * xi(dx=3))
    assert lhs == rhs


def test_canonical_density_agrees_with_euler_criterion():
    rng = random.Random(31)
    fields = (u, xi)
    for _ in range(40):
        e1 = random_x_poly(rng, fields)
        e2 = random_x_poly(rng, fields)
        same_class = equals_mod_dx(e1, e2)
        same_canon = canonical_density(e1) == canonical_density(e2)
        assert same_class == same_canon


def test_canonical_density_is_idempotent_and_class_invariant():
    rng = random.Random(37)
    for _ in range(30):
        e = random_x_poly(rng, (u, v, xi))
        canon = canonical_density(e)
        assert canonical_density(canon) == canon
        assert canonical_density(e + dx(random_x_poly(rng, (u, v, xi)))) == canon


def test_canonical_density_is_the_sum_of_its_sector_normal_forms():
    # lam powers and theta split a density into sectors that reduce independently
    rng = random.Random(41)
    lam, theta = lam_power(1), theta_factor()
    for _ in range(30):
        e1, e2, e3 = (random_x_poly(rng, (u, v, xi)) for _ in range(3))
        parts = canonical_density(e1) + lam * canonical_density(e2) + theta * canonical_density(e3)
        assert canonical_density(e1 + lam * e2 + theta * e3) == parts


def test_densities_equal_berezin_measure():
    # a full superderivative integrates to zero against dx dtheta
    f_expr = u() * xi(dx=1) + theta_factor() * (u() * u(dx=1))
    total = superD(f_expr) + dx(theta_factor() * (v() * xi()))
    assert is_total_x_derivative(berezin(total))
    assert not is_total_x_derivative(berezin(theta_factor() * u()))


def test_spacetime_euler_operator():
    # action-like integrand: vary through both t- and x-jets
    sigma = u(dt=1) * u(dx=1)
    assert euler_xt(sigma, u) == -2 * u(dx=1, dt=1)


def _dense_rank(rows, columns):
    """Rank of sparse rows by dense Gaussian elimination over the rationals."""
    mat = [[row.get(c, Fraction(0)) for c in columns] for row in rows]
    rank = 0
    for col in range(len(columns)):
        sel = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                factor = mat[r][col] / mat[rank][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def test_reduce_against_decides_span_membership_randomized():
    # columns are term keys, as in reduce_mod_dx
    columns = [(0, (u.jet(dx=k),)) for k in range(4)] + [
        (0, (u.jet(dx=i), v.jet(dx=j))) for i in range(2) for j in range(3)
    ]
    coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]
    rng = random.Random(20)
    outcomes = []
    for _ in range(300):

        def sparse_vector():
            picks = rng.sample(columns, rng.randint(1, 3))
            return {c: Fraction(rng.choice(coeffs)) for c in picks}

        generators = [sparse_vector() for _ in range(rng.randint(0, 8))]
        if generators and rng.random() < 0.5:
            target = {}  # a combination of the generators: always in the span
            for g in rng.sample(generators, rng.randint(1, len(generators))):
                weight = rng.choice(coeffs)
                for c, x in g.items():
                    target[c] = target.get(c, 0) + weight * x
            target = {c: x for c, x in target.items() if x}
        else:
            target = sparse_vector()
        residual = _reduce_against(target, generators)
        rank = _dense_rank(generators, columns)
        in_span = rank == _dense_rank(generators + [target], columns)
        assert (residual == {}) == in_span
        assert all(x != 0 for x in residual.values())
        # target - residual lies in the span
        shifted = dict(target)
        for c, x in residual.items():
            shifted[c] = shifted.get(c, 0) - x
        assert _dense_rank(generators + [shifted], columns) == rank
        outcomes.append(in_span)
    assert 50 < sum(outcomes) < 250


def _scan_reduce(target, generators):
    """Reference for ``_reduce_against``: each column scans every row for its pivot.

    Tag entries are carried through the row operations under their own keys.
    """
    columns = sorted(
        {c for g in generators for c in g if not isinstance(c, _Tag)} | set(target),
        key=_elimination_key,
        reverse=True,
    )
    label = {c: i for i, c in enumerate(columns)}  # small ints hash fast
    rows = [{label.get(c, c): x for c, x in g.items()} for g in generators if g]

    def subtract(vec, factor, row):
        for c, x in row.items():
            vec[c] = vec.get(c, 0) - factor * x
            if not vec[c]:
                del vec[c]

    pivots = {}
    for col in range(len(columns)):
        pivot_row = next((row for row in rows if row.get(col)), None)
        if pivot_row is None:
            continue
        rows.remove(pivot_row)
        pivots[col] = {c: x / pivot_row[col] for c, x in pivot_row.items()}
        for row in rows:
            if row.get(col):
                subtract(row, row[col], pivots[col])
    vec = {label[c]: x for c, x in target.items()}
    for col in range(len(columns)):
        if vec.get(col) and col in pivots:
            subtract(vec, vec[col], pivots[col])
    return {columns[c] if isinstance(c, int) else c: x for c, x in vec.items()}


def _untagged(vec):
    return [(c, x) for c, x in vec.items() if not isinstance(c, _Tag)]


def test_reduce_against_matches_scanning_reference_in_canonical_density():
    # seeds 1-60, each random product and its dx: reduce_mod_dx gives the
    # residual and witness of one elimination over whole windows, and on each
    # of those window systems _reduce_against gives the same residual, in the
    # same key order, as the row-scanning loop
    systems = []
    for seed in range(1, 61):
        rng = random.Random(seed)
        a, b = random_expr(rng), random_expr(rng)
        for e in (a * b, dx(a * b)):
            target, generators = ref_window_system(e)
            reduced = _reduce_against(target, generators)
            assert _untagged(reduced) == _untagged(_scan_reduce(target, generators))
            assert reduce_mod_dx(e) == ref_split(reduced)
            systems.append(len(generators))
    assert len(systems) == 120 and max(systems) > 1000


def _spectral_dx(arr, order=1):
    n = arr.size
    k = np.fft.rfftfreq(n, d=1.0 / n)
    return np.fft.irfft(np.fft.rfft(arr) * (1j * k) ** order, n)


def test_variational_derivative_matches_finite_differences():
    """Functional gradient vs central differences of the discrete functional."""
    n = 64
    x = 2 * np.pi * np.arange(n) / n
    base = np.cos(x) + 0.3 * np.sin(2 * x)
    h = 2 * np.pi / n
    density = u() * u(dx=1) ** 2 + Fraction(1, 2) * u(dx=2) ** 2

    def functional(values):
        terms = {u.jet(): values, u.jet(dx=1): _spectral_dx(values), u.jet(dx=2): _spectral_dx(values, 2)}
        total = np.zeros(n)
        for (lam, factors), coeff in density.terms():
            prod = float(coeff) * np.ones(n)
            for f in factors:
                prod = prod * terms[f]
            total += prod
        return h * total.sum()

    grad_expr = variational_derivative(density, u)
    bindings = {
        u.jet(): base,
        u.jet(dx=1): _spectral_dx(base),
        u.jet(dx=2): _spectral_dx(base, 2),
        u.jet(dx=3): _spectral_dx(base, 3),
        u.jet(dx=4): _spectral_dx(base, 4),
    }
    symbolic = np.zeros(n)
    for (lam, factors), coeff in grad_expr.terms():
        prod = float(coeff) * np.ones(n)
        for f in factors:
            prod = prod * bindings[f]
        symbolic += prod
    eps = 1e-6
    for j in range(0, n, 7):
        bumped = base.copy()
        bumped[j] += eps
        dropped = base.copy()
        dropped[j] -= eps
        fd = (functional(bumped) - functional(dropped)) / (2 * eps * h)
        assert abs(fd - symbolic[j]) <= 1e-6 * max(1.0, abs(symbolic[j]))
