"""Shared generators for seeded property tests, and the tests' reference implementations.

``random_element`` draws the superconformal algebra elements whose triples
cross-check the kernel against the generic Jacobi proof of ``check_jacobi``;
``ref_lie_bracket`` and ``ref_inner_product`` (with its operator form) are the
component bracket and metric that ``structures`` reads off the superspace
bracket and the Berezin metric, and ``ref_bilinear_B`` and ``ref_apply_J1`` the
closed-form operators that it reads off those two.

``gmul`` is the reference Grassmann product and ``ref_gmul_stack`` the
per-pair stack loop whose float results ``gmul_stack`` must reproduce exactly;
``dealias_23`` is the reference two-thirds truncation, ``ref_derivatives`` and
``ref_spectral_antiderivative`` the mask-and-divide spectral helpers,
``ref_state_csv`` the state table as one joined text,
``ref_is_total_x_derivative`` the reference exactness criterion, and
``ref_window_system``, ``ref_split`` and ``ref_reduce_mod_dx`` the rule-free
reduction by one elimination over whole windows.  The other ``ref_*``
functions are the reference for the symbolic kernel: an expression is a dict
``{(lam, factors): Fraction}`` with sorted factors and no zero coefficient,
and every operation is a plain loop on ``Fraction`` values.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from superhs.algebra import EVEN, ODD, THETA, FieldSymbol, JetFactor, SymExpr, _accumulate, _sort_factors
from superhs.calculus import dx
from superhs.density import _Tag, _reduce_against, euler_x
from superhs.grassmann import even_masks, mask_row, merge_sign, odd_masks
from superhs.numerics import grid, mask_label
from superhs import structures
from superhs.structures import CHI, PSI, W, AlgebraElement, op_A0, op_A1

U = FieldSymbol("u", EVEN)
V = FieldSymbol("v", EVEN)
XI = FieldSymbol("xi", ODD)
PHI = FieldSymbol("phi", ODD)

_EVEN_POOL = [U, V]
_ODD_POOL = [XI, PHI]
_COEFFS = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]


def random_monomial(rng: random.Random, allow_theta: bool = True) -> SymExpr:
    factors = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            sym = rng.choice(_EVEN_POOL)
        else:
            sym = rng.choice(_ODD_POOL)
        factors.append(sym.jet(dx=rng.randint(0, 3), dt=rng.randint(0, 1)))
    if allow_theta and rng.random() < 0.3:
        factors.insert(0, THETA)
    return SymExpr.monomial(rng.choice(_COEFFS), factors)


def random_expr(rng: random.Random, n_terms: int = 3, allow_theta: bool = True) -> SymExpr:
    total = SymExpr.zero()
    for _ in range(rng.randint(1, n_terms)):
        total = total + random_monomial(rng, allow_theta)
    return total


def random_homogeneous(rng: random.Random, parity: int, allow_theta: bool = False) -> SymExpr:
    """Random expression all of whose terms share the requested parity."""
    for _ in range(200):
        candidate = random_expr(rng, allow_theta=allow_theta)
        if not candidate.is_zero() and candidate.parity() == parity:
            return candidate
        filtered = candidate.filter_terms(
            lambda key, _c: sum(f.parity for f in key[1]) % 2 == parity
        )
        if not filtered.is_zero():
            return filtered
    raise RuntimeError("could not build a homogeneous expression")


def random_x_poly(rng: random.Random, fields, max_dx: int = 3, n_terms: int = 3) -> SymExpr:
    """Random x-jet polynomial in the given fields (no t-jets, no theta)."""
    total = SymExpr.zero()
    for _ in range(rng.randint(1, n_terms)):
        factors = []
        for _ in range(rng.randint(1, 3)):
            sym = rng.choice(list(fields))
            factors.append(sym.jet(dx=rng.randint(0, max_dx)))
        total = total + SymExpr.monomial(rng.choice(_COEFFS), factors)
    return total


# algebra-element pools over the bracket's fields (U, V, PHI above are the same symbols)
_ELEMENT_EVEN_JETS = [(U, 0), (U, 1), (U, 2), (V, 0), (V, 1), (W, 0), (W, 1)]
_ELEMENT_ODD_JETS = [(PHI, 0), (PHI, 1), (PSI, 0), (PSI, 1), (CHI, 0), (CHI, 1)]
_ELEMENT_COEFFS = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _random_element_part(rng: random.Random, parity: int, n_terms: int = 2) -> SymExpr:
    """Small random expression of the requested parity."""
    total = SymExpr.zero()
    for _ in range(rng.randint(1, n_terms)):
        coeff = rng.choice(_ELEMENT_COEFFS)
        if parity == EVEN:
            kind = rng.random()
            if kind < 0.5:
                sym, order = rng.choice(_ELEMENT_EVEN_JETS)
                factors = [sym.jet(dx=order)]
            elif kind < 0.8:
                s1, o1 = rng.choice(_ELEMENT_EVEN_JETS)
                s2, o2 = rng.choice(_ELEMENT_EVEN_JETS)
                factors = [s1.jet(dx=o1), s2.jet(dx=o2)]
            else:
                s1, o1 = rng.choice(_ELEMENT_ODD_JETS)
                s2, o2 = rng.choice(_ELEMENT_ODD_JETS)
                if (s1, o1) == (s2, o2):
                    continue
                factors = [s1.jet(dx=o1), s2.jet(dx=o2)]
        else:
            s1, o1 = rng.choice(_ELEMENT_ODD_JETS)
            factors = [s1.jet(dx=o1)]
            if rng.random() < 0.4:
                s2, o2 = rng.choice(_ELEMENT_EVEN_JETS)
                factors.append(s2.jet(dx=o2))
        total = total + SymExpr.monomial(coeff, factors)
    return total


def random_element(rng: random.Random) -> AlgebraElement:
    return AlgebraElement(_random_element_part(rng, EVEN), _random_element_part(rng, ODD))


def ref_lie_bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The superconformal bracket, written in components."""
    u, phi = x.even_part, x.odd_part
    v, psi = y.even_part, y.odd_part
    half = Fraction(1, 2)
    even = u * dx(v) - dx(u) * v + half * (phi * psi)
    odd = u * dx(psi) - half * (dx(u) * psi) - dx(phi) * v + half * (phi * dx(v))
    return AlgebraElement(even, odd)


def ref_inner_product(x: AlgebraElement, y: AlgebraElement) -> SymExpr:
    """The H^1 density u_x*v_x + phi_x*psi, written in components."""
    return dx(x.even_part) * dx(y.even_part) + dx(x.odd_part) * y.odd_part


def ref_inner_product_operator_form(x: AlgebraElement, y: AlgebraElement) -> SymExpr:
    """The same metric written through the operators (-d2/dx2, -d/dx)."""
    return x.even_part * op_A0(y.even_part) + x.odd_part * op_A1(y.odd_part)


def ref_bilinear_B(x: AlgebraElement, y: AlgebraElement) -> Tuple[SymExpr, SymExpr]:
    """Images (A0*B0, A1*B1) of the geodesic bilinear operator, coefficient by coefficient."""
    u, phi = x.even_part, x.odd_part
    v, psi = y.even_part, y.odd_part
    a0b0 = -(
        2 * (dx(v) * op_A0(u))
        + v * op_A0(dx(u))
        + Fraction(3, 2) * (dx(psi) * op_A1(phi))
        + Fraction(1, 2) * (psi * op_A1(dx(phi)))
    )
    a1b1 = -(
        Fraction(3, 2) * (dx(v) * op_A1(phi))
        + v * op_A1(dx(phi))
        + Fraction(1, 2) * (psi * op_A0(u))
    )
    return a0b0, a1b1


def ref_apply_J1(p_m: SymExpr, p_eta: SymExpr) -> Tuple[SymExpr, SymExpr]:
    """The Lie-Poisson operator at m = -u_xx, eta = -xi_xx, row by row."""
    m, eta, half = -U(dx=2), -XI(dx=2), Fraction(1, 2)
    row1 = -(dx(m * p_m) + m * dx(p_m)) + half * dx(eta * p_eta) + eta * dx(p_eta)
    row2 = -dx(eta * p_m) - half * (eta * dx(p_m)) - half * (m * p_eta)
    return row1, row2


def sampled_lie_failures(n_cases: int, seed: int) -> list:
    """``structures._lie_axioms`` failures on ``n_cases`` seeded triples, up to the first failing triple."""
    failures: list = []
    rng = random.Random(seed)
    for case in range(n_cases):
        if failures:
            break
        x, y, z = random_element(rng), random_element(rng), random_element(rng)
        structures._lie_axioms(f"case {case}", x, y, z, failures)
    return failures


def gmul(a: Mapping[int, float], b: Mapping[int, float]) -> Dict[int, float]:
    """Product of two ``{mask: coeff}`` elements of ``Lambda_N`` at one point, mask by mask.

    The package multiplies with ``grassmann.gmul_stack``; this loop is the
    independent reference the tests compare it against.
    """
    out: Dict[int, float] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            sign = merge_sign(ma, mb)
            if sign:
                out[ma | mb] = out.get(ma | mb, 0.0) + sign * ca * cb
    return out


def ref_gmul_stack(a: np.ndarray, parity_a: int, b: np.ndarray, parity_b: int, n: int) -> np.ndarray:
    """Product of two level stacks: every nonzero mask pair in mask order, one row product each, into zeros."""
    masks = (even_masks(n), odd_masks(n))
    out = np.zeros((len(masks[parity_a ^ parity_b]),) + a.shape[1:])
    for ma in masks[parity_a]:
        for mb in masks[parity_b]:
            sign = merge_sign(ma, mb)
            if sign > 0:
                out[mask_row(ma | mb)] += a[mask_row(ma)] * b[mask_row(mb)]
            elif sign < 0:
                out[mask_row(ma | mb)] -= a[mask_row(ma)] * b[mask_row(mb)]
    return out


def ref_derivatives(arr: np.ndarray, orders) -> list:
    """Derivatives along the last axis, each multiplying one transform by (ik)**order built afresh."""
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    ik = 1j * np.fft.rfftfreq(n, d=1.0 / n)
    return [np.fft.irfft(spec * ik**order, n) if order else arr for order in orders]


def ref_spectral_antiderivative(arr: np.ndarray, dealias: bool = False) -> np.ndarray:
    """Zero-mean antiderivative: cut by a boolean mask, zero the mean, divide by ik."""
    n = arr.shape[-1]
    k = np.fft.rfftfreq(n, d=1.0 / n)
    spec = np.fft.rfft(arr)
    if dealias:
        spec[..., k > n / 3.0] = 0.0
    spec[..., 0] = 0.0
    spec[..., 1:] /= 1j * k[1:]
    return np.fft.irfft(spec, n)


def ref_state_csv(state) -> str:
    """The text of ``write_state_csv``: header and one line per grid point, joined at once."""
    header = ["x"]
    header += [f"u_{mask_label(m)}" for m in even_masks(state.n_grassmann)]
    header += [f"xi_{mask_label(m)}" for m in odd_masks(state.n_grassmann)]
    columns = np.vstack([grid(state.n_modes), state.u, state.xi])
    row = ",".join(["%.16e"] * len(header))
    lines = [",".join(header)]
    lines += [row % tuple(values.tolist()) for values in columns.T]
    return "\n".join(lines) + "\n"


def dealias_23(arr: np.ndarray) -> np.ndarray:
    """Standard two-thirds truncation: the modes above n/3 are set to zero."""
    n = arr.shape[-1]
    spec = np.fft.rfft(arr)
    spec[..., np.fft.rfftfreq(n, d=1.0 / n) > n / 3.0] = 0.0
    return np.fft.irfft(spec, n)


def ref_is_total_x_derivative(e: SymExpr) -> bool:
    """The variational criterion: no field-free term, and the Euler operator of
    every field at every t-order annihilates ``e`` (formal constants and theta
    are coefficients)."""
    if any(all(f.symbol.constant for f in factors) for (_lam, factors), _c in e.terms()):
        return False
    fields = {(f.symbol, f.dt) for f in e.jet_factors() if not f.symbol.constant}
    return all(euler_x(e, sym, dt_order).is_zero() for sym, dt_order in fields)


def ref_window_monomials(
    slots: Sequence[Tuple[FieldSymbol, int]], total_dx: int
) -> List[Tuple[JetFactor, ...]]:
    """All canonical factor tuples with the given field content and x-order.

    ``slots`` lists (field, t-order) with multiplicity, equal slots adjacent.
    Within a run of equal slots the x-orders are taken non-decreasing (strictly
    increasing for odd fields, whose equal jets vanish), which enumerates each
    monomial once.
    """
    out: List[Tuple[JetFactor, ...]] = []

    def rec(i: int, remaining: int, prev_dx: int, acc: List[JetFactor]):
        if i == len(slots):
            if remaining == 0:
                sorted_ = _sort_factors(tuple(acc))
                if sorted_ is not None:
                    out.append(sorted_[1])
            return
        sym, dt_order = slots[i]
        same_group = i > 0 and slots[i - 1] == slots[i]
        if sym.constant:
            acc.append(JetFactor(sym))
            rec(i + 1, remaining, 0, acc)
            acc.pop()
            return
        lo = prev_dx if same_group else 0
        if same_group and sym.parity == ODD:
            lo = prev_dx + 1
        for k in range(lo, remaining + 1):
            acc.append(JetFactor(sym, dx=k, dt=dt_order))
            rec(i + 1, remaining - k, k, acc)
            acc.pop()

    rec(0, total_dx, 0, [])
    return sorted(set(out), key=lambda fs: tuple(f.sort_key for f in fs))


def ref_window_system(e: SymExpr):
    """The target vector and the tagged rows of the rule-free reduction over whole windows.

    A sector is a lam power, a field content with t-orders and a total x-order;
    its window is every monomial of the same lam power and content one x-order
    lower.  Each window monomial of each of the target's sectors gives one row,
    its ``dx`` image with a ``_Tag`` of the monomial.
    """
    sectors = dict.fromkeys(
        (lam, tuple((f.symbol, f.dt) for f in factors), sum(f.dx for f in factors))
        for lam, factors in e._terms
    )
    rows = []
    for lam, slots, total in sectors:
        for factors in ref_window_monomials(slots, total - 1) if total else ():
            image = dx(SymExpr.monomial(1, factors, lam=lam))
            row = {key: Fraction(n, image._den) for key, n in image._terms.items()}
            row[_Tag({(lam, factors): Fraction(1)})] = Fraction(1)
            rows.append(row)
    return {key: Fraction(n, e._den) for key, n in e._terms.items()}, rows


def ref_split(reduced: dict):
    """The residual and the witness held by the tags of a reduced window-system target."""
    residual = {k: v for k, v in reduced.items() if not isinstance(k, _Tag)}
    tags = ((tag, v) for tag, v in reduced.items() if isinstance(tag, _Tag))
    witness = _accumulate((key, -v * w) for tag, v in tags for key, w in tag.witness.items())
    return residual, SymExpr(witness)


def ref_reduce_mod_dx(e: SymExpr):
    """Residual and witness of ``e`` by one elimination against every window image."""
    return ref_split(_reduce_against(*ref_window_system(e)))


def ref_of(e: SymExpr) -> dict:
    """An expression's coefficients as a reference dict."""
    return dict(e.terms())


def _ref_sum(pairs) -> dict:
    """Reference dict of ``((lam, factors), coeff)`` pairs whose factors may be unsorted."""
    out: dict = {}
    for (lam, factors), coeff in pairs:
        sorted_ = _sort_factors(factors)
        if sorted_ is not None:
            key = (lam, sorted_[1])
            out[key] = out.get(key, Fraction(0)) + sorted_[0] * Fraction(coeff)
    return {k: c for k, c in out.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    return _ref_sum([*a.items(), *b.items()])


def ref_scale(a: dict, s) -> dict:
    return _ref_sum((k, s * c) for k, c in a.items())


def ref_mul(a: dict, b: dict) -> dict:
    return _ref_sum(
        ((lam1 + lam2, f1 + f2), c1 * c2) for (lam1, f1), c1 in a.items() for (lam2, f2), c2 in b.items()
    )


def ref_dx_image(f: JetFactor):
    return None if f.symbol.constant else (JetFactor(f.symbol, f.dx + 1, f.dt, f.dtheta),)


def ref_dt_image(f: JetFactor):
    return None if f.symbol.constant else (JetFactor(f.symbol, f.dx, f.dt + 1, f.dtheta),)


def ref_superD_image(f: JetFactor):
    if f is THETA:
        return ()
    if f.symbol.constant:
        return None
    if f.symbol.superspace:
        return (JetFactor(f.symbol, f.dx + f.dtheta, f.dt, 1 - f.dtheta),)
    return (THETA, JetFactor(f.symbol, f.dx + 1, f.dt, 0))


def ref_derive(a: dict, image: Callable, graded: bool = False) -> dict:
    """Leibniz rule: each factor in turn replaced by ``image(factor)`` (``None``: no term).

    A graded (odd) derivation takes the sign of the odd factors before the one it replaces.
    """

    def terms():
        for (lam, factors), coeff in a.items():
            sign = 1
            for i, f in enumerate(factors):
                new = image(f)
                if new is not None:
                    yield (lam, factors[:i] + new + factors[i + 1 :]), sign * coeff
                if graded and f.parity:
                    sign = -sign

    return _ref_sum(terms())


def ref_substitute(a: dict, rules: Dict[JetFactor, dict]) -> dict:
    """Rewrite component-field jets until no rule applies; at most one rule per field."""
    settled = []
    work = list(a.items())
    while work:
        (lam, factors), coeff = work.pop()
        for i, f in enumerate(factors):
            key = next((k for k in rules if k.symbol == f.symbol and f.dx >= k.dx and f.dt >= k.dt), None)
            if key is not None:
                break
        else:
            settled.append(((lam, factors), coeff))
            continue
        repl = rules[key]
        for _ in range(f.dt - key.dt):
            repl = ref_derive(repl, ref_dt_image)
        for _ in range(f.dx - key.dx):
            repl = ref_derive(repl, ref_dx_image)
        work.extend(_ref_sum(
            ((lam + r_lam, factors[:i] + r_factors + factors[i + 1 :]), coeff * r_coeff)
            for (r_lam, r_factors), r_coeff in repl.items()
        ).items())
    return _ref_sum(settled)
