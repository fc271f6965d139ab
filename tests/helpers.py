"""Shared generators for seeded property tests, and the tests' reference implementations.

``random_element`` draws the superconformal algebra elements whose triples
cross-check the kernel against the generic Jacobi proof of ``check_jacobi``.

``gmul`` is the reference Grassmann product, ``dealias_23`` the reference
two-thirds truncation and ``ref_is_total_x_derivative`` the reference
exactness criterion.  The ``ref_*`` functions are the
reference for the symbolic kernel: an expression is a dict ``{(lam, factors):
Fraction}`` with sorted factors and no zero coefficient, and every operation
is a plain loop on ``Fraction`` values.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, Mapping

import numpy as np

from superhs.algebra import EVEN, ODD, THETA, FieldSymbol, JetFactor, SymExpr, _sort_factors
from superhs.density import euler_x
from superhs.grassmann import merge_sign
from superhs import structures
from superhs.structures import CHI, PSI, W, AlgebraElement

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
