"""Shared generators for seeded property tests, and the tests' reference product."""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Mapping

from superhs.algebra import EVEN, ODD, THETA, FieldSymbol, SymExpr
from superhs.grassmann import merge_sign

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
