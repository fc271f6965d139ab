"""Derivations and substitution on graded differential polynomials.

Provides the total derivatives ``dx`` and ``dt``, the odd superderivative
``superD`` (an odd derivation squaring to ``dx``), theta-expansion and Berezin
integration, jet substitution closed under prolongation, and first variations.

``dx``, ``dt`` and ``superD`` share one Leibniz loop, ``_leibniz``: each maps
a factor to a tuple of factors, and only ``superD`` takes the sign of the odd
factors before it.  Substitution and first variations splice a replacement's
terms into a monomial with ``_splice`` and canonicalise once.

``jet_derivative`` is the one routine that differentiates up to a jet's order
(d/dt j times, then ``superD`` or ``dx`` k times); ``_prolong`` caches it per
rule and derivative order.  Substitution rules and first variations both go
through ``_prolong``: a variation is a rule keyed on the base field.  The
Euler operators of ``density`` call ``jet_derivative`` directly.  Rules and
variations are checked by ``algebra.require_parity``.

Conventions fixed here:

* theta is the odd constant jet ``algebra.THETA``, so it is constant in both
  x and t;
* ``superD`` sends theta to 1, a component field f to ``theta * f_x`` and a
  superspace jet to the jet of one more odd derivative, reducing ``D*D`` to a
  plain x-derivative;
* substitution rules may be keyed on any jet of a field; the rule then covers
  every higher jet by differentiating the right-hand side (prolongation).
"""
from __future__ import annotations

from math import lcm
from typing import Dict, Mapping, Tuple

from .algebra import (
    THETA,
    FieldSymbol,
    JetFactor,
    SymExpr,
    TermKey,
    _accumulate,
    _canonical,
    _reduced,
    require_parity,
)


def _leibniz(e: SymExpr, image, graded: bool = False) -> SymExpr:
    """Apply a derivation factor by factor: the Leibniz loop of ``dx``, ``dt`` and ``superD``.

    Each monomial gives one term per factor, with that factor replaced by the
    tuple ``image(factor)``; ``None`` gives no term.  A ``graded`` (odd)
    derivation takes the sign of the odd factors before the one it replaces.
    Canonicalisation sorts the new factors into place.  A derivation has
    integer coefficients, so the result keeps the denominator of ``e``.
    """

    def raw():
        for (lam, factors), num in e._terms.items():
            odd_prefix = 0
            for i, f in enumerate(factors):
                new = image(f)
                if new is not None:
                    yield (lam, factors[:i] + new + factors[i + 1 :]), -num if odd_prefix else num
                if graded:
                    odd_prefix ^= f.parity

    return _reduced(_accumulate(_canonical(raw())), e._den)


def dx(e: SymExpr) -> SymExpr:
    """Total x-derivative."""
    return _leibniz(
        e, lambda f: None if f.symbol.constant else (JetFactor(f.symbol, f.dx + 1, f.dt, f.dtheta),)
    )


def dt(e: SymExpr) -> SymExpr:
    """Total t-derivative."""
    return _leibniz(
        e, lambda f: None if f.symbol.constant else (JetFactor(f.symbol, f.dx, f.dt + 1, f.dtheta),)
    )


def _superD_image(f: JetFactor):
    if f.symbol.constant:
        return () if f == THETA else None
    if f.symbol.superspace:
        return (JetFactor(f.symbol, f.dx + f.dtheta, f.dt, 1 - f.dtheta),)
    return (THETA, JetFactor(f.symbol, f.dx + 1, f.dt, 0))


def superD(e: SymExpr) -> SymExpr:
    """Odd superderivative with the graded Leibniz rule; superD(superD(e)) == dx(e).

    Each factor is replaced in turn, with the sign of the odd factors before it:

    * ``D(theta) = 1``;
    * a superspace jet gains one odd derivative (``D`` order + 1);
    * a component field f becomes ``theta * f_x``; moving that theta to the
      front passes the same odd factors, so the two signs cancel, and the
      term vanishes when a theta is already present;
    * a constant gives no term.
    """
    return _leibniz(e, _superD_image, graded=True)


def jet_derivative(e: SymExpr, dt_order: int, x_order: int, superspace: bool = False) -> SymExpr:
    """d/dt applied ``dt_order`` times, then ``superD`` (superspace) or ``dx`` ``x_order`` times.

    The derivative that takes a field to one of its jets, and a rule keyed on
    a jet to a higher one (prolongation).  ``_order`` gives the matching
    x-order of a jet.
    """
    for _ in range(dt_order):
        e = dt(e)
    x_step = superD if superspace else dx
    for _ in range(x_order):
        e = x_step(e)
    return e


def _order(jet: JetFactor) -> int:
    """A jet's x-order counted in the steps of ``jet_derivative``."""
    return jet.d_order if jet.symbol.superspace else jet.dx


class SuperfieldExpr:
    """Theta-expansion of an expression: ``body + theta*soul``."""

    __slots__ = ("body", "soul")

    def __init__(self, body: SymExpr, soul: SymExpr):
        self.body, self.soul = body, soul


def theta_expand(e: SymExpr) -> SuperfieldExpr:
    """Split ``e = body + theta*soul``; a theta term's factors start with ``THETA``."""
    body, soul = {}, {}
    for (lam, fs), num in e._terms.items():
        if fs[:1] == (THETA,):
            soul[lam, fs[1:]] = num
        else:
            body[lam, fs] = num
    return SuperfieldExpr(_reduced(body, e._den), _reduced(soul, e._den))


def berezin(e: SymExpr) -> SymExpr:
    """Berezin integration over theta: keep the theta coefficient."""
    return theta_expand(e).soul


# ---------------------------------------------------------------------------
# substitution with automatic prolongation


class SubstitutionError(ValueError):
    pass


def _applicable(factor: JetFactor, key: JetFactor) -> bool:
    """Is ``factor`` a jet of ``key`` (a prolongation of it, or itself)?"""
    return factor.symbol == key.symbol and factor.dt >= key.dt and _order(factor) >= _order(key)


def _splice(key: TermKey, num: int, i: int, repl: Dict[TermKey, int]):
    """Canonical terms of the monomial ``key`` with factor ``i`` replaced by the terms ``repl``."""
    lam, factors = key
    return _canonical(
        ((lam + r_lam, factors[:i] + r_factors + factors[i + 1 :]), num * r_num)
        for (r_lam, r_factors), r_num in repl.items()
    )


def _over(e: SymExpr, den: int) -> Dict[TermKey, int]:
    """The numerators of ``e`` over ``den``, a multiple of its denominator."""
    scale = den // e._den
    return {k: n * scale for k, n in e._terms.items()}


def _prolong(rhs: SymExpr, key: JetFactor, factor: JetFactor, den: int,
             cache: Dict[Tuple[JetFactor, int, int], Dict[TermKey, int]]) -> Dict[TermKey, int]:
    """The numerators over ``den`` of the rule ``key -> rhs`` prolonged to ``factor``."""
    dts = factor.dt - key.dt
    steps = _order(factor) - _order(key)
    ck = (key, dts, steps)
    if ck not in cache:
        cache[ck] = _over(jet_derivative(rhs, dts, steps, factor.symbol.superspace), den)
    return cache[ck]


def substitute(
    e: SymExpr,
    rules: Mapping[JetFactor, SymExpr],
    max_rewrites: int = 200_000,
) -> SymExpr:
    """Rewrite jets by the given rules until no rule applies.

    A rule keyed on a jet covers all its higher jets by prolongation.  When
    several rules match one factor the most-derived key wins, which makes the
    result deterministic; for prolongation-consistent rule systems the choice
    does not matter.
    """
    for key, rhs in rules.items():
        require_parity(rhs, key.parity, f"substitution for {key}")
    keys = sorted(rules, key=lambda k: (k.dt, _order(k)), reverse=True)
    # a prolongation keeps the denominator of its rule, so every replacement
    # is taken over ``den``, each rewrite multiplies a monomial's denominator
    # by it, and every denominator divides the largest one
    den = lcm(*(rhs._den for rhs in rules.values()))
    cache: Dict[Tuple[JetFactor, int, int], Dict[TermKey, int]] = {}
    settled = []  # (denominator, monomial, numerator) of the monomials no rule rewrites
    work = [(e._den, mono, num) for mono, num in e._terms.items()]
    budget = max_rewrites
    while work:
        item = d, mono, num = work.pop()
        factors = mono[1]
        hit = None
        for i, f in enumerate(factors):
            for key in keys:
                if _applicable(f, key):
                    hit = (i, key)
                    break
            if hit:
                break
        if hit is None:
            settled.append(item)
            continue
        budget -= 1
        if budget < 0:
            raise SubstitutionError("substitution did not terminate (rule cycle?)")
        i, key = hit
        repl = _prolong(rules[key], key, factors[i], den, cache)
        work.extend((d * den, m, n) for m, n in _splice(mono, num, i, repl))
    top = max((d for d, _mono, _num in settled), default=1)
    return _reduced(_accumulate((mono, num * (top // d)) for d, mono, num in settled), top)


def first_variation(e: SymExpr, variations: Mapping[FieldSymbol, SymExpr]) -> SymExpr:
    """Linearise ``e`` along a field variation, replacing jets in place.

    The variation of a jet is the variation of the base field prolonged to
    that jet by ``_prolong``, as for a substitution rule keyed on the field;
    graded reordering signs are produced by canonicalisation of the spliced
    product.
    """
    for sym, delta in variations.items():
        require_parity(delta, sym.parity, f"variation of {sym.name}")
    den = lcm(*(delta._den for delta in variations.values()))
    cache: Dict[Tuple[JetFactor, int, int], Dict[TermKey, int]] = {}
    spliced = (
        term
        for key, num in e._terms.items()
        for i, f in enumerate(key[1])
        if f.symbol in variations
        for term in _splice(key, num, i, _prolong(variations[f.symbol], f.symbol.jet(), f, den, cache))
    )
    return _reduced(_accumulate(spliced), e._den * den)
