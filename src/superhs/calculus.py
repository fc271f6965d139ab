"""Derivations and substitution on graded differential polynomials.

Provides the total derivatives ``dx`` and ``dt``, the odd superderivative
``superD`` (an odd derivation squaring to ``dx``), theta-expansion and Berezin
integration, jet substitution closed under prolongation, and first variations.

``jet_derivative`` is the one routine that differentiates up to a jet's order
(d/dt j times, then ``superD`` or ``dx`` k times).  Prolongation of a rule,
the variation of a jet and the Euler operators of ``density`` all call it.
Rules and variations are checked by ``algebra.require_parity``.

Conventions fixed here:

* theta is constant in both x and t;
* ``superD`` acts on a component field f as ``theta * f_x`` and on a
  superspace jet by raising its odd-derivative order, reducing ``D*D`` to a
  plain x-derivative;
* substitution rules may be keyed on any jet of a field; the rule then covers
  every higher jet by differentiating the right-hand side (prolongation).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .algebra import (
    FieldSymbol,
    JetFactor,
    SymExpr,
    TermKey,
    _accumulate,
    require_parity,
    theta_factor,
)


def _derive_terms(e: SymExpr, raise_jet) -> SymExpr:
    """Even derivation: Leibniz over factors, no graded signs."""
    return SymExpr.from_terms(
        (coeff, lam, theta, factors[:i] + (new,) + factors[i + 1 :])
        for (lam, theta, factors), coeff in e._terms.items()
        for i, f in enumerate(factors)
        if not f.symbol.constant and (new := raise_jet(f)) is not None
    )


def dx(e: SymExpr) -> SymExpr:
    """Total x-derivative."""
    return _derive_terms(e, lambda f: JetFactor(f.symbol, f.dx + 1, f.dt, f.dtheta))


def dt(e: SymExpr) -> SymExpr:
    """Total t-derivative."""
    return _derive_terms(e, lambda f: JetFactor(f.symbol, f.dx, f.dt + 1, f.dtheta))


def superD(e: SymExpr) -> SymExpr:
    """Odd superderivative with the graded Leibniz rule; superD(superD(e)) == dx(e).

    On a monomial ``theta**t * f1 * ... * fn`` each slot (the theta flag and
    every factor) is differentiated in place with the sign of the odd prefix:

    * ``D(theta) = 1``;
    * a superspace jet gains one odd derivative (``D`` order + 1);
    * a component field f contributes ``theta * f_x``; the freshly created
      theta moves to the front past the same prefix, so the two signs cancel
      and the term survives only when no theta was present.
    """

    def raw():
        for (lam, theta, factors), coeff in e._terms.items():
            if theta:
                # D(theta) = 1 with empty prefix
                yield coeff, lam, 0, factors
            prefix_parity = theta
            for i, f in enumerate(factors):
                if f.symbol.constant:
                    prefix_parity ^= f.parity
                    continue
                if f.symbol.superspace:
                    if f.dtheta:
                        new = JetFactor(f.symbol, f.dx + 1, f.dt, 0)
                    else:
                        new = JetFactor(f.symbol, f.dx, f.dt, 1)
                    sign = -1 if prefix_parity else 1
                    yield sign * coeff, lam, theta, factors[:i] + (new,) + factors[i + 1 :]
                else:
                    # theta*f_x insertion: the Leibniz prefix sign and the sign of
                    # moving theta to the front cancel; theta**2 = 0 kills the term
                    if not theta:
                        new = JetFactor(f.symbol, f.dx + 1, f.dt, 0)
                        yield coeff, lam, 1, factors[:i] + (new,) + factors[i + 1 :]
                prefix_parity ^= f.parity

    return SymExpr.from_terms(raw())


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


@dataclass(frozen=True)
class SuperfieldExpr:
    """Theta-expansion of an expression: ``body + theta*soul``."""

    body: SymExpr
    soul: SymExpr

    def reconstruct(self) -> SymExpr:
        return self.body + theta_factor() * self.soul


def theta_expand(e: SymExpr) -> SuperfieldExpr:
    """Split ``e = body + theta*soul``."""
    body: Dict[TermKey, Fraction] = {}
    soul: Dict[TermKey, Fraction] = {}
    for (lam, theta, factors), coeff in e._terms.items():
        if theta:
            soul[(lam, 0, factors)] = coeff
        else:
            body[(lam, 0, factors)] = coeff
    return SuperfieldExpr(SymExpr(body, _internal=True), SymExpr(soul, _internal=True))


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


def _prolong(rhs: SymExpr, key: JetFactor, factor: JetFactor,
             cache: Dict[Tuple[JetFactor, int, int], SymExpr]) -> SymExpr:
    dts = factor.dt - key.dt
    steps = _order(factor) - _order(key)
    ck = (key, dts, steps)
    if ck not in cache:
        cache[ck] = jet_derivative(rhs, dts, steps, factor.symbol.superspace)
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
    cache: Dict[Tuple[JetFactor, int, int], SymExpr] = {}

    def settled():
        """Yield every monomial that no rule rewrites, expanding the others."""
        work = list(e._terms.items())
        budget = max_rewrites
        while work:
            (lam, theta, factors), coeff = work.pop()
            hit = None
            for i, f in enumerate(factors):
                for key in keys:
                    if _applicable(f, key):
                        hit = (i, key)
                        break
                if hit:
                    break
            if hit is None:
                yield (lam, theta, factors), coeff
                continue
            budget -= 1
            if budget < 0:
                raise SubstitutionError("substitution did not terminate (rule cycle?)")
            i, key = hit
            repl = _prolong(rules[key], key, factors[i], cache)
            prefix = SymExpr.monomial(coeff, factors[:i], lam=lam, theta=theta)
            suffix = SymExpr.monomial(1, factors[i + 1 :])
            work.extend((prefix * repl * suffix)._terms.items())

    return SymExpr(_accumulate(settled()), _internal=True)


def first_variation(e: SymExpr, variations: Mapping[FieldSymbol, SymExpr]) -> SymExpr:
    """Linearise ``e`` along a field variation, replacing jets in place.

    The variation of a jet is the corresponding derivative of the variation of
    the base field; graded reordering signs are produced by canonicalisation
    of the spliced product.
    """
    for sym, delta in variations.items():
        require_parity(delta, sym.parity, f"variation of {sym.name}")
    cache: Dict[JetFactor, SymExpr] = {}

    def _delta_jet(f: JetFactor) -> SymExpr:
        if f not in cache:
            cache[f] = jet_derivative(variations[f.symbol], f.dt, _order(f), f.symbol.superspace)
        return cache[f]

    total = SymExpr.zero()
    for (lam, theta, factors), coeff in e._terms.items():
        for i, f in enumerate(factors):
            if f.symbol not in variations:
                continue
            prefix = SymExpr.monomial(coeff, factors[:i], lam=lam, theta=theta)
            suffix = SymExpr.monomial(1, factors[i + 1 :])
            total = total + prefix * _delta_jet(f) * suffix
    return total
