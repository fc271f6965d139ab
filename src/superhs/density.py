"""Densities modulo total derivatives and variational calculus.

A density is the integrand ``SymExpr`` of an x-integral, considered up to
total x-derivatives.  A superspace integrand is first reduced to one by
``calculus.berezin``.

Exactness is shown by a witness: ``integrate_x`` builds the antiderivative F
by the homotopy operator, and ``e`` is a total x-derivative iff ``dx(F) == e``.
The same F gives the solver its once-integrated potentials.  The odd
variational derivative follows the convention in which the gradient
multiplies the variation from the left, ``delta F = integral (dF/df) * df``;
operationally that is the right partial derivative (the factor is commuted to
the right end of the monomial before being stripped).  This is the convention
under which the gradients of the quadratic and cubic invariants take their
standard closed forms, and it is pinned by tests before any dependent check
runs.

``canonical_density`` computes a genuine normal form: within each finite
sector (fixed lam power, field content and total x-order; theta is an odd
constant factor, so it is part of the field content) the subspace of exact
terms is spanned by derivatives of the one-lower sector, and the integrand is
reduced against that span by exact Gaussian elimination.
Monomials concentrating derivatives on few factors are eliminated first, so
one integration by parts sends ``u*u_xx`` to ``-u_x**2``.  That sparse
eliminator, ``_reduce_against``, is the only one in the package: the flux
certificates of ``structures.conservation_check`` decide span membership with
it too (an empty residual means the target lies in the span), on vectors built
by ``_coefficient_vector``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .algebra import ODD, FieldSymbol, JetFactor, SymExpr, TermKey, _accumulate, _reduced, _sort_factors
from .calculus import dx, jet_derivative


def _coefficient_vector(e: SymExpr) -> Dict[Tuple[JetFactor, ...], Fraction]:
    """Coefficients keyed by factor tuple, for ``e`` of one lam power."""
    return {factors: Fraction(n, e._den) for (_lam, factors), n in e._terms.items()}


# ---------------------------------------------------------------------------
# partial and Euler derivatives


def partial_jet(e: SymExpr, jet: JetFactor) -> SymExpr:
    """Right partial derivative with respect to one jet coordinate.

    For an odd jet the factor is moved to the right end of the monomial (one
    sign flip per odd factor passed) and stripped.
    """

    def stripped():
        for (lam, factors), num in e._terms.items():
            for i, f in enumerate(factors):
                if f == jet:
                    # removing one factor keeps the tuple canonical
                    sign = -1 if f.parity and sum(g.parity for g in factors[i + 1 :]) % 2 else 1
                    yield (lam, factors[:i] + factors[i + 1 :]), sign * num

    return _reduced(_accumulate(stripped()), e._den)


def _check_component_only(e: SymExpr) -> None:
    for f in e.jet_factors():
        if f.symbol.superspace:
            raise ValueError(f"superspace jet {f} not supported in variational calculus")


def euler_x(e: SymExpr, field: FieldSymbol, dt_order: int = 0) -> SymExpr:
    """Euler operator in x only: sum_k (-d/dx)**k of d/d(field_(t**j x**k)).

    Jets of the same field with a different t-order are treated as independent
    fields; pass ``dt_order`` to select which one to vary.
    """
    _check_component_only(e)
    if field.constant:
        raise ValueError("constants are coefficients, not variational fields")
    max_k = max(
        (f.dx for f in e.jet_factors() if f.symbol == field and f.dt == dt_order),
        default=-1,
    )
    total = SymExpr.zero()
    for k in range(max_k + 1):
        term = jet_derivative(partial_jet(e, JetFactor(field, dx=k, dt=dt_order)), 0, k)
        total = total + (term if k % 2 == 0 else -term)
    return total


def euler_xt(e: SymExpr, field: FieldSymbol) -> SymExpr:
    """Space-time Euler operator: sum_j (-d/dt)**j of ``euler_x`` at t-order j."""
    max_j = max((f.dt for f in e.jet_factors() if f.symbol == field), default=0)
    total = SymExpr.zero()
    for j in range(max_j + 1):
        term = jet_derivative(euler_x(e, field, j), j, 0)
        total = total + (term if j % 2 == 0 else -term)
    return total


def variational_derivative(density: SymExpr, field: FieldSymbol) -> SymExpr:
    """Functional gradient of a density with respect to one field."""
    return euler_x(density, field)


# ---------------------------------------------------------------------------
# exactness


def integrate_x(e: SymExpr) -> SymExpr:
    """The x-antiderivative of ``e`` with no field-free term, by the homotopy operator.

    On the part of ``e`` of field degree d (formal constants and ``THETA`` are
    coefficients) it is (1/d) sum over jets f_i of sum_{j<i} ((-D)**(i-1-j)
    dR e/df_i) * f_j, with dR = ``partial_jet`` and f_j the same field at
    x-order j (Olver, section 5.4; Hereman et al., "Continuous and discrete
    homotopy operators", 2005).  It is checked by ``dx``: a field-free term or
    any other non-exact ``e`` raises ``ValueError``.
    """
    by_degree: Dict[int, Dict[TermKey, int]] = {}
    for key, num in e._terms.items():
        by_degree.setdefault(sum(not f.symbol.constant for f in key[1]), {})[key] = num
    by_degree.pop(0, None)  # field-free terms have no antiderivative; dx below catches them
    antiderivative = SymExpr.zero()
    for degree, nums in by_degree.items():
        part = _reduced(nums, e._den * degree)
        for jet in part.jet_factors():
            term = partial_jet(part, jet)
            for j in reversed(range(jet.dx)):
                antiderivative = antiderivative + term * jet.symbol(j, jet.dt, jet.dtheta)
                term = -dx(term)
    if dx(antiderivative) != e:
        raise ValueError("not a total x-derivative")  # no formatting: callers probe many inputs
    return antiderivative


def is_total_x_derivative(e: SymExpr) -> bool:
    """True iff ``e`` is d/dx of a differential polynomial: ``integrate_x`` finds its witness."""
    _check_component_only(e)
    try:
        integrate_x(e)
    except ValueError:
        return False
    return True


def equals_mod_dx(e1: SymExpr, e2: SymExpr) -> bool:
    """True iff ``e1 - e2`` is a total x-derivative."""
    return is_total_x_derivative(e1 - e2)


# ---------------------------------------------------------------------------
# canonical representative modulo exact terms


def _sector_of(key: TermKey):
    lam, factors = key
    profile = tuple(sorted((f.symbol.name, f.symbol, f.dt) for f in factors))
    total = sum(f.dx for f in factors)
    return (lam, profile), total


def window_monomials(
    slots: Sequence[Tuple[FieldSymbol, int]], total_dx: int
) -> List[Tuple[JetFactor, ...]]:
    """All canonical factor tuples with the given field content and x-order.

    ``slots`` lists (field, t-order) with multiplicity.  Within a run of equal
    slots the x-orders are taken non-decreasing (strictly increasing for odd
    fields, whose equal jets vanish), which enumerates each monomial once in
    already-sorted form.
    """
    ordered = sorted(slots, key=lambda s: (s[0].name, s[1]))
    out: List[Tuple[JetFactor, ...]] = []

    def rec(i: int, remaining: int, prev_dx: int, acc: List[JetFactor]):
        if i == len(ordered):
            if remaining == 0:
                sorted_ = _sort_factors(tuple(acc))
                if sorted_ is not None:
                    out.append(sorted_[1])
            return
        sym, dt_order = ordered[i]
        same_group = i > 0 and ordered[i - 1] == ordered[i]
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


def _elimination_key(factors: Tuple[JetFactor, ...]):
    # concentrate-derivatives-first: monomials with higher maximal x-orders are
    # eliminated in favour of spread-out ones (u*u_xx -> -u_x**2)
    return (
        tuple(sorted((f.dx for f in factors), reverse=True)),
        tuple(f.sort_key for f in factors),
    )


def _reduce_against(
    target: Dict[Tuple[JetFactor, ...], Fraction],
    generators: List[Dict[Tuple[JetFactor, ...], Fraction]],
) -> Dict[Tuple[JetFactor, ...], Fraction]:
    """Reduce a coefficient vector modulo the span of the generators.

    Each column's pivot is the first unused row, in generator order, with a
    nonzero entry there; that row is eliminated from every other unused row.
    """
    pivots: Dict[Tuple[JetFactor, ...], Dict[Tuple[JetFactor, ...], Fraction]] = {}
    rows = [dict(g) for g in generators if g]
    # column -> indices of the unused rows with a nonzero entry in it, so a
    # column costs the rows that hold it, not a scan of every row
    holders: Dict[Tuple[JetFactor, ...], set] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            if v:
                holders.setdefault(c, set()).add(i)
    columns = sorted(set(holders) | set(target), key=_elimination_key, reverse=True)
    for col in columns:
        if not holders.get(col):
            continue
        pivot = min(holders[col])
        pivot_row = rows[pivot]
        for c in pivot_row:
            holders.get(c, set()).discard(pivot)
        inv = Fraction(1) / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        for i in list(holders[col]):
            row = rows[i]
            factor = row[col]
            _accumulate(((c, -factor * v) for c, v in pivot_row.items()), row)
            for c in pivot_row:
                if row.get(c):
                    holders.setdefault(c, set()).add(i)
                else:
                    holders.get(c, set()).discard(i)
        pivots[col] = pivot_row
    vec = dict(target)
    for col in columns:
        coeff = vec.get(col)
        if coeff and col in pivots:
            _accumulate(((c, -coeff * v) for c, v in pivots[col].items()), vec)
    return vec


def canonical_density(e: SymExpr) -> SymExpr:
    """Integration-by-parts normal form of a density.

    Two densities have equal canonical forms iff they differ by a total
    x-derivative.
    """
    _check_component_only(e)
    sectors: Dict[Tuple, Dict[int, Dict[Tuple[JetFactor, ...], Fraction]]] = {}
    for key, num in e._terms.items():
        (head, total) = _sector_of(key)
        sectors.setdefault(head, {}).setdefault(total, {})[key[1]] = Fraction(num, e._den)
    result = SymExpr.zero()
    for (lam, profile), by_total in sorted(sectors.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
        slots = [(sym, dt_order) for (_name, sym, dt_order) in profile]
        for total, target in sorted(by_total.items()):
            generators = []
            if total > 0:
                for fs in window_monomials(slots, total - 1):
                    vec = _coefficient_vector(dx(SymExpr.monomial(1, fs)))
                    if vec:
                        generators.append(vec)
            reduced = _reduce_against(target, generators)
            for factors, coeff in reduced.items():
                result = result + SymExpr.monomial(coeff, factors, lam=lam)
    return result
