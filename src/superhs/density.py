"""Densities modulo total derivatives and variational calculus.

A density is the integrand ``SymExpr`` of an x-integral, considered up to
total x-derivatives.  A superspace integrand is first reduced to one by
``calculus.berezin``.  The odd variational derivative follows the convention
in which the gradient multiplies the variation from the left,
``delta F = integral (dF/df) * df``; operationally that is the right partial
derivative (the factor is commuted to the right end of the monomial before
being stripped).  This is the convention under which the gradients of the
quadratic and cubic invariants take their standard closed forms, and it is
pinned by tests before any dependent check runs.

``reduce_mod_dx`` is the one engine modulo exact terms, the
undetermined-coefficient method of Goktas & Hereman (J. Symb. Comput. 24,
1997) run as leading-term rewriting: the target's largest term is taken off
by the ``dx`` image of the monomial one x-derivative below it when it leads
that image, and kept otherwise, so only the images the target reaches are
built.  Those monomials make the witness F with ``target == dx(F) +
residual``.  One loop, ``_rewrite``, does all of it: this triangular pass,
and under substitution rules the lead table of the pure-velocity images and
the residual's reduction by that table; there is no Gaussian elimination.

``canonical_density`` is the residual (``u*u_xx`` goes to ``-u_x**2``),
``is_total_x_derivative`` an empty residual (the kernel of the Euler operator
is the image of ``dx``; Olver, ch. 4-5), ``integrate_x`` the witness, which
gives the solver its once-integrated potentials, and
``structures.conservation_check`` an empty residual on the constrained jets of
the flow, whose witness is the flux.

The images under substitution rules are the costly part of a reduction, so a
``RuleSet``, a read-only rule mapping, keeps every image built under it for as
long as it lives; the flow's one rule set is such a mapping.  Under a plain
mapping, or without rules, the images are kept for one call only: rule-free
images are cheap, and a cache shared by every call would grow without bound.
"""
from __future__ import annotations

from bisect import insort
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .algebra import FieldSymbol, JetFactor, SymExpr, TermKey, _accumulate, _reduced, _sort_factors
from .calculus import dx, jet_derivative, substitute


def _coefficient_vector(e: SymExpr) -> Dict[TermKey, Fraction]:
    return {key: Fraction(n, e._den) for key, n in e._terms.items()}


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
# reduction modulo exact terms


def _elimination_key(key: TermKey):
    # concentrate-derivatives-first: monomials with higher maximal x-orders are
    # eliminated in favour of spread-out ones (u*u_xx -> -u_x**2); lam only
    # breaks ties between sectors, which share no row
    lam, factors = key
    return (
        tuple(sorted((f.dx for f in factors), reverse=True)),
        tuple(f.sort_key for f in factors),
        lam,
    )


def _rewrite(vec: Mapping, key: Callable, rule: Callable, droppable: Optional[Callable] = None) -> Tuple[dict, dict]:
    """The one rewriting loop: ``(residual, witness)`` of ``vec`` reduced by leading terms.

    Terms are taken largest by ``key`` first.  ``rule(t)`` gives ``None`` or a
    ``(row, row_witness)`` pair led by t; the multiple of the row that cancels
    t is subtracted and that multiple of its witness added.  A row's other
    terms are smaller than t, so no term comes back once taken; terms are
    placed by a total order, never by a set's.  A term no rule takes goes to
    the residual unless ``droppable`` accepts it.  ``vec`` is not changed.
    """
    vec = dict(vec)
    pending = sorted((key(k), k) for k in vec)
    queued, residual, witness = set(vec), {}, {}
    while pending:
        t = pending.pop()[1]
        coeff = vec.get(t)
        hit = rule(t) if coeff else None
        if hit is None:
            if coeff and not (droppable and droppable(t)):
                residual[t] = coeff
            continue
        row, row_witness = hit
        scale = coeff / row[t]
        _accumulate(((k, scale * w) for k, w in row_witness.items()), witness)
        _accumulate(((k, -scale * n) for k, n in row.items()), vec)
        for k in row:
            if k not in queued:
                queued.add(k)
                insort(pending, (key(k), k))
    return residual, witness


def _reduce_by_leads(target: Mapping, rows: List[Tuple[Mapping, Mapping]]) -> Tuple[dict, dict]:
    """``target`` reduced modulo the span of ``rows``, each a ``(row, row_witness)`` pair.

    Each row in turn is rewritten by the lead table built so far and, if
    anything is left, filed under its largest term by ``_elimination_key``,
    its witness less the witness taken.  The target is then rewritten by that
    table.  Its residual holds no lead of the span, so under a fixed term order
    it is the one normal form.
    """
    table: Dict = {}
    for row, row_witness in rows:
        rest, taken = _rewrite(row, _elimination_key, table.get)
        if rest:
            lead = max(rest, key=_elimination_key)
            table[lead] = rest, _accumulate(((k, -w) for k, w in taken.items()), dict(row_witness))
    return _rewrite(target, _elimination_key, table.get)


class RuleSet(Mapping[JetFactor, SymExpr]):
    """A read-only substitution rule mapping that keeps the ``dx`` images built under it.

    ``reduce_mod_dx`` keeps in ``_images`` each ``substitute(dx(monomial), self)``
    it builds and its leading term, keyed by the monomial's ``TermKey``, and in
    ``_rows`` each pure-velocity row it reduces, the normal form of that
    monomial's image and its witness, keyed by the monomial and the
    ``droppable`` it was reduced under, for as long as the rule set lives.  The
    rules cannot change after construction (item assignment raises
    ``TypeError``), so no image or row goes stale.
    """

    __slots__ = ("_rules", "_images", "_rows")

    def __init__(self, rules: Mapping[JetFactor, SymExpr]):
        self._rules = dict(rules)
        self._images: Dict[TermKey, Tuple[Optional[TermKey], SymExpr]] = {}
        self._rows: Dict[tuple, Tuple[Dict[TermKey, Fraction], Dict[TermKey, Fraction]]] = {}

    def __getitem__(self, key: JetFactor) -> SymExpr:
        return self._rules[key]

    def __iter__(self) -> Iterator[JetFactor]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)


def reduce_mod_dx(
    target: SymExpr,
    rules: Optional[Mapping[JetFactor, SymExpr]] = None,
    droppable: Optional[Callable[[TermKey], bool]] = None,
) -> Tuple[Dict[TermKey, Fraction], SymExpr]:
    """The residual of ``target`` modulo ``dx`` images, and its witness F.

    Velocity jets are those whose x-derivative a rule rewrites (p and q under
    the flow's rules; none without rules).  Terms go largest first by velocity
    factor count, then ``_elimination_key``.  A term t whose non-velocity jets
    have a unique factor of top x-order k >= 1 is lowered there to m; if t
    leads m's image (``dx(m)``, ``rules`` substituted), that image is taken
    off and m enters F, else t goes to the residual unless ``droppable``
    accepts it.  Without rules the images are triangular, so this is the one
    normal form.  Under rules the images of pure velocity monomials (velocity
    and constant jets) are not: if a residual is left, those of velocity
    degree 1 to d + 1 with at most c constant factors, d and c the residual's
    largest, over the constant jets of the residual and the rules' right
    sides, are rewritten too and filed by their leads under
    ``_elimination_key``, and the residual is rewritten by that table
    (``_reduce_by_leads``).  So ``target == dx(F)`` (under ``rules``) plus
    droppable terms plus the residual.  A superspace jet raises
    ``ValueError``.  A ``RuleSet`` caches the images and the reduced
    pure-velocity rows; other ``rules`` get a cache for this call only.
    """
    _check_component_only(target)
    velocity = {JetFactor(k.symbol, k.dx - 1, k.dt) for k in rules or () if k.dx}
    cache, row_cache = (rules._images, rules._rows) if isinstance(rules, RuleSet) else ({}, {})

    def order(key: TermKey) -> tuple:
        return sum(f in velocity for f in key[1]), _elimination_key(key)

    def lower(key: TermKey) -> Optional[TermKey]:
        lam, factors = key
        orders = [0 if f in velocity else f.dx for f in factors]  # a constant's is 0
        top = max(orders, default=0)
        if not top or orders.count(top) > 1:
            return None
        i = orders.index(top)
        f = factors[i]
        sorted_ = _sort_factors(factors[:i] + (JetFactor(f.symbol, top - 1, f.dt),) + factors[i + 1 :])
        return None if sorted_ is None else (lam, sorted_[1])

    def image(m: TermKey) -> Tuple[Optional[TermKey], SymExpr]:
        if m not in cache:
            img = dx(SymExpr.monomial(1, m[1], lam=m[0]))
            img = substitute(img, rules) if rules else img
            cache[m] = (max(img._terms, key=order, default=None), img)
        return cache[m]

    def triangular(t: TermKey):
        m = lower(t)
        lead, img = image(m) if m else (None, None)
        return (img._terms, {m: img._den}) if lead == t else None

    residual, witness = _rewrite(_coefficient_vector(target), order, triangular, droppable)
    if residual and velocity:
        jets = {f for _lam, fs in chain(residual, *(rhs._terms for rhs in rules.values())) for f in fs}
        constants = sorted((f for f in jets if f.symbol.constant), key=lambda f: f.sort_key)
        degree = max(sum(f in velocity for f in fs) for _lam, fs in residual)
        n_constants = max(sum(f.symbol.constant for f in fs) for _lam, fs in residual)
        pure = (
            (lam, vs + cs)
            for lam in sorted({lam for lam, _fs in residual})
            for n in range(1, degree + 2)
            for vs in combinations_with_replacement(sorted(velocity, key=lambda f: f.sort_key), n)
            for c in range(n_constants + 1)
            for cs in combinations_with_replacement(constants, c)
        )
        rows = []
        for lam, fs in pure:
            sorted_ = _sort_factors(fs)
            if sorted_ is not None:
                m = (lam, sorted_[1])
                if (m, droppable) not in row_cache:
                    img = _coefficient_vector(image(m)[1])
                    row_cache[m, droppable] = _rewrite(img, order, triangular, droppable)
                row, row_witness = row_cache[m, droppable]
                rows.append((row, _accumulate(((k, -w) for k, w in row_witness.items()), {m: Fraction(1)})))
        residual, taken = _reduce_by_leads(residual, rows)
        _accumulate(taken.items(), witness)
    return residual, SymExpr(witness)


def canonical_density(e: SymExpr) -> SymExpr:
    """Integration-by-parts normal form of a density.

    Two densities have equal canonical forms iff they differ by a total
    x-derivative.
    """
    return SymExpr(reduce_mod_dx(e)[0])


# ---------------------------------------------------------------------------
# exactness


def integrate_x(e: SymExpr) -> SymExpr:
    """The x-antiderivative of ``e`` with no field-free term: the witness of ``reduce_mod_dx``.

    Without rules ``dx`` is injective on the monomials the rewriting lowers
    to, which always hold a field, so this F is unique.  It is checked by
    ``dx``: a field-free term or any other non-exact ``e`` raises ``ValueError``.
    """
    residual, antiderivative = reduce_mod_dx(e)
    if residual or dx(antiderivative) != e:
        raise ValueError("not a total x-derivative")  # no formatting: callers probe many inputs
    return antiderivative


def is_total_x_derivative(e: SymExpr) -> bool:
    """True iff ``e`` is d/dx of a differential polynomial: its residual modulo dx is empty."""
    return not reduce_mod_dx(e)[0]


def equals_mod_dx(e1: SymExpr, e2: SymExpr) -> bool:
    """True iff ``e1 - e2`` is a total x-derivative."""
    return is_total_x_derivative(e1 - e2)
