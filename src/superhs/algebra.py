"""Exact canonical-form algebra of graded differential polynomials.

Expressions live in the jets of declared field symbols over the coordinates
``(x, t)`` plus an odd coordinate handled in two complementary ways:

* the jet ``THETA`` of an odd constant, used when superspace quantities are
  expanded into component fields; it sorts below every other jet, so a
  monomial carrying it starts with it, and ``theta**2 = 0`` follows from the
  rule for a repeated odd factor, and
* superspace field symbols whose jets carry an odd-derivative flag, so a jet
  records how many odd derivatives ``D`` have been applied modulo the relation
  ``D*D = d/dx``.

A monomial is ``coeff * lam**k * f1 * f2 * ... * fn`` with the jet factors
(``THETA`` among them) kept in a fixed total order; reordering during
canonicalisation flips the sign once per transposition of two odd factors,
and a repeated odd factor kills the monomial.  Jets are interned, one object
per ``(symbol, dx, dt, dtheta)``, so jet equality is identity; a jet's sort
key, hash and parity are computed once, when it is first built.

Coefficients are exact rationals, stored as integer numerators over one
positive denominator per expression, in lowest terms: the numerators are
nonzero and ``gcd(den, *numerators) == 1``, so the zero expression is ``({},
1)`` and every expression has one stored form.  The product, sum and
derivation loops therefore run on Python integers, signs stay inside the
numerators by negation, and ``Fraction`` is built only where a coefficient
leaves the kernel (``terms``, ``coefficient``, display).  Verification
verdicts must be exact zeros, never small residuals.

``lam`` is a formal commuting indeterminate with integer (possibly negative)
powers; it stands in for the spectral parameter so that identities are checked
exactly in it.

The module is pure Python and defines the parities ``EVEN``/``ODD`` for the
whole package; ``numerics.evaluate`` turns an expression into numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, ClassVar, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple, Union

EVEN = 0
ODD = 1

ScalarLike = Union[int, Fraction]


class ParityError(ValueError):
    """Raised when an operation would violate the Z/2 grading."""


@dataclass(frozen=True)
class FieldSymbol:
    """A declared field: name, parity, and which coordinates it depends on.

    ``superspace`` fields depend on ``(x, t, theta)`` and their jets may carry
    one odd derivative; ``constant`` symbols depend on no coordinate at all
    (formal constants such as gauge means or an odd transformation parameter).
    """

    name: str
    parity: int
    superspace: bool = False
    constant: bool = False

    def __post_init__(self):
        if self.parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")
        if self.superspace and self.constant:
            raise ValueError("a symbol cannot be both superspace and constant")

    def jet(self, dx: int = 0, dt: int = 0, dtheta: int = 0) -> "JetFactor":
        return JetFactor(self, dx, dt, dtheta)

    def __call__(self, dx: int = 0, dt: int = 0, dtheta: int = 0) -> "SymExpr":
        return SymExpr.monomial(1, (self.jet(dx, dt, dtheta),))

    def __repr__(self) -> str:
        return self.name


class JetFactor:
    """One derivative coordinate of a field inside a monomial.

    Interned: there is one object per ``(symbol, dx, dt, dtheta)``, so equality
    is identity.  The inputs are checked, and the parity, the sort key and the
    hash computed, once, when a jet is first built; the hash is that of the
    ``(symbol, dx, dt, dtheta)`` tuple, so set orders follow the jet's value.
    """

    __slots__ = ("symbol", "dx", "dt", "dtheta", "parity", "sort_key", "_hash")
    _table: ClassVar[Dict[tuple, "JetFactor"]] = {}

    def __new__(cls, symbol: FieldSymbol, dx: int = 0, dt: int = 0, dtheta: int = 0) -> "JetFactor":
        ident = (symbol, dx, dt, dtheta)
        jet = cls._table.get(ident)
        if jet is not None:
            return jet
        if dx < 0 or dt < 0:
            raise ValueError("derivative orders must be nonnegative")
        if dtheta not in (0, 1):
            raise ValueError("dtheta must be 0 or 1")
        if dtheta and not symbol.superspace:
            raise ValueError(f"{symbol.name} does not depend on theta")
        if symbol.constant and (dx or dt or dtheta):
            raise ValueError(f"{symbol.name} is constant; no jets exist")
        jet = object.__new__(cls)
        for name, value in (
            ("symbol", symbol), ("dx", dx), ("dt", dt), ("dtheta", dtheta),
            # an odd derivative flips the parity of a superspace field
            ("parity", symbol.parity ^ dtheta),
            # the symbol's parity and kind break ties between symbols sharing a name
            ("sort_key", (symbol.name, symbol.parity, symbol.superspace, symbol.constant, dt, dx, dtheta)),
            ("_hash", hash(ident)),
        ):
            object.__setattr__(jet, name, value)
        return cls._table.setdefault(ident, jet)

    def __setattr__(self, name, value):
        raise AttributeError("JetFactor is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling and deep copies return the interned object
        return JetFactor, (self.symbol, self.dx, self.dt, self.dtheta)

    @property
    def d_order(self) -> int:
        """Total odd-derivative order: D**(2*dx + dtheta) applied to the field."""
        return 2 * self.dx + self.dtheta

    def __repr__(self) -> str:
        return f"JetFactor(symbol={self.symbol!r}, dx={self.dx!r}, dt={self.dt!r}, dtheta={self.dtheta!r})"

    def __str__(self) -> str:
        suffix = "t" * self.dt + "x" * self.dx + "D" * self.dtheta
        return f"{self.symbol.name}_{suffix}" if suffix else self.symbol.name


TermKey = Tuple[int, Tuple[JetFactor, ...]]  # (lam power, factors)

# the odd coordinate: an odd constant whose empty name, which no declared
# field can take from text, sorts it before every other jet
THETA = JetFactor(FieldSymbol("", ODD, constant=True))


def _sort_factors(factors: Iterable[JetFactor]) -> Optional[Tuple[int, Tuple[JetFactor, ...]]]:
    """Stable insertion sort tracking odd-odd transpositions.

    Returns ``(sign, sorted_factors)`` or ``None`` when the monomial vanishes
    because an odd factor repeats.
    """
    lst = list(factors)
    sign = 1
    for i in range(1, len(lst)):
        cur = lst[i]
        key = cur.sort_key
        j = i
        while j > 0 and key < lst[j - 1].sort_key:
            if cur.parity and lst[j - 1].parity:
                sign = -sign
            lst[j] = lst[j - 1]
            j -= 1
        lst[j] = cur
    for prev, cur in zip(lst, lst[1:]):
        if prev is cur and prev.parity:
            return None
    return sign, tuple(lst)


def _canonical(pairs: Iterable[Tuple[TermKey, int]]) -> Iterator[Tuple[TermKey, int]]:
    """Canonical ``(key, numerator)`` pairs from keys with unsorted factors.

    Monomials that vanish (a repeated odd factor) are dropped.
    """
    for (lam, factors), num in pairs:
        sorted_ = _sort_factors(factors)
        if sorted_ is not None:
            yield (lam, sorted_[1]), (num if sorted_[0] > 0 else -num)


def _accumulate(pairs: Iterable[Tuple[Hashable, ScalarLike]], acc: Optional[dict] = None) -> dict:
    """Sum ``(key, coeff)`` pairs into ``acc`` (a new dict when omitted) and return it.

    The one normalise-and-accumulate loop of the symbolic kernel: equal keys
    merge and a key whose sum cancels to zero is removed, so no zero
    coefficient is ever stored.  Keys must already be canonical.  The kernel
    sums integer numerators with it; the exact eliminator of ``density``,
    rational rows.
    """
    if acc is None:
        acc = {}
    for key, coeff in pairs:
        cur = acc.get(key)
        cur = coeff if cur is None else cur + coeff
        if cur:
            acc[key] = cur
        else:
            acc.pop(key, None)
    return acc


def _reduced(nums: Dict[TermKey, int], den: int) -> "SymExpr":
    """The expression ``nums / den`` (canonical keys, nonzero numerators, ``den > 0``).

    Brings the pair to lowest terms with one gcd over the numerators; the
    dict is taken over, not copied.
    """
    if not nums:
        return _ZERO
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    e = object.__new__(SymExpr)
    object.__setattr__(e, "_terms", nums)
    object.__setattr__(e, "_den", den)
    return e


def _from_rationals(pairs: Iterable[Tuple[TermKey, ScalarLike]]) -> "SymExpr":
    """The sum of rational ``(key, coeff)`` pairs whose factors may be unsorted."""
    pairs = [(key, Fraction(c)) for key, c in pairs]
    den = lcm(*(c.denominator for _key, c in pairs))
    nums = ((key, c.numerator * (den // c.denominator)) for key, c in pairs)
    return _reduced(_accumulate(_canonical(nums)), den)


class SymExpr:
    """A canonical multilinear differential polynomial.

    Immutable; all arithmetic returns new normalised expressions.  Terms with
    equal ``(lam, factors)`` structure are merged and zero coefficients
    dropped, and the integer numerators ``_terms`` share the denominator
    ``_den`` in lowest terms, so equality of canonical forms is equality of
    the dict and the denominator.  ``SymExpr(terms)`` builds one from any
    mapping of keys (factors in any order) to rational coefficients.
    """

    __slots__ = ("_terms", "_den")

    def __new__(cls, terms: Optional[Mapping[TermKey, ScalarLike]] = None) -> "SymExpr":
        return _from_rationals(terms.items()) if terms else _ZERO

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymExpr is immutable")

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "SymExpr":
        return _ZERO

    @staticmethod
    def monomial(
        coeff: ScalarLike,
        factors: Iterable[JetFactor] = (),
        lam: int = 0,
    ) -> "SymExpr":
        return _from_rationals((((lam, tuple(factors)), coeff),))

    @staticmethod
    def scalar(coeff: ScalarLike) -> "SymExpr":
        return SymExpr.monomial(coeff)

    @staticmethod
    def from_terms(raw: Iterable[Tuple[ScalarLike, int, Tuple[JetFactor, ...]]]) -> "SymExpr":
        """Sum of raw ``(coeff, lam, factors)`` monomials."""
        return _from_rationals(((lam, factors), coeff) for coeff, lam, factors in raw)

    # -- inspection --------------------------------------------------------
    def terms(self) -> Iterator[Tuple[TermKey, Fraction]]:
        den = self._den
        return (
            (key, Fraction(n, den))
            for key, n in sorted(self._terms.items(), key=lambda kv: _term_sort_key(kv[0]))
        )

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, factors: Iterable[JetFactor], lam: int = 0) -> Fraction:
        sorted_ = _sort_factors(factors)
        if sorted_ is None:
            return Fraction(0)
        sign, sf = sorted_
        return Fraction(sign * self._terms.get((lam, sf), 0), self._den)

    def parity(self) -> Optional[int]:
        """0/1 for homogeneous expressions, None when mixed.  Zero is even."""
        result: Optional[int] = None
        for _lam, factors in self._terms:
            p = sum(f.parity for f in factors) % 2
            if result is None:
                result = p
            elif result != p:
                return None
        return EVEN if result is None else result

    def jet_factors(self) -> set:
        """The field jets of the expression; ``THETA`` is a coordinate, not a jet."""
        return {f for _lam, factors in self._terms for f in factors if f != THETA}

    def filter_terms(self, keep: Callable[[TermKey, Fraction], bool]) -> "SymExpr":
        den = self._den
        return _reduced({k: n for k, n in self._terms.items() if keep(k, Fraction(n, den))}, den)

    def without_fields(self, symbols: Iterable[FieldSymbol]) -> "SymExpr":
        """Set every jet of the given fields to zero."""
        dead = set(symbols)
        return self.filter_terms(lambda key, _c: not any(f.symbol in dead for f in key[1]))

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "SymExpr") -> "SymExpr":
        if not isinstance(other, SymExpr):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        den = lcm(self._den, other._den)
        s1, s2 = den // self._den, den // other._den
        acc = {k: n * s1 for k, n in self._terms.items()} if s1 != 1 else dict(self._terms)
        return _reduced(_accumulate(((k, n * s2) for k, n in other._terms.items()), acc), den)

    def __neg__(self) -> "SymExpr":
        return _reduced({k: -n for k, n in self._terms.items()}, self._den)

    def __sub__(self, other: "SymExpr") -> "SymExpr":
        if not isinstance(other, SymExpr):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["SymExpr", ScalarLike]) -> "SymExpr":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return _ZERO
            p, q = other.numerator, other.denominator
            return _reduced({k: p * n for k, n in self._terms.items()}, q * self._den)
        if not isinstance(other, SymExpr):
            return NotImplemented
        # the graded sign of a product is the sign of sorting the joined factors
        products = (
            ((lam1 + lam2, res[1]), (n1 * n2 if res[0] > 0 else -(n1 * n2)))
            for (lam1, f1), n1 in self._terms.items()
            for (lam2, f2), n2 in other._terms.items()
            if (res := _sort_factors(f1 + f2)) is not None
        )
        return _reduced(_accumulate(products), self._den * other._den)

    def __rmul__(self, other: ScalarLike) -> "SymExpr":
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "SymExpr":
        if exponent < 0:
            raise ValueError("negative powers of expressions are not defined")
        out = SymExpr.scalar(1)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SymExpr) and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((frozenset(self._terms.items()), self._den))

    # -- display -------------------------------------------------------------
    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for key, coeff in self.terms():
            lam, factors = key
            bits = []
            if lam:
                bits.append(f"lam^{lam}" if lam != 1 else "lam")
            bits.extend("th" if f == THETA else str(f) for f in factors)
            body = "*".join(bits) if bits else "1"
            if coeff == 1 and bits:
                term = body
            elif coeff == -1 and bits:
                term = f"-{body}"
            else:
                term = f"{coeff}*{body}" if bits else f"{coeff}"
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _term_sort_key(key: TermKey):
    # theta-free terms come before theta terms of the same lam power
    lam, factors = key
    return (lam, factors[:1] == (THETA,), tuple(f.sort_key for f in factors))


_ZERO = object.__new__(SymExpr)
object.__setattr__(_ZERO, "_terms", {})
object.__setattr__(_ZERO, "_den", 1)


def require_parity(e: SymExpr, parity: int, what: str) -> None:
    """The one homogeneous-parity guard: zero passes, a wrong or mixed parity raises."""
    found = e.parity()
    if found is None:
        raise ParityError(f"{what} is not parity homogeneous")
    if found != parity and not e.is_zero():
        raise ParityError(f"{what} has parity {found}, expected {parity}")


def lam_power(k: int) -> SymExpr:
    """The formal spectral parameter raised to an integer power."""
    return SymExpr.monomial(1, (), lam=k)


def theta_factor() -> SymExpr:
    """The explicit odd coordinate as an expression."""
    return SymExpr.monomial(1, (THETA,))
