"""Plain-text serialization of expressions for fixtures and reports.

Grammar (whitespace-separated s-expressions)::

    expr    := '(sum' term* ')'
    term    := '(term' RATIONAL atom* ')'
    atom    := '(lam' INT ')'
             | '(theta)'
             | '(jet' NAME PARITY KIND DX DT DTHETA ')'
    RATIONAL:= e.g. 3, -1, 1/2, -5/3
    PARITY  := 'even' | 'odd'
    KIND    := 'field' | 'super' | 'const'
    NAME    := identifier (no whitespace or parentheses)

A jet atom carries the full symbol declaration, so a parsed expression is
self-contained; one name declared with two parities or kinds is rejected.
The ``(theta)`` atom stands for ``algebra.THETA``, which is printed before the
jets; its position in a parsed term carries no sign, and a repeated one gives
a zero term.  Round-tripping preserves canonical form exactly.  The zero
expression serialises as ``(sum)``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import EVEN, ODD, THETA, FieldSymbol, JetFactor, SymExpr


class SExprError(ValueError):
    pass


_PARITIES = {"even": EVEN, "odd": ODD}
_KINDS = ("field", "super", "const")


def _number(kind, token):
    """``kind(token)``, with a malformed token raising ``SExprError``."""
    try:
        return kind(token)
    except (TypeError, ValueError, ZeroDivisionError):
        raise SExprError(f"{token!r} is not a valid {kind.__name__}") from None


def to_sexpr(e: SymExpr) -> str:
    parts: List[str] = []
    for (lam, factors), coeff in e.terms():
        atoms = []
        if lam:
            atoms.append(f"(lam {lam})")
        for f in factors:
            if f == THETA:
                atoms.append("(theta)")
                continue
            parity = "odd" if f.symbol.parity else "even"
            kind = "super" if f.symbol.superspace else ("const" if f.symbol.constant else "field")
            atoms.append(f"(jet {f.symbol.name} {parity} {kind} {f.dx} {f.dt} {f.dtheta})")
        body = " ".join([str(coeff)] + atoms)
        parts.append(f"(term {body})")
    inner = " ".join(parts)
    return f"(sum {inner})" if inner else "(sum)"


def _tokenize(text: str) -> List[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_list(tokens: List[str], pos: int) -> Tuple[list, int]:
    if tokens[pos] != "(":
        raise SExprError(f"expected '(' at token {pos}")
    pos += 1
    items: list = []
    while pos < len(tokens) and tokens[pos] != ")":
        if tokens[pos] == "(":
            sub, pos = _parse_list(tokens, pos)
            items.append(sub)
        else:
            items.append(tokens[pos])
            pos += 1
    if pos >= len(tokens):
        raise SExprError("unbalanced parentheses")
    return items, pos + 1


def from_sexpr(text: str) -> SymExpr:
    tokens = _tokenize(text)
    if not tokens:
        raise SExprError("empty input")
    tree, end = _parse_list(tokens, 0)
    if end != len(tokens):
        raise SExprError("trailing tokens after expression")
    if not tree or tree[0] != "sum":
        raise SExprError("expression must start with (sum ...)")
    total = SymExpr.zero()
    declared: Dict[str, FieldSymbol] = {}
    for term in tree[1:]:
        if not isinstance(term, list) or not term or term[0] != "term":
            raise SExprError("expected (term ...)")
        if len(term) < 2:
            raise SExprError("term needs a coefficient")
        coeff = _number(Fraction, term[1])
        lam = 0
        factors = []
        for atom in term[2:]:
            if not isinstance(atom, list) or not atom:
                raise SExprError("malformed atom")
            if atom[0] == "lam":
                if len(atom) != 2:
                    raise SExprError(f"lam atom needs one power, got {atom}")
                lam += _number(int, atom[1])
            elif atom[0] == "theta":
                if len(atom) != 1:
                    raise SExprError(f"theta atom takes no argument, got {atom}")
                factors.insert(0, THETA)
            elif atom[0] == "jet":
                if len(atom) != 7:
                    raise SExprError(f"jet atom needs 6 fields, got {atom}")
                name, parity_s, kind, dx_s, dt_s, dth_s = atom[1:]
                if parity_s not in _PARITIES or kind not in _KINDS:
                    raise SExprError(f"unknown parity or kind in {atom}")
                sym = FieldSymbol(
                    name,
                    _PARITIES[parity_s],
                    superspace=(kind == "super"),
                    constant=(kind == "const"),
                )
                if declared.setdefault(name, sym) != sym:
                    raise SExprError(f"{name!r} is declared with two parities or kinds")
                orders = [_number(int, token) for token in (dx_s, dt_s, dth_s)]
                try:
                    factors.append(JetFactor(sym, *orders))
                except ValueError as exc:  # a negative order, a jet of a constant, ...
                    raise SExprError(f"invalid jet {atom}: {exc}") from None
            else:
                raise SExprError(f"unknown atom {atom[0]!r}")
        total = total + SymExpr.monomial(coeff, factors, lam=lam)
    return total
