"""Exact textual formats: rationals, polynomials, matrices.

Everything round-trips bit-exactly; rationals are decimal integer-string
fractions ``a/b`` throughout, and input rationals may also be plain decimals.

Polynomial text has one grammar, read here without any evaluator: a sum
of monomials, each a sign (optional on the first) and factors joined by
``*``, or by ``/`` with a nonzero integer divisor.  A factor is an ASCII
integer, or ``x`` or ``xN`` (N of 1-3 digits, not 0) with an optional
``^`` and an exponent of 1-3 digits; an integer may stand directly before
a variable (``2x``), and whitespace may separate tokens.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .haar import MultiPoly
from .intpoly import IntPolynomial


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "e" in text.lower():  # Fraction would compute 10^exponent first
        raise ParseError(f"bad rational {text!r}: exponent notation is not accepted")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<op>[*/])|(?P<num>\d+)"
    r"|(?P<var>x(?P<index>[1-9]\d{0,2})?(?!\d)(?:\s*\^\s*(?P<exp>\d{1,3})(?!\d))?))", re.ASCII
)


def _sum_of_monomials(text: str) -> dict:
    """Read the grammar into {((name, exponent), ...): coefficient}, where
    a name is the index digits of ``xN``, or "" for plain ``x``.  Keys may
    differ only by zero exponents, so callers add colliding terms."""
    terms, pos, end = {}, 0, len(text.rstrip())
    while pos < end or not terms:
        m = _TOKEN_RE.match(text, pos)
        sign = m and m["sign"]
        pos = m.end() if sign else pos
        coeff, powers = Fraction(-1 if sign == "-" else 1), {}
        # a sign starts every term but the first
        op, expect = "*", ("num", "var") if sign or not terms else ()
        try:
            while (m := _TOKEN_RE.match(text, pos)) and m.lastgroup in expect:
                pos = m.end()
                if m.lastgroup == "op":
                    op, expect = m["op"], ("num",) if m["op"] == "/" else ("num", "var")
                elif m.lastgroup == "var":
                    name = m["index"] or ""
                    powers[name], expect = powers.get(name, 0) + int(m["exp"] or 1), ("op",)
                elif op == "/":
                    coeff, expect = coeff / int(m["num"]), ("op",)
                else:
                    coeff, expect = coeff * int(m["num"]), ("var", "op")
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad number before position {pos}: {exc}") from None
        if "op" not in expect:
            raise ParseError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0) + coeff
    return terms


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either ``[c0, c1, ..., cn]`` (ascending) or ``x^2 - x + 1``."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated coefficient list at position {len(text)}")
        parts = [p.strip() for p in text[1:-1].split(",")]
        try:
            coeffs = [int(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}: {exc}") from None
        return IntPolynomial.from_coeffs(coeffs)
    terms = _sum_of_monomials(text)
    coeffs = [0] * (max(sum(k for _, k in key) for key in terms) + 1)
    for key, c in terms.items():
        coeffs[sum(k for _, k in key)] += c
    named = any(name for key in terms for name, _ in key)
    if named or not any(coeffs) or any(c.denominator != 1 for c in coeffs):
        raise ParseError(f"not a nonzero polynomial in x with integer coefficients: {text!r}")
    return IntPolynomial.from_coeffs(coeffs)


def parse_matrix(text: str):
    """Rows of rationals, semicolon-separated: ``1,1;0,1``."""
    rows = []
    for r, row_text in enumerate(text.strip().split(";")):
        entries = [e for e in row_text.split(",")]
        if not any(e.strip() for e in entries):
            raise ParseError(f"empty row {r}")
        rows.append([parse_rational(e) for e in entries])
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ParseError("ragged matrix rows")
    return rows


def parse_multipoly(text: str, nvars: int | None = None) -> MultiPoly:
    """Polynomial in variables x1..xn with rational coefficients, n being
    nvars if given, else the largest index; or in plain ``x`` when n = 1."""
    terms = _sum_of_monomials(text)
    names = {name for key in terms for name, _ in key}
    top = max((int(name or 1) for name in names), default=1)
    n = top if nvars is None else nvars
    if "" in names and (len(names) > 1 or n != 1):
        raise ParseError("plain 'x' must be the only variable, in dimension 1")
    if top > n or n > 999:
        raise ParseError(f"variable x{top} in dimension {n}, which must be 1 to 999")
    d = {}
    for key, c in terms.items():
        e = [0] * n
        for name, k in key:
            e[int(name or 1) - 1] = k
        d[tuple(e)] = d.get(tuple(e), 0) + c
    return MultiPoly.from_dict(n, d)
