"""Exact textual formats: rationals, polynomials, matrices.

Everything round-trips bit-exactly; rationals are decimal integer-string
fractions ``a/b`` throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .haar import MultiPoly
from .intpoly import IntPolynomial


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*)?(?P<var1>x(?:\^(?P<exp1>\d+))?)?
          | (?P<var2>x(?:\^(?P<exp2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse either ``[c0, c1, ..., cn]`` (ascending) or ``x^2 - x + 1``."""
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated coefficient list at position {len(text)}")
        parts = [p.strip() for p in text[1:-1].split(",")]
        try:
            coeffs = [int(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"bad coefficient list {text!r}: {exc}") from None
        return IntPolynomial.from_coeffs(coeffs)
    return _parse_human_poly(text)


def _parse_human_poly(text: str) -> IntPolynomial:
    pos = 0
    coeffs: dict[int, int] = {}
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse polynomial at position {pos}: {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sign") is None and not first:
            raise ParseError(f"missing +/- before position {pos}")
        if m.group("var2") is not None:
            coeff, var, exp = 1, m.group("var2"), m.group("exp2")
        else:
            coeff = int(m.group("coeff")) if m.group("coeff") else 1
            var, exp = m.group("var1"), m.group("exp1")
        if var is None:
            degree = 0
        else:
            degree = int(exp) if exp else 1
        coeffs[degree] = coeffs.get(degree, 0) + sign * coeff
        pos = m.end()
        first = False
    top = max(coeffs)
    return IntPolynomial.from_coeffs([coeffs.get(i, 0) for i in range(top + 1)])


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


_VAR_RE = re.compile(r"x(\d*)")


def parse_multipoly(text: str, nvars: int | None = None) -> MultiPoly:
    """Polynomial in variables x1..xn (or plain ``x``) with rational
    coefficients, parsed exactly via sympy."""
    from sympy import Rational, symbols
    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    names = sorted(set(_VAR_RE.findall(text)))
    if names == [""]:
        n = nvars or 1
        local = {"x": symbols("x1")}
    else:
        if "" in names:
            raise ParseError("mix of 'x' and indexed variables")
        indices = [int(s) for s in names if s]
        n = nvars or (max(indices) if indices else 1)
        if indices and max(indices) > n:
            raise ParseError(f"variable x{max(indices)} exceeds dimension {n}")
        local = {f"x{i}": symbols(f"x{i}") for i in range(1, n + 1)}
    try:
        expr = parse_expr(
            text,
            local_dict=local,
            evaluate=True,
            transformations=standard_transformations + (convert_xor,),
        )
    except Exception as exc:
        raise ParseError(f"cannot parse polynomial {text!r}: {exc}") from None
    from sympy import Poly

    gens = [local[f"x{i}"] if f"x{i}" in local else local["x"] for i in range(1, n + 1)]
    try:
        poly = Poly(expr, *gens)
    except Exception as exc:
        raise ParseError(f"not a polynomial: {text!r} ({exc})") from None
    d = {}
    for monom, coeff in poly.terms():
        c = Rational(coeff)
        d[tuple(monom)] = Fraction(int(c.p), int(c.q))
    return MultiPoly.from_dict(n, d)
