"""The polynomial grammar shared by parse_polynomial and parse_multipoly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicorder import IntPolynomial, MultiPoly, ParseError
from padicorder.cli import main
from padicorder.parsing import parse_multipoly, parse_polynomial

# two variables run together, a zero divisor, an index of 0, a sign after
# an operator, a trailing operator, division by a variable
MALFORMED_DENSITIES = ["xx", "x1x2", "1/0*x", "x0", "x01", "x*-1", "x + -1", "x*", "x/x", "1/2x"]


@pytest.mark.parametrize("text", MALFORMED_DENSITIES)
def test_malformed_density_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_multipoly(text)


def test_integrate_malformed_density_exits_1(capsys):
    assert main(["integrate", "--prime", "3", "--density", "xx"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_integrate_dimension_zero_exits_1(capsys):
    assert main(["integrate", "--prime", "3", "--density", "x", "--dim", "0"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_integer_before_variable_is_a_product():
    # hexadecimal and other Python number syntax is not read: 0x1 is 0 * x1
    assert parse_multipoly("0x1 + x1") == MultiPoly.variable(1, 0)
    assert parse_multipoly("2x1^2 - 3 x2 / 4") == MultiPoly.from_dict(
        2, {(2, 0): 2, (0, 1): Fraction(-3, 4)}
    )


def test_witness_refuses_sign_after_operator(capsys):
    assert main(["witness", "x^2 + 3*-x + 1"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_large_variable_index_or_dimension_is_refused_at_once(deadline):
    with deadline(1):
        for text, nvars in [("x100000", None), ("x1000", None), ("x1", 1000), ("x", 0)]:
            with pytest.raises(ParseError):
                parse_multipoly(text, nvars)
    assert parse_multipoly("x999").nvars == 999


@pytest.mark.parametrize(
    "text, nvars, coeffs",
    [
        ("x^0 + 1", 1, {(0,): 2}),
        ("x^0 - 1 + x^2", 1, {(2,): 1}),
        ("x1^0*x2 + x2", 2, {(0, 1): 2}),
        ("x3^0 + x1", 3, {(0, 0, 0): 1, (1, 0, 0): 1}),
    ],
)
def test_terms_differing_by_zero_exponents_add_up(text, nvars, coeffs):
    assert parse_multipoly(text) == MultiPoly.from_dict(nvars, coeffs)


def test_univariate_text_needs_x_and_integer_coefficients():
    assert parse_polynomial("2*3x^2 - 4/2*x + 1") == IntPolynomial.from_coeffs([1, -2, 6])
    assert parse_polynomial("x^0 + 1") == IntPolynomial.from_coeffs([2])
    assert parse_polynomial("x^0 - 1 + x^2") == IntPolynomial.from_coeffs([0, 0, 1])
    for text in ["x/2", "x1 + 1", "x^1000", "2^3", "", "x*x^0 - x^1"]:
        with pytest.raises(ParseError):
            parse_polynomial(text)
    assert parse_polynomial("[1, 0, 0, 0, 1]").degree == 4


# --- property tests -------------------------------------------------------

SPACE = st.sampled_from(["", " ", "  "])


@st.composite
def rendered_multipolys(draw):
    """A random MultiPoly and one of its many spellings: a monomial may be
    split over two terms, an exponent over repeated factors, and a variable
    may appear with ^0."""
    n = draw(st.integers(1, 3))
    monomials = st.tuples(*[st.integers(0, 9)] * n)
    coeffs = st.fractions(max_denominator=50).filter(bool)
    d = draw(st.dictionaries(monomials, coeffs, max_size=5))
    plain = n == 1 and draw(st.booleans())
    pieces = []
    for e, c in d.items():
        a = draw(st.fractions(max_denominator=50)) if draw(st.booleans()) else 0
        pieces += [(e, a), (e, c - a)] if a else [(e, c)]
    text = ""
    for e, c in pieces:
        factors = []
        for i, k in enumerate(e):
            var = "x" if plain else f"x{i + 1}"
            if 2 <= k and draw(st.booleans()):
                parts = [draw(st.integers(1, k - 1))]
                parts.append(k - parts[0])
            else:
                parts = [k] if k or draw(st.booleans()) else []
            for part in parts:
                caret = f"{draw(SPACE)}^{draw(SPACE)}{part}" if part != 1 or draw(st.booleans()) else ""
                factors.append(var + caret)
        factors = draw(st.permutations(factors))
        num, den = abs(c.numerator), c.denominator
        star = f"{draw(SPACE)}*{draw(SPACE)}"
        body = star.join(factors)
        if not factors:
            body = str(num)
        elif num != 1 or draw(st.booleans()):
            body = f"{num}{draw(st.sampled_from(['', ' ', star]))}{body}"
        if den != 1:
            if draw(st.booleans()) or not factors:
                body = f"{body}{draw(SPACE)}/{draw(SPACE)}{den}"
            else:
                body = f"{num}/{den}{star}{star.join(factors)}"
        sign = "-" if c < 0 else ("+" if text or draw(st.booleans()) else "")
        text += f"{draw(SPACE)}{sign}{draw(SPACE)}{body}"
    return MultiPoly.from_dict(n, d), text or "0"


@given(rendered_multipolys())
@settings(max_examples=300, deadline=None)
def test_rendered_multipoly_parses_back(case):
    f, text = case
    assert parse_multipoly(text, f.nvars) == f


@given(st.text(alphabet="0123456789x+-*/^ ", max_size=30))
@settings(max_examples=500, deadline=None)
def test_any_text_is_a_multipoly_or_a_parse_error(text):
    try:
        assert isinstance(parse_multipoly(text), MultiPoly)
    except ParseError:
        pass


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12).filter(lambda c: c[-1]))
@settings(max_examples=300, deadline=None)
def test_int_polynomial_text_roundtrip(coeffs):
    f = IntPolynomial.from_coeffs(coeffs)
    assert parse_polynomial(str(f)) == f
