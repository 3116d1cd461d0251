"""Integer polynomials, cyclotomics, Kronecker detection, irreducibility."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import totient
from sympy.polys.densearith import dup_mul, dup_rr_div
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_gcd
from sympy.polys.factortools import dup_factor_list, dup_zz_cyclotomic_poly
from sympy.polys.galoistools import gf_factor_sqf, gf_from_int_poly, gf_irreducible_p, gf_sqf_p
from sympy.polys.sqfreetools import dup_sqf_p

from padicorder import intpoly
from padicorder import (
    IntPolynomial,
    NotSquarefree,
    PROVEN,
    UNKNOWN,
    check_irreducible,
    cyclotomic,
    euler_phi,
    is_algebraic_integer,
    is_squarefree,
    poly_gcd,
    root_of_unity_order,
)

X = IntPolynomial((0, 1))
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
SALEM10 = IntPolynomial((1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 1))  # x^10 - x^6 - x^5 - x^4 + 1


def from_roots(roots):
    f = IntPolynomial((1,))
    for r in roots:
        f = f * IntPolynomial((-r, 1))
    return f


def test_eval_and_arith():
    f = IntPolynomial((5, -6, 5))
    assert f(Fraction(1)) == 4
    assert f(Fraction(0)) == 5
    g = IntPolynomial((-1, 1)) * IntPolynomial((1, 1))
    assert g.coeffs == (-1, 0, 1)


def test_derivative_content_primitive():
    f = IntPolynomial((4, 0, 6))
    assert f.derivative().coeffs == (0, 12)
    assert f.content() == 2
    assert f.primitive_part().coeffs == (2, 0, 3)


def test_exact_division():
    f = IntPolynomial((-1, 0, 0, 0, 0, 0, 1))  # x^6 - 1
    phi6 = cyclotomic(6)
    q = f.exact_div(phi6)
    assert q is not None and (q * phi6).coeffs == f.coeffs
    assert f.exact_div(IntPolynomial((1, 1, 1, 1))) is None


def test_poly_gcd():
    f = from_roots([1, 2, 3])
    g = from_roots([2, 3, 5])
    assert poly_gcd(f, g).coeffs == from_roots([2, 3]).coeffs


def test_squarefree_detection():
    assert is_squarefree(IntPolynomial((-2, 0, 1)))
    assert not is_squarefree(IntPolynomial((1, 2, 1)))


def test_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4, 105: 48, 101: 100}
    for d, v in known.items():
        assert euler_phi(d) == v


@pytest.mark.parametrize(
    "d,coeffs",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
        (105, None),  # first index with a coefficient of modulus 2
    ],
)
def test_cyclotomic_values(d, coeffs):
    phi = cyclotomic(d)
    if coeffs is not None:
        assert phi.coeffs == coeffs
    assert phi.degree == euler_phi(d)
    if d == 105:
        assert min(phi.coeffs) == -2


def test_cyclotomic_product_identity():
    """x^d - 1 = prod over divisors e|d of Phi_e, checked exactly."""
    for d in (1, 2, 6, 10, 12, 30):
        prod = IntPolynomial((1,))
        for e in range(1, d + 1):
            if d % e == 0:
                prod = prod * cyclotomic(e)
        target = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
        assert prod.coeffs == target.coeffs


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 8, 12, 30, 105])
def test_root_of_unity_order_cyclotomic(d):
    assert root_of_unity_order(cyclotomic(d)) == d


def test_root_of_unity_order_products():
    f = cyclotomic(2) * cyclotomic(3)
    assert root_of_unity_order(f) == 6  # lcm of the matched indices
    g = cyclotomic(4) * cyclotomic(6)
    assert root_of_unity_order(g) == 12


def test_root_of_unity_order_negatives():
    for f in (
        IntPolynomial((-1, -1, 1)),  # golden ratio
        IntPolynomial((-2, 1)),  # x - 2
        IntPolynomial((5, -6, 5)),  # (3+4i)/5: not an algebraic integer
        LEHMER,
        cyclotomic(5) * IntPolynomial((-2, 1)),  # mixed factor
    ):
        assert root_of_unity_order(f) is None


def test_root_of_unity_order_requires_squarefree():
    with pytest.raises(NotSquarefree):
        root_of_unity_order(IntPolynomial((1, 2, 1)))


def test_is_algebraic_integer():
    assert is_algebraic_integer(IntPolynomial((-1, -1, 1)))
    assert not is_algebraic_integer(IntPolynomial((5, -6, 5)))
    assert is_algebraic_integer(IntPolynomial((2, 2, -2)))  # primitive part monic


def test_check_irreducible_proven_cases():
    assert check_irreducible(IntPolynomial((3, 7))) == PROVEN  # degree 1
    assert check_irreducible(IntPolynomial((-1, -1, 1))) == PROVEN  # mod-p test
    assert check_irreducible(IntPolynomial((5, -6, 5))) == PROVEN
    # Eisenstein at 2, reducible mod every small prime.
    assert check_irreducible(IntPolynomial((2, 2, 0, 0, 1))) == PROVEN


def test_check_irreducible_never_lies():
    for f in (
        IntPolynomial((-1, 0, 1)),  # (x-1)(x+1)
        cyclotomic(3) * cyclotomic(4),
        IntPolynomial((2, 3)) * IntPolynomial((-5, 1)),
    ):
        assert check_irreducible(f) == UNKNOWN


@given(
    coeffs=st.lists(st.integers(-9, 9), min_size=2, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_mul_matches_evaluation(coeffs):
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    f = IntPolynomial(tuple(coeffs))
    g = IntPolynomial((1, -2, 3))
    for x in (Fraction(0), Fraction(2), Fraction(-1, 3)):
        assert (f * g)(x) == f(x) * g(x)


# --- exact irreducibility, gcd and division on seeded inputs ----------------


def _random_poly(rng, lo, hi, bound=9):
    """Degree in [lo, hi], coefficients in [-bound, bound], nonzero leading one."""
    coeffs = [rng.randint(-bound, bound) for _ in range(rng.randint(lo, hi) + 1)]
    coeffs[-1] = coeffs[-1] or rng.choice((-1, 1))
    return IntPolynomial(tuple(coeffs))


@pytest.mark.parametrize(
    "f",
    [
        LEHMER,
        SALEM10,
        IntPolynomial((1, 0, -10, 0, 1)),  # x^4 - 10x^2 + 1, minpoly of sqrt2 + sqrt3
        cyclotomic(8),
        cyclotomic(12),
    ],
)
def test_check_irreducible_reducible_mod_every_prime(monkeypatch, f):
    """Each of these factors mod every prime, so no single mod-p test
    proves it. The degree sets still meet in {0, 10} for LEHMER and
    SALEM10 (Lehmer's is {0, 5, 10} mod 2 and {0, 2, 8, 10} mod 3); the
    other three have only factors of degree 1 and 2 mod p, so they reach
    Zassenhaus once."""
    proof = 1 | 1 << f.degree
    assert all(intpoly._degree_set(f.coeffs, p)[0] != proof for p in intpoly._SIEVE_PRIMES)
    calls = []
    real = intpoly._irreducible_over_z
    monkeypatch.setattr(intpoly, "_irreducible_over_z", lambda *a: calls.append(a) or real(*a))
    assert check_irreducible(f) == PROVEN
    assert len(calls) == (f not in (LEHMER, SALEM10))


def _seeded_products():
    """100 seeded pairs (g, h) of degree 1-4."""
    rng = random.Random(20261018)
    for _ in range(100):
        yield _random_poly(rng, 1, 4), _random_poly(rng, 1, 4)


def test_check_irreducible_never_lies_seeded():
    for g, h in _seeded_products():
        assert check_irreducible(g * h) == UNKNOWN, (g, h)
        assert check_irreducible(g * g) == UNKNOWN, g


def test_check_irreducible_agrees_with_mod_p_oracle():
    """Irreducible mod a prime not dividing the leading coefficient implies
    irreducible over Q, so every such polynomial must be PROVEN."""
    primes = [p for p in range(2, 40) if all(p % q for q in range(2, p))]
    rng = random.Random(7)
    fired = 0
    for _ in range(200):
        g = _random_poly(rng, 1, 6)
        for p in primes:
            if g.leading % p == 0:
                continue
            if gf_irreducible_p(gf_from_int_poly(list(reversed(g.coeffs)), p), p, ZZ):
                assert check_irreducible(g) == PROVEN, (g, p)
                fired += 1
                break
    assert fired > 50


# --- the degree-set sieve in front of Zassenhaus ----------------------------


def _zassenhaus(f):
    """The reference answer: sympy's Zassenhaus on the primitive part alone."""
    _, factors = dup_factor_list(list(reversed(f.primitive_part().coeffs)), ZZ)
    return PROVEN if [m for _, m in factors] == [1] else UNKNOWN


def _criterion_7():
    from test_acceptance import criterion_7_draws

    return list(criterion_7_draws())


def _parity_cases():
    """Criterion 7's draws; 2,000 seeded polynomials of degree 1-20, half of
    them monic up to sign, the rest with any leading coefficient, times a
    content up to 10^5, with coefficients up to 10^40; and the products
    g*h and g*g of the never-lies test."""
    yield from _criterion_7()
    rng = random.Random(20261020)
    for i in range(2000):
        bound = rng.choice((9, 10**6, 10**40))
        degree = rng.randint(1, rng.choice((8, 20)))  # half of them cheap
        coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        coeffs[-1] = rng.choice((1, -1)) if i % 2 else coeffs[-1] or -1
        content = rng.choice((1, 1, 2, 6, 10**5))
        yield IntPolynomial(tuple(content * c for c in coeffs))
    for g, h in _seeded_products():
        yield g * h
        yield g * g


def test_check_irreducible_matches_zassenhaus_alone():
    """The sieve only ever answers PROVEN, and only where factoring over Z
    does: every answer equals the Zassenhaus-only reference."""
    counts = {PROVEN: 0, UNKNOWN: 0}
    for f in _parity_cases():
        answer = check_irreducible(f)
        assert answer == _zassenhaus(f), f
        counts[answer] += 1
    assert counts[PROVEN] > 1500 and counts[UNKNOWN] > 200


def _degree_set_oracle(f, p):
    """Subset sums of the factor degrees from galoistools, as a bit mask."""
    g = gf_from_int_poly(list(reversed(f.coeffs)), p)
    if not gf_sqf_p(g, p, ZZ):
        return (1 << f.degree + 1) - 1
    mask = 1
    for factor in gf_factor_sqf(g, p, ZZ)[1]:
        mask |= mask << len(factor) - 1
    return mask


def test_degree_set_matches_galoistools():
    rng = random.Random(23)
    for _ in range(300):
        f = _random_poly(rng, 1, 12, bound=30)
        if rng.random() < 0.3:
            f = f * _random_poly(rng, 1, 3)
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            if f.leading % p:
                assert intpoly._degree_set(f.coeffs, p)[0] == _degree_set_oracle(f, p), (f, p)


def _refuse(*args):
    raise AssertionError("Zassenhaus was called")


def test_sieve_proves_without_zassenhaus(monkeypatch):
    irreducible = [f for f in _criterion_7() if _zassenhaus(f) == PROVEN]
    monkeypatch.setattr(intpoly, "_irreducible_over_z", _refuse)
    assert check_irreducible(IntPolynomial((-1, -1, 0, 1))) == PROVEN  # x^3 - x - 1
    assert check_irreducible(IntPolynomial((5, -6, 5))) == PROVEN
    proven = 0
    for f in irreducible:
        try:
            proven += check_irreducible(f) == PROVEN
        except AssertionError:
            pass
    assert proven >= 0.9 * len(irreducible) and len(irreducible) > 400


@pytest.mark.parametrize(
    "f, tried",
    [
        # (x+1)^2(x^2+1): not squarefree mod any prime, so every prime is tried
        (IntPolynomial((1, 1)) * IntPolynomial((1, 1)) * IntPolynomial((1, 0, 1)), (2, 3, 5, 7, 11, 13)),
        # (30030x+1)(x+1): every sieve prime divides lc, and a skipped prime counts as tried
        (IntPolynomial((1, 30031, 30030)), ()),
        (IntPolynomial((6,)), ()),
    ],
)
def test_sieve_tries_at_most_its_primes(monkeypatch, f, tried):
    calls = []
    real = intpoly._degree_set
    monkeypatch.setattr(intpoly, "_degree_set", lambda c, p: calls.append(p) or real(c, p))
    assert check_irreducible(f) == UNKNOWN
    assert tuple(calls) == tried


def test_gcd_and_exact_division_seeded():
    rng = random.Random(4)
    for _ in range(200):
        a, b, c = (_random_poly(rng, 0, 4) for _ in range(3))
        ac, bc = a * c, b * c
        g = poly_gcd(ac, bc)
        assert g.exact_div(c.primitive_part()) is not None, (a, b, c)
        assert ac.exact_div(g) is not None and bc.exact_div(g) is not None
        assert ac.exact_div(c) == a
        if c.degree >= 1:
            assert not is_squarefree(a * c * c)


def test_poly_gcd_matches_dup_gcd_seeded():
    """The primitive remainder sequence against sympy's dup_gcd, on
    products with a common factor and coefficients up to 10^30."""
    rng = random.Random(20261021)
    for _ in range(300):
        bound = rng.choice((20, 10**30))
        a, b, c = (_random_poly(rng, 0, 6, bound=bound) for _ in range(3))
        f, g = a * c, b * c
        ref = dup_gcd(list(reversed(f.coeffs)), list(reversed(g.coeffs)), ZZ)
        assert poly_gcd(f, g) == IntPolynomial.from_coeffs(reversed(ref)).primitive_part(), (f, g)


def _adjoin_sqrt(f, p):
    """f(x + sqrt p) * f(x - sqrt p) = A^2 - p B^2 for f(x + sqrt p) = A + sqrt(p) B."""
    a, b = [0] * len(f.coeffs), [0] * len(f.coeffs)
    for k, c in enumerate(f.coeffs):  # c (x + s)^k, s = sqrt p
        for j in range(k + 1):
            term = c * math.comb(k, j) * p ** ((k - j) // 2)
            (a if (k - j) % 2 == 0 else b)[j] += term
    a, b = IntPolynomial.from_coeffs(a), IntPolynomial.from_coeffs(b)
    return IntPolynomial.from_coeffs(x - p * y for x, y in zip((a * a).coeffs, (b * b).coeffs + (0, 0)))


def test_zassenhaus_on_swinnerton_dyer_polynomials(monkeypatch):
    """The minimal polynomials of sqrt2 + sqrt3 + sqrt5 (+ sqrt7) split into
    factors of degree 1 and 2 mod every prime, so only the search over
    lifted factor subsets proves them; times a quadratic they are reducible,
    and no sympy module is loaded on the way."""
    sd = IntPolynomial((0, 1))
    for q in (2, 3, 5, 7):
        sd = _adjoin_sqrt(sd, q)
        if q == 5:
            assert sd.coeffs == (576, 0, -960, 0, 352, 0, -40, 0, 1)
        if q >= 5:
            assert check_irreducible(sd) == PROVEN
            assert check_irreducible(sd * IntPolynomial((1, 1, 3))) == UNKNOWN
            assert check_irreducible(sd * IntPolynomial((1, 1, 3)) * sd) == UNKNOWN
    calls = []
    real = intpoly._irreducible_over_z
    monkeypatch.setattr(intpoly, "_irreducible_over_z", lambda *a: calls.append(a) or real(*a))
    check_irreducible(sd)
    assert len(calls) == 1 and sd.degree == 16


def test_degree_set_counts_the_factors():
    """Beside its mask, _degree_set returns the number of factors mod p,
    f made monic mod p and f's Frobenius rows, for Zassenhaus to reuse."""
    rng = random.Random(29)
    for _ in range(100):
        f = _random_poly(rng, 1, 10, bound=30)
        for p in (2, 3, 5, 7, 11, 13):
            if f.leading % p == 0:
                continue
            _, r, fp, rows = intpoly._degree_set(f.coeffs, p)
            g = gf_from_int_poly(list(reversed(f.coeffs)), p)
            if not gf_sqf_p(g, p, ZZ):
                assert (r, fp, rows) == (0, None, None), (f, p)
                continue
            inv = pow(f.leading, -1, p)
            assert r == len(gf_factor_sqf(g, p, ZZ)[1]) and fp == [c * inv % p for c in f.coeffs], (f, p)
            assert rows == [intpoly._rem_p([0] * (i * p) + [1], fp, p) for i in range(f.degree)], (f, p)


@pytest.mark.parametrize(
    "f, answer, prime",
    [
        # the Swinnerton-Dyer octic: factors of degree 1 and 2 mod every prime
        (IntPolynomial((576, 0, -960, 0, 352, 0, -40, 0, 1)), PROVEN, None),
        # (x-1)(x-2)(x-3)(x-5): four linear factors mod 5, 7, 11 and 13
        (IntPolynomial((30, -61, 41, -11, 1)), UNKNOWN, 5),
        # not squarefree mod any sieve prime, so the prime comes from past 13
        (IntPolynomial((-30030, 0, 1)), PROVEN, 17),
        (IntPolynomial((1, 1)) * IntPolynomial((30031, 1)), UNKNOWN, 17),
    ],
)
def test_zassenhaus_builds_one_basis(monkeypatch, f, answer, prime):
    """Zassenhaus builds one Berlekamp basis, at the sieve prime with the
    fewest factors (any sieve prime when prime is None), from the sieve's
    own reduction and Frobenius rows: no prime's are computed twice."""
    seen = {}
    for name in ("_monic_sqf_p", "_frobenius", "_berlekamp_basis", "_irreducible_over_z"):
        real = getattr(intpoly, name)
        spy = lambda *a, name=name, real=real: seen.setdefault(name, []).append(a[1]) or real(*a)
        monkeypatch.setattr(intpoly, name, spy)
    assert check_irreducible(f) == answer == _zassenhaus(f)
    assert len(seen["_irreducible_over_z"]) == len(seen["_berlekamp_basis"]) == 1
    p = seen["_berlekamp_basis"][0]
    assert p == prime if prime else p in intpoly._SIEVE_PRIMES
    for name in ("_monic_sqf_p", "_frobenius"):
        assert len(seen[name]) == len(set(seen[name])), name


def test_hensel_lift_reproduces_the_factorization():
    """lc(f) times the lifted factors is f mod m, for non-monic f."""
    f = IntPolynomial((-19, 4, 7, 18)) * IntPolynomial((5, -17, -14, 12)) * IntPolynomial((1, 0, -1, 0, 1))
    p = next(p for p in (5, 7, 11, 13, 17, 19, 23) if intpoly._monic_sqf_p(f.coeffs, p))
    fp = intpoly._monic_sqf_p(f.coeffs, p)
    factors = intpoly._berlekamp_split(fp, intpoly._berlekamp_basis(intpoly._frobenius(fp, p), p), p)
    assert len(factors) >= 3 and sum(len(u) - 1 for u in factors) == f.degree
    lifts, m = intpoly._hensel_lift(list(f.coeffs), factors, p, 10**40)
    assert m > 10**40 and all(u[-1] == 1 for u in lifts)
    prod = [f.leading % m]
    for u in lifts:
        prod = intpoly._mul_mod(prod, u, m)
    assert prod == [c % m for c in f.coeffs]


def test_exact_div_outside_integer_polynomials():
    # (x^2 - 1) / (2x - 2) = (x + 1)/2 lies in Q[x] but not in Z[x]
    assert IntPolynomial((-1, 0, 1)).exact_div(IntPolynomial((-2, 2))) is None
    assert IntPolynomial((-1, 1)).exact_div(IntPolynomial((-1, 0, 1))) is None
    assert IntPolynomial((2, 4)).exact_div(IntPolynomial((2,))) == IntPolynomial((1, 2))
    # (6x^2 + 5x + 1) / (2x + 1) = 3x + 1, but (x^2 + x) / (2x + 2) = x/2
    assert IntPolynomial((1, 5, 6)).exact_div(IntPolynomial((1, 2))) == IntPolynomial((1, 3))
    assert IntPolynomial((0, 1, 1)).exact_div(IntPolynomial((2, 2))) is None
    assert IntPolynomial((3, 6)).exact_div(IntPolynomial((-3,))) == IntPolynomial((-1, -2))
    assert IntPolynomial((3, 5)).exact_div(IntPolynomial((2,))) is None
    assert IntPolynomial((4,)).exact_div(IntPolynomial((1, 1))) is None


# --- cyclotomic and squarefree routines against oracles ----------------------


def test_cyclotomic_matches_division_oracle():
    """Phi_d = (x^d - 1) / prod over e | d, e < d, of Phi_e, for d <= 150."""
    oracle = {}
    for d in range(1, 151):
        f = IntPolynomial((-1,) + (0,) * (d - 1) + (1,))
        for e in range(1, d):
            if d % e == 0:
                f = f.exact_div(oracle[e])
        oracle[d] = f
        assert cyclotomic(d) == f, d


def test_cyclotomic_refuses_nonpositive_index():
    for d in (0, -3):
        with pytest.raises(ValueError):
            cyclotomic(d)


def test_is_squarefree_matches_gcd_oracle():
    """Squarefree iff gcd(f, f') is constant, on 2,000 seeded polynomials:
    random ones, constants, g*h^2 products and products of two factors."""
    rng = random.Random(20261019)
    cases = [IntPolynomial((c,)) for c in (1, -1, 7)]
    for _ in range(1997):
        kind = rng.randrange(3)
        f = _random_poly(rng, 1, 8)
        if kind == 1:
            h = _random_poly(rng, 1, 3)
            f = _random_poly(rng, 0, 3) * h * h
        elif kind == 2:
            f = _random_poly(rng, 1, 4) * _random_poly(rng, 1, 4)
        cases.append(f)
    squares = 0
    for f in cases:
        oracle = f.is_constant() or poly_gcd(f, f.derivative()).is_constant()
        assert is_squarefree(f) == oracle, f
        squares += not oracle
    assert len(cases) == 2000 and squares > 600


# --- the Python-int kernels against the sympy routines they replace ----------


def _divisor(rng):
    """A divisor of degree 0-6: constant, monic or not, leading up to 30030."""
    b = _random_poly(rng, 0, 6)
    lc = rng.choice((1, -1, 2, -3, 6, 30030, b.leading))
    return IntPolynomial(b.coeffs[:-1] + (lc,))


def test_exact_div_matches_dup_rr_div_seeded():
    """None exactly where dup_rr_div leaves a remainder, else its quotient:
    exact products, non-integral quotients, divisors of higher degree."""
    rng = random.Random(20261020)
    outcomes = {"exact": 0, "remainder": 0, "higher": 0, "constant": 0}
    for _ in range(3000):
        b = _divisor(rng)
        kind = rng.randrange(3)
        if kind == 0:
            a = _random_poly(rng, 0, 6) * b
        elif kind == 1:  # (b*q + r)/b: non-integral or with a remainder
            coeffs = [c + rng.randint(-2, 2) for c in (_random_poly(rng, 0, 6) * b).coeffs]
            if not any(coeffs):
                continue
            a = IntPolynomial.from_coeffs(coeffs)
        else:
            a = _random_poly(rng, 0, 8)
        quot, rem = dup_rr_div(list(reversed(a.coeffs)), list(reversed(b.coeffs)), ZZ)
        expect = None if rem else IntPolynomial.from_coeffs(reversed(quot))
        assert a.exact_div(b) == expect, (a, b)
        outcomes["remainder" if expect is None else "exact"] += 1
        outcomes["higher"] += b.degree > a.degree
        outcomes["constant"] += b.is_constant()
    assert min(outcomes.values()) > 150, outcomes


def test_mul_matches_dup_mul_seeded():
    rng = random.Random(20261022)
    for _ in range(2000):
        a, b = _divisor(rng), _random_poly(rng, 0, 8)
        expect = dup_mul(list(reversed(a.coeffs)), list(reversed(b.coeffs)), ZZ)
        assert a * b == IntPolynomial.from_coeffs(reversed(expect)), (a, b)


def test_cyclotomic_matches_dup_zz_cyclotomic_poly():
    for d in range(1, 1001):
        assert cyclotomic(d).coeffs == tuple(reversed(dup_zz_cyclotomic_poly(d, ZZ))), d


def test_euler_phi_matches_totient():
    assert all(euler_phi(d) == totient(d) for d in range(1, 20001))


def test_is_squarefree_matches_dup_sqf_p_seeded():
    rng = random.Random(20261021)
    counts = [0, 0]
    for _ in range(3000):
        f = _divisor(rng)
        if rng.random() < 0.4:
            h = _random_poly(rng, 1, 3)
            f = f * h * h
        expect = dup_sqf_p(list(reversed(f.coeffs)), ZZ)
        assert is_squarefree(f) == expect, f
        counts[expect] += 1
    assert min(counts) > 800, counts


@pytest.mark.parametrize(
    "f, fallback",
    [
        (IntPolynomial((-2, 0, 1)), 0),  # x^2 - 2, squarefree mod 3
        (LEHMER, 0),
        (IntPolynomial((5,)), 0),
        (IntPolynomial((-30030, 0, 1)), 1),  # squarefree, but x^2 mod every sieve prime
        (IntPolynomial((1, 1, 30030)), 1),  # every sieve prime divides lc and is skipped
        (IntPolynomial((4, 4, 1)), 1),  # (x + 2)^2
    ],
    ids=str,
)
def test_is_squarefree_falls_back_to_sympy_only_when_undecided(monkeypatch, f, fallback):
    calls = []
    gcd = intpoly.poly_gcd
    monkeypatch.setattr(intpoly, "poly_gcd", lambda a, b: calls.append(a) or gcd(a, b))
    assert is_squarefree(f) == dup_sqf_p(list(reversed(f.coeffs)), ZZ)
    assert len(calls) == fallback
