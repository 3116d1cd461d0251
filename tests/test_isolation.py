"""Certified complex root isolation: disjointness, width, nesting."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf

from padicorder import (
    ComplexBox,
    IntPolynomial,
    MaxPrecisionExceeded,
    NotSquarefree,
    RationalInterval,
    cyclotomic,
    is_squarefree,
    isolate_roots,
)
from padicorder import isolation

EPS = Fraction(1, 64)
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def bisect_real_root(coeffs, lo, hi, steps=60):
    """Independent oracle: plain rational bisection on a sign change."""
    f = IntPolynomial(tuple(coeffs))
    assert f(lo) * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if f(mid) == 0:
            return mid, mid
        if f(lo) * f(mid) < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def test_sqrt2_boxes_against_bisection():
    f = IntPolynomial((-2, 0, 1))
    boxes = isolate_roots(f, EPS)
    assert len(boxes) == 2
    lo, hi = bisect_real_root((-2, 0, 1), Fraction(1), Fraction(2))
    pos = [b for b in boxes if b.real.hi > 0]
    assert len(pos) == 1
    box = pos[0]
    assert box.real.lo <= hi and lo <= box.real.hi
    assert box.imag.contains(Fraction(0))
    assert box.width <= EPS


def test_golden_ratio_box_against_bisection():
    f = IntPolynomial((-1, -1, 1))
    boxes = isolate_roots(f, EPS)
    lo, hi = bisect_real_root((-1, -1, 1), Fraction(1), Fraction(2))
    hits = [b for b in boxes if b.real.hi >= lo and b.real.lo <= hi]
    assert len(hits) == 1


def test_counts_degree_and_disjointness():
    for f in (
        IntPolynomial((-2, 0, 1)),
        cyclotomic(5),
        IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)),  # Lehmer
        IntPolynomial((6, -5, 1)) * IntPolynomial((1, 0, 1)),
    ):
        boxes = isolate_roots(f, EPS)
        assert len(boxes) == f.degree
        for i, a in enumerate(boxes):
            for b in boxes[i + 1 :]:
                assert not a.overlaps(b)


def test_cyclotomic_roots_straddle_unit_circle():
    boxes = isolate_roots(cyclotomic(5), Fraction(1, 32))
    assert len(boxes) == 4
    for b in boxes:
        m2 = b.mod_squared_interval()
        assert m2.lo <= 1 <= m2.hi


def test_product_of_moduli_contains_constant_ratio():
    """prod |roots| = |c0/cn|: the product of box-modulus intervals must
    contain it (here for x^2 - 5x + 6, product 6)."""
    f = IntPolynomial((6, -5, 1))
    boxes = isolate_roots(f, Fraction(1, 128))
    prod = RationalInterval(Fraction(1), Fraction(1))
    for b in boxes:
        prod = prod * b.mod_squared_interval()
    target = Fraction(abs(f.constant), abs(f.leading)) ** 2
    assert prod.contains(target)


def test_refinement_nests():
    """Boxes at eps/2 sit inside the boxes at eps (monotone schedule)."""
    f = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    eps = Fraction(1, 16)
    coarse = isolate_roots(f, eps)
    fine = isolate_roots(f, eps / 2)
    assert len(coarse) == len(fine) == 10
    for small in fine:
        assert sum(1 for big in coarse if big.contains_box(small)) == 1


def test_rejects_non_squarefree():
    with pytest.raises(NotSquarefree):
        isolate_roots(IntPolynomial((1, 2, 1)), EPS)


def test_mod_squared_interval_exact_cases():
    box = ComplexBox(
        RationalInterval(Fraction(3), Fraction(3)),
        RationalInterval(Fraction(4), Fraction(4)),
    )
    assert box.mod_squared_interval() == RationalInterval(Fraction(25), Fraction(25))
    straddle = ComplexBox(
        RationalInterval(Fraction(-1), Fraction(1)),
        RationalInterval(Fraction(-1), Fraction(1)),
    )
    assert straddle.mod_squared_interval().lo == 0
    assert straddle.mod_squared_interval().hi == 2


# --- approximate-then-certify: limits and independent checks -----------------


def close_pair(deg, a):
    """x^deg - 2(a x - 1)^2: two real roots near 1/a, about a^-deg apart."""
    coeffs = [-2, 4 * a, -2 * a * a] + [0] * (deg - 3) + [1]
    return IntPolynomial(tuple(coeffs))


def test_precision_cap_raises_typed_error(monkeypatch):
    # the two roots of x^10 - 2(50x - 1)^2 near 1/50 are about 2^-33
    # apart: 53-bit candidates overlap, and certification needs 106 bits
    monkeypatch.setattr(isolation, "MAX_PRECISION_BITS", 53)
    with pytest.raises(MaxPrecisionExceeded):
        isolate_roots(close_pair(10, 50), EPS)


def test_shrink_step_limit_raises_typed_error(monkeypatch):
    monkeypatch.setattr(isolation, "MAX_SHRINK_STEPS", 0)
    assert len(isolate_roots(LEHMER, EPS)) == 10  # no shrinking needed
    with pytest.raises(MaxPrecisionExceeded):
        isolate_roots(LEHMER, Fraction(1, 2**60))


def _moved_off_root(rects):
    lo, hi, im_lo, im_hi = rects[0]
    return [(lo + 2 * (hi - lo), hi + 2 * (hi - lo), im_lo, im_hi)] + rects[1:]


def _duplicated(rects):
    return [rects[0], rects[0]] + rects[2:]


def _edge_root(rects):
    # 2x - 3 on [1, 3/2] x [0, 0]: K(X) = {3/2} lies in X but touches its edge
    return [(Fraction(1), Fraction(3, 2), Fraction(0), Fraction(0))]


@pytest.mark.parametrize(
    "coeffs, tamper",
    [
        pytest.param((-2, 0, 1), _moved_off_root, id="_moved_off_root"),
        pytest.param((-2, 0, 1), _duplicated, id="_duplicated"),
        pytest.param((-3, 2), _edge_root, id="_edge_root"),
    ],
)
def test_certification_rejects_bad_candidates(monkeypatch, coeffs, tamper):
    """A box without a root, or with a root on its edge, fails the strict
    Krawczyk test that verify applies; two boxes around one root fail the
    disjointness check; so no precision certifies."""
    honest = isolation._candidates
    monkeypatch.setattr(
        isolation, "_candidates", lambda f, prec: tamper(honest(f, prec))
    )
    with pytest.raises(MaxPrecisionExceeded):
        isolate_roots(IntPolynomial(coeffs), EPS)


def test_double_overflow_isolates_through_mpmath():
    # 10^400 overflows a double: the Aberth proposer gives up, mpmath proposes
    f = IntPolynomial((-(10**400), 0, 1))
    with pytest.raises(ArithmeticError):
        isolation._aberth(f.coeffs)
    boxes = isolate_roots(f, EPS)
    assert len(boxes) == 2 and all(isolation.isolates_one_root(f, b) for b in boxes)
    assert sorted(b.real.lo < 10**200 < b.real.hi for b in boxes) == [False, True]


def test_wilkinson_isolates_through_mpmath():
    # doubles do not settle on (x - 1)(x - 2)...(x - 12), and mpmath
    # converges on it only with extra working precision
    f = IntPolynomial((1,))
    for k in range(1, 13):
        f = f * IntPolynomial((-k, 1))
    with pytest.raises(ArithmeticError):
        isolation._aberth(f.coeffs)
    boxes = isolate_roots(f, EPS)
    assert all(b.real.contains(k) and b.imag.contains(0) for k, b in zip(range(1, 13), boxes))
    assert len(boxes) == 12


HONEST_ABERTH = isolation._aberth


def _nan_roots(coeffs):
    return [complex("nan+nanj")] * (len(coeffs) - 1)


def _shifted_roots(coeffs):
    return [z + 1 / 3 for z in HONEST_ABERTH(coeffs)]


@pytest.mark.parametrize("proposer", [_nan_roots, _shifted_roots])
@pytest.mark.parametrize("f", [LEHMER, close_pair(10, 50), cyclotomic(15)], ids=str)
def test_bad_double_proposals_never_pass(monkeypatch, proposer, f):
    """Whatever the double proposer returns, every box isolate_roots hands
    back passes the strict Krawczyk test, or it raises."""
    monkeypatch.setattr(isolation, "_aberth", proposer)
    try:
        boxes = isolate_roots(f, EPS)
    except MaxPrecisionExceeded:
        return
    assert len(boxes) == f.degree and all(isolation.isolates_one_root(f, b) for b in boxes)


def test_polyroots_failure_is_a_failed_attempt(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise mpmath.mp.NoConvergence("did not converge")

    monkeypatch.setattr(isolation, "_aberth", _nan_roots)
    monkeypatch.setattr(mpmath, "polyroots", no_convergence)
    with pytest.raises(MaxPrecisionExceeded):
        isolate_roots(LEHMER, EPS)


@pytest.mark.parametrize("deg, a", [(10, 50), (12, 100)])
def test_close_real_roots_certified_at_default_cap(deg, a):
    f = close_pair(deg, a)
    boxes = isolate_roots(f, EPS)
    assert len(boxes) == deg
    for i, x in enumerate(boxes):
        for y in boxes[i + 1 :]:
            assert not x.overlaps(y)
    # the close pair sits in two of them
    assert sum(abs(b.real.lo * a - 1) < Fraction(1, 10**6) for b in boxes) == 2


def seeded_squarefree(count=60, seed=20261018):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(1, 7)
        lead = rng.choice([c for c in range(-20, 21) if c])
        f = IntPolynomial(tuple(rng.randint(-20, 20) for _ in range(deg)) + (lead,))
        if is_squarefree(f):
            out.append(f)
    return out


ORACLE_POLYS = seeded_squarefree() + [LEHMER, cyclotomic(15)]


@pytest.fixture(scope="module")
def isolated():
    return [(f, isolate_roots(f, EPS)) for f in ORACLE_POLYS]


def test_seeded_boxes_count_and_disjoint(isolated):
    for f, boxes in isolated:
        assert len(boxes) == f.degree, f
        for i, a in enumerate(boxes):
            assert a.width <= EPS
            for b in boxes[i + 1 :]:
                assert not a.overlaps(b), f


def test_seeded_real_boxes_match_sympy_real_isolation(isolated):
    """sympy's exact real-root isolator serves as the oracle only."""
    zero = RationalInterval(Fraction(0), Fraction(0))
    for f, boxes in isolated:
        real = [b.real for b in boxes if b.imag == zero]
        dup = [ZZ(c) for c in reversed(f.coeffs)]
        oracle = [
            RationalInterval(
                Fraction(int(lo.numerator), int(lo.denominator)),
                Fraction(int(hi.numerator), int(hi.denominator)),
            )
            for lo, hi in dup_isolate_real_roots_sqf(dup, ZZ)
        ]
        assert len(real) == len(oracle), f
        for iv in oracle:
            matches = [
                r for r in real if iv.contains_interval(r) or r.contains_interval(iv)
            ]
            assert len(matches) == 1, (f, iv)


def test_seeded_boxes_satisfy_vieta_sum_exactly(isolated):
    """The sum of the roots is -c_{n-1}/c_n and is real."""
    for f, boxes in isolated:
        re = RationalInterval(
            sum(b.real.lo for b in boxes), sum(b.real.hi for b in boxes)
        )
        im = RationalInterval(
            sum(b.imag.lo for b in boxes), sum(b.imag.hi for b in boxes)
        )
        assert re.contains(Fraction(-f.coeffs[-2], f.coeffs[-1])), f
        assert im.contains(0), f


# --- strict Krawczyk test: exactly one root, from f and the box alone ---------


def rect(re_lo, re_hi, im_lo, im_hi):
    return ComplexBox(
        RationalInterval(Fraction(re_lo), Fraction(re_hi)),
        RationalInterval(Fraction(im_lo), Fraction(im_hi)),
    )


def test_isolator_boxes_pass_strict_krawczyk(isolated):
    for f, boxes in isolated:
        assert all(isolation.isolates_one_root(f, b) for b in boxes), f


@pytest.mark.parametrize(
    "coeffs,box",
    [
        ((-5, 0, 1), ("2", "5/2", "0", "0")),  # sqrt 5 on a real box
        ((4, 0, 1), ("-1/4", "1/4", "7/4", "9/4")),  # 2i
        (LEHMER.coeffs, ("117/100", "118/100", "-1/100", "1/100")),
    ],
)
def test_strict_krawczyk_accepts_one_root(coeffs, box):
    assert isolation.isolates_one_root(IntPolynomial(coeffs), rect(*box))


@pytest.mark.parametrize(
    "coeffs,box",
    [
        ((6, -5, 1), ("3/2", "7/2", "-1/2", "1/2")),  # roots 2 and 3 inside
        ((6, -5, 1), ("3/2", "3", "-1/2", "1/2")),  # root 2 inside, 3 on the edge
        ((6, -5, 1), ("3/2", "3", "0", "0")),  # the same on a real box
        ((6, -5, 1), ("9/4", "11/4", "-1/4", "1/4")),  # off every root
        ((6, -5, 1), ("9/4", "11/4", "0", "0")),  # off every root, real box
        ((-6, 1, 1), ("5/4", "4", "-1", "1")),  # root 2 alone, K(X) not inside X
        ((4, 0, 1), ("-1/2", "1/2", "2", "2")),  # off-axis degenerate box on 2i
        ((4, 0, 1), ("0", "0", "3/2", "5/2")),  # zero real width, on 2i
        ((-4, 0, 1), ("2", "2", "0", "0")),  # a point box on the root 2
        ((-2, 1), ("1", "3", "1", "1")),  # off-axis segment above the root 2
        ((-3, 2), ("3/2", "2", "0", "0")),  # K(X) = {3/2} touches the edge
        ((-3, 2), ("1", "2", "0", "1")),  # K(X) = {3/2} touches the edge
        ((5,), ("1", "2", "-1", "1")),  # a constant has no root
    ],
)
def test_strict_krawczyk_rejects(coeffs, box):
    assert not isolation.isolates_one_root(IntPolynomial(coeffs), rect(*box))


def test_strict_krawczyk_sound_on_random_boxes(isolated):
    """Whenever the test passes, sympy's exact root count in the closed
    box (the oracle only) is 1."""
    from sympy import I, Poly, Rational, symbols

    x = symbols("x")
    rng = random.Random(20261018)
    passed = failed = 0
    for f, boxes in isolated[:30]:
        poly = Poly(list(reversed(f.coeffs)), x)
        for b in boxes:
            c_re, c_im = (b.real.lo + b.real.hi) / 2, (b.imag.lo + b.imag.hi) / 2
            r = Fraction(1, rng.choice([2, 8, 64, 256]))
            re = c_re + Fraction(rng.randint(-8, 8), 8) * r
            if c_im == 0 and rng.random() < 0.5:
                box = rect(re - r, re + r, 0, 0)
                lo, hi = Rational(box.real.lo), Rational(box.real.hi)
            else:
                im = c_im + Fraction(rng.randint(-8, 8), 8) * r
                box = rect(re - r, re + r, im - r, im + r)
                lo = Rational(box.real.lo) + I * Rational(box.imag.lo)
                hi = Rational(box.real.hi) + I * Rational(box.imag.hi)
            if isolation.isolates_one_root(f, box):
                passed += 1
                assert poly.count_roots(lo, hi) == 1, (f, box)
            else:
                failed += 1
    assert passed > 20 and failed > 20


# --- the integer kernel against the Fraction Krawczyk operator it replaced ------


def _oracle_rect_mul(x, y):
    def imul(a, b, c, d):
        p = (a * c, a * d, b * c, b * d)
        return min(p), max(p)

    rr, ii = imul(x[0], x[1], y[0], y[1]), imul(x[2], x[3], y[2], y[3])
    ri, ir = imul(x[0], x[1], y[2], y[3]), imul(x[2], x[3], y[0], y[1])
    return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])


def _oracle_eval_point(coeffs, yr, yi):
    ar = ai = Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * yr - ai * yi + c, ar * yi + ai * yr
    return ar, ai


def _oracle_eval_rect(coeffs, x):
    c = coeffs[-1]
    acc = (c, c, 0, 0)
    for c in reversed(coeffs[:-1]):
        lo, hi, ilo, ihi = _oracle_rect_mul(acc, x)
        acc = (lo + c, hi + c, ilo, ihi)
    return acc


def _oracle_log2_inv(w):
    return w.denominator.bit_length() - w.numerator.bit_length()


def oracle_krawczyk(f, df, x):
    """K(X) in Fraction rectangle arithmetic, as isolation computed it
    before its integer kernel: the reference the kernel must equal."""
    y_re, y_im = (x[0] + x[1]) / 2, (x[2] + x[3]) / 2
    d_re, d_im = _oracle_eval_point(df.coeffs, y_re, y_im)
    d2 = d_re * d_re + d_im * d_im
    if d2 == 0:
        return None
    inv_re, inv_im = d_re / d2, -d_im / d2
    width = max(x[1] - x[0], x[3] - x[2])
    bits = max(_oracle_log2_inv(width), 0) + 2 * isolation._GUARD_BITS
    scale = Fraction(2) ** (bits + _oracle_log2_inv(max(abs(inv_re), abs(inv_im))))
    inv_re, inv_im = round(inv_re * scale) / scale, round(inv_im * scale) / scale
    f_re, f_im = _oracle_eval_point(f.coeffs, y_re, y_im)
    k_re = y_re - (inv_re * f_re - inv_im * f_im)
    k_im = y_im - (inv_re * f_im + inv_im * f_re)
    yd = _oracle_rect_mul((inv_re, inv_re, inv_im, inv_im), _oracle_eval_rect(df.coeffs, x))
    contraction = (1 - yd[1], 1 - yd[0], -yd[3], -yd[2])
    p = _oracle_rect_mul(contraction, (x[0] - y_re, x[1] - y_re, x[2] - y_im, x[3] - y_im))
    return (k_re + p[0], k_re + p[1], k_im + p[2], k_im + p[3])


def seeded_rectangles(count, seed=20261019):
    """(f, rectangle) pairs: degree 1-12, endpoints over dyadic denominators
    or over 3, 100 and 2^k * 5, mixed within one rectangle."""
    rng = random.Random(seed)

    def den():
        return rng.choice([2 ** rng.randint(0, 60), 3, 100, 5 * 2 ** rng.randint(0, 40)])

    def interval():
        q = den()
        lo = Fraction(rng.randint(-3 * q, 3 * q), q)
        return lo, lo + Fraction(rng.randint(1, q), den())

    for _ in range(count):
        deg = rng.randint(1, 12)
        f = IntPolynomial(
            tuple(rng.randint(-30, 30) for _ in range(deg))
            + (rng.choice([c for c in range(-9, 10) if c]),)
        )
        re = interval()
        im = (Fraction(0), Fraction(0)) if rng.random() < 0.3 else interval()
        yield f, re + im


def test_integer_kernel_equals_fraction_krawczyk():
    seen = 0
    for f, x in seeded_rectangles(2000):
        df = f.derivative()
        k = isolation._krawczyk(f, df, isolation._rect(*x))
        expect = oracle_krawczyk(f, df, x)
        if expect is None:
            assert k is None, (f, x)
            continue
        assert tuple(Fraction(v, k[4]) for v in k[:4]) == expect, (f, x)
        seen += 1
    assert seen > 1900


def oracle_shrink(f, x, eps):
    """isolation._shrink in Fraction arithmetic, as before the integer kernel."""
    df = f.derivative()
    while max(x[1] - x[0], x[3] - x[2]) > eps:
        k = oracle_krawczyk(f, df, x)
        wk = max(k[1] - k[0], k[3] - k[2])
        if wk > 0:
            s = Fraction(2) ** (_oracle_log2_inv(wk) + isolation._GUARD_BITS)
            k = (
                math.floor(k[0] * s) / s,
                math.ceil(k[1] * s) / s,
                math.floor(k[2] * s) / s,
                math.ceil(k[3] * s) / s,
            )
        x = (max(x[0], k[0]), min(x[1], k[1]), max(x[2], k[2]), min(x[3], k[3]))
    return ComplexBox(RationalInterval(x[0], x[1]), RationalInterval(x[2], x[3]))


def test_integer_shrink_equals_fraction_shrink():
    for f in ORACLE_POLYS[:30] + [LEHMER, close_pair(10, 50)]:
        for x in isolation._certified_rects(f):
            for eps in (Fraction(1, 64), Fraction(1, 2**40)):
                assert isolation._shrink(f, f.derivative(), x, eps) == oracle_shrink(f, x, eps), f
