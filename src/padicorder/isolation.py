"""Certified complex root isolation with exact rational boxes.

Approximate, then certify (Krawczyk 1969; Rump, "Verification methods",
Acta Numerica 2010):

- Approximate: the Aberth-Ehrlich iteration proposes all n roots, in
  Python complex doubles at 53 bits, and on mpf coefficients at twice
  the working precision when that overflows or does not settle, and at
  every doubling up to MAX_PRECISION_BITS after a check below fails.
- Candidate boxes: a dyadic box of radius 2^e, e least with
  max(4n|f(z)/f'(z)|, 2^(-prec/2)) < 2^e in exact arithmetic, goes around
  each proposal z; it is a real box, with imaginary part [0, 0], when z
  lies within 2^e of the real axis.
- Certify: the set is accepted only when the n boxes are pairwise
  disjoint and every box X passes isolates_one_root, the strict test
  K(X) ⊂ int X that verify_witness_certificate applies, with
  K(X) = y - Y f(y) + (1 - Y f'(X))(X - y) in exact rectangle arithmetic
  on integers over one common denominator.  It puts exactly one root in
  X, so n disjoint boxes of a polynomial of degree n hold every root.
- Shrink: each box is brought to width at most eps by X <- K(X) ∩ X,
  rounded outward to dyadics.  The root is a fixed point of the Krawczyk
  map, so it stays inside; the sequence of boxes does not depend on eps,
  so the boxes for eps/2 nest in the boxes for eps.
- One root: isolate_outermost runs the doubles step once, makes exact
  only the proposals within rounding of the largest modulus, sizes the
  box around the largest, runs the strict test on that integer rectangle,
  shrinks it alone, and returns None where isolate_roots would raise or
  retry.

Floats and multiprecision numbers only propose candidates; every
decision is an exact comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath

from .errors import MaxPrecisionExceeded, NotSquarefree
from .intervals import RationalInterval
from .intpoly import IntPolynomial, is_squarefree

MAX_PRECISION_BITS = 53 << 6  # working-precision cap of the approximation step
MAX_SHRINK_STEPS = 64  # Krawczyk steps allowed per box when shrinking
_GUARD_BITS = 8  # grid and inverse precision below a box's width


@dataclass(frozen=True, slots=True)
class ComplexBox:
    """An axis-aligned rational rectangle in the complex plane."""

    real: RationalInterval
    imag: RationalInterval

    @property
    def width(self) -> Fraction:
        return max(self.real.width, self.imag.width)

    def contains_box(self, other: "ComplexBox") -> bool:
        return self.real.contains_interval(other.real) and self.imag.contains_interval(
            other.imag
        )

    def overlaps(self, other: "ComplexBox") -> bool:
        return self.real.intersects(other.real) and self.imag.intersects(other.imag)

    def mod_squared_interval(self) -> RationalInterval:
        """Exact bounds of |z|^2 over the closed box."""

        def axis_min(iv: RationalInterval) -> Fraction:
            if iv.lo <= 0 <= iv.hi:
                return Fraction(0)
            return min(abs(iv.lo), abs(iv.hi))

        def axis_max(iv: RationalInterval) -> Fraction:
            return max(abs(iv.lo), abs(iv.hi))

        lo = axis_min(self.real) ** 2 + axis_min(self.imag) ** 2
        hi = axis_max(self.real) ** 2 + axis_max(self.imag) ** 2
        return RationalInterval(lo, hi)


# A rectangle is a tuple (re_lo, re_hi, im_lo, im_hi, d) of integers: the
# endpoints over a common denominator d > 0, the lcm of their denominators.


def _rect(*ends) -> tuple:
    """The rectangle with these rational endpoints."""
    d = math.lcm(*(v.denominator for v in ends))
    return tuple(v.numerator * (d // v.denominator) for v in ends) + (d,)


_ON_AXIS = RationalInterval(Fraction(0), Fraction(0))  # shared by real boxes


def _box(x) -> ComplexBox:
    d = x[4]
    return ComplexBox(
        RationalInterval(Fraction(x[0], d), Fraction(x[1], d)),
        _ON_AXIS if x[2] == x[3] == 0 else RationalInterval(Fraction(x[2], d), Fraction(x[3], d)),
    )


def _imul(a, b, c, d):
    """[a, b] * [c, d]."""
    p = (a * c, a * d, b * c, b * d)
    return min(p), max(p)


def _rect_mul(x, y):
    """{u * v : u in x, v in y}, enclosed over the product of the denominators."""
    rr = _imul(x[0], x[1], y[0], y[1])
    ii = _imul(x[2], x[3], y[2], y[3])
    ri = _imul(x[0], x[1], y[2], y[3])
    ir = _imul(x[2], x[3], y[0], y[1])
    return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])


def _eval_rect(coeffs, x):
    """Numerators over d^n of a rectangle enclosing f(x), by Horner's rule;
    on a point rectangle, the exact value."""
    c, dk = coeffs[-1], 1
    acc = (c, c, 0, 0)
    for c in reversed(coeffs[:-1]):
        dk *= x[4]
        lo, hi, ilo, ihi = _rect_mul(acc, x)
        acc = (lo + c * dk, hi + c * dk, ilo, ihi)
    return acc


def _width(x) -> int:
    return max(x[1] - x[0], x[3] - x[2])


def _log2_inv(num: int, den: int) -> int:
    """About -log2(num / den), read from the reduced fraction."""
    g = math.gcd(num, den)
    return (den // g).bit_length() - (num // g).bit_length()


def _round(num: int, den: int) -> int:
    """num / den to the nearest integer, ties to even, for den > 0."""
    q, r = divmod(num, den)
    return q + (2 * r > den or (2 * r == den and q & 1))


def _krawczyk(f: IntPolynomial, df: IntPolynomial, x):
    """K(x) for y the centre of x and Y a dyadic approximation of
    1/f'(y); None when f'(y) = 0."""
    q = 2 * x[4]  # x over q, so that the centre y has integer numerators
    x = (2 * x[0], 2 * x[1], 2 * x[2], 2 * x[3], q)
    yr, yi = (x[0] + x[1]) // 2, (x[2] + x[3]) // 2
    qm = q**df.degree
    dr, _, di, _ = _eval_rect(df.coeffs, (yr, yr, yi, yi, q))  # f'(y) = (dr + i di) / qm
    d2 = dr * dr + di * di
    if d2 == 0:
        return None
    # 1/f'(y) = qm (dr - i di) / d2.  Y = (vr + i vi) / 2^u to about 16 bits
    # more than -log2(width) significant bits, so that |1 - Y f'(y)| stays
    # well below the width and shrinking is quadratic
    bits = max(_log2_inv(_width(x), q), 0) + 2 * _GUARD_BITS
    t = bits + _log2_inv(qm * max(abs(dr), abs(di)), d2)
    u, v = max(t, 0), max(-t, 0)
    vr = _round(qm * dr << u, d2 << v) << v
    vi = _round(-qm * di << u, d2 << v) << v
    fr, _, fi, _ = _eval_rect(f.coeffs, (yr, yr, yi, yi, q))  # f(y) = (fr + i fi) / (q qm)
    # K = y - Y f(y) + (1 - Y f'(X))(X - y), over 2^u q qm
    k_re = (yr << u) * qm - (vr * fr - vi * fi)
    k_im = (yi << u) * qm - (vr * fi + vi * fr)
    yd = _rect_mul((vr, vr, vi, vi), _eval_rect(df.coeffs, x))
    one = qm << u
    contraction = (one - yd[1], one - yd[0], -yd[3], -yd[2])
    p = _rect_mul(contraction, (x[0] - yr, x[1] - yr, x[2] - yi, x[3] - yi))
    return (k_re + p[0], k_re + p[1], k_im + p[2], k_im + p[3], one * q)


def isolates_one_root(f: IntPolynomial, box: ComplexBox) -> bool:
    """Krawczyk's strict test K(X) ⊂ int X, which proves that the closed
    box holds exactly one root of f: _rect_mul is an interval 2x2 matrix
    product, so K(X) encloses Rump's Krawczyk set of f as a map R^2 -> R^2.
    A real box [a, b] x [0, 0] takes the one-dimensional test, K real and
    inside (a, b); any other degenerate box, or a constant f, fails."""
    x = _rect(box.real.lo, box.real.hi, box.imag.lo, box.imag.hi)
    return not f.is_constant() and _isolates(f, f.derivative(), x)


def _isolates(f: IntPolynomial, df: IntPolynomial, x) -> bool:
    """isolates_one_root on the rectangle x, given df = f'."""
    if x[2] == x[3] != 0:
        return False
    k = _krawczyk(f, df, x)
    if k is None:
        return False
    x, k = [v * k[4] for v in x[:4]], [v * x[4] for v in k[:4]]  # over one denominator
    if not x[0] < k[0] <= k[1] < x[1]:
        return False
    if x[2] == x[3]:
        return k[2] == k[3] == 0
    return x[2] < k[2] <= k[3] < x[3]


def _aberth(coeffs, tol) -> list:
    """The n roots of c_0 + ... + c_n x^n by the Aberth-Ehrlich iteration
    (Bini, Numer. Algorithms 13, 1996): in complex doubles on int c_k, in
    mpmath numbers on mpf ones, to corrections of at most tol relative;
    ArithmeticError when a value overflows or the roots do not settle."""
    n, a = len(coeffs) - 1, [c / coeffs[-1] for c in coeffs]
    r = max(abs(c) ** (1 / (n - k)) for k, c in enumerate(a[:-1]))
    zs = [r * cmath.exp(1j * (2 * math.pi * k / n + 0.4)) for k in range(n)]
    for _ in range(100):
        settled = True
        for i, z in enumerate(zs):
            p = dp = 0j
            for c in reversed(a):
                p, dp = p * z + c, dp * z + p
            newton = p / dp
            w = newton / (1 - newton * sum(1 / (z - y) for j, y in enumerate(zs) if j != i))
            zs[i] = z - w
            settled = settled and abs(w) <= tol * abs(z)
        if settled:
            return zs
    raise ArithmeticError("the Aberth iteration did not settle")


def _exact(v) -> Fraction:
    """A finite float or mpf as a Fraction; ValueError or OverflowError otherwise."""
    if isinstance(v, float):
        return Fraction(v)
    if not mpmath.isfinite(v):
        raise ValueError(f"{v} is not finite")
    man, exp = mpmath.mpf(v).man_exp
    return (-man if v < 0 else man) * Fraction(2) ** exp


def _proposals(coeffs, tol, outermost=False):
    """_aberth's roots as exact (re, im) pairs, or [] when it fails; with
    outermost, in doubles, only those within rounding of the largest
    modulus (abs errs by under 2^-52 relative) and any non-finite one."""
    try:
        zs = _aberth(coeffs, tol)
        if outermost:
            top = max(map(abs, zs)) * (1 - 2**-40)
            zs = [z for z in zs if not abs(z) < top]  # keeps nan, so that it raises
        return [(_exact(z.real), _exact(z.imag)) for z in zs]
    except (ArithmeticError, ValueError):  # an overflow, no settling, a non-finite root
        return []


def _sized(f: IntPolynomial, df: IntPolynomial, re: Fraction, im: Fraction, prec: int):
    """The dyadic rectangle around the proposal re + i im at prec bits, or
    None when f'(re + i im) = 0."""
    n, z = f.degree, _rect(re, re, im, im)
    fr, _, fi, _ = _eval_rect(f.coeffs, z)  # f(z) = (fr + i fi) / d^n
    dr, _, di, _ = _eval_rect(df.coeffs, z)  # f'(z) = (dr + i di) / d^(n-1)
    num, den = 16 * n * n * (fr * fr + fi * fi), (dr * dr + di * di) * z[4] ** 2
    if not den:
        return None
    # the least e with (4n|f/f'|)^2 = num / den < 4^e and 2^(-prec/2) < 2^e
    e = max(1 - prec // 2, (num.bit_length() - den.bit_length()) // 2 - 1 if num else -prec)
    while num >= den * Fraction(4) ** e:
        e += 1
    radius, grid = Fraction(2) ** e, Fraction(2) ** (e - 2 * _GUARD_BITS)
    re, c = round(re / grid) * grid, round(im / grid) * grid
    im = (Fraction(0),) * 2 if abs(im) <= radius else (c - radius, c + radius)
    return (re - radius, re + radius) + im


def _candidates(f: IntPolynomial, df: IntPolynomial, prec: int):
    """Dyadic boxes around _aberth's roots of f at prec bits, or [] when it
    fails: in complex doubles at 53 bits, and on mpf coefficients at
    2 prec bits when that fails and above 53 bits."""
    roots = _proposals(f.coeffs, 2**-50) if prec == 53 else []
    if not roots:
        with mpmath.workprec(2 * prec):
            roots = _proposals([mpmath.mpf(c) for c in f.coeffs], mpmath.mpf(2) ** -prec)
    rects = [_sized(f, df, re, im, prec) for re, im in roots]
    return [] if None in rects else rects


def _certified_rects(f: IntPolynomial, df: IntPolynomial):
    """n pairwise-disjoint rectangles, each passing the strict test."""
    prec = 53
    while prec <= MAX_PRECISION_BITS:
        rects = _candidates(f, df, prec)
        xs = [_rect(*x) for x in rects]
        boxes = [_box(x) for x in xs]
        disjoint = all(not a.overlaps(b) for a, b in combinations(boxes, 2))
        if len(xs) == f.degree and disjoint and all(_isolates(f, df, x) for x in xs):
            return rects
        prec *= 2
    raise MaxPrecisionExceeded(
        f"roots of {f} not certified at {MAX_PRECISION_BITS} bits of precision"
    )


def _shrink(f: IntPolynomial, df: IntPolynomial, x, eps: Fraction) -> ComplexBox:
    """x <- K(x) ∩ x, rounded outward to dyadics, until width(x) <= eps."""
    x, steps = _rect(*x), 0
    while _width(x) * eps.denominator > eps.numerator * x[4]:
        k = _krawczyk(f, df, x) if steps < MAX_SHRINK_STEPS else None
        if k is None:
            raise MaxPrecisionExceeded(
                f"a root box of {f} did not shrink to width {eps} "
                f"in {MAX_SHRINK_STEPS} steps"
            )
        if _width(k) > 0:  # lo down and hi up to multiples of 2^-g, over 2^u
            g = _log2_inv(_width(k), k[4]) + _GUARD_BITS
            u, v = max(g, 0), max(-g, 0)
            k = tuple(
                s * ((s * c << u) // (k[4] << v)) << v for s, c in zip((1, -1, 1, -1), k)
            ) + (1 << u,)
        d = math.lcm(x[4], k[4])
        x = tuple(
            m(a * (d // x[4]), b * (d // k[4])) for m, a, b in zip((max, min, max, min), x, k)
        ) + (d,)
        steps += 1
    return _box(x)


def isolate_roots(f: IntPolynomial, eps) -> list[ComplexBox]:
    """Isolate all complex roots of a squarefree integer polynomial.

    Returns exactly deg(f) pairwise-disjoint closed boxes of width at
    most eps, each containing one root, sorted by (Re lo, Im lo).  The
    boxes shrink along a sequence that does not depend on eps, so the
    boxes for eps/2 are contained in the boxes for eps.  Raises
    MaxPrecisionExceeded when certification needs more than
    MAX_PRECISION_BITS, or a box more than MAX_SHRINK_STEPS steps.
    """
    if f.is_constant():
        return []
    if not is_squarefree(f):
        raise NotSquarefree(f"{f} has a repeated factor")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    df = f.derivative()
    boxes = [_shrink(f, df, x, eps) for x in _certified_rects(f, df)]
    return sorted(
        boxes, key=lambda b: (b.real.lo, b.imag.lo, b.real.hi, b.imag.hi)
    )


def isolate_outermost(f: IntPolynomial, eps) -> ComplexBox | None:
    """A box of width at most eps around _aberth's proposal of largest
    modulus in complex doubles, proven to hold exactly one root of a
    squarefree f; None where isolate_roots would retry or raise."""
    roots, df = _proposals(f.coeffs, 2**-50, outermost=True), f.derivative()
    x = _sized(f, df, *max(roots, key=lambda z: z[0] ** 2 + z[1] ** 2), 53) if roots else None
    if x is None or not _isolates(f, df, _rect(*x)):
        return None
    try:
        return _shrink(f, df, x, Fraction(eps))
    except MaxPrecisionExceeded:
        return None
