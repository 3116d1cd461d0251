"""Certified complex root isolation with exact rational boxes.

Approximate, then certify (Krawczyk 1969; Rump, "Verification methods",
Acta Numerica 2010):

- Approximate: mpmath's Durand-Kerner solver proposes all n roots at a
  working precision that starts at 53 bits and doubles, up to
  MAX_PRECISION_BITS, whenever it fails to converge or a check below
  fails.
- Candidate boxes: a dyadic box of radius max(4n|f/f'|, 2^(-prec/2))
  goes around each approximation; it is a real box, with imaginary part
  [0, 0], when the approximation lies within that radius of the real
  axis.
- Certify: the set is accepted only when the n boxes are pairwise
  disjoint and every box X passes isolates_one_root, the strict test
  K(X) ⊂ int X that verify_witness_certificate applies, with
  K(X) = y - Y f(y) + (1 - Y f'(X))(X - y) in exact rational rectangle
  arithmetic.  It puts exactly one root in X, so n disjoint boxes of a
  polynomial of degree n together hold every root.
- Shrink: each box is brought to width at most eps by X <- K(X) ∩ X,
  rounded outward to dyadics.  The root is a fixed point of the Krawczyk
  map, so it stays inside; the sequence of boxes does not depend on eps,
  so the boxes for eps/2 nest in the boxes for eps.

Floats and multiprecision numbers only propose candidates; every
decision is an exact rational comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import MaxPrecisionExceeded, NotSquarefree
from .intervals import RationalInterval
from .intpoly import IntPolynomial, is_squarefree

MAX_PRECISION_BITS = 53 << 6  # working-precision cap of the approximation step
MAX_FALLBACK_DEGREE = 32  # verify_witness_certificate re-isolates no higher degree
MAX_SHRINK_STEPS = 64  # Krawczyk steps allowed per box when shrinking
_GUARD_BITS = 8  # grid and inverse precision below a box's width


@dataclass(frozen=True)
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

    def straddles_unit_circle(self) -> bool:
        m2 = self.mod_squared_interval()
        return m2.lo <= 1 <= m2.hi

    def __str__(self):
        return f"{self.real} x {self.imag}"


# A rectangle is a tuple (re_lo, re_hi, im_lo, im_hi) of dyadic Fractions.


def _imul(a, b, c, d):
    """[a, b] * [c, d]."""
    p = (a * c, a * d, b * c, b * d)
    return min(p), max(p)


def _rect_mul(x, y):
    """Rectangle enclosing {u * v : u in x, v in y}."""
    rr = _imul(x[0], x[1], y[0], y[1])
    ii = _imul(x[2], x[3], y[2], y[3])
    ri = _imul(x[0], x[1], y[2], y[3])
    ir = _imul(x[2], x[3], y[0], y[1])
    return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])


def _eval_point(coeffs, yr, yi):
    """Exact f(yr + i yi)."""
    ar = ai = Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * yr - ai * yi + c, ar * yi + ai * yr
    return ar, ai


def _eval_rect(coeffs, x):
    """Rectangle enclosing f(x), by Horner's rule."""
    c = coeffs[-1]
    acc = (c, c, 0, 0)
    for c in reversed(coeffs[:-1]):
        lo, hi, ilo, ihi = _rect_mul(acc, x)
        acc = (lo + c, hi + c, ilo, ihi)
    return acc


def _width(x) -> Fraction:
    return max(x[1] - x[0], x[3] - x[2])


def _log2_inv(w: Fraction) -> int:
    """About -log2(w) for w > 0."""
    return w.denominator.bit_length() - w.numerator.bit_length()


def _scale(s: int) -> Fraction:
    return Fraction(2) ** s


def _krawczyk(f: IntPolynomial, df: IntPolynomial, x):
    """K(x) for y the centre of x and Y a dyadic approximation of
    1/f'(y); None when f'(y) = 0."""
    y_re, y_im = (x[0] + x[1]) / 2, (x[2] + x[3]) / 2
    d_re, d_im = _eval_point(df.coeffs, y_re, y_im)
    d2 = d_re * d_re + d_im * d_im
    if d2 == 0:
        return None
    inv_re, inv_im = d_re / d2, -d_im / d2
    # Y to about 16 bits more than -log2(width) significant bits, so that
    # |1 - Y f'(y)| stays well below the width and shrinking is quadratic
    bits = max(_log2_inv(_width(x)), 0) + 2 * _GUARD_BITS
    scale = _scale(bits + _log2_inv(max(abs(inv_re), abs(inv_im))))
    inv_re, inv_im = round(inv_re * scale) / scale, round(inv_im * scale) / scale
    f_re, f_im = _eval_point(f.coeffs, y_re, y_im)
    k_re = y_re - (inv_re * f_re - inv_im * f_im)
    k_im = y_im - (inv_re * f_im + inv_im * f_re)
    yd = _rect_mul((inv_re, inv_re, inv_im, inv_im), _eval_rect(df.coeffs, x))
    contraction = (1 - yd[1], 1 - yd[0], -yd[3], -yd[2])
    p = _rect_mul(contraction, (x[0] - y_re, x[1] - y_re, x[2] - y_im, x[3] - y_im))
    return (k_re + p[0], k_re + p[1], k_im + p[2], k_im + p[3])


def _box(x) -> ComplexBox:
    return ComplexBox(RationalInterval(x[0], x[1]), RationalInterval(x[2], x[3]))


def isolates_one_root(f: IntPolynomial, box: ComplexBox) -> bool:
    """Krawczyk's strict test K(X) ⊂ int X, which proves that the closed
    box holds exactly one root of f: _rect_mul is an interval 2x2 matrix
    product, so K(X) encloses Rump's Krawczyk set of f as a map R^2 -> R^2.
    A real box [a, b] x [0, 0] takes the one-dimensional test, K real and
    inside (a, b); any other degenerate box, or a constant f, fails."""
    x = (box.real.lo, box.real.hi, box.imag.lo, box.imag.hi)
    if f.is_constant() or x[2] == x[3] != 0:
        return False
    k = _krawczyk(f, f.derivative(), x)
    if k is None or not x[0] < k[0] <= k[1] < x[1]:
        return False
    if x[2] == x[3]:
        return k[2] == k[3] == 0
    return x[2] < k[2] <= k[3] < x[3]


def _to_grid(v, g: int) -> Fraction:
    """The multiple of 2**g nearest to the mpf v."""
    return int(mpmath.nint(mpmath.ldexp(v, -g))) * _scale(g)


def _candidates(f: IntPolynomial, prec: int):
    """Dyadic boxes around mpmath's root approximations at prec bits, or
    None when the approximation step fails."""
    n = f.degree
    coeffs = f.coeffs[::-1]
    with mpmath.workprec(prec):
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=50 + 10 * n)
        except mpmath.NoConvergence:
            return None
        rects = []
        for z in roots:
            z = mpmath.mpc(z)
            v, dv = mpmath.polyval(coeffs, z, derivative=True)
            if dv == 0:
                return None
            r = max(4 * n * abs(v / dv), mpmath.ldexp(1, -(prec // 2)))
            e = mpmath.frexp(r)[1]  # r <= 2**e
            radius = _scale(e)
            re = _to_grid(z.real, e - 2 * _GUARD_BITS)
            if abs(z.imag) <= mpmath.ldexp(1, e):
                im = (Fraction(0), Fraction(0))
            else:
                c = _to_grid(z.imag, e - 2 * _GUARD_BITS)
                im = (c - radius, c + radius)
            rects.append((re - radius, re + radius) + im)
    return rects


def _certified_rects(f: IntPolynomial):
    """n pairwise-disjoint rectangles, each passing isolates_one_root."""
    prec = 53
    while prec <= MAX_PRECISION_BITS:
        rects = _candidates(f, prec)
        if rects is not None:
            boxes = [_box(x) for x in rects]
            if all(
                not a.overlaps(b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]
            ) and all(isolates_one_root(f, b) for b in boxes):
                return rects
        prec *= 2
    raise MaxPrecisionExceeded(
        f"roots of {f} not certified at {MAX_PRECISION_BITS} bits of precision"
    )


def _shrink(f: IntPolynomial, df: IntPolynomial, x, eps: Fraction) -> ComplexBox:
    """x <- K(x) ∩ x, rounded outward to dyadics, until width(x) <= eps."""
    steps = 0
    while _width(x) > eps:
        k = _krawczyk(f, df, x) if steps < MAX_SHRINK_STEPS else None
        if k is None:
            raise MaxPrecisionExceeded(
                f"a root box of {f} did not shrink to width {eps} "
                f"in {MAX_SHRINK_STEPS} steps"
            )
        wk = _width(k)
        if wk > 0:
            s = _scale(_log2_inv(wk) + _GUARD_BITS)
            k = (
                math.floor(k[0] * s) / s,
                math.ceil(k[1] * s) / s,
                math.floor(k[2] * s) / s,
                math.ceil(k[3] * s) / s,
            )
        x = (max(x[0], k[0]), min(x[1], k[1]), max(x[2], k[2]), min(x[3], k[3]))
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
    boxes = [_shrink(f, df, x, eps) for x in _certified_rects(f)]
    return sorted(
        boxes, key=lambda b: (b.real.lo, b.imag.lo, b.real.hi, b.imag.hi)
    )
