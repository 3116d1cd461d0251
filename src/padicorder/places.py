"""Places of number fields and certified witnesses |rho(alpha)| > 1.

Implements the trichotomy for an algebraic number alpha: either it is a
root of unity, or there is a place of its field — non-archimedean via a
Newton polygon slope, or archimedean via certified root isolation —
where some conjugate has absolute value strictly greater than 1.

Slope convention (stated in every certificate): over points
(i, v_p(c_i)) read left to right, a hull segment of slope s certifies
`length` roots of p-adic valuation -s; a positive slope therefore
certifies a root of absolute value p^s > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import factorint

from .algnum import AlgebraicNumberSpec, UNCHECKED
from .errors import MaxPrecisionExceeded, NotSquarefree, ZeroRoot
from .intervals import RationalInterval, kth_root_enclosure, p_power_enclosure
from .intpoly import (
    PROVEN,
    IntPolynomial,
    is_squarefree,
    root_of_unity_order,
)
from .isolation import ComplexBox, isolate_roots
from .padic import PPower, padic_valuation

UNCONDITIONAL = "Unconditional"
CONDITIONAL = "ConditionalOnIrreducibility"

SLOPE_CONVENTION = "root valuation = -slope"


@dataclass(frozen=True)
class NewtonPolygon:
    prime: int
    points: tuple[tuple[int, int], ...]  # (i, v_p(c_i)) for nonzero c_i
    lower_hull: tuple[tuple[int, int], ...]
    segments: tuple[tuple[Fraction, int], ...]  # (slope, length)

    def total_rise(self) -> Fraction:
        return sum((s * l for s, l in self.segments), Fraction(0))


def newton_polygon(f: IntPolynomial, p: int) -> NewtonPolygon:
    """Lower convex hull of {(i, v_p(c_i)) : c_i != 0}."""
    points = tuple(
        (i, padic_valuation(c, p)) for i, c in enumerate(f.coeffs) if c != 0
    )
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop x2 unless it turns strictly upward
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple(
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
    return NewtonPolygon(p, points, tuple(hull), segments)


@dataclass(frozen=True)
class Place:
    """A place of the field Q(alpha), pinned to computational data."""

    kind: str  # "archimedean" | "non_archimedean"
    prime: int | None = None
    slope: Fraction | None = None
    segment_index: int | None = None
    root_box: ComplexBox | None = None
    root_index: int | None = None


@dataclass(frozen=True)
class WitnessCertificate:
    """Machine-checkable evidence that |rho(alpha)| > 1 at a place.

    norm_bound is a certified exact rational lower bound q > 1; for
    non-archimedean places the exact value p^slope is also carried as a
    PPower, for archimedean ones the exact |root|^2 enclosure.
    """

    alpha: AlgebraicNumberSpec
    place: Place
    norm_bound: Fraction
    exact_norm: PPower | None = None
    modulus_squared: RationalInterval | None = None
    conditionality: str = UNCONDITIONAL
    slope_convention: str = SLOPE_CONVENTION

    def modulus_interval(self, scale_bits: int = 64) -> RationalInterval:
        """Certified rational enclosure of the witness conjugate's modulus."""
        if self.place.kind == "non_archimedean":
            return p_power_enclosure(self.place.prime, self.place.slope, scale_bits)
        m2 = self.modulus_squared
        lo = kth_root_enclosure(m2.lo, 2, scale_bits).lo
        hi = kth_root_enclosure(m2.hi, 2, scale_bits).hi
        return RationalInterval(lo, hi)


@dataclass(frozen=True)
class RootOfUnity:
    order: int
    conditionality: str = UNCONDITIONAL


@dataclass(frozen=True)
class Witness:
    certificate: WitnessCertificate


def _rational_sqrt_lower(m2_lo: Fraction) -> Fraction:
    """A rational q with 1 < q <= sqrt(m2_lo), given m2_lo > 1."""
    bits = 16
    while True:
        q = kth_root_enclosure(m2_lo, 2, bits).lo
        if q > 1:
            return q
        bits *= 2


def padic_witness(f: IntPolynomial, conditionality: str = UNCONDITIONAL):
    """Non-archimedean witness via Newton polygons at primes dividing the
    leading coefficient; None iff f is monic up to sign (algebraic integer).
    """
    if not is_squarefree(f):
        raise NotSquarefree(f"{f} has a repeated factor")
    g = f.primitive_part()
    lc = g.leading
    if lc == 1:
        return None
    for p in sorted(factorint(lc)):
        np = newton_polygon(g, p)
        for idx, (slope, _length) in enumerate(np.segments):
            if slope > 0:
                place = Place(
                    kind="non_archimedean", prime=p, slope=slope, segment_index=idx
                )
                return WitnessCertificate(
                    alpha=AlgebraicNumberSpec(g),
                    place=place,
                    norm_bound=p_power_enclosure(p, slope, 32).lo,
                    exact_norm=PPower(p, -slope),  # value p^slope > 1
                    conditionality=conditionality,
                )
    # a primitive non-monic polynomial always has a rising hull segment
    raise AssertionError("no positive slope found for non-monic primitive input")


def archimedean_witness(
    f: IntPolynomial,
    initial_eps: Fraction = Fraction(1, 4),
    max_doublings: int = 40,
    conditionality: str = UNCONDITIONAL,
):
    """Isolate roots with doubling precision until one box certifies
    modulus > 1 by exact comparison of |box|^2 bounds against 1.
    """
    if not is_squarefree(f):
        raise NotSquarefree(f"{f} has a repeated factor")
    g = f.primitive_part()
    eps = Fraction(initial_eps)
    for _ in range(max_doublings):
        boxes = isolate_roots(g, eps)
        for idx, box in enumerate(boxes):
            m2 = box.mod_squared_interval()
            if m2.lo > 1:
                place = Place(kind="archimedean", root_box=box, root_index=idx)
                return WitnessCertificate(
                    alpha=AlgebraicNumberSpec(g),
                    place=place,
                    norm_bound=_rational_sqrt_lower(m2.lo),
                    modulus_squared=m2,
                    conditionality=conditionality,
                )
        eps /= 2
    raise MaxPrecisionExceeded(
        f"no witness root after {max_doublings} doublings; the input is "
        "either non-monic (use the p-adic branch) or a product of cyclotomics"
    )


def find_witness(alpha: AlgebraicNumberSpec):
    """Kronecker's trichotomy for a nonzero algebraic number.

    Exactly one of: (a) every factor of the defining polynomial is
    cyclotomic -> RootOfUnity; (b) the polynomial is non-monic -> p-adic
    witness; (c) monic and non-cyclotomic -> archimedean witness.
    """
    f = alpha.defining_poly.primitive_part()
    if f.constant == 0:
        raise ZeroRoot("0 is a root; the trichotomy applies to nonzero numbers")
    if not is_squarefree(f):
        raise NotSquarefree(f"{f} has a repeated factor")
    cond = (
        UNCONDITIONAL
        if alpha.irreducibility_status == PROVEN or f.degree == 1
        else CONDITIONAL
    )
    order = root_of_unity_order(f)
    if order is not None:
        return RootOfUnity(order=order, conditionality=cond)
    cert = padic_witness(f, conditionality=cond)
    if cert is not None:
        return Witness(cert)
    return Witness(archimedean_witness(f, conditionality=cond))


def product_formula_check(r) -> bool:
    """|r| * prod over p of |r|_p == 1 for a nonzero rational, exactly."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("r must be nonzero")
    total = abs(r)
    for p in factorint(abs(r.numerator)):
        total /= Fraction(p) ** padic_valuation(r.numerator, p)
    for p in factorint(r.denominator):
        total *= Fraction(p) ** padic_valuation(r.denominator, p)
    return total == 1


# --- certificate re-verification (independent of the producing path) -------


def verify_witness_certificate(cert: WitnessCertificate) -> bool:
    """Re-check a certificate from only (polynomial, place) data."""
    f = cert.alpha.defining_poly.primitive_part()
    if cert.norm_bound <= 1:
        return False
    if cert.place.kind == "non_archimedean":
        p, slope, idx = cert.place.prime, cert.place.slope, cert.place.segment_index
        if f.leading % p != 0:
            return False
        np = newton_polygon(f, p)
        if idx is None or idx >= len(np.segments):
            return False
        hull_slope = np.segments[idx][0]
        if hull_slope != slope or slope <= 0:
            return False
        return cert.norm_bound ** slope.denominator <= p ** slope.numerator
    if cert.place.kind == "archimedean":
        box = cert.place.root_box
        if box is None or not is_squarefree(f):
            return False
        m2 = box.mod_squared_interval()
        if m2.lo <= 1 or cert.norm_bound**2 > m2.lo:
            return False
        # exactly one isolated root inside the claimed box
        inside = 0
        for b in isolate_roots(f, max(box.width / 4, Fraction(1, 2**40))):
            if box.contains_box(b):
                inside += 1
            elif box.overlaps(b):
                return False  # ambiguous: a root may straddle the boundary
        return inside == 1
    return False


# --- serialization ----------------------------------------------------------


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _interval_doc(iv: RationalInterval):
    return [_frac_str(iv.lo), _frac_str(iv.hi)]


def _interval_from_doc(doc):
    return RationalInterval(Fraction(doc[0]), Fraction(doc[1]))


def _box_doc(box: ComplexBox):
    return {"re": _interval_doc(box.real), "im": _interval_doc(box.imag)}


def _box_from_doc(doc):
    return ComplexBox(_interval_from_doc(doc["re"]), _interval_from_doc(doc["im"]))


def witness_result_to_doc(result) -> dict:
    """Serialize a find_witness outcome to the certificate JSON shape."""
    if isinstance(result, RootOfUnity):
        return {
            "case": "root_of_unity",
            "order": result.order,
            "conditionality": result.conditionality,
        }
    cert = result.certificate
    doc = {
        "case": "witness",
        "alpha_poly": [str(c) for c in cert.alpha.defining_poly.coeffs],
        "conditionality": cert.conditionality,
        "slope_convention": cert.slope_convention,
    }
    if cert.place.kind == "non_archimedean":
        doc["place"] = {
            "type": "non_archimedean",
            "prime": cert.place.prime,
            "slope": _frac_str(cert.place.slope),
            "segment_index": cert.place.segment_index,
        }
        doc["norm_bound"] = {
            "p": cert.exact_norm.prime,
            "exponent": _frac_str(-cert.exact_norm.exponent),
        }
    else:
        doc["place"] = {
            "type": "archimedean",
            "box": _box_doc(cert.place.root_box),
            "root_index": cert.place.root_index,
        }
        doc["norm_bound"] = {
            "num": str(cert.norm_bound.numerator),
            "den": str(cert.norm_bound.denominator),
        }
        doc["modulus_squared"] = _interval_doc(cert.modulus_squared)
    return doc


def witness_cert_from_doc(doc: dict) -> WitnessCertificate:
    f = IntPolynomial.from_coeffs([int(c) for c in doc["alpha_poly"]])
    place_doc = doc["place"]
    if place_doc["type"] == "non_archimedean":
        slope = Fraction(place_doc["slope"])
        p = int(place_doc["prime"])
        place = Place(
            kind="non_archimedean",
            prime=p,
            slope=slope,
            segment_index=int(place_doc["segment_index"]),
        )
        exp = Fraction(doc["norm_bound"]["exponent"])
        return WitnessCertificate(
            alpha=AlgebraicNumberSpec(f, None, doc.get("irreducibility", UNCHECKED)),
            place=place,
            norm_bound=p_power_enclosure(p, exp, 32).lo,
            exact_norm=PPower(p, -exp),
            conditionality=doc["conditionality"],
        )
    box = _box_from_doc(place_doc["box"])
    place = Place(
        kind="archimedean", root_box=box, root_index=int(place_doc["root_index"])
    )
    bound = Fraction(int(doc["norm_bound"]["num"]), int(doc["norm_bound"]["den"]))
    return WitnessCertificate(
        alpha=AlgebraicNumberSpec(f, None, doc.get("irreducibility", UNCHECKED)),
        place=place,
        norm_bound=bound,
        modulus_squared=_interval_from_doc(doc["modulus_squared"]),
        conditionality=doc["conditionality"],
    )
