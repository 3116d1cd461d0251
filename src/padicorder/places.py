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

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .algnum import AlgebraicNumberSpec
from .errors import MaxPrecisionExceeded, NotSquarefree, ZeroRoot
from .intervals import RationalInterval, kth_root_enclosure, p_power_enclosure
from .intpoly import (
    PROVEN,
    UNKNOWN,
    IntPolynomial,
    cyclotomic,
    euler_phi,
    is_squarefree,
    root_of_unity_order,
)
from .isolation import ComplexBox, isolate_outermost, isolate_roots, isolates_one_root
from .padic import PPower, _is_prime, padic_valuation

UNCONDITIONAL = "Unconditional"
CONDITIONAL = "ConditionalOnIrreducibility"

SLOPE_CONVENTION = "root valuation = -slope"
MAX_FALLBACK_DEGREE = 32  # verify_witness_certificate re-isolates no higher degree


@dataclass(frozen=True)
class NewtonPolygon:
    prime: int
    segments: tuple[tuple[Fraction, int], ...]  # (slope, length)


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
    return NewtonPolygon(p, segments)


@dataclass(frozen=True, slots=True)
class Place:
    """A place of the field Q(alpha), pinned to computational data."""

    kind: str  # "archimedean" | "non_archimedean"
    prime: int | None = None
    slope: Fraction | None = None
    segment_index: int | None = None
    root_box: ComplexBox | None = None


@dataclass(frozen=True, slots=True)
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

    def modulus_interval(self) -> RationalInterval:
        """Certified rational enclosure of the witness conjugate's modulus."""
        if self.place.kind == "non_archimedean":
            return p_power_enclosure(self.place.prime, self.place.slope, 64)
        m2 = self.modulus_squared
        lo = kth_root_enclosure(m2.lo, 2, 64).lo
        hi = kth_root_enclosure(m2.hi, 2, 64).hi
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


def _least_prime(n: int) -> int:
    """The least prime factor of n > 1, by trial division below 2^10 (n
    itself once p^2 > n); sympy's factorint only when no prime below 2^10
    divides n, since factoring all of a huge n can take hours."""
    for p in range(2, 1 << 10):
        if p * p > n:
            return n
        if n % p == 0:
            return p
    from sympy import factorint

    return min(factorint(n))


def padic_witness(f: IntPolynomial, conditionality: str = UNCONDITIONAL):
    """Non-archimedean witness from the first rising Newton segment at the
    least prime p of lc(g), g the primitive part, whose hull at any prime
    of lc(g) ends rising since some coefficient is a p-unit; None iff f is
    monic up to sign (algebraic integer).  Raises NotSquarefree for
    non-monic f with a repeated factor.
    """
    g = f.primitive_part()
    if g.leading == 1:
        return None
    if not is_squarefree(g):
        raise NotSquarefree(f"{g} has a repeated factor")
    p = _least_prime(g.leading)
    segments = newton_polygon(g, p).segments
    idx, slope = next((i, s) for i, (s, _) in enumerate(segments) if s > 0)
    return WitnessCertificate(
        alpha=AlgebraicNumberSpec(g),
        place=Place(kind="non_archimedean", prime=p, slope=slope, segment_index=idx),
        norm_bound=p_power_enclosure(p, slope, 32).lo,
        exact_norm=PPower(p, -slope),  # value p^slope > 1
        conditionality=conditionality,
    )


@lru_cache(maxsize=None)
def _dimitrov_width(n: int) -> Fraction:
    """(h - 1)/2 for the dyadic h = 2^(1/(4n)) rounded down, so 1 < h."""
    k = 4 * max(n, 1)
    return (kth_root_enclosure(Fraction(2), k, k.bit_length() + 4).lo - 1) / 2


def archimedean_witness(f: IntPolynomial, conditionality: str = UNCONDITIONAL):
    """Certify a root of modulus > 1 by exact comparison of |box|^2 bounds
    against 1: the outermost root alone, by isolate_outermost, or else the
    first such box of one isolate_roots call.

    The width eps = (h - 1)/2, with 1 < h <= 2^(1/(4n)), suffices: by
    Dimitrov's proof of the Schinzel-Zassenhaus conjecture (2019), a
    nonzero algebraic integer of degree d <= n that is not a root of
    unity has a conjugate z with |z| >= 2^(1/(4d)) >= h, so the outermost
    root is one, and every point of a box of width eps around it has
    modulus >= h - sqrt(2)*eps > 1.  Raises NotSquarefree for a
    repeated factor.
    """
    g = f.primitive_part()
    if not is_squarefree(g):
        raise NotSquarefree(f"{g} has a repeated factor")
    eps = _dimitrov_width(g.degree)
    box = isolate_outermost(g, eps)
    m2 = None if box is None else box.mod_squared_interval()
    if m2 is None or m2.lo <= 1:
        for box in isolate_roots(g, eps):
            m2 = box.mod_squared_interval()
            if m2.lo > 1:
                break
        else:
            raise MaxPrecisionExceeded(
                "no isolated root certifies modulus > 1; the input is either "
                "non-monic (use the p-adic branch) or a product of cyclotomics"
            )
    return WitnessCertificate(
        alpha=AlgebraicNumberSpec(g),
        place=Place(kind="archimedean", root_box=box),
        norm_bound=_rational_sqrt_lower(m2.lo),
        modulus_squared=m2,
        conditionality=conditionality,
    )


def _conditionality(f: IntPolynomial, irreducibility_status: str) -> str:
    """Unconditional when f is proven irreducible or linear."""
    if irreducibility_status == PROVEN or f.degree == 1:
        return UNCONDITIONAL
    return CONDITIONAL


def find_witness(alpha: AlgebraicNumberSpec):
    """Kronecker's trichotomy for a nonzero algebraic number.

    Exactly one of: (a) every factor of the defining polynomial is
    cyclotomic -> RootOfUnity; (b) the polynomial is non-monic -> p-adic
    witness; (c) monic and non-cyclotomic -> archimedean witness.
    A spec proven irreducible is cyclotomic iff f = Phi_d with phi(d) =
    deg f (Bradford & Davenport 1988). Any other spec goes through
    root_of_unity_order, which raises NotSquarefree for a repeated factor.
    """
    f = alpha.defining_poly.primitive_part()
    if f.constant == 0:
        raise ZeroRoot("0 is a root; the trichotomy applies to nonzero numbers")
    cond = _conditionality(f, alpha.irreducibility_status)
    if alpha.irreducibility_status == PROVEN:  # phi(d) >= sqrt(d/2) bounds d
        phis = (d for d in range(1, 2 * f.degree**2 + 1) if euler_phi(d) == f.degree)
        order = next((d for d in phis if cyclotomic(d) == f), None)
    else:
        order = root_of_unity_order(f)
    if order is not None:
        return RootOfUnity(order=order, conditionality=cond)
    cert = padic_witness(f, conditionality=cond) or archimedean_witness(f, conditionality=cond)
    return Witness(replace(cert, alpha=AlgebraicNumberSpec(f, None, alpha.irreducibility_status)))


def product_formula_check(r) -> bool:
    """|r| * prod over p of |r|_p == 1 for a nonzero rational, exactly."""
    from sympy import factorint

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
    """Re-check a certificate from only (polynomial, place) data.  An
    archimedean box passes one strict Krawczyk test, or else, re-isolated
    at a quarter of its width, holds one root and none across its edge.
    That fallback raises MaxPrecisionExceeded above MAX_FALLBACK_DEGREE."""
    f = cert.alpha.defining_poly.primitive_part()
    if cert.norm_bound <= 1:
        return False
    if cert.slope_convention != SLOPE_CONVENTION:
        return False
    if cert.place.kind == "non_archimedean":
        p, slope, idx = cert.place.prime, cert.place.slope, cert.place.segment_index
        if not _is_prime(p) or f.leading % p != 0:
            return False
        np = newton_polygon(f, p)
        if idx is None or not 0 <= idx < len(np.segments):
            return False
        hull_slope = np.segments[idx][0]
        if hull_slope != slope or slope <= 0 or cert.exact_norm != PPower(p, -slope):
            return False
        return cert.norm_bound ** slope.denominator <= p ** slope.numerator
    if cert.place.kind == "archimedean":
        box = cert.place.root_box
        if box is None or not is_squarefree(f):
            return False
        m2 = box.mod_squared_interval()
        if cert.modulus_squared != m2 or m2.lo <= 1 or cert.norm_bound**2 > m2.lo:
            return False
        if isolates_one_root(f, box):
            return True
        # fallback, e.g. for older documents' bisection boxes
        if f.degree > MAX_FALLBACK_DEGREE:
            raise MaxPrecisionExceeded(f"no re-isolation above degree {MAX_FALLBACK_DEGREE}")
        inside = 0
        for b in isolate_roots(f, max(box.width / 4, Fraction(1, 2**40))):
            if box.contains_box(b):
                inside += 1
            elif box.overlaps(b):
                return False  # ambiguous: a root may straddle the boundary
        return inside == 1
    return False


# --- serialization ----------------------------------------------------------


def _int(x) -> int:
    """A certificate integer: an int or a decimal string, never a bool or float."""
    if type(x) is int or (isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x)):
        return int(x)
    raise ValueError(f"not an integer: {x!r}")


def _frac(x) -> Fraction:
    """A certificate rational: an int, or an "a" or "a/b" string with b > 0."""
    if type(x) is int or (isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", x)):
        return Fraction(x)
    raise ValueError(f"not a rational: {x!r}")


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _interval_doc(iv: RationalInterval):
    return [_frac_str(iv.lo), _frac_str(iv.hi)]


def _interval_from_doc(doc):
    return RationalInterval(_frac(doc[0]), _frac(doc[1]))


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
        }
        doc["norm_bound"] = {
            "num": str(cert.norm_bound.numerator),
            "den": str(cert.norm_bound.denominator),
        }
        doc["modulus_squared"] = _interval_doc(cert.modulus_squared)
    return doc


def witness_cert_from_doc(doc: dict) -> WitnessCertificate:
    """Parse a witness document; raises ValueError for an unknown place type."""
    f = IntPolynomial.from_coeffs([_int(c) for c in doc["alpha_poly"]])
    alpha = AlgebraicNumberSpec(f, None, doc.get("irreducibility", UNKNOWN))
    place_doc, norm_doc = doc["place"], doc["norm_bound"]
    common = dict(
        conditionality=doc["conditionality"],
        slope_convention=doc["slope_convention"],
    )
    if place_doc["type"] == "non_archimedean":
        place = Place(
            kind="non_archimedean",
            prime=_int(place_doc["prime"]),
            slope=_frac(place_doc["slope"]),
            segment_index=_int(place_doc["segment_index"]),
        )
        p, exp = _int(norm_doc["p"]), _frac(norm_doc["exponent"])
        return WitnessCertificate(
            alpha=alpha,
            place=place,
            norm_bound=p_power_enclosure(p, exp, 32).lo,
            exact_norm=PPower(p, -exp),
            **common,
        )
    if place_doc["type"] != "archimedean":
        raise ValueError(f"unknown place type {place_doc['type']!r}")
    if "root_index" in place_doc:
        _int(place_doc["root_index"])  # older documents carry it; nothing reads it
    place = Place(kind="archimedean", root_box=_box_from_doc(place_doc["box"]))
    return WitnessCertificate(
        alpha=alpha,
        place=place,
        norm_bound=Fraction(_int(norm_doc["num"]), _int(norm_doc["den"])),
        modulus_squared=_interval_from_doc(doc["modulus_squared"]),
        **common,
    )
