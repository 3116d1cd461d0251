"""Newton polygons, witness certificates, product formula, serialization."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from padicorder import (
    AlgebraicNumberSpec,
    ComplexBox,
    IntPolynomial,
    NotSquarefree,
    PPower,
    Place,
    RationalInterval,
    RootOfUnity,
    SLOPE_CONVENTION,
    Witness,
    WitnessCertificate,
    ZeroRoot,
    PROVEN,
    UNKNOWN,
    cyclotomic,
    euler_phi,
    find_witness,
    is_squarefree,
    newton_polygon,
    padic_witness,
    product_formula_check,
    root_of_unity_order,
    verify_witness_certificate,
    witness_cert_from_doc,
    witness_result_to_doc,
)

LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


def test_newton_polygon_sqrt5():
    np5 = newton_polygon(IntPolynomial((-5, 0, 1)), 5)
    assert np5.segments == ((Fraction(-1, 2), 2),)


def test_newton_polygon_linear_unit_over_p():
    # 5x - 1: root 1/5 has valuation -1, slope +1 under the stated convention.
    np5 = newton_polygon(IntPolynomial((-1, 5)), 5)
    assert np5.segments == ((Fraction(1), 1),)
    assert SLOPE_CONVENTION == "root valuation = -slope"


def test_newton_polygon_two_segments():
    # 5x^2 - 6x + 5 at p=5: valuations (1, 0, 1) give slopes -1 and +1.
    np5 = newton_polygon(IntPolynomial((5, -6, 5)), 5)
    assert np5.segments == ((Fraction(-1), 1), (Fraction(1), 1))


def test_padic_witness_key_example():
    cert = padic_witness(IntPolynomial((5, -6, 5)))
    assert cert is not None
    assert cert.place.prime == 5
    assert cert.norm_bound == Fraction(5)
    assert cert.exact_norm == PPower(5, Fraction(-1))
    assert verify_witness_certificate(cert)


def test_padic_witness_none_for_monic():
    assert padic_witness(IntPolynomial((-1, -1, 1))) is None
    # monic input is answered before the squarefree test
    assert padic_witness(IntPolynomial((1, 2, 1))) is None


def test_padic_witness_rejects_repeated_factor_when_non_monic():
    with pytest.raises(NotSquarefree):
        padic_witness(IntPolynomial((1, -4, 4)))  # (2x - 1)^2


def test_padic_witness_names_the_primitive_part_it_tests():
    with pytest.raises(NotSquarefree, match=r"^4\*x\^2 - 4\*x \+ 1 has a repeated factor$"):
        padic_witness(IntPolynomial((2, -8, 8)))  # 2 (2x - 1)^2


def _least_prime_factor(n):
    return next((q for q in range(2, math.isqrt(n) + 1) if n % q == 0), n)


def test_padic_witness_uses_the_least_prime_of_the_leading_coefficient():
    rng = random.Random(2718)
    checked = 0
    while checked < 1000:
        deg = rng.randint(1, 8)
        lead = rng.choice((-1, 1)) * rng.randint(2, 10**6)
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 30)]
        coeffs += [rng.randint(-30, 30) for _ in range(deg - 1)] + [lead]
        g = IntPolynomial.from_coeffs(coeffs).primitive_part()
        if g.leading == 1 or not is_squarefree(g):
            continue
        cert = padic_witness(g)
        p = _least_prime_factor(g.leading)
        segments = newton_polygon(g, p).segments
        first_rising = next(i for i, (s, _) in enumerate(segments) if s > 0)
        assert (cert.place.prime, cert.place.segment_index) == (p, first_rising), coeffs
        assert verify_witness_certificate(cert), coeffs
        checked += 1


def test_verifier_accepts_a_rising_segment_at_any_prime_of_the_leading_coefficient():
    cert = padic_witness(IntPolynomial((1, 1, 6)))  # 6x^2 + x + 1
    assert cert.place.prime == 2
    # at 3 the valuations (0, 0, 1) rise by 1 on the second segment
    at_3 = replace(
        cert,
        place=Place(kind="non_archimedean", prime=3, slope=Fraction(1), segment_index=1),
        norm_bound=Fraction(3),
        exact_norm=PPower(3, Fraction(-1)),
    )
    assert verify_witness_certificate(at_3)


def test_find_witness_trichotomy_cases():
    rou = find_witness(AlgebraicNumberSpec.from_poly(cyclotomic(12), prove=True))
    assert isinstance(rou, RootOfUnity) and rou.order == 12

    wit = find_witness(
        AlgebraicNumberSpec.from_poly(IntPolynomial((5, -6, 5)), prove=True)
    )
    assert isinstance(wit, Witness)
    assert wit.certificate.place.kind == "non_archimedean"

    arch = find_witness(
        AlgebraicNumberSpec.from_poly(IntPolynomial((-1, -1, 1)), prove=True)
    )
    assert isinstance(arch, Witness)
    assert arch.certificate.place.kind == "archimedean"
    assert arch.certificate.norm_bound > 1
    assert verify_witness_certificate(arch.certificate)


def test_proven_root_of_unity_verdict_matches_root_of_unity_order():
    """A proven spec is decided by comparing f with Phi_d, phi(d) = deg f;
    on every Phi_d with phi(d) <= 24 and 1,000 seeded irreducible inputs,
    half of them monic with constant term +-1 like every Phi_d, that gives
    root_of_unity_order's verdict."""
    rng = random.Random(20261019)
    specs = [
        AlgebraicNumberSpec.from_poly(cyclotomic(d), prove=True)
        for d in range(1, 2 * 24 * 24 + 1)
        if euler_phi(d) <= 24
    ]
    drawn = 0
    while drawn < 1000:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        if drawn % 2:
            coeffs[0], coeffs[-1] = rng.choice((1, -1)), 1
        coeffs[-1] = coeffs[-1] or 1
        spec = AlgebraicNumberSpec.from_poly(IntPolynomial(tuple(coeffs)), prove=True)
        if spec.irreducibility_status == PROVEN and coeffs[0] != 0:
            specs.append(spec)
            drawn += 1
    orders = []
    for spec in specs:
        result = find_witness(spec)
        orders.append(result.order if isinstance(result, RootOfUnity) else None)
        assert orders[-1] == root_of_unity_order(spec.defining_poly), spec.defining_poly
    assert len(orders) - orders.count(None) > 100  # some draws are cyclotomic too


@pytest.mark.parametrize(
    "f, kind",
    [
        (cyclotomic(12), None),
        (IntPolynomial((-1, -1, 0, 1)), "archimedean"),  # x^3 - x - 1
        (IntPolynomial((5, -6, 5)), "non_archimedean"),
    ],
)
def test_proven_spec_needs_no_cyclotomic_peel_or_gcd(monkeypatch, f, kind):
    """The irreducibility proof settles the root-of-unity question, so the
    finder neither peels cyclotomic factors nor takes a gcd."""
    from padicorder import intpoly

    def refuse(*args):
        raise AssertionError("the irreducibility proof already decides this")

    spec = AlgebraicNumberSpec.from_poly(f, prove=True)
    assert spec.irreducibility_status == PROVEN
    monkeypatch.setattr(intpoly, "factor_out_cyclotomics", refuse)
    monkeypatch.setattr(intpoly, "poly_gcd", refuse)
    result = find_witness(spec)
    if kind is None:
        assert isinstance(result, RootOfUnity) and result.order == 12
    else:
        assert result.certificate.place.kind == kind


def test_spec_status_is_proven_or_unknown():
    reducible = IntPolynomial((6, 0, -5, 0, 1))  # (x^2 - 2)(x^2 - 3)
    assert AlgebraicNumberSpec.from_poly(reducible, prove=True).irreducibility_status == UNKNOWN
    assert AlgebraicNumberSpec.from_poly(LEHMER).irreducibility_status == UNKNOWN
    assert AlgebraicNumberSpec.from_poly(LEHMER, prove=True).irreducibility_status == PROVEN


def test_find_witness_rejects_zero_root():
    with pytest.raises(ZeroRoot):
        find_witness(AlgebraicNumberSpec.from_poly(IntPolynomial((0, 1))))


@pytest.mark.parametrize(
    "coeffs, name",
    [
        ((2, 4, 2), "x^2 + 2*x + 1"),  # reported on the primitive part
        ((1, 0, 2, 0, 1), "x^4 + 2*x^2 + 1"),  # (x^2 + 1)^2, cyclotomic factors
        ((1, -4, 4), "4*x^2 - 4*x + 1"),  # (2x - 1)^2, non-monic
        ((1, 2, -1, -2, 1), "x^4 - 2*x^3 - x^2 + 2*x + 1"),  # (x^2 - x - 1)^2
    ],
)
def test_find_witness_rejects_repeated_factor(coeffs, name):
    with pytest.raises(NotSquarefree) as exc:
        find_witness(AlgebraicNumberSpec(IntPolynomial(coeffs)))
    assert str(exc.value) == f"{name} has a repeated factor"


def test_archimedean_witness_rejects_repeated_factor():
    from padicorder import archimedean_witness

    with pytest.raises(NotSquarefree) as exc:
        archimedean_witness(IntPolynomial((1, 2, -1, -2, 1)))  # (x^2 - x - 1)^2
    assert str(exc.value) == "x^4 - 2*x^3 - x^2 + 2*x + 1 has a repeated factor"


def test_archimedean_golden_ratio_interval():
    res = find_witness(AlgebraicNumberSpec.from_poly(IntPolynomial((-1, -1, 1))))
    mi = res.certificate.modulus_interval()
    # phi = 1.6180...; the certified modulus interval must contain a value there
    assert mi.lo < Fraction(1619, 1000) and mi.hi > Fraction(1618, 1000)


def test_archimedean_lehmer_interval():
    res = find_witness(AlgebraicNumberSpec.from_poly(LEHMER))
    assert isinstance(res, Witness)
    mi = res.certificate.modulus_interval()
    assert mi.intersects(
        __import__("padicorder").RationalInterval(
            Fraction(117627, 100000), Fraction(117629, 100000)
        )
    )


def test_product_formula_random():
    rng = random.Random(20260823)
    for _ in range(100):
        num = rng.randint(1, 10**6) * rng.choice([1, -1])
        den = rng.randint(1, 10**6)
        assert product_formula_check(Fraction(num, den))


def test_verify_rejects_tampered_certificate():
    cert = padic_witness(IntPolynomial((5, -6, 5)))
    doc = witness_result_to_doc(Witness(cert))
    doc["norm_bound"]["exponent"] = "2/1"
    assert not verify_witness_certificate(witness_cert_from_doc(doc))


def test_serialization_round_trip():
    for f in (IntPolynomial((5, -6, 5)), IntPolynomial((-1, -1, 1)), LEHMER):
        res = find_witness(AlgebraicNumberSpec.from_poly(f, prove=True))
        doc = witness_result_to_doc(res)
        blob = json.dumps(doc)
        cert = witness_cert_from_doc(json.loads(blob))
        assert verify_witness_certificate(cert)
        assert cert.conditionality == res.certificate.conditionality


def test_conditionality_flag():
    f = IntPolynomial((5, -6, 5))
    proven = find_witness(AlgebraicNumberSpec.from_poly(f, prove=True))
    assert proven.certificate.conditionality == "Unconditional"
    unchecked = find_witness(AlgebraicNumberSpec(f))
    assert unchecked.certificate.conditionality == "ConditionalOnIrreducibility"


def test_certificate_alpha_carries_the_spec_status():
    """Both branches: the certificate's alpha has the status of the spec
    that find_witness was given, Proven behind Unconditional."""
    for f in (IntPolynomial((5, -6, 5)), IntPolynomial((-1, -1, 0, 1))):  # p-adic, archimedean
        proven = find_witness(AlgebraicNumberSpec.from_poly(f, prove=True)).certificate
        assert (proven.alpha.irreducibility_status, proven.conditionality) == (PROVEN, "Unconditional")
        unchecked = find_witness(AlgebraicNumberSpec(f)).certificate
        assert unchecked.alpha.irreducibility_status == UNKNOWN
        assert unchecked.conditionality == "ConditionalOnIrreducibility"


# A Lehmer witness written by the earlier bisection isolator: its box has
# non-dyadic endpoints, unlike the boxes the Krawczyk isolator emits.
BISECTION_LEHMER_DOC = {
    "case": "witness",
    "alpha_poly": ["1", "1", "0", "-1", "-1", "-1", "-1", "-1", "0", "1", "1"],
    "conditionality": "ConditionalOnIrreducibility",
    "slope_convention": "root valuation = -slope",
    "place": {
        "type": "archimedean",
        "box": {"re": ["7/6", "6/5"], "im": ["0/1", "0/1"]},
        "root_index": 9,
    },
    "norm_bound": {"num": "38229", "den": "32768"},
    "modulus_squared": ["49/36", "36/25"],
    "kind": "witness",
    "irreducibility": "Unknown",
}


def test_bisection_era_lehmer_document_still_verifies():
    assert verify_witness_certificate(witness_cert_from_doc(BISECTION_LEHMER_DOC))


def test_verify_rejects_box_holding_two_roots():
    # x^2 - 5x + 6 has roots 2 and 3, both inside the claimed box
    box = ComplexBox(
        RationalInterval(Fraction(3, 2), Fraction(7, 2)),
        RationalInterval(Fraction(-1, 2), Fraction(1, 2)),
    )
    m2 = box.mod_squared_interval()
    cert = WitnessCertificate(
        alpha=AlgebraicNumberSpec(IntPolynomial((6, -5, 1))),
        place=Place(kind="archimedean", root_box=box),
        norm_bound=Fraction(3, 2),
        modulus_squared=m2,
    )
    assert m2.lo > 1 and cert.norm_bound**2 <= m2.lo  # only the root count fails
    assert not verify_witness_certificate(cert)


def count_isolations(monkeypatch):
    import padicorder.places as places

    calls = []
    real = places.isolate_roots

    def counting(f, eps):
        calls.append(eps)
        return real(f, eps)

    monkeypatch.setattr(places, "isolate_roots", counting)
    return calls


def test_archimedean_witness_isolates_once(monkeypatch):
    # at most one full isolation; on Lehmer, none: the outermost root suffices
    import padicorder.places as places

    calls = count_isolations(monkeypatch)
    cert = places.archimedean_witness(LEHMER)
    assert len(calls) == 0
    assert cert.modulus_squared.lo > 1
    assert verify_witness_certificate(cert)


def test_archimedean_witness_falls_back_to_one_isolation(monkeypatch):
    import padicorder.places as places

    calls = count_isolations(monkeypatch)
    monkeypatch.setattr(places, "isolate_outermost", lambda f, eps: None)
    cert = places.archimedean_witness(LEHMER)
    assert len(calls) == 1
    assert cert.modulus_squared.lo > 1
    assert verify_witness_certificate(cert)


def test_archimedean_witness_computes_one_modulus_squared(monkeypatch):
    calls = []
    real = ComplexBox.mod_squared_interval
    monkeypatch.setattr(ComplexBox, "mod_squared_interval", lambda b: calls.append(b) or real(b))
    import padicorder.places as places

    cert = places.archimedean_witness(LEHMER)
    assert calls == [cert.place.root_box]


def test_verify_rejects_archimedean_repeated_factor_and_unknown_kind():
    cert = find_witness(AlgebraicNumberSpec.from_poly(LEHMER)).certificate
    assert verify_witness_certificate(cert)
    squared = replace(cert, alpha=AlgebraicNumberSpec(LEHMER * LEHMER))
    assert not verify_witness_certificate(squared)
    unknown = replace(cert, place=replace(cert.place, kind="archimedian"))
    assert not verify_witness_certificate(unknown)


def parity_inputs():
    """Criterion 7's draws, then seeded monic squarefree polynomials of
    degree 7-40."""
    from test_acceptance import criterion_7_draws

    yield from criterion_7_draws()
    rng = random.Random(22)
    for deg in range(7, 41, 3):
        while True:
            f = IntPolynomial.from_coeffs([rng.randint(-9, 9) for _ in range(deg)] + [1])
            if f.constant != 0 and is_squarefree(f):
                yield f
                break


def test_outermost_witness_matches_the_full_isolation(monkeypatch):
    import padicorder.places as places

    def outcome(res):
        if isinstance(res, RootOfUnity):
            return res.order, res.conditionality
        return res.certificate.place.kind, res.certificate.conditionality

    def refuse(f, eps):
        raise AssertionError("the verifier re-isolated")

    archimedean = 0
    for f in parity_inputs():
        alpha = AlgebraicNumberSpec.from_poly(f)
        with monkeypatch.context() as m:
            m.setattr(places, "isolate_outermost", lambda f, eps: None)
            forced = find_witness(alpha)
        res = find_witness(alpha)
        assert outcome(res) == outcome(forced), f
        if outcome(res)[0] == "archimedean":
            archimedean += 1
            assert res.certificate.modulus_squared.lo > 1
            with monkeypatch.context() as m:
                m.setattr(places, "isolate_roots", refuse)  # the strict test alone
                assert verify_witness_certificate(res.certificate), f
    assert archimedean > 100


def test_honest_degree_40_witness_verifies_without_isolating(monkeypatch):
    # above degree 32 the verifier refuses to re-isolate, so an honest
    # witness must pass the strict Krawczyk test on its own box
    import padicorder.places as places

    rng = random.Random(40)
    while True:
        f = IntPolynomial.from_coeffs([rng.randint(-5, 5) for _ in range(40)] + [1])
        if f.constant != 0 and is_squarefree(f):
            break
    cert = places.archimedean_witness(f)

    def refuse(f, eps):
        raise AssertionError("the verifier re-isolated")

    monkeypatch.setattr(places, "isolate_roots", refuse)
    assert verify_witness_certificate(cert)


def test_archimedean_witness_no_root_outside_unit_circle():
    from padicorder import MaxPrecisionExceeded, archimedean_witness

    with pytest.raises(MaxPrecisionExceeded):
        archimedean_witness(IntPolynomial((-1, 2)))  # 2x - 1, root 1/2


def test_padic_norm_bound_read_from_both_fields():
    cert = padic_witness(IntPolynomial((5, -6, 5)))
    doc = witness_result_to_doc(Witness(cert))
    assert witness_cert_from_doc(doc).exact_norm == PPower(5, Fraction(-1))
    doc["norm_bound"]["p"] = 7
    parsed = witness_cert_from_doc(doc)
    assert parsed.exact_norm == PPower(7, Fraction(-1))
    assert not verify_witness_certificate(parsed)


def test_unknown_place_type_raises():
    res = find_witness(AlgebraicNumberSpec.from_poly(IntPolynomial((-1, -1, 1))))
    doc = witness_result_to_doc(res)
    doc["place"]["type"] = "archimedian"
    with pytest.raises(ValueError):
        witness_cert_from_doc(doc)


# --- the verifier's strict Krawczyk test and its re-isolation fallback --------


def counted_isolations(monkeypatch):
    """The epsilons of every isolate_roots call that places makes."""
    import padicorder.places as places

    calls = []
    real = places.isolate_roots

    def counting(f, eps):
        calls.append(eps)
        return real(f, eps)

    monkeypatch.setattr(places, "isolate_roots", counting)
    return calls


def arch_cert(coeffs, re_lo, re_hi, im_lo, im_hi):
    """An archimedean certificate on the given box whose only possible
    fault is the box: 2m/(1+m) lies in (1, sqrt(m)] for m = |box|^2 lo > 1."""
    box = ComplexBox(
        RationalInterval(Fraction(re_lo), Fraction(re_hi)),
        RationalInterval(Fraction(im_lo), Fraction(im_hi)),
    )
    m2 = box.mod_squared_interval()
    return WitnessCertificate(
        alpha=AlgebraicNumberSpec(IntPolynomial(coeffs)),
        place=Place(kind="archimedean", root_box=box),
        norm_bound=2 * m2.lo / (1 + m2.lo),
        modulus_squared=m2,
    )


@pytest.mark.parametrize(
    "coeffs,box,valid,fallback",
    [
        ((-5, 0, 1), ("2", "5/2", "0", "0"), True, False),  # sqrt 5, one test
        ((4, 0, 1), ("-1/4", "1/4", "7/4", "9/4"), True, False),  # 2i, one test
        ((6, -5, 1), ("3/2", "7/2", "-1/2", "1/2"), False, True),  # two roots
        ((6, -5, 1), ("3/2", "3", "-1/2", "1/2"), False, True),  # root 3 on the edge
        ((6, -5, 1), ("3/2", "3", "0", "0"), False, True),  # the same, real box
        ((6, -5, 1), ("9/4", "11/4", "-1/4", "1/4"), False, True),  # off every root
        ((-6, 1, 1), ("5/4", "4", "-1", "1"), True, True),  # one root, K(X) ⊄ int X
        ((4, 0, 1), ("-1/2", "1/2", "2", "2"), False, True),  # off-axis degenerate
        ((4, 0, 1), ("0", "0", "3/2", "5/2"), False, True),  # zero real width
        ((-2, 1), ("1", "3", "1", "1"), False, True),  # off-axis, K(X) = {2}
        ((-3, 2), ("3/2", "2", "0", "0"), False, True),  # lone root on the edge
    ],
)
def test_verify_strict_krawczyk_or_fallback(monkeypatch, coeffs, box, valid, fallback):
    cert = arch_cert(coeffs, *box)
    assert cert.norm_bound > 1 and cert.modulus_squared.lo > 1
    calls = counted_isolations(monkeypatch)
    assert verify_witness_certificate(cert) is valid
    assert len(calls) == int(fallback)


def seeded_monic_witness_polys(count=50, seed=20261018):
    from padicorder import is_squarefree, root_of_unity_order

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(2, 10)
        f = IntPolynomial(tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,))
        if f.constant != 0 and is_squarefree(f) and root_of_unity_order(f) is None:
            out.append(f)
    return out


def test_honest_archimedean_documents_verify_without_isolating(monkeypatch):
    polys = [LEHMER, IntPolynomial((1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 1))]
    docs = [
        witness_result_to_doc(find_witness(AlgebraicNumberSpec(f)))
        for f in polys + seeded_monic_witness_polys()
    ]
    assert all(doc["place"]["type"] == "archimedean" for doc in docs)
    assert not any("root_index" in doc["place"] for doc in docs)
    calls = counted_isolations(monkeypatch)
    for doc in docs:
        assert verify_witness_certificate(witness_cert_from_doc(json.loads(json.dumps(doc))))
    assert calls == []


def test_bisection_era_document_root_index_is_read_strictly():
    doc = json.loads(json.dumps(BISECTION_LEHMER_DOC))
    del doc["place"]["root_index"]
    assert verify_witness_certificate(witness_cert_from_doc(doc))
    doc["place"]["root_index"] = 9.0
    with pytest.raises(ValueError):
        witness_cert_from_doc(doc)
