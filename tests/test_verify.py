"""`padicorder verify`: every field a verifier reads is checked, and a
malformed document answers INVALID (exit 2) instead of crashing."""

import contextlib
import copy
import io
import json
import random
import string
from fractions import Fraction

import pytest

from padicorder.cli import main
from padicorder.errors import ParseError
from padicorder.intpoly import IntPolynomial, check_irreducible, is_squarefree
from padicorder.parsing import parse_multipoly
from padicorder.places import _conditionality, _frac, _frac_str

LEHMER = "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"

# One honest document per kind and branch.
HONEST_ARGV = {
    "witness_padic": ("witness", "[5,-6,5]"),
    "witness_arch": ("witness", "x^2 - x - 1"),
    "witness_rou": ("witness", "x^2 - x + 1"),
    "order_finite": ("order", "--matrix", "0,-1;1,0"),
    "order_jordan": ("order", "--matrix", "1,1;0,1"),
    "order_witness": ("order", "--eigenvalues", "[5,-6,5]"),
    "tile": ("tile", "--prime", "2", "--scale", "2", "--range", "3"),
    "integral": (
        "integrate", "--prime", "2", "--density", "x^2 - 1", "--depth", "6",
        "--center", "0", "--region-depth", "1",
    ),
    "measure": ("measure", "--prime", "5", "--dim", "2", "--region-depth", "1"),
}


def produce(capsys, *argv):
    main(["--json", *argv])
    return json.loads(capsys.readouterr().out)


def verify(capsys, tmp_path, doc):
    """Exit code and output of `verify` on a document (any JSON value)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path)])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


@pytest.fixture(scope="module")
def honest_docs():
    docs = {}
    for name, argv in HONEST_ARGV.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["--json", *argv])
        docs[name] = json.loads(buf.getvalue())
    return docs


# --- fields the verifiers used to ignore or misread --------------------------


def test_honest_documents_verify(capsys, tmp_path, honest_docs):
    for name, doc in honest_docs.items():
        assert verify(capsys, tmp_path, doc)[0] == 0, name


def test_segment_index_minus_one_rejected(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_padic"])
    assert doc["place"]["segment_index"] == 1  # the last of two segments
    doc["place"]["segment_index"] = -1
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_modulus_squared_must_match_box(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_arch"])
    doc["modulus_squared"] = ["100/1", "200/1"]
    assert verify(capsys, tmp_path, doc)[0] == 2


@pytest.mark.parametrize("field,value", [("p", 7), ("exponent", "1/2")])
def test_padic_norm_bound_fields_checked(capsys, tmp_path, honest_docs, field, value):
    # a weaker exponent still gives a true bound; it is rejected because
    # the document's exact norm must be p^slope
    doc = copy.deepcopy(honest_docs["witness_padic"])
    doc["norm_bound"][field] = value
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_non_prime_place_rejected(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_padic"])
    doc["place"]["prime"] = 1
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_unknown_place_type_rejected(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_arch"])
    doc["place"]["type"] = "ultrametric"
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_slope_convention_checked(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_padic"])
    doc["slope_convention"] = "root valuation = slope"
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_irreducibility_is_rederived(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_arch"])
    assert doc["irreducibility"] == "Proven"
    doc["irreducibility"] = "Unknown"
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_conditionality_is_rederived_for_reducible_input(capsys, tmp_path):
    # (x^2 - x - 1)(x^2 + 1) is squarefree and reducible, so its witness
    # is conditional; claiming it unconditional must fail
    doc = produce(capsys, "witness", "x^4 - x^3 - x - 1")
    assert doc["conditionality"] == "ConditionalOnIrreducibility"
    assert doc["irreducibility"] == "Unknown"
    assert verify(capsys, tmp_path, doc)[0] == 0
    doc["conditionality"] = "Unconditional"
    assert verify(capsys, tmp_path, doc)[0] == 2
    doc["irreducibility"] = "Proven"
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_root_of_unity_conditionality_checked(capsys, tmp_path, honest_docs):
    doc = copy.deepcopy(honest_docs["witness_rou"])
    doc["conditionality"] = "ConditionalOnIrreducibility"
    assert verify(capsys, tmp_path, doc)[0] == 2


def test_lehmer_conditionality_flip_is_the_honest_document(capsys, tmp_path):
    doc = produce(capsys, "witness", LEHMER)
    forged = dict(doc, conditionality="Unconditional", irreducibility="Proven")
    assert forged == doc
    assert verify(capsys, tmp_path, forged)[0] == 0


@pytest.mark.parametrize(
    "name,field,value",
    [
        ("order_jordan", "conditionality", "ConditionalOnIrreducibility"),
        ("order_jordan", "reason", "EigenvalueWitness"),
        ("order_witness", "reason", "NotSemisimple"),
        ("order_witness", "conditionality", "ConditionalOnIrreducibility"),
    ],
)
def test_order_conditionality_and_reason_checked(
    capsys, tmp_path, honest_docs, name, field, value
):
    doc = copy.deepcopy(honest_docs[name])
    assert doc[field] != value
    doc[field] = value
    assert verify(capsys, tmp_path, doc)[0] == 2


# --- malformed documents ------------------------------------------------------


DELETE = object()


def _mutated(doc, path, value):
    """A copy of doc with the field at path set to value, or deleted."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "name,path,value",
    [
        ("witness_arch", ("place", "box"), DELETE),
        ("witness_arch", ("norm_bound", "den"), "0"),
        ("witness_padic", ("place", "segment_index"), None),
        ("witness_rou", ("alpha_poly",), DELETE),
        ("order_finite", ("input",), {}),
    ],
)
def test_malformed_document_is_invalid(capsys, tmp_path, honest_docs, name, path, value):
    code, out = verify(capsys, tmp_path, _mutated(honest_docs[name], path, value))
    assert code == 2 and "INVALID" in out and "malformed" in out


# Integer fields are read strictly: int() would truncate 5.7 to 5 and
# read true as 1, and such documents used to verify.
@pytest.mark.parametrize(
    "name,path,value",
    [
        ("witness_padic", ("alpha_poly", 0), 5.7),
        ("witness_padic", ("alpha_poly", 0), "5.0"),
        ("witness_padic", ("place", "segment_index"), 1.9),
        ("witness_padic", ("place", "segment_index"), True),
        ("witness_padic", ("place", "prime"), 5.0),
        ("witness_arch", ("place", "root_index"), 1.0),
        ("witness_arch", ("norm_bound", "num"), 106039.0),
        ("order_witness", ("input", "eigenvalue_polys", 0, 0), 5.2),
        ("integral", ("depth",), 6.0),
        ("integral", ("prime",), 2.0),
        ("integral", ("root_index",), True),
        ("integral", ("region", "dim"), 1.0),
        ("integral", ("region", "depth"), 1.0),
    ],
)
def test_non_integer_number_is_invalid(capsys, tmp_path, honest_docs, name, path, value):
    code, out = verify(capsys, tmp_path, _mutated(honest_docs[name], path, value))
    assert code == 2 and "INVALID" in out and "malformed" in out


# Rational fields are read strictly too, and recomputed documents are
# compared as JSON text: Fraction(0.5) reads a float, and 6.0 == 6 and
# True == 1 in Python, so each of these documents used to verify.
FOUND_INTEGRAL = (
    "integrate", "--prime", "3", "--density", "x^2 - 1/4", "--depth", "6",
    "--center", "1/2", "--region-depth", "1",
)


@pytest.mark.parametrize(
    "argv,path,value",
    [
        (("witness", "x^2 - x + 1"), ("order",), 6.0),
        (("witness", "x - 1"), ("order",), True),
        (("order", "--matrix", "0,-1;1,0"), ("order",), 2.0),
        (("order", "--matrix", "0,-1;1,0"), ("input", "matrix", 0, 0), 0.0),
        (("order", "--eigenvalues", "[5,-6,5]"), ("eigenvalue_index",), 0.0),
        (("tile", "--prime", "2", "--scale", "2", "--range", "3"), ("balanced",), 1),
        (("tile", "--prime", "2", "--scale", "2", "--range", "3"), ("per_N", 0, "n"), -3.0),
        (FOUND_INTEGRAL, ("region", "center"), [0.5]),
        (("witness", "x^2 - x - 1"), ("place", "box", "im"), [0.0, 0.0]),
    ],
)
def test_float_or_bool_number_is_invalid(capsys, tmp_path, argv, path, value):
    doc = produce(capsys, *argv)
    assert verify(capsys, tmp_path, doc)[0] == 0
    code, out = verify(capsys, tmp_path, _mutated(doc, path, value))
    assert code == 2 and "INVALID" in out


def test_strict_rational_reader():
    for text, value in [(3, 3), ("3", 3), ("-3/4", Fraction(-3, 4)), ("6/08", Fraction(3, 4))]:
        assert _frac(text) == value
    for bad in [True, 0.5, 2.0, "0.5", "1/0", "1/-2", " 1/2", "1/2/3", "1e3", None, [1]]:
        with pytest.raises(ValueError):
            _frac(bad)


# --- densities are never evaluated as Python ----------------------------------


def test_density_with_python_call_is_a_parse_error():
    # the grammar reads only a sum of monomials, so a call is no term
    with pytest.raises(ParseError):
        parse_multipoly("x + len('ab')")


def test_integrate_refuses_python_density(capsys):
    assert main(["integrate", "--prime", "3", "--density", "x + len('ab')"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_integral_document_with_python_density_is_invalid(capsys, tmp_path, honest_docs):
    doc = _mutated(honest_docs["integral"], ("density",), "x + len('ab')")
    code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "INVALID" in out and "malformed" in out


# Expanding what these densities describe is slow: 14 bracketed factors
# took 11.8 s, each extra factor about 4 times more, and a power tower
# grows faster still.  The grammar has no parentheses and allows a power
# only on a variable, so these texts are refused as they are read.
BLOW_UP_DENSITIES = [
    "*".join(f"(x{2 * i + 1}+x{2 * i + 2})" for i in range(14)),
    "((x+1)^30)^30",
    "x + 10^10^6",
]


@pytest.mark.parametrize("text", BLOW_UP_DENSITIES)
def test_density_blow_up_is_a_parse_error(deadline, text):
    with deadline(1), pytest.raises(ParseError):
        parse_multipoly(text)


@pytest.mark.parametrize("text", ["x^1000", "x^2^3", "x**2", "2^3*x", "x^-1", "x1^(2)"])
def test_density_power_rule(text):
    with pytest.raises(ParseError):
        parse_multipoly(text)
    assert parse_multipoly("x1^999 * x2 ^ 2 - x2^3/7", 2)


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "tile", "prime": 3, "scale": 1, "m_range": 40000},
        {"kind": "tile", "prime": 3, "scale": 3000000, "m_range": 0},
    ],
)
def test_tile_document_with_huge_ledger_is_invalid(capsys, tmp_path, deadline, doc):
    # building these ledgers, with powers up to p^((M+1)s), runs past 30 s
    with deadline(1):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "INVALID" in out and "bits" in out


def test_integral_document_with_blow_up_density_is_invalid(capsys, tmp_path, honest_docs, deadline):
    doc = _mutated(honest_docs["integral"], ("density",), "((x+1)^40)^40")
    with deadline(1):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "INVALID" in out and "malformed" in out


# Unbounded, each of these ran for many seconds: depth 8000 for 50 s before
# failing on Python's int-to-str limit, x1*x2-x3 at p = 5 past 40 s when the
# walk visited every cylinder, and |x|^(1/100000) at depth 10 for 3.3 s.
# integrate now counts smooth and constant-valuation subtrees in closed form
# (Hensel's lemma), but charges the cap with the cylinders that a visiting
# walk would create, so the same inputs are refused by the same caps.
INTEGRAL_BLOW_UPS = [
    (("--prime", "2", "--density", "x", "--dim", "1"), 8000, 1, "bits"),
    (("--prime", "5", "--density", "x1*x2-x3", "--dim", "3"), 6, 1, "cylinders"),
    (("--prime", "2", "--density", "x", "--dim", "1"), 10, 100000, "bits"),
]


@pytest.mark.parametrize("argv, depth, m, cap", INTEGRAL_BLOW_UPS)
def test_integral_blow_up_is_refused(capsys, tmp_path, deadline, argv, depth, m, cap):
    with deadline(10):
        code = main(["integrate", *argv, "--depth", str(depth), "--root-index", str(m)])
    assert code == 1 and cap in capsys.readouterr().err
    doc = produce(capsys, "integrate", *argv, "--depth", "2")
    doc["depth"], doc["root_index"] = depth, m
    with deadline(10):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "INVALID" in out and cap in out



def test_forged_cylinder_blow_up_is_refused_within_a_second(capsys, tmp_path, deadline):
    """The cap is charged in closed form for smooth subtrees, so the forged
    depth-6 x1*x2-x3 document is refused without walking 2^20 cylinders."""
    argv, depth, m, cap = INTEGRAL_BLOW_UPS[1]
    with deadline(1):
        code = main(["integrate", *argv, "--depth", str(depth), "--root-index", str(m)])
    assert code == 1 and cap in capsys.readouterr().err
    doc = produce(capsys, "integrate", *argv, "--depth", "2")
    doc["depth"], doc["root_index"] = depth, m
    with deadline(1):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "INVALID" in out and cap in out

def test_integral_cap_is_a_verifier_limit(capsys, tmp_path):
    argv, depth, m, _ = INTEGRAL_BLOW_UPS[0]
    doc = produce(capsys, "integrate", *argv, "--depth", "2")
    doc["depth"], doc["root_index"] = depth, m
    code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "exceeds this verifier's limits" in out and "malformed" not in out


def test_integral_children_cap_is_a_verifier_limit(capsys, tmp_path, deadline):
    """2^17 children per cylinder exceed integrate's cap: the document is
    well formed, so verify reports a limit, not a malformed certificate."""
    argv = ["integrate", "--prime", "2", "--density", "x1", "--depth", "2", "--dim"]
    doc = produce(capsys, *argv, "1")
    doc["region"]["dim"], doc["region"]["center"] = 17, ["0/1"] * 17
    with deadline(1):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "exceeds this verifier's limits" in out and "malformed" not in out
    assert "children" in out
    assert main([*argv, "17"]) == 1


@pytest.mark.parametrize("value", [[], [1, 2], "witness", 3, None])
def test_non_object_is_unknown_kind(capsys, tmp_path, value):
    code, out = verify(capsys, tmp_path, value)
    assert code == 1 and "unknown certificate kind" in out


@pytest.mark.parametrize("kind", ["", None, False, 0, []])
def test_blank_kind_is_unknown_kind(capsys, tmp_path, honest_docs, kind):
    # only a document without the key is read as an older witness document
    doc = dict(honest_docs["witness_padic"], kind=kind)
    code, out = verify(capsys, tmp_path, doc)
    assert code == 1 and "unknown certificate kind" in out and "VALID" not in out


def test_document_without_kind_is_read_as_witness(capsys, tmp_path, honest_docs):
    doc = {k: v for k, v in honest_docs["witness_padic"].items() if k != "kind"}
    assert verify(capsys, tmp_path, doc) == (0, "certificate VALID (witness)\n")


def test_bad_json_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["verify", str(path)]) == 1


# --- golden order documents ----------------------------------------------------

# `--json order` output as printed before the decision moved into Q[x]/(mp),
# in compact form; the command must still print each one byte for byte.
GOLDEN_ORDER_DOCS = {
    # [[2,1],[1,1]]: N's minimal polynomial x^2 - 7x + 1, archimedean witness
    "arch_nested_witness": (
        ("--matrix=2,1;1,1",),
        2,
        '{"kind": "order", "verdict": "infinite",'
        ' "conditionality": "Unconditional",'
        ' "input": {"matrix": [["2/1", "1/1"], ["1/1", "1/1"]]},'
        ' "reason": "EigenvalueWitness",'
        ' "certificate": {"case": "witness", "alpha_poly": ["1", "-7",'
        ' "1"], "conditionality": "Unconditional",'
        ' "slope_convention": "root valuation = -slope",'
        ' "place": {"type": "archimedean",'
        ' "box": {"re": ["3768082388543/549755813888",'
        ' "3768082421311/549755813888"], "im": ["0/1", "0/1"]}},'
        ' "norm_bound": {"num": "224595", "den": "32768"},'
        ' "modulus_squared": ["14198444886847920017662849/302231454903657293676544",'
        ' "14198445133792968506958721/302231454903657293676544"]}}'
    ),
    # diag(2,3): N = diag(2/3, 3/2), whose 6x^2 - 13x + 6 has a 2-adic witness
    "padic_nested_witness": (
        ("--matrix=2,0;0,3",),
        2,
        '{"kind": "order", "verdict": "infinite",'
        ' "conditionality": "ConditionalOnIrreducibility",'
        ' "input": {"matrix": [["2/1", "0/1"], ["0/1", "3/1"]]},'
        ' "reason": "EigenvalueWitness",'
        ' "certificate": {"case": "witness", "alpha_poly": ["6",'
        ' "-13", "6"],'
        ' "conditionality": "ConditionalOnIrreducibility",'
        ' "slope_convention": "root valuation = -slope",'
        ' "place": {"type": "non_archimedean", "prime": 2,'
        ' "slope": "1/1", "segment_index": 1}, "norm_bound": {"p": 2,'
        ' "exponent": "1/1"}}}'
    ),
    # a Jordan block
    "not_semisimple": (
        ("--matrix=1,1;0,1",),
        2,
        '{"kind": "order", "verdict": "infinite",'
        ' "conditionality": "Unconditional",'
        ' "input": {"matrix": [["1/1", "1/1"], ["0/1", "1/1"]]},'
        ' "reason": "NotSemisimple", "jordan_evidence": ["-1", "1"]}'
    ),
    # (3/7) P C P^-1 for the companion C of the 12th cyclotomic polynomial
    "phi12_disguised": (
        (
            "--matrix=3/28,-3/28,9/28,-3/28;6/7,0,-3/7,3/7;"
            "9/28,3/28,-9/28,-9/28;3/14,3/14,-3/14,3/14",
        ),
        0,
        '{"kind": "order", "verdict": "finite",'
        ' "conditionality": "Unconditional",'
        ' "input": {"matrix": [["3/28", "-3/28", "9/28", "-3/28"],'
        ' ["6/7", "0/1", "-3/7", "3/7"], ["9/28", "3/28", "-9/28",'
        ' "-9/28"], ["3/14", "3/14", "-3/14", "3/14"]]}, "order": 6}'
    ),
    # Phi_3 + Phi_3 + [1]: order 3, and N = M^5 has a derogatory minimal polynomial
    "phi3_phi3_one": (
        ("--matrix=0,-1,0,0,0;1,-1,0,0,0;0,0,0,-1,0;0,0,1,-1,0;0,0,0,0,1",),
        0,
        '{"kind": "order", "verdict": "finite",'
        ' "conditionality": "Unconditional",'
        ' "input": {"matrix": [["0/1", "-1/1", "0/1", "0/1", "0/1"],'
        ' ["1/1", "-1/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1",'
        ' "-1/1", "0/1"], ["0/1", "0/1", "1/1", "-1/1", "0/1"],'
        ' ["0/1", "0/1", "0/1", "0/1", "1/1"]]}, "order": 3}'
    ),
    "eigenvalues": (
        ("--eigenvalues", "x^2 + 1; [1,1]"),
        0,
        '{"kind": "order", "verdict": "finite",'
        ' "conditionality": "Unconditional",'
        ' "input": {"eigenvalue_polys": [["1", "0", "1"], ["1",'
        ' "1"]]}, "order": 4}'
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ORDER_DOCS))
def test_golden_order_document(capsys, tmp_path, name):
    argv, code, golden = GOLDEN_ORDER_DOCS[name]
    assert main(["--json", "order", *argv]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(golden), indent=2) + "\n"
    assert verify(capsys, tmp_path, json.loads(out)) == (0, "certificate VALID (order)\n")


def _with_nested_box(doc, lo, hi, norm_bound):
    """An order document whose nested archimedean witness claims the real
    box [lo, hi] x [0, 0], with its |z|^2 bounds and the given norm bound."""
    doc = copy.deepcopy(doc)
    cert = doc["certificate"]
    cert["place"]["box"] = {"re": [_frac_str(lo), _frac_str(hi)], "im": ["0/1", "0/1"]}
    cert["modulus_squared"] = [_frac_str(lo * lo), _frac_str(hi * hi)]
    cert["norm_bound"] = {"num": str(norm_bound), "den": "1"}
    return doc


def test_order_doc_with_another_valid_nested_box_is_valid(capsys, tmp_path):
    # x^2 - 7x + 1 has one root in [6.85, 6.86], which passes the strict
    # Krawczyk test: another build may certify this box instead
    doc = json.loads(GOLDEN_ORDER_DOCS["arch_nested_witness"][2])
    other = _with_nested_box(doc, Fraction(137, 20), Fraction(343, 50), 6)
    assert other != doc
    assert verify(capsys, tmp_path, other) == (0, "certificate VALID (order)\n")


def test_order_doc_with_moved_nested_box_is_invalid(capsys, tmp_path):
    # [7, 8] holds no root of x^2 - 7x + 1, though |z| > 6 on all of it
    doc = json.loads(GOLDEN_ORDER_DOCS["arch_nested_witness"][2])
    code, out = verify(capsys, tmp_path, _with_nested_box(doc, Fraction(7), Fraction(8), 6))
    assert code == 2 and out == "certificate INVALID (order)\n"


# --- the verifier's re-isolation fallback -------------------------------------


def test_fallback_refused_above_degree_32(capsys, tmp_path, deadline):
    # a false box [2, 3] x [0, 0] on a seeded monic polynomial of degree 160
    # fails the strict test; re-isolating all 160 roots ran past 120 s
    rng = random.Random(160)
    while True:
        f = IntPolynomial.from_coeffs([rng.randint(-5, 5) for _ in range(160)] + [1])
        if f.constant != 0 and is_squarefree(f):
            break
    status = check_irreducible(f)
    doc = {
        "kind": "witness",
        "case": "witness",
        "alpha_poly": [str(c) for c in f.coeffs],
        "irreducibility": status,
        "conditionality": _conditionality(f, status),
        "slope_convention": "root valuation = -slope",
        "place": {"type": "archimedean", "box": {"re": ["2/1", "3/1"], "im": ["0/1", "0/1"]}},
        "norm_bound": {"num": "2", "den": "1"},
        "modulus_squared": ["4/1", "9/1"],
    }
    with deadline(10):
        code, out = verify(capsys, tmp_path, doc)
    assert code == 2 and "MaxPrecisionExceeded" in out and "INVALID" in out
    # a cap of the verifier, not a defect of the document
    assert "limits" in out and "malformed" not in out


# --- seeded tamper suite ------------------------------------------------------

# Mutations that still verify, because no verifier checks them: a
# widened integral interval, since the claim only has to intersect the
# recomputed enclosure, and an integer endpoint of -1 widens it.
KNOWN_UNVERIFIED = {
    ("integral", ("interval", "lo")),
}


def _paths(node, prefix=()):
    """Every path into the document except the top-level `kind`."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = prefix + (key,)
        if path == ("kind",):
            continue
        yield path
        if isinstance(value, (dict, list)):
            yield from _paths(value, path)


def _as_number(x):
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        return x


# Input fields in which any integer or rational is a valid value: there,
# -1 or a dropped list entry is another honest input, not a tampered one.
ANY_RATIONAL = {("alpha_poly",), ("input",), ("region", "center")}


def _mutations(rng, path, old):
    """Missing, null, mistyped and out-of-range values for one field; a
    value equal to the old one (-1 for "-1/1") is no mutation."""
    junk = "".join(rng.choice(string.ascii_letters + "/-") for _ in range(rng.randint(1, 6)))
    out = [None, "junk", junk, "1/0", [], {"junk": 1}]
    if not any(path[: len(p)] == p for p in ANY_RATIONAL):
        out += [DELETE, -1]
    elif isinstance(path[-1], str):
        out.append(DELETE)
    return [v for v in out if v is DELETE or _as_number(v) != _as_number(old)]


@pytest.mark.parametrize("name", sorted(HONEST_ARGV))
def test_tamper_every_field(capsys, tmp_path, honest_docs, name):
    rng = random.Random(f"tamper-{name}")
    doc = honest_docs[name]
    tried = 0
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        for value in _mutations(rng, path, node):
            code, out = verify(capsys, tmp_path, _mutated(doc, path, value))
            tried += 1
            if (name, path) in KNOWN_UNVERIFIED and value == -1:
                assert code == 0, (path, value)
                continue
            assert code == 2 and "INVALID" in out, (path, value)
    assert tried > 20
