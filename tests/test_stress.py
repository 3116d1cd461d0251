"""Inputs past the benchmark's range: high-order cyclotomics, high
degrees, large coefficients and larger matrices.  Each goes through the
command line with --json and its document through `verify`, under a
deadline of at least five times the measured find-and-verify time."""

import json
import random

import pytest

from padicorder import IntPolynomial, cyclotomic, is_squarefree
from padicorder.cli import main
from padicorder.projaut import mat_inv, mat_mul


def find_and_verify(capsys, tmp_path, *argv):
    """The exit code and document of `--json argv`, once `verify` accepted it."""
    code = main(["--json", *argv])
    doc = json.loads(capsys.readouterr().out)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("certificate VALID")
    return code, doc


def poly_arg(coeffs):
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def matrix_arg(rows):
    return "--matrix=" + ";".join(",".join(str(x) for x in row) for row in rows)


@pytest.mark.parametrize(
    "coeffs, order",
    [
        (cyclotomic(105).coeffs, 105),
        ((cyclotomic(105) * cyclotomic(3)).coeffs, 105),
    ],
    ids=["phi105", "phi105_phi3"],
)
def test_high_order_root_of_unity(capsys, tmp_path, deadline, coeffs, order):
    with deadline(5):
        code, doc = find_and_verify(capsys, tmp_path, "witness", poly_arg(coeffs))
    assert code == 0 and doc["case"] == "root_of_unity" and doc["order"] == order


@pytest.mark.parametrize(
    "text, seconds",
    [
        ("x^4 - 10*x^2 + 1", 2),  # sqrt(2) + sqrt(3)
        ("x^8 - 40*x^6 + 352*x^4 - 960*x^2 + 576", 2),  # Swinnerton-Dyer, sqrt(2)+sqrt(3)+sqrt(5)
        ("x^60 - x - 1", 5),
        ("x^100 + x + 1", 10),
    ],
)
def test_archimedean_witness_at_high_degree(capsys, tmp_path, deadline, text, seconds):
    with deadline(seconds):
        code, doc = find_and_verify(capsys, tmp_path, "witness", text)
    assert code == 2 and doc["place"]["type"] == "archimedean"


def test_non_monic_degree_40_with_12_digit_coefficients(capsys, tmp_path, deadline):
    rng = random.Random(40)
    while True:
        coeffs = [rng.randint(-(10**12), 10**12) for _ in range(41)]
        if coeffs[0] and abs(coeffs[-1]) > 1 and is_squarefree(IntPolynomial.from_coeffs(coeffs)):
            break
    with deadline(5):
        code, doc = find_and_verify(capsys, tmp_path, "witness", poly_arg(coeffs))
    assert code == 2 and doc["place"]["type"] == "non_archimedean"


@pytest.mark.parametrize("n", [8, 12, 16])
def test_random_integer_matrix(capsys, tmp_path, deadline, n):
    rng = random.Random(n)
    rows = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
    with deadline(5):
        code, doc = find_and_verify(capsys, tmp_path, "order", matrix_arg(rows))
    assert code == 2 and doc["verdict"] == "infinite" and doc["reason"] == "EigenvalueWitness"


def _disguised_companion(rng, d):
    """P C P^-1 for the companion matrix C of Phi_d and a seeded unimodular P."""
    f = cyclotomic(d)
    n = f.degree
    c = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        c[i][n - 1] = -f.coeffs[i]
    lower = [[int(i == j) or (rng.randint(-1, 1) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-1, 1) if i < j else 0) for j in range(n)] for i in range(n)]
    p = mat_mul(lower, upper)
    return mat_mul(mat_mul(p, c), mat_inv(p))


@pytest.mark.parametrize("d, order", [(13, 13), (21, 21), (28, 14), (36, 18)])
def test_disguised_12x12_cyclotomic_companion(capsys, tmp_path, deadline, d, order):
    m = _disguised_companion(random.Random(d), d)
    assert len(m) == 12
    with deadline(5):
        code, doc = find_and_verify(capsys, tmp_path, "order", matrix_arg(m))
    assert code == 0 and doc["verdict"] == "finite" and doc["order"] == order
