"""CLI: exit-code contract, JSON documents, verify round-trips."""

import json

import pytest

from padicorder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_order_finite_exit_0(capsys):
    code, out, _ = run(capsys, "order", "--matrix", "0,-1;1,0")
    assert code == 0
    assert "projective order: 2" in out


def test_order_infinite_exit_2(capsys):
    code, out, _ = run(capsys, "order", "--matrix", "1,1;0,1")
    assert code == 2
    assert "NotSemisimple" in out


def test_order_eigenvalues(capsys):
    code, doc = run_json(capsys, "order", "--eigenvalues", "x^2 + 1; [1,1]")
    assert code == 0
    assert doc["verdict"] == "finite" and doc["order"] == 4


def test_order_singular_matrix_exit_1(capsys):
    code, _, err = run(capsys, "order", "--matrix", "1,1;1,1")
    assert code == 1 and "error" in err


def test_witness_root_of_unity_exit_0(capsys):
    code, doc = run_json(capsys, "witness", "x^2 - x + 1")
    assert code == 0
    assert doc["case"] == "root_of_unity" and doc["order"] == 6


def test_witness_exit_2_padic(capsys):
    code, doc = run_json(capsys, "witness", "[5,-6,5]")
    assert code == 2
    assert doc["place"]["type"] == "non_archimedean"
    assert doc["place"]["prime"] == 5
    assert doc["norm_bound"] == {"p": 5, "exponent": "1/1"}
    assert doc["conditionality"] == "Unconditional"


def test_witness_exit_2_archimedean(capsys):
    code, doc = run_json(capsys, "witness", "x^2 - x - 1")
    assert code == 2
    assert doc["place"]["type"] == "archimedean"


def test_witness_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "witness", "x^^2")
    assert code == 1 and "parse error" in err


def test_integrate_text_and_json(capsys):
    code, doc = run_json(
        capsys, "integrate", "--prime", "3", "--density", "x", "--depth", "10"
    )
    assert code == 0
    num, den = doc["interval"]["lo"].split("/")
    assert int(den) > 0
    assert doc["approx"][0] <= 0.75 <= doc["approx"][1]
    code, out, _ = run(
        capsys, "integrate", "--prime", "3", "--density", "x", "--depth", "6"
    )
    assert code == 0 and "approximate" in out


def test_measure(capsys):
    code, out, _ = run(
        capsys, "measure", "--prime", "5", "--dim", "2", "--region-depth", "1"
    )
    assert code == 0 and "1/25" in out


def test_tile_balanced_exit_0(capsys):
    code, doc = run_json(
        capsys, "tile", "--prime", "3", "--scale", "1", "--range", "2"
    )
    assert code == 0
    assert doc["balanced"] is True
    assert doc["total"] == "242/27" == doc["annulus"]


@pytest.mark.parametrize(
    "argv",
    [
        ("witness", "[5,-6,5]"),
        ("witness", "x^2 - x + 1"),
        ("witness", "x^2 - x - 1"),
        ("order", "--matrix", "0,-1;1,0"),
        ("order", "--eigenvalues", "[5,-6,5]"),
        ("tile", "--prime", "2", "--scale", "2", "--range", "3"),
        ("integrate", "--prime", "2", "--density", "x^2 - 1", "--depth", "8"),
    ],
)
def test_verify_round_trip(capsys, tmp_path, argv):
    code, doc = run_json(capsys, *argv)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    vcode, out, _ = run(capsys, "verify", str(path))
    assert vcode == 0
    assert "VALID" in out


def test_verify_rejects_tampered(capsys, tmp_path):
    _, doc = run_json(capsys, "witness", "[5,-6,5]")
    doc["norm_bound"]["exponent"] = "3/1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2 and "INVALID" in out


def test_verify_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 1


def test_exit_codes_deterministic(capsys):
    """Same input, same code, regardless of precision flags."""
    a = main(["witness", "x^2 - x - 1"])
    capsys.readouterr()
    b = main(["--max-doublings", "10", "witness", "x^2 - x - 1"])
    capsys.readouterr()
    assert a == b == 2


def test_integrate_default_depth(capsys):
    code, doc = run_json(capsys, "integrate", "--prime", "3", "--density", "x")
    assert code == 0
    assert doc["depth"] == 10

