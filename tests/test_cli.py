"""CLI: exit-code contract, JSON documents, verify round-trips."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_order_eigenvalues_reducible_is_conditional_and_verifies(capsys, tmp_path):
    # (x + 1)(x^2 + 1): the orders 2 and 4 of both factors, on an unproven spec
    code, doc = run_json(capsys, "order", "--eigenvalues", "x^3 + x^2 + x + 1")
    assert code == 0
    assert doc["verdict"] == "finite" and doc["order"] == 4
    assert doc["conditionality"] == "ConditionalOnIrreducibility"
    path = tmp_path / "order.json"
    path.write_text(json.dumps(doc))
    vcode, out, _ = run(capsys, "verify", str(path))
    assert vcode == 0 and "VALID" in out


def test_order_singular_matrix_exit_1(capsys):
    code, _, err = run(capsys, "order", "--matrix", "1,1;1,1")
    assert code == 1 and "error" in err


def test_order_rank_one_matrix_exit_1(capsys):
    code, _, err = run(capsys, "order", "--matrix", "1,2;2,4")
    assert code == 1 and "matrix is singular" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--matrix", "-1,0;0,1"),  # argparse reads -1,0;0,1 as an option
        (),
        ("order",),
        ("frobnicate",),
        ("tile", "--prime", "two", "--scale", "1", "--range", "1"),
    ],
)
def test_usage_error_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "usage:" in err


def test_help_exit_0_and_negative_first_entry(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out
    code, out, _ = run(capsys, "order", "--matrix=-1,0;0,1")
    assert code == 0 and "projective order: 2" in out


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


def test_witness_modulus_past_the_largest_float(capsys, tmp_path):
    # roots about -3e319 and 10/3; the approximate modulus must not overflow
    poly = f"[{-10**320}, {3 * 10**319}, 1]"
    code, out, _ = run(capsys, "witness", poly)
    assert code == 2 and "e+319" in out
    code, out, _ = run(capsys, "--json", "witness", poly)
    assert code == 2
    path = tmp_path / "witness.json"
    path.write_text(out)
    vcode, vout, _ = run(capsys, "verify", str(path))
    assert vcode == 0 and "certificate VALID" in vout


def test_witness_semiprime_leading_coefficient_answers_at_once(capsys, tmp_path, deadline):
    # lc = 2 p q for p, q the primes after 10^25 and 3 10^25: the witness
    # needs only its least prime, and factoring all of lc would take hours
    with deadline(2):
        code, out, _ = run(capsys, "--json", "witness", "[1,1,600000000000000000000002120000000000000000000001742]")
    assert code == 2 and json.loads(out)["place"]["prime"] == 2
    path = tmp_path / "witness.json"
    path.write_text(out)
    vcode, vout, _ = run(capsys, "verify", str(path))
    assert vcode == 0 and "certificate VALID" in vout


def test_witness_parse_error_exit_1(capsys):
    code, _, err = run(capsys, "witness", "x^^2")
    assert code == 1 and "parse error" in err


def test_integrate_too_large_for_a_float_exit_1(capsys):
    # the enclosure is about 2^1100, past the largest float of the approximation
    code, _, err = run(capsys, "integrate", "--prime", "2", "--depth", "4", "--density", f"1/{2**1100}*x")
    assert code == 1 and err.startswith("error:")


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


def test_measure_takes_no_center(capsys):
    """A cylinder's measure does not depend on its center, so measure has no --center."""
    code, _, err = run(capsys, "measure", "--prime", "5", "--dim", "2", "--center", "1,2")
    assert code == 1 and "--center" in err


def test_measure_refuses_large_depth_or_dimension(capsys):
    # the bits cap is 2^13: p = 2 has 2 bits, so depth 4096 is the largest
    code, out, _ = run(capsys, "measure", "--prime", "2", "--region-depth", "4096")
    assert code == 0 and out == f"measure = 1/{2**4096}\n"
    code, _, err = run(capsys, "measure", "--prime", "2", "--region-depth", "4097")
    assert code == 1 and "above 8192" in err
    code, _, err = run(capsys, "measure", "--prime", "2", "--region-depth", "20000")
    assert code == 1 and "above 8192" in err
    assert run(capsys, "measure", "--prime", "2", "--dim", "999")[:2] == (0, "measure = 1/1\n")
    code, _, err = run(capsys, "measure", "--prime", "2", "--dim", "1000")
    assert code == 1 and "dimension 1000 must be 1 to 999" in err


def test_tile_balanced_exit_0(capsys):
    code, doc = run_json(
        capsys, "tile", "--prime", "3", "--scale", "1", "--range", "2"
    )
    assert code == 0
    assert doc["balanced"] is True
    assert doc["total"] == "242/27" == doc["annulus"]


def test_tile_huge_ledger_exit_1(capsys, deadline):
    with deadline(1):
        code, _, err = run(capsys, "tile", "--prime", "2", "--scale", "1", "--range", "4095")
    assert code == 1 and "4096 bits" in err


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


def test_verify_reads_stdin(capsys, monkeypatch):
    _, doc = run_json(capsys, "witness", "[5,-6,5]")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0 and "certificate VALID" in out
    doc["norm_bound"]["exponent"] = "3/1"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "verify", "-")
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


def test_witness_lehmer_unconditional_and_verifies(capsys, tmp_path):
    lehmer = "x^10 + x^9 - x^7 - x^6 - x^5 - x^4 - x^3 + x + 1"
    code, doc = run_json(capsys, "witness", lehmer)
    assert code == 2
    assert doc["conditionality"] == "Unconditional"
    assert doc["irreducibility"] == "Proven"
    path = tmp_path / "lehmer.json"
    path.write_text(json.dumps(doc))
    vcode, out, _ = run(capsys, "verify", str(path))
    assert vcode == 0 and "VALID" in out


def test_integrate_three_variables_verifies(capsys, tmp_path):
    code, doc = run_json(
        capsys, "integrate", "--prime", "5", "--density", "x1*x2-x3",
        "--dim", "3", "--depth", "3",
    )
    assert code == 0
    assert (doc["interval"]["lo"], doc["interval"]["hi"]) == ("2604/3125", "13021/15625")
    path = tmp_path / "integral.json"
    path.write_text(json.dumps(doc))
    vcode, out, _ = run(capsys, "verify", str(path))
    assert vcode == 0 and "VALID" in out


def test_witness_and_order_import_no_numpy():
    # root isolation proposes in Python complex doubles; numpy would add
    # about 11 MB to every process that answers these commands
    script = (
        "import sys\n"
        "from padicorder.cli import main\n"
        "assert main(['witness', 'x^2 - x - 1']) == 2\n"
        "assert main(['order', '--matrix=2,1;1,1']) == 2\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
