"""The package's export list names what the package binds, once each, and
importing it leaves sympy unloaded."""

import os
import subprocess
import sys
import types

import padicorder


def test_export_list_resolves_without_duplicates():
    names = padicorder.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(padicorder, n)]
    assert not missing
    public = {
        n
        for n, v in vars(padicorder).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert public == set(names)


_IMPORT_PATH = """
import sys
import padicorder, padicorder.cli
from padicorder import (
    Cylinder, IntPolynomial, PolyDensity, check_irreducible, integrate,
    padic_witness, projective_order, verify_witness_certificate,
)
from padicorder.parsing import parse_multipoly
assert "sympy" not in sys.modules, "import"
# P C P^-1 for C the companion of x^3 - x - 1 and P = [[1,2,0],[0,1,-1],[1,0,1]]
assert not projective_order([[1, -2, 1], [-1, 1, 2], [2, -3, -2]]).is_finite
assert "sympy" not in sys.modules, "projective_order"
integrate(PolyDensity(parse_multipoly("x1*x2", 2), 1), Cylinder.unit_polydisc(2, 2), 8)
assert "sympy" not in sys.modules, "integrate"
assert verify_witness_certificate(padic_witness(IntPolynomial((5, -6, 5))))
assert "sympy" not in sys.modules, "verify_witness_certificate"
assert check_irreducible(IntPolynomial((1, 0, -10, 0, 1))) == "Proven"  # reducible mod every prime
assert check_irreducible(IntPolynomial((-18, -15, 7, 6))) == "Unknown"  # (2x + 3)(3x^2 - x - 6)
assert "sympy" not in sys.modules, "Zassenhaus"
from padicorder.projaut import mat_det
assert mat_det([[1, 2], [3, 4]]) == -2
assert "sympy" in sys.modules, "mat_det"
"""


def test_sympy_is_imported_only_on_use():
    """Orders of companion matrices, Haar integrals, p-adic certificates
    and Zassenhaus run without sympy; the Fraction reference mat_det
    imports it on first use."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PATH], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
