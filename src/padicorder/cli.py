"""Batch command-line front end.

Subcommands: order, witness, integrate, measure, tile, verify; each
subparser names its handler.  verify re-checks every document that
--json emits, by its `kind`, which must be one of the five document
kinds; only a document without the key is read as an older witness one.
Exit codes are a function of the verdict only: 0 for finite order /
root of unity / balanced ledger / valid certificate, 2 for infinite
order / witness / imbalance / invalid certificate, 1 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from .algnum import AlgebraicNumberSpec
from .errors import MaxPrecisionExceeded, PadicOrderError, ParseError
from .haar import Cylinder, PolyDensity, cylinder_measure, integrate
from .intervals import RationalInterval
from .intpoly import IntPolynomial, check_irreducible, root_of_unity_order
from .places import (
    RootOfUnity,
    Witness,
    _conditionality,
    _frac,
    _frac_str,
    _int,
    find_witness,
    verify_witness_certificate,
    witness_cert_from_doc,
    witness_result_to_doc,
)
from .projaut import (
    OrderVerdict,
    certify_diagonal,
    projective_order,
    verify_shell_tiling,
)
from . import parsing


def _emit(doc: dict, json_output: bool, text_lines) -> None:
    if json_output:
        print(json.dumps(doc, indent=2))
    else:
        for line in text_lines:
            print(line)


def _verdict_doc(verdict: OrderVerdict, input_doc: dict) -> dict:
    doc = {
        "kind": "order",
        "verdict": "finite" if verdict.is_finite else "infinite",
        "conditionality": verdict.conditionality,
        "input": input_doc,
    }
    if verdict.order is not None:
        doc["order"] = verdict.order
    if verdict.reason is not None:
        doc["reason"] = verdict.reason
    if verdict.jordan_evidence is not None:
        doc["jordan_evidence"] = [str(c) for c in verdict.jordan_evidence.coeffs]
    if verdict.certificate is not None:
        doc["certificate"] = witness_result_to_doc(Witness(verdict.certificate))
    if verdict.eigenvalue_index is not None:
        doc["eigenvalue_index"] = verdict.eigenvalue_index
    return doc


def _order_verdict(input_doc: dict) -> OrderVerdict:
    """The verdict on an order document's input, read strictly."""
    if "matrix" in input_doc:
        return projective_order([[_frac(x) for x in row] for row in input_doc["matrix"]])
    return certify_diagonal(
        AlgebraicNumberSpec.from_poly(
            IntPolynomial.from_coeffs([_int(c) for c in coeffs]), prove=True
        )
        for coeffs in input_doc["eigenvalue_polys"]
    )


def cmd_order(args) -> int:
    if args.matrix is not None:
        rows = parsing.parse_matrix(args.matrix)
        input_doc = {"matrix": [[_frac_str(x) for x in row] for row in rows]}
    else:
        polys = [parsing.parse_polynomial(t) for t in args.eigenvalues.split(";")]
        input_doc = {"eigenvalue_polys": [[str(c) for c in f.coeffs] for f in polys]}
    verdict = _order_verdict(input_doc)
    doc = _verdict_doc(verdict, input_doc)
    lines = [f"verdict: {doc['verdict']}"]
    if verdict.is_finite:
        lines.append(f"projective order: {verdict.order}")
    else:
        lines.append(f"reason: {verdict.reason}")
        if verdict.certificate is not None:
            c = verdict.certificate
            lines.append(
                f"witness place: {c.place.kind}"
                + (f" p={c.place.prime}" if c.place.prime else "")
                + f", |alpha| >= {_frac_str(c.norm_bound)}"
            )
    lines.append(f"conditionality: {verdict.conditionality}")
    _emit(doc, args.json, lines)
    return 0 if verdict.is_finite else 2


def _approx(x: Fraction) -> str:
    """x to 7 significant digits, also past the largest float."""
    return f"{Decimal(x.numerator) / x.denominator:.7g}"


def cmd_witness(args) -> int:
    f = parsing.parse_polynomial(args.poly)
    status = check_irreducible(f)
    alpha = AlgebraicNumberSpec(f.primitive_part(), None, status)
    result = find_witness(alpha)
    doc = witness_result_to_doc(result)
    doc["kind"] = "witness"
    doc["alpha_poly"] = [str(c) for c in f.primitive_part().coeffs]
    doc["irreducibility"] = status
    if isinstance(result, RootOfUnity):
        lines = [
            f"root of unity of order {result.order}",
            f"conditionality: {result.conditionality}",
        ]
        _emit(doc, args.json, lines)
        return 0
    cert = result.certificate
    mi = cert.modulus_interval()
    lines = [
        f"witness place: {cert.place.kind}"
        + (f" p={cert.place.prime}, slope={cert.place.slope}" if cert.place.prime else ""),
        f"norm bound: |alpha| >= {_frac_str(cert.norm_bound)}"
        f" (modulus in [{_approx(mi.lo)}, {_approx(mi.hi)}] approximate)",
        f"conditionality: {cert.conditionality}",
    ]
    _emit(doc, args.json, lines)
    return 2


def cmd_integrate(args) -> int:
    p = args.prime
    f = parsing.parse_multipoly(args.density, args.dim)
    density = PolyDensity(f, args.root_index)
    center = (
        tuple(parsing.parse_rational(c) for c in args.center.split(","))
        if args.center
        else (Fraction(0),) * f.nvars
    )
    region = Cylinder(p, f.nvars, center, args.region_depth)
    interval = integrate(density, region, args.depth)
    doc = {
        "kind": "integral",
        "prime": p,
        "density": args.density,
        "root_index": args.root_index,
        "depth": args.depth,
        "region": {
            "center": [_frac_str(c) for c in region.center],
            "depth": region.depth,
            "dim": region.dimension,
        },
        "interval": {"lo": _frac_str(interval.lo), "hi": _frac_str(interval.hi)},
        "approx": [float(interval.lo), float(interval.hi)],
    }
    _emit(
        doc,
        args.json,
        [
            f"integral of |{args.density}|^(1/{args.root_index}) at p={p}, depth {args.depth}:",
            f"  lo = {_frac_str(interval.lo)}",
            f"  hi = {_frac_str(interval.hi)}",
            f"  approximate: [{float(interval.lo):.12g}, {float(interval.hi):.12g}]",
        ],
    )
    return 0


def _measure_doc(p: int, dim: int, depth: int) -> dict:
    if dim > 999:  # integrate's bound, checked before a center is built
        raise ValueError(f"dimension {dim} must be 1 to 999")
    region = Cylinder(p, dim, (Fraction(0),) * dim, depth)
    return {
        "kind": "measure",
        "prime": p,
        "depth": depth,
        "dim": dim,
        "measure": _frac_str(cylinder_measure(region)),
    }


def cmd_measure(args) -> int:
    doc = _measure_doc(args.prime, args.dim, args.region_depth)
    _emit(doc, args.json, [f"measure = {doc['measure']}"])
    return 0


def _tile_doc(p: int, s: int, m_range: int) -> dict:
    balanced, ledger = verify_shell_tiling(p, s, m_range)
    return {
        "kind": "tile",
        "prime": p,
        "scale": s,
        "m_range": m_range,
        "balanced": balanced,
        "mu_A": _frac_str(ledger["mu_A"]),
        "total": _frac_str(ledger["total"]),
        "annulus": _frac_str(ledger["annulus"]),
        "per_N": [
            {"n": e["n"], "measure": _frac_str(e["measure"]), "scaling_ok": e["scaling_ok"]}
            for e in ledger["per_N"]
        ],
    }


def cmd_tile(args) -> int:
    doc = _tile_doc(args.prime, args.scale, args.range)
    _emit(
        doc,
        args.json,
        [
            f"shell A = {{1 <= |y| < {args.prime}^{args.scale}}}, mu(A) = {doc['mu_A']}",
            f"sum over N in [-{args.range}, {args.range}]: {doc['total']}",
            f"annulus measure (independent): {doc['annulus']}",
            f"balanced: {doc['balanced']}",
        ],
    )
    return 0 if doc["balanced"] else 2


def _same_json(recomputed: dict, claimed: dict) -> bool:
    """Equal as JSON text, so that 6.0 or true never stands for 6 or 1."""
    return json.dumps(recomputed, sort_keys=True) == json.dumps(claimed, sort_keys=True)


def _verify_order_doc(doc: dict) -> bool:
    """The recomputed verdict equals the claimed one apart from the nested
    witness, which may name another place: it must share the recomputed
    polynomial and conditionality, and its place must verify on its own."""
    inp, claimed = doc["input"], dict(doc)
    recomputed = _verdict_doc(_order_verdict(inp), inp)
    if ("certificate" in recomputed) != ("certificate" in claimed):
        return False
    cert, claimed_cert = recomputed.pop("certificate", None), claimed.pop("certificate", None)
    if not _same_json(recomputed, claimed):
        return False
    return cert is None or (
        all(_same_json(cert[k], claimed_cert[k]) for k in ("case", "alpha_poly", "conditionality"))
        and verify_witness_certificate(witness_cert_from_doc(claimed_cert))
    )


def _verify_witness_doc(doc: dict) -> bool:
    f = IntPolynomial.from_coeffs([_int(c) for c in doc["alpha_poly"]])
    status = check_irreducible(f)
    if doc["irreducibility"] != status:
        return False
    if doc["conditionality"] != _conditionality(f, status):
        return False
    if doc["case"] == "root_of_unity":
        return root_of_unity_order(f) == _int(doc["order"])
    return doc["case"] == "witness" and verify_witness_certificate(
        witness_cert_from_doc(doc)
    )


def _verify_tile_doc(doc: dict) -> bool:
    args = _int(doc["prime"]), _int(doc["scale"]), _int(doc["m_range"])
    return _same_json(_tile_doc(*args), doc)


def _verify_measure_doc(doc: dict) -> bool:
    args = _int(doc["prime"]), _int(doc["dim"]), _int(doc["depth"])
    return _same_json(_measure_doc(*args), doc)


def _verify_integral_doc(doc: dict) -> bool:
    f = parsing.parse_multipoly(doc["density"], _int(doc["region"]["dim"]))
    region = Cylinder(
        _int(doc["prime"]),
        _int(doc["region"]["dim"]),
        tuple(_frac(c) for c in doc["region"]["center"]),
        _int(doc["region"]["depth"]),
    )
    interval = integrate(PolyDensity(f, _int(doc["root_index"])), region, _int(doc["depth"]))
    claimed = RationalInterval(_frac(doc["interval"]["lo"]), _frac(doc["interval"]["hi"]))
    approx = [float(interval.lo), float(interval.hi)]
    return interval.intersects(claimed) and doc["approx"] == approx


def cmd_verify(args) -> int:
    if args.file == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.file) as fh:
            doc = json.load(fh)
    kind = None
    if isinstance(doc, dict):  # older witness documents carry no kind
        kind = doc["kind"] if "kind" in doc else ("witness" if "case" in doc else None)
    checkers = {
        "order": _verify_order_doc,
        "witness": _verify_witness_doc,
        "tile": _verify_tile_doc,
        "integral": _verify_integral_doc,
        "measure": _verify_measure_doc,
    }
    if not isinstance(kind, str) or kind not in checkers:
        print(f"unknown certificate kind {kind!r}", file=sys.stderr)
        return 1
    try:
        ok = checkers[kind](doc)
    except MaxPrecisionExceeded as exc:
        # a cap of this verifier, not a defect of the document
        print(f"{kind} certificate exceeds this verifier's limits: {exc!r}", file=sys.stderr)
        ok = False
    except (
        ArithmeticError, AttributeError, LookupError, TypeError, ValueError, PadicOrderError
    ) as exc:
        # a field is missing, mistyped or out of range
        print(f"malformed {kind} certificate: {exc!r}", file=sys.stderr)
        ok = False
    print(f"certificate {'VALID' if ok else 'INVALID'} ({kind})")
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padicorder",
        description="Exact certification of projective-automorphism orders, "
        "local-field witnesses, and p-adic Haar integration.",
    )
    ap.add_argument("--json", action="store_true", help="emit JSON documents")
    ap.add_argument(
        "--max-doublings",
        type=int,
        help="accepted for compatibility; has no effect",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="finite/infinite order in PGL")
    p_order.set_defaults(handler=cmd_order)
    group = p_order.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="rows of rationals, e.g. '1,1;0,1'")
    group.add_argument(
        "--eigenvalues",
        help="defining polynomials of the eigenvalues, ';'-separated, "
        "e.g. '[5,-6,5];[1,1]' or 'x^2 - x + 1'",
    )

    p_wit = sub.add_parser("witness", help="root-of-unity test / |alpha|>1 witness")
    p_wit.set_defaults(handler=cmd_witness)
    p_wit.add_argument("poly", help="defining polynomial: '[c0,...,cn]' or 'x^2 - x + 1'")

    p_int = sub.add_parser("integrate", help="certified integral of |f|^(1/m)")
    p_int.set_defaults(handler=cmd_integrate)
    p_int.add_argument("--prime", type=int, required=True)
    p_int.add_argument("--density", required=True, help="polynomial in x or x1..xn")
    p_int.add_argument("--root-index", type=int, default=1, dest="root_index")
    p_int.add_argument("--depth", type=int, default=10, help="subdivision depth (default 10)")
    p_int.add_argument("--dim", type=int, default=None, help="ambient dimension")
    p_int.add_argument("--center", default=None, help="region center, comma-separated rationals")
    p_int.add_argument("--region-depth", type=int, default=0, dest="region_depth")

    p_meas = sub.add_parser("measure", help="exact cylinder measure")
    p_meas.set_defaults(handler=cmd_measure)
    p_meas.add_argument("--prime", type=int, required=True)
    p_meas.add_argument("--dim", type=int, default=1)
    p_meas.add_argument("--region-depth", type=int, default=0, dest="region_depth")

    p_tile = sub.add_parser("tile", help="exact shell-tiling ledger")
    p_tile.set_defaults(handler=cmd_tile)
    p_tile.add_argument("--prime", type=int, required=True)
    p_tile.add_argument("--scale", type=int, required=True, help="s with |alpha| = p^s")
    p_tile.add_argument("--range", type=int, required=True, help="check N in [-M, M]")

    p_ver = sub.add_parser("verify", help="re-check an emitted JSON certificate")
    p_ver.set_defaults(handler=cmd_verify)
    p_ver.add_argument("file", help="certificate file, or '-' for stdin")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (PadicOrderError, ValueError, OverflowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
