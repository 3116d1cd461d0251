"""Batch command-line front end.

Subcommands: order, witness, integrate, measure, tile, verify.
Exit codes are a function of the verdict only: 0 for finite order /
root of unity / balanced ledger / valid certificate, 2 for infinite
order / witness / imbalance / invalid certificate, 1 for input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algnum import AlgebraicNumberSpec
from .errors import PadicOrderError, ParseError
from .haar import Cylinder, PolyDensity, cylinder_measure, integrate
from .intpoly import check_irreducible
from .places import (
    RootOfUnity,
    Witness,
    _frac_str,
    find_witness,
    verify_witness_certificate,
    witness_cert_from_doc,
    witness_result_to_doc,
)
from .projaut import (
    OrderVerdict,
    ProjAutSpec,
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


def _parse_aut_spec(args) -> tuple[ProjAutSpec, dict]:
    if args.matrix is not None:
        rows = parsing.parse_matrix(args.matrix)
        spec = ProjAutSpec.from_matrix(rows)
        return spec, {"matrix": [[_frac_str(x) for x in row] for row in rows]}
    polys = [parsing.parse_polynomial(t) for t in args.eigenvalues.split(";")]
    specs = [AlgebraicNumberSpec.from_poly(f, prove=True) for f in polys]
    return ProjAutSpec.from_eigenvalues(specs), {
        "eigenvalue_polys": [[str(c) for c in f.coeffs] for f in polys]
    }


def cmd_order(args) -> int:
    spec, input_doc = _parse_aut_spec(args)
    verdict = spec.certify()
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
        f" (modulus in [{float(mi.lo):.6f}, {float(mi.hi):.6f}] approximate)",
        f"conditionality: {cert.conditionality}",
    ]
    _emit(doc, args.json, lines)
    return 2


def _region_from_args(args, p: int, n: int) -> Cylinder:
    center = (
        tuple(parsing.parse_rational(c) for c in args.center.split(","))
        if args.center
        else (Fraction(0),) * n
    )
    return Cylinder(p, n, center, args.region_depth)


def cmd_integrate(args) -> int:
    p = args.prime
    f = parsing.parse_multipoly(args.density, args.dim)
    density = PolyDensity(f, args.root_index)
    region = _region_from_args(args, p, f.nvars)
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


def cmd_measure(args) -> int:
    region = _region_from_args(args, args.prime, args.dim)
    mu = cylinder_measure(region)
    doc = {
        "kind": "measure",
        "prime": args.prime,
        "depth": region.depth,
        "dim": region.dimension,
        "measure": _frac_str(mu),
    }
    _emit(doc, args.json, [f"measure = {_frac_str(mu)}"])
    return 0


def cmd_tile(args) -> int:
    balanced, ledger = verify_shell_tiling(args.prime, args.scale, args.range)
    doc = {
        "kind": "tile",
        "prime": args.prime,
        "scale": args.scale,
        "m_range": args.range,
        "balanced": balanced,
        "mu_A": _frac_str(ledger["mu_A"]),
        "total": _frac_str(ledger["total"]),
        "annulus": _frac_str(ledger["annulus"]),
        "per_N": [
            {"n": e["n"], "measure": _frac_str(e["measure"]), "scaling_ok": e["scaling_ok"]}
            for e in ledger["per_N"]
        ],
    }
    _emit(
        doc,
        args.json,
        [
            f"shell A = {{1 <= |y| < {args.prime}^{args.scale}}}, mu(A) = {_frac_str(ledger['mu_A'])}",
            f"sum over N in [-{args.range}, {args.range}]: {_frac_str(ledger['total'])}",
            f"annulus measure (independent): {_frac_str(ledger['annulus'])}",
            f"balanced: {balanced}",
        ],
    )
    return 0 if balanced else 2


def _verify_order_doc(doc: dict) -> bool:
    inp = doc["input"]
    if "matrix" in inp:
        spec = ProjAutSpec.from_matrix(
            [[Fraction(x) for x in row] for row in inp["matrix"]]
        )
    else:
        from .intpoly import IntPolynomial

        specs = [
            AlgebraicNumberSpec.from_poly(
                IntPolynomial.from_coeffs([int(c) for c in coeffs]), prove=True
            )
            for coeffs in inp["eigenvalue_polys"]
        ]
        spec = ProjAutSpec.from_eigenvalues(specs)
    verdict = spec.certify()
    if ("finite" if verdict.is_finite else "infinite") != doc["verdict"]:
        return False
    if verdict.is_finite and verdict.order != doc.get("order"):
        return False
    if "certificate" in doc:
        return verify_witness_certificate(witness_cert_from_doc(doc["certificate"]))
    return True


def _verify_witness_doc(doc: dict) -> bool:
    if doc.get("case") == "root_of_unity":
        from .intpoly import IntPolynomial, root_of_unity_order

        f = IntPolynomial.from_coeffs([int(c) for c in doc["alpha_poly"]])
        return root_of_unity_order(f) == doc["order"]
    return verify_witness_certificate(witness_cert_from_doc(doc))


def _verify_tile_doc(doc: dict) -> bool:
    balanced, ledger = verify_shell_tiling(doc["prime"], doc["scale"], doc["m_range"])
    return (
        balanced == doc["balanced"]
        and _frac_str(ledger["total"]) == doc["total"]
        and _frac_str(ledger["annulus"]) == doc["annulus"]
    )


def _verify_integral_doc(doc: dict) -> bool:
    from .intervals import RationalInterval

    f = parsing.parse_multipoly(doc["density"], doc["region"]["dim"])
    region = Cylinder(
        doc["prime"],
        doc["region"]["dim"],
        tuple(Fraction(c) for c in doc["region"]["center"]),
        doc["region"]["depth"],
    )
    interval = integrate(PolyDensity(f, doc["root_index"]), region, doc["depth"])
    claimed = RationalInterval(
        Fraction(doc["interval"]["lo"]), Fraction(doc["interval"]["hi"])
    )
    return interval.intersects(claimed)


def cmd_verify(args) -> int:
    if args.file == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.file) as fh:
            doc = json.load(fh)
    kind = doc.get("kind") or ("witness" if "case" in doc else None)
    checkers = {
        "order": _verify_order_doc,
        "witness": _verify_witness_doc,
        "tile": _verify_tile_doc,
        "integral": _verify_integral_doc,
    }
    if kind not in checkers:
        print(f"unknown certificate kind {kind!r}", file=sys.stderr)
        return 1
    ok = checkers[kind](doc)
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
    group = p_order.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="rows of rationals, e.g. '1,1;0,1'")
    group.add_argument(
        "--eigenvalues",
        help="defining polynomials of the eigenvalues, ';'-separated, "
        "e.g. '[5,-6,5];[1,1]' or 'x^2 - x + 1'",
    )

    p_wit = sub.add_parser("witness", help="root-of-unity test / |alpha|>1 witness")
    p_wit.add_argument("poly", help="defining polynomial: '[c0,...,cn]' or 'x^2 - x + 1'")

    p_int = sub.add_parser("integrate", help="certified integral of |f|^(1/m)")
    p_int.add_argument("--prime", type=int, required=True)
    p_int.add_argument("--density", required=True, help="polynomial in x or x1..xn")
    p_int.add_argument("--root-index", type=int, default=1, dest="root_index")
    p_int.add_argument("--depth", type=int, default=10, help="subdivision depth (default 10)")
    p_int.add_argument("--dim", type=int, default=None, help="ambient dimension")
    p_int.add_argument("--center", default=None, help="region center, comma-separated rationals")
    p_int.add_argument("--region-depth", type=int, default=0, dest="region_depth")

    p_meas = sub.add_parser("measure", help="exact cylinder measure")
    p_meas.add_argument("--prime", type=int, required=True)
    p_meas.add_argument("--dim", type=int, default=1)
    p_meas.add_argument("--center", default=None)
    p_meas.add_argument("--region-depth", type=int, default=0, dest="region_depth")

    p_tile = sub.add_parser("tile", help="exact shell-tiling ledger")
    p_tile.add_argument("--prime", type=int, required=True)
    p_tile.add_argument("--scale", type=int, required=True, help="s with |alpha| = p^s")
    p_tile.add_argument("--range", type=int, required=True, help="check N in [-M, M]")

    p_ver = sub.add_parser("verify", help="re-check an emitted JSON certificate")
    p_ver.add_argument("file", help="certificate file, or '-' for stdin")

    return ap


_COMMANDS = {
    "order": cmd_order,
    "witness": cmd_witness,
    "integrate": cmd_integrate,
    "measure": cmd_measure,
    "tile": cmd_tile,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (PadicOrderError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
