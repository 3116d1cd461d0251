"""Seeded inputs, item runners and oracle checks for the four workloads.

``WORKLOADS[name]`` holds (build, execute, check).  ``build(pc, seed,
size)`` makes a workload's inputs from the seed alone: a
list of *rounds*: groups of items with a fixed composition, so a run
that stops at a round boundary always sees the same mix.  Each item is
run by ``execute`` (the timed part, which calls the library through its
public API or the in-process CLI) and judged afterwards by ``check``
against the oracles in ``bench_oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import bench_oracles as orc

# Verdicts of ``check``.
OK = "ok"
FAILED = "failed"
KNOWN_DEFECT = "known_defect"  # a forgery the verifier accepts at baseline

LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
SALEM10 = (1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 1)  # x^10 - x^6 - x^5 - x^4 + 1
# Irreducible, but reducible mod every prime: never proven, so conditional.
SQRT2_PLUS_SQRT3 = (1, 0, -10, 0, 1)


@dataclass
class Item:
    kind: str  # stratum label, for reports; never passed to the library
    payload: object
    expect: object = None


@dataclass
class Workload:
    name: str
    rounds: list
    warm: list
    trace_rounds: int
    oracle_cache: dict = field(default_factory=dict)


def import_library():
    """The padicorder package, with its cli submodule loaded.  Items call
    through module attributes, so the benchmark's tracing wrappers see
    every call."""
    import padicorder
    import padicorder.cli  # noqa: F401

    return padicorder


# --- shared helpers ---------------------------------------------------------


def _random_poly(rng, deg: int, monic: bool):
    """The criterion-7 draw: coefficients in [-20, 20], nonzero ends,
    squarefree; primitive, positive leading coefficient.  A non-monic
    draw stays non-monic after removing the content."""
    while True:
        coeffs = [rng.randint(-20, 20) for _ in range(deg + 1)]
        if monic:
            coeffs[-1] = rng.choice([1, -1])
        elif abs(coeffs[-1]) < 2:
            continue
        if coeffs[0] == 0:
            continue
        f = orc.primitive(coeffs)
        if (monic or f[-1] > 1) and orc.is_squarefree(f):
            return f


def _companion(coeffs):
    n = len(coeffs) - 1
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        m[i + 1][i] = Fraction(1)
    for i in range(n):
        m[i][n - 1] = Fraction(-coeffs[i], coeffs[-1])
    return m


def _disguise(rng, m, scale: bool = True):
    """lambda * P M P^-1 for a seeded unimodular P (three elementary
    row operations) and, with scale, a seeded lambda as in criterion 10."""
    n = len(m)
    p = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    p_inv = [row[:] for row in p]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([1, -1])
        e = [[Fraction(int(r == s)) for s in range(n)] for r in range(n)]
        e_inv = [row[:] for row in e]
        e[i][j], e_inv[i][j] = Fraction(c), Fraction(-c)
        p, p_inv = orc.mat_mul(e, p), orc.mat_mul(p_inv, e_inv)
    out = orc.mat_mul(orc.mat_mul(p, m), p_inv)
    lam = Fraction(rng.choice([2, 3, -1, 5]), rng.choice([1, 7])) if scale else Fraction(1)
    return tuple(tuple(lam * x for x in row) for row in out)


def _witness_plain(cert) -> dict:
    place = cert.place
    out = {
        "case": "witness",
        "kind": place.kind,
        "poly": tuple(cert.alpha.defining_poly.coeffs),
        "norm_bound": cert.norm_bound,
        "conditionality": cert.conditionality,
    }
    if place.kind == "non_archimedean":
        out.update(prime=place.prime, slope=place.slope)
    else:
        b = place.root_box
        out["box"] = (b.real.lo, b.real.hi, b.imag.lo, b.imag.hi)
    return out


def _witness_doc_plain(doc) -> dict:
    """The fields of a witness document that _check_witness reads."""
    place = doc["place"]
    out = {"kind": place["type"], "poly": tuple(int(c) for c in doc["alpha_poly"])}
    if place["type"] == "non_archimedean":
        out.update(prime=int(place["prime"]), slope=Fraction(place["slope"]))
        out["stated_norm"] = (int(doc["norm_bound"]["p"]), Fraction(doc["norm_bound"]["exponent"]))
    else:
        box = place["box"]
        out["box"] = tuple(Fraction(x) for x in box["re"] + box["im"])
        out["norm_bound"] = Fraction(int(doc["norm_bound"]["num"]), int(doc["norm_bound"]["den"]))
    return out


def _check_witness(coeffs, w) -> str | None:
    """Independent checks of a witness on the polynomial coeffs; returns
    a failure message or None."""
    f = orc.primitive(coeffs)
    bound = w.get("norm_bound")  # documents state p^slope instead
    if bound is not None and bound <= 1:
        return "norm bound not > 1"
    if w["kind"] == "non_archimedean":
        p, slope = w["prime"], w["slope"]
        if f[-1] % p:
            return f"prime {p} does not divide the leading coefficient"
        if slope <= 0 or slope not in orc.newton_slopes(f, p):
            return f"slope {slope} is not a rising Newton-polygon slope at {p}"
        if w.get("stated_norm", (p, slope)) != (p, slope):
            return f"stated norm {w['stated_norm']} is not p^slope"
        if bound is not None and bound ** slope.denominator > Fraction(p) ** slope.numerator:
            return "norm bound exceeds p^slope"
        return None
    if w["kind"] != "archimedean":
        return f"unknown place {w['kind']}"
    m2 = orc.box_min_mod_squared(*w["box"])
    if m2 <= 1 or bound ** 2 > m2:
        return "root box does not certify modulus > norm bound > 1"
    if not orc.box_holds_root(f, w["box"]):
        return "root box holds no root"
    return None


def _trichotomy_expect(coeffs):
    """("root_of_unity", order) | ("non_archimedean", None) | ("archimedean", None)."""
    f = orc.primitive(coeffs)
    if f[-1] != 1:
        return ("non_archimedean", None)
    order = orc.root_of_unity_order(f)
    return ("root_of_unity", order) if order else ("archimedean", None)


# --- trichotomy -----------------------------------------------------------------


TRI_CYCLO = (1, 2, 3, 4, 5, 6, 8, 12)


def _tri_block(rng, degrees):
    """One cyclotomic input, then every third input forced monic and the
    rest non-monic, with the degrees in ``degrees`` (once each among the
    monic inputs, twice among the non-monic ones) in a seeded order, so
    every block has the same branch and degree mix."""
    monic, free = list(degrees), list(degrees) * 2
    rng.shuffle(monic)
    rng.shuffle(free)
    block = [("cyclotomic", orc.cyclotomic(rng.choice(TRI_CYCLO)))]
    for d in monic:
        for _ in range(2):
            block.append(("non_monic", _random_poly(rng, free.pop(), monic=False)))
        block.append((f"monic_deg{d}", _random_poly(rng, d, monic=True)))
    return block


def build_trichotomy(pc, seed, size):
    rng = random.Random(seed)
    tiny = size == "tiny"
    n_blocks = 2 if tiny else 40
    # degree 6 twice: the ten slowest items of a run, which set the tail,
    # then come from one stratum instead of straddling two
    degrees = (1, 2, 3) if tiny else (1, 2, 3, 4, 5, 6, 6)
    mk = pc.IntPolynomial.from_coeffs
    rounds = [
        [Item(kind, mk(f), _trichotomy_expect(f)) for kind, f in _tri_block(rng, degrees)]
        for _ in range(n_blocks)
    ]
    warm = [Item("warm", mk(f), _trichotomy_expect(f)) for f in ((5, -6, 5), (-1, -1, 1), (1, 1, 1))]
    return Workload("trichotomy", rounds, warm, trace_rounds=1 if tiny else 4)


def exec_trichotomy(pc, item, ctx):
    spec = pc.AlgebraicNumberSpec.from_poly(item.payload, prove=True)
    res = pc.find_witness(spec)
    if isinstance(res, pc.RootOfUnity):
        return {"case": "root_of_unity", "order": res.order}
    out = _witness_plain(res.certificate)
    out["verified"] = pc.verify_witness_certificate(res.certificate)
    return out


def check_trichotomy(pc, wl, item, out):
    branch, order = item.expect
    coeffs = item.payload.coeffs
    if branch == "root_of_unity":
        if out["case"] != "root_of_unity" or out["order"] != order:
            return FAILED, f"expected root of unity of order {order}, got {out}"
        return OK, None
    if out["case"] != "witness" or out["kind"] != branch:
        return FAILED, f"expected a {branch} witness, got {out.get('case')} {out.get('kind')}"
    if not out["verified"]:
        return FAILED, "witness did not re-verify"
    msg = _check_witness(coeffs, out)
    return (FAILED, msg) if msg else (OK, None)


# --- projorder ------------------------------------------------------------------


# five cheap, four middling, four slow items a round: the median falls
# inside one middling kind rather than between two
PROJ_FINITE = (3, 4, 6, 5, 8, 10, 12, 7)
# x^3 - x - 1 twice: two disguises per round keep the tail in one stratum
PROJ_INFINITE = ((-1, -1, 1), (-1, -1, 0, 1), (-1, -1, 0, 1), (-1, -1, 0, 0, 1), (5, -6, 5))


def build_projorder(pc, seed, size):
    rng = random.Random(seed)
    tiny = size == "tiny"
    finite = (3, 4) if tiny else PROJ_FINITE
    infinite = (PROJ_INFINITE[0], PROJ_INFINITE[-1]) if tiny else PROJ_INFINITE
    bases = [(f"phi{d}", _companion(orc.cyclotomic(d)), ("finite", d if d % 2 else d // 2)) for d in finite]
    bases += [(f"companion_deg{len(f) - 1}", _companion(f), ("infinite", None)) for f in infinite]
    rounds = []
    for _ in range(2 if tiny else 12):
        rnd = [Item(kind, _disguise(rng, m), expect) for kind, m, expect in bases]
        rng.shuffle(rnd)
        rounds.append(rnd)
    warm = [Item("warm", _disguise(rng, _companion(orc.cyclotomic(3))), ("finite", 3))]
    return Workload("projorder", rounds, warm, trace_rounds=1)


def exec_projorder(pc, item, ctx):
    v = pc.projective_order(item.payload)
    return {
        "finite": v.is_finite,
        "order": v.order,
        "reason": v.reason,
        "cert": v.certificate,
    }


def check_projorder(pc, wl, item, out):
    kind, order = item.expect
    m = [list(row) for row in item.payload]
    if kind == "finite":
        if not out["finite"] or out["order"] != order:
            return FAILED, f"expected finite order {order}, got {out['finite']} {out['order']}"
        if not orc.is_least_scalar_power(m, order):
            return FAILED, f"M^{order} is not the least scalar power"
        return OK, None
    if out["finite"] or out["cert"] is None:
        return FAILED, f"expected infinite order with a witness, got {out}"
    cert = out["cert"]
    if not pc.verify_witness_certificate(cert):
        return FAILED, "eigenvalue-ratio witness did not re-verify"
    w = _witness_plain(cert)
    if orc.root_of_unity_order(w["poly"]) is not None:
        return FAILED, "witness polynomial is cyclotomic"
    msg = _check_witness(w["poly"], w)
    return (FAILED, msg) if msg else (OK, None)


# --- haar -----------------------------------------------------------------------

# density text -> (number of variables, exponent dict, integer evaluator)
DENSITIES = {
    "x": (1, {(1,): 1}, lambda a: a[0]),
    "x1*x2": (2, {(1, 1): 1}, lambda a: a[0] * a[1]),
    "x1^2-x2^3": (2, {(2, 0): 1, (0, 3): -1}, lambda a: a[0] ** 2 - a[1] ** 3),
    "x1*x2-x3": (3, {(1, 1, 0): 1, (0, 0, 1): -1}, lambda a: a[0] * a[1] - a[2]),
}
# Copies per round: the median falls among the x1*x2 and x1*x2-x3 items
# and the tail inside the x1^2-x2^3 group for three or more rounds a run.
# x1*x2-x3 keeps its 125 children a level at depth 2: at depth 3 one
# 6-second item made up two thirds of a round, and runs held only two.
HAAR_FULL = ((("x", 3, 12), 6), (("x1*x2", 2, 8), 6), (("x1^2-x2^3", 3, 6), 5), (("x1*x2-x3", 5, 2), 2))
HAAR_TINY = ((("x", 3, 6), 2), (("x1*x2", 2, 4), 1), (("x1^2-x2^3", 3, 3), 1), (("x1*x2-x3", 2, 2), 1))


def build_haar(pc, seed, size):
    """Each item integrates |f| over Z_p^n, presented as the depth-0
    cylinder around a seeded integer center: the same set, so the same
    integral, reached through different residue representatives."""
    rng = random.Random(seed)
    tiny = size == "tiny"
    rounds = []
    for _ in range(2 if tiny else 6):
        rnd = []
        for (text, p, depth), copies in HAAR_TINY if tiny else HAAR_FULL:
            n, terms, _ = DENSITIES[text]
            f = pc.MultiPoly.from_dict(n, terms)
            for _ in range(copies):
                center = tuple(rng.randrange(1, p**depth) for _ in range(n))
                rnd.append(Item(text, (f, p, n, center, depth), (text, p, depth)))
        rng.shuffle(rnd)
        rounds.append(rnd)
    f = pc.MultiPoly.from_dict(1, {(1,): 1})
    warm = [Item("warm", (f, 2, 1, (1,), 4), ("x", 2, 4))]
    return Workload("haar", rounds, warm, trace_rounds=1)


def exec_haar(pc, item, ctx):
    f, p, n, center, depth = item.payload
    iv = pc.integrate(pc.PolyDensity(f, 1), pc.Cylinder(p, n, center, 0), depth)
    return (iv.lo, iv.hi)


def _haar_reference(wl, text, p, depth):
    """The closed form as a point interval, or the enumeration interval."""
    key = (text, p, depth)
    if key not in wl.oracle_cache:
        value = orc.closed_form(text, p)
        if value is None:
            n, _, fn = DENSITIES[text]
            wl.oracle_cache[key] = orc.enumerate_integral(fn, p, n, depth)
        else:
            wl.oracle_cache[key] = (value, value)
    return wl.oracle_cache[key]


def check_haar(pc, wl, item, out):
    text, p, depth = item.expect
    lo, hi = out
    ref_lo, ref_hi = _haar_reference(wl, text, p, depth)
    if not (lo <= ref_lo and ref_hi <= hi):
        return FAILED, f"[{lo}, {hi}] does not contain the reference [{ref_lo}, {ref_hi}]"
    if hi - lo > Fraction(1, p**depth):
        return FAILED, f"width {hi - lo} exceeds p^-{depth}"
    return OK, None


# --- roundtrip ------------------------------------------------------------------


def run_cli(pc, argv, stdin_text=None):
    """cli.main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if stdin_text is not None:
            stack.enter_context(_stdin(stdin_text))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = pc.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


@contextlib.contextmanager
def _stdin(text):
    old = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = old


def _poly_arg(coeffs):
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def _matrix_arg(m):
    return ";".join(",".join(f"{x.numerator}/{x.denominator}" for x in row) for row in m)


def _forge(rng, kind, doc, coeffs=None):
    """A tampered copy of an honest certificate document."""
    d = json.loads(json.dumps(doc))
    if kind == "box_moved":
        # slide the box outward along the real axis until it holds no
        # root; its modulus only grows, so the verifier must re-isolate
        re_lo, re_hi = (Fraction(x) for x in d["place"]["box"]["re"])
        im = [Fraction(x) for x in d["place"]["box"]["im"]]
        step = Fraction(1 if re_lo >= 0 else -1, 16)
        shift = step * rng.randint(3, 9)
        while orc.box_holds_root(coeffs, (re_lo + shift, re_hi + shift, *im), tol=1e-3):
            shift += step
        d["place"]["box"]["re"] = [str(re_lo + shift), str(re_hi + shift)]
    elif kind == "norm_raised":
        hi = Fraction(d["modulus_squared"][1])
        d["norm_bound"] = {"num": str(hi.numerator // hi.denominator + rng.randint(2, 9)), "den": "1"}
    elif kind == "slope_changed":
        d["place"]["slope"] = str(Fraction(d["place"]["slope"]) + rng.randint(1, 3))
    elif kind == "prime_changed":
        lead = int(d["alpha_poly"][-1])
        p = int(d["place"]["prime"])
        q = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) if q != p and lead % q)
        d["place"]["prime"] = q
    elif kind in ("order_changed", "rou_order_changed"):
        d["order"] = d["order"] + rng.randint(1, 3)
    elif kind == "interval_widened":
        d["interval"] = {"lo": "0/1", "hi": "1000/1"}
    elif kind == "conditionality_flipped":
        d["conditionality"] = "Unconditional"
        d["irreducibility"] = "Proven"
    else:
        raise ValueError(kind)
    return json.dumps(d, indent=2)


# Forgeries the verifier accepts at baseline (ROADMAP open item 4).
KNOWN_ACCEPTED_FORGERIES = ("interval_widened", "conditionality_flipped")


def build_roundtrip(pc, seed, size):
    """One round per seed: ten honest CLI documents produced and then
    verified, and twelve tampered documents verified."""
    rng = random.Random(seed)
    tiny = size == "tiny"
    # the cheap honest documents have seed-independent shapes (cubic,
    # quartic cyclotomic, |x| at p=3, D=10): the median item is one of them
    padics = [_random_poly(rng, 3, monic=False) for _ in range(3)]
    padic = padics[0]
    while True:
        arch = _random_poly(rng, 2 if tiny else 3, monic=True)
        if orc.root_of_unity_order(arch) is None:
            break
    rou = orc.cyclotomic(rng.choice((3, 4, 6) if tiny else (5, 8, 10, 12)))
    salem = [SQRT2_PLUS_SQRT3] if tiny else [LEHMER, SALEM10]
    d = rng.choice((5, 8, 10, 12)) if not tiny else 3
    m_fin = _disguise(rng, _companion(orc.cyclotomic(d)), scale=False)
    m_inf = _disguise(rng, _companion((-1, -1, 1) if tiny else (-1, -1, 0, 1)), scale=False)
    text, p, depth = ("x", 2, 4) if tiny else ("x", 3, 10)
    n = DENSITIES[text][0]
    center = ",".join(str(rng.randrange(1, p**depth)) for _ in range(n))

    def witness(coeffs):
        return Item("witness", ["--json", "witness", _poly_arg(coeffs)], ("witness", coeffs))

    def order(m, expect):
        return Item("order", ["--json", "order", f"--matrix={_matrix_arg(m)}"], ("order", m, expect))

    w_padic, w_padic2, w_arch, w_rou = witness(padic), witness(padics[1]), witness(arch), witness(rou)
    w_salem = witness(salem[0])
    o_fin = order(m_fin, ("finite", d if d % 2 else d // 2))
    integral = Item(
        "integral",
        ["--json", "integrate", "--prime", str(p), "--density", text, "--dim", str(n),
         "--depth", str(depth), "--center", center],
        ("integral", text, p, depth),
    )
    honest = [w_padic, w_padic2, w_arch, w_rou, w_salem] + [witness(f) for f in padics[2:] + salem[1:]]
    honest += [o_fin, order(m_inf, ("infinite", None)), integral]
    bases = (w_padic, w_padic2, w_arch, w_rou, w_salem, o_fin, integral)
    docs = {id(i): json.loads(run_cli(pc, i.payload)[1]) for i in bases}
    # the four early-reject kinds twice, so the median falls among the
    # cheap honest documents
    forgeries = [
        ("box_moved", w_arch, arch),
        ("norm_raised", w_arch, arch),
        ("norm_raised", w_arch, arch),
        ("slope_changed", w_padic, padic),
        ("slope_changed", w_padic2, padics[1]),
        ("prime_changed", w_padic, padic),
        ("prime_changed", w_padic2, padics[1]),
        ("rou_order_changed", w_rou, rou),
        ("order_changed", o_fin, None),
        ("rou_order_changed", w_rou, rou),
        ("interval_widened", integral, None),
        ("conditionality_flipped", w_salem, salem[0]),
    ]
    forged = [
        Item(f"forged_{kind}", _forge(rng, kind, docs[id(base)], coeffs), ("forged", kind))
        for kind, base, coeffs in forgeries
    ]
    rnd = honest + forged
    rng.shuffle(rnd)
    warm = [witness((5, -6, 5)), Item("warm", ["--json", "integrate", "--prime", "2", "--density", "x1*x2",
                                                 "--dim", "2", "--depth", "2"], ("integral", "x1*x2", 2, 2))]
    return Workload("roundtrip", [rnd], warm, trace_rounds=1)


def exec_roundtrip(pc, item, ctx):
    if item.expect[0] == "forged":
        code, out = run_cli(pc, ["verify", "-"], stdin_text=item.payload)
        return {"verify_code": code}
    code, doc = run_cli(pc, item.payload)
    if ctx is not None:
        ctx.note("cli.doc_bytes", len(doc.encode()))
    vcode, _ = run_cli(pc, ["verify", "-"], stdin_text=doc)
    return {"code": code, "doc": json.loads(doc) if doc.strip() else None, "verify_code": vcode}


def _library_doc_check(pc, wl, item, doc):
    """The document against a direct library call and the oracles."""
    what = item.expect[0]
    if what == "witness":
        coeffs = item.expect[1]
        branch, order = _trichotomy_expect(coeffs)
        key = ("witness", tuple(coeffs))
        if key not in wl.oracle_cache:
            f = pc.IntPolynomial.from_coeffs(coeffs)
            wl.oracle_cache[key] = pc.find_witness(pc.AlgebraicNumberSpec(f, None, pc.check_irreducible(f)))
        lib_doc = pc.witness_result_to_doc(wl.oracle_cache[key])
        if branch == "root_of_unity":
            ok = doc["case"] == lib_doc["case"] == "root_of_unity" and doc["order"] == order == lib_doc["order"]
            return 0, (None if ok else f"root-of-unity doc {doc} vs order {order}")
        if doc["case"] != "witness" or doc["place"]["type"] != branch:
            return 2, f"expected a {branch} witness document, got {doc}"
        if lib_doc["place"] != doc["place"] or lib_doc["conditionality"] != doc["conditionality"]:
            return 2, "document differs from the direct library result"
        return 2, _check_witness(coeffs, _witness_doc_plain(doc))
    if what == "order":
        m, (kind, order) = item.expect[1], item.expect[2]
        if kind == "finite":
            ok = doc["verdict"] == "finite" and doc["order"] == order
            ok = ok and orc.is_least_scalar_power([list(r) for r in m], order)
            return 0, (None if ok else f"order doc {doc.get('verdict')} {doc.get('order')} vs {order}")
        if doc["verdict"] != "infinite" or "certificate" not in doc:
            return 2, f"expected an infinite-order document, got {doc.get('verdict')}"
        w = _witness_doc_plain(doc["certificate"])
        if orc.root_of_unity_order(w["poly"]) is not None:
            return 2, "witness polynomial is cyclotomic"
        return 2, _check_witness(w["poly"], w)
    _, text, p, depth = item.expect
    lo, hi = Fraction(doc["interval"]["lo"]), Fraction(doc["interval"]["hi"])
    ref_lo, ref_hi = _haar_reference(wl, text, p, depth)
    ok = lo <= ref_lo and ref_hi <= hi and hi - lo <= Fraction(1, p**depth)
    return 0, (None if ok else f"integral [{lo}, {hi}] vs reference [{ref_lo}, {ref_hi}]")


def check_roundtrip(pc, wl, item, out):
    if item.expect[0] == "forged":
        if out["verify_code"] == 2:
            return OK, None
        if item.expect[1] in KNOWN_ACCEPTED_FORGERIES and out["verify_code"] == 0:
            return KNOWN_DEFECT, f"forged document ({item.expect[1]}) verified VALID"
        return FAILED, f"forged document ({item.expect[1]}) gave exit {out['verify_code']}"
    if out["doc"] is None:
        return FAILED, f"no document from {item.payload} (exit {out['code']})"
    expected_code, msg = _library_doc_check(pc, wl, item, out["doc"])
    if msg:
        return FAILED, msg
    if out["code"] != expected_code:
        return FAILED, f"exit {out['code']}, expected {expected_code}"
    if out["verify_code"] != 0:
        return FAILED, f"honest document failed to verify (exit {out['verify_code']})"
    return OK, None


WORKLOADS = {
    "trichotomy": (build_trichotomy, exec_trichotomy, check_trichotomy),
    "projorder": (build_projorder, exec_projorder, check_projorder),
    "haar": (build_haar, exec_haar, check_haar),
    "roundtrip": (build_roundtrip, exec_roundtrip, check_roundtrip),
}


def warm_caches(pc):
    """Fill cyclotomic's lru_cache for every index the workloads reach."""
    for d in range(1, 2 * 16 * 16 + 1):
        if pc.euler_phi(d) <= 16:
            pc.cyclotomic(d)
