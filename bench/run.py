"""padicorder benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload trichotomy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the workload's rounds are run back to back, closed
loop with one client, until about ``--seconds`` of item time at nominal
machine speed have passed (see SpeedProbe), and the end-to-end metrics
are reported.  With ``--trace 1`` the first few
rounds are run to warm up, then once plain and once with timing
wrappers around the library's public functions, and the per-layer
metrics are reported.
Every item is checked against an oracle.  The last line of standard
output is the result object; human-readable lines come before it.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from bench_trace import Tracer  # noqa: E402
from bench_workloads import FAILED, KNOWN_DEFECT, OK, WORKLOADS, import_library, warm_caches  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = BENCH / "out"
SETUP_SAMPLES = 3  # this process plus two fresh ones
DEFAULT_SECONDS = 20
PROBE_EVERY_S = 0.5  # run the speed probe between items at least this often
PROBE_WINDOW_S = 2.0  # probes this close to an item set its speed

END_TO_END = (
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("isolation.isolate_roots.calls", "count"),
    ("isolation.isolate_roots.self_s", "s"),
    ("isolation.isolate_roots.min_eps_log2", "log2"),
    ("places.archimedean_witness.self_s", "s"),
    ("places.archimedean_witness.isolations_per_witness", "ratio"),
    ("places.verify_witness_certificate.self_s", "s"),
    ("places.verify_to_find_ratio", "ratio"),
    ("places.padic_witness.self_s", "s"),
    ("places.find_witness.self_s", "s"),
    ("places.conditional_ratio", "ratio"),
    ("intpoly.is_squarefree.calls_per_item", "count/item"),
    ("intpoly.is_squarefree.self_s", "s"),
    ("intpoly.root_of_unity_order.self_s", "s"),
    ("intpoly.check_irreducible.self_s", "s"),
    ("intpoly.check_irreducible.proven_ratio", "ratio"),
    ("intpoly.exact_div.calls", "count"),
    ("intpoly.exact_div.hit_ratio", "ratio"),
    ("intpoly.poly_gcd.self_s", "s"),
    ("projaut.minimal_polynomial.calls", "count"),
    ("projaut.minimal_polynomial.self_s", "s"),
    ("projaut.minimal_polynomial.max_dim", "rows"),
    ("projaut.conjugation_operator.self_s", "s"),
    ("projaut.factor_out_cyclotomics.self_s", "s"),
    ("projaut.linear_order.self_s", "s"),
    ("haar.integrate.self_s", "s"),
    ("haar.MultiPoly.evals", "count"),
    ("haar.Cylinder.children_calls", "count"),
    ("haar.enclosure_width", "measure"),
    ("padic.rational_valuation.calls", "count"),
    ("padic.rational_valuation.self_s", "s"),
    ("intervals.p_power_enclosure.calls", "count"),
    ("intervals.p_power_enclosure.self_s", "s"),
    ("intervals.kth_root_enclosure.calls", "count"),
    ("intervals.kth_root_enclosure.self_s", "s"),
    ("algnum.from_poly.self_s", "s"),
    ("parsing.parse_polynomial.calls", "count"),
    ("parsing.parse_polynomial.self_s", "s"),
    ("parsing.parse_multipoly.self_s", "s"),
    ("parsing.parse_matrix.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.doc_bytes", "bytes"),
    ("trace.items", "count"),
    ("trace.wall_s", "s"),
    ("trace_overhead_ratio", "ratio"),
)


# --- hooks: counters read from arguments and results of traced calls ---------


def _hook_isolate(tr, args, kwargs, result):
    eps = Fraction(args[1] if len(args) > 1 else kwargs["eps"])
    tr.note("eps_log2", math.log2(eps.numerator) - math.log2(eps.denominator))
    if tr.open_span_name() == "places.archimedean_witness":
        tr.note("isolate_in_witness", 1)


def _hook_find(tr, args, kwargs, result):
    cond = getattr(result, "conditionality", None)
    if cond is None:
        cond = result.certificate.conditionality
    tr.note("conditional", int(cond != "Unconditional"))


HOOKS = {
    "isolation.isolate_roots": _hook_isolate,
    "places.find_witness": _hook_find,
    "intpoly.check_irreducible": lambda tr, a, k, r: tr.note("proven", int(r == "Proven")),
    "intpoly.IntPolynomial.exact_div": lambda tr, a, k, r: tr.note("exact_div_hit", int(r is not None)),
    "projaut.minimal_polynomial": lambda tr, a, k, r: tr.note("minpoly_dim", len(a[0])),
    "haar.integrate": lambda tr, a, k, r: tr.note("width", float(r.hi - r.lo)),
}


def layer_metrics(tr, items: int, wall_plain: float, wall_traced: float) -> dict:
    agg = tr.aggregate()

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    def note(key, field=0):
        rec = tr.notes.get(key)
        return rec[field] if rec else 0

    def ratio(a, b):
        return a / b if b else 0.0

    aw, fw, vw = "places.archimedean_witness", "places.find_witness", "places.verify_witness_certificate"
    values = {
        "isolation.isolate_roots.calls": calls("isolation.isolate_roots"),
        "isolation.isolate_roots.self_s": self_s("isolation.isolate_roots"),
        "isolation.isolate_roots.min_eps_log2": note("eps_log2", 2),
        "places.archimedean_witness.self_s": self_s(aw),
        "places.archimedean_witness.isolations_per_witness": ratio(note("isolate_in_witness"), calls(aw)),
        "places.verify_witness_certificate.self_s": self_s(vw),
        "places.verify_to_find_ratio": ratio(incl(vw), incl(fw)),
        "places.padic_witness.self_s": self_s("places.padic_witness"),
        "places.find_witness.self_s": self_s(fw),
        "places.conditional_ratio": ratio(note("conditional"), note("conditional", 1)),
        "intpoly.is_squarefree.calls_per_item": ratio(calls("intpoly.is_squarefree"), items),
        "intpoly.is_squarefree.self_s": self_s("intpoly.is_squarefree"),
        "intpoly.root_of_unity_order.self_s": self_s("intpoly.root_of_unity_order"),
        "intpoly.check_irreducible.self_s": self_s("intpoly.check_irreducible"),
        "intpoly.check_irreducible.proven_ratio": ratio(note("proven"), note("proven", 1)),
        "intpoly.exact_div.calls": calls("intpoly.IntPolynomial.exact_div"),
        "intpoly.exact_div.hit_ratio": ratio(note("exact_div_hit"), note("exact_div_hit", 1)),
        "intpoly.poly_gcd.self_s": self_s("intpoly.poly_gcd"),
        "projaut.minimal_polynomial.calls": calls("projaut.minimal_polynomial"),
        "projaut.minimal_polynomial.self_s": self_s("projaut.minimal_polynomial"),
        "projaut.minimal_polynomial.max_dim": note("minpoly_dim", 3),
        "projaut.conjugation_operator.self_s": self_s("projaut.conjugation_operator"),
        "projaut.factor_out_cyclotomics.self_s": self_s("projaut.factor_out_cyclotomics"),
        "projaut.linear_order.self_s": self_s("projaut.linear_order"),
        "haar.integrate.self_s": self_s("haar.integrate"),
        "haar.MultiPoly.evals": calls("haar.MultiPoly.__call__"),
        "haar.Cylinder.children_calls": calls("haar.Cylinder.children"),
        "haar.enclosure_width": note("width"),
        "padic.rational_valuation.calls": calls("padic.rational_valuation"),
        "padic.rational_valuation.self_s": self_s("padic.rational_valuation"),
        "intervals.p_power_enclosure.calls": calls("intervals.p_power_enclosure"),
        "intervals.p_power_enclosure.self_s": self_s("intervals.p_power_enclosure"),
        "intervals.kth_root_enclosure.calls": calls("intervals.kth_root_enclosure"),
        "intervals.kth_root_enclosure.self_s": self_s("intervals.kth_root_enclosure"),
        "algnum.from_poly.self_s": self_s("algnum.AlgebraicNumberSpec.from_poly"),
        "parsing.parse_polynomial.calls": calls("parsing.parse_polynomial"),
        "parsing.parse_polynomial.self_s": self_s("parsing.parse_polynomial"),
        "parsing.parse_multipoly.self_s": self_s("parsing.parse_multipoly"),
        "parsing.parse_matrix.self_s": self_s("parsing.parse_matrix"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.doc_bytes": ratio(note("cli.doc_bytes"), note("cli.doc_bytes", 1)),
        "trace.items": items,
        "trace.wall_s": wall_traced,
        "trace_overhead_ratio": ratio(wall_traced, wall_plain),
    }
    units = dict(PER_LAYER)
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# --- running ------------------------------------------------------------------

# The shared 2-core machine this benchmark was developed on drifts in speed
# up to twofold over minutes, for every kind of work alike.  Item times
# are therefore scaled to a nominal machine speed: a fixed reference
# loop is timed between items every half second, and each item's wall
# time is multiplied by REF_NOMINAL_S over the median of the probe times
# within PROBE_WINDOW_S of the item (the median, because single probes
# catch bursts of a tenth of a second).
# A slower library still reads slower; a slower machine does not.  The
# run's length is counted in the same nominal seconds, so the number of
# rounds, which fixes the mix behind the percentiles, does not depend on
# the machine's speed either.  Raw wall-clock figures are printed before
# the result line.  Set-up seconds are scaled the same way.
REF_NOMINAL_S = 0.012


def reference_loop() -> Fraction:
    """Fixed work in the library's own currency: Fractions and big ints."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(i * i + 1, i % 89 + 1)
    return total


class SpeedProbe:
    def __init__(self, every_s: float, window_s: float):
        self.every_s = every_s
        self.window_s = window_s
        self.times: list[float] = []
        self.durations: list[float] = []
        self.sample()

    def sample(self):
        t0 = perf_counter()
        reference_loop()
        self.times.append(perf_counter())
        self.durations.append(self.times[-1] - t0)

    def maybe_sample(self):
        if perf_counter() - self.times[-1] >= self.every_s:
            self.sample()

    def normalize(self, start: float, end: float) -> float:
        """end - start at nominal speed, from the probes around it: those
        within the window, and always the last before and first after."""
        i = bisect.bisect_left(self.times, start - self.window_s)
        j = bisect.bisect_right(self.times, end + self.window_s)
        i = min(i, max(bisect.bisect_left(self.times, start) - 1, 0))
        j = max(j, bisect.bisect_right(self.times, end) + 1)
        return (end - start) * REF_NOMINAL_S / statistics.median(self.durations[i:j])


def run_rounds(pc, wl, execute, seconds=None, rounds=None, tracer=None, probe=None):
    """Run whole rounds back to back.  With ``rounds`` run exactly that
    many; otherwise stop at the round boundary nearest to ``seconds`` of
    item time at nominal speed, as the speed probe (which samples
    between items) measures it.  Returns ([(start, end)],
    [(item, output, error)], wall seconds, rounds)."""
    spans, outputs = [], []
    t_start = perf_counter()
    nominal = 0.0
    done = 0
    while True:
        for item in wl.rounds[done % len(wl.rounds)]:
            if probe is not None:
                probe.maybe_sample()
            if tracer is not None:
                tracer.item = len(spans)
            t0 = perf_counter()
            try:
                out, err = execute(pc, item, tracer), None
            except Exception as exc:  # a raising item is a failed item
                out, err = None, exc
            spans.append((t0, perf_counter()))
            outputs.append((item, out, err))
            if probe is not None:
                nominal += probe.normalize(t0, spans[-1][1])
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif nominal + nominal / done / 2 >= seconds:
            break
    if probe is not None:
        probe.sample()
    return spans, outputs, perf_counter() - t_start, done


def judge(pc, wl, check, outputs):
    """(failed, known_defects, messages) over every item output."""
    failed = known = 0
    messages = []
    for item, out, err in outputs:
        if err is not None:
            verdict, msg = FAILED, f"raised {type(err).__name__}: {err}"
        else:
            try:
                verdict, msg = check(pc, wl, item, out)
            except Exception as exc:  # a malformed output fails its item
                verdict, msg = FAILED, f"check raised {type(exc).__name__}: {exc}"
        if verdict == KNOWN_DEFECT:
            known += 1
        elif verdict == FAILED:
            failed += 1
        if verdict != OK:
            messages.append(f"{item.kind}: {msg}")
    return failed, known, messages


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least
    ten items beyond it (nearest-rank); the maximum for tiny samples."""
    s = sorted(latencies)
    n = len(s)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if n - k >= 10:
            return p, s[k - 1]
    return 100, s[-1]


def setup(workload: str, seed: int, size: str):
    """Import the library, build the inputs and warm up; the returned
    seconds count from the start of this process and are scaled to
    nominal machine speed by three reference-loop probes taken after."""
    if not (SRC / "padicorder" / "__init__.py").is_file():
        raise SystemExit(f"error: no padicorder sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pc = import_library()
    if Path(pc.__file__).resolve().parent != SRC / "padicorder":
        raise SystemExit(f"error: imported padicorder from {pc.__file__}, not {SRC}")
    build, execute, check = WORKLOADS[workload]
    wl = build(pc, seed, size)
    warm_caches(pc)
    for item in wl.warm:
        execute(pc, item, None)
    elapsed = perf_counter() - T_START
    probes = []
    for _ in range(3):
        t0 = perf_counter()
        reference_loop()
        probes.append(perf_counter() - t0)
    return pc, wl, execute, check, elapsed * REF_NOMINAL_S / statistics.median(probes)


def setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of a fresh process for the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, size="full", setup_samples=SETUP_SAMPLES, span_dir=SPAN_DIR):
    """One benchmark run; returns (result dict, report lines)."""
    pc, wl, execute, check, setup_s = setup(workload, seed, size)
    lines = []
    if not trace:
        probe = SpeedProbe(PROBE_EVERY_S, PROBE_WINDOW_S)
        spans, outputs, wall, rounds = run_rounds(pc, wl, execute, seconds=seconds, probe=probe)
        lat = [probe.normalize(t0, t1) for t0, t1 in spans]
        samples = [setup_s] + [setup_sample(workload, seed) for _ in range(setup_samples - 1)]
        failed, known, messages = judge(pc, wl, check, outputs)
        pct, tail_s = tail(lat)
        n = len(lat)
        metrics = {
            "items_per_s": n / sum(lat),
            "item_p50_ms": statistics.median(lat) * 1e3,
            "item_tail_ms": tail_s * 1e3,
            "ok_ratio": (n - failed - known) / n,
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        result_metrics = {k: {"value": metrics[k], "unit": units[k]} for k, _ in END_TO_END}
        raw = [t1 - t0 for t0, t1 in spans]
        lines.append(
            f"{workload} seed={seed}: {n} items in {rounds} rounds, {wall:.2f} s wall, "
            f"{sum(raw):.2f} s in items ({sum(lat):.2f} reference-speed s; probe "
            f"{min(probe.durations):.4f}-{max(probe.durations):.4f} s vs nominal {REF_NOMINAL_S} s); "
            f"raw items_per_s={n / sum(raw):.4f} p50_ms={statistics.median(raw) * 1e3:.4f}; "
            f"item_tail_ms is p{pct} of {n}; failed_ratio={(failed + known) / n:.6f} "
            f"({known} known-defect forgeries accepted); setup samples {[round(s, 4) for s in samples]}"
        )
    else:
        # A first pass warms the process (allocator arenas, library
        # caches) so the plain and traced passes compare like with like.
        k = wl.trace_rounds
        _, out_warm, _, _ = run_rounds(pc, wl, execute, rounds=k)
        spans0, out0, wall0, _ = run_rounds(pc, wl, execute, rounds=k)
        tracer = Tracer()
        tracer.install(HOOKS)
        try:
            spans1, out1, wall1, _ = run_rounds(pc, wl, execute, rounds=k, tracer=tracer)
        finally:
            tracer.uninstall()
        failed, known, messages = judge(pc, wl, check, out_warm + out0 + out1)
        n = len(out_warm) + len(out0) + len(out1)
        result_metrics = layer_metrics(tracer, len(out1), wall0, wall1)
        if span_dir is not None:
            span_dir.mkdir(exist_ok=True)
            path = span_dir / f"spans-{workload}-seed{seed}.csv.gz"
            tracer.write_spans(path)
            lines.append(f"spans written to {path}")
        lines.append(
            f"{workload} seed={seed}: traced {len(out1)} items in {k} rounds, "
            f"{wall1:.2f} s traced vs {wall0:.2f} s plain"
        )
    for msg in messages[:20]:
        print(f"item failure: {msg}", file=sys.stderr)
    for name, m in result_metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed + known,
        "metrics": result_metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print set-up seconds and exit")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(setup(args.workload, args.seed, "full")[-1])
        return 0
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
