"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads trichotomy,haar] [--trace 0] [--out FILE]

For every metric of every workload this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the interquartile
distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  Runs are sequential, one process at a time.  With
``--out`` the summaries are merged into FILE, workload by workload,
under "end_to_end" (``--trace 0``) or "per_layer" (``--trace 1``), with the
Python and sympy versions and the processor count; bench/baseline.json
was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(cmd, workload, seed, seconds, trace):
    proc = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def environment() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", "import sympy; print(sympy.__version__)"],
        capture_output=True, text=True, check=True,
    )
    return {
        "python": platform.python_version(),
        "sympy": proc.stdout.strip(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None, help="write the per-metric summaries as JSON")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(spec["command"], w, seed, spec["run_seconds"], args.trace)
            runs.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr)
        names = list(runs[0]["metrics"])
        report[w] = {}
        for name in names:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            report[w][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}  {'OK' if s['iqr_share'] <= bound / 3 else 'WIDE'}"
            print(f"{w:11s} {name:45s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  iqr/median {s['iqr_share']:.4f}{flag}")
    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        doc["environment"] = environment()
        section = doc.setdefault("end_to_end" if args.trace == 0 else "per_layer", {"workloads": {}})
        section.update(seeds=args.seeds, run_seconds=spec["run_seconds"])
        section["workloads"].update(report)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
