"""Tests of the benchmark itself: tiny runs of every workload, the
tracing wrappers, the oracles and the refusal to run without sources.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_oracles as orc  # noqa: E402
from bench_trace import COUNTED, SPANNED, Tracer  # noqa: E402
from bench_workloads import KNOWN_ACCEPTED_FORGERIES, LEHMER, WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("padicorder_bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, trace, tmp_path):
    return run.measure(workload, 1, 0.1, trace, size="tiny", setup_samples=1, span_dir=tmp_path)[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = _tiny(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # a 0.1 s run is one round, which holds each forgery kind once
    known = len(KNOWN_ACCEPTED_FORGERIES) if workload == "roundtrip" else 0
    assert result["failed"] == known


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_emits_every_layer_metric(workload, tmp_path):
    result = _tiny(workload, 1, tmp_path)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == want
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]["value"]
    assert list(tmp_path.glob(f"spans-{workload}-seed1.csv.gz"))


def _bindings():
    import padicorder  # noqa: F401
    import padicorder.cli  # noqa: F401

    mods = {n: m for n, m in sys.modules.items() if n == "padicorder" or n.startswith("padicorder.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for modname, attr in SPANNED + COUNTED:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[f"padicorder.{modname}"], cls_name)
            snap[(cls_name, meth)] = vars(cls)[meth]
    return snap


def test_tracer_wraps_every_binding_and_restores_them():
    before = _bindings()
    import padicorder.places as places
    from padicorder import isolation

    tracer = Tracer()
    tracer.install()
    try:
        assert places.isolate_roots is not before[("padicorder.places", "isolate_roots")]
        assert places.isolate_roots is isolation.isolate_roots
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) >= len(SPANNED) + len(COUNTED)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.names = ["outer", "inner"]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 0, 5.0, 6.0)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_item.append(0)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    agg = tracer.aggregate()
    assert agg["outer"] == [1, 10.0, 6.0]
    assert agg["inner"] == [2, 4.0, 4.0]


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    design = json.loads((BENCH / "design.json").read_text())
    assert set(design["workloads"]) == set(WORKLOADS)
    assert [f["forgery"] for f in design["known_baseline_failures"]] == list(KNOWN_ACCEPTED_FORGERIES)


def test_oracles():
    for d in (1, 2, 3, 5, 7, 8, 9, 12, 15):
        assert orc.root_of_unity_order(orc.cyclotomic(d)) == d
    assert orc.root_of_unity_order(LEHMER) is None
    assert orc.root_of_unity_order((5, -6, 5)) is None
    assert orc.newton_slopes((5, -6, 5), 5) == [-1, 1]
    lo, hi = orc.enumerate_integral(lambda a: a[0], 2, 1, 8)
    assert lo <= Fraction(2, 3) <= hi and hi - lo <= Fraction(1, 2**8)
    assert orc.box_holds_root((-1, -1, 1), (Fraction(1618, 1000), Fraction(1619, 1000), 0, 0))
    assert not orc.box_holds_root((-1, -1, 1), (Fraction(2), Fraction(3), 0, 0))
    companion = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(1)]]  # Phi_6
    assert orc.is_least_scalar_power(companion, 3)
    assert not orc.is_least_scalar_power(companion, 6)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "haar", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
