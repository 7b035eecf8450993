"""Tests of the benchmark itself (not of the program).

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dtx():
    pkg = run.import_program()
    warnings.simplefilter("ignore")
    return pkg


def test_benchmark_json_names_workloads_and_layer_map():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert list(layer_map) == [m["name"] for m in BENCH["per_layer"]]
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layer_map.values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["workloads"]) <= set(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.3",
         "--trace", str(trace), "--scale", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    if trace:
        full = json.loads((run.OUT_DIR / ("result-%s-seed3-trace1.json" % workload)).read_text())
        assert full["samples"]["self_time_sum_s"] <= full["samples"]["traced_elapsed_s"]


# One perturbation per operation kind that its check must catch:
# (column or output index, row, relative change).
_PERTURBATIONS = {
    "se-average": ("se_optimal", 0, 1e-6),
    "se-vs-crosstalk": ("mean_se_optimal", "middle", 1e-6),
    "gaussian-validation": ("failure_rate", 0, None),
    "nmse-sweep": ("nmse1_analytic", 0, 1e-6),
    "backoff-vs-gain": ("worst_nmse", 0, 1e-6),
    "se-mrt-sweep": ("se_conventional", 0, 1e-6),
    "se-perturbation": ("se", 0, 1e-6),
    "nmse_branches": (0, None, 1e-6),
    "minmax_backoff": (0, None, 1e-6),
    "minmax_backoff_m": (0, None, 1e-2),
    "mrt_variants_m": (0, None, 1e-6),
    "simulate_batch_m": (0, None, None),
}


def _perturb_table(text, column, row, rel):
    lines = text.split("\r\n")
    head = next(i for i, line in enumerate(lines) if line and not line.startswith("# "))
    col = [h.split(" [", 1)[0] for h in lines[head].split(",")].index(column)
    n_rows = sum(1 for line in lines[head + 1:] if line)
    r = head + 1 + (n_rows // 2 if row == "middle" else row)
    cells = lines[r].split(",")
    v = float(cells[col])
    cells[col] = repr(0.01 if rel is None else v + rel * max(1.0, abs(v)))
    lines[r] = ",".join(cells)
    return "\r\n".join(lines)


def _perturb_direct(out, index, rel):
    if rel is None:
        return (0.01,) + tuple(out[1:])
    first = out[index]
    if isinstance(first, tuple):  # mrt_variants_m: (se, c_eff) per design
        return ((first[0] * (1.0 + rel), first[1]),) + tuple(out[1:])
    return (first * (1.0 + rel),) + tuple(out[1:])


def _one_op_per_kind():
    seen = {}
    for workload in wl.WORKLOADS:
        for op in wl.make_ops(workload, 11, scale=1):
            seen.setdefault((op.kind, op.anchor), op)
    return sorted(seen.values(), key=lambda op: op.label)


@pytest.mark.parametrize("op", _one_op_per_kind(), ids=lambda op: op.label)
def test_checker_rejects_one_perturbed_value(dtx, op):
    reference = checks.load_reference()
    out = op.call(dtx)
    checks.check_op(dtx, op, out, reference)
    where, row, rel = _PERTURBATIONS[op.kind]
    if op.config is not None:
        bad = _perturb_table(out, where, row, rel)
    else:
        bad = _perturb_direct(out, where, rel)
    assert bad != out
    with pytest.raises(checks.CheckError):
        checks.check_op(dtx, op, bad, reference)


def test_optimum_check_rejects_a_suboptimal_precoder(dtx):
    cfg = next(op.config for op in wl.make_ops("se-channels", 5, scale=1)
               if op.kind == "se-average" and wl._hardware_class(op) == "asymmetric")
    hw = checks.hardware(dtx, cfg)
    ch = dtx.ChannelSpec(h=checks.draw_channels(cfg["seed"], 1)[0], sigma_n2=1.0)
    checks.check_optimum(dtx.optimal_precoder(ch, hw), ch, hw, "optimal")
    with pytest.raises(checks.CheckError):
        checks.check_optimum(dtx.distortion_aware_mrt(ch, hw), ch, hw, "matched filter")


def test_minmax_check_rejects_a_moved_power(dtx):
    op = next(op for op in wl.make_ops("small-calls", 4, scale=1) if op.kind == "minmax_backoff")
    model = checks.BranchNmse.pair(*wl.pair_objects(dtx, op.args))
    p = op.call(dtx)[0]
    checks.check_minmax(model, p, "back-off")
    for f in (1.0 - 1e-6, 1.0 + 1e-6):
        with pytest.raises(checks.CheckError):
            checks.check_minmax(model, p * f, "moved back-off")


def test_reference_covers_every_anchor():
    reference = checks.load_reference()
    labels = [op.label for w in wl.WORKLOADS for op in wl.anchor_ops(w)]
    assert sorted(labels) == sorted(reference)
    # Every SE experiment kind is pinned on asymmetric hardware too.
    for kind in ("se-average", "se-vs-crosstalk", "se-mrt-sweep", "se-perturbation"):
        anchors = [op for w in wl.WORKLOADS for op in wl.anchor_ops(w) if op.kind == kind]
        assert {wl._hardware_class(op) for op in anchors} == {"symmetric", "asymmetric"}


def test_traced_self_times_are_nonnegative_and_within_wall(dtx):
    ops = wl.make_ops("small-calls", 2, scale=1)[:60] + wl.make_ops("se-channels", 2, scale=1)[:3]
    tr = tracing.Tracer()
    tr.install(dtx)
    try:
        start = time.perf_counter()
        for op in ops:
            tr.op += 1
            op.call(dtx)
        wall = time.perf_counter() - start
        one_pass = tracing.layer_metrics(tr, {}, 1)
        for op in ops:
            op.call(dtx)
    finally:
        tr.uninstall()
    own = tr.self_times()
    assert len(own) > len(ops)
    assert min(own) >= 0.0
    assert sum(own[:len(own) // 2]) <= wall
    # Counts are reported per traced pass.
    two_passes = tracing.layer_metrics(tr, {}, 2)
    for name in ("precoding.optimal_precoder.calls", "polyroots.real_roots.calls", "experiments.render.bytes"):
        assert two_passes[name] == one_pass[name] > 0
    # Uninstalling restores every original function.
    assert dtx.optimal_precoder.__module__ == "dirtytx.precoding"
    assert not hasattr(dtx.precoding.real_roots, "__wrapped__")


def test_compare_flags_regression_unresolved_and_gain():
    metric = {"name": "wall_s", "better": "lower", "bound": 0.1}
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(metric, base, base)["verdict"] == "same"
    assert compare.verdict(metric, base, [v * 1.3 for v in base])["verdict"] == "REGRESSION"
    assert compare.verdict(metric, base, [v * 0.7 for v in base])["verdict"] == "gain"
    noisy = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.5]
    assert compare.verdict(metric, base, noisy)["verdict"] == "unresolved"
    # A gain needs ten pairs.
    assert compare.verdict(metric, base[:9], [v * 0.7 for v in base[:9]])["verdict"] == "unresolved"
