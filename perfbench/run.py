#!/usr/bin/env python3
"""dirtytx benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload se-channels --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``
of the checkout this file sits in (never from an installed copy), so
the command fails without printing a result when the source is absent.

With ``--trace 0`` the end-to-end metrics are measured: set-up time of
fresh processes, repeated timed passes over the workload's operations
for ``--seconds``, and ``dirtytx run`` subprocesses.  With ``--trace 1``
the same passes run once untraced and once under :mod:`tracer`, and the
per-layer metrics are reported with the tracing overhead.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the run's context, is also written to
``.perfbench-out/result-<workload>-seed<seed>-trace<t>.json``, which is
what ``perfbench/compare.py`` reads.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

# Fresh interpreters timed for cli.import_s, and in-process cli.main
# calls timed for cli.main.s, in a traced run; the median is reported.
REPEATS = 5
# An end-to-end run keeps cycling past --seconds until at least this many
# operation latencies can lie beyond the op_tail_s percentile.
MIN_TAIL_SAMPLES = 10


def import_program():
    """Import ``dirtytx`` from this checkout's ``src/`` or exit."""
    if not (SRC / "dirtytx" / "__init__.py").is_file():
        raise SystemExit("perfbench: no program source at %s" % (SRC / "dirtytx"))
    sys.path.insert(0, str(SRC))
    dtx = importlib.import_module("dirtytx")
    if Path(dtx.__file__).resolve().parent != (SRC / "dirtytx").resolve():
        raise SystemExit("perfbench: imported dirtytx from %s, not this checkout" % dtx.__file__)
    return dtx


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def context(workload, seed, scale):
    import numpy
    import scipy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"] + " " + cfg["Build Dependencies"]["blas"].get("version", "")
    except (TypeError, KeyError):
        pass
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "n_threads": wl.N_THREADS[workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.strip(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


class Runner:
    """Runs a workload's passes, checks outputs and counts failures."""

    def __init__(self, dtx, ops, reference):
        self.dtx = dtx
        self.ops = ops
        self.reference = reference
        self.expected = [None] * len(ops)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, label, exc):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append("%s: %s: %s" % (label, type(exc).__name__, exc))

    def checked_pass(self):
        """Untimed first pass: every output is fully checked and kept as
        the expected output of the timed passes (all inputs repeat)."""
        for i, op in enumerate(self.ops):
            self.attempted += 1
            try:
                out = op.call(self.dtx)
                checks.check_op(self.dtx, op, out, self.reference)
            except Exception as exc:  # noqa: BLE001 - every failure is counted, the run goes on
                self.fail(op.label, exc)
            else:
                self.expected[i] = out

    def one_pass(self, on_op=None):
        """One timed pass; outputs must equal the checked first pass.

        Returns ``(pass_time, op_latencies, ops_done, work_done)``.
        """
        latencies = []
        ops_done = work = 0
        clock = time.perf_counter
        p0 = clock()
        for i, op in enumerate(self.ops):
            if on_op is not None:
                on_op(i)
            self.attempted += 1
            t0 = clock()
            try:
                out = op.call(self.dtx)
            except Exception as exc:  # noqa: BLE001
                self.fail(op.label, exc)
                continue
            latencies.append(clock() - t0)
            ops_done += 1
            work += op.work
            if self.expected[i] is None or out != self.expected[i]:
                self.fail(op.label, checks.CheckError("output differs from the checked first pass"))
        return clock() - p0, latencies, ops_done, work


def _median(values):
    return statistics.median(values) if values else 0.0


def setup_probe(workload, seed, scale):
    """Body of one set-up measurement: import, generate inputs, run the
    first operation cold."""
    dtx = import_program()
    warnings.simplefilter("ignore")
    op = wl.make_ops(workload, seed, scale)[0]
    op.call(dtx)


def _write_cli_config(workload, seed, tag):
    OUT_DIR.mkdir(exist_ok=True)
    cfg = wl.cli_config(workload, seed)
    path = OUT_DIR / ("cli-%s-%s.json" % (workload, tag))
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg, path


class Probes:
    """The fresh-process measurements of an end-to-end run, one of each
    per measuring cycle: set-up (``setup_s``) and a ``dirtytx run``
    subprocess (``cli_s``) whose output file must equal the checked
    in-process rendering of the same config."""

    def __init__(self, dtx, args, runner):
        self.runner = runner
        self.setup_cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
                          "--seed", str(args.seed), "--scale", str(args.scale)]
        cfg, self.cfg_path = _write_cli_config(args.workload, args.seed, "s%d" % args.seed)
        self.out_path = self.cfg_path.with_suffix(".csv")
        nt = wl.N_THREADS[args.workload]
        self.expected = None
        runner.attempted += 1
        try:
            text = dtx.render(dtx.run_experiment(cfg, n_threads=nt), "csv")
            checks.check_table(dtx, cfg, text)
        except Exception as exc:  # noqa: BLE001 - counted; every CLI run then fails its check
            runner.fail("in-process run of the CLI config", exc)
        else:
            self.expected = text
        self.cli_cmd = [sys.executable, "-m", "dirtytx.cli", "run", str(self.cfg_path),
                        "--out", str(self.out_path), "--threads", str(nt)]
        self.setup_times, self.cli_times = [], []
        self.cycles = 0

    def _run(self, label, cmd, env, times, check=None):
        self.runner.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            self.runner.fail(label, exc)
            return
        elapsed = time.perf_counter() - t0
        try:
            if proc.returncode != 0:
                raise checks.CheckError("exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:]))
            if check is not None:
                check()
        except checks.CheckError as exc:
            self.runner.fail(label, exc)
        else:
            times.append(elapsed)

    def _check_cli(self):
        with open(self.out_path, encoding="utf-8", newline="") as fh:
            if self.expected is None or fh.read() != self.expected:
                raise checks.CheckError("CLI output differs from the in-process result")

    def cycle(self):
        self.cycles += 1
        self._run("setup probe", self.setup_cmd, dict(os.environ), self.setup_times)
        self._run("dirtytx run", self.cli_cmd, _subprocess_env(), self.cli_times, self._check_cli)

    def close(self):
        for p in (self.cfg_path, self.out_path):
            p.unlink(missing_ok=True)


def measure_import(repeats, runner):
    """Median time of ``import dirtytx`` in fresh interpreters, as each
    one measures it."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, %r); import dirtytx; "
            "print(time.perf_counter() - t)" % str(SRC))
    values = []
    for _ in range(repeats):
        runner.attempted += 1
        try:
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            runner.fail("import probe", exc)
            continue
        if proc.returncode != 0:
            runner.fail("import probe", checks.CheckError(proc.stderr.strip()[-300:]))
            continue
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return _median(values)


def measure_cli_main(dtx, args, runner):
    """Median in-process ``cli.main(["run", ...])`` time, untraced."""
    cli = importlib.import_module("dirtytx.cli")
    cfg, cfg_path = _write_cli_config(args.workload, args.seed, "main-s%d" % args.seed)
    out_path = cfg_path.with_suffix(".csv")
    argv = ["run", str(cfg_path), "--out", str(out_path), "--threads", str(wl.N_THREADS[args.workload])]
    times = []
    try:
        for _ in range(REPEATS):
            runner.attempted += 1
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                runner.fail("cli.main", checks.CheckError("exit code %r" % code))
                continue
            times.append(time.perf_counter() - t0)
    finally:
        for p in (cfg_path, out_path):
            p.unlink(missing_ok=True)
    return _median(times)


def _classify(w):
    if "discarding crossing candidate" in str(w.message):
        return "crossing_discarded"
    return w.category.__name__


def run_end_to_end(args, dtx, runner):
    """Cycle for ``--seconds`` (at least once): one timed pass, one set-up
    probe, one ``dirtytx run``.  Interleaving spreads every figure's
    samples over the whole run, so slow spells of the machine hit all
    of them alike.  Then add timed passes, if needed, until
    ``MIN_TAIL_SAMPLES`` latencies fit beyond the tail percentile."""
    tail_p = wl.TAIL_PERCENTILE[args.workload]
    min_passes = math.ceil(MIN_TAIL_SAMPLES / (len(runner.ops) * (1.0 - tail_p / 100.0)))
    probes = Probes(dtx, args, runner)
    runner.checked_pass()
    pass_times, lat = [], []
    ops_done = work = 0
    begin = time.perf_counter()
    try:
        while len(pass_times) < min_passes or time.perf_counter() - begin < args.seconds:
            t, lat_pass, n, w = runner.one_pass()
            pass_times.append(t)
            lat += lat_pass
            ops_done += n
            work += w
            if len(pass_times) == 1 or time.perf_counter() - begin < args.seconds:
                probes.cycle()
    finally:
        probes.close()
    busy = sum(pass_times)
    tail = float(np.percentile(lat, tail_p)) if lat else 0.0
    beyond = sum(v > tail for v in lat)
    metrics = {
        "wall_s": (_median(pass_times), "s"),
        "setup_s": (_median(probes.setup_times), "s"),
        "op_p50_s": (float(np.percentile(lat, 50)) if lat else 0.0, "s"),
        "op_tail_s": (tail, "s"),
        "calls_per_s": (ops_done / busy, "1/s"),
        "work_per_s": (work / busy, "1/s"),
        "cli_s": (_median(probes.cli_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        "passes: %d (%d with probes); pass of %d ops, pass times %s s"
        % (len(pass_times), probes.cycles, len(runner.ops), " ".join("%.3f" % t for t in pass_times)),
        "op latency samples: %d; op_tail_s is p%g, %d samples beyond it%s"
        % (len(lat), tail_p, beyond, "" if beyond >= MIN_TAIL_SAMPLES else
           " (WARNING: fewer than %d)" % MIN_TAIL_SAMPLES),
        "work_per_s unit: %s" % wl.WORK_UNIT[args.workload],
        "setup runs (s): %s" % " ".join("%.3f" % t for t in probes.setup_times),
        "dirtytx run subprocesses (s): %s" % " ".join("%.3f" % t for t in probes.cli_times),
    ]
    extra = {"pass_times": pass_times, "setup_times": probes.setup_times, "cli_times": probes.cli_times}
    return metrics, notes, extra


def run_traced(args, dtx, runner):
    """Alternate untraced and traced passes for ``--seconds`` (at least
    one of each), so drift in machine speed hits both alike."""
    runner.checked_pass()
    tr = tracing.Tracer()

    def on_op(i):
        tr.op += 1

    untraced, traced = [], []
    begin = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        while not traced or time.perf_counter() - begin < args.seconds:
            warnings.simplefilter("ignore")
            untraced.append(runner.one_pass()[0])
            warnings.simplefilter("always")
            tr.install(dtx)
            try:
                traced.append(runner.one_pass(on_op)[0])
            finally:
                tr.uninstall()
    traced_elapsed = sum(traced)
    counts = {}
    for w in caught:
        counts[_classify(w)] = counts.get(_classify(w), 0) + 1
    values = tracing.layer_metrics(tr, counts, len(traced))
    wall_untraced = statistics.median(untraced)
    wall_traced = statistics.median(traced)
    values["trace.overhead_s"] = wall_traced - wall_untraced
    values["cli.import_s"] = measure_import(REPEATS, runner)
    values["cli.main.s"] = measure_cli_main(dtx, args, runner)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / ("spans-%s-seed%d.csv" % (args.workload, args.seed))
    tr.write(spans_path)
    self_total = sum(tr.self_times())
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK_JSON.read_text())["per_layer"]}
    metrics = {name: (values[name], units[name]) for name in units}
    notes = [
        "untraced wall_s %.4f s, traced wall_s %.4f s, tracing overhead %.4f s (%.1f%%)"
        % (wall_untraced, wall_traced, wall_traced - wall_untraced,
           100.0 * (wall_traced - wall_untraced) / wall_untraced),
        "spans: %d, written to %s; self time sum %.3f s over %.3f s traced"
        % (len(tr.spans), spans_path.relative_to(ROOT), self_total, traced_elapsed),
        "warnings by class: %s" % (json.dumps(counts, sort_keys=True) if counts else "none"),
    ]
    extra = {"untraced_pass_times": untraced, "traced_pass_times": traced,
             "self_time_sum_s": self_total, "traced_elapsed_s": traced_elapsed, "warnings": counts}
    return metrics, notes, extra


def record_reference():
    """Regenerate reference.json from the anchor operations."""
    dtx = import_program()
    warnings.simplefilter("ignore")
    ref = {}
    for workload in wl.WORKLOADS:
        for op in wl.anchor_ops(workload):
            ref[op.label] = checks.closed_form_values(op, op.call(dtx))
    checks.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d anchors to %s" % (len(ref), checks.REFERENCE_PATH))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=8, help="pass size; 8 is the benchmark, 1 a tiny test pass")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference.json from the current program (only when its values are meant to change)")
    args = ap.parse_args(argv)

    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.scale)
        return 0

    dtx = import_program()
    warnings.simplefilter("ignore")
    ctx = context(args.workload, args.seed, args.scale)
    runner = Runner(dtx, wl.make_ops(args.workload, args.seed, args.scale), checks.load_reference())
    if args.trace:
        metrics, notes, extra = run_traced(args, dtx, runner)
    else:
        metrics, notes, extra = run_end_to_end(args, dtx, runner)

    print("dirtytx benchmark: workload %s, seed %d, %s s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("context: " + json.dumps(ctx, sort_keys=True))
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-42s %14.6g %s" % (name, value, unit))
    print("  failed_ratio %d/%d = %.4g" % (runner.failed, runner.attempted, runner.failed / runner.attempted))
    for e in runner.errors:
        print("  FAILED " + e, file=sys.stderr)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    full = dict(result, context=ctx, trace=args.trace, seconds=args.seconds, samples=extra, errors=runner.errors)
    out = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
