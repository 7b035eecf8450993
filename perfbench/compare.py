#!/usr/bin/env python3
"""Compare two result sets of the dirtytx benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``result-<workload>-seed<n>-trace0.json`` files
of several runs (``perfbench/run.py`` writes them to ``.perfbench-out/``;
copy them aside between commits).  For every workload present in both
sets, one row gives each end-to-end metric of ``BENCHMARK.json`` its
verdict:

- ``REGRESSION``: the new median is worse than the base median by more
  than the metric's bound.
- ``unresolved``: the run-to-run spread (interquartile range over the
  median) of either set exceeds the bound, and not every new run beats
  every base run.
- ``gain``: there are at least ten pairs of runs, the new side wins at
  least 9/10 of them, the medians differ by more than the base set's
  interquartile range, and no more operations failed than in the base
  set.  Runs are paired by seed when the sets share seeds, otherwise in
  seed order; with fewer than ten pairs a gain reads ``unresolved``.
- ``same``: none of the above.

Exits 1 when any metric regressed or any new run failed an operation.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The fewest run pairs on which a gain can be declared.
MIN_GAIN_PAIRS = 10


def load_set(directory):
    """``{workload: {seed: result}}`` for the untraced results in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        res = json.loads(path.read_text(encoding="utf-8"))
        ctx = res["context"]
        out.setdefault(ctx["workload"], {})[ctx["seed"]] = res
    return out


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(metric, base, new):
    """Compare one metric's base and new run values (paired by index)."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    mb, mn = statistics.median(base), statistics.median(new)
    iqr_b, iqr_n = _iqr(base), _iqr(new)
    worse = (mn - mb) / mb if lower else (mb - mn) / mb

    def better(a, b):
        return a < b if lower else a > b

    wins = sum(better(n, b) for b, n in zip(base, new))
    all_better = all(better(n, b) for n in new for b in base)
    info = {
        "base_median": mb, "new_median": mn, "change": worse, "wins": wins, "pairs": min(len(base), len(new)),
        "base_spread": iqr_b / mb if mb else float("inf"), "new_spread": iqr_n / mn if mn else float("inf"),
    }
    enough = info["pairs"] >= MIN_GAIN_PAIRS
    if worse < 0 and wins >= 0.9 * info["pairs"] and abs(mn - mb) > iqr_b:
        info["verdict"] = "gain" if enough else "unresolved"
    elif max(info["base_spread"], info["new_spread"]) > bound:
        info["verdict"] = "gain" if all_better and enough else "unresolved"
    elif worse > bound:
        info["verdict"] = "REGRESSION"
    else:
        info["verdict"] = "same"
    return info


def compare(base_set, new_set, bench):
    """Rows ``(workload, pairs, failed_base, failed_new, {metric: info})``."""
    rows = []
    for workload in sorted(set(base_set) & set(new_set)):
        b_runs, n_runs = base_set[workload], new_set[workload]
        seeds = sorted(set(b_runs) & set(n_runs))
        if seeds:
            b_list = [b_runs[s] for s in seeds]
            n_list = [n_runs[s] for s in seeds]
        else:
            b_list = [b_runs[s] for s in sorted(b_runs)]
            n_list = [n_runs[s] for s in sorted(n_runs)]
        failed_b = sum(r["failed"] for r in b_list)
        failed_n = sum(r["failed"] for r in n_list)
        infos = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            infos[name] = verdict(
                metric,
                [r["metrics"][name]["value"] for r in b_list],
                [r["metrics"][name]["value"] for r in n_list],
            )
            if infos[name]["verdict"] == "gain" and failed_n > failed_b:
                infos[name]["verdict"] = "same"
        rows.append((workload, min(len(b_list), len(n_list)), failed_b, failed_n, infos))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="Compare two dirtytx benchmark result sets.")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load_set(args.base), load_set(args.new), bench)
    if not rows:
        print("no workload present in both result sets", file=sys.stderr)
        return 2
    bad = False
    for workload, pairs, failed_b, failed_n, infos in rows:
        flagged = [n for n, i in infos.items() if i["verdict"] != "same"]
        print("%-12s pairs %d, failed %d -> %d | %s" % (
            workload, pairs, failed_b, failed_n,
            ", ".join("%s %s" % (n, infos[n]["verdict"]) for n in flagged) or "all metrics same"))
        for name, i in infos.items():
            print("    %-12s %12.5g -> %-12.5g %+7.1f%% worse  wins %d/%d  spread %.3f/%.3f  %s" % (
                name, i["base_median"], i["new_median"], 100.0 * i["change"], i["wins"], i["pairs"],
                i["base_spread"], i["new_spread"], i["verdict"]))
        bad |= failed_n > 0 or any(i["verdict"] == "REGRESSION" for i in infos.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
