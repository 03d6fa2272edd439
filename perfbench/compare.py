"""Paired comparison of two sets of benchmark result files.

Usage, from the repository root::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result files written by ``perfbench/run.py`` (its
``results/`` subdirectory is searched too).  Runs are paired per
workload by seed, and in run order where seeds do not match.  For each
workload and end-to-end metric in ``BENCHMARK.json`` it prints each
side's median and quartiles, how many pairs the change wins (ties count
for neither), the mean paired ratio change/parent with its bootstrap
95% CI (``repro.bench.stats.bootstrap_ci``), and a verdict:

* ``gain`` -- the change wins at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``regression`` -- the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` -- the parent's spread is wider than the bound and not
  every change run beats every parent run;
* ``within bound`` -- otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(directory: str) -> dict[str, list[dict]]:
    """Untraced result records by workload, in run order."""
    paths = sorted(set(glob.glob(os.path.join(directory, "*.json"))
                       + glob.glob(os.path.join(directory, "results", "*.json"))))
    runs: dict[str, list[dict]] = {}
    for path in paths:
        if path.endswith(".trace.json"):
            continue
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == 0 and "workload" in record:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r.get("started", ""))
    return runs


def pair_runs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pairs with equal seeds first, then the rest in run order."""
    pairs, rest_p, rest_c = [], list(parent), list(change)
    for p in parent:
        match = next((c for c in rest_c if c["seed"] == p["seed"]), None)
        if match is not None:
            pairs.append((p, match))
            rest_p.remove(p)
            rest_c.remove(match)
    return pairs + list(zip(rest_p, rest_c))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(q) -> str:
    return "/".join(f"{x:.4g}" for x in q)


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int]:
    """choosing-metrics section 8 verdict, and the change's wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "gain", wins
    if pm and sign * (cm - pm) < -bound * abs(pm):
        return "regression", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", wins
    return "within bound", wins


def compare(parent_dir: str, change_dir: str, spec: dict) -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.bench.stats import bootstrap_ci

    parent, change = load_runs(parent_dir), load_runs(change_dir)
    lines = []
    for workload in sorted(set(parent) & set(change)):
        pairs = pair_runs(parent[workload], change[workload])
        lines.append(f"== {workload}: {len(pairs)} pairs")
        lines.append(f"  {'metric':18s} {'parent q1/med/q3':>30s} {'change q1/med/q3':>30s}"
                     f" {'wins':>6s} {'mean ratio [95% CI]':>26s}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            vp = [r["metrics"][name]["value"] for r in parent[workload]]
            vc = [r["metrics"][name]["value"] for r in change[workload]]
            vpairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
                      for a, b in pairs]
            ratios = [b / a for a, b in vpairs if a]
            v, wins = verdict(vp, vc, vpairs, m["better"], m["bound"])
            if ratios:
                lo, hi = bootstrap_ci(ratios)
                ci = f"{statistics.fmean(ratios):.3f} [{lo:.3f}, {hi:.3f}]"
            else:
                ci = "n/a"
            lines.append(f"  {name:18s} {_fmt(quartiles(vp)):>30s} {_fmt(quartiles(vc)):>30s}"
                         f" {wins:>3d}/{len(vpairs):<2d} {ci:>26s}  {v} "
                         f"({m['better']} is better, bound {m['bound']:.0%})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lines = compare(argv[0], argv[1], spec)
    if not lines:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
