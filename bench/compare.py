"""A/B comparison of benchmark result files (parent commit vs change).

Run ``python3 -m bench`` alternately on the parent and on the change, at
least ten times each, then::

    python3 bench/compare.py --parent bench/out/results-<parent>-*.json \\
                             --change bench/out/results-<change>-*.json

The i-th parent file is paired with the i-th change file.  For every
workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles, the share of pairs the change wins (ties
count for neither side) and a verdict:

* ``improved`` — at least ten pairs, the change wins at least nine tenths
  of them, and the medians differ by more than the parent's own
  inter-quartile range;
* ``regressed`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``no-worse`` — otherwise.

An improvement does not count when the change fails more operations
than the parent; it is then reported as ``no-worse``.  Per-layer medians
of traced runs are listed after, without a verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _values(files: list[dict], workload: str, trace: int, metric: str) -> list[float]:
    out = []
    for doc in files:
        for run in doc["runs"]:
            if run["workload"] == workload and run["trace"] == trace and run["result"]:
                value = run["result"]["metrics"].get(metric)
                if value is not None:
                    out.append(value["value"])
    return out


def _failed(files: list[dict], workload: str) -> int:
    """Failed operations; a run that printed no result counts as one."""
    total = 0
    for doc in files:
        for run in doc["runs"]:
            if run["workload"] == workload:
                total += run["result"]["failed"] if run["result"] else 1
    return total


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            fewer_failures: bool = True) -> tuple[str, float]:
    """(verdict, change's win share over the pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs)
    p1, p_med, p3 = _quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)
    if (
        len(pairs) >= 10
        and win_share >= 0.9
        and gain > p3 - p1
        and fewer_failures
    ):
        return "improved", win_share
    if (p3 - p1) / abs(p_med) > bound:
        all_better = all(sign * (c - p) > 0 for c in change for p in parent)
        return ("no-worse" if all_better else "unresolved"), win_share
    if -gain / abs(p_med) > bound:
        return "regressed", win_share
    return "no-worse", win_share


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many parent files as change files (one per pair)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    if len(args.parent) < 10:
        print(f"note: {len(args.parent)} pairs; claiming a gain needs at least 10")
    for side, docs in (("parent", parent), ("change", change)):
        shas = sorted({d["machine"]["git_sha"][:12] for d in docs})
        machine = docs[0]["machine"]
        print(f"{side}: {', '.join(shas)} on {machine['cpu_model']}, "
              f"{machine['nproc']} CPUs")

    regressed = False
    for workload in (w["name"] for w in spec["workloads"]):
        fewer = _failed(change, workload) <= _failed(parent, workload)
        print(f"\n{workload}  (failed ops: parent {_failed(parent, workload)}, "
              f"change {_failed(change, workload)})")
        print(f"  {'metric':<14} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
              f"{'wins':>5}  verdict")
        for entry in spec["end_to_end"]:
            p = _values(parent, workload, 0, entry["name"])
            c = _values(change, workload, 0, entry["name"])
            if not p or not c or len(p) != len(c):
                print(f"  {entry['name']:<14} missing or unpaired results")
                continue
            v, win = verdict(p, c, entry["better"], entry["bound"], fewer)
            regressed |= v == "regressed"
            pq = "/".join(f"{x:.4g}" for x in _quartiles(p))
            cq = "/".join(f"{x:.4g}" for x in _quartiles(c))
            print(f"  {entry['name']:<14} {pq:>32} {cq:>32} {win:>5.0%}  {v}"
                  f"  ({entry['unit']}, bound {entry['bound']:.0%})")
        layers = []
        for entry in spec["per_layer"]:
            p = _values(parent, workload, 1, entry["name"])
            c = _values(change, workload, 1, entry["name"])
            if p and c and (statistics.median(p) or statistics.median(c)):
                layers.append((entry, statistics.median(p), statistics.median(c)))
        if layers:
            print("  per layer (traced medians, no verdict):")
            for entry, pm, cm in layers:
                print(f"    {entry['name']:<38} {pm:>12.4g} -> {cm:>12.4g} {entry['unit']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
