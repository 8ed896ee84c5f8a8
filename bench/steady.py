#!/usr/bin/env python3
"""Steadiness check: run the benchmark repeatedly on one commit.

    python3 bench/steady.py

For every workload in ``BENCHMARK.json`` it makes two sets of ten runs, each
run with its own seed (1 to 20).  For every end-to-end metric and set it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median next to the metric's bound.  Each
spread must stay within the bound and should stay below a third of it, and
the second set's median may not be worse than the first's by more than the
bound.  No operation may fail.  The exit status is 1 when any of this fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2
WALLS = []  # wall seconds of every run, to budget long measurements


def run_once(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    WALLS.append(time.monotonic() - start)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    result = json.loads(last)
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.exit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(metric, first, second):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    ok = True
    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        medians = []
        for s in range(SETS):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            runs = [run_once(spec, workload, seed) for seed in seeds]
            set_medians = {}
            for m in metrics:
                values = [r[m["name"]] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                set_medians[m["name"]] = med
                verdict = "ok"
                if spread > m["bound"]:
                    verdict, ok = "OVER BOUND", False
                elif spread > m["bound"] / 3:
                    verdict = "above bound/3"
                print(
                    f"{workload:11s} set {s + 1} {m['name']:17s} median {med:12.6g} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                    f"bound {m['bound']:.2f} {verdict}",
                    flush=True,
                )
                report.setdefault(workload, []).append(
                    {"set": s + 1, "metric": m["name"], "values": values, "spread": spread}
                )
            medians.append(set_medians)
        for m in metrics:
            change = worse(m, medians[0][m["name"]], medians[1][m["name"]])
            verdict = "ok" if change <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and change <= m["bound"]
            print(f"{workload:11s} second set vs first {m['name']:17s} {change:+.4f} {verdict}", flush=True)
    print(f"wall per run: median {statistics.median(WALLS):.1f} s, max {max(WALLS):.1f} s")
    out = ROOT / ".bench_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
