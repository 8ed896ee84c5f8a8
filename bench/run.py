#!/usr/bin/env python3
"""The qtree benchmark: one command, three workloads, end-to-end and per-layer.

Usage, from the root of a checkout (the library is imported from ``src/``):

    python3 bench/run.py --workload tree-large --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the named workload as a closed loop with one client for
``--seconds`` seconds of operation time (and at least 21 operations, so that
the tail has ten samples beyond it) and reports the end-to-end metrics.
Their times are rescaled to a fixed speed of the machine, measured in the
same run by calibration work that never calls qtree (see ``CAL_SHARE``);
the raw times are printed next to them on stderr.
``--trace 1`` reports the per-layer metrics of the named workload instead: it
times a fixed prefix of the schedule untraced and then traced, writes the
spans to ``.bench_work/``, and adds the CLI start-up probes, the size sweeps
and, on toric, the deep-chain probe; ``--seconds`` does not apply to it.
The seed fixes the inputs and the hash seed of the benchmark process.  Every answer is checked against
:mod:`reference`; the last line of standard output is one JSON object, and
the exit status is 1 when an answer was wrong and 2 when the benchmark could
not run at all.  A human-readable table goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

import sweeps  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# String hashing is randomized per process, and the cost of the set- and
# dict-heavy calculus moves with the hash layout.  The benchmark process
# takes its hash seed from the run seed, so a run repeats exactly while the
# medians over several seeds average over layouts; every child gets its own
# (see ``child_env`` and ``CliVerbs.place``).

SETUP_REPS = 15
# The machine's own speed drifts by a third and more over minutes, which
# moved every time metric of a run by as much as any code change would.  So
# each run also times fixed work that never calls qtree between operations
# (CAL_SHARE of the operation time) and reports its times rescaled to the
# speed at which that work takes its reference time; the raw times go to
# stderr.  The in-process workloads time ``calibration_ns`` (CAL_REF_MS).
# cli-verbs times a bare fresh interpreter (SPAWN_REF_MS): its operations are
# fresh interpreters, which slow spells of the host's process creation hit
# far harder than they hit work inside one process.
CAL_SHARE = 0.1
CAL_REF_MS = 1.3
SPAWN_REF_MS = 50.0
SPAWN_REPS = 5
WARMUP_OPS = 1
MIN_OPS = 21  # the tail percentile needs ten samples beyond it
# operations of the schedule the traced run covers (default: all of it), a
# fixed prefix so that per-layer totals compare across commits
TRACED_OPS = {"tree-large": 4}

# Per-layer metrics: (metric, workload it is meant for, end-to-end metric it
# should move there).  The metric names the span (".self_ms" self time,
# ".calls" span count) or counter (".count") it is read from.  A traced run
# reports every one of them for the workload it traces; a layer that
# workload does not reach reads 0.
LAYER_METRICS = [
    ("points.point_new.count", "tree-large", "throughput_ops_s"),
    ("points.pointset_new.count", "tree-large", "throughput_ops_s"),
    ("points.pointset_new.self_ms", "tree-large", "throughput_ops_s"),
    ("points.is_antichain.self_ms", "tree-large", "op_tail_ms"),
    ("points.minimal_points.self_ms", "tree-large", "op_tail_ms"),
    ("ideals.basepointset_new.self_ms", "tree-large", "op_p50_ms"),
    ("ideals.child_labels.calls", "tree-large", "op_p50_ms"),
    ("ideals.child_labels.self_ms", "tree-large", "op_p50_ms"),
    ("ideals.terminals.self_ms", "tree-large", "op_p50_ms"),
    ("ideals.saturate.self_ms", "tree-large", "op_tail_ms, peak_rss_mb"),
    ("ideals.base_points.self_ms", "tree-large", "op_tail_ms, peak_rss_mb"),
    ("models.closed_points.self_ms", "tree-large", "op_p50_ms, throughput_ops_s"),
    ("models.minimal_model_containing.self_ms", "tree-large", "op_p50_ms, throughput_ops_s"),
    ("models.minimal_incomparable_set.self_ms", "tree-large", "op_p50_ms, throughput_ops_s"),
    ("models.join.self_ms", "tree-large", "op_p50_ms, throughput_ops_s"),
    ("intersections.classify.self_ms", "tree-large", "op_tail_ms"),
    ("intersections.is_complete_representation.self_ms", "tree-large", "op_tail_ms"),
    ("intersections.descriptor_new.self_ms", "tree-large", "op_tail_ms"),
    ("monomial.ideal_new.count", "toric", "throughput_ops_s"),
    ("monomial.ideal_new.self_ms", "toric", "throughput_ops_s"),
    ("monomial.integral_closure.calls", "toric", "op_p50_ms, op_tail_ms"),
    ("monomial.integral_closure.self_ms", "toric", "op_p50_ms, op_tail_ms"),
    ("monomial.quadratic_transform.calls", "toric", "op_p50_ms, op_tail_ms"),
    ("monomial.base_points.self_ms", "toric", "op_tail_ms"),
    ("monomial.base_points.deep_chain_errors", "toric", "none (an untimed probe, see Toric.deep_chain)"),
    ("monomial.generators_for_ideal.self_ms", "toric", "op_p50_ms, op_tail_ms"),
    ("monomial.factorize.self_ms", "toric", "op_p50_ms"),
    ("serialize.decode.self_ms", "cli-verbs", "op_p50_ms"),
    ("serialize.encode.self_ms", "cli-verbs", "op_p50_ms"),
    ("serialize.bytes_in", "cli-verbs", "op_p50_ms"),
    ("serialize.bytes_out", "cli-verbs", "op_p50_ms"),
    ("cli.spawn_ms", "cli-verbs", "setup_s, op_p50_ms"),
    ("cli.import_ms", "cli-verbs", "setup_s, op_p50_ms"),
    ("cli.main.self_ms", "cli-verbs", "op_p50_ms"),
    ("cli.exit.0.count", "cli-verbs", "op_p50_ms"),
    ("cli.exit.1.count", "cli-verbs", "op_p50_ms"),
    ("cli.exit.2.count", "cli-verbs", "op_p50_ms"),
    ("render.model_to_dot.self_ms", "cli-verbs", "op_tail_ms"),
    ("truncation.points.self_ms", "cli-verbs", "op_tail_ms"),
]


def layer_metric_units():
    """(name, unit, better) of every per-layer metric, in output order."""
    yield "trace.overhead_ratio", "ratio", "higher"
    for metric, _, _ in LAYER_METRICS:
        unit = "ms" if metric.endswith("_ms") else "bytes" if "bytes" in metric else "count"
        yield metric, unit, "higher" if metric == "cli.exit.0.count" else "lower"
    for name, unit in sweeps.metric_names():
        yield name, unit, "lower"


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_qtree():
    """Import qtree from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qtree
    import qtree.cli  # noqa: F401  (imports every module the CLI uses)

    if Path(qtree.__file__).resolve().parent != SRC / "qtree":
        die(f"imported qtree from {qtree.__file__}, not from {SRC}")
    return qtree


def child_env():
    """The environment of a child interpreter: this checkout's sources, and
    no fixed hash seed, so that each child draws its own."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn_times(code, workdir, reps):
    """Wall seconds of ``python -c code`` in fresh interpreters."""
    empty = os.path.join(workdir, "empty")
    open(empty, "w").close()
    env = child_env()
    times = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        status, _, err, _ = wl.spawn([sys.executable, "-c", code], env, workdir, empty)
        times.append((perf_counter_ns() - t0) / 1e9)
        if status != 0:
            die(f"fresh interpreter failed: {err.strip()[-300:]}")
    return times


class Outcome:
    """Latencies, failures and wrong answers of one pass over a workload."""

    def __init__(self):
        self.lat = []
        self.busy = 0
        self.failed = 0
        self.child_rss_kb = 0
        self.errors = {}
        self.wrong = []
        self.results = []
        self.cal = []  # calibration times, ns

    def record_wrong(self, op, exc):
        self.wrong.append(f"{op[0]}: {type(exc).__name__}: {exc}")


def run_op(workload, run, op, out):
    t0 = perf_counter_ns()
    try:
        result = run(op)
        ok = workload.ok(result)
    except Exception as exc:  # a failed operation is measured, not fatal
        result, ok = None, False
        out.errors[type(exc).__name__] = out.errors.get(type(exc).__name__, 0) + 1
    dt = perf_counter_ns() - t0
    out.lat.append(dt)
    out.busy += dt
    if not ok:
        out.failed += 1
    return result, ok


def check(workload, op, result, out):
    try:
        workload.check(op, result)
    except Exception as exc:  # any check that cannot confirm the answer
        out.record_wrong(op, exc)


def calibration_ns():
    """Wall time of fixed work shaped like the calculus's own: the chain of
    prefixes of a long label path, as saturation and base points build it,
    then a dict keyed on short slices.  It allocates and frees a few MB, so
    it slows with the process's heap and the host's memory as the library
    does, where cache-resident work does not.  It never calls qtree, its
    hashes do not depend on the hash seed, and the collector is held off so
    that the library's allocations cannot change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        path = tuple(range(1000))
        chain = [path[:k] for k in range(0, 1000, 2)]
        seen = {p[-1:]: p for p in chain}
        del chain, seen
        return perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def closed_loop(workload, seconds, setup, calibrate):
    """Cycle through the schedule until ``seconds`` of operation time have
    run; each distinct input is checked the first time it runs, outside the
    clock.  ``setup()`` times one set-up; it runs
    SETUP_REPS times, outside the clock, at even steps of operation time, so
    that set-up is sampled over the whole run and a slow or fast spell of
    the machine does not set its median alone.  After each operation
    ``calibrate()`` (ns) runs until it has taken CAL_SHARE of the operation
    time, so that it samples the machine's speed over the same stretch."""
    ops = workload.ops
    for op in ops[:WARMUP_OPS]:
        workload.run(op)
    gc.collect()
    out = Outcome()
    setups = []
    budget = seconds * 1e9
    i = 0
    while out.busy < budget or i < MIN_OPS:
        if len(setups) < SETUP_REPS and out.busy >= len(setups) * budget / SETUP_REPS:
            setups.append(setup())
        op = ops[i % len(ops)]
        result, ok = run_op(workload, workload.run, op, out)
        if ok and i < len(ops):
            check(workload, op, result, out)
        if isinstance(workload, wl.CliVerbs) and result is not None:
            out.child_rss_kb = max(out.child_rss_kb, result[3])
        while sum(out.cal) < CAL_SHARE * out.busy:
            out.cal.append(calibrate())
        i += 1
    while len(setups) < SETUP_REPS:
        setups.append(setup())
    return out, setups


def tail(lat):
    """The highest percentile with ten samples beyond it: (ms, percentile)."""
    s = sorted(lat)
    n = len(s)
    return s[n - 11] / 1e6, 100.0 * (n - 10) / n


def make_workload(name, q, seed, workdir):
    cls = wl.WORKLOADS[name]
    if cls is wl.CliVerbs:
        return cls(q, seed, workdir, sys.executable, child_env())
    return cls(q, seed)


def end_to_end(name, seed, seconds, workdir):
    q = load_qtree()
    workload = make_workload(name, q, seed, workdir)
    code = "import " + ", ".join(workload.modules)
    # the first fresh interpreter may compile bytecode and is not counted
    spawn_times(code, workdir, 1)
    if isinstance(workload, wl.CliVerbs):
        calibrate, ref_ms = (lambda: spawn_times("pass", workdir, 1)[0] * 1e9), SPAWN_REF_MS
    else:
        calibrate, ref_ms = calibration_ns, CAL_REF_MS
    out, setups = closed_loop(
        workload, seconds, lambda: spawn_times(code, workdir, 1)[0], calibrate
    )
    n = len(out.lat)
    rss_kb = out.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_ms, pct = tail(out.lat)
    cal_ms = statistics.median(out.cal) / 1e6
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(out.lat) / 1e6,
        "op_tail_ms": tail_ms,
        "throughput_ops_s": n / (out.busy / 1e9),
    }
    scale = ref_ms / cal_ms
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "throughput_ops_s": (raw["throughput_ops_s"] / scale, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_ratio": ((n - out.failed) / n, "ratio"),
    }
    notes = {k: f"raw {v:.6g}" for k, v in raw.items()}
    notes["op_tail_ms"] += f", p{pct:.2f} of {n} ops"
    notes["ok_ratio"] = f"fail_ratio {out.failed / n:.6f} ({out.failed} of {n}; {out.errors or 'no errors'})"
    notes["calibration"] = f"median {cal_ms:.4f} ms over {len(out.cal)} samples (reference {ref_ms} ms)"
    return metrics, notes, n, out


def traced(name, seed, workdir):
    """Per-layer metrics of one workload: a fixed prefix of its schedule run
    untraced and then traced, plus the CLI start-up probes and the size
    sweeps, which belong to no workload and run in every traced run, and on
    toric the untimed deep-chain probe."""
    q = load_qtree()
    workload = make_workload(name, q, seed, workdir)
    run = workload.run_in_process if isinstance(workload, wl.CliVerbs) else workload.run
    ops = workload.ops[: TRACED_OPS.get(name)]
    for op in ops[:WARMUP_OPS]:
        run(op)
    gc.collect()
    plain = Outcome()
    for op in ops:
        run_op(workload, run, op, plain)
    tracer = tracing.Tracer(q)
    tracer.install()
    gc.collect()
    out = Outcome()
    try:
        for op in ops:
            out.results.append(run_op(workload, run, op, out))
            tracer.end_op()
    finally:
        tracer.uninstall()
    for op, (result, ok) in zip(ops, out.results):
        if ok:
            check(workload, op, result, out)
    stats = {k + ".count": v for k, v in tracer.counts.items()}
    if isinstance(workload, wl.CliVerbs):
        codes = [r[0] for r, _ in out.results if r is not None]
        for code in (0, 1, 2):
            stats[f"cli.exit.{code}.count"] = codes.count(code)
        stats["serialize.bytes_in"] = sum(len(op[1]["text"].encode()) for op in ops)
        stats["serialize.bytes_out"] = sum(len(r[1].encode()) for r, _ in out.results if r)
    bare = statistics.median(spawn_times("pass", workdir, SPAWN_REPS))
    imported = statistics.median(spawn_times("import qtree.cli", workdir, SPAWN_REPS))
    stats["cli.spawn_ms"] = bare * 1e3
    stats["cli.import_ms"] = (imported - bare) * 1e3
    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{name}-seed{seed}.tsv"
    tracing.write_spans(path, name, tracer.spans)
    for span, (self_ms, calls) in tracing.self_times(path).items():
        stats[span + ".self_ms"] = self_ms
        stats[span + ".calls"] = stats[span + ".count"] = calls
    values = {"trace.overhead_ratio": plain.busy / out.busy}
    notes = {}
    for metric, meant_for, moves in LAYER_METRICS:
        values[metric] = stats.get(metric, 0)
        notes[metric] = f"-> {moves} on {meant_for}"
    if isinstance(workload, wl.Toric):
        errors, wrong = workload.deep_chain()
        values["monomial.base_points.deep_chain_errors"] = errors
        if wrong:
            out.wrong.append(wrong)
    values.update(sweeps.run_sweeps(q, seed))
    metrics = {m: (values[m], unit) for m, unit, _ in layer_metric_units()}
    notes["spans"] = str(path)
    return metrics, notes, len(ops), out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "qtree" / "__init__.py").is_file():
        die(f"no qtree sources under {SRC}; run from the root of a checkout")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, notes, attempted, out = traced(args.workload, args.seed, str(workdir))
        else:
            metrics, notes, attempted, out = end_to_end(
                args.workload, args.seed, args.seconds, str(workdir)
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        note = notes.pop(name, "")
        print(f"{name:58s} {value:14.6f} {unit:9s} {note}", file=sys.stderr)
    for name, note in notes.items():
        print(f"{name}: {note}", file=sys.stderr)
    for message in out.wrong[:5]:
        print(f"WRONG ANSWER {message}", file=sys.stderr)
    if len(out.wrong) > 5:
        print(f"... {len(out.wrong) - 5} more wrong answers", file=sys.stderr)
    result = {
        "correct": not out.wrong,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not out.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
