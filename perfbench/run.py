"""vtcycles benchmark.

    python3 perfbench/run.py --workload reproduce|pipeline|arith \\
        --seed N --seconds S --trace 0|1 [--out results.jsonl]
    python3 perfbench/run.py --workload all [--seconds S]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run does the workload's set-up, then runs passes over the workload's ops
in one process and one thread until about S seconds have been measured.
Every op's output is checked against ``reference.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``--workload all`` runs every workload in its
own process and prints a summary; ``--compare`` prints medians, quartiles
and ratios of two files written with ``--out``.  See METRICS.md.

Timings are scaled to a reference interpreter speed (see speed.py); raw
times are printed alongside.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops
import tracing
from speed import SpeedProbe

SETUP_REPEATS = 11
OUT_DIR = ops.ROOT / ".perfbench_out"


# --- set-up --------------------------------------------------------------------

def measure_setup(workload: str) -> tuple:
    """Median (scaled, raw) time of a fresh process that imports vtcycles
    and writes the workload's inputs."""
    probe = SpeedProbe()
    cmd = [sys.executable, str(ops.HERE / "ops.py"), workload]

    def setup_process():
        subprocess.run(cmd, cwd=ops.ROOT, check=True, stdout=subprocess.DEVNULL)

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        _, took, scale = probe.time(setup_process, ticks=False)
        raw.append(took)
        scaled.append(took * scale)
    return statistics.median(scaled), statistics.median(raw)


# --- passes --------------------------------------------------------------------

class Pass:
    """One pass: its raw and scaled time and, when traced, its spans, its
    per-layer metrics and the call count of every span name."""

    def __init__(self, order, traced: bool):
        self.order = order
        self.traced = traced
        self.raw = 0.0
        self.op_scaled = []
        self.spans = []
        self.layers = {}
        self.calls = {}
        self.by_op = {}

    @property
    def scaled(self) -> float:
        return sum(self.op_scaled)


def run_pass(vtc, order, reference, dumps, tracer, stats, probe) -> Pass:
    p = Pass(order, tracer is not None)
    scale = {}
    if tracer is not None:
        tracer.install()
    try:
        for i, op in enumerate(order):
            gc.collect()
            if tracer is not None:
                tracer.op = i
            outcome, took, scale[i] = probe.time(ops.run_op, vtc, op)
            p.raw += took
            p.op_scaled.append(took * scale[i])
            status, detail = ops.check(op, outcome, reference[op.name], dumps)
            s = stats.setdefault(op.name, {"scaled": [], "status": {}, "detail": ""})
            s["scaled"].append(took * scale[i])
            s["status"][status] = s["status"].get(status, 0) + 1
            if status != "ok":
                s["detail"] = detail
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        p.spans, counts = tracer.take()
        summary, p.by_op = tracing.summarize(p.spans, counts, scale)
        p.layers = {name: summary.get(name, 0) for name, _ in tracing.PER_LAYER}
        p.calls = {k[:-6]: v for k, v in summary.items() if k.endswith(".calls")}
    return p


def measure(vtc, workload, seed, seconds, trace, reference, dumps):
    op_list = ops.workload_ops(workload)
    rng = random.Random(seed)
    tracer = tracing.Tracer(vtc) if trace else None
    stats, passes = {}, []
    probe = SpeedProbe()
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        order = rng.sample(op_list, len(op_list))
        passes.append(run_pass(vtc, order, reference, dumps,
                               tracer if traced else None, stats, probe))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.raw for p in passes)
        enough = not trace or any(p.traced for p in passes)
        if enough and elapsed + typical / 2 >= seconds:
            break
    return op_list, stats, passes


# --- reporting -----------------------------------------------------------------

def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(workload, seed, trace, op_list, stats, passes, setup):
    attempted = sum(sum(s["status"].values()) for s in stats.values())
    failed = sum(n for s in stats.values() for st, n in s["status"].items() if st != "ok")
    wrong = sum(s["status"].get("wrong", 0) for s in stats.values())
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall = statistics.median(p.scaled for p in untraced)
    print(f"workload {workload}  seed {seed}  trace {trace}  passes {len(passes)}")
    print(f"{'op':<52} {'median_s':>9} {'runs':>5}  status")
    for op in op_list:
        s = stats[op.name]
        status = ", ".join(f"{k} {v}" for k, v in sorted(s["status"].items()))
        print(f"{op.name:<52} {statistics.median(s['scaled']):9.4f} "
              f"{len(s['scaled']):5d}  {status}")
    for op in op_list:
        s = stats[op.name]
        if s["detail"]:
            print(f"failed op: {op.name}: {s['detail'][:200]}")
    print(f"wall_s {wall:.4f} s (raw {statistics.median(p.raw for p in untraced):.4f} s)"
          f" | setup_s {setup[0]:.4f} s (raw {setup[1]:.4f} s)"
          f" | peak_rss_mib {peak_rss_mib():.1f} MiB"
          f" | fail_frac {failed}/{attempted} = {failed / attempted:.4f}")
    if trace:
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                continue
            values = [p.layers[name] for p in traced]
            value = (statistics.median(values) if unit == "s" else values[-1])
            if unit != "s" and len(set(values)) > 1:
                print(f"count {name} differs between passes: {values}")
            metrics[name] = {"value": value, "unit": unit}
        overhead = statistics.median(p.scaled for p in traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        last = traced[-1]
        for name, m in metrics.items():
            print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
        print("largest self times per op (last traced pass):")
        for op in op_list:
            i = last.order.index(op)
            total = last.op_scaled[i]
            top = ", ".join(f"{name} {t:.3f} s" for name, t in last.by_op[i].most_common(3))
            print(f"  {op.name} ({total:.3f} s): {top}")
        print("unreached (symmetric route; every cycle graph here has "
              "diameter 2 < DIAMETER_FLOOR = 20): "
              + ", ".join(f"{n} ({last.calls.get(n, 0)} calls)" for n in tracing.UNREACHED))
        write_spans(workload, seed, last.spans)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(), "unit": "MiB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(workload, seed, spans) -> None:
    """The last traced pass's spans, one JSON array per line:
    [name, start_s, end_s, parent_index, op_index]."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    print(f"spans: {len(spans)} written to {path.relative_to(ops.ROOT)}")


# --- modes ---------------------------------------------------------------------

def run_one(args) -> int:
    try:
        vtc = ops.import_package()
        reference = ops.load_reference()
    except (ops.PackageMissing, ImportError, OSError) as err:
        print(f"cannot start: {err}", file=sys.stderr)
        return 2
    dumps = vtc.reports.dumps  # taken before any span is installed
    missing = [op.name for op in ops.workload_ops(args.workload) if op.name not in reference]
    if missing:
        print(f"no reference for {missing}", file=sys.stderr)
        return 2
    setup = measure_setup(args.workload)
    workdir = ops.WORK / f"run-{os.getpid()}"
    ops.write_inputs(args.workload, workdir)
    cwd = os.getcwd()
    os.chdir(workdir)  # CLI reports name the input file; keep that name fixed
    try:
        op_list, stats, passes = measure(vtc, args.workload, args.seed, args.seconds,
                                         args.trace, reference, dumps)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(args.workload, args.seed, args.trace, op_list, stats, passes, setup)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for workload in ops.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode}")
            return 1
        rows.append((workload, json.loads(lines[-1]),
                     [ln for ln in lines if ln.startswith("failed op:")]))
    print(f"{'workload':<10} {'wall_s':>10} {'setup_s':>9} {'peak_rss_mib':>13} {'fail_frac':>16}")
    for workload, res, failures in rows:
        m = res["metrics"]
        if args.trace:
            print(f"{workload:<10} (traced run; see the per-layer table above)")
            continue
        print(f"{workload:<10} {m['wall_s']['value']:>8.3f} s {m['setup_s']['value']:>7.3f} s"
              f" {m['peak_rss_mib']['value']:>9.1f} MiB"
              f" {res['failed']:>4}/{res['attempted']:<4} = {res['failed'] / res['attempted']:.3f}")
        for line in failures:
            print(f"{'':<10} {line}")
    return 0


def compare(base_path, new_path) -> int:
    """Median and quartiles of every end-to-end metric on each side, per
    workload, and the ratio new/base with its base."""
    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                r = json.loads(line)
                if not r["trace"]:
                    runs.setdefault(r["workload"], []).append(r)
        return runs

    def stats(values):
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        return statistics.median(values), q[0], q[2]

    base, new = load(base_path), load(new_path)
    for workload in [w for w in ops.WORKLOADS if w in base and w in new]:
        for metric, first in base[workload][0]["metrics"].items():
            unit = first["unit"]
            cols = []
            for runs in (base[workload], new[workload]):
                med, q1, q3 = stats([r["metrics"][metric]["value"] for r in runs])
                cols.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}] {unit} (n={len(runs)})"))
            ratio = cols[1][0] / cols[0][0] if cols[0][0] else float("nan")
            print(f"{workload:<10} {metric:<13} base {cols[0][1]:<36} new {cols[1][1]:<36}"
                  f" new/base {ratio:.3f} (base {cols[0][0]:.4g} {unit})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ops.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
