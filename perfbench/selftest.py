"""The benchmark's own test.

    python3 perfbench/selftest.py [workload ...]

Checks that
- the edge-list inputs the benchmark writes are the package's own hosts;
- BENCHMARK.json lists exactly the per-layer metrics the tracer reports;
- every work count of a traced run repeats exactly in a second run, and the
  result line has the contract's keys;
- the invariant checks of the two ops that fail at the seed accept their
  output once the limits they hit are lifted;
- in a directory holding only BENCHMARK.json and perfbench/, the runner exits
  non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import ops
import tracing

RUN = [sys.executable, str(ops.HERE / "run.py")]


def fail(message: str):
    print(f"FAIL: {message}")
    raise SystemExit(1)


def check_inputs(vtc) -> None:
    read = vtc.digraph.read_edge_list
    if read(ops.edge_list_text("toroidal-1")) != vtc.gadgets.toroidal_gadget(1):
        fail("toroidal-1 edge list differs from gadgets.toroidal_gadget(1)")
    for n1, n2 in ((3, 3), (8, 8)):
        if read(ops.edge_list_text(f"C{n1}xC{n2}")) != vtc.gadgets.directed_cycle_product(n1, n2):
            fail(f"C{n1}xC{n2} edge list differs from directed_cycle_product")
    print("ok: edge-list inputs match the package's constructors")


def check_benchmark_json() -> None:
    with open(ops.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if listed != tracing.PER_LAYER:
        fail("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(ops.WORKLOADS):
        fail("BENCHMARK.json workloads differ from ops.WORKLOADS")
    print("ok: BENCHMARK.json matches the tracer's metrics and the workloads")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", "1"],
                          stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if not result["correct"]:
        fail(f"{workload}: an op's output differs from the reference")
    if set(result["metrics"]) != {name for name, _ in tracing.PER_LAYER}:
        fail(f"{workload}: traced metrics differ from tracing.PER_LAYER")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s"}


def check_counts(workload: str) -> None:
    first, second = traced_counts(workload, 1), traced_counts(workload, 2)
    if first != second:
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        fail(f"{workload}: counts differ between runs: {diff}")
    print(f"ok: {workload}: {len(first)} counts repeat exactly across two runs")


def check_invariant_checks(vtc) -> None:
    """The two ops that fail at the seed are checked by invariants once they
    succeed.  Lift the limits they hit and see the checks accept the output."""
    reference = ops.load_reference()
    dumps = vtc.reports.dumps
    digits, depth = sys.get_int_max_str_digits(), sys.getrecursionlimit()
    sys.set_int_max_str_digits(0)
    sys.setrecursionlimit(20_000)
    try:
        for op in ops.workload_ops("arith")[:1] + ops.workload_ops("pipeline")[-1:]:
            outcome = ops.run_op(vtc, op)
            status, detail = ops.check(op, outcome, reference[op.name], dumps)
            if status != "ok":
                fail(f"{op.name} with limits lifted: {status} {detail}")
    finally:
        sys.set_int_max_str_digits(digits)
        sys.setrecursionlimit(depth)
    print("ok: the invariant checks accept theorem11 and Z2000 once their limits are lifted")


def check_empty_directory() -> None:
    bare = ops.WORK / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ops.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ops.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "reproduce",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("the runner produced a result without the package")
    print(f"ok: without the package the runner exits {proc.returncode} with no result")


def main(argv) -> int:
    vtc = ops.import_package()
    check_inputs(vtc)
    check_benchmark_json()
    for workload in argv or ops.WORKLOADS:
        check_counts(workload)
    check_invariant_checks(vtc)
    check_empty_directory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
