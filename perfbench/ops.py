"""The benchmark's workloads: fixed inputs, the operations of each workload,
and the check of every operation's output against its recorded reference.

Every computation in vtcycles is exact and deterministic, so the inputs are
fixed; the seed only shuffles the order of operations within a pass.

Run as a script (``python3 perfbench/ops.py <workload>``) it does a workload's
set-up and nothing else: import the package from this checkout and write the
workload's input files.  The runner times that in fresh processes to get
``setup_s``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"

# `vtc verify` suites at the CLI defaults; fixed here so that a suite added to
# the package later changes no workload.
SUITES = ("trotter-erdos", "divisibility", "figure1", "lemma21", "lemma24",
          "theorem25", "lemma27", "toroidal")

# Hosts written as edge-list files and analyzed through `vtc analyze`.
EDGE_LIST_HOSTS = ("toroidal-1", "C3xC3", "C8xC8")

# Hosts of the library route: name -> max_cycles (None keeps the default).
# toroidal(50) enumerates 10^5 cycles and discards them; the default cap of
# 10^6 costs about 30 s per pass for the same discarded work.  Z2000 raises
# RecursionError at the seed; its cap keeps the op cheap once that is fixed.
CAYLEY_HOSTS = {"C2xC8": None, "C30xC30": None, "toroidal(50)": 10 ** 5,
                "Z2000<1,7>": 10 ** 3}


class PackageMissing(RuntimeError):
    """The checkout holds no importable vtcycles package."""


def import_package():
    """Import vtcycles from this checkout's ``src/`` and from nowhere else."""
    if not (SRC / "vtcycles" / "__init__.py").is_file():
        raise PackageMissing(f"no package under {SRC}")
    sys.path.insert(0, str(SRC))
    import vtcycles
    import vtcycles.cli
    import vtcycles.verify
    if Path(vtcycles.__file__).resolve().parent.parent != SRC.resolve():
        raise PackageMissing(f"vtcycles imported from {vtcycles.__file__}")
    return vtcycles


# --- inputs --------------------------------------------------------------------

def cycle_product_arcs(n1: int, n2: int) -> list:
    """Arcs of C_n1 x C_n2; vertex (a, b) is a*n2 + b."""
    arcs = []
    for a in range(n1):
        for b in range(n2):
            v = a * n2 + b
            arcs.append((v, ((a + 1) % n1) * n2 + b))
            arcs.append((v, a * n2 + (b + 1) % n2))
    return arcs


def toroidal_arcs(n: int) -> list:
    """Arcs of the toroidal gadget on 8n+4 vertices: the Cayley digraph of
    Z_{4n+2} x Z_2 with generators (1, 0) and (-1, 1); (a, b) is 2a + b."""
    m = 4 * n + 2
    arcs = []
    for a in range(m):
        for b in range(2):
            v = 2 * a + b
            arcs.append((v, 2 * ((a + 1) % m) + b))
            arcs.append((v, 2 * ((a - 1) % m) + (b + 1) % 2))
    return arcs


def edge_list_text(name: str) -> str:
    if name == "toroidal-1":
        n, arcs = 12, toroidal_arcs(1)
    else:
        n1, n2 = (int(t) for t in name[1:].split("xC"))
        n, arcs = n1 * n2, cycle_product_arcs(n1, n2)
    return "".join([f"{n} {len(arcs)}\n"] + [f"{u} {v}\n" for u, v in arcs])


def write_inputs(workload: str, directory: Path) -> None:
    """Write the workload's input files into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if workload == "pipeline":
        for name in EDGE_LIST_HOSTS:
            (directory / f"{name}.el").write_text(edge_list_text(name))


# --- operations ----------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One operation: a `vtc` command line, or a library pipeline call."""

    name: str
    argv: tuple = None
    host: str = None


def workload_ops(workload: str) -> list:
    if workload == "reproduce":
        return [Op(f"vtc verify {s}", argv=("verify", s)) for s in SUITES]
    if workload == "pipeline":
        ops = [Op(f"vtc analyze {h}.el --which pipeline-n13",
                  argv=("analyze", f"{h}.el", "--which", "pipeline-n13"))
               for h in EDGE_LIST_HOSTS]
        return ops + [Op(f"pipeline_n13 {h}", host=h) for h in CAYLEY_HOSTS]
    if workload == "arith":
        argvs = [("search", "theorem11", "--max-p", "1000"),
                 ("search", "prime-partitionable", "--max-d", "40"),
                 ("search", "motohashi", "--max-p", "100000")]
        return [Op("vtc " + " ".join(a), argv=a) for a in argvs]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("reproduce", "pipeline", "arith")


@dataclass
class Outcome:
    """What an op produced: stdout text and exit code, or the error raised."""

    code: int = 0
    text: str = ""
    error: str = ""
    value: object = None


def cayley_spec(vtc, host: str):
    if host == "Z2000<1,7>":
        return vtc.groups.CayleySpec(vtc.groups.cyclic_group(2000), (1, 7))
    if host == "toroidal(50)":
        return vtc.gadgets.toroidal_cayley_spec(50)
    n1, n2 = (int(t) for t in host[1:].split("xC"))
    return vtc.gadgets.product_cayley_spec(n1, n2)


def run_op(vtc, op: Op) -> Outcome:
    """Run one op.  Functions are looked up on their modules at call time,
    so spans installed by the tracer see these calls."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = vtc.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return Outcome(code=1, error=f"{type(exc).__name__}: {exc}")
        text = out.getvalue()
        return Outcome(code=code, text=text,
                       error="" if code == 0 else _cli_error(text, err.getvalue()))
    groups, cyclegraph = vtc.groups, vtc.cyclegraph
    try:
        spec = cayley_spec(vtc, op.host)
        D = groups.cayley_digraph(spec)
        fam = groups.left_translations(spec)
        cap = CAYLEY_HOSTS[op.host]
        kwargs = {} if cap is None else {"max_cycles": cap}
        cycle, report = cyclegraph.pipeline_n13(D, fam, **kwargs)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Outcome(code=1, error=f"{type(exc).__name__}: {exc}")
    return Outcome(value=(cycle, report))


def _cli_error(stdout: str, stderr: str) -> str:
    try:
        return str(json.loads(stdout)["error"])
    except (ValueError, KeyError, TypeError):
        lines = (stderr or stdout).strip().splitlines()
        return lines[-1] if lines else "no output"


def library_text(dumps, outcome: Outcome) -> str:
    """The reference text of a library op: the cycle and the report."""
    cycle, report = outcome.value
    return dumps({"cycle": cycle, "report": report})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --- checks --------------------------------------------------------------------

def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def check(op: Op, outcome: Outcome, ref: dict, dumps) -> tuple:
    """Return (status, detail); status is "ok", "failed" (raised or exited
    non-zero) or "wrong" (completed with output unlike the reference)."""
    if outcome.error:
        known = " (as at the seed)" if outcome.error == ref.get("error") else ""
        return "failed", outcome.error + known
    text = outcome.text if op.argv is not None else library_text(dumps, outcome)
    if "sha256" in ref:
        if digest(text) != ref["sha256"]:
            return "wrong", f"output differs from the reference ({len(text)} bytes)"
        return "ok", ""
    # No reference output: the op failed at the seed.  Check its invariants.
    if op.host is not None:
        return _check_cayley_cycle(op.host, *outcome.value)
    return _check_theorem11(text, ref["pqd_sha256"])


def pqd_digest(triples) -> str:
    """Digest of theorem11's (p, q, d) columns, as lists of ints."""
    return digest(json.dumps([[int(t) for t in row] for row in triples]))


def _check_cayley_cycle(host: str, cycle, report) -> tuple:
    """The cycle is a simple directed cycle of Z_n<1,7> with (9L)^3 >= n."""
    n, gens = 2000, {1, 7}
    vs = list(cycle.vertices)
    steps = {(w - v) % n for v, w in zip(vs, vs[1:] + vs[:1])}
    ok = (len(set(vs)) == len(vs) >= 2 and steps <= gens
          and (9 * len(vs)) ** 3 >= n and report.get("result_length") == len(vs))
    return ("ok", "") if ok else ("wrong", f"{host}: invalid cycle")


def _check_theorem11(text: str, pqd_sha256: str) -> tuple:
    rows = list(csv.reader(io.StringIO(text)))
    header_ok = rows[:1] == [["p", "q", "d", "n1", "n2", "n", "ln_n", "ratio"]]
    if not header_ok or pqd_digest(r[:3] for r in rows[1:]) != pqd_sha256:
        return "wrong", "theorem11 (p, q, d) columns differ from the reference"
    return "ok", ""


if __name__ == "__main__":
    probe_dir = WORK / f"setup-{os.getpid()}"
    try:
        import_package()
        write_inputs(sys.argv[1], probe_dir)
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)
