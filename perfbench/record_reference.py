"""Write reference.json: every op's output at the parent commit.

    python3 perfbench/record_reference.py

For each op it stores the exit code, the SHA-256 and length of its stdout
(CLI ops) or of ``reports.dumps({"cycle": ..., "report": ...})`` (library
pipeline calls).  An op that fails is stored with its error text and no
output digest; the benchmark then counts it as failed and, once it
succeeds, checks it by invariants instead.  For `vtc search theorem11` the
digest of the (p, q, d) columns of ``perimeter_gap_table(1000)`` is stored
for that check.

Run it only on the commit whose outputs are the reference; a later commit
that changes an output on purpose records the new reference with it.
"""

from __future__ import annotations

import json
import os
import platform
import shutil

import ops


def main() -> int:
    vtc = ops.import_package()
    refs = {}
    for workload in ops.WORKLOADS:
        workdir = ops.WORK / f"record-{os.getpid()}"
        ops.write_inputs(workload, workdir)
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            for op in ops.workload_ops(workload):
                outcome = ops.run_op(vtc, op)
                entry = {"exit": outcome.code}
                if outcome.error:
                    entry["error"] = outcome.error
                else:
                    text = (outcome.text if op.argv is not None
                            else ops.library_text(vtc.reports.dumps, outcome))
                    entry["sha256"] = ops.digest(text)
                    entry["bytes"] = len(text.encode("utf-8"))
                if op.argv is not None and op.argv[:2] == ("search", "theorem11"):
                    table = vtc.numbergap.perimeter_gap_table(1000)
                    entry["pqd_sha256"] = ops.pqd_digest(
                        (r["p"], r["q"], r["d"]) for r in table)
                refs[op.name] = entry
                print(op.name, entry)
        finally:
            os.chdir(cwd)
            shutil.rmtree(workdir, ignore_errors=True)
    with open(ops.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"python": platform.python_version(), "ops": refs}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
