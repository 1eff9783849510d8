"""Deterministic report serialization.

Same inputs, same seed, same budgets must give byte-identical output, so
JSON is emitted with sorted keys and no timestamps, rationals are rendered
exactly as "num/den" strings, unreachable distances as the string
"infinity", and undecided verdicts as "unknown".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .digraph import INF, UNKNOWN, DirectedCycle, DirectedPath

SCHEMA_VERSION = 1


def jsonable(value):
    """Recursively convert package values into JSON-safe structures."""
    if value is UNKNOWN:
        return "unknown"
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return "infinity" if value == INF else value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (DirectedCycle, DirectedPath)):
        return list(value.vertices)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    return repr(value)


def make_report(instance: str, operation: str, parameters: dict, result,
                assertions=None) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "instance": instance,
        "operation": operation,
        "parameters": jsonable(parameters or {}),
        "result": jsonable(result),
        "certificate": None,
        "assertions": [
            {"name": name, "holds": bool(holds)}
            for name, holds in (assertions or [])
        ],
    }


def dump(report, fh) -> None:
    """Write the report to fh as it is encoded, so no copy of the whole
    text is held."""
    json.dump(jsonable(report), fh, sort_keys=True, indent=2)
    fh.write("\n")


def dumps(report) -> str:
    buf = io.StringIO()
    dump(report, buf)
    return buf.getvalue()


def write_csv(rows, columns) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        # ints and strs pass as they are; a bool's type is not int
        writer.writerow([v if type(v) is int or type(v) is str
                         else _csv_cell(v) for v in map(row.get, columns)])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    return jsonable(value)


def all_assertions_hold(report) -> bool:
    return all(a["holds"] for a in report.get("assertions", []))
