"""Deterministic report serialization.

Same inputs, same seed, same budgets must give byte-identical output, so
JSON is emitted with sorted keys and no timestamps, rationals are rendered
exactly as "num/den" strings, unreachable distances as the string
"infinity", and undecided verdicts as "unknown".
"""

from __future__ import annotations

import io
import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import chain

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
    """CSV text: a header of ``columns``, then one line per row.  A row is
    a dict read by column name (a missing key is an empty cell) or a
    sequence of cells in column order.  A bool is written as 1 or 0, None
    as an empty cell and any other value as the text of ``jsonable``.

    The bytes are those of ``csv.writer(lineterminator="\\n")`` on Python
    3.11: a cell is quoted iff it holds a comma, a double quote or a
    newline, with each double quote doubled; a carriage return stays bare;
    a line of one empty cell is written as ``""``.  Each line is joined
    first, and its cells are quoted one by one only when it holds a double
    quote, a newline or more commas than cells less one: three scans of
    the line in C, where ``csv.writer`` copies each character."""
    lines = []
    for row in chain((columns,), rows):
        # strs pass as they are, ints as their text; a bool's type is not int
        cells = [v if type(v) is str else str(v) if type(v) is int
                 else _csv_cell(v)
                 for v in (map(row.get, columns) if isinstance(row, dict)
                           else row)]
        line = ",".join(cells)
        if line.count(",") != len(cells) - 1 or '"' in line or "\n" in line:
            line = ",".join(map(_quoted, cells))
        elif not line and cells:
            line = '""'
        lines.append(line)
    lines.append("")
    return "\n".join(lines)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    value = jsonable(value)
    return "" if value is None else str(value)


def _quoted(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def all_assertions_hold(report) -> bool:
    return all(a["holds"] for a in report.get("assertions", []))
