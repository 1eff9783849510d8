import csv
import io
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtcycles.digraph import INF, UNKNOWN
from vtcycles.reports import jsonable, write_csv


def csv_writer_text(lines):
    """The text ``csv.writer(lineterminator="\\n")`` makes of the lines."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(lines)
    return buf.getvalue()


def csv_writer_cells(values):
    """The cells the package passes to ``csv.writer``: bools as 1 and 0,
    ints and strs as they are, anything else through ``jsonable``."""
    return [("1" if v else "0") if isinstance(v, bool)
            else v if type(v) in (int, str) else jsonable(v) for v in values]


# the characters csv.writer quotes on, and the carriage return it leaves bare
texts = st.text(alphabet=st.sampled_from(',"\n\r a1'), max_size=6)
cells = st.one_of(st.integers(), st.booleans(), st.none(), st.fractions(),
                  st.floats(), st.just(INF), st.just(UNKNOWN),
                  st.lists(st.integers(), max_size=3), texts)


@st.composite
def tables(draw):
    """(columns, rows): dict rows, some missing a column, and sequence
    rows with cells in column order."""
    columns = draw(st.lists(texts, max_size=4, unique=True))
    rows = draw(st.lists(
        st.fixed_dictionaries({}, optional={c: cells for c in columns})
        | st.lists(cells, min_size=len(columns), max_size=len(columns)),
        max_size=5))
    return columns, rows


@settings(max_examples=300, deadline=None)
@given(tables())
@example(([""], [{"": None}, {"": ""}, {}, ("x\ry",), ['say "hi"']]))
@example((["a,b", "c\nd"],
          [(1, True), {"a,b": [1, 2], "c\nd": Fraction(1, 3)}]))
def test_write_csv_matches_csv_writer(table):
    columns, rows = table
    lines = [columns] + [csv_writer_cells(map(row.get, columns))
                         if isinstance(row, dict) else csv_writer_cells(row)
                         for row in rows]
    assert write_csv(rows, columns) == csv_writer_text(lines)


def test_write_csv_quoting_rules():
    # quoted iff a comma, a double quote or a newline; the carriage
    # return stays bare; None is an empty cell; one empty cell is ""
    rows = [("x,y", 'a"b', "c\nd", "e\rf"), (None, True, INF, UNKNOWN),
            ("", False, Fraction(1, 2), 0.5)]
    assert write_csv(rows, ("p", "q", "r", "s")) == (
        'p,q,r,s\n"x,y","a""b","c\nd",e\rf\n,1,infinity,unknown\n'
        ',0,1/2,0.5\n')
    assert write_csv([{}, {"v": ""}], ("v",)) == 'v\n""\n""\n'
    assert write_csv([{"v": ""}], ("",)) == '""\n""\n'
