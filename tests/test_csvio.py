"""Every CSV goes through one reader with one rule set, and out through one
writer.

One table test feeds the same bad files to all six readers; AST tests keep
new hand-rolled CSV parsing and writing out of the package.
"""

import ast
import os
import re

import pytest

import fairpool
from fairpool.city import gen_grid_city, load_edges, load_locations
from fairpool.cli import _read_driver_rows
from fairpool.csvio import read_rows, write_rows
from fairpool.demand import ingest_trips
from fairpool.redistribution import load_coalition_table

GRID = gen_grid_city(5, 5, 1.0, 5.0, 2, 0)


def read_coalitions(path):
    """A loaded table as (values, driver_ids), which compare by value."""
    oracle = load_coalition_table(path)
    return oracle.values, oracle.driver_ids


# reader, header, one valid row, float columns
READERS = {
    "locations": (load_locations, "id,lat,lon", "0,0.0,0.0", ("lat", "lon")),
    "edges": (load_edges, "src,dst,minutes", "0,1,1.0", ("minutes",)),
    "trips": (
        lambda path: ingest_trips(path, GRID),
        "pickup_lat,pickup_lon,dropoff_lat,dropoff_lon,epoch_seconds",
        "0.0,0.0,4.0,4.0,5.0",
        ("pickup_lat", "pickup_lon", "dropoff_lat", "dropoff_lon", "epoch_seconds"),
    ),
    "coalitions": (read_coalitions, "coalition_bitmask,value", "1,1.0", ("value",)),
    "pi": (lambda path: _read_driver_rows(path, ("pi",)), "driver_id,pi", "0,1.0", ("pi",)),
    "shapley": (
        lambda path: _read_driver_rows(path, ("pi", "v")), "driver_id,pi,v", "0,1.0,1.0", ("pi", "v")
    ),
}


def bad_files(header, row, float_columns):
    """(case, file text, expected message after `path:`) for one reader."""
    names = header.split(",")
    cells = row.split(",")
    short = ",".join(cells[:-1])
    for column in float_columns:
        for value in ("nan", "inf", "-inf"):
            bad = list(cells)
            bad[names.index(column)] = value
            yield (
                f"{column}={value}",
                f"{header}\n{row}\n{','.join(bad)}\n",
                f"3: non-finite {column} {value}$",
            )
            yield (
                f"blank line, {column}={value}",
                f"{header}\n{row}\n\n{','.join(bad)}\n",
                f"4: non-finite {column} {value}$",
            )
    yield "short row", f"{header}\n{row}\n{short}\n", "3: malformed row"
    yield "long row", f"{header}\n{row}\n{row},9\n", "3: malformed row"
    yield "blank lines, short row", f"{header}\n{row}\n\n\n{short}\n", "5: malformed row"
    yield "extra header column", f"{header},extra\n{row},9\n", "1: expected header"


CASES = [
    pytest.param(reader, text, message, id=f"{name}: {case}")
    for name, (reader, header, row, float_columns) in READERS.items()
    for case, text, message in bad_files(header, row, float_columns)
]


@pytest.mark.parametrize("reader, text, message", CASES)
def test_every_reader_rejects_a_bad_row_naming_file_and_line(tmp_path, reader, text, message):
    path = str(tmp_path / "input.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=re.escape(path) + ":" + message):
        reader(path)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_strips_header_cells_and_skips_blank_lines(tmp_path, name):
    reader, header, row, _ = READERS[name]
    clean, padded = tmp_path / "clean.csv", tmp_path / "padded.csv"
    clean.write_text(f"{header}\n{row}\n")
    padded.write_text(" , ".join(header.split(",")) + f"\n\n{row}\n\n")
    assert reader(str(padded)) == reader(str(clean))


# (module file, enclosing function) allowed to call csv.reader or csv.DictReader
CSV_READER_CALLERS = {("csvio.py", "read_rows")}


def csv_reader_calls(tree):
    """(enclosing top-level function, call) for each csv.reader/DictReader use."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                yield owner, "from csv import " + ",".join(a.name for a in node.names)
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("reader", "DictReader")
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
            ):
                yield owner, f"csv.{node.attr}"


def test_input_csvs_are_parsed_only_by_the_shared_reader():
    package = os.path.dirname(fairpool.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            found |= {(name, owner, call) for owner, call in csv_reader_calls(tree)}
    assert sorted(call for call in found if call[:2] not in CSV_READER_CALLERS) == []


def test_write_rows_round_trips_through_read_rows_with_crlf_line_ends(tmp_path):
    path = str(tmp_path / "out.csv")
    write_rows(path, ["id", "x", "name"], [(0, repr(0.1), "a,b"), (12, repr(-1e-300), "")])
    with open(path, "rb") as fh:
        assert fh.read() == b'id,x,name\r\n0,0.1,"a,b"\r\n12,-1e-300,\r\n'
    columns = (("id", int), ("x", float), ("name", str))
    assert list(read_rows(path, columns)) == [(2, [0, 0.1, "a,b"]), (3, [12, -1e-300, ""])]


def test_only_csvio_imports_csv_or_writes_with_it():
    package = os.path.dirname(fairpool.__file__)
    found = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found |= {(name, "import csv") for alias in node.names if alias.name == "csv"}
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                found.add((name, "from csv import"))
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "writer"
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
            ):
                found.add((name, "csv.writer"))
    assert sorted(found) == [("csvio.py", "csv.writer"), ("csvio.py", "import csv")]
