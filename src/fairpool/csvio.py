"""The one reader and the one writer of fairpool's CSVs.

Every CSV the program reads (city locations and edges, trips, coalition
tables, `driver_id,pi` incomes, `driver_id,pi,v` Shapley files and the
`requests.csv` that `load_run` re-reads from a run) follows one rule set,
applied here: the stripped header cells equal the expected column names,
empty rows are skipped, every other row has exactly one field per column,
each field parses as its column's type, and every float is finite. A
violation raises ValueError naming the file and the physical line, which
the CLI turns into exit 3. Callers keep only the checks that depend on what
the values mean. Every CSV artifact but `report.csv` is written by
`write_rows`.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

__all__ = ["read_rows", "write_rows"]


def read_rows(path: str, columns: tuple[tuple[str, type], ...]):
    """Yield `(line, values)` for each non-empty row of the CSV at `path`.

    `columns` lists each column's name and type: `int`, `float` or `str`.
    `line` is the physical line number the row ends on, counting the header
    as line 1.
    """
    names = [name for name, _ in columns]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [cell.strip() for cell in header] != names:
            raise ValueError(f"{path}:1: expected header {','.join(names)}, got {header}")
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            try:
                if len(row) != len(columns):
                    raise ValueError
                values = [kind(cell) for (_, kind), cell in zip(columns, row)]
            except ValueError:
                raise ValueError(f"{path}:{line}: malformed row {row!r}") from None
            for (name, kind), value in zip(columns, values):
                if kind is float and not math.isfinite(value):
                    raise ValueError(f"{path}:{line}: non-finite {name} {value}")
            yield line, values


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then each of `rows`, as the CSV at `path` in
    `csv.writer`'s default dialect, so every line ends in `\r\n`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
