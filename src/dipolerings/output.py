"""Deterministic CSV/JSON artifact writers shared by the CLI commands.

A command's table is a numpy structured array, one typed field per column: float64,
int64, bool or str, plus the JSON-only rows of floats of `spectrum`.  The CSV writer
formats it a column at a time, in blocks of rows, and the JSON writer takes its records
from `tolist()`, so both formats print the same values."""

import json

import numpy as np

UNITS_NOTE = "lengths in transition wavelengths, rates and shifts in units of Gamma0"


def header_lines(version: str, config_items: list[tuple[str, str]]) -> list[str]:
    """Metadata header: tool version, units note, and the resolved config echo.

    config_items are ('section.key', 'value') pairs; the echoed lines re-parse
    to the same run configuration.
    """
    lines = [f"# dipolerings {version}", f"# units: {UNITS_NOTE}"]
    lines += [f"# config: {key} = {val}" for key, val in config_items]
    return lines


def _format_column(column: np.ndarray, digits: int) -> list[str]:
    """The cell texts of one typed column.  A float prints as "0" for +-0, with
    `digits - 1` decimals in scientific notation below 1e-4 and as %g with `digits`
    significant figures otherwise; a bool as 1 or 0; an int or a str as str().
    A float column in which at most half the values are distinct (a grid coordinate)
    is formatted once per distinct value."""
    if column.dtype.kind == "b":
        return np.where(column, "1", "0").tolist()
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    values, inverse = np.unique(column, return_inverse=True)
    if 2 * values.size > column.size:
        values, inverse = column, None
    values = values + 0.0                       # -0.0 + 0.0 is 0.0, which %g prints as 0
    fixed = f".{digits}g"
    small = (np.abs(values) < 1e-4) & (values != 0.0)
    formats = (np.where(small, f".{digits - 1}e", fixed).tolist() if small.any()
               else [fixed] * values.size)
    texts = list(map(format, values.tolist(), formats))
    return texts if inverse is None else np.array(texts, dtype=object)[inverse].tolist()


# Rows per block of write_csv: a block's cell texts cost about 480 B a row.
_WRITE_ROWS = 1 << 16


def write_csv(path, version, config_items, columns, rows, digits=12):
    """Write the header, the column names and one line per row of the table `rows`.

    `rows` is a structured array with a field for each name in `columns`.  The lines are
    formatted and written _WRITE_ROWS rows at a time, each field of a block as a whole column
    (see `_format_column`, whose texts do not depend on the other rows), so the memory beyond
    the table is one block's text.  `len(rows)` is the number of data lines.
    """
    head = header_lines(version, config_items) + [",".join(columns)]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(head) + "\n")
        for start in range(0, len(rows), _WRITE_ROWS):
            block = rows[start:start + _WRITE_ROWS]
            texts = [_format_column(block[name], digits) for name in columns]
            f.write("\n".join(map(",".join, zip(*texts))) + "\n")


def write_json(path, version, config_items, payload):
    doc = {
        "tool": "dipolerings",
        "version": version,
        "units": UNITS_NOTE,
        "config": {k: v for k, v in config_items},
        **payload,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        # a table's row-of-floats field is an array in its records: written as its list
        json.dump(doc, f, sort_keys=True, indent=1, default=np.ndarray.tolist)
        f.write("\n")
