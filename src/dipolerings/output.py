"""Deterministic CSV/JSON artifact writers shared by the CLI commands."""

import json

import numpy as np

UNITS_NOTE = "lengths in transition wavelengths, rates and shifts in units of Gamma0"


def _cell_format(digits: int):
    """The text of one value at `digits` significant figures: a float as "0", scientific
    below 1e-4 and %g above; a bool as 1 or 0; anything else as str()."""
    sci, fixed = f".{digits - 1}e", f".{digits}g"

    def cell(v):
        if v.__class__ is not float:        # a Python float, the common cell, skips this
            if isinstance(v, bool):
                return "1" if v else "0"
            if not isinstance(v, float):    # np.float64 formats as its float
                return str(v)
        if v == 0.0:
            return "0"
        return format(v, sci) if abs(v) < 1e-4 else format(v, fixed)

    return cell


def header_lines(version: str, config_items: list[tuple[str, str]]) -> list[str]:
    """Metadata header: tool version, units note, and the resolved config echo.

    config_items are ('section.key', 'value') pairs; the echoed lines re-parse
    to the same run configuration.
    """
    lines = [f"# dipolerings {version}", f"# units: {UNITS_NOTE}"]
    lines += [f"# config: {key} = {val}" for key, val in config_items]
    return lines


# Rows formatted together by write_csv: their cell texts are held until joined into lines.
CSV_BLOCK_ROWS = 4096


def _column_texts(column, cell) -> list[str]:
    """The texts of one column's cells.  A column of Python floats in which at
    most half the cells are distinct (a grid coordinate) is formatted once per
    distinct value; any other column cell by cell."""
    if set(map(type, column)) == {float}:     # 1, 1.0, True, np.True_ are equal but print apart
        texts = dict.fromkeys(column)           # -0.0 and 0.0 share an entry: both print 0
        if 2 * len(texts) <= len(column):
            for v in texts:
                texts[v] = cell(v)
            return list(map(texts.__getitem__, column))
    return list(map(cell, column))


def write_csv(path, version, config_items, columns, rows, digits=12):
    """Write the header, the column names and one line per row.

    The cells are formatted a column at a time, CSV_BLOCK_ROWS rows at a time
    (see `_column_texts`).  So a grid coordinate repeated on every row of a map
    takes one format per distinct value in each block, and the text is that of
    `_cell_format` cell by cell.
    """
    cell = _cell_format(digits)
    out = header_lines(version, config_items)
    out.append(",".join(columns))
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = zip(*rows[start:start + CSV_BLOCK_ROWS])
        out += map(",".join, zip(*[_column_texts(column, cell) for column in block]))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(out) + "\n")


def write_json(path, version, config_items, payload):
    doc = {
        "tool": "dipolerings",
        "version": version,
        "units": UNITS_NOTE,
        "config": {k: v for k, v in config_items},
        **payload,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def interleave_complex(values) -> list[float]:
    """Complex array as a flat [re, im, re, im, ...] list."""
    v = np.asarray(values)
    return np.column_stack((v.real, v.imag)).ravel().tolist()
