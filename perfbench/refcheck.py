"""Reading command outputs and counting the positions whose row is wrong.

A row matches its expected row when every expected field is present and
    * identification fields (index, LOS flag, breakpoint, sides, visible ids,
      ``n_stages``, ``n_paths``) are equal, and
    * every other field is a number within 1e-9 relative of the expected one.
A reworked kernel may move the last bits, hence the relative tolerance.  The
CLI prints 10 significant digits, so one unit of rounding in the last digit
stays inside it.  Values that are zero up to rounding noise (a one-path
Doppler spread prints as 7e-15 Hz) are compared with an absolute floor of
1e-9 in the column's own unit, except the field magnitude ``e_abs``, which
spans many decades below 1 V/m and is compared relatively only.  Fields the
expected row does not have are ignored, so added columns do not fail a row.
"""

import csv
import json

REL_TOL = 1e-9
ABS_FLOOR = 1e-9
NO_FLOOR = frozenset({"e_abs"})
EXACT_FIELDS = frozenset({"index", "los", "bp", "sides", "visible",
                          "n_stages", "n_paths"})


def read_rows(path):
    """Rows of a ``.jsonl`` or ``.csv`` output as dicts, in file order."""
    with open(path, encoding="utf-8", newline="") as fh:
        if path.endswith(".jsonl"):
            return [json.loads(line) for line in fh if line.strip()]
        return list(csv.DictReader(fh))


def _close(name, got, want):
    try:
        a, b = float(got), float(want)
    except (TypeError, ValueError):
        return False
    diff = abs(a - b)
    if diff <= REL_TOL * max(abs(a), abs(b)):
        return True
    return name not in NO_FLOOR and diff <= ABS_FLOOR


def row_matches(row, want):
    for name, value in want.items():
        if name not in row:
            return False
        if name in EXACT_FIELDS:
            if row[name] != value:
                return False
        elif not _close(name, row[name], value):
            return False
    return True


def count_failed(rows, expected):
    """Expected rows that are missing from ``rows`` or do not match."""
    failed = 0
    for i, want in enumerate(expected):
        if i >= len(rows) or not row_matches(rows[i], want):
            failed += 1
    return failed


def count_unindexed(rows, positions):
    """Positions without a row that carries their own index, in route order."""
    return positions - sum(1 for i, row in enumerate(rows[:positions])
                           if str(row.get("index")) == str(i))
