"""The artifact file formats: comma-separated tables and JSON records.

Every table and record a run writes goes through these functions, so a run's
files are byte-identical for any worker count and across releases that keep
the same numbers.
"""

from __future__ import annotations

import json
import operator

import numpy as np


def write_csv(path, columns) -> None:
    """ASCII table from a mapping of column name to an equal-length list of
    Python ``int`` and ``float`` cells, such as ``ndarray.tolist()`` gives.

    Every cell is written as its ``repr``, so floats round-trip exactly.  A
    list's ``repr`` is its cells' ``repr`` joined by ``", "`` in brackets, so
    one call per column formats all of its cells."""
    cells = [repr(column)[1:-1].split(", ") if column else []
             for column in columns.values()]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(columns) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def coordinate_columns(prefix: str, table) -> dict:
    """Columns ``<prefix>0`` to ``<prefix>{d-1}`` of an ``(n, d)`` array, each
    the ``tolist()`` of one coordinate, for a ``write_csv`` mapping."""
    return {f"{prefix}{j}": column for j, column in enumerate(table.T.tolist())}


def write_json(path, payload) -> None:
    """ASCII JSON with sorted keys, two-space indent and a trailing newline.

    A non-finite float, which JSON cannot represent, is written as ``null``:
    the payload goes through one plain encoding first, whose ``NaN`` and
    ``Infinity`` tokens decode to ``None`` and every other value to itself.
    That encoding writes a numpy array as its ``tolist()`` and a numpy
    integer as the integer it holds (``operator.index``); any other value
    JSON lacks stays a ``TypeError``."""
    plain = lambda v: v.tolist() if isinstance(v, np.ndarray) else operator.index(v)
    payload = json.loads(json.dumps(payload, default=plain),
                         parse_constant=lambda _token: None)
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
