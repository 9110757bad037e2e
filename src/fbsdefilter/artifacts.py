"""The artifact file formats: comma-separated tables and JSON records.

Every table and record a run writes goes through these functions, so a run's
files are byte-identical for any worker count and across releases that keep
the same numbers.
"""

from __future__ import annotations

import json


def write_csv(path, header, rows) -> None:
    """ASCII table; ``int`` and ``str`` cells via ``str``, every other cell via
    ``repr(float(v))`` so floats round-trip exactly."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(str(c) if isinstance(c, (int, str)) else repr(float(c))
                                  for c in row) + "\n")


def write_csv_columns(path, header, columns) -> None:
    """ASCII table from equal-length column lists of Python ``int`` and
    ``float`` cells, such as ``ndarray.tolist()`` gives; every cell goes through
    ``repr``, which writes the bytes ``write_csv`` writes for the same cells.

    A list's ``repr`` is its cells' ``repr`` joined by ``", "`` in brackets,
    so one call per column formats all of its cells."""
    cells = [repr(column)[1:-1].split(", ") if column else [] for column in columns]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_json(path, payload) -> None:
    """ASCII JSON with sorted keys, two-space indent and a trailing newline."""
    with open(path, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
