"""Schema-versioned CSV emission and parsing.

Every file starts with a comment line ``# schema: <name> v<version>``
followed by a normal header row. Readers refuse files whose schema name
or version does not match. Floats are written with repr so files are
byte-stable and round-trip exactly.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence


class SchemaError(ValueError):
    """A CSV file does not carry the expected schema line."""


def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_csv(path, schema: str, version: int, fieldnames: Sequence[str], rows: Iterable[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(f"# schema: {schema} v{version}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_format(row.get(k)) for k in fieldnames] for row in rows)
    return path


def read_csv(path, schema: str, version: int) -> list[dict]:
    path = Path(path)
    with open(path, newline="") as handle:
        first = handle.readline().strip()
        expected = f"# schema: {schema} v{version}"
        if first != expected:
            raise SchemaError(f"{path}: expected {expected!r}, found {first!r}")
        return list(csv.DictReader(handle))

