"""The two generic file formats: numeric CSV and strict JSON.

Numeric CSV (a header row, then rows of floats) carries the profile and
both measurement logs. JSON is strict both ways: writers refuse NaN and
infinities, readers refuse the NaN/Infinity tokens and numbers that
overflow a double, so every document is standard JSON (RFC 8259). The
report CSV has named, typed columns and belongs to ``explorer``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from .errors import ValidationError


def read_numeric_csv(source, header: tuple[str, ...]) -> list[tuple[float, ...]]:
    """Rows of a numeric CSV as float tuples.

    ``source`` is a path or a file-like object. The header must equal
    ``header`` after stripping each name; blank rows are skipped. A wrong
    field count or a non-numeric value names its line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        got = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise ValidationError("empty CSV") from None
    if got != header:
        raise ValidationError(f"CSV header must be {','.join(header)}, got {','.join(got)}")
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValidationError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            rows.append(tuple(map(float, row)))
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric value in {row}") from None
    return rows


def dump_json(doc) -> str:
    """Serialize ``doc`` as standard JSON text with a trailing newline."""
    try:
        return json.dumps(doc, indent=1, allow_nan=False) + "\n"
    except ValueError as e:
        raise ValidationError(f"cannot write a non-finite number to JSON: {e}") from None


def _finite(parse):
    def checked(token: str):
        # float() also reads NaN/Infinity/-Infinity; 1e999 and 400-digit integers give inf
        if not math.isfinite(float(token)):
            raise ValueError(f"{token} is not a finite number")
        return parse(token)

    return checked


_FLOAT, _INT = _finite(float), _finite(int)


def load_json(text: str, what: str):
    """Parse standard JSON; ``what`` names the document in error messages."""
    try:
        return json.loads(text, parse_constant=_FLOAT, parse_float=_FLOAT, parse_int=_INT)
    except ValueError as e:
        raise ValidationError(f"{what} is not valid JSON: {e}") from None
