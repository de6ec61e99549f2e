"""The two generic file formats: numeric CSV and strict JSON.

Numeric CSV (a header row, then rows of finite floats, read into one
float64 array) carries the profile and both measurement logs. JSON is
strict both ways: writers refuse NaN and infinities, readers refuse the
NaN/Infinity tokens and numbers that overflow a double, so every
document is standard JSON (RFC 8259). The report CSV has named, typed
columns and belongs to ``explorer``.

Each kind of JSON object declares its keys once, as a ``Fields`` table
that both writes and reads it. The readers check JSON types: a number
is a JSON number (not a string or a boolean), an integer is a JSON
integer, and a refusal names the document and the JSON path, e.g.
``grid JSON: $.thickness_ratios[0] must be a number, got '2'``.
"""

from __future__ import annotations

import csv
import json
import math
import reprlib
from pathlib import Path

import numpy as np

from .errors import ValidationError


def read_numeric_csv(source, header: tuple[str, ...]) -> np.ndarray:
    """A numeric CSV as a float64 array of shape (rows, len(header)).

    ``source`` is a path or a file-like object. The header must equal
    ``header`` after stripping each name. Blank and whitespace-only rows
    are skipped; fields may be padded with whitespace or quoted. Every
    value must be a finite decimal number; a wrong field count, a
    non-numeric or a non-finite value names its line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text(encoding="utf-8")
    if not text:
        raise ValidationError("empty CSV")
    if "\r" in text:  # universal newlines for file objects too, so line numbers match an editor's
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    first, _, body = text.partition("\n")
    got = tuple(h.strip() for h in _fields(first, 1))
    if got != header:
        raise ValidationError(f"CSV header must be {','.join(header)}, got {','.join(got)}")
    rows = body.split("\n")
    n_rows = len(rows) - rows.count("")
    data = _loadtxt(rows) if n_rows else None
    if data is None:  # loadtxt skips empty lines but refuses whitespace-only ones
        rows = [line for line in rows if line.strip()]
        if not rows:
            return np.empty((0, len(header)))
        n_rows, data = len(rows), _loadtxt(rows)
    # fewer rows than lines means a quoted field ran on across a line break;
    # loadtxt closes a quote left open on the last line without complaint
    if (
        data is None
        or data.shape != (n_rows, len(header))
        or not np.isfinite(data).all()
        or body.count('"') % 2
    ):
        _raise_first_bad_line(body.split("\n"), len(header))
    return data


def _loadtxt(rows: list[str]) -> np.ndarray | None:
    """``np.loadtxt`` of CSV lines, or None where it refuses them."""
    try:
        return np.loadtxt(rows, delimiter=",", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        return None


def _fields(line: str, lineno: int) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as e:
        raise ValidationError(f"line {lineno}: {e}") from None


def _number(field: str) -> float:
    """``float`` restricted to what ``np.loadtxt`` reads: ASCII, no underscores."""
    token = field.strip()
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a decimal number: {token!r}")
    return float(token)


def _raise_first_bad_line(lines: list[str], width: int):
    """Name the first of the data ``lines`` (line 2 on) that
    ``read_numeric_csv`` refuses; only its error path runs this scan."""
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        if line.count('"') % 2:  # the open quote runs on into the next line
            raise ValidationError(f"line {lineno}: unbalanced quote")
        row = _fields(line, lineno)
        if len(row) != width:
            raise ValidationError(f"line {lineno}: expected {width} fields, got {len(row)}")
        try:
            values = [_number(field) for field in row]
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric value in {row}") from None
        if not all(map(math.isfinite, values)):
            raise ValidationError(f"line {lineno}: non-finite value in {row}")
    raise ValidationError("CSV is not numeric")


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


# A reader takes a parsed JSON value and ``where``, the document's name and
# the value's JSON path ("grid JSON: $.hydro"), and returns it as Python.


def _refuse(where: str, must: str, value):
    raise ValidationError(f"{where} must be {must}, got {reprlib.repr(value)}")


def _scalar(must: str, types, convert):
    def read(value, where: str):
        # a JSON boolean is a bool, and a bool is also an int in Python
        if isinstance(value, bool) != (types is bool) or not isinstance(value, types):
            _refuse(where, must, value)
        return convert(value)

    return read


number = _scalar("a number", (int, float), float)
integer = _scalar("an integer", int, int)
string = _scalar("a string", str, str)
boolean = _scalar("a boolean", bool, bool)


def whole(value, where: str) -> int:
    """A count: 6 and 6.0 read as 6, and 6.7 is refused rather than truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        _refuse(where, "a whole number", value)
    return value


def nullable(read):
    """``read``, except that null reads as None."""
    return lambda value, where: None if value is None else read(value, where)


def _write(read, value):
    return read.write(value) if hasattr(read, "write") else value


class Array:
    """A JSON array read into a tuple by ``item``; with ``length``, it must
    have exactly that many entries."""

    def __init__(self, item, length: int | None = None):
        self.item, self.length = item, length

    def write(self, values) -> list:
        return [_write(self.item, v) for v in values]

    def __call__(self, value, where: str) -> tuple:
        if not isinstance(value, list):
            _refuse(where, "an array", value)
        if self.length is not None and len(value) != self.length:
            _refuse(where, f"an array of {self.length} entries", value)
        # a list, not a generator: tuple()'s resizes would fill CPython's tuple free lists
        return tuple([self.item(v, f"{where}[{i}]") for i, v in enumerate(value)])


class Fields:
    """A JSON object's keys as (attribute, key, reader) triples in file
    order, declared once for both directions. ``write`` gives the object of
    an instance (of a tuple: its values in table order); calling the Fields
    reads one into ``build(**attributes)``, whose refusals get the object's
    path. Every key is required, unless ``defaults``: then missing keys keep
    ``build``'s defaults and unknown keys are refused, so that a misspelt key
    cannot silently fall back to its default.
    """

    def __init__(self, build, *table, defaults: bool = False):
        self.build, self.table, self.defaults = build, table, defaults
        self.keys = [key for _, key, _ in table]

    def write(self, obj) -> dict:
        values = obj if isinstance(obj, tuple) else [getattr(obj, a) for a, _, _ in self.table]
        return {key: _write(read, v) for (_, key, read), v in zip(self.table, values)}

    def __call__(self, value, where: str):
        if not isinstance(value, dict):
            _refuse(where, "an object", value)
        unknown = [key for key in value if key not in self.keys] if self.defaults else []
        if unknown:
            raise ValidationError(f"{where}.{unknown[0]} is not a known key; the keys are "
                                  + ", ".join(self.keys))
        fields = {}
        for attr, key, read in self.table:
            if key in value:
                fields[attr] = read(value[key], f"{where}.{key}")
            elif not self.defaults:
                raise ValidationError(f"{where}.{key} is missing")
        try:
            return self.build(**fields)
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from None
