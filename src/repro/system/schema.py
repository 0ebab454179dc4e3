"""Request schemas: one table of typed rows per request body.

A :class:`Schema` is a tuple of :class:`Field` rows, each holding a
field's name, kind, range, default and whether it is required.
:meth:`Schema.parse` checks a decoded JSON object against its rows in one
pass, so every field is parsed and checked once, at the boundary. A bad
value, a missing required field or a key no row names is a
:class:`RequestError` (HTTP 400) whose message names the field: a
misspelt knob that were dropped would get a bound for another question.

No kind converts across JSON types: a bool is not a number, a numeric
string is not a number and a string is not a bool. A missing or null
field takes its default. The kinds are the rows of :data:`_KINDS`.
"""

from __future__ import annotations

import math
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ReproError


class RequestError(ReproError):
    """A malformed or unserveable request (HTTP 400)."""


@dataclass(frozen=True)
class Field:
    """One row of a request table.

    Attributes:
        name: The JSON key.
        kind: A key of :data:`_KINDS`.
        range: The interval of an ``int`` or ``float`` row, written
            ``"(0, 1]"`` (``inf`` allowed); the choices of a ``name`` or
            ``names`` row; the longest array of a ``values`` row.
        default: The value a missing or null field takes.
        required: Whether a missing or null field is a 400.
        literal: A string an ``int`` row also accepts as it is (a worker
            count may be ``"auto"``).
    """

    name: str
    kind: str
    range: object = None
    default: object = None
    required: bool = False
    literal: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_parse", _KINDS[self.kind][0])
        if self.kind in ("int", "float"):
            low, high = (float(end) for end in self.range[1:-1].split(","))
            bounds = (low, high, self.range[0] == "(", self.range[-1] == ")")
            object.__setattr__(self, "_bounds", bounds)

    def parse(self, value: object) -> object:
        """``value`` checked and normalised, or the row's 400."""
        try:
            return self._parse(self, value)
        except (TypeError, ValueError, OverflowError):
            raise self.refusal(value) from None

    def refusal(self, value: object) -> RequestError:
        """The 400 for a bad ``value``: it names the field and says what
        the field must be."""
        limit = self.range
        if self.kind in ("name", "names"):
            limit = ", ".join(self.range)
        literal = f" or {self.literal!r}" if self.literal else ""
        return RequestError(
            f"{self.name} must be {_KINDS[self.kind][1].format(limit)}"
            f"{literal}, got {reprlib.repr(value)}"
        )

    def _in_range(self, number):
        low, high, low_open, high_open = self._bounds
        if not low <= number <= high or (
            (low_open and number == low) or (high_open and number == high)
        ):
            raise ValueError
        return number


def _int(row: Field, value):
    if type(value) is not int:
        if row.literal is not None and value == row.literal:
            return value
        if not (isinstance(value, float) and value.is_integer()):
            raise TypeError
        value = int(value)
    return row._in_range(value)


def _float(row: Field, value):
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        value = float(value)
    if not math.isfinite(value):
        raise ValueError
    return row._in_range(value)


def _bool(row: Field, value):
    if value is True or value is False:
        return value
    raise TypeError


def _name(row: Field, value):
    if not isinstance(value, str) or value.lower() not in row.range:
        raise ValueError
    return value.lower()


def _names(row: Field, value):
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return tuple(_name(row, item) for item in value)


def _text(row: Field, value):
    if not isinstance(value, str) or not value:
        raise ValueError
    return value


def _values(row: Field, value):
    # numpy infers the dtype once; checking its kind refuses numeric
    # strings, bool-only arrays, nulls and nested arrays without a
    # Python loop over the values.
    if not isinstance(value, (list, tuple)) or not 0 < len(value) <= row.range:
        raise ValueError
    array = np.array(value)
    if array.ndim != 1 or array.dtype.kind not in "iuf":
        raise ValueError
    array = array.astype(float, copy=False)
    if not np.isfinite(array).all():
        raise ValueError
    return array


#: Kind -> (parser, what a good value is). An ``int`` row takes an
#: integral float such as ``4.0`` as that integer and refuses ``2.9``;
#: a ``name`` matches case-insensitively; ``names`` also takes one
#: comma-separated string; ``values`` returns a float64 array.
_KINDS = {
    "int": (_int, "an integer in {}"),
    "float": (_float, "a finite number in {}"),
    "bool": (_bool, "true or false"),
    "name": (_name, "one of {}"),
    "names": (_names, "an array or comma list of {}"),
    "text": (_text, "a non-empty string"),
    "values": (_values, "a non-empty array of at most {} finite numbers"),
}


class Schema:
    """One request body's table of :class:`Field` rows."""

    def __init__(self, *fields: Field) -> None:
        self.fields = fields
        self._rows = {row.name: row for row in fields}
        self._defaults = {row.name: row.default for row in fields}
        self._required = tuple(row.name for row in fields if row.required)

    def __getitem__(self, name: str) -> Field:
        return self._rows[name]

    def requiring(self, *names: str) -> "Schema":
        """This table with the named rows required."""
        return Schema(*(
            replace(row, required=True) if row.name in names else row
            for row in self.fields
        ))

    def parse(self, payload: object, defaults: Mapping | None = None) -> dict:
        """``{name: value}`` for every row, checked against ``payload``.

        Args:
            payload: The decoded JSON body.
            defaults: Per-call defaults that replace the rows' own (a
                daemon's configured ``delta``, say).

        Raises:
            RequestError: The body is not an object, names a field no row
                has, misses a required field, or has a bad value.
        """
        if not isinstance(payload, Mapping):
            raise RequestError("request body must be a JSON object")
        parsed = dict(self._defaults)
        if defaults:
            parsed.update(defaults)
        rows = self._rows
        try:
            for name, value in payload.items():
                row = rows[name]
                if value is not None:
                    parsed[name] = row._parse(row, value)
        except KeyError:
            unknown = sorted(map(repr, payload.keys() - rows.keys()))
            raise RequestError(
                f"unknown field(s) {', '.join(unknown)}; "
                f"valid: {', '.join(rows)}"
            ) from None
        except (TypeError, ValueError, OverflowError):
            raise row.refusal(value) from None
        for name in self._required:
            if parsed[name] is None:
                raise RequestError(f"{name} is required")
        return parsed
