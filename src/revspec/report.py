"""The wire formats of the CLI reports: JSON dictionaries and CSV text.

Every report type derives from ``Report``, whose ``to_json_dict`` and
``from_json_dict`` walk the dataclass fields. The encoder turns tuples and
lists into arrays, frozensets into sorted arrays and dicts into objects
with sorted string keys (the int-keyed dicts of the reports); nested
reports encode recursively. The decoder reads the field annotations, so
``tuple[Check, ...]`` comes back as a tuple of Check and ``dict[int, float]``
with int keys. Fields declared with ``local`` hold audit data that stays in
memory: they are left off the wire and take their default on decode.
"""

from __future__ import annotations

import dataclasses
import typing

_LOCAL = "revspec.local"


def local(**kwargs):
    """A dataclass field kept off the wire; it needs a default or default_factory."""
    return dataclasses.field(metadata={_LOCAL: True}, **kwargs)


def _wire_fields(cls):
    return [f for f in dataclasses.fields(cls) if not f.metadata.get(_LOCAL)]


def _encode(value):
    if isinstance(value, Report):
        return value.to_json_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in sorted(value.items())}
    return value


def _decode(tp, value):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        if value is None:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value)
    if origin is dict:
        key_tp, value_tp = args
        return {_decode(key_tp, k): _decode(value_tp, v) for k, v in value.items()}
    if origin in (tuple, list, frozenset):
        return origin(_decode(args[0], v) for v in value)
    if issubclass(tp, Report):
        return tp.from_json_dict(value)
    return tp(value)


class Report:
    """Base of the report dataclasses: one JSON codec driven by their fields."""

    def to_json_dict(self):
        return {f.name: _encode(getattr(self, f.name)) for f in _wire_fields(type(self))}

    @classmethod
    def from_json_dict(cls, data):
        hints = typing.get_type_hints(cls)
        return cls(**{f.name: _decode(hints[f.name], data[f.name]) for f in _wire_fields(cls)})


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = repr(float(value)) if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(header, records):
    """CSV with one header line; None is an empty cell, bools are true/false,
    floats their shortest repr (of the Python float, numpy scalars included).
    A cell holding a comma, a double quote or a line break is quoted, its
    quotes doubled (RFC 4180)."""
    lines = [",".join(map(_csv_cell, row)) for row in [header, *records]]
    return "\n".join(lines) + "\n"
