"""The wire formats of the CLI reports: JSON dictionaries, JSON text and CSV text.

Every report type derives from ``Report``, whose ``to_json_dict`` walks the
dataclass fields. Reports are written, never read back, so this is an
encoder only. It turns tuples and lists into arrays, frozensets into
sorted arrays and dicts into objects with sorted string keys (the
int-keyed dicts of the reports); nested reports encode recursively.
Fields declared with ``local`` hold audit data that stays in memory: they
are left off the wire.

``json_text`` renders a payload exactly as ``json.dumps(payload, indent=2,
sort_keys=True)`` does, byte for byte, but through the C encoder, which
CPython runs only for unindented output (an indented dump takes the
pure-Python encoder). It walks the containers in Python down to the
scalars. A container of scalars is one encoder call, and so is a list of
non-empty records of scalars (all dicts or all lists), with NUL ("\\x00")
as the item separator: with ``ensure_ascii`` no string holds a raw NUL, so
every one is a separator, and ``str.replace`` alone turns them into the
indentation. An interpreter without the C encoder gives the same text
through the pure-Python one.
"""

from __future__ import annotations

import dataclasses
import functools
import json

_LOCAL = "revspec.local"


def local(**kwargs):
    """A dataclass field kept off the wire."""
    return dataclasses.field(metadata={_LOCAL: True}, **kwargs)


@functools.cache
def _wire_fields(cls):
    return tuple(f for f in dataclasses.fields(cls) if not f.metadata.get(_LOCAL))


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


class Report:
    """Base of the report dataclasses: one JSON encoder driven by their fields."""

    def to_json_dict(self):
        return {f.name: _encode(getattr(self, f.name)) for f in _wire_fields(type(self))}


_SEP = "\x00"
_compact = json.JSONEncoder(sort_keys=True, separators=(_SEP, ": ")).encode
_CONTAINERS = (dict, list, tuple)


def _items(value):
    return value.values() if isinstance(value, dict) else value


def _scalar_types(types):
    """Whether none of the types is a container type."""
    return not any(issubclass(t, _CONTAINERS) for t in types)


def _render(value, nl):
    """The indented text of value, whose lines start with nl (a line break
    and the indentation of value's own line)."""
    if not isinstance(value, _CONTAINERS) or not value:
        return _compact(value)
    inner = nl + "  "
    if _scalar_types(set(map(type, _items(value)))):
        text = _compact(value)
        return text[0] + inner + text[1:-1].replace(_SEP, "," + inner) + nl + text[-1]
    if isinstance(value, dict):
        # the encoder's own key strings, in its order; a key holds no raw NUL
        keys = _compact(dict.fromkeys(value))[1:-len(": null}")].split(": null" + _SEP)
        items = [key + ": " + _render(v, inner) for key, (_, v) in zip(keys, sorted(value.items()))]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    kind = dict if isinstance(value[0], dict) else (list, tuple)
    if not (all(isinstance(v, kind) and v for v in value)
            and _scalar_types({type(x) for v in value for x in _items(v)})):
        return "[" + inner + ("," + inner).join(_render(v, inner) for v in value) + nl + "]"
    # records: a separator inside a record follows a scalar, one between
    # records the record's closing bracket
    text, deeper = _compact(value), inner + "  "
    opening, closing = text[1], text[-2]
    body = (text[2:-2].replace(closing + _SEP + opening, inner + closing + "," + inner + opening + deeper)
            .replace(_SEP, "," + deeper))
    return "[" + inner + opening + deeper + body + inner + closing + nl + "]"


def json_text(payload):
    """``json.dumps(payload, indent=2, sort_keys=True)``, byte for byte (module docstring)."""
    return _render(payload, "\n")


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
