"""Deterministic JSON/CSV emission, and checked reads of decoded JSON.

All floats are written with 17 significant digits so emitted files are
byte-stable across runs and round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _encode(obj, indent: int | None, level: int) -> str:
    pad = "" if indent is None else "\n" + " " * (indent * (level + 1))
    end_pad = "" if indent is None else "\n" + " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isnan(x) or np.isinf(x):
            return "null"
        return format_float(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (_encode(v, indent, level + 1) for v in obj)
        return "[" + pad + ("," + pad).join(items) + end_pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (
            json.dumps(str(k)) + ": " + _encode(v, indent, level + 1)
            for k, v in obj.items()
        )
        return "{" + pad + ("," + pad).join(items) + end_pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int | None = None) -> str:
    """Serialize to JSON text with 17-significant-digit floats.

    Dict insertion order is preserved; non-finite floats become null.
    """
    return _encode(obj, indent, 0)


def json_int(value) -> int:
    """A JSON integer; bools, floats and strings are rejected."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_float(value) -> float:
    """A JSON number as a float; bools and strings are rejected."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def json_floats(value) -> np.ndarray:
    """A JSON array of numbers as a float vector."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array of numbers, got {value!r}")
    return np.array([json_float(v) for v in value], dtype=float)


def read_field(doc, key: str, convert):
    """convert(doc[key]) of a decoded JSON object; a missing key, or a value
    that convert rejects, raises ValueError naming the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"missing key {key!r}")
    try:
        return convert(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"key {key!r}: {exc}") from None
