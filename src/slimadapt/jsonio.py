"""Exact JSON serialization for datasets and checkpoints, atomic output
files, and the typed reader of loaded documents (datasets, checkpoints
and experiment configs), which refuses a key the document's schema does
not list.

Floats are written as Python's shortest round-trip repr, so every float64
loads back bit for bit; key order follows insertion order, so a given
object always serializes to the same bytes.
"""

from __future__ import annotations

import difflib
import json
import os
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["dump_exact", "write_atomic", "load", "refuse_unknown_keys", "field", "list_of",
           "dict_of", "float_array"]

_REQUIRED = object()  # `field`'s default when the caller gives none


def _to_builtin(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_atomic(path, text: str) -> None:
    """Write `text` through a temporary file, so a failed write leaves the old file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def dump_exact(obj, path) -> None:
    try:
        text = json.dumps(obj, default=_to_builtin, allow_nan=False, separators=(",", ":"))
    except ValueError as exc:  # the encoder's refusal of NaN/Inf
        raise NumericError(f"cannot serialize non-finite float: {exc}") from exc
    write_atomic(path, text + "\n")


def load(path) -> dict:
    """The JSON object in `path`; anything else in the file is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level is {type(doc).__name__}, not an object")
    return doc


def refuse_unknown_keys(doc: dict, known, prefix: str = "") -> None:
    """A top-level or section key of `doc` that the dotted field names
    `known` do not list is a ConfigError naming it, after `prefix`, and the
    nearest known name.  A key listed whole ("params") is not searched."""
    known = dict.fromkeys(known)
    top = dict.fromkeys(name.partition(".")[0] for name in known)
    for key, value in doc.items():
        inner = value if key not in known and isinstance(value, dict) else {}
        for name, names in [(key, top), *((f"{key}.{k}", known) for k in inner)]:
            if name not in names:
                near = difflib.get_close_matches(name, names, n=1)
                hint = f" (did you mean {near[0]}?)" if near else ""
                raise ConfigError(f"{prefix}unknown field {name}{hint}")


def field(doc: dict, path: str, kind, default=_REQUIRED):
    """Field `path` ("section.name" or "name") of `doc` read through `kind`,
    required unless a `default`, None included, is given.  A missing field,
    a non-object section, a rejected value or a non-finite float is a
    ConfigError naming it.  `int`, `float` and `str` are strict: an int
    field refuses a bool, a float and a string, a float field a bool and a
    string, and a str field anything but a string."""
    section, _, name = path.rpartition(".")
    doc = doc.get(section, {}) if section else doc
    if not isinstance(doc, dict):
        raise ConfigError(f"field {section} is not an object")
    if name not in doc:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {path}")
        return default
    try:
        value = _read(kind, doc[name])
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"field {path}: {exc}") from exc
    return value


def list_of(kind):
    """A `field` reader of a JSON list, each item read through `kind`,
    returning a tuple; a string is refused, not read one character at a
    time."""
    def read(value):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        return tuple(_read(kind, v) for v in value)
    return read


def dict_of(kind):
    """A `field` reader of a JSON object, each value read through `kind`;
    a rejected value is named by its key."""
    def read(value):
        if not isinstance(value, dict):
            raise TypeError(f"expected an object, got {type(value).__name__}")
        out = {}
        for key, v in value.items():
            try:
                out[key] = _read(kind, v)
            except (ValueError, TypeError, OverflowError) as exc:
                raise ValueError(f"{key!r}: {exc}") from exc
        return out
    return read


def float_array(value) -> np.ndarray:
    """A `field` reader of a number or of nested JSON lists of numbers, as
    a float64 array.  Every cell must be a JSON number: a bool, a string
    (numeric or not) or a null is refused, not read as its number, and so
    are lists and numbers side by side at one depth."""
    cells = [value]
    while list in (kinds := set(map(type, cells))):
        if kinds != {list}:
            raise ValueError("ragged array: lists and cells side by side")
        cells = list(chain.from_iterable(cells))
    if not kinds <= {int, float}:
        bad = next(c for c in cells if type(c) not in (int, float))
        raise TypeError(f"expected a number in every cell, got {type(bad).__name__} {bad!r}")
    return np.asarray(value, dtype=np.float64)


_STRICT = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}


def _read(kind, value):
    """`kind(value)`, except that `int` takes only an int, `float` only a
    finite int or float and `str` only a string (never a bool, which JSON's
    `true` loads as, nor a list or null read as its text)."""
    if kind in _STRICT:
        allowed, noun = _STRICT[kind]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise TypeError(f"expected {noun}, got {type(value).__name__} {value!r}")
    value = kind(value)
    if kind is float and not np.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value
