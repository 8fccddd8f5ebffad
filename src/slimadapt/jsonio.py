"""Exact JSON serialization for datasets and checkpoints, atomic output
files, and the typed reader of loaded documents (checkpoints and
experiment configs).

Floats are written as Python's shortest round-trip repr, so every float64
loads back bit for bit; key order follows insertion order, so a given
object always serializes to the same bytes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["dump_exact", "write_atomic", "load", "field", "list_of"]

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
