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

__all__ = ["dump_exact", "write_atomic", "load", "field"]


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


def field(doc: dict, path: str, kind, default=None):
    """Field `path` ("section.name" or "name") of `doc` read through `kind`,
    required unless a `default` is given.  A missing field, a non-object
    section, a rejected value or a non-finite float is a ConfigError naming it."""
    section, _, name = path.rpartition(".")
    doc = doc.get(section, {}) if section else doc
    if not isinstance(doc, dict):
        raise ConfigError(f"field {section} is not an object")
    if name not in doc:
        if default is None:
            raise ConfigError(f"missing field {path}")
        return default
    try:
        value = kind(doc[name])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field {path}: {exc}") from exc
    if isinstance(value, float) and not np.isfinite(value):
        raise ConfigError(f"field {path}: {value} is not finite")
    return value
