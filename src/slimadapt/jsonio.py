"""Exact JSON serialization for datasets and checkpoints, and the typed
reader of loaded documents (checkpoints and experiment configs).

Floats are written with 17 significant digits so every float64 round-trips
bit for bit; key order follows insertion order, so a given object always
serializes to the same bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError

__all__ = ["dump_exact", "load", "field"]


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        f = float(obj)
        if not math.isfinite(f):
            raise NumericError("cannot serialize non-finite float")
        text = format(f, ".17g")
        out.append("-0.0" if text == "-0" else text)  # "-0" would load as the integer 0
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(value, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_exact(obj, path) -> None:
    out: list[str] = []
    _emit(obj, out)
    Path(path).write_text("".join(out) + "\n", encoding="utf-8")


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
    required unless a `default` is given.  A missing field, a section that is
    not an object or a value `kind` rejects is a ConfigError naming it."""
    section, _, name = path.rpartition(".")
    doc = doc.get(section, {}) if section else doc
    if not isinstance(doc, dict):
        raise ConfigError(f"field {section} is not an object")
    if name not in doc:
        if default is None:
            raise ConfigError(f"missing field {path}")
        return default
    try:
        return kind(doc[name])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"field {path}: {exc}") from exc
