"""Deterministic JSON and CSV emission.

Outputs are meant to be diffed across runs and machines, so everything is
canonicalized: object keys sorted, floats printed with 17 significant
digits (round-trip exact for IEEE doubles), '.' decimal point regardless of
locale, newline-terminated files.  Non-finite floats are rejected rather
than serialized, since a NaN in a report is always a bug upstream.
check_fields validates the keys of every JSON input document, check_int
every integer read from one, check_float every real number, and check_bool
every boolean.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from pathlib import Path

import numpy as np

__all__ = ["canonical_json", "write_json", "write_csv", "format_float", "check_fields",
           "check_int", "check_float", "check_bool"]


def check_fields(doc, what: str, allowed=None, required=()):
    """Return doc if it is a JSON object with only allowed and all required keys.

    allowed=None admits any key.  Raises ValueError naming `what` otherwise.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set() if allowed is None else set(doc) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} missing fields: {missing}")
    return doc


def check_int(value, what: str) -> int:
    """Return value as an int if it is an integer or an integral finite float.

    Raises ValueError naming `what` for a bool, a fractional or non-finite
    float, or a non-numeric value, instead of truncating it as int() would.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if (isinstance(value, (float, np.floating)) and math.isfinite(value)
            and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def check_float(value, what: str) -> float:
    """Return value as a float if it is a finite real number.

    Raises ValueError naming `what` for a bool, a string such as "3.14", a
    non-finite or out-of-range number, or any other value, instead of
    reading it as float() would.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValueError(f"{what} must be a finite number, got {value!r}")


def check_bool(value, what: str) -> bool:
    """Return value if it is a boolean.

    Raises ValueError naming `what` for anything else, a string such as
    "false" or a number included, instead of reading it as bool() would.
    """
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{what} must be true or false, got {value!r}")


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite float {x!r}")
    return format(x, ".17g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        keys = list(obj.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ValueError("JSON object keys must be strings")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate JSON object keys")
        out.append("{")
        for i, k in enumerate(sorted(keys)):
            if i:
                out.append(", ")
            out.append(json.dumps(k, ensure_ascii=True))
            out.append(": ")
            _encode(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot canonically serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    out: list = []
    _encode(obj, out)
    return "".join(out)


def write_json(path, obj) -> Path:
    path = Path(path)
    path.write_text(canonical_json(obj) + "\n", encoding="ascii")
    return path


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path
