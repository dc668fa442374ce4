"""Deterministic JSON rendering with floats at 9 significant digits, the one JSON file reader,
and the ``<path>.json`` sidecars that give the shape of raw binary payloads."""

from __future__ import annotations

import json
import math

from .errors import ParseError


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite float {x!r}")
    return format(x, ".9g")


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars with a two-space indent; dict order is preserved as given."""
    pieces: list = []
    _write(obj, pieces, 0)
    return "".join(pieces)


def _write(obj, out: list, depth: int) -> None:
    nl = "\n" + "  " * (depth + 1)
    close_nl = "\n" + "  " * depth
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(nl)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out, depth + 1)
        out.append(close_nl)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(",")
            out.append(nl)
            _write(value, out, depth + 1)
        out.append(close_nl)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_sidecar(path, sizes: dict) -> None:
    """Write the integer sizes of the payload at ``path`` to ``<path>.json``."""
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sizes, fh)
        fh.write("\n")


def read_json(path):
    """The decoded JSON document at ``path``; a missing or malformed file raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # longer than the interpreter's digit limit; RecursionError, nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def read_sidecar(path, minimums: dict) -> tuple:
    """Sizes named by ``minimums`` from ``<path>.json``, each an integer in [minimum, 2**32 - 1]."""
    from .model import _as_array, _int_domain  # model imports this module
    meta = read_json(str(path) + ".json")
    try:
        return tuple(int(_as_array(meta[key], (), key, "int64", _int_domain(low, 2**32 - 1)))
                     for key, low in minimums.items())
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: bad sidecar: {exc}") from exc
