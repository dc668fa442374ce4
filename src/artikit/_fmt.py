"""Deterministic JSON rendering with floats at 9 significant digits, and the
``<path>.json`` sidecars that give the shape of raw binary payloads."""

from __future__ import annotations

import json
import math

from .errors import ParseError


def fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot render non-finite float {x!r}")
    return format(x, ".9g")


def dumps(obj, indent: int | None = 2) -> str:
    """Serialize dicts/lists/scalars; dict order is preserved as given."""
    pieces: list = []
    _write(obj, pieces, indent, 0)
    return "".join(pieces)


def _write(obj, out: list, indent, depth: int) -> None:
    nl = "\n" + " " * (indent * (depth + 1)) if indent else ""
    close_nl = "\n" + " " * (indent * depth) if indent else ""
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
                out.append("," if indent else ", ")
            out.append(nl)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _write(value, out, indent, depth + 1)
        out.append(close_nl)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        if not len(obj):
            out.append("[]")
            return
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append("," if indent else ", ")
            out.append(nl)
            _write(value, out, indent, depth + 1)
        out.append(close_nl)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_sidecar(path, sizes: dict) -> None:
    """Write the integer sizes of the payload at ``path`` to ``<path>.json``."""
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sizes, fh)
        fh.write("\n")


def read_sidecar(path, minimums: dict) -> tuple:
    """Sizes named by ``minimums`` from ``<path>.json``, each checked against its minimum."""
    sidecar = str(path) + ".json"
    try:
        with open(sidecar, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        sizes = tuple(int(meta[key]) for key in minimums)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: missing sidecar {sidecar}") from exc
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad sidecar: {exc}") from exc
    if any(size < low for size, low in zip(sizes, minimums.values())):
        bounds = " and ".join(f"{key} >= {low}" for key, low in minimums.items())
        raise ParseError(f"{path}: sidecar must have {bounds}")
    return sizes
