"""Deterministic JSON rendering with floats at 9 significant digits, and the
file boundary: the one JSON file reader, the rule that turns a bad value in a
file into ``ParseError``, the key check of JSON objects, and raw binary
payloads with the ``<path>.json`` sidecar that gives their shape."""

from __future__ import annotations

import contextlib
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


def read_json(path):
    """The decoded JSON document at ``path``; a missing or malformed file, or
    one holding a ``true`` or ``false`` anywhere, raises ParseError.

    No artikit file holds a bool, and numpy would read one among numbers as 0
    or 1, so the first bool is named by its path, such as ``points[17][1]``.
    The document is walked only when the raw bytes hold either literal.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        doc = json.loads(blob.decode("utf-8"))
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: file not found") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # longer than the interpreter's digit limit; RecursionError, nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if b"true" in blob or b"false" in blob:
        found = _first_bool(doc)
        if found is not None:
            raise ParseError(f"{path}: {found[0]} must be a number, not {json.dumps(found[1])}")
    return doc


def _first_bool(doc):
    """``(path, value)`` of the first bool of ``doc`` in document order, or None."""
    stack = [("document", doc)]
    while stack:
        where, node = stack.pop()
        if isinstance(node, bool):
            return where, node
        # only a bool or a container can hold a bool
        if isinstance(node, dict):
            stack.extend(reversed([(_key_path(where, key), value) for key, value in node.items()
                                   if isinstance(value, (bool, dict, list))]))
        elif isinstance(node, list):
            stack.extend(reversed([(f"{where}[{i}]", value) for i, value in enumerate(node)
                                   if isinstance(value, (bool, dict, list))]))
    return None


def _key_path(where: str, key: str) -> str:
    if not key.isidentifier():
        return f"{where}[{json.dumps(key)}]"
    return key if where == "document" else f"{where}.{key}"


@contextlib.contextmanager
def parse_errors(where):
    """Inside the block, a ValueError, TypeError, OverflowError or KeyError (a
    value read from a file that breaks a rule) becomes ``ParseError("<where>: <exc>")``."""
    try:
        yield
    except (ValueError, TypeError, OverflowError, KeyError) as exc:
        raise ParseError(f"{where}: {exc}") from exc


def fields(obj: dict, keys: tuple, where: str) -> list:
    """The values of ``keys`` in the JSON object ``obj``, in ``keys`` order; an
    unknown key, then a missing one, raises ParseError naming ``where``."""
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ParseError(f"{where}: unknown key {unknown[0]!r}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ParseError(f"{where}: missing field {missing[0]!r}")
    return [obj[key] for key in keys]


def write_payload(path, data, sizes: dict) -> None:
    """Write the raw bytes ``data`` to ``path`` and the integer ``sizes`` that
    give its shape to ``<path>.json``."""
    with open(path, "wb") as fh:
        fh.write(data)
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sizes, fh)
        fh.write("\n")


def read_payload(path, minimums: dict) -> tuple:
    """``(sizes, data)``: the sizes named by ``minimums`` from ``<path>.json``,
    each an integer in [minimum, 2**32 - 1], and the raw bytes at ``path``."""
    from .model import _as_array, _int_domain  # model imports this module
    meta = read_json(str(path) + ".json")
    with parse_errors(f"{path}: bad sidecar"):
        sizes = tuple(int(_as_array(meta[key], (), key, "int64", _int_domain(low, 2**32 - 1)))
                      for key, low in minimums.items())
    with open(path, "rb") as fh:
        return sizes, fh.read()
