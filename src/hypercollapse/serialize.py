"""CSV and JSON writers with a fixed 17-significant-digit float format.

Every float in an output file goes through `format_float`, so outputs are
byte-reproducible and round-trip exactly.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Sequence

import numpy as np


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("booleans do not belong in these tables")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    return str(value)


def _write_text(path: str, text: str) -> None:
    """The package's one file writer; it creates a missing parent directory."""
    try:
        fh = open(path, "w", encoding="utf-8", newline="\n")
    except FileNotFoundError:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        fh = open(path, "w", encoding="utf-8", newline="\n")
    with fh:
        fh.write(text)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table; a cell that fails to format leaves no file behind."""
    text = "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
    _write_text(path, text)


def dumps_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{key}": {dumps_json(val, indent + 1)}'
            for key, val in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = ",\n".join(f"{pad}  {dumps_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(obj, path: str) -> None:
    """Write a JSON document; a value that fails to format leaves no file behind."""
    _write_text(path, dumps_json(obj) + "\n")
