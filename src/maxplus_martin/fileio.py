"""Reading kernels and functions, and writing canonical JSON reports.

Kernels are read from JSON ({"states", "matrix", "basepoint"}) or CSV with
a header row and a label column.  Minus infinity is spelled "-inf" in both.
A kernel file is parsed once, token by token, straight into the kernel's
array; its `entries` are built from the parsed rows only when something
asks for them.  Integer entries are read bit-exactly.  Reports print
integers exactly and everything else with 12 significant digits, so
outputs diff cleanly across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .errors import DimensionMismatch
from .kernel import KernelMatrix
from .semiring import NEG_INF, Value, coerce_value, format_value, is_finite, parse_value


def value_to_json(v: Value):
    """JSON-encodable form of a semiring value; the infinities as the
    strings "-inf" and "+inf", and a Fraction outside the normal float range
    as the string of its 12 significant digits (see format_value)."""
    if isinstance(v, bool):
        raise DimensionMismatch("booleans are not kernel values")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        try:
            f = float(v)
        except OverflowError:  # past the float range: a string, as below it
            f = 0.0
        return f if abs(f) >= sys.float_info.min else format_value(v)
    v = float(v)
    return v if is_finite(v) else "-inf" if v < 0 else "+inf"


def value_from_json(raw) -> Value:
    """A value of a function or measure file; NaN, "nan" included, is a
    ValueError."""
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise DimensionMismatch(f"not a kernel value: {raw!r}")
    return coerce_value(parse_value(raw))


def canonical_json(payload) -> str:
    """Deterministic JSON: preserved key order, 12-digit floats, newline.

    The text of json.dumps(indent=2), written in one pass: dicts (keys as
    str), lists and tuples nest; a float, numpy's float64 included, prints
    as its 12-digit value and a non-finite one as a string; every other
    value follows json's encoder, a Fraction as value_to_json gives it.
    """
    out: list = []
    _emit(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(node, out: list, pad: str) -> None:
    """Append node's canonical JSON text to out, pad the newline and
    indent of its enclosing level."""
    if isinstance(node, dict):
        if not node:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        # keys as str; two keys with one str keep the first place, last value
        for key, value in {str(k): v for k, v in node.items()}.items():
            out.append(sep + _quote(key) + ": ")
            _emit(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(node, (list, tuple)):
        if not node:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for value in node:
            out.append(sep)
            _emit(value, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(node, float):
        text = format_value(node)
        if not math.isfinite(node):
            out.append(_quote(text))
        elif "." in text or "e" in text:  # what json reads back as a float
            out.append(float.__repr__(float(text)))
        else:
            out.append(text)
    else:
        out.append(_atom(node))


def _atom(value) -> str:
    """json's encoding of a scalar: bool before int, floats by repr."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    if isinstance(value, Fraction):
        return _atom(value_to_json(value))
    raise TypeError(f"not JSON encodable: {value!r}")


def _number(token, floats: list):
    """A kernel-file token other than an int, parsed: an int, a float, or
    -inf for an absent arc.  Every other float is also appended to floats;
    +inf and NaN from text pass, for the kernel's checks."""
    if token == "-inf":
        return NEG_INF
    if isinstance(token, str):
        v = parse_value(token)
    elif type(token) is float:
        if token != token:
            raise ValueError("NaN is not a max-plus value")
        v = token
    else:
        raise DimensionMismatch(f"not a kernel value: {token!r}")
    if type(v) is float and v != NEG_INF:
        floats.append(v)
    return v


def kernel_from_dict(data: dict) -> KernelMatrix:
    try:
        states, matrix = data["states"], data["matrix"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch("kernel file needs 'states' and 'matrix'") from exc
    if type(states) is not list:
        raise DimensionMismatch("kernel file 'states' must be a list of labels")
    if type(matrix) is not list or any(type(row) is not list for row in matrix):
        raise DimensionMismatch("kernel file 'matrix' must be a list of rows")
    states = [str(s) for s in states]
    floats: list = []
    rows = [
        [v if type(v) is int else _number(v, floats) for v in row] for row in matrix
    ]
    base_label = data.get("basepoint", states[0] if states else None)
    if states and (base_label is None or str(base_label) not in states):
        raise DimensionMismatch(f"basepoint {base_label!r} is not a state")
    base = states.index(str(base_label)) if states else 0
    return KernelMatrix._parsed(states, base, rows, floats)


def load_kernel_json(path: str) -> KernelMatrix:
    with open(path, "rb") as fh:
        text = fh.read().decode()
    if "\r" in text:  # the newlines a text-mode read translates
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return kernel_from_dict(json.loads(text))


def _cell(cell: str, floats: list):
    """A CSV kernel cell, read as _number reads its stripped text but with
    one strip and one lower-casing: an int unless it holds a ".", "e" or "n"
    (no int literal, and no infinity, does), else a float, -inf for an
    absent arc; every other float is also appended to floats."""
    text = cell.strip()
    low = text.lower()
    if "." not in low and "e" not in low and "n" not in low:
        try:
            return int(low)
        except ValueError:
            pass
    try:
        v = float(low)
    except ValueError:
        raise ValueError(f"not a max-plus value: {text!r}") from None
    if v != NEG_INF:
        floats.append(v)
    return v


def load_kernel_csv(path: str) -> KernelMatrix:
    """CSV kernel: header row of states, label column, basepoint = first."""
    with open(path, "rb") as fh:
        text = fh.read().decode()
    rows = [r for r in csv.reader(io.StringIO(text, newline="")) if any(map(str.strip, r))]
    if len(rows) < 2:
        raise DimensionMismatch("kernel CSV needs a header and data rows")
    states = [c.strip() for c in rows[0][1:]]
    floats: list = []
    entries = [[_cell(c, floats) for c in row[1:]] for row in rows[1:]]
    if [row[0].strip() for row in rows[1:]] != states:
        raise DimensionMismatch("row labels must match the header order")
    return KernelMatrix._parsed(states, 0, entries, floats)


def load_kernel(path: str) -> KernelMatrix:
    if path.endswith(".csv"):
        return load_kernel_csv(path)
    return load_kernel_json(path)


def load_function(path: str, kernel: KernelMatrix) -> list:
    """Function file {state label: value} in the kernel's state order."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DimensionMismatch("function file must map state labels to values")
    missing = [s for s in kernel.states if s not in data]
    if missing:
        raise DimensionMismatch(f"function file missing states: {missing}")
    extra = [k for k in data if k not in kernel.states]
    if extra:
        raise DimensionMismatch(f"function file has unknown states: {extra}")
    return [value_from_json(data[s]) for s in kernel.states]


def function_to_dict(kernel: KernelMatrix, values) -> dict:
    if len(values) != kernel.n:
        raise DimensionMismatch("function length does not match the kernel")
    return {s: value_to_json(v) for s, v in zip(kernel.states, values)}
