"""Reading and writing kernels, functions, and canonical JSON reports.

Kernels travel as JSON ({"states", "matrix", "basepoint"}) or CSV with a
header row and a label column.  Minus infinity is spelled "-inf" in both.
Integer entries survive a round trip bit-exactly; everything else is
rendered with 12 significant digits, which is also the precision used in
CLI reports so outputs diff cleanly across runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from .errors import DimensionMismatch
from .kernel import KernelMatrix
from .semiring import NEG_INF, POS_INF, Value, format_value, parse_value


def value_to_json(v: Value):
    """JSON-encodable form of a semiring value."""
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "+inf"
    if isinstance(v, bool):
        raise DimensionMismatch("booleans are not kernel values")
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else float(v)
    return float(v)


def value_from_json(raw) -> Value:
    if isinstance(raw, str):
        return parse_value(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise DimensionMismatch(f"not a kernel value: {raw!r}")
    return parse_value(raw)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return value_to_json(obj)
    if obj is NEG_INF or obj is POS_INF:
        return repr(obj)
    raise TypeError(f"not JSON encodable: {obj!r}")


def canonical_json(payload) -> str:
    """Deterministic JSON: preserved key order, 12-digit floats, newline."""

    def walk(node):
        if isinstance(node, dict):
            return {str(k): walk(v) for k, v in node.items()}
        if isinstance(node, (list, tuple)):
            return [walk(v) for v in node]
        if isinstance(node, float):
            text = format_value(node)
            return json.loads(text) if math.isfinite(node) else text
        return node

    return json.dumps(walk(payload), default=_json_default, indent=2) + "\n"


def kernel_to_dict(kernel: KernelMatrix) -> dict:
    return {
        "states": list(kernel.states),
        "matrix": [[value_to_json(v) for v in row] for row in kernel.entries],
        "basepoint": kernel.states[kernel.basepoint],
    }


def kernel_from_dict(data: dict) -> KernelMatrix:
    try:
        states = [str(s) for s in data["states"]]
        matrix = data["matrix"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch("kernel file needs 'states' and 'matrix'") from exc
    entries = [[value_from_json(v) for v in row] for row in matrix]
    base_label = data.get("basepoint", states[0] if states else None)
    if base_label is None or str(base_label) not in states:
        raise DimensionMismatch(f"basepoint {base_label!r} is not a state")
    return KernelMatrix(
        states=tuple(states),
        entries=entries,
        basepoint=states.index(str(base_label)),
    )


def load_kernel_json(path: str) -> KernelMatrix:
    with open(path) as fh:
        return kernel_from_dict(json.load(fh))


def save_kernel_json(kernel: KernelMatrix, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(kernel_to_dict(kernel)))


def load_kernel_csv(path: str) -> KernelMatrix:
    """CSV kernel: header row of states, label column, basepoint = first."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if len(rows) < 2:
        raise DimensionMismatch("kernel CSV needs a header and data rows")
    states = [c.strip() for c in rows[0][1:]]
    entries = []
    labels = []
    for row in rows[1:]:
        labels.append(row[0].strip())
        entries.append([parse_value(c.strip()) for c in row[1:]])
    if labels != states:
        raise DimensionMismatch("row labels must match the header order")
    return KernelMatrix(states=tuple(states), entries=entries, basepoint=0)


def save_kernel_csv(kernel: KernelMatrix, path: str) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(kernel.states))
    for label, row in zip(kernel.states, kernel.entries):
        writer.writerow([label] + [format_value(v) for v in row])
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


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
