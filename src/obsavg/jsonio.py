"""Deterministic JSON and CSV serialization for operators, POVMs and reports.

Floats are printed with '%.17g' (lossless round trip) and dict keys keep
insertion order, so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import FormatError
from .povm import OutcomeDistribution, Povm
from .symspace import CopySpace


def format_float(x: float) -> str:
    """Shortest lossless decimal form of a finite float."""
    x = float(x)
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


def _serialize(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_serialize(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_serialize(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _serialize(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (no trailing newline)."""
    return _serialize(obj)


def write_text(text: str, path: str | Path | None = None) -> str:
    """Write text plus trailing newline to path, or return it for stdout."""
    payload = text + "\n"
    if path is not None:
        Path(path).write_text(payload, encoding="utf-8")
    return payload


def _real_grid(data, dim: int, key: str, where: str) -> np.ndarray:
    rows = data
    if not isinstance(rows, list) or len(rows) != dim:
        raise FormatError(f"{where}: '{key}' must be a {dim}x{dim} number grid")
    out = np.empty((dim, dim), dtype=np.float64)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise FormatError(f"{where}: '{key}' row {i} must have {dim} entries")
        for j, v in enumerate(row):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise FormatError(f"{where}: '{key}'[{i}][{j}] is not a number")
            try:
                out[i, j] = float(v)
            except OverflowError:  # an integer beyond float range
                raise FormatError(f"{where}: '{key}'[{i}][{j}] is too large for a float") from None
    if not np.isfinite(out).all():  # 1e400 and the NaN and Infinity tokens
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise FormatError(f"{where}: '{key}'[{i}][{j}] is not a finite number")
    return out


def matrix_to_json(m: np.ndarray) -> dict:
    """{"dim", "re", "im"} representation of a square complex matrix."""
    m = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(data, where: str = "operator") -> np.ndarray:
    """Parse the {"dim", "re", "im"} matrix format; "im" may be null."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{where}: 'dim' must be a positive integer")
    if "re" not in data:
        raise FormatError(f"{where}: missing 're'")
    re = _real_grid(data["re"], dim, "re", where)
    im_data = data.get("im")
    if im_data is None:
        im = np.zeros((dim, dim))
    else:
        im = _real_grid(im_data, dim, "im", where)
    return re + 1j * im


def _load_json(path: str | Path, where: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{where}: cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise FormatError(f"{where}: {path} is not valid JSON: {exc}") from exc


def load_operator(path: str | Path) -> np.ndarray:
    return matrix_from_json(_load_json(path, "operator"), where=str(path))


def dump_operator(m: np.ndarray) -> str:
    return dumps(matrix_to_json(m))


def povm_to_json(p: Povm) -> dict:
    outcomes = []
    for value, element in zip(p.values, p.elements):
        entry = matrix_to_json(element)
        outcomes.append({"value": float(value), "re": entry["re"], "im": entry["im"]})
    return {"dim": p.dim, "outcomes": outcomes}


def povm_from_json(data, space: CopySpace | None = None,
                   where: str = "povm") -> Povm:
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{where}: 'dim' must be a positive integer")
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise FormatError(f"{where}: 'outcomes' must be a nonempty list")
    values = []
    elements = []
    for k, entry in enumerate(outcomes):
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: outcome {k} must be an object")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{where}: outcome {k} 'value' is not a number")
        try:
            value = float(value)
        except OverflowError:
            raise FormatError(f"{where}: outcome {k} 'value' is too large for a float") from None
        if not math.isfinite(value):
            raise FormatError(f"{where}: outcome {k} 'value' is not a finite number")
        values.append(value)
        elements.append(
            matrix_from_json({"dim": dim, "re": entry.get("re"),
                              "im": entry.get("im")},
                             where=f"{where}: outcome {k}")
        )
    return Povm(values, np.stack(elements), space)


def load_povm(path: str | Path, space: CopySpace | None = None) -> Povm:
    return povm_from_json(_load_json(path, "povm"), space=space, where=str(path))


def dump_povm(p: Povm) -> str:
    return dumps(povm_to_json(p))


def distribution_csv(dist: OutcomeDistribution) -> str:
    lines = ["value,probability"]
    for v, p in zip(dist.values, dist.probabilities):
        lines.append(f"{format_float(v)},{format_float(p)}")
    return "\n".join(lines)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else _serialize(v)


def rows_csv(rows: list[dict]) -> str:
    """CSV text for homogeneous dict rows; the first row fixes the columns."""
    if not rows:
        raise FormatError("cannot build CSV from zero rows")
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in header))
    return "\n".join(lines)
