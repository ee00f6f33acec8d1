"""Deterministic JSON and CSV serialization for operators, POVMs and reports.

Floats are printed with '%.17g' (lossless round trip) and dict keys keep
insertion order, so identical inputs produce byte-identical output.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import FormatError
from .linops import check_memory_cap
from .povm import OutcomeDistribution, Povm


def format_float(x: float) -> str:
    """Lossless decimal form of a finite float: 17 significant digits, so
    0.1 prints as 0.10000000000000001 and 3.0 as 3."""
    x = float(x)
    if not math.isfinite(x):
        raise FormatError(f"cannot serialize non-finite float {x!r}")
    return "%.17g" % x


def _refuse_non_finite(a: np.ndarray) -> None:
    """Raise format_float's FormatError, naming the first non-finite entry of a, if any."""
    finite = np.isfinite(a)
    if not finite.all():
        format_float(a[~finite][0])


# rows are formatted this many entries at a time, so a block's lists and index
# arrays stay small next to the text (128 KiB index arrays, blocks of 1 << 14,
# raised the symmetry benchmark's peak RSS by 1.1-1.5 MB)
_BLOCK_ENTRIES = 1 << 11


def _distinct_bits(bits: np.ndarray) -> np.ndarray:
    """The distinct entries of an int64 array, sorted and flat."""
    ordered = np.sort(bits, axis=None)
    return np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))


def _format_grid(a: np.ndarray, out: list[str]) -> None:
    """Append a 2-D float64 array with entries to out as JSON text, a piece per row.

    Byte-identical to format_float on every entry of a.tolist(). Each distinct
    entry is formatted once, as a permutation-invariant operator has few of
    them; entries are told apart by their int64 bit patterns, which keeps 0.0
    and -0.0 apart."""
    _refuse_non_finite(a)
    bits = a.view(np.int64)
    distinct = _distinct_bits(bits)
    values = distinct.view(np.float64).tolist()
    strings = np.array((", ".join(["%.17g"] * len(values)) % tuple(values)).split(", "),
                       dtype=object)
    step = max(1, _BLOCK_ENTRIES // a.shape[1])
    rows = []
    for k in range(0, a.shape[0], step):
        block = strings[np.searchsorted(distinct, bits[k:k + step])].tolist()
        rows += [", [%s]" % ", ".join(r) for r in block]
    rows[0] = "[" + rows[0][2:]  # every row but the first follows a ", "
    out.extend(rows)
    out.append("]")


def _serialize(obj, out: list[str]) -> None:
    """Append the JSON text of obj to out, piece by piece: dumps joins the
    pieces once and write_text writes them without a join."""
    if isinstance(obj, dict):
        out.append("{")
        sep = ""
        for k, v in obj.items():
            out.append(f"{sep}{json.dumps(str(k))}: ")
            _serialize(v, out)
            sep = ", "
        out.append("}")
    elif type(obj) is list and set(map(type, obj)) == {float} and all(map(math.isfinite, obj)):
        # a list of finite floats in one '%' format, the bytes of format_float on each
        out.append("[" + ", ".join(["%.17g"] * len(obj)) % tuple(obj) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        sep = ""
        for v in obj:
            out.append(sep)
            _serialize(v, out)
            sep = ", "
        out.append("]")
    elif isinstance(obj, np.ndarray):
        if obj.ndim == 2 and obj.dtype == np.float64 and obj.size:
            _format_grid(obj, out)
        else:
            _serialize(obj.tolist(), out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise FormatError(f"cannot serialize object of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (no trailing newline)."""
    out: list[str] = []
    _serialize(obj, out)
    return "".join(out)


def write_text(data, path: str | Path | None = None) -> None:
    """Write data plus a trailing newline to path, or to stdout when path is None.

    data is text, or an object that is serialized as dumps would and written
    piece by piece, so its text is never joined. Serialization ends before the
    file is opened, so a value dumps refuses leaves no file and prints nothing."""
    if isinstance(data, str):
        pieces = [data]
    else:
        pieces = []
        _serialize(data, pieces)
    pieces.append("\n")
    if path is None:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


_NUMBER_TYPES = {int, float}


def _grid_rows(data, dim: int, key: str, where: str) -> list:
    """data, if it is a list of dim rows; else the FormatError of a wrong grid."""
    if not isinstance(data, list) or len(data) != dim:
        raise FormatError(f"{where}: '{key}' must be a {dim}x{dim} number grid")
    return data


def _real_grid(data, dim: int, key: str, where: str) -> np.ndarray:
    """A dim x dim grid of JSON numbers as float64, converted in one call."""
    rows = _grid_rows(data, dim, key, where)
    if all(type(row) is list and len(row) == dim and set(map(type, row)) <= _NUMBER_TYPES
           for row in rows):
        try:
            out = np.array(rows, dtype=np.float64)
        except OverflowError:  # an integer beyond float range
            pass
        else:
            if np.isfinite(out).all():  # refuses 1e400 and the NaN and Infinity tokens
                return out
    _reject_grid(rows, dim, key, where)


def _reject_grid(rows: list, dim: int, key: str, where: str) -> NoReturn:
    """Raise naming the first entry of rows that _real_grid refused."""
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != dim:
            raise FormatError(f"{where}: '{key}' row {i} must have {dim} entries")
        for j, v in enumerate(row):
            if type(v) not in _NUMBER_TYPES:
                raise FormatError(f"{where}: '{key}'[{i}][{j}] is not a number")
            try:
                float(v)
            except OverflowError:
                raise FormatError(f"{where}: '{key}'[{i}][{j}] is too large for a float") from None
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise FormatError(f"{where}: '{key}'[{i}][{j}] is not a finite number")
    raise AssertionError("unreachable")


def matrix_to_json(m: np.ndarray) -> dict:
    """{"dim", "re", "im"} representation of a square complex matrix; "re" and
    "im" are float64 views of m, which dumps formats a row at a time."""
    m = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(m.shape[0]),
        "re": m.real,
        "im": m.imag,
    }


def matrix_from_json(data, where: str = "operator") -> np.ndarray:
    """Parse the {"dim", "re", "im"} matrix format; "im" may be null.

    A short file can name any dim, so the "re" row count and check_memory_cap
    come before the matrix is allocated."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{where}: 'dim' must be a positive integer")
    if "re" not in data:
        raise FormatError(f"{where}: missing 're'")
    _grid_rows(data["re"], dim, "re", where)
    check_memory_cap(16 * dim * dim, f"{where}: a matrix of dim {dim}", dim=dim)
    out = np.empty((dim, dim), dtype=np.complex128)
    return _fill_matrix(out, data["re"], data.get("im"), where)


def _fill_matrix(out: np.ndarray, re_data, im_data, where: str) -> np.ndarray:
    """Fill the complex (dim, dim) out from the "re" and "im" grids ("im" may be null)
    and return it; part by part, as re + 1j * im would turn a -0.0 into +0.0."""
    dim = out.shape[0]
    out.real = _real_grid(re_data, dim, "re", where)
    out.imag = 0.0 if im_data is None else _real_grid(im_data, dim, "im", where)
    return out


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


def povm_from_json(data, where: str = "povm") -> Povm:
    """Parse the POVM format into one read-only (M, D, D) stack, filled in place.

    A short file can name any size, so the stack meets check_memory_cap first."""
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected a JSON object")
    dim = data.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise FormatError(f"{where}: 'dim' must be a positive integer")
    outcomes = data.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise FormatError(f"{where}: 'outcomes' must be a nonempty list")
    n_out = len(outcomes)
    check_memory_cap(16 * n_out * dim * dim, f"{where}: a stack of {n_out} elements of dim {dim}",
                     outcomes=n_out, dim=dim)
    values = np.empty(n_out)
    elements = np.empty((n_out, dim, dim), dtype=np.complex128)
    for k, entry in enumerate(outcomes):
        if not isinstance(entry, dict):
            raise FormatError(f"{where}: outcome {k} must be an object")
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise FormatError(f"{where}: outcome {k} 'value' is not a number")
        try:
            values[k] = value
        except OverflowError:
            raise FormatError(f"{where}: outcome {k} 'value' is too large for a float") from None
        if not math.isfinite(values[k]):
            raise FormatError(f"{where}: outcome {k} 'value' is not a finite number")
        _fill_matrix(elements[k], entry.get("re"), entry.get("im"), f"{where}: outcome {k}")
    elements.setflags(write=False)  # Povm keeps a frozen stack without a copy
    return Povm(values, elements)


def load_povm(path: str | Path) -> Povm:
    return povm_from_json(_load_json(path, "povm"), where=str(path))


def dump_povm(p: Povm) -> str:
    return dumps(povm_to_json(p))


def distribution_csv(dist: OutcomeDistribution) -> str:
    """The value,probability CSV of dist, every row in one '%' format.

    Byte-identical to format_float on each value and probability."""
    rows = np.column_stack([dist.values, dist.probabilities])
    _refuse_non_finite(rows)
    return "value,probability" + ("\n%.17g,%.17g" * len(rows)) % tuple(rows.ravel().tolist())


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else dumps(v)


def rows_csv(rows: list[dict]) -> str:
    """CSV text for homogeneous dict rows; the first row fixes the columns."""
    if not rows:
        raise FormatError("cannot build CSV from zero rows")
    header = list(rows[0])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(col)) for col in header))
    return "\n".join(lines)
