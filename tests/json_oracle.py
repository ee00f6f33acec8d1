"""Per-element reference for the JSON text of operators and POVMs.

Every entry goes through its own '%.17g' format, over the nested lists of
.tolist(), the way obsavg.jsonio wrote grids before it formatted a row at
a time. The tests check jsonio's text against this one byte for byte.
"""
from __future__ import annotations

import json
import math

import numpy as np

from obsavg.errors import FormatError


def reference_dumps(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {reference_dumps(v)}"
                               for k, v in obj.items()) + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FormatError(f"cannot serialize non-finite float {obj!r}")
        return "%.17g" % obj
    raise TypeError(f"no reference form for {type(obj).__name__}")


def _grids(m) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def reference_dump_operator(m) -> str:
    return reference_dumps({"dim": int(np.shape(m)[0])} | _grids(m))


def reference_dump_povm(values, elements) -> str:
    outcomes = [{"value": float(v)} | _grids(e) for v, e in zip(values, elements)]
    return reference_dumps({"dim": int(np.shape(elements)[1]), "outcomes": outcomes})
