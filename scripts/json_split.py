"""Split one twirl job into JSON load, twirl and JSON dump, and pair symmetry runs.

    OPENBLAS_NUM_THREADS=1 python3 scripts/json_split.py [--tree DIR]
    OPENBLAS_NUM_THREADS=1 python3 scripts/json_split.py --parent DIR > BENCH.json

The first form prints one JSON line per size for the checkout DIR (default:
this one): d=2, n=5..9 and d=3, n=3..6. Each line times, as `obsavg twirl`
runs them, jsonio.load_operator on a random complex operator file written
with the standard library, symspace.twirl (orbit labels cached by one
untimed twirl), and jsonio.dump_operator plus write_text to a file; each is
the median of REPEATS runs.

The second form writes one JSON record: that split for DIR (the parent)
and for this checkout (the change), the obsbench `symmetry` run pairs
(`obsbench/run.py --workload symmetry --seed S --seconds 30 --trace 0`, one
pair per seed, alternating which side runs first), and one traced run per
side (`--seed 1 --seconds 1 --trace 1`).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import _pairs

SIZES = [(2, n) for n in range(5, 10)] + [(3, n) for n in range(3, 7)]
REPEATS = 7
TRACED = ["jsonio.load_s", "jsonio.dump_s", "jsonio.bytes_out", "symspace.twirl_s",
          "polarization.moments_s", "trace.wall_s"]


def _median_s(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times), 4)


def split(tree: Path) -> list[dict]:
    sys.path.insert(0, str(tree / "src"))
    from obsavg import jsonio
    from obsavg.symspace import CopySpace, twirl

    rows = []
    with tempfile.TemporaryDirectory() as work:
        src, out = Path(work, "op.json"), Path(work, "out.json")
        for d, n in SIZES:
            dim = d**n
            rng = np.random.default_rng([d, n])
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            src.write_text(json.dumps({"dim": dim, "re": x.real.tolist(),
                                       "im": x.imag.tolist()}), encoding="utf-8")
            space = CopySpace(d, n)
            m = jsonio.load_operator(src)
            t = twirl(m, space)
            rows.append({
                "d": d, "n": n, "dim": dim, "bytes_in": src.stat().st_size,
                "load_s": _median_s(lambda: jsonio.load_operator(src)),
                "twirl_s": _median_s(lambda: twirl(m, space)),
                "dump_s": _median_s(lambda: jsonio.write_text(jsonio.dump_operator(t), out)),
                "bytes_out": out.stat().st_size,
            })
    return rows


def record(parent: Path, seeds: list[int]) -> dict:
    trees = _pairs.sides(parent)
    return {
        "what": "JSON layer of the symmetry workload: the per-size split of one twirl job "
                "(scripts/json_split.py), obsbench symmetry run pairs (--seconds 30 --trace 0, "
                "alternating which side runs first) and one traced run per side "
                "(--seed 1 --seconds 1 --trace 1); parent and change each from a fresh copy",
        "machine": _pairs.machine(),
        "split": _pairs.per_tree(__file__, trees),
        "pairs": _pairs.pairs(trees, [("symmetry", seed) for seed in seeds]),
        "trace": _pairs.traced(trees, "symmetry", TRACED),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=_pairs.ROOT)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    if args.parent is None:
        for row in split(args.tree.resolve()):
            print(json.dumps(row), flush=True)
    else:
        print(json.dumps(record(args.parent, args.seeds), indent=1))


if __name__ == "__main__":
    main()
