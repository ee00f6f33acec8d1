"""Time the adversary search on a qubit and a qutrit ladder, several seeds per size.

    OPENBLAS_NUM_THREADS=1 python3 scripts/adversary_ladder.py [--tree DIR] > ladder.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/adversary_ladder.py --parent DIR > BENCH.json

The first form prints one JSON line per size for the checkout DIR (default:
this one): pauli-x on n = 4..9 copies and spin1-z on n = 2..6, an 8-point
spanning grid, convergence tol 1e-10, one trial of the Schur-block search
(project_unbiased_povm) for each of seeds 1..5, then compare on the found
POVM and a random state from the same generator. Each line gives the
iterations per seed, their mean and max, the search time (median and
total), ms per iteration, the median compare time and the gap quantiles
over the seeds.

The second form writes one JSON record: that ladder for DIR (the parent)
and for this checkout (the change), obsbench run pairs
(`obsbench/run.py --workload W --seed S --seconds 30 --trace 0`, alternating
which side runs first: one pair per `--seeds` value, 1..10 by default, on
adversary, and one per each of the first two on the other workloads, which
never call the search), and one traced adversary run per side (`--seed 1
--seconds 1 --trace 1`).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import _pairs

SEEDS = [1, 2, 3, 4, 5]
WORKLOADS = ["adversary", "collective", "large-n", "symmetry"]
LADDER = {"pauli-x": ([[0.0, 1.0], [1.0, 0.0]], range(4, 10)),
          "spin1-z": ([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]], range(2, 7))}
TRACED = ["adversary.project_s", "adversary.iterations", "adversary.iteration_ms",
          "adversary.compare_s", "povm.validate_s", "trace.wall_s"]


def ladder(tree: Path, tol: float = 1e-10) -> list[dict]:
    sys.path.insert(0, str(tree / "src"))
    from obsavg import adversary
    from obsavg.linops import Observable, random_density
    from obsavg.symspace import CopySpace

    rows = []
    for name, (matrix, copies) in LADDER.items():
        obs = Observable(np.array(matrix))
        grid = np.linspace(obs.lambda_min, obs.lambda_max, 8)
        adversary.project_unbiased_povm(obs, CopySpace(obs.dim, 2), obs.eigenvalues)  # warm-up
        for n in copies:
            space = CopySpace(obs.dim, n)
            iterations, project_s, compare_s, gaps = [], [], [], []
            for seed in SEEDS:
                rng = np.random.default_rng(seed)
                start = time.perf_counter()
                result = adversary.project_unbiased_povm(obs, space, grid, rng=rng,
                                                         convergence_tol=tol)
                project_s.append(time.perf_counter() - start)
                start = time.perf_counter()
                report = adversary.compare(result.povm, obs, random_density(obs.dim, rng))
                compare_s.append(time.perf_counter() - start)
                iterations.append(result.iterations)
                gaps.append(report.gap)
            rows.append({
                "observable": name, "n": n, "dim": space.total_dim, "seeds": SEEDS,
                "iterations": iterations, "iterations_mean": float(np.mean(iterations)),
                "iterations_max": max(iterations),
                "project_s_median": round(statistics.median(project_s), 4),
                "project_s_total": round(sum(project_s), 4),
                "iteration_ms": round(1e3 * sum(project_s) / max(sum(iterations), 1), 4),
                "compare_s_median": round(statistics.median(compare_s), 4),
                "gap_quantiles": [float(g) for g in np.quantile(gaps, [0, 0.25, 0.5, 0.75, 1])],
            })
    return rows


def record(parent: Path, seeds: list[int]) -> dict:
    trees = _pairs.sides(parent)
    return {
        "what": "adversary search ladder (scripts/adversary_ladder.py: pauli-x n = 4..9, "
                "spin1-z n = 2..6, 8-point grid, tol 1e-10, one Schur-block trial per seed), "
                "obsbench run pairs (--seconds 30 --trace 0, alternating which side runs "
                "first) and one traced adversary run per side (--seed 1 --seconds 1 "
                "--trace 1); parent and change each from a fresh copy",
        "machine": _pairs.machine(),
        "ladder": _pairs.per_tree(__file__, trees),
        "pairs": _pairs.pairs(trees, [(workload, seed) for workload in WORKLOADS
                                      for seed in (seeds if workload == "adversary"
                                                   else seeds[:2])]),
        "trace": _pairs.traced(trees, "adversary", TRACED),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=_pairs.ROOT)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args()
    if args.parent is None:
        for row in ladder(args.tree.resolve()):
            print(json.dumps(row), flush=True)
    else:
        print(json.dumps(record(args.parent, args.seeds), indent=1))


if __name__ == "__main__":
    main()
