"""Time the adversary search on a qubit and a qutrit ladder, block route against dense.

    OPENBLAS_NUM_THREADS=1 python3 scripts/adversary_ladder.py > ladder.json

One trial per size: pauli-x on n = 4..9 copies and spin1-z on n = 2..6, an
8-point spanning grid, seed 1, convergence tol 1e-10. The Schur-block route
(what project_unbiased_povm runs) runs at every size; the dense
product-basis route of tests/dense_oracle.py runs where one trial stays
under a minute (pauli-x n <= 7, spin1-z n <= 4). Each record gives the
iterations, the search time, ms per iteration, the time of compare on the
found POVM and their sum, one CLI trial.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dense_oracle import search_product_basis  # noqa: E402
from obsavg import adversary  # noqa: E402
from obsavg.linops import Observable, random_density  # noqa: E402
from obsavg.symspace import CopySpace  # noqa: E402

ROUTES = {"block": adversary._search_schur_blocks, "dense": search_product_basis}
# observable, copies, largest n of the dense route
LADDERS = {
    "pauli-x": (Observable(np.array([[0.0, 1.0], [1.0, 0.0]])), range(4, 10), 7),
    "spin1-z": (Observable(np.diag([1.0, 0.0, -1.0])), range(2, 7), 4),
}


def trial(name: str, route: str, n: int, seed: int = 1, tol: float = 1e-10) -> dict:
    obs = LADDERS[name][0]
    space = CopySpace(obs.dim, n)
    values = np.asarray(adversary.AdversaryConfig.spanning_grid(obs, 8).value_grid)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    result = ROUTES[route](obs, space, values, None, rng, 5000, tol)
    project_s = time.perf_counter() - start
    start = time.perf_counter()
    report = adversary.compare(result.povm, obs, random_density(obs.dim, rng))
    compare_s = time.perf_counter() - start
    return {"observable": name, "route": route, "n": n, "dim": space.total_dim,
            "iterations": result.iterations, "project_s": round(project_s, 4),
            "iteration_ms": round(1e3 * project_s / max(result.iterations, 1), 4),
            "compare_s": round(compare_s, 4), "trial_s": round(project_s + compare_s, 4),
            "gap": report.gap, "completeness_residual": result.completeness_residual}


def main() -> None:
    for name, (obs, copies, dense_max) in LADDERS.items():
        adversary.project_unbiased_povm(obs, CopySpace(obs.dim, 2), obs.eigenvalues)  # warm-up
        for n in copies:
            for route in ("block", "dense") if n <= dense_max else ("block",):
                print(json.dumps(trial(name, route, n)), flush=True)


if __name__ == "__main__":
    main()
