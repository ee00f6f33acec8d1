"""Time the adversary search on the qubit ladder, block route against dense.

    OPENBLAS_NUM_THREADS=1 python3 scripts/adversary_ladder.py > ladder.json

One trial per size: pauli-x on n = 4..9 copies, an 8-point spanning grid,
seed 1, convergence tol 1e-10. The spin-block route (what
project_unbiased_povm runs for qubits) runs at every size; the dense
product-basis route runs where one trial stays under a minute (n <= 7).
Each record gives the iterations, the search time, ms per iteration, the
time of compare on the found POVM and their sum, one CLI trial.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obsavg import adversary  # noqa: E402
from obsavg.linops import Observable, random_density  # noqa: E402
from obsavg.symspace import CopySpace  # noqa: E402

PAULI_X = Observable(np.array([[0.0, 1.0], [1.0, 0.0]]))
ROUTES = {"block": adversary._search_spin_blocks, "dense": adversary._search_product_basis}
DENSE_MAX_COPIES = 7


def trial(route: str, n: int, seed: int = 1, tol: float = 1e-10) -> dict:
    space = CopySpace(2, n)
    values = np.asarray(adversary.AdversaryConfig.spanning_grid(PAULI_X, 8).value_grid)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    result = ROUTES[route](PAULI_X, space, values, None, rng, 5000, tol)
    project_s = time.perf_counter() - start
    start = time.perf_counter()
    report = adversary.compare(result.povm, PAULI_X, random_density(2, rng))
    compare_s = time.perf_counter() - start
    return {"route": route, "n": n, "dim": space.total_dim, "iterations": result.iterations,
            "project_s": round(project_s, 4),
            "iteration_ms": round(1e3 * project_s / max(result.iterations, 1), 4),
            "compare_s": round(compare_s, 4), "trial_s": round(project_s + compare_s, 4),
            "gap": report.gap, "completeness_residual": result.completeness_residual}


def main() -> None:
    adversary.project_unbiased_povm(PAULI_X.matrix, CopySpace(2, 2), (-1.0, 1.0))  # warm-up
    for n in range(4, 10):
        for route in ("block", "dense") if n <= DENSE_MAX_COPIES else ("block",):
            print(json.dumps(trial(route, n)), flush=True)


if __name__ == "__main__":
    main()
