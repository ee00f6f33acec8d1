"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a single
[PASS]/[FAIL] line with the measured margin, so a full run reads as a
scorecard: closed-form optimal error, equivalence of the collective and
repeated-measurement routes, adversarial optimality of the canonical
measurement, the second-moment inequality, twirl invariance of outcome
statistics, operator reconstruction from product diagonals and moments,
the coefficient identity behind them, and Monte Carlo consistency.
"""

import itertools
import time

import numpy as np
import pytest

from obsavg import jsonio
from obsavg.adversary import compare, project_unbiased_povm, smear_povm
from obsavg.estimators import (
    canonical_error,
    canonical_povm,
    repeated_measurement_distribution,
    simulate_repeated,
    total_variation,
)
from obsavg.linops import (Observable, pure_state, random_density, random_hermitian,
                           tensor_power, trace_product)
from obsavg.polarization import (
    coefficient_extract,
    product_expectation,
    random_probe_states,
    reconstruct_from_diagonal,
    reconstruct_from_moments,
    symmetrized_product_sum,
)
from obsavg.povm import Povm, moment_inequality_floor, random_povm
from obsavg.symspace import CopySpace, invariant_basis, twirl

Z = np.diag([1.0, -1.0]).astype(complex)


def _loop_oracle(x, n):
    """The per-vector oracle: one product_expectation per point of the (T,)**n grid."""
    return lambda table: np.reshape([product_expectation(x, factors) for factors in
                                     itertools.product(table, repeat=n)], (len(table),) * n)


def _verdict(capsys, ok: bool, label: str, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{tag}] {label}: {detail}", flush=True)


def _instance(seed: int):
    """Seeded (observable, state, copies) instance with d^N <= 243."""
    rng = np.random.default_rng(seed)
    d = 2 if seed % 2 == 0 else 3
    n = seed % 5 + 1
    return random_hermitian(d, rng), random_density(d, rng), CopySpace(d, n)


@pytest.fixture(scope="module")
def canonical_batch():
    """200 instances: canonical-POVM error gap and route TV distance each."""
    error_gaps = []
    tv_distances = []
    start = time.perf_counter()
    for seed in range(200):
        a, rho, space = _instance(seed)
        p = canonical_povm(a, space)
        err = p.estimation_error(a, rho)
        closed = canonical_error(a, rho, space.n_copies)
        error_gaps.append(abs(err - closed))
        repeated = repeated_measurement_distribution(a, rho, space.n_copies)
        tv_distances.append(total_variation(repeated, p.probabilities(rho)))
    elapsed = time.perf_counter() - start
    return np.array(error_gaps), np.array(tv_distances), elapsed


@pytest.fixture(scope="module")
def adversary_pool():
    """100 projected unbiased POVMs (5 states each) plus 50 smear trials."""
    start = time.perf_counter()
    povms = []
    gaps = []
    failures = []
    for t in range(100):
        n = 2 if t % 2 == 0 else 3
        rng = np.random.default_rng(10_000 + t)
        a = random_hermitian(2, rng)
        space = CopySpace(2, n)
        obs = Observable(a)
        grid = np.linspace(obs.lambda_min, obs.lambda_max, 5)
        # tight tolerance so the projected POVM passes default validity
        try:
            p = project_unbiased_povm(a, space, grid, rng=np.random.default_rng(20_000 + t),
                                      convergence_tol=1e-10).povm
        except Exception as exc:  # honest bookkeeping, asserted later
            failures.append((t, repr(exc)))
            continue
        povms.append(p)
        for _ in range(5):
            gaps.append(compare(p, a, random_density(2, rng)).gap)
    smear_residuals = []
    for t in range(50):
        n = 2 if t % 2 == 0 else 3
        rng = np.random.default_rng(30_000 + t)
        a = random_hermitian(2, rng)
        base = canonical_povm(a, CopySpace(2, n))
        rho = random_density(2, rng)
        deltas = rng.uniform(0.0, 0.2, size=base.n_outcomes)
        smeared = smear_povm(base, deltas)
        povms.append(smeared)
        base_sq = base.estimation_error(a, rho) ** 2
        smear_sq = smeared.estimation_error(a, rho) ** 2
        shift = float(base.probabilities(rho).probabilities @ deltas**2)
        smear_residuals.append(abs(smear_sq - base_sq - shift))
    elapsed = time.perf_counter() - start
    return {
        "povms": povms,
        "gaps": np.array(gaps),
        "failures": failures,
        "smear_residuals": np.array(smear_residuals),
        "elapsed": elapsed,
    }


def test_closed_form_optimal_error(canonical_batch, capsys):
    error_gaps, _, elapsed = canonical_batch
    worst = float(error_gaps.max())
    ok = worst <= 1e-9 and elapsed <= 60.0
    _verdict(capsys, ok, "closed-form optimal error",
             f"200 instances, max |err - closed form| = {worst:.3e} "
             f"(tol 1e-9), elapsed {elapsed:.1f}s (budget 60s)")
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_strategy_equivalence(canonical_batch, capsys):
    _, tv_distances, _ = canonical_batch
    worst = float(tv_distances.max())
    ok = worst <= 1e-9
    _verdict(capsys, ok, "strategy equivalence",
             f"200 instances, max TV(repeated, collective) = {worst:.3e} "
             f"(tol 1e-9)")
    assert worst <= 1e-9


def test_adversary_gap_floor_and_smear_identity(adversary_pool, capsys):
    gaps = adversary_pool["gaps"]
    residuals = adversary_pool["smear_residuals"]
    failures = adversary_pool["failures"]
    elapsed = adversary_pool["elapsed"]
    min_gap = float(gaps.min()) if gaps.size else float("nan")
    worst_res = float(residuals.max())
    ok = (not failures and gaps.size == 500 and min_gap >= -1e-8
          and worst_res <= 1e-12 and elapsed <= 300.0)
    _verdict(capsys, ok, "adversary optimality",
             f"100 trials x 5 states, min gap = {min_gap:.3e} (floor -1e-8); "
             f"50 smear trials, max variance-identity residual = "
             f"{worst_res:.3e} (tol 1e-12); {len(failures)} failures; "
             f"elapsed {elapsed:.1f}s (budget 300s)")
    assert not failures, failures
    assert gaps.size == 500
    assert min_gap >= -1e-8
    assert worst_res <= 1e-12
    assert elapsed <= 300.0


def test_second_moment_inequality(adversary_pool, capsys):
    floors = np.array([moment_inequality_floor(p)
                       for p in adversary_pool["povms"]])
    worst = float(floors.min())
    ok = floors.size == 150 and worst >= -1e-9
    _verdict(capsys, ok, "second-moment inequality",
             f"{floors.size} POVMs, min eig(second moment - first^2) = "
             f"{worst:.3e} (floor -1e-9)")
    assert floors.size == 150
    assert worst >= -1e-9


def test_twirl_invariance_of_outcome_statistics(capsys):
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for k in range(50):
        d, n = combos[k % 4]
        rng = np.random.default_rng(60_000 + k)
        space = CopySpace(d, n)
        p = random_povm(space, d + 2, rng)
        rho = random_density(d, rng)
        twirled = Povm(p.values,
                       np.stack([twirl(e, space) for e in p.elements]),
                       space)
        diff = np.abs(twirled.probabilities(rho).probabilities
                      - p.probabilities(rho).probabilities).max()
        worst = max(worst, float(diff))
    ok = worst <= 1e-12
    _verdict(capsys, ok, "twirl invariance",
             f"50 random POVMs, max probability shift = {worst:.3e} "
             f"(tol 1e-12)")
    assert worst <= 1e-12


def test_invariant_reconstruction(capsys):
    diag_errors = []
    for t in range(20):
        n = 2 if t % 2 == 0 else 3
        rng = np.random.default_rng(70_000 + t)
        dim = 2**n
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rebuilt = reconstruct_from_diagonal(_loop_oracle(x, n), 2, n)
        diag_errors.append(np.linalg.norm(rebuilt - x))
    moment_errors = []
    conditions = []
    for t in range(20):
        n = 2 if t % 2 == 0 else 3
        rng = np.random.default_rng(80_000 + t)
        space = CopySpace(2, n)
        x = twirl(random_hermitian(2**n, rng), space)
        probes = random_probe_states(2, {2: 15, 3: 25}[n], seed=90_000 + t)
        rec = reconstruct_from_moments(
            lambda rho: trace_product(x, tensor_power(rho.matrix, n)),
            2, n, probes)
        moment_errors.append(np.linalg.norm(rec.matrix - x))
        conditions.append(rec.condition_number)
    basis_size = len(invariant_basis(CopySpace(2, 2)))
    worst_diag = float(max(diag_errors))
    worst_moment = float(max(moment_errors))
    worst_cond = float(max(conditions))
    ok = (worst_diag <= 1e-8 and worst_moment <= 1e-8
          and worst_cond < 1e8 and basis_size == 10)
    _verdict(capsys, ok, "invariant reconstruction",
             f"20 diagonal rebuilds, max Frobenius error = {worst_diag:.3e}; "
             f"20 moment rebuilds, max error = {worst_moment:.3e}, "
             f"max condition = {worst_cond:.3e}; basis(2,2) size = "
             f"{basis_size} (want 10)")
    assert worst_diag <= 1e-8
    assert worst_moment <= 1e-8
    assert worst_cond < 1e8
    assert basis_size == 10


def test_coefficient_identity(capsys):
    combos = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for k in range(50):
        d, n = combos[k % 4]
        rng = np.random.default_rng(100_000 + k)
        dim = d**n
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                   for _ in range(n)]
        lhs = coefficient_extract(x, vectors)
        rhs = symmetrized_product_sum(x, vectors)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst <= 1e-9
    _verdict(capsys, ok, "coefficient identity",
             f"50 instances, max relative residual = {worst:.3e} (tol 1e-9)")
    assert worst <= 1e-9


def test_monte_carlo_consistency(capsys):
    plus = pure_state([1.0, 1.0])
    shots = 100_000
    report = simulate_repeated(Z, plus, 4, shots, seed=12345)
    repeat = simulate_repeated(Z, plus, 4, shots, seed=12345)
    mean_tol = 4 * 0.5 / np.sqrt(shots)
    payload = jsonio.dumps(report.to_dict()).encode()
    identical = payload == jsonio.dumps(repeat.to_dict()).encode()
    mean_err = abs(report.sample_mean)
    stddev_err = abs(report.sample_stddev - 0.5)
    ok = (mean_err <= mean_tol and stddev_err <= 0.05 * 0.5 and identical)
    _verdict(capsys, ok, "Monte Carlo consistency",
             f"1e5 shots: |sample mean| = {mean_err:.3e} (tol {mean_tol:.3e}), "
             f"|stddev - 0.5| = {stddev_err:.3e} (tol 2.5e-2), "
             f"byte-identical reruns = {identical}")
    assert mean_err <= mean_tol
    assert stddev_err <= 0.05 * 0.5
    assert identical
