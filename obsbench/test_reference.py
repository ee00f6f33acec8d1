"""The benchmark's references against brute force at tiny sizes.

    python3 -m pytest obsbench/test_reference.py

The brute force is written here, independently of both obsavg and
reference.py: a dense copy average diagonalized with numpy.linalg.eigh, and
explicit sums over all permutations of the copies.
"""
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402

SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]


def random_instance(d: int, seed: int):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = (g + g.conj().T) / 2
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = h @ h.conj().T
    return a, rho / np.trace(rho).real


def dense_copy_average(a: np.ndarray, n: int) -> np.ndarray:
    d = a.shape[0]
    total = np.zeros((d**n, d**n), dtype=complex)
    for site in range(n):
        factors = [np.eye(d)] * n
        factors[site] = a
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        total += term
    return total / n


def dense_distribution(a: np.ndarray, rho: np.ndarray, n: int):
    """Spectral measurement of the dense copy average on rho^(x)n."""
    w, v = np.linalg.eigh(dense_copy_average(a, n))
    joint = reference.kron_power(rho, n)
    probs = np.einsum("ji,jk,ki->i", v.conj(), joint, v).real
    return w, probs


def merged(values: np.ndarray, probs: np.ndarray):
    """One outcome per eigenvalue cluster, as the canonical POVM reports it."""
    labels = reference.cluster(values, 1e-9)
    sums = np.bincount(labels, weights=values) / np.bincount(labels)
    return sums, np.bincount(labels, weights=probs)


def permutation_matrix(perm, d: int, n: int) -> np.ndarray:
    dim = d**n
    p = np.zeros((dim, dim))
    for index in range(dim):
        digits = np.unravel_index(index, (d,) * n)
        moved = [0] * n
        for site, target in enumerate(perm):
            moved[target] = digits[site]
        p[np.ravel_multi_index(moved, (d,) * n), index] = 1.0
    return p


def brute_twirl(x: np.ndarray, d: int, n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    total = np.zeros_like(x)
    for perm in perms:
        p = permutation_matrix(perm, d, n)
        total += p.T @ x @ p
    return total / len(perms)


@pytest.mark.parametrize("d,n", SIZES)
def test_type_counts_enumerate_every_type_once(d, n):
    counts = reference.type_counts(n, d)
    assert len(counts) == math.comb(n + d - 1, d - 1)
    assert (counts.sum(axis=1) == n).all()
    assert len({tuple(c) for c in counts}) == len(counts)


@pytest.mark.parametrize("d,n", SIZES)
@pytest.mark.parametrize("seed", [0, 1])
def test_iid_law_matches_dense_collective_measurement(d, n, seed):
    a, rho = random_instance(d, seed)
    values, probs = reference.iid_average_distribution(a, rho, n)
    dense_values, dense_probs = dense_distribution(a, rho, n)
    assert reference.tv_distance(values, probs, dense_values, dense_probs, 1e-9) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iid_law_merges_degenerate_type_means(n):
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    _, rho = random_instance(2, 7)
    values, probs = reference.iid_average_distribution(pauli_x, rho, n)
    dense_values, dense_probs = dense_distribution(pauli_x, rho, n)
    assert reference.tv_distance(values, probs, dense_values, dense_probs, 1e-9) < 1e-12
    assert int(reference.cluster(dense_values, 1e-9).max()) + 1 == n + 1


def test_log_space_multinomial_keeps_the_tail_at_hundreds_of_copies():
    a = np.diag([1.0, -1.0]).astype(complex)
    rho = np.diag([0.55, 0.45]).astype(complex)
    n = 700
    values, probs = reference.iid_average_distribution(a, rho, n)
    for k in (0, 1, 350, 699, 700):
        exact = math.log(math.comb(n, k)) + k * math.log(0.55) + (n - k) * math.log(0.45)
        index = int(np.argmin(np.abs(values - (2 * k - n) / n)))
        assert math.isclose(math.log(probs[index]), exact, rel_tol=1e-12)


@pytest.mark.parametrize("d,n", SIZES)
def test_closed_form_is_the_dense_measurement_error(d, n):
    a, rho = random_instance(d, 3)
    values, probs = dense_distribution(a, rho, n)
    mean = reference.expectation(a, rho)
    assert abs(probs @ values - mean) < 1e-12
    rms = math.sqrt(probs @ (values - mean) ** 2)
    assert abs(rms - reference.closed_form_error(a, rho, n)) < 1e-12


def _report(a, rho, n, values, probs, shots=1000, sample_mean=None):
    mean = reference.expectation(a, rho)
    err = reference.closed_form_error(a, rho, n)
    return {"local_dim": a.shape[0], "n_copies": n, "expected_value": mean,
            "closed_form_error": err, "povm_error": err,
            "outcome_values": list(values), "outcome_probabilities": list(probs),
            "shots": shots, "seed": 0,
            "sample_mean": mean if sample_mean is None else sample_mean}


def test_estimate_check_accepts_the_dense_report_and_rejects_faults():
    a, rho = random_instance(3, 5)
    n = 3
    values, probs = merged(*dense_distribution(a, rho, n))
    good = _report(a, rho, n, values, probs)
    assert reference.check_estimate(good, a, rho, n, 1000, collective=True) == []
    wrong_law = _report(a, rho, n, *merged(*dense_distribution(a, rho, n - 1)))
    assert reference.check_estimate(wrong_law, a, rho, n, 1000, collective=True)
    err = reference.closed_form_error(a, rho, n)
    biased = _report(a, rho, n, values, probs, sample_mean=good["sample_mean"] + 6 * err / math.sqrt(1000))
    assert reference.check_estimate(biased, a, rho, n, 1000, collective=False)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_twirl_check_accepts_the_permutation_sum_and_rejects_others(d, n):
    rng = np.random.default_rng(d * 10 + n)
    x = rng.standard_normal((d**n, d**n)) + 1j * rng.standard_normal((d**n, d**n))
    twirled = brute_twirl(x, d, n)
    assert reference.check_twirl(x, twirled, d, n, probe_seed=1) == []
    assert reference.check_twirl(x, x, d, n, probe_seed=1)
    assert reference.check_twirl(x, np.zeros_like(x), d, n, probe_seed=1)
    if n > 2:  # for two copies the one swap already generates the group
        swap = permutation_matrix((1, 0) + tuple(range(2, n)), d, n)
        half = (x + swap.T @ x @ swap) / 2
        assert reference.check_twirl(x, half, d, n, probe_seed=1)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_swap_sites_matches_the_permutation_matrix(d, n):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((d**n, d**n))
    p = permutation_matrix((1, 0) + tuple(range(2, n)), d, n)
    assert np.allclose(reference.swap_sites(m, d, n, 0), p @ m @ p.T)


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_invariant_basis_size_is_the_number_of_pair_orbits(d, n):
    orbits = set()
    for i, j in itertools.product(itertools.product(range(d), repeat=n), repeat=2):
        orbits.add(min(tuple(zip((i[s] for s in perm), (j[s] for s in perm)))
                       for perm in itertools.permutations(range(n))))
    assert len(orbits) == math.comb(n + d * d - 1, n)
    report = {"local_dim": d, "n_copies": n, "seed": 0, "n_probes": 40,
              "invariant_basis_size": len(orbits), "moment_rank": len(orbits),
              "diagonal_reconstruction_error": 1e-14, "moment_reconstruction_error": 1e-12,
              "coefficient_identity_residual": 1e-15}
    assert reference.check_lemma(report, d, n, 40, 0) == []
    assert reference.check_lemma({**report, "moment_rank": len(orbits) - 1}, d, n, 40, 0)


def test_adversary_check_rejects_a_competitor_below_the_optimum():
    csv = ("trial,seed,converged,iterations,n_outcomes,adversary_error,canonical_error,gap\n"
           "0,0,true,10,8,0.6,0.5,0.09999999999999998")
    summary = {"trials": 1, "converged": 1, "grid_size": 8, "min_gap": 0.1,
               "max_unbiasedness_residual": 1e-10, "max_completeness_residual": 1e-10,
               "min_moment_floor": 0.0}
    assert reference.check_adversary(summary, csv, 1, 8, 1e-9) == []
    assert reference.check_adversary({**summary, "min_gap": -1e-6}, csv, 1, 8, 1e-9)
    assert reference.check_adversary({**summary, "converged": 0}, csv, 1, 8, 1e-9)
