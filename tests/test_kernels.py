import numpy as np

from obsavg.symspace import CopySpace, orbit_sums, pair_orbit_labels, twirl
from perm_oracle import all_permutations, permutation_operator


def test_twirl_mean_matches_matrix_conjugation_oracle():
    rng = np.random.default_rng(22)
    d, n = 2, 3
    space = CopySpace(d, n)
    dim = space.total_dim
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    acc = np.zeros_like(x)
    for sigma in all_permutations(n):
        p = permutation_operator(sigma, space)
        acc += p.conj().T @ x @ p
    oracle = acc / 6.0
    # the twirl mean: every entry is the mean of x over its index-pair orbit
    labels = pair_orbit_labels(space)
    sizes = np.bincount(labels.reshape(-1))
    orbit_mean = (orbit_sums(x, space) / sizes)[labels]
    assert np.abs(orbit_mean - oracle).max() < 1e-13
    assert np.abs(twirl(x, space) - oracle).max() < 1e-13
