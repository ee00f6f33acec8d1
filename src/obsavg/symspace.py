"""Copy spaces and the permutation-symmetric (twirled) operator algebra.

Composite indices are big-endian: site 0 is the most significant base-d digit.
Permuting the copies permutes the composite indices, so an index pair (i, j)
moves within its orbit, the pairs with the same multiset of per-site digit
pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .linops import as_matrix, check_memory_cap

# index pairs per row block while labelling orbits: bounds the temporaries
_BLOCK_PAIRS = 1 << 20


@dataclass(frozen=True)
class CopySpace:
    """n_copies identical systems of dimension local_dim, total_dim = local_dim**n_copies."""

    local_dim: int
    n_copies: int

    def __post_init__(self):
        if self.local_dim < 1:
            raise DimensionMismatchError(f"local_dim must be >= 1, got {self.local_dim}")
        if self.n_copies < 1:
            raise DimensionMismatchError(f"n_copies must be >= 1, got {self.n_copies}")
        dim = self.total_dim
        check_memory_cap(16 * dim * dim, f"composite dimension {dim}", dim=dim)

    @property
    def total_dim(self) -> int:
        return self.local_dim ** self.n_copies


@lru_cache(maxsize=64)
def _digit_table(local_dim: int, n_copies: int) -> tuple[np.ndarray, np.ndarray]:
    # digits[i, k]: base-d digit of composite index i at site k; weights: place values
    weights = local_dim ** np.arange(n_copies - 1, -1, -1, dtype=np.int64)
    idx = np.arange(local_dim ** n_copies, dtype=np.int64)
    digits = (idx[:, None] // weights[None, :]) % local_dim
    digits.setflags(write=False)
    weights.setflags(write=False)
    return digits, weights


def lift(a, site: int, space: CopySpace) -> np.ndarray:
    """a acting on one site, identity elsewhere: I ox ... ox a ox ... ox I."""
    m = as_matrix(a)
    d, n = space.local_dim, space.n_copies
    if m.shape[0] != d:
        raise DimensionMismatchError(
            f"operator dim {m.shape[0]} does not match local_dim {d}"
        )
    if not 0 <= site < n:
        raise DimensionMismatchError(f"site {site} outside range(0, {n})")
    left = np.eye(d ** site, dtype=np.complex128)
    right = np.eye(d ** (n - site - 1), dtype=np.complex128)
    return np.kron(np.kron(left, m), right)


def copy_average(a, space: CopySpace) -> np.ndarray:
    """Average of the single-site liftings of a over all sites."""
    d, n = space.local_dim, space.n_copies
    out = np.zeros((space.total_dim, space.total_dim), dtype=np.complex128)
    for site in range(n):
        out += lift(a, site, space)
    out /= n
    return out


@lru_cache(maxsize=4)
def pair_orbit_labels(space: CopySpace) -> np.ndarray:
    """Orbit number of every index pair (i, j) under the permutation action.

    A permutation moves the per-site symbols (digit_i[k], digit_j[k]) of a
    pair between sites, so two pairs share an orbit exactly when their
    symbol multisets agree. The orbit's smallest pair code i * D + j belongs
    to its pair with the symbols sorted ascending over the sites; those
    sorted symbols follow from how often each symbol occurs, which is a
    product of 0/1 digit-indicator matrices. Orbits are numbered 0..K-1 in
    ascending order of that smallest code, the order of invariant_basis.

    Returns a read-only (D, D) integer array, cached for the last four
    spaces. The work is O(d^2 n D^2) and the temporaries are bounded by
    row blocks, so the dimension cap bounds both.
    """
    d, n, dim = space.local_dim, space.n_copies, space.total_dim
    digits, weights = _digit_table(d, n)
    # place[m]: summed place values of the m most significant sites
    place = np.concatenate([[0], np.cumsum(weights)])
    indicator = [(digits == a).astype(np.float64) for a in range(d)]
    labels = np.empty((dim, dim), dtype=np.int64)
    reps = []
    step = max(1, _BLOCK_PAIRS // dim)
    for lo in range(0, dim, step):
        hi = min(lo + step, dim)
        # sorted ascending, symbol (a, b) fills the sites [start, end), where
        # end - start counts the sites with digit a in i and digit b in j
        start = np.zeros((hi - lo, dim), dtype=np.int64)
        code = np.zeros_like(start)
        for a, b in itertools.product(range(d), repeat=2):
            end = start + (indicator[a][lo:hi] @ indicator[b].T).astype(np.int64)
            code += (a * dim + b) * (place[end] - place[start])
            start = end
        labels[lo:hi] = code
        # an orbit's representative is the pair whose code is its own
        flat = np.arange(lo * dim, hi * dim)
        reps.append(flat[code.reshape(-1) == flat])
    reps = np.concatenate(reps)
    for lo in range(0, dim, step):
        labels[lo:lo + step] = np.searchsorted(reps, labels[lo:lo + step])
    labels.setflags(write=False)
    return labels


def orbit_sums(x, space: CopySpace) -> np.ndarray:
    """Sum of the entries of x over each index-pair orbit, in pair_orbit_labels order."""
    m = as_matrix(x)
    if m.shape[0] != space.total_dim:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} does not match total_dim {space.total_dim}"
        )
    labels = pair_orbit_labels(space).reshape(-1)
    entries = m.reshape(-1)
    return np.bincount(labels, entries.real) + 1j * np.bincount(labels, entries.imag)


def twirl(x, space: CopySpace) -> np.ndarray:
    """Group average (1/n!) sum_sigma P_sigma^dagger x P_sigma.

    Projects onto the permutation-invariant operator subspace: every entry
    becomes the mean of x over its index-pair orbit.
    """
    labels = pair_orbit_labels(space)
    sizes = np.bincount(labels.reshape(-1))
    return (orbit_sums(x, space) / sizes)[labels]


def invariant_basis(space: CopySpace) -> list[np.ndarray]:
    """0/1 indicator matrices of the index-pair orbits under the permutation action.

    The returned list is a basis of the permutation-invariant matrix subspace,
    ordered by the smallest composite pair code in each orbit.
    """
    labels = pair_orbit_labels(space)
    return [(labels == k).astype(np.complex128) for k in range(int(labels.max()) + 1)]
