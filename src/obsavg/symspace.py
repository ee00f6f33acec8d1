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


def _digit_counts(local_dim: int, n_copies: int) -> np.ndarray:
    """(D, d) table: how many sites of composite index i carry each digit."""
    digits, _ = _digit_table(local_dim, n_copies)
    return np.stack([(digits == a).sum(axis=1) for a in range(local_dim)], axis=1)


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


@dataclass(frozen=True)
class SchurBasis:
    """A unitary basis of the copy space adapted to Schur-Weyl duality.

    Block b carries the GL(d) irrep V_lambda of a partition lambda of n with
    at most d rows: its columns run over (row, copy), the copy fastest, with
    size rows (dim V_lambda) and mult copies (the S_n irrep's dimension).
    Every copy carries the same weight basis of V_lambda, so an operator
    that commutes with the copy permutations is X_b (x) I on block b.
    """

    vectors: np.ndarray                        # (D, D), read-only
    blocks: tuple[tuple[int, int, slice], ...]  # (size, mult, columns) of each block
    counts: np.ndarray  # (blocks, R, d) weight of each row, R the largest size; 0 below


def _partitions(n: int, rows: int, largest: int) -> list[tuple[int, ...]]:
    """Partitions of n into at most rows parts of at most largest, descending."""
    if n == 0 or rows == 0:
        return [()] if n == 0 else []
    return [(first,) + rest for first in range(min(n, largest), 0, -1)
            for rest in _partitions(n - first, rows - 1, first)]


def _irrep_dims(local_dim: int, n_copies: int) -> list[int]:
    """dim V_lambda of each block of _schur_basis, in its order, without building it.

    The hook-content formula: the product over the cells (i, j) of lambda
    of (local_dim + j - i) / hook(i, j).
    """
    dims = []
    for shape in _partitions(n_copies, local_dim, n_copies):
        contents = hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                contents *= local_dim + j - i
                hooks *= row - j + sum(1 for below in shape[i + 1:] if below > j)
        dims.append(contents // hooks)
    return dims


@lru_cache(maxsize=4)
def _schur_basis(local_dim: int, n_copies: int) -> SchurBasis:
    """The Schur-Weyl basis of n_copies sites of dimension local_dim.

    A digit-a site has weight e_a. E_a moves one digit a + 1 to a, F_a one
    digit a to a + 1, each summed over the sites, as index arithmetic on the
    type classes (the indices of one weight). The highest-weight vectors of
    lambda, the kernel of every E_a on type lambda, give the copies of
    V_lambda; the F_a then fill out V_lambda one weight at a time. At each
    weight the coefficients that orthonormalise copy 0 (from its Gram
    matrix) are applied to every copy, which is what makes the blocks
    X (x) I. Blocks come in descending order of lambda, rows in ascending
    order of sum_a a k_a. Complex, so that its eigensolves are the Hermitian
    ones the search runs anyway (a real one loads more LAPACK code: 0.4 MB
    of resident memory). Cached for the last four sizes.
    """
    d, n = local_dim, n_copies
    digits, place = _digit_table(d, n)
    dim = d**n
    weights = _digit_counts(d, n)
    types: dict[tuple[int, ...], np.ndarray] = {}
    position = np.empty(dim, dtype=np.int64)
    codes = weights @ (n + 1) ** np.arange(d)
    # grouped by a stable sort, not np.unique, which imports numpy.ma (30 ms)
    order = np.argsort(codes, kind="stable")
    for ids in np.split(order, np.flatnonzero(np.diff(codes[order])) + 1):
        types[tuple(weights[ids[0]].tolist())] = ids
        position[ids] = np.arange(ids.size)

    def shift(vecs, k, a, b):
        """Sum over the sites of |b><a| on vectors (rows over type k) and the new type."""
        src = types[k]
        moved = list(k)
        moved[a] -= 1
        moved[b] += 1
        moved = tuple(moved)
        out = np.zeros((types[moved].size,) + vecs.shape[1:], dtype=np.complex128)
        for site in range(n):
            hit = digits[src, site] == a
            out[position[src[hit] + (b - a) * place[site]]] += vecs[hit]
        return moved, out

    def split(vecs):
        """Null space of vecs and the coefficients that orthonormalise the rest."""
        w, v = np.linalg.eigh(vecs.conj().T @ vecs)
        keep = w > 1e-6 * max(1.0, w[-1])
        return v[:, ~keep], v[:, keep] / np.sqrt(w[keep])

    vectors = np.zeros((dim, dim), dtype=np.complex128)
    blocks, counts, col = [], [], 0
    for shape in _partitions(n, d, n):
        top = shape + (0,) * (d - len(shape))
        raised = [shift(np.eye(types[top].size), top, a + 1, a)[1]
                  for a in range(d - 1) if top[a + 1]]
        highest, _ = split(np.concatenate(raised) if raised else np.zeros((1, 1)))
        start, rows, level = col, [], {top: highest[:, None]}
        while level:
            lowered: dict[tuple[int, ...], list[np.ndarray]] = {}
            for k, vecs in level.items():
                rows += [k] * vecs.shape[1]
                size = vecs.shape[1] * vecs.shape[2]
                vectors[types[k][:, None], col + np.arange(size)] = vecs.reshape(-1, size)
                col += size
                for a in range(d - 1):
                    if k[a]:
                        moved, image = shift(vecs, k, a, a + 1)
                        lowered.setdefault(moved, []).append(image)
            # the weights one F_a further down, each orthonormalised on copy 0
            level = {}
            for k in sorted(lowered, reverse=True):
                image = np.concatenate(lowered[k], axis=1)
                _, coeffs = split(image[:, :, 0])
                if coeffs.size:
                    level[k] = (image.swapaxes(1, 2) @ coeffs).swapaxes(1, 2)
        blocks.append((len(rows), highest.shape[1], slice(start, col)))
        counts.append(rows)
    table = np.zeros((len(blocks), max(size for size, _, _ in blocks), d), dtype=np.int64)
    for b, rows in enumerate(counts):
        table[b, :len(rows)] = rows
    vectors.setflags(write=False)
    table.setflags(write=False)
    return SchurBasis(vectors, tuple(blocks), table)
