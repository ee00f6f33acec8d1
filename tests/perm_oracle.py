"""Copy permutations as explicit matrices: the conjugation oracle of the tests.

Composite indices are big-endian: site 0 is the most significant base-d digit.
A permutation moves site k of the input to site sigma(k) of the output, so the
operator acts as P e_(i_0,...,i_{n-1}) = e_(j_0,...,j_{n-1}) with
j_k = i_{sigma^{-1}(k)}. Nothing here uses the library's orbit labels, so
twirl and the invariant algebra are checked against an independent route.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from obsavg.errors import DimensionMismatchError, OperatorValidationError
from obsavg.linops import DEFAULT_TOL, as_matrix
from obsavg.symspace import CopySpace


@dataclass(frozen=True)
class Permutation:
    """A permutation of range(n), stored as the image tuple mapping[x] = sigma(x)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if n < 1 or sorted(self.mapping) != list(range(n)):
            raise OperatorValidationError(
                f"mapping must be a permutation of range(n), got {self.mapping!r}"
            )

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "Permutation":
        return cls(tuple(int(v) for v in seq))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.mapping):
            inv[val] = pos
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.n != other.n:
            raise DimensionMismatchError(f"cannot compose sizes {self.n} and {other.n}")
        return Permutation(tuple(self.mapping[other.mapping[x]] for x in range(self.n)))


def transposition(i: int, j: int, n: int) -> Permutation:
    """The permutation of range(n) swapping i and j."""
    mapping = list(range(n))
    mapping[i], mapping[j] = mapping[j], mapping[i]
    return Permutation(tuple(mapping))


def all_permutations(n: int) -> Iterator[Permutation]:
    for mapping in itertools.permutations(range(n)):
        yield Permutation(mapping)


def composite_index_map(sigma: Permutation, space: CopySpace) -> np.ndarray:
    """t[i] = composite index of the permuted basis vector for input index i."""
    if sigma.n != space.n_copies:
        raise DimensionMismatchError(
            f"permutation of size {sigma.n} on {space.n_copies} copies"
        )
    d, n = space.local_dim, space.n_copies
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(d**n, dtype=np.int64)[:, None] // weights) % d
    inv = np.asarray(sigma.inverse().mapping, dtype=np.int64)
    return digits[:, inv] @ weights


def permutation_operator(sigma: Permutation, space: CopySpace) -> np.ndarray:
    """Unitary matrix routing site k of the input to site sigma(k) of the output."""
    t = composite_index_map(sigma, space)
    dim = space.total_dim
    p = np.zeros((dim, dim), dtype=np.complex128)
    p[t, np.arange(dim)] = 1.0
    return p


def is_perm_invariant(x, space: CopySpace, tol: float = DEFAULT_TOL) -> bool:
    """Whether x commutes with every permutation operator, within tol (max-norm).

    Checked on adjacent transpositions only; they generate the full group.
    """
    m = as_matrix(x)
    if m.shape[0] != space.total_dim:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} does not match total_dim {space.total_dim}"
        )
    for k in range(space.n_copies - 1):
        t = composite_index_map(transposition(k, k + 1, space.n_copies), space)
        if np.abs(m[np.ix_(t, t)] - m).max() > tol:
            return False
    return True
