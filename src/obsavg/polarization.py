"""Recovering an operator on n copies from product-state data.

Two reconstruction routes, both driven by a black-box oracle so they can
double as consistency checks of any expectation implementation:

* reconstruct_from_diagonal needs only diagonal product values
  <w|X|w> with w = psi_1 ox ... ox psi_n (an n-fold complex polarization
  over the four fourth roots of unity per site), and recovers any X.
* reconstruct_from_moments needs only tensor-power moments Tr[X rho^ox n]
  on randomized single-copy probe states, and recovers a
  permutation-invariant X by linear inversion on the orbit basis.

The multilinear-coefficient identity connecting power moments of a rank-1
mixture to symmetrized product expectations is exposed as
coefficient_extract / symmetrized_product_sum.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError, DimensionMismatchError
from .linops import (
    DensityMatrix,
    as_matrix,
    as_state,
    check_memory_cap,
    random_density,
    tensor_power,
    trace_product,
)
from .symspace import CopySpace, orbit_sums, pair_orbit_labels

_IPOW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _contract_sites(tensor: np.ndarray, site_matrix: np.ndarray, n_copies: int) -> np.ndarray:
    """Contract each site axis in turn with site_matrix's second axis; sites keep their order."""
    for _ in range(n_copies):
        tensor = np.tensordot(tensor, site_matrix, axes=([0], [1]))
    return tensor


def _check_factors(factors: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = [np.asarray(f, dtype=np.complex128).reshape(-1) for f in factors]
    if not out:
        raise DimensionMismatchError("need at least one factor vector")
    d = out[0].size
    if any(f.size != d for f in out):
        raise DimensionMismatchError("factor vectors must share one dimension")
    return out


def product_vector(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product psi_1 ox ... ox psi_n as a flat vector."""
    vecs = _check_factors(factors)
    out = vecs[0]
    for v in vecs[1:]:
        out = np.kron(out, v)
    return out


def product_expectation(x, factors: Sequence[np.ndarray]) -> complex:
    """Diagonal product value <w|X|w> for w = psi_1 ox ... ox psi_n."""
    w = product_vector(factors)
    m = as_matrix(x)
    if m.shape[0] != w.size:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} vs product vector dim {w.size}"
        )
    return complex(w.conj() @ (m @ w))


def product_grid_expectations(x, table, n_copies: int) -> np.ndarray:
    """The (T,)**n grid of <w|X|w> over all products w = table[t_1] ox ... ox table[t_n].

    Each site of X, a (row digit, column digit) pair, is contracted with the
    (T, d^2) outer products conj(table[t, r]) * table[t, c] of the (T, d)
    table. Raises DimensionCapError when T**n > cap^2.
    """
    m = as_matrix(x)
    table = np.asarray(table, dtype=np.complex128)
    rows, d = table.shape
    n = n_copies
    if m.shape[0] != d**n:
        raise DimensionMismatchError(f"matrix dim {m.shape[0]} vs local_dim**n_copies = {d**n}")
    check_memory_cap(16 * rows**n, f"a grid of {rows}^{n} values", rows=rows, n_copies=n)
    pairs = np.arange(2 * n).reshape(2, n).T.ravel()  # axes r_1, c_1, ..., r_n, c_n
    sites = m.reshape((d,) * (2 * n)).transpose(pairs).reshape((d * d,) * n)
    outer = (table.conj()[:, :, None] * table[:, None, :]).reshape(rows, d * d)
    return _contract_sites(sites, outer, n)


def reconstruct_from_diagonal(
    oracle: Callable[[np.ndarray], np.ndarray],
    local_dim: int,
    n_copies: int,
) -> np.ndarray:
    """Rebuild the full matrix of X from diagonal product values only.

    The oracle is called once, with a (4 d^2, d) factor table whose row
    (j*d + k)*4 + p is e_j + i**p e_k, and returns the (4 d^2,)**n grid of
    <w|X|w> over every product w = table[t_1] ox ... ox table[t_n]. Per
    site, the average of i**(-p) * <w|X|w> over the phases p picks out the
    (j, k) entry, so the grid is unmixed site by site. Raises
    DimensionCapError before calling the oracle when (4 d^2)**n > cap^2.
    """
    d, n, rows = local_dim, n_copies, 4 * local_dim**2
    check_memory_cap(16 * rows**n, f"a grid of {rows}^{n} values", rows=rows, n_copies=n)
    eye = np.eye(d, dtype=np.complex128)
    table = eye[:, None, None, :] + np.array(_IPOW)[:, None] * eye[None, :, None, :]
    grid = np.asarray(oracle(table.reshape(rows, d)), dtype=np.complex128)
    if grid.shape != (rows,) * n:
        raise DimensionMismatchError(f"oracle returned shape {grid.shape}, expected {(rows,) * n}")
    # unmix[j*d + k, (j*d + k)*4 + p] = i**(-p) / 4
    unmix = np.kron(np.eye(d * d), np.conj(_IPOW) / 4)
    sites = _contract_sites(grid, unmix, n).reshape((d,) * (2 * n))
    order = np.arange(2 * n).reshape(n, 2).T.ravel()  # axes j_1 .. j_n, k_1 .. k_n
    return sites.transpose(order).reshape(d**n, d**n)


def symmetrized_product_sum(x, factors: Sequence[np.ndarray]) -> complex:
    """sum over permutations sigma of <w_sigma|X|w_sigma>, w_sigma = ox_l psi_sigma(l)."""
    vecs = _check_factors(factors)
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(len(vecs))):
        total += product_expectation(x, [vecs[s] for s in perm])
    return total


def coefficient_extract(x, vectors: Sequence[np.ndarray]) -> complex:
    """Coefficient of w_1 * ... * w_n in Tr[X (sum_j w_j |psi_j><psi_j|)^ox n].

    Tr[X (sum_j w_j P_j)^ox n] is a polynomial in the weights; the
    coefficient of w_1 * ... * w_n is a multilinear functional of the
    projectors alone, computed here by inclusion-exclusion over vector
    subsets (evaluation at indicator weights), so no weights are needed.
    It equals symmetrized_product_sum(x, vectors).
    """
    vecs = _check_factors(vectors)
    m = as_matrix(x)
    n, d = len(vecs), vecs[0].size
    if m.shape[0] != d**n:
        raise DimensionMismatchError(
            f"matrix dim {m.shape[0]} does not equal local_dim**n_vectors = {d**n}"
        )
    projectors = [np.outer(v, v.conj()) for v in vecs]
    total = 0.0 + 0.0j
    for mask in range(1, 2**n):
        chosen = [p for j, p in enumerate(projectors) if mask >> j & 1]
        sign = -1.0 if (n - len(chosen)) % 2 else 1.0
        total += sign * trace_product(m, tensor_power(sum(chosen), n))
    return total


@dataclass
class MomentReconstruction:
    """Result of the moment-based linear inversion on the orbit basis."""

    matrix: np.ndarray
    condition_number: float
    rank: int
    n_basis: int
    residual: float


def random_probe_states(local_dim: int, count: int,
                        seed: int | None = 0) -> list[DensityMatrix]:
    """Full-rank random probe states (trace-normalized Wishart draws)."""
    rng = np.random.default_rng(seed)
    return [random_density(local_dim, rng) for _ in range(count)]


def reconstruct_from_moments(
    oracle: Callable[[DensityMatrix], complex],
    local_dim: int,
    n_copies: int,
    probes: Sequence[DensityMatrix],
) -> MomentReconstruction:
    """Rebuild a permutation-invariant X from tensor-power moments.

    Solves the least-squares system design @ c = y where
    design[i, a] = Tr[B_a probe_i^ox n] over the orbit indicator basis
    B_a and y_i = oracle(probe_i) = Tr[X probe_i^ox n]. Needs at least as
    many probes as basis elements and a numerically full-rank design.

    Raises
    ------
    ConditioningError
        If there are fewer probes than basis elements or the design matrix
        is rank deficient (code PROBE_RANK).
    """
    space = CopySpace(local_dim, n_copies)
    labels = pair_orbit_labels(space)
    n_basis = int(labels.max()) + 1
    probes = list(probes)
    if len(probes) < n_basis:
        raise ConditioningError(
            f"need at least {n_basis} probe states, got {len(probes)}",
            details={"n_basis": n_basis, "n_probes": len(probes)},
        )
    design = np.empty((len(probes), n_basis), dtype=np.complex128)
    y = np.empty(len(probes), dtype=np.complex128)
    for i, probe in enumerate(probes):
        state = as_state(probe)
        # Tr[B_a joint] sums joint[j, i] over the pairs (i, j) of orbit a
        design[i] = orbit_sums(state.tensor_power(n_copies).T, space)
        y[i] = complex(oracle(state))
    coeffs, _, _, singulars = np.linalg.lstsq(design, y, rcond=None)
    rank = int(np.sum(singulars > singulars[0] * 1e-10))
    if rank < n_basis:
        raise ConditioningError(
            f"probe design matrix is rank deficient ({rank} < {n_basis}); "
            f"add or rerandomize probes",
            details={"rank": rank, "n_basis": n_basis},
        )
    condition = float(singulars[0] / singulars[-1])
    matrix = coeffs[labels]
    residual = float(np.linalg.norm(design @ coeffs - y))
    return MomentReconstruction(
        matrix=matrix,
        condition_number=condition,
        rank=rank,
        n_basis=n_basis,
        residual=residual,
    )
