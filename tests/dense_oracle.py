"""Independent routes the library's fast paths are checked against.

The adversary search on the whole (M, D, D) stack: the library searches the
Schur-Weyl blocks of the permutation-invariant POVMs. This runs the same
Douglas-Rachford step on every D x D element in the product eigenbasis
U^(x)n, with no symmetry assumed, so the block route is checked against an
independent route. Its cost is M D^3 per iteration, and it has no memory
guard: keep D small.

The repeated route one copy at a time: the library convolves by binary
powers of the single-copy law; this merges one more copy n - 1 times.
"""
from __future__ import annotations

import numpy as np

from obsavg.adversary import (
    FeasibilityResult,
    _allowed,
    _douglas_rachford,
    _least_norm_coefficients,
    _no_convergence,
)
from obsavg.estimators import (
    _merge_weighted,
    _product_basis,
    default_merge_tol,
    single_copy_distribution,
)
from obsavg.linops import as_observable
from obsavg.povm import OutcomeDistribution, Povm
from obsavg.symspace import CopySpace


def search_product_basis(obs, space: CopySpace, values: np.ndarray, start, rng,
                         max_iterations: int, convergence_tol: float) -> FeasibilityResult:
    """The search on the whole (M, D, D) stack in the product basis U^(x)n."""
    dim, n_out = space.total_dim, values.size
    basis_q, counts = _product_basis(obs, space)
    theta = counts @ obs.eigenvalues / space.n_copies
    allow = _allowed(obs, values, theta)
    masks = allow[:, :, None] & allow[:, None, :]
    p, q, s = _least_norm_coefficients(allow, values)
    target_eye = np.eye(dim)

    if start is not None:
        f = basis_q.conj().T @ np.asarray(start, dtype=np.complex128) @ basis_q
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        f = rng.standard_normal((n_out, dim, dim)) + 1j * rng.standard_normal((n_out, dim, dim))
        f = f @ f.conj().swapaxes(1, 2)
        f /= dim
    f *= masks

    steps = _douglas_rachford(f, values, masks, target_eye, np.diag(theta), p, q, s)
    for iteration, (gap_eye, gap_avg, scratch) in enumerate(steps):
        res_eye = float(np.abs(gap_eye).max())
        res_avg = float(np.abs(gap_avg).max())
        if max(res_eye, res_avg) <= convergence_tol:
            # completeness is judged again in the computational basis, where
            # Povm.validate checks it: the rotation back can raise the residual
            elements = np.matmul(basis_q, f, out=scratch) @ basis_q.conj().T
            res_eye = float(np.abs(elements.sum(axis=0) - target_eye).max())
            if res_eye <= convergence_tol:
                elements.setflags(write=False)
                return FeasibilityResult(Povm(values, elements, space), iteration, res_eye)
            del elements  # one stack fewer while the iteration goes on
        if iteration >= max_iterations:
            raise _no_convergence(convergence_tol, max_iterations, max(res_eye, res_avg))
    raise AssertionError("unreachable")


def sequential_repeated_distribution(a, rho, n_copies: int,
                                     merge_tol: float | None = None) -> OutcomeDistribution:
    """The law of the average of n single-copy outcomes, one copy merged in at a time.

    Each step adds value/n of one more copy to every support point so far and
    clusters the sums with merge_tol, as repeated_measurement_distribution does
    after every merge.
    """
    obs = as_observable(a)
    if merge_tol is None:
        merge_tol = default_merge_tol(obs.eigenvalues)
    base = single_copy_distribution(obs, rho, merge_tol=merge_tol)
    step_v = base.values / n_copies
    step_p = base.probabilities
    acc_v, acc_p = step_v.copy(), step_p.copy()
    for _ in range(n_copies - 1):
        sums = (acc_v[:, None] + step_v[None, :]).ravel()
        weights = (acc_p[:, None] * step_p[None, :]).ravel()
        acc_v, acc_p = _merge_weighted(sums, weights, merge_tol)
    return OutcomeDistribution(acc_v, acc_p)
