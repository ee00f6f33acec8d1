"""The adversary search on the whole (M, D, D) stack: the dense oracle of the tests.

The library searches the Schur-Weyl blocks of the permutation-invariant
POVMs. This runs the same Douglas-Rachford step on every D x D element in
the product eigenbasis U^(x)n, with no symmetry assumed, so the block route
is checked against an independent route. Its cost is M D^3 per
iteration, and it has no memory guard: keep D small.
"""
from __future__ import annotations

import numpy as np

from obsavg.adversary import (
    FeasibilityResult,
    _allowed,
    _douglas_rachford,
    _least_norm_coefficients,
    _no_convergence,
    _start_stack,
)
from obsavg.estimators import _product_basis
from obsavg.povm import Povm
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
        f = basis_q.conj().T @ _start_stack(start, n_out, dim) @ basis_q
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
