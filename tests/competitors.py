"""Unbiased competitors that are not permutation invariant.

Unbiased on every product state rho^(x)n fixes only the twirl of a POVM's
first moment T = sum_m r_m E_m, not T itself. Both POVMs here measure Z on
qubit copies and are unbiased for Z, yet T differs from copy_average(Z):
- Z on copy 0 of two, copy 1 ignored: T = Z (x) I;
- the weighted average sum_i w_i z_i of the Z outcomes on n copies, with
  sum_i w_i = 1: its error^2 is sum_i w_i^2 * Var(Z), above Var(Z) / n.
"""
import itertools

import numpy as np

from obsavg.povm import Povm
from obsavg.symspace import CopySpace, lift

Z = np.diag([1.0, -1.0]).astype(complex)


def z_on_copy_zero() -> Povm:
    space = CopySpace(2, 2)
    up, down = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return Povm([1.0, -1.0], [lift(up, 0, space), lift(down, 0, space)], space)


def weighted_z_average(weights) -> Povm:
    """One outcome per Z basis string z, announcing sum_i w_i z_i."""
    n = len(weights)
    # big-endian composite indices: site 0 is the slowest digit, digit 0 is z = +1
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=n)))
    elements = [np.diag(row) for row in np.eye(2**n)]
    return Povm(signs @ np.asarray(weights, dtype=float), elements, CopySpace(2, n))


# (name, POVM, sum of the squared copy weights: error^2 / Var(Z))
COMPETITORS = [
    ("z-on-copy-0", z_on_copy_zero, 1.0),
    ("weighted-0.5-0.3-0.2", lambda: weighted_z_average([0.5, 0.3, 0.2]), 0.38),
]
