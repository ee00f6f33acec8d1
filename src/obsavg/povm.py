"""POVMs on copy spaces: validation, outcome statistics, estimation error.

A Povm pairs each measurement outcome with a real estimate value r_m and a
PSD element E_m; the elements sum to the identity. Probabilities follow the
trace rule p_m = Tr[E_m rho].
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, PovmValidationError, StateValidationError
from .linops import (
    DEFAULT_TOL,
    as_matrix,
    as_state,
    expect,
    hermitian_defect,
)
from .symspace import CopySpace, copy_average

# probabilities this far below zero are rounding noise and get clamped
NEG_PROB_TOL = 1e-12
UNBIASED_TOL = 1e-8


@dataclass
class OutcomeDistribution:
    """A finite real-valued distribution: outcome values with probabilities."""

    values: np.ndarray
    probabilities: np.ndarray
    sum_tol: float = 1e-10

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).reshape(-1)
        p = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if v.shape != p.shape:
            raise DimensionMismatchError(
                f"{v.size} values vs {p.size} probabilities"
            )
        if not (np.isfinite(v).all() and np.isfinite(p).all()):
            raise StateValidationError("distribution has non-finite entries")
        if p.min(initial=0.0) < -NEG_PROB_TOL:
            raise StateValidationError(
                f"probability {p.min():.3e} below -{NEG_PROB_TOL:.0e}",
                details={"min_probability": float(p.min())},
            )
        p = np.clip(p, 0.0, None)
        total = float(p.sum())
        if abs(total - 1.0) > self.sum_tol:
            raise StateValidationError(
                f"probabilities sum to {total!r}, off by more than {self.sum_tol:.1e}",
                details={"sum": total},
            )
        self.values = v
        self.probabilities = p

    def __len__(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.probabilities @ self.values)

    def variance(self) -> float:
        mu = self.mean()
        return float(self.probabilities @ (self.values - mu) ** 2)

    def rms_about(self, center: float) -> float:
        """Root mean square deviation of the outcome value from center."""
        return float(np.sqrt(self.probabilities @ (self.values - center) ** 2))

    def sample(self, shots: int, seed: int | None = None) -> np.ndarray:
        """Multinomial counts of shots draws; deterministic for a fixed seed."""
        p = self.probabilities / self.probabilities.sum()
        return np.random.default_rng(seed).multinomial(shots, p).astype(np.int64)

    def sorted_by_value(self) -> "OutcomeDistribution":
        order = np.argsort(self.values, kind="stable")
        return OutcomeDistribution(
            self.values[order], self.probabilities[order], sum_tol=self.sum_tol
        )


@dataclass
class PovmValidation:
    """Validation report: residuals plus pass flags at the tolerances used."""

    hermiticity_defect: float
    min_eigenvalue: float
    completeness_residual: float
    psd_tol: float
    completeness_tol: float

    @property
    def psd_ok(self) -> bool:
        return (
            self.hermiticity_defect <= self.psd_tol
            and self.min_eigenvalue >= -self.psd_tol
        )

    @property
    def completeness_ok(self) -> bool:
        return self.completeness_residual <= self.completeness_tol

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.completeness_ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "psd_ok": self.psd_ok,
            "completeness_ok": self.completeness_ok,
            "hermiticity_defect": self.hermiticity_defect,
            "min_eigenvalue": self.min_eigenvalue,
            "completeness_residual": self.completeness_residual,
            "psd_tol": self.psd_tol,
            "completeness_tol": self.completeness_tol,
        }


class Povm:
    """Outcome values paired with POVM elements on a (possibly composite) space.

    Parameters
    ----------
    values : array_like, shape (M,)
        Real estimate announced for each outcome.
    elements : array_like, shape (M, D, D)
        The POVM elements. Not validated here; call validate() or
        require_valid() to check positivity and completeness. They are
        copied, unless already a read-only C-ordered complex128 array that
        owns its data, which is kept as is.
    space : CopySpace, optional
        Copy-space metadata (local_dim, n_copies). Needed for the operations
        that compare against a single-copy observable or state.
    """

    def __init__(self, values, elements, space: CopySpace | None = None):
        vals = np.asarray(values, dtype=np.float64).reshape(-1)
        elems = np.asarray(elements, dtype=np.complex128)
        if elems.ndim != 3 or elems.shape[1] != elems.shape[2]:
            raise DimensionMismatchError(
                f"elements must have shape (M, D, D), got {elems.shape}"
            )
        if vals.size != elems.shape[0]:
            raise DimensionMismatchError(
                f"{vals.size} values vs {elems.shape[0]} elements"
            )
        if vals.size < 1:
            raise DimensionMismatchError("a POVM needs at least one outcome")
        if not (np.isfinite(vals).all() and np.isfinite(elems).all()):
            raise PovmValidationError("POVM has non-finite entries")
        if space is not None and space.total_dim != elems.shape[1]:
            raise DimensionMismatchError(
                f"element dim {elems.shape[1]} does not match total_dim {space.total_dim}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        # no second copy of a frozen stack: canonical_povm's may be as large
        # as a cap-sized matrix
        frozen = (elems.base is None and elems.flags.c_contiguous
                  and not elems.flags.writeable)
        if not frozen:
            elems = np.array(elems, dtype=np.complex128, order="C", copy=True)
            elems.setflags(write=False)
        self.values = vals
        self.elements = elems
        self.space = space

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    def validate(self, psd_tol: float = DEFAULT_TOL,
                 completeness_tol: float = DEFAULT_TOL) -> PovmValidation:
        """Check hermiticity and positivity of every element plus completeness."""
        defect = max(hermitian_defect(e) for e in self.elements)
        lowest = np.min(
            [np.linalg.eigvalsh((e + e.conj().T) / 2.0)[0] for e in self.elements]
        )
        residual = float(
            np.abs(self.elements.sum(axis=0) - np.eye(self.dim)).max()
        )
        return PovmValidation(
            hermiticity_defect=float(defect),
            min_eigenvalue=float(lowest),
            completeness_residual=residual,
            psd_tol=psd_tol,
            completeness_tol=completeness_tol,
        )

    def require_valid(self, psd_tol: float = DEFAULT_TOL,
                      completeness_tol: float = DEFAULT_TOL) -> PovmValidation:
        """validate(), raising with a stable code on the first failed check."""
        report = self.validate(psd_tol, completeness_tol)
        if not report.psd_ok:
            raise PovmValidationError(
                f"POVM element fails positivity (min eigenvalue "
                f"{report.min_eigenvalue:.3e}, hermiticity defect "
                f"{report.hermiticity_defect:.3e})",
                code="POVM_POSITIVITY",
                details=report.to_dict(),
            )
        if not report.completeness_ok:
            raise PovmValidationError(
                f"POVM elements do not sum to identity (residual "
                f"{report.completeness_residual:.3e})",
                code="POVM_COMPLETENESS",
                details=report.to_dict(),
            )
        return report

    def _joint_state(self, state) -> np.ndarray:
        """Coerce a single-copy or joint state to a joint density matrix."""
        rho = as_state(state)
        if rho.dim == self.dim:
            return rho.matrix
        if self.space is not None and rho.dim == self.space.local_dim:
            return rho.tensor_power(self.space.n_copies)
        raise DimensionMismatchError(
            f"state dim {rho.dim} matches neither the POVM dim {self.dim} "
            f"nor its local dim"
        )

    def probabilities(self, state) -> OutcomeDistribution:
        """Outcome distribution on a state (single-copy states are tensored up)."""
        joint = self._joint_state(state)
        p = np.einsum("mij,ji->m", self.elements, joint).real
        sum_tol = max(1e-10, self.dim * 1e-9)
        return OutcomeDistribution(self.values.copy(), p, sum_tol=sum_tol)

    def first_moment(self) -> np.ndarray:
        """sum_m r_m E_m, the operator whose expectation is the estimate mean."""
        return np.einsum("m,mij->ij", self.values, self.elements)

    def second_moment(self) -> np.ndarray:
        """sum_m r_m^2 E_m."""
        return np.einsum("m,mij->ij", self.values**2, self.elements)

    def _require_space(self) -> CopySpace:
        if self.space is None:
            raise DimensionMismatchError(
                "this operation needs copy-space metadata; construct the Povm "
                "with a CopySpace"
            )
        return self.space

    def unbiasedness_residual(self, observable) -> float:
        """Max-norm distance between the first moment and the copy average."""
        space = self._require_space()
        a = as_matrix(observable)
        target = copy_average(a, space)
        return float(np.abs(self.first_moment() - target).max())

    def is_unbiased(self, observable, tol: float = UNBIASED_TOL) -> bool:
        return self.unbiasedness_residual(observable) <= tol

    def estimation_error(self, observable, state) -> float:
        """Root mean square deviation of the estimate from the true mean.

        The state may be a single copy (dim d) or a joint state (dim D);
        the true mean is the single-copy expectation of the observable,
        evaluated through the copy average in the joint case.
        """
        space = self._require_space()
        a = as_matrix(observable)
        rho = as_state(state)
        if rho.dim == space.local_dim:
            center = expect(a, rho.matrix)
        elif rho.dim == self.dim:
            center = expect(copy_average(a, space), rho.matrix)
        else:
            raise DimensionMismatchError(
                f"state dim {rho.dim} matches neither local dim "
                f"{space.local_dim} nor total dim {self.dim}"
            )
        return self.probabilities(rho).rms_about(center)

    def sample(self, state, shots: int, seed: int | None = None) -> np.ndarray:
        """Multinomial outcome counts; deterministic for a fixed seed."""
        if shots < 0:
            raise ValueError(f"shots must be >= 0, got {shots}")
        if shots == 0:
            return np.zeros(self.n_outcomes, dtype=np.int64)
        return self.probabilities(state).sample(shots, seed)


def moment_inequality_floor(p: Povm) -> float:
    """Smallest eigenvalue of (second moment - first moment squared).

    Nonnegative (within rounding) for any valid POVM; a clearly negative
    value flags an invalid POVM or a broken moment computation.
    """
    first = p.first_moment()
    gap = p.second_moment() - first @ first
    gap = (gap + gap.conj().T) / 2.0
    return float(np.linalg.eigvalsh(gap)[0])


def random_povm(space: CopySpace, n_outcomes: int, rng: np.random.Generator,
                values: Sequence[float] | None = None) -> Povm:
    """Random POVM from Wishart factors G_m, normalized by the inverse-sqrt sum."""
    if n_outcomes < 1:
        raise ValueError(f"n_outcomes must be >= 1, got {n_outcomes}")
    dim = space.total_dim
    blocks = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(g @ g.conj().T)
    total = np.sum(blocks, axis=0)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    elems = np.stack([inv_sqrt @ b @ inv_sqrt for b in blocks])
    if values is None:
        values = np.linspace(-1.0, 1.0, n_outcomes)
    return Povm(values, elems, space)
