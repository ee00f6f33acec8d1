"""Dense Hermitian linear algebra: validated operator/state types and helpers.

Everything is plain numpy under the hood; matrices are complex128 and
treated as immutable once wrapped in Observable / DensityMatrix.
"""
from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from .errors import (
    DimensionCapError,
    DimensionMismatchError,
    NumericError,
    ObsavgError,
    OperatorValidationError,
    StateValidationError,
)

DEFAULT_TOL = 1e-9
DEFAULT_DIM_CAP = 4096
DIM_CAP_ENV = "OBSAVG_DIM_CAP"


def default_dim_cap() -> int:
    """Composite-dimension cap, overridable through OBSAVG_DIM_CAP."""
    raw = os.environ.get(DIM_CAP_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ObsavgError(
            f"{DIM_CAP_ENV} must be a positive integer, got {raw!r}",
            code="BAD_ENV",
        ) from None
    if cap < 1:
        raise ObsavgError(f"{DIM_CAP_ENV} must be >= 1, got {cap}", code="BAD_ENV")
    return cap


def memory_cap_bytes() -> int:
    """The bytes of one cap x cap complex matrix: the most one call may hold at its peak."""
    cap = default_dim_cap()
    return 16 * cap * cap


def check_memory_cap(nbytes: int, what: str, **details) -> None:
    """Raise DimensionCapError when a call's peak, nbytes, exceeds memory_cap_bytes()."""
    if nbytes > memory_cap_bytes():
        cap = default_dim_cap()
        raise DimensionCapError(
            f"{what} needs {nbytes} bytes, more than one {cap}^2 complex matrix",
            details={**details, "bytes": int(nbytes), "cap": cap},
        )


def as_matrix(x) -> np.ndarray:
    """Complex square-matrix view of an ndarray, Observable or DensityMatrix."""
    if isinstance(x, (Observable, DensityMatrix)):
        return x.matrix
    m = np.asarray(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise OperatorValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise OperatorValidationError("matrix has non-finite entries")
    return m


def hermitian_defect(m: np.ndarray) -> float:
    """Max-norm of m - m^dagger."""
    return float(np.abs(m - m.conj().T).max()) if m.size else 0.0


def tensor_power(m, n: int) -> np.ndarray:
    """n-fold Kronecker power of a square matrix."""
    if n < 1:
        raise DimensionMismatchError(f"tensor power needs n >= 1, got {n}")
    base = as_matrix(m)
    dim = base.shape[0] ** n
    check_memory_cap(16 * dim * dim, f"composite dimension {dim}", dim=int(dim))
    out = base
    for _ in range(n - 1):
        out = np.kron(out, base)
    return out


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix
    (hermiticity defect at most DEFAULT_TOL)."""
    mat = as_matrix(m)
    defect = hermitian_defect(mat)
    if defect > DEFAULT_TOL:
        raise OperatorValidationError(
            f"matrix is not Hermitian (defect {defect:.3e} > {DEFAULT_TOL:.1e})",
            details={"defect": defect},
        )
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return w, v


def trace_product(a, b) -> complex:
    """Tr[a b] without forming the product."""
    return complex(np.einsum("ij,ji->", as_matrix(a), as_matrix(b)))


def expect(h, rho) -> float:
    """Real expectation Tr[h rho]; rejects a non-negligible imaginary residue."""
    mh = as_matrix(h)
    mr = as_matrix(rho)
    if mh.shape != mr.shape:
        raise DimensionMismatchError(
            f"operator dim {mh.shape[0]} vs state dim {mr.shape[0]}"
        )
    val = np.einsum("ij,ji->", mh, mr)
    scale = max(1.0, float(np.abs(mh).max(initial=0.0)))
    if abs(val.imag) > 1e-10 * scale:
        raise NumericError(
            f"expectation has imaginary residue {val.imag:.3e}",
            details={"imag": float(val.imag)},
        )
    return float(val.real)


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


class Observable:
    """A Hermitian operator with a cached eigensystem.

    Parameters
    ----------
    matrix : array_like
        Square matrix with max-norm hermiticity defect at most DEFAULT_TOL.
    """

    def __init__(self, matrix):
        m = as_matrix(matrix)
        defect = hermitian_defect(m)
        if defect > DEFAULT_TOL:
            raise OperatorValidationError(
                f"observable is not Hermitian (defect {defect:.3e} > {DEFAULT_TOL:.1e})",
                details={"defect": defect},
            )
        # symmetrize away the sub-tolerance defect so eigh sees an exact Hermitian
        self._matrix = _freeze((m + m.conj().T) / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @cached_property
    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = eigh(self._matrix)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigensystem[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self.eigensystem[1]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def expectation(self, rho) -> float:
        return expect(self._matrix, rho)

    def variance(self, rho) -> float:
        """<(A - <A>)^2> on a single copy, clipped at zero.

        Centred before squaring: <A^2> - <A>^2 cancels to rounding of
        <A>^2, which the square root of canonical_error lifts to 1e-8 when
        A is a multiple of the identity.
        """
        shifted = self._matrix - self.expectation(rho) * np.eye(self.dim)
        return max(0.0, expect(shifted @ shifted, rho))

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, PSD within DEFAULT_TOL."""

    def __init__(self, matrix):
        m = as_matrix(matrix)
        defect = hermitian_defect(m)
        if defect > DEFAULT_TOL:
            raise StateValidationError(
                f"state is not Hermitian (defect {defect:.3e})", details={"defect": defect}
            )
        m = (m + m.conj().T) / 2.0
        tr = np.trace(m).real
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise StateValidationError(
                f"state trace {tr!r} differs from 1 beyond {DEFAULT_TOL:.1e}",
                details={"trace": float(tr)},
            )
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -DEFAULT_TOL:
            raise StateValidationError(
                f"state has negative eigenvalue {lo:.3e}", details={"min_eigenvalue": lo}
            )
        self._matrix = _freeze(m)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def tensor_power(self, n: int) -> np.ndarray:
        """Matrix of n independent copies of this state."""
        return tensor_power(self._matrix, n)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def as_observable(a) -> Observable:
    """a itself if it is an Observable, else a validated Observable of its matrix."""
    return a if isinstance(a, Observable) else Observable(as_matrix(a))


def as_state(rho) -> DensityMatrix:
    """rho itself if it is a DensityMatrix, else a validated DensityMatrix of its matrix."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(as_matrix(rho))


def pure_state(vec) -> DensityMatrix:
    """Density matrix of a (non-normalized) state vector."""
    v = np.asarray(vec, dtype=np.complex128).reshape(-1)
    nrm = np.linalg.norm(v)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise StateValidationError("state vector must be nonzero and finite")
    v = v / nrm
    return DensityMatrix(np.outer(v, v.conj()))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with iid Gaussian real/imag parts, symmetrized."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Trace-normalized full-rank Wishart state G G^dagger / Tr."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return DensityMatrix(w / np.trace(w).real)
