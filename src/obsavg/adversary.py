"""Competing unbiased estimation strategies and their error comparison.

Generates random unbiased POVMs constrained to a fixed grid of estimate
values, smears existing POVMs without introducing bias, and reports the
error gap against the collective spectral strategy. A negative gap beyond
tolerance would falsify the implementation, so the comparison doubles as
a stress test.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError, ObsavgError, PovmValidationError
from .estimators import canonical_error
from .linops import DensityMatrix, as_observable, as_state, eigh
from .povm import UNBIASED_TOL, Povm, moment_inequality_floor
from .symspace import CopySpace, copy_average


@dataclass(frozen=True)
class AdversaryConfig:
    """Search settings: the allowed estimate values plus solver knobs."""

    value_grid: tuple[float, ...]
    max_iterations: int = 5000
    convergence_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(v) for v in self.value_grid)
        if not grid:
            raise ObsavgError("value grid must be nonempty", code="BAD_GRID")
        if not np.isfinite(grid).all():
            raise ObsavgError("value grid must be finite", code="BAD_GRID")
        object.__setattr__(self, "value_grid", grid)
        if self.max_iterations < 1:
            raise ObsavgError("max_iterations must be >= 1", code="BAD_GRID")
        if self.convergence_tol <= 0:
            raise ObsavgError("convergence_tol must be > 0", code="BAD_GRID")

    @classmethod
    def spanning_grid(cls, a, size: int = 8, **kwargs) -> "AdversaryConfig":
        """Evenly spaced grid across the observable's spectral range."""
        obs = as_observable(a)
        if size < 2:
            raise ObsavgError("grid size must be >= 2", code="BAD_GRID")
        grid = np.linspace(obs.lambda_min, obs.lambda_max, size)
        return cls(tuple(grid), **kwargs)


@dataclass
class FeasibilityResult:
    """A converged unbiased POVM plus the solver's exit diagnostics."""

    povm: Povm
    iterations: int
    completeness_residual: float
    unbiasedness_residual: float


def project_unbiased_povm(a, space: CopySpace, value_grid,
                          *, start: np.ndarray | None = None,
                          rng: np.random.Generator | None = None,
                          max_iterations: int = 5000,
                          convergence_tol: float = 1e-9) -> FeasibilityResult:
    """Find a valid POVM with the given estimate values that is unbiased for a.

    Alternating projections between the affine set (completeness plus the
    first-moment constraint) and the PSD cone, run in the eigenbasis of the
    copy-averaged observable. The affine projection solves a 2x2 least-norm
    system per matrix entry over the outcomes allowed to touch it. Plain
    alternation stalls when the solution forces PSD-boundary blocks, so the
    forced supports are eliminated first: an outcome announcing less than
    the top grid value must annihilate the top eigenspace of the average
    (symmetrically at the bottom), which restores a linear convergence rate.

    Parameters
    ----------
    a : Observable or array_like
        Single-copy observable.
    space : CopySpace
        Copy space the POVM acts on.
    value_grid : sequence of float
        Estimate value per outcome, each within the observable's spectral
        range; collectively they must cover both spectral endpoints.
    start : ndarray, optional
        Initial elements, shape (M, D, D), in the computational basis.
        Random PSD blocks are drawn from rng when omitted.
    rng : numpy Generator, optional
        Source for the random start; defaults to a fresh seeded generator.

    Raises
    ------
    InfeasibleError
        If the grid cannot support an unbiased POVM, or the iteration does
        not reach convergence_tol within max_iterations.
    """
    obs = as_observable(a)
    values = np.asarray(value_grid, dtype=np.float64).reshape(-1)
    if values.size < 1 or not np.isfinite(values).all():
        raise ObsavgError("value grid must be nonempty and finite", code="BAD_GRID")
    avg = copy_average(obs.matrix, space)
    theta_w, basis_q = eigh(avg)
    dim = space.total_dim
    n_out = values.size
    scale = max(1.0, float(np.abs(theta_w).max()))
    range_tol = 1e-9 * scale
    if values.min() < theta_w[0] - range_tol or values.max() > theta_w[-1] + range_tol:
        raise ObsavgError(
            f"grid values must stay within the spectral range "
            f"[{theta_w[0]:.6g}, {theta_w[-1]:.6g}]",
            code="BAD_GRID",
            details={"grid_min": float(values.min()), "grid_max": float(values.max())},
        )
    if values.max() < theta_w[-1] - range_tol or values.min() > theta_w[0] + range_tol:
        raise InfeasibleError(
            "grid does not cover the spectral endpoints, so no unbiased POVM "
            "on it exists",
            details={
                "reason": "grid_coverage",
                "grid_min": float(values.min()),
                "grid_max": float(values.max()),
                "lambda_min": float(theta_w[0]),
                "lambda_max": float(theta_w[-1]),
            },
        )

    # forced supports: outcomes below the top value must vanish on the top
    # eigenspace of the average, and symmetrically at the bottom
    vtol = max(1e-12 * scale, 1e-10)
    at_top = theta_w >= values.max() - vtol
    at_bottom = theta_w <= values.min() + vtol
    allow = np.ones((n_out, dim), dtype=bool)
    for m in range(n_out):
        if values[m] < values.max() - vtol:
            allow[m, at_top] = False
        if values[m] > values.min() + vtol:
            allow[m, at_bottom] = False
    masks = allow[:, :, None] & allow[:, None, :]

    # per-entry least-norm data over the outcomes allowed to touch the entry
    count = masks.sum(axis=0).astype(np.float64)
    sum_r = np.einsum("m,mij->ij", values, masks)
    sum_r2 = np.einsum("m,mij->ij", values * values, masks)
    det = count * sum_r2 - sum_r * sum_r
    degenerate = det <= 1e-9 * np.maximum(1.0, sum_r2)
    regular = ~degenerate & (count > 0)
    single_value = degenerate & (count > 0)

    target_eye = np.eye(dim)
    target_avg = np.diag(theta_w.astype(np.complex128))

    if start is not None:
        f = np.asarray(start, dtype=np.complex128)
        if f.shape != (n_out, dim, dim):
            raise ObsavgError(
                f"start must have shape ({n_out}, {dim}, {dim}), got {f.shape}",
                code="BAD_GRID",
            )
        f = np.einsum("ai,mab,bj->mij", basis_q.conj(), f, basis_q)
        f = f * masks
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        f = np.empty((n_out, dim, dim), dtype=np.complex128)
        for m in range(n_out):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            f[m] = (g @ g.conj().T / dim) * masks[m]

    for iteration in range(max_iterations + 1):
        res_eye = float(np.abs(target_eye - f.sum(axis=0)).max())
        res_avg = float(
            np.abs(target_avg - np.einsum("m,mij->ij", values, f)).max()
        )
        if max(res_eye, res_avg) <= convergence_tol:
            # completeness is judged again in the computational basis, where
            # Povm.validate checks it: the rotation back can raise the residual
            elements = np.einsum("ia,mab,jb->mij", basis_q, f, basis_q.conj())
            res_eye = float(np.abs(elements.sum(axis=0) - target_eye).max())
            if res_eye <= convergence_tol:
                povm = Povm(values, elements, space)
                return FeasibilityResult(
                    povm=povm,
                    iterations=iteration,
                    completeness_residual=res_eye,
                    unbiasedness_residual=float(
                        np.abs(povm.first_moment() - avg).max()
                    ),
                )
        if iteration == max_iterations:
            raise InfeasibleError(
                f"no convergence to {convergence_tol:.1e} within "
                f"{max_iterations} iterations (residual {max(res_eye, res_avg):.3e})",
                details={
                    "reason": "no_convergence",
                    "residual": max(res_eye, res_avg),
                    "iterations": max_iterations,
                },
            )
        # affine projection: least-norm correction c_m = l1 + r_m l2 per entry
        gap_eye = target_eye - f.sum(axis=0)
        gap_avg = target_avg - np.einsum("m,mij->ij", values, f)
        l1 = np.zeros((dim, dim), dtype=np.complex128)
        l2 = np.zeros((dim, dim), dtype=np.complex128)
        l1[regular] = (sum_r2[regular] * gap_eye[regular]
                       - sum_r[regular] * gap_avg[regular]) / det[regular]
        l2[regular] = (count[regular] * gap_avg[regular]
                       - sum_r[regular] * gap_eye[regular]) / det[regular]
        # entries reachable by a single estimate value: the two constraints
        # coincide there, equal-split the completeness gap
        l_single = np.zeros((dim, dim), dtype=np.complex128)
        l_single[single_value] = gap_eye[single_value] / count[single_value]
        f = f + (l1[None] + values[:, None, None] * l2[None] + l_single[None]) * masks
        # cone projection: clip eigenvalues per outcome, keep forced zeros
        for m in range(n_out):
            sym = (f[m] + f[m].conj().T) / 2.0
            w, v = np.linalg.eigh(sym)
            f[m] = ((v * np.clip(w, 0.0, None)) @ v.conj().T) * masks[m]
    raise AssertionError("unreachable")


def random_unbiased_povm(a, space: CopySpace, config: AdversaryConfig) -> Povm:
    """A random valid POVM on the config grid, unbiased for the observable."""
    rng = np.random.default_rng(config.seed)
    result = project_unbiased_povm(
        a,
        space,
        config.value_grid,
        rng=rng,
        max_iterations=config.max_iterations,
        convergence_tol=config.convergence_tol,
    )
    return result.povm


def smear_povm(base: Povm, deltas=None, *, seed: int | None = None,
               max_fraction: float = 0.25,
               value_range: tuple[float, float] | None = None) -> Povm:
    """Split every outcome into a +/- delta pair at half weight.

    Keeps the first moment (hence unbiasedness) exactly and raises the
    squared estimation error by sum_n p_n delta_n**2 on every state.
    Deltas are drawn uniformly from the seeded generator when not given,
    scaled by max_fraction of the value span and clipped to the headroom
    of value_range when one is provided.
    """
    values = base.values
    if deltas is None:
        rng = np.random.default_rng(seed)
        span = float(values.max() - values.min()) or 1.0
        deltas = rng.uniform(0.0, max_fraction * span, size=values.size)
        if value_range is not None:
            lo, hi = value_range
            headroom = np.minimum(values - lo, hi - values)
            deltas = np.minimum(deltas, np.clip(headroom, 0.0, None))
    else:
        deltas = np.asarray(deltas, dtype=np.float64).reshape(-1)
        if deltas.size != values.size:
            raise ObsavgError(
                f"{deltas.size} deltas for {values.size} outcomes", code="BAD_SMEAR"
            )
        if not np.isfinite(deltas).all() or deltas.min() < 0.0:
            raise ObsavgError("deltas must be finite and >= 0", code="BAD_SMEAR")
        if value_range is not None:
            lo, hi = value_range
            if (values + deltas).max() > hi + 1e-12 or (values - deltas).min() < lo - 1e-12:
                raise ObsavgError(
                    "smeared values leave the configured range", code="BAD_SMEAR"
                )
    new_values = np.empty(2 * values.size)
    new_values[0::2] = values + deltas
    new_values[1::2] = values - deltas
    halves = base.elements / 2.0
    new_elements = np.empty((2 * values.size,) + base.elements.shape[1:],
                            dtype=np.complex128)
    new_elements[0::2] = halves
    new_elements[1::2] = halves
    return Povm(new_values, new_elements, base.space)


@dataclass
class ComparisonReport:
    """Error of a competing POVM against the collective optimum, same state."""

    n_copies: int
    n_outcomes: int
    adversary_error: float
    canonical_error: float
    gap: float
    unbiasedness_residual: float
    moment_floor: float

    def to_dict(self) -> dict:
        return {
            "n_copies": self.n_copies,
            "n_outcomes": self.n_outcomes,
            "adversary_error": self.adversary_error,
            "canonical_error": self.canonical_error,
            "gap": self.gap,
            "unbiasedness_residual": self.unbiasedness_residual,
            "moment_floor": self.moment_floor,
        }


def compare(p: Povm, a, rho) -> ComparisonReport:
    """Validate p, require unbiasedness, and report its error gap on rho.

    The gap is adversary_error - canonical_error; values below -1e-8 would
    mean a competing unbiased POVM beats the collective spectral optimum,
    which falsifies the implementation rather than the bound.
    """
    obs = as_observable(a)
    p.require_valid()
    space = p.space
    if space is None:
        raise PovmValidationError(
            "compared POVM needs copy-space metadata", code="POVM_INVALID"
        )
    residual = p.unbiasedness_residual(obs)
    if residual > UNBIASED_TOL:
        raise PovmValidationError(
            f"POVM is biased for the observable (residual {residual:.3e})",
            code="POVM_BIASED",
            details={"unbiasedness_residual": residual},
        )
    if p.values.min() < obs.lambda_min - 1e-9 or p.values.max() > obs.lambda_max + 1e-9:
        warnings.warn(
            "POVM announces estimate values outside the observable's spectral "
            "range; they are compared as-is",
            UserWarning,
            stacklevel=2,
        )
    state = as_state(rho)
    adv_err = p.estimation_error(obs, state)
    can_err = canonical_error(obs, state, space.n_copies)
    return ComparisonReport(
        n_copies=space.n_copies,
        n_outcomes=p.n_outcomes,
        adversary_error=adv_err,
        canonical_error=can_err,
        gap=adv_err - can_err,
        unbiasedness_residual=residual,
        moment_floor=moment_inequality_floor(p),
    )


def run_trials(a, space: CopySpace, config: AdversaryConfig,
               n_trials: int) -> tuple[list[dict], dict]:
    """Batch of independent adversary draws, each compared on a fresh state.

    Trial t uses seed config.seed + t for both the POVM search and the
    probe state. Returns per-trial rows plus a summary; trials that fail
    to converge are recorded with empty metrics rather than aborting the
    batch (an infeasible grid still raises immediately).
    """
    if n_trials < 1:
        raise ObsavgError("n_trials must be >= 1", code="BAD_GRID")
    obs = as_observable(a)
    rows: list[dict] = []
    gaps: list[float] = []
    residuals: list[float] = []
    completeness: list[float] = []
    floors: list[float] = []
    for trial in range(n_trials):
        seed = config.seed + trial
        rng = np.random.default_rng(seed)
        row: dict = {"trial": trial, "seed": seed}
        try:
            result = project_unbiased_povm(
                obs,
                space,
                config.value_grid,
                rng=rng,
                max_iterations=config.max_iterations,
                convergence_tol=config.convergence_tol,
            )
        except InfeasibleError as err:
            if err.details.get("reason") != "no_convergence":
                raise
            row.update(
                converged=False,
                iterations=config.max_iterations,
                n_outcomes=None,
                adversary_error=None,
                canonical_error=None,
                gap=None,
                unbiasedness_residual=None,
                completeness_residual=None,
                moment_floor=None,
            )
            rows.append(row)
            continue
        g = rng.standard_normal((space.local_dim, space.local_dim)) \
            + 1j * rng.standard_normal((space.local_dim, space.local_dim))
        w = g @ g.conj().T
        rho = DensityMatrix(w / np.trace(w).real)
        report = compare(result.povm, obs, rho)
        row.update(
            converged=True,
            iterations=result.iterations,
            n_outcomes=report.n_outcomes,
            adversary_error=report.adversary_error,
            canonical_error=report.canonical_error,
            gap=report.gap,
            unbiasedness_residual=report.unbiasedness_residual,
            completeness_residual=result.completeness_residual,
            moment_floor=report.moment_floor,
        )
        rows.append(row)
        gaps.append(report.gap)
        residuals.append(report.unbiasedness_residual)
        completeness.append(result.completeness_residual)
        floors.append(report.moment_floor)
    summary = {
        "trials": n_trials,
        "converged": len(gaps),
        "grid_size": len(config.value_grid),
        "min_gap": min(gaps) if gaps else None,
        "max_gap": max(gaps) if gaps else None,
        "mean_gap": float(np.mean(gaps)) if gaps else None,
        "max_unbiasedness_residual": max(residuals) if residuals else None,
        "max_completeness_residual": max(completeness) if completeness else None,
        "min_moment_floor": min(floors) if floors else None,
    }
    return rows, summary
