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
from .estimators import _product_basis, canonical_error
from .linops import as_observable, as_state, check_memory_cap, random_density
from .povm import UNBIASED_TOL, Povm, moment_inequality_floor
from .symspace import CopySpace

# bytes per (M, D, D) and per (D, D) entry at project_unbiased_povm's peak:
# three complex stacks (iterate, scratch, eigh's output) and the bool masks;
# (D, D) tables and temporaries measured 6 to 10.4 complex matrices
# (tracemalloc, d = 2 and 3, D = 64 to 256, M = 2 to 16)
STACK_BYTES = 3 * 16 + 1
TABLE_BYTES = 12 * 16


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


def _least_norm_coefficients(allow: np.ndarray, values: np.ndarray):
    """(D, D) tables p, q, s of the affine step's least-norm correction.

    Over the outcomes allowed to touch an entry, c_m = l1 + r_m l2 with
    l1 = p gap_eye + q gap_avg and l2 = q gap_eye + s gap_avg; an entry that
    one estimate value reaches equal-splits the completeness gap.
    """
    weight = allow.astype(np.float64)
    count, sum_r, sum_r2 = ((weight.T * values**k) @ weight for k in range(3))
    det = count * sum_r2 - sum_r * sum_r
    regular = (det > 1e-9 * np.maximum(1.0, sum_r2)) & (count > 0)
    p, q, s = np.divide([sum_r2, -sum_r, count], det, out=np.zeros((3,) + det.shape),
                        where=regular)
    np.divide(1.0, count, out=p, where=~regular & (count > 0))
    return p, q, s


def project_unbiased_povm(a, space: CopySpace, value_grid,
                          *, start: np.ndarray | None = None,
                          rng: np.random.Generator | None = None,
                          max_iterations: int = 5000,
                          convergence_tol: float = 1e-9) -> FeasibilityResult:
    """Find a valid POVM with the given estimate values that is unbiased for a.

    Alternating projections between the affine set (completeness plus the
    first-moment constraint) and the PSD cone, run in the product basis
    U^(x)n where the copy-averaged observable is diagonal (the basis
    canonical_povm uses). The affine projection solves a 2x2 least-norm
    system per matrix entry over the outcomes allowed to touch it. Plain
    alternation stalls when the solution forces PSD-boundary blocks, so the
    forced supports are eliminated first: an outcome announcing less than
    the top grid value must annihilate the top eigenspace of the average
    (symmetrically at the bottom), which restores a linear convergence rate.
    Each step acts on the whole (M, D, D) stack at once.

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
    DimensionCapError
        Before any (M, D, D) allocation, if the peak counted with STACK_BYTES
        and TABLE_BYTES exceeds check_memory_cap's bound.
    """
    obs = as_observable(a)
    values = np.asarray(value_grid, dtype=np.float64).reshape(-1)
    if values.size < 1 or not np.isfinite(values).all():
        raise ObsavgError("value grid must be nonempty and finite", code="BAD_GRID")
    lo, hi = obs.lambda_min, obs.lambda_max
    scale = max(1.0, abs(lo), abs(hi))
    range_tol = 1e-9 * scale
    if values.min() < lo - range_tol or values.max() > hi + range_tol:
        raise ObsavgError(
            f"grid values must stay within the spectral range [{lo:.6g}, {hi:.6g}]",
            code="BAD_GRID",
            details={"grid_min": float(values.min()), "grid_max": float(values.max())},
        )
    if values.max() < hi - range_tol or values.min() > lo + range_tol:
        raise InfeasibleError(
            "grid does not cover the spectral endpoints, so no unbiased POVM "
            "on it exists",
            details={
                "reason": "grid_coverage",
                "grid_min": float(values.min()),
                "grid_max": float(values.max()),
                "lambda_min": lo,
                "lambda_max": hi,
            },
        )
    dim, n_out = space.total_dim, values.size
    check_memory_cap(dim * dim * (STACK_BYTES * n_out + TABLE_BYTES),
                     f"adversary search over {n_out} elements of dim {dim}",
                     outcomes=n_out, dim=dim)
    basis_q, counts = _product_basis(obs, space)
    theta = counts @ obs.eigenvalues / space.n_copies

    # forced supports: outcomes below the top value must vanish on the top
    # eigenspace of the average, and symmetrically at the bottom
    vtol = max(1e-12 * scale, 1e-10)
    top, bottom = values.max() - vtol, values.min() + vtol
    allow = ~(((values < top)[:, None] & (theta >= top))
              | ((values > bottom)[:, None] & (theta <= bottom)))
    masks = allow[:, :, None] & allow[:, None, :]

    p, q, s = _least_norm_coefficients(allow, values)
    target_eye = np.eye(dim)
    target_avg = np.diag(theta)

    if start is not None:
        f = np.asarray(start, dtype=np.complex128)
        if f.shape != (n_out, dim, dim):
            raise ObsavgError(
                f"start must have shape ({n_out}, {dim}, {dim}), got {f.shape}",
                code="BAD_GRID",
            )
        f = basis_q.conj().T @ f @ basis_q
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        f = rng.standard_normal((n_out, dim, dim)) + 1j * rng.standard_normal((n_out, dim, dim))
        f = f @ f.conj().swapaxes(1, 2)
        f /= dim
    f *= masks
    step = np.empty_like(f)

    for iteration in range(max_iterations + 1):
        gap_eye = target_eye - f.sum(axis=0)
        gap_avg = target_avg - np.tensordot(values, f, axes=1)
        res_eye = float(np.abs(gap_eye).max())
        res_avg = float(np.abs(gap_avg).max())
        if max(res_eye, res_avg) <= convergence_tol:
            # completeness is judged again in the computational basis, where
            # Povm.validate checks it: the rotation back can raise the residual
            elements = np.matmul(basis_q, f, out=step) @ basis_q.conj().T
            res_eye = float(np.abs(elements.sum(axis=0) - target_eye).max())
            if res_eye <= convergence_tol:
                elements.setflags(write=False)
                return FeasibilityResult(
                    povm=Povm(values, elements, space),
                    iterations=iteration,
                    completeness_residual=res_eye,
                )
            del elements  # one stack fewer while the iteration goes on
        residual = max(res_eye, res_avg)
        if iteration == max_iterations:
            raise InfeasibleError(
                f"no convergence to {convergence_tol:.1e} within "
                f"{max_iterations} iterations (residual {residual:.3e})",
                details={
                    "reason": "no_convergence",
                    "residual": residual,
                    "iterations": max_iterations,
                },
            )
        # affine projection: the least-norm correction l1 + r_m l2
        np.multiply(values[:, None, None], q * gap_eye + s * gap_avg, out=step)
        step += p * gap_eye + q * gap_avg
        step *= masks
        f += step
        # cone projection of the Hermitian part: clip eigenvalues, keep
        # forced zeros; step's buffer takes the conjugate transposes
        np.conjugate(f.swapaxes(1, 2), out=step)
        f += step
        f *= 0.5
        w, v = np.linalg.eigh(f)
        np.conjugate(v.swapaxes(1, 2), out=step)
        v *= np.clip(w, 0.0, None)[:, None, :]
        np.matmul(v, step, out=f)
        f *= masks
        del w, v  # eigh's next output would otherwise meet this one
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


_TRIAL_METRICS = ("n_outcomes", "adversary_error", "canonical_error", "gap",
                  "unbiasedness_residual", "completeness_residual", "moment_floor")


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
            row.update(converged=False, iterations=config.max_iterations)
            row.update(dict.fromkeys(_TRIAL_METRICS))
            rows.append(row)
            continue
        rho = random_density(space.local_dim, rng)
        report = compare(result.povm, obs, rho)
        metrics = report.to_dict() | {"completeness_residual": result.completeness_residual}
        row.update(converged=True, iterations=result.iterations)
        row.update({key: metrics[key] for key in _TRIAL_METRICS})
        rows.append(row)
    done = {key: [row[key] for row in rows if row["converged"]] for key in _TRIAL_METRICS}
    summary = {
        "trials": n_trials,
        "converged": len(done["gap"]),
        "grid_size": len(config.value_grid),
        "min_gap": min(done["gap"], default=None),
        "max_gap": max(done["gap"], default=None),
        "mean_gap": float(np.mean(done["gap"])) if done["gap"] else None,
        "max_unbiasedness_residual": max(done["unbiasedness_residual"], default=None),
        "max_completeness_residual": max(done["completeness_residual"], default=None),
        "min_moment_floor": min(done["moment_floor"], default=None),
    }
    return rows, summary
