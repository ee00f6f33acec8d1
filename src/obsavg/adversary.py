"""Competing unbiased estimation strategies and their error comparison.

Generates random unbiased POVMs constrained to a fixed grid of estimate
values, smears existing POVMs without introducing bias, and reports the
error gap against the collective spectral strategy. A negative gap beyond
tolerance would falsify the implementation, so the comparison doubles as
a stress test.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DimensionMismatchError, InfeasibleError, ObsavgError, PovmValidationError
from .estimators import canonical_error
from .linops import (DEFAULT_TOL, as_observable, as_state, check_memory_cap, random_density,
                     tensor_power)
from .povm import UNBIASED_TOL, Povm, moment_inequality_floor
from .symspace import CopySpace, SchurBasis, _irrep_dims, _schur_basis

# A trial's peak counts the lifted (M, D, D) stack, LIFT_MATRICES complex
# (D, D) matrices beside it (the lift, then compare's dense checks) and
# BLOCK_STACKS complex (blocks, M, R, R) stacks (the search's governing point,
# its shadow, a scratch stack and eigh's output; the random start holds three
# too). run_trials peaks at 0.84 to 0.99 of that count at d = 2 to 4
# (tracemalloc; D = 27 to 729 with M = 3 to 16, D <= 16 with M = 200 to
# 20000), beside a fixed 10 to 55 kB of numpy's temporaries that the count
# leaves out (D = 32 with M = 16 peaks at 1.03 of it)
LIFT_MATRICES = 6
BLOCK_STACKS = 4
_SMEAR_FRACTION = 0.25


@dataclass
class FeasibilityResult:
    """A converged unbiased POVM plus the solver's exit diagnostics."""

    povm: Povm
    iterations: int
    completeness_residual: float


def _least_norm_coefficients(allow: np.ndarray, values: np.ndarray):
    """(..., R, R) tables p, q, s of the affine step's least-norm correction, R rows.

    Over the outcomes allowed to touch an entry, c_m = l1 + r_m l2 with
    l1 = p gap_eye + q gap_avg and l2 = q gap_eye + s gap_avg; an entry that
    one estimate value reaches equal-splits the completeness gap.
    """
    weight = allow.astype(np.float64)
    count, sum_r, sum_r2 = ((weight.swapaxes(-1, -2) * values**k) @ weight for k in range(3))
    det = count * sum_r2 - sum_r * sum_r
    regular = (det > 1e-9 * np.maximum(1.0, sum_r2)) & (count > 0)
    p, q, s = np.divide([sum_r2, -sum_r, count], det, out=np.zeros((3,) + det.shape),
                        where=regular)
    np.divide(1.0, count, out=p, where=~regular & (count > 0))
    return p, q, s


def _allowed(obs, values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """(..., M, R) forced supports: may outcome m touch the row with copy average theta?

    An outcome below the top grid value must vanish on the top eigenspace
    of the copy average, and symmetrically at the bottom.
    """
    scale = max(1.0, abs(obs.lambda_min), abs(obs.lambda_max))
    vtol = max(1e-12 * scale, 1e-10)
    top, bottom = values.max() - vtol, values.min() + vtol
    theta = theta[..., None, :]
    return ~(((values < top)[:, None] & (theta >= top))
             | ((values > bottom)[:, None] & (theta <= bottom)))


def _douglas_rachford(f, values, masks, target_eye, target_avg, p, q, s):
    """Douglas-Rachford on the element stack f, shape (..., M, R, R), in place.

    A governing point x starts at f, and f is kept at its shadow P_C(x): the
    Hermitian part of x with its eigenvalues clipped at zero, forced zeros
    kept. Each step reflects x through the cone, r = 2f - x, and moves x by
    P_A(r) - f, which puts it at f plus the least-norm correction that takes
    r onto the affine set. Before each step it yields the completeness and
    first-moment gaps of f, target - current, and a scratch stack the
    caller may overwrite.
    """
    def gaps(g):
        moment = values @ g.reshape(g.shape[:-2] + (-1,))
        return target_eye - g.sum(axis=-3), target_avg - moment.reshape(target_avg.shape)

    x = f.copy()
    step = np.empty_like(f)
    while True:
        # cone projection f = P_C(x); step's buffer takes the conjugate transposes
        np.conjugate(x.swapaxes(-1, -2), out=f)
        f += x
        f *= 0.5
        w, v = np.linalg.eigh(f)
        np.conjugate(v.swapaxes(-1, -2), out=step)
        v *= np.clip(w, 0.0, None)[..., None, :]
        np.matmul(v, step, out=f)
        f *= masks
        del w, v  # eigh's next output would otherwise meet this one
        gap_eye, gap_avg = gaps(f)
        yield gap_eye, gap_avg, step
        # r = 2f - x has gaps 2 gap(f) - gap(x), as the gaps are affine; x
        # becomes f plus r's least-norm correction l1 + r_m l2
        x_eye, x_avg = gaps(x)
        gap_eye = 2.0 * gap_eye - x_eye
        gap_avg = 2.0 * gap_avg - x_avg
        np.multiply(values[:, None, None], (q * gap_eye + s * gap_avg)[..., None, :, :],
                    out=x)
        x += (p * gap_eye + q * gap_avg)[..., None, :, :]
        x *= masks
        x += f


def _no_convergence(tol: float, max_iterations: int, residual: float) -> InfeasibleError:
    return InfeasibleError(
        f"no convergence to {tol:.1e} within {max_iterations} iterations "
        f"(residual {residual:.3e})",
        details={"reason": "no_convergence", "residual": residual,
                 "iterations": max_iterations},
    )


def _start_stack(start, n_out: int, dim: int) -> np.ndarray:
    f = np.asarray(start, dtype=np.complex128)
    if f.shape != (n_out, dim, dim):
        raise ObsavgError(
            f"start must have shape ({n_out}, {dim}, {dim}), got {f.shape}",
            code="BAD_GRID",
        )
    return f


def _coupled_basis(obs, n: int) -> np.ndarray:
    """U^(x)n times the Schur basis: the Schur basis of the observable's eigenvectors.

    U^(x)n is the product basis of estimators._product_basis, first factor
    most significant, so digit a is the eigenvector of the a-th smallest
    eigenvalue.
    """
    return tensor_power(obs.eigenvectors, n) @ _schur_basis(obs.dim, n).vectors


def _lift_blocks(f: np.ndarray, coupled: np.ndarray, schur: SchurBasis) -> np.ndarray:
    """The (M, D, D) elements sum_b coupled (X_b (x) I) coupled^dagger of a block stack."""
    n_out, dim = f.shape[1], coupled.shape[0]
    elements = np.empty((n_out, dim, dim), dtype=np.complex128)
    # coupled (X_b (x) I) into the columns of block b (splitting the contiguous
    # last axis keeps elements' view), then times coupled^dagger
    for b, (size, mult, cols) in enumerate(schur.blocks):
        shape = (dim, size, mult)
        np.matmul(f[b, :, :size, :size].swapaxes(-1, -2)[:, None],
                  coupled[:, cols].reshape(shape),
                  out=elements[:, :, cols].reshape((n_out,) + shape))
    # in chunks of outcomes, so the product's temporary is one (D, D) matrix
    # or at most 4096 entries
    adjoint = coupled.conj().T
    chunk = max(1, 4096 // (dim * dim))
    for lo in range(0, n_out, chunk):
        elements[lo:lo + chunk] = elements[lo:lo + chunk] @ adjoint
    return elements


def _block_part(elements: np.ndarray, coupled: np.ndarray, schur: SchurBasis) -> np.ndarray:
    """The (blocks, M, R, R) block stack of the twirl of a (M, D, D) stack.

    Block b of the twirl is the mean over the copies of the diagonal
    (copy, copy) blocks of coupled^dagger F coupled.
    """
    n_out, dim, _ = elements.shape
    rows = schur.counts.shape[1]
    f = np.zeros((len(schur.blocks), n_out, rows, rows), dtype=np.complex128)
    for m in range(n_out):
        image = elements[m] @ coupled
        for b, (size, mult, cols) in enumerate(schur.blocks):
            f[b, m, :size, :size] = np.einsum(
                "akv,alv->kl", coupled[:, cols].reshape(dim, size, mult).conj(),
                image[:, cols].reshape(dim, size, mult)) / mult
    return f


def project_unbiased_povm(a, space: CopySpace, value_grid,
                          *, start: np.ndarray | None = None,
                          rng: np.random.Generator | None = None,
                          max_iterations: int = 5000,
                          convergence_tol: float = 1e-9) -> FeasibilityResult:
    """Find a valid POVM with the given estimate values that is unbiased for a.

    Douglas-Rachford splitting between the affine set (completeness plus
    the first-moment constraint) and the PSD cone, in a basis where the
    copy-averaged observable is diagonal; the returned POVM is the shadow,
    the cone projection of the governing point. The affine projection
    solves a 2x2 least-norm system per matrix entry over the outcomes
    allowed to touch it. The forced supports are eliminated first: an
    outcome announcing less than the top grid value must annihilate the top
    eigenspace of the average (symmetrically at the bottom), so the reduced
    affine set meets the interior of the cone. At such a Slater point
    Douglas-Rachford reaches the intersection in finitely many steps
    (Bauschke, Dao, Noll & Phan, J. Global Optim. 2016), in tens of
    iterations on an 8-point grid. Each step acts on the whole stack at
    once, with one stacked eigh.

    The search runs on the permutation-invariant POVMs, which lose
    nothing: rho^(x)n and the copy average commute with every copy
    permutation, so twirling a POVM keeps it valid and unbiased and keeps
    its outcome law on every rho^(x)n. By Schur-Weyl duality these POVMs
    are sum_lambda F_(m,lambda) (x) I over the partitions lambda of n with
    at most d rows, for every local dimension d. The stack holds one block
    per lambda (dim V_lambda rows), padded to the largest block's R rows and
    masked to zero outside it; rotated onto the observable's eigenbasis, the
    copy average is k.lambda / n on every row of weight k, so it is diagonal
    in every block. A block gap bounds every entry of the lifted gap by its
    spectral norm, so convergence is judged on the Frobenius norm of the
    block gaps. The POVM is then lifted to D x D once and its completeness
    judged again, within convergence_tol and within Povm.validate's
    tolerance, so a looser convergence_tol never returns a POVM that
    compare refuses.

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
        Initial elements, shape (M, D, D), in the computational basis; only
        their twirl is used. Random PSD blocks are drawn from rng when
        omitted.
    rng : numpy Generator, optional
        Source for the random start; defaults to a fresh seeded generator.
    max_iterations : int
        Douglas-Rachford steps before InfeasibleError; an integer >= 1.
    convergence_tol : float
        Frobenius norm of the block gaps that counts as converged; > 0.

    Raises
    ------
    ObsavgError
        With code BAD_GRID, if value_grid is empty, not finite or outside
        the spectral range, if max_iterations is not an integer >= 1, if
        convergence_tol is not > 0, or if start has the wrong shape.
    InfeasibleError
        If the grid cannot support an unbiased POVM, or the iteration does
        not reach convergence_tol within max_iterations.
    DimensionMismatchError
        If the observable's dimension is not space.local_dim.
    DimensionCapError
        Before anything of size D is allocated, if the lifted stack,
        LIFT_MATRICES complex (D, D) matrices and BLOCK_STACKS block stacks
        exceed check_memory_cap's bound.
    """
    obs = as_observable(a)
    values = np.asarray(value_grid, dtype=np.float64).reshape(-1)
    if values.size < 1:
        raise ObsavgError("value grid must be nonempty", code="BAD_GRID")
    if not np.isfinite(values).all():
        raise ObsavgError("value grid must be finite", code="BAD_GRID")
    if not isinstance(max_iterations, numbers.Integral) or max_iterations < 1:
        raise ObsavgError("max_iterations must be an integer >= 1", code="BAD_GRID")
    if not convergence_tol > 0:
        raise ObsavgError("convergence_tol must be > 0", code="BAD_GRID")
    lo, hi = obs.lambda_min, obs.lambda_max
    range_tol = 1e-9 * max(1.0, abs(lo), abs(hi))
    span = {"grid_min": float(values.min()), "grid_max": float(values.max())}
    if span["grid_min"] < lo - range_tol or span["grid_max"] > hi + range_tol:
        raise ObsavgError(
            f"grid values must stay within the spectral range [{lo:.6g}, {hi:.6g}]",
            code="BAD_GRID", details=span)
    if span["grid_max"] < hi - range_tol or span["grid_min"] > lo + range_tol:
        raise InfeasibleError(
            "grid does not cover the spectral endpoints, so no unbiased POVM on it exists",
            details={"reason": "grid_coverage", **span, "lambda_min": lo, "lambda_max": hi})
    d, n, dim, n_out = space.local_dim, space.n_copies, space.total_dim, values.size
    if obs.dim != d:
        raise DimensionMismatchError(f"observable dim {obs.dim} does not match local_dim {d}")
    sizes = _irrep_dims(d, n)
    stack = n_out * len(sizes) * max(sizes) ** 2
    check_memory_cap(16 * (dim * dim * (n_out + LIFT_MATRICES) + BLOCK_STACKS * stack),
                     f"adversary search over {n_out} elements of dim {dim}",
                     outcomes=n_out, dim=dim)
    schur = _schur_basis(d, n)
    theta = schur.counts @ obs.eigenvalues / n
    inside = schur.counts.any(axis=-1)
    allow = _allowed(obs, values, theta) & inside[:, None, :]
    p, q, s = _least_norm_coefficients(allow, values)
    masks = allow[..., :, None] & allow[..., None, :]
    target_eye = inside[:, :, None] * np.eye(theta.shape[1])

    coupled = None
    if start is not None:
        coupled = _coupled_basis(obs, n)
        f = _block_part(_start_stack(start, n_out, dim), coupled, schur)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        shape = masks.shape
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f = f @ f.conj().swapaxes(-1, -2)
        f /= shape[-1]
    f *= masks

    lift_tol = min(convergence_tol, DEFAULT_TOL)
    threshold = convergence_tol
    steps = _douglas_rachford(f, values, masks, target_eye, target_eye * theta[:, None, :],
                              p, q, s)
    for iteration, (gap_eye, gap_avg, _) in enumerate(steps):
        residual = math.sqrt(max(np.vdot(gap_eye, gap_eye).real,
                                 np.vdot(gap_avg, gap_avg).real))
        if residual <= threshold:
            if coupled is None:
                coupled = _coupled_basis(obs, n)
            elements = _lift_blocks(f, coupled, schur)
            res_eye = float(np.abs(elements.sum(axis=0) - np.eye(dim)).max())
            if res_eye <= lift_tol:
                elements.setflags(write=False)
                return FeasibilityResult(Povm(values, elements, space), iteration, res_eye)
            # rounding in the lift: lift again once the blocks are twice as close
            del elements
            threshold = residual / 2
        if iteration >= max_iterations:
            raise _no_convergence(convergence_tol, max_iterations, residual)
    raise AssertionError("unreachable")


def smear_povm(base: Povm, deltas=None, *, seed: int | None = None,
               value_range: tuple[float, float] | None = None) -> Povm:
    """Split every outcome into a +/- delta pair at half weight.

    Keeps the first moment (hence unbiasedness) exactly and raises the
    squared estimation error by sum_n p_n delta_n**2 on every state.
    Deltas are drawn uniformly from the seeded generator when not given,
    scaled by _SMEAR_FRACTION of the value span and clipped to the headroom
    of value_range when one is provided.
    """
    values = base.values
    if deltas is None:
        rng = np.random.default_rng(seed)
        span = float(values.max() - values.min()) or 1.0
        deltas = rng.uniform(0.0, _SMEAR_FRACTION * span, size=values.size)
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
        return asdict(self)


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


def run_trials(a, space: CopySpace, value_grid, n_trials: int, *, seed: int = 0,
               max_iterations: int = 5000,
               convergence_tol: float = 1e-9) -> tuple[list[dict], dict]:
    """Batch of independent adversary draws, each compared on a fresh state.

    Trial t uses seed seed + t for both the POVM search and the probe
    state; value_grid, max_iterations and convergence_tol go to
    project_unbiased_povm as they are. Returns per-trial rows plus a
    summary; trials that fail to converge are recorded with empty metrics
    rather than aborting the batch (an invalid or infeasible grid still
    raises immediately).
    """
    if n_trials < 1:
        raise ObsavgError("n_trials must be >= 1", code="BAD_GRID")
    obs = as_observable(a)
    rows: list[dict] = []
    for trial in range(n_trials):
        rng = np.random.default_rng(seed + trial)
        row: dict = {"trial": trial, "seed": seed + trial}
        try:
            result = project_unbiased_povm(obs, space, value_grid, rng=rng,
                                           max_iterations=max_iterations,
                                           convergence_tol=convergence_tol)
        except InfeasibleError as err:
            if err.details.get("reason") != "no_convergence":
                raise
            row.update(converged=False, iterations=max_iterations)
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
        "grid_size": np.size(value_grid),
        "min_gap": min(done["gap"], default=None),
        "max_gap": max(done["gap"], default=None),
        "mean_gap": float(np.mean(done["gap"])) if done["gap"] else None,
        "max_unbiasedness_residual": max(done["unbiasedness_residual"], default=None),
        "max_completeness_residual": max(done["completeness_residual"], default=None),
        "min_moment_floor": min(done["moment_floor"], default=None),
    }
    return rows, summary
