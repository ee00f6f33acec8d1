"""Optimal estimation of an ensemble average from n identical copies.

Two routes are implemented: the collective spectral measurement of the
copy-averaged observable (canonical POVM), and repeated single-copy
measurement followed by averaging. They induce the same outcome
distribution on tensor-power states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .linops import (
    DensityMatrix,
    Observable,
    as_observable,
    as_state,
    check_memory_cap,
    tensor_power,
)
from .povm import OutcomeDistribution, Povm
from .symspace import CopySpace, _digit_counts

MERGE_TOL_SCALE = 1e-8
# eight-byte words per type at the type route's peak, beyond two (types, d)
# tables: listing holds two tables, clustering one plus 8.1 words per type
# (measured at d = 2 and 3 with every type its own outcome)
TYPE_WORDS = 8


def default_merge_tol(values: np.ndarray) -> float:
    """Clustering tolerance 1e-8 * max(1, largest |value|)."""
    peak = float(np.abs(values).max(initial=0.0))
    return MERGE_TOL_SCALE * max(1.0, peak)


def _cluster_labels(sorted_values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage cluster index of each sorted value.

    A new cluster starts wherever the gap to the previous value exceeds tol,
    so the labels run 0, 1, ... in ascending order of value.
    """
    labels = np.zeros(sorted_values.size, dtype=np.int64)
    np.cumsum(np.diff(sorted_values) > tol, out=labels[1:])
    return labels


def _cluster_means(sorted_values: np.ndarray, weights: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """Weighted mean of each cluster's values; an all-zero cluster takes the plain mean.

    Weights are divided by their cluster's largest one first: averaging raw
    subnormal weights underflows to a mean of 0.0.
    """
    scaled = np.maximum.reduceat(weights, np.searchsorted(labels, np.arange(labels[-1] + 1)))
    scaled = scaled[labels]
    # in place from here: the inputs can be as long as the type table
    empty = scaled == 0.0
    np.divide(weights, scaled, out=scaled, where=~empty)
    scaled[empty] = 1.0
    total = np.bincount(labels, scaled)
    scaled *= sorted_values
    means = np.bincount(labels, scaled)
    means /= total
    return means


def _merge_weighted(values: np.ndarray, probs: np.ndarray,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage clustering of values; weights summed per cluster."""
    order = np.argsort(values, kind="stable")
    v, p = values[order], probs[order]
    labels = _cluster_labels(v, tol)
    return _cluster_means(v, p, labels), np.bincount(labels, p)


@dataclass(frozen=True)
class _TypeClasses:
    """Type classes of n draws from a d-point spectrum, clustered by mean value.

    A type is a count vector k (k_i draws of eigenvalue i, sum n); on the
    n-copy space it labels the product eigenvectors with k_i factors equal
    to u_i, all of which have copy-average eigenvalue k.lambda / n.
    """

    counts: np.ndarray    # (T, d) count vector of each type, as floats
    log_mult: np.ndarray  # (T,) log of the multinomial n! / prod_i k_i!
    labels: np.ndarray    # (T,) outcome of each type, outcomes in ascending value
    values: np.ndarray    # (M,) multiplicity-weighted mean of each outcome's type means


def _count_table(n: int, d: int) -> np.ndarray:
    """The (types, d) float table of count vectors of n draws, in stars-and-bars order.

    Each prefix row with r draws left branches into rows taking 0, ..., r next.
    """
    prefix = np.zeros((1, 0))
    left = np.array([n])
    for _ in range(d - 1):
        branches = left + 1
        starts = np.cumsum(branches) - branches
        taken = np.arange(branches.sum()) - np.repeat(starts, branches)
        prefix = np.column_stack([np.repeat(prefix, branches, axis=0), taken])
        left = np.repeat(left, branches) - taken
    return np.column_stack([prefix, left])


def _type_classes(eigenvalues: np.ndarray, n: int,
                  merge_tol: float | None) -> _TypeClasses:
    """The canonical outcomes of n copies, from the single-copy spectrum alone.

    Lists the C(n+d-1, d-1) types by stars and bars and clusters their means
    by single linkage at merge_tol (default: default_merge_tol of the means).
    Each outcome's value is the mean of its eigenvalues on the copy space,
    every type mean counted with its multiplicity. Raises DimensionCapError,
    before listing any type, when the route's eight-byte words,
    types * (2 d + TYPE_WORDS), exceed check_memory_cap's bound.
    """
    d = eigenvalues.size
    n_types = math.comb(n + d - 1, d - 1)
    check_memory_cap(8 * n_types * (2 * d + TYPE_WORDS),
                     f"{n_types} types of {n} copies of a {d}-level system",
                     types=n_types, local_dim=d, n_copies=n)
    counts = _count_table(n, d)
    means = counts @ eigenvalues / n
    log_factorial = np.fromiter((math.lgamma(k + 1.0) for k in range(n + 1)),
                                dtype=np.float64, count=n + 1)
    # column by column (the order of .sum(axis=1)), with no (types, d) copy
    log_mult = log_factorial[n] - sum(log_factorial[k.astype(np.int64)] for k in counts.T)
    del log_factorial  # as long as the type table at d = 2
    if merge_tol is None:
        merge_tol = default_merge_tol(means)
    order = np.argsort(means, kind="stable")
    means = means[order]
    sorted_labels = _cluster_labels(means, merge_tol)
    weights = np.exp(log_mult[order] - log_mult.max())
    values = _cluster_means(means, weights, sorted_labels)
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    return _TypeClasses(counts, log_mult, labels, values)


def _product_basis(obs: Observable, space: CopySpace) -> tuple[np.ndarray, np.ndarray]:
    """U^(x)n of the observable's eigenvectors and the (D, d) type of each column.

    Column c of U^(x)n is a product of eigenvectors, the first factor most
    significant; counts[c, i] is how many of its factors are u_i, so the
    copy average has eigenvalue counts[c] @ lambda / n on that column.
    """
    if obs.dim != space.local_dim:
        raise DimensionMismatchError(
            f"observable dim {obs.dim} does not match local_dim {space.local_dim}"
        )
    d, n = space.local_dim, space.n_copies
    return tensor_power(obs.eigenvectors, n), _digit_counts(d, n)


def _spectral_probabilities(obs: Observable, state: DensityMatrix) -> np.ndarray:
    """p_i = <u_i| rho |u_i> over the observable's eigenvectors u_i."""
    if obs.dim != state.dim:
        raise DimensionMismatchError(
            f"observable dim {obs.dim} vs state dim {state.dim}"
        )
    v = obs.eigenvectors
    return np.einsum("ij,jk,ki->i", v.conj().T, state.matrix, v).real


def canonical_povm(a, space: CopySpace, merge_tol: float | None = None) -> Povm:
    """Spectral measurement of the copy-averaged observable.

    The copy average is diagonal in the product basis U^(x)n of the
    observable's eigenvectors, with eigenvalue k.lambda / n on every column
    of type k. Type means closer than merge_tol are clustered (single
    linkage); each outcome carries the mean of its eigenvalues and the
    projector onto the columns of its types.

    Parameters
    ----------
    a : Observable or array_like
        Single-copy observable, dim must equal space.local_dim.
    space : CopySpace
        The copy space the measurement acts on.
    merge_tol : float, optional
        Type-mean clustering tolerance; default 1e-8 * max(1, spectral peak).

    Raises
    ------
    DimensionCapError
        If the element stack (outcomes x total_dim^2 entries) would hold
        more entries than one cap-sized matrix.
    """
    obs = as_observable(a)
    dim = space.total_dim
    classes = _type_classes(obs.eigenvalues, space.n_copies, merge_tol)
    n_out = classes.values.size
    check_memory_cap(16 * n_out * dim * dim,
                     f"canonical POVM stack of {n_out} elements of dim {dim}",
                     outcomes=n_out, dim=dim)
    basis, col_counts = _product_basis(obs, space)
    # every column's count vector is one of the types: match them as rows
    n_types = classes.labels.size
    _, ids = np.unique(np.vstack([classes.counts, col_counts]), axis=0,
                       return_inverse=True)
    ids = ids.reshape(-1)
    label_of_id = np.empty(n_types, dtype=np.int64)
    label_of_id[ids[:n_types]] = classes.labels
    col_labels = label_of_id[ids[n_types:]]
    elements = np.empty((n_out, dim, dim), dtype=np.complex128)
    for m in range(n_out):
        vecs = basis[:, col_labels == m]
        np.matmul(vecs, vecs.conj().T, out=elements[m])
    elements.setflags(write=False)
    return Povm(classes.values, elements, space)


def canonical_error(a, rho, n_copies: int) -> float:
    """Closed-form optimal error sqrt((<A^2> - <A>^2) / n)."""
    if n_copies < 1:
        raise DimensionMismatchError(f"n_copies must be >= 1, got {n_copies}")
    obs = as_observable(a)
    state = as_state(rho)
    return float(np.sqrt(obs.variance(state) / n_copies))


def single_copy_distribution(a, rho, merge_tol: float | None = None) -> OutcomeDistribution:
    """Spectral outcome distribution of one copy, eigenvalues clustered."""
    obs = as_observable(a)
    probs = _spectral_probabilities(obs, as_state(rho))
    w = obs.eigenvalues
    if merge_tol is None:
        merge_tol = default_merge_tol(w)
    values, probs = _merge_weighted(w.astype(float), probs, merge_tol)
    return OutcomeDistribution(values, probs)


def repeated_measurement_distribution(a, rho, n_copies: int,
                                      merge_tol: float | None = None) -> OutcomeDistribution:
    """Distribution of the average of n independent single-copy measurements.

    Convolves the single-copy spectral distribution with itself n times on
    the average scale (each step adds value/n), clustering coincident
    support points with merge_tol after every step.
    """
    if n_copies < 1:
        raise DimensionMismatchError(f"n_copies must be >= 1, got {n_copies}")
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


def total_variation(dist_a: OutcomeDistribution, dist_b: OutcomeDistribution,
                    value_tol: float | None = None) -> float:
    """Total variation distance, identifying outcome values within value_tol."""
    all_values = np.concatenate([dist_a.values, dist_b.values])
    if value_tol is None:
        value_tol = default_merge_tol(all_values)
    order = np.argsort(all_values, kind="stable")
    labels = np.empty(all_values.size, dtype=np.int64)
    labels[order] = _cluster_labels(all_values[order], value_tol)
    n_clusters = int(labels.max()) + 1
    split = dist_a.values.size
    pa = np.bincount(labels[:split], dist_a.probabilities, minlength=n_clusters)
    pb = np.bincount(labels[split:], dist_b.probabilities, minlength=n_clusters)
    return 0.5 * float(np.abs(pa - pb).sum())


@dataclass
class EstimationReport:
    """Summary of one estimation run, serializable with a fixed key order."""

    local_dim: int
    n_copies: int
    expected_value: float
    closed_form_error: float
    povm_error: float | None = None
    distribution: OutcomeDistribution | None = None
    shots: int | None = None
    seed: int | None = None
    sample_mean: float | None = None
    sample_stddev: float | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "local_dim": self.local_dim,
            "n_copies": self.n_copies,
            "expected_value": self.expected_value,
            "closed_form_error": self.closed_form_error,
        }
        if self.povm_error is not None:
            out["povm_error"] = self.povm_error
        if self.distribution is not None:
            out["outcome_values"] = [float(x) for x in self.distribution.values]
            out["outcome_probabilities"] = [
                float(x) for x in self.distribution.probabilities
            ]
        if self.shots is not None:
            out["shots"] = self.shots
            out["seed"] = self.seed
            out["sample_mean"] = self.sample_mean
            out["sample_stddev"] = self.sample_stddev
        return out


def _sample_stats(dist: OutcomeDistribution, shots: int,
                  seed: int | None) -> tuple[float, float]:
    """Mean and sample standard deviation of shots seeded multinomial draws."""
    counts = dist.sample(shots, seed).astype(float)
    mean = float(counts @ dist.values / shots)
    if shots > 1:
        var = float(counts @ (dist.values - mean) ** 2 / (shots - 1))
    else:
        var = 0.0
    return mean, float(np.sqrt(var))


def estimate_canonical(a, rho, n_copies: int, shots: int = 0,
                       seed: int | None = 0,
                       merge_tol: float | None = None) -> EstimationReport:
    """Run the collective route: canonical outcome law, its exact error, optional sampling.

    The canonical measurement's outcome law on rho^(x)n is computed over
    type classes: outcome m has probability sum_k multinomial(n; k)
    prod_i p_i^k_i over its types k, with p_i = <u_i|rho|u_i>. No operator
    on the copy space is formed, so the cost is bounded by the type count,
    not by d**n; canonical_povm builds the elements.

    Raises
    ------
    DimensionCapError
        If the type table (types x local_dim entries) would hold more
        entries than one cap-sized matrix.
    """
    if n_copies < 1:
        raise DimensionMismatchError(f"n_copies must be >= 1, got {n_copies}")
    obs = as_observable(a)
    state = as_state(rho)
    p = np.clip(_spectral_probabilities(obs, state), 0.0, None)
    classes = _type_classes(obs.eigenvalues, n_copies, merge_tol)
    # a type drawing an outcome of probability 0 is impossible; 0 * log 0 = 0
    seen = p > 0.0
    log_p = np.log(p, out=np.zeros_like(p), where=seen)
    terms = np.exp(classes.counts @ log_p + classes.log_mult)
    terms[classes.counts @ ~seen > 0] = 0.0
    probs = np.bincount(classes.labels, terms, minlength=classes.values.size)
    # the same 1e-9 per summed term as Povm.probabilities, over types, not d**n
    dist = OutcomeDistribution(classes.values, probs,
                               sum_tol=max(1e-10, classes.labels.size * 1e-9))
    expected = obs.expectation(state.matrix)
    report = EstimationReport(
        local_dim=obs.dim,
        n_copies=n_copies,
        expected_value=expected,
        closed_form_error=canonical_error(obs, state, n_copies),
        povm_error=dist.rms_about(expected),
        distribution=dist,
    )
    if shots > 0:
        report.shots = shots
        report.seed = seed
        report.sample_mean, report.sample_stddev = _sample_stats(dist, shots, seed)
    return report


def simulate_repeated(a, rho, n_copies: int, shots: int, seed: int | None = 0,
                      merge_tol: float | None = None) -> EstimationReport:
    """Monte Carlo over the repeated-measurement route.

    Each shot is one estimate: the average of n independent single-copy
    spectral outcomes, drawn from the exact aggregate distribution.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    obs = as_observable(a)
    state = as_state(rho)
    dist = repeated_measurement_distribution(obs, state, n_copies, merge_tol=merge_tol)
    mean, stddev = _sample_stats(dist, shots, seed)
    return EstimationReport(
        local_dim=obs.dim,
        n_copies=n_copies,
        expected_value=obs.expectation(state.matrix),
        closed_form_error=canonical_error(obs, state, n_copies),
        distribution=dist,
        shots=shots,
        seed=seed,
        sample_mean=mean,
        sample_stddev=stddev,
    )
