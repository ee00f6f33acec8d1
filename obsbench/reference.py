"""Independent references for checking obsavg's outputs.

Nothing here imports obsavg. Each reference is computed from a job's own
inputs with numpy and the standard library, so a fault in the program cannot
also be a fault in the check that reads its output. Every check returns a
list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import math

import numpy as np

# the program's documented unbiasedness tolerance (obsavg.povm.UNBIASED_TOL)
UNBIASED_TOL = 1e-8
# no unbiased competitor may beat the canonical error by more than rounding
GAP_FLOOR = -1e-8
MOMENT_FLOOR = -1e-8
# lemma-demo residual bounds, the ones the acceptance scorecard uses
DIAGONAL_TOL = 1e-8
MOMENT_TOL = 1e-8
COEFFICIENT_TOL = 1e-9
# a seeded sample mean must lie within this many standard errors
SAMPLE_SIGMAS = 5.0
DISTRIBUTION_TV_TOL = 1e-8


def type_counts(n: int, d: int) -> np.ndarray:
    """All count vectors (k_1..k_d) with sum n, one row each, lexicographic."""
    if d == 1:
        return np.array([[n]], dtype=np.int64)
    rows = []
    for first in range(n, -1, -1):
        for rest in type_counts(n - first, d - 1):
            rows.append((first, *rest))
    return np.array(rows, dtype=np.int64)


def spectral_probabilities(a: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a and the Born probabilities of its eigenvectors on rho."""
    w, v = np.linalg.eigh(a)
    p = np.einsum("ji,jk,ki->i", v.conj(), rho, v).real
    p = np.clip(p, 0.0, None)
    return w, p / p.sum()


def iid_average_distribution(a: np.ndarray, rho: np.ndarray,
                             n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the mean of n i.i.d. single-copy spectral outcomes.

    One support point per type class (count vector over a's eigenvectors);
    the probability is the multinomial, evaluated in log space with lgamma so
    that hundreds of copies neither overflow nor lose the tail.
    """
    w, p = spectral_probabilities(a, rho)
    counts = type_counts(n, w.size)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    # 0 * log(0) is 0: an outcome that never occurs may be counted zero times
    terms = np.where(counts > 0, counts * log_p[None, :], 0.0)
    log_prob = log_fact[n] - log_fact[counts].sum(axis=1) + terms.sum(axis=1)
    return counts @ w / n, np.exp(log_prob)


def cluster(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster label per value: sorted neighbours closer than tol share one."""
    order = np.argsort(values, kind="stable")
    ids = np.concatenate([[0], np.cumsum(np.diff(values[order]) > tol)])
    labels = np.empty(values.size, dtype=np.int64)
    labels[order] = ids
    return labels


def tv_distance(values_a, probs_a, values_b, probs_b, tol: float) -> float:
    """Total variation distance, identifying support points within tol."""
    values = np.concatenate([values_a, values_b])
    labels = cluster(values, tol)
    n_clusters = int(labels.max()) + 1
    pa = np.bincount(labels[: len(values_a)], weights=probs_a, minlength=n_clusters)
    pb = np.bincount(labels[len(values_a):], weights=probs_b, minlength=n_clusters)
    return 0.5 * float(np.abs(pa - pb).sum())


def expectation(a: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(a @ rho).real)


def closed_form_error(a: np.ndarray, rho: np.ndarray, n: int) -> float:
    """sqrt((Tr A^2 rho - (Tr A rho)^2) / n)."""
    mean = expectation(a, rho)
    return math.sqrt(max(0.0, expectation(a @ a, rho) - mean * mean) / n)


def _close(x, ref: float, tol: float) -> bool:
    return isinstance(x, (int, float)) and abs(x - ref) <= tol


def check_estimate(out: dict, a: np.ndarray, rho: np.ndarray, n: int,
                   shots: int, collective: bool) -> list[str]:
    """Check a `canonical` or `simulate` report against the i.i.d. references.

    Both routes must give the exact law of the i.i.d. average (the paper's
    equivalence), the closed-form error, and a sample mean within
    SAMPLE_SIGMAS standard errors of the true mean.
    """
    problems = []
    scale = max(1.0, float(np.abs(np.linalg.eigvalsh(a)).max()))
    mean = expectation(a, rho)
    err = closed_form_error(a, rho, n)
    if out.get("local_dim") != a.shape[0] or out.get("n_copies") != n:
        problems.append("wrong local_dim or n_copies")
    if not _close(out.get("expected_value"), mean, 1e-10 * scale):
        problems.append(f"expected_value {out.get('expected_value')} != {mean}")
    if not _close(out.get("closed_form_error"), err, 1e-9 * scale):
        problems.append(f"closed_form_error {out.get('closed_form_error')} != {err}")
    if collective and not _close(out.get("povm_error"), err, 1e-8 * scale):
        problems.append(f"povm_error {out.get('povm_error')} != closed form {err}")
    values = np.asarray(out.get("outcome_values", []), dtype=float)
    probs = np.asarray(out.get("outcome_probabilities", []), dtype=float)
    ref_values, ref_probs = iid_average_distribution(a, rho, n)
    if values.size == 0 or values.size != probs.size:
        problems.append("missing outcome distribution")
    else:
        tv = tv_distance(values, probs, ref_values, ref_probs, 1e-7 * scale)
        if tv > DISTRIBUTION_TV_TOL:
            problems.append(f"outcome distribution is {tv:.3e} from the i.i.d. law")
        distinct = int(cluster(ref_values, 1e-7 * scale).max()) + 1
        if values.size != distinct:
            problems.append(f"{values.size} outcomes, {distinct} distinct type means")
    if out.get("shots") != shots:
        problems.append("shots not echoed")
    elif not _close(out.get("sample_mean"), mean,
                    SAMPLE_SIGMAS * err / math.sqrt(shots) + 1e-12 * scale):
        problems.append(f"sample mean {out.get('sample_mean')} is more than "
                        f"{SAMPLE_SIGMAS} standard errors from {mean}")
    return problems


def check_distribution_csv(text: str, out: dict) -> list[str]:
    """The --csv file must hold the report's distribution, row for row."""
    lines = text.strip().split("\n")
    if lines[0] != "value,probability":
        return ["distribution CSV has the wrong header"]
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    expected = list(zip(out.get("outcome_values", []),
                        out.get("outcome_probabilities", [])))
    return [] if rows == expected else ["distribution CSV differs from the report"]


def kron_power(b: np.ndarray, n: int) -> np.ndarray:
    out = b
    for _ in range(n - 1):
        out = np.kron(out, b)
    return out


def swap_sites(m: np.ndarray, d: int, n: int, k: int) -> np.ndarray:
    """P m P^T for the transposition of sites k and k+1 (big-endian sites)."""
    t = m.reshape((d,) * (2 * n))
    axes = list(range(2 * n))
    axes[k], axes[k + 1] = axes[k + 1], axes[k]
    axes[n + k], axes[n + k + 1] = axes[n + k + 1], axes[n + k]
    return t.transpose(axes).reshape(m.shape)


def check_twirl(x: np.ndarray, y: np.ndarray, d: int, n: int,
                probe_seed: int, n_probes: int = 3) -> list[str]:
    """y must be permutation invariant and agree with x on every B^(x)n.

    Invariance is tested on adjacent swaps, which generate the group. The
    twirl is the orthogonal projection onto the invariant operators, so
    Tr[(x - y) B^(x)n] vanishes for every single-copy B.
    """
    problems = []
    if y.shape != x.shape:
        return [f"twirl output shape {y.shape} != input shape {x.shape}"]
    scale = max(1.0, float(np.abs(y).max()))
    for k in range(n - 1):
        defect = float(np.abs(swap_sites(y, d, n, k) - y).max())
        if defect > 1e-10 * scale:
            problems.append(f"not invariant under swapping sites {k},{k + 1} ({defect:.3e})")
    rng = np.random.default_rng(probe_seed)
    diff = x - y
    for _ in range(n_probes):
        b = kron_power(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)), n)
        residual = abs(np.einsum("ij,ji->", diff, b))
        bound = 1e-9 * np.linalg.norm(x) * np.linalg.norm(b)
        if residual > bound:
            problems.append(f"Tr[(X - twirl X) B^n] = {residual:.3e} > {bound:.3e}")
    return problems


def check_lemma(out: dict, d: int, n: int, probes: int, seed: int) -> list[str]:
    problems = []
    size = math.comb(n + d * d - 1, n)
    echo = (out.get("local_dim"), out.get("n_copies"), out.get("seed"), out.get("n_probes"))
    if echo != (d, n, seed, probes):
        problems.append(f"report echoes {echo}, expected {(d, n, seed, probes)}")
    if out.get("invariant_basis_size") != size:
        problems.append(f"invariant_basis_size {out.get('invariant_basis_size')} != C(n+d^2-1, n) = {size}")
    if out.get("moment_rank") != size:
        problems.append(f"moment_rank {out.get('moment_rank')} != {size}")
    for key, tol in (("diagonal_reconstruction_error", DIAGONAL_TOL),
                     ("moment_reconstruction_error", MOMENT_TOL),
                     ("coefficient_identity_residual", COEFFICIENT_TOL)):
        value = out.get(key)
        if not isinstance(value, (int, float)) or not 0.0 <= value <= tol:
            problems.append(f"{key} {value} exceeds {tol:.0e}")
    return problems


def check_adversary(summary: dict, csv_text: str, trials: int,
                    grid_size: int, convergence_tol: float) -> list[str]:
    """Every trial converged, is unbiased and valid, and never beats the optimum."""
    problems = []
    if summary.get("trials") != trials or summary.get("converged") != trials:
        problems.append(f"{summary.get('converged')} of {trials} trials converged")
        return problems
    if summary.get("grid_size") != grid_size:
        problems.append(f"grid_size {summary.get('grid_size')} != {grid_size}")
    if not summary["min_gap"] >= GAP_FLOOR:
        problems.append(f"min_gap {summary['min_gap']} below {GAP_FLOOR}: "
                        f"an unbiased competitor beat the canonical error")
    if not summary["max_unbiasedness_residual"] <= UNBIASED_TOL:
        problems.append(f"unbiasedness residual {summary['max_unbiasedness_residual']}")
    if not summary["max_completeness_residual"] <= convergence_tol:
        problems.append(f"completeness residual {summary['max_completeness_residual']}")
    if not summary["min_moment_floor"] >= MOMENT_FLOOR:
        problems.append(f"min_moment_floor {summary['min_moment_floor']} below {MOMENT_FLOOR}")
    rows = trial_rows(csv_text)
    if len(rows) != trials:
        problems.append(f"trial CSV has {len(rows)} rows, expected {trials}")
    for row in rows:
        gap = float(row["adversary_error"]) - float(row["canonical_error"])
        if row["converged"] != "true" or abs(gap - float(row["gap"])) > 1e-12:
            problems.append(f"trial {row['trial']} row is inconsistent")
    return problems


def trial_rows(csv_text: str) -> list[dict]:
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]
