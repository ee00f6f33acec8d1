import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsavg.adversary import project_unbiased_povm
from obsavg.errors import DimensionCapError, DimensionMismatchError
from obsavg.estimators import (
    TYPE_WORDS,
    EstimationReport,
    _product_basis,
    canonical_error,
    canonical_povm,
    default_merge_tol,
    estimate_canonical,
    repeated_measurement_distribution,
    simulate_repeated,
    single_copy_distribution,
    total_variation,
)
from obsavg.linops import (
    DensityMatrix,
    Observable,
    expect,
    pure_state,
    random_density,
    random_hermitian,
    tensor_power,
)
from obsavg.povm import OutcomeDistribution
from obsavg.symspace import CopySpace, _digit_counts, copy_average

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PLUS = pure_state([1.0, 1.0])


def dense_canonical(a, rho, n):
    """Oracle for the canonical route: eigh of the copy average on the copy space.

    Eigenvalues closer than default_merge_tol are clustered by single
    linkage; each cluster gives its mean eigenvalue, its eigenprojector and
    the trace-rule probability on rho^(x)n.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(copy_average(a, CopySpace(a.shape[0], n)))
    cuts = np.nonzero(np.diff(w) > default_merge_tol(w))[0] + 1
    groups = np.split(np.arange(w.size), cuts)
    values = np.array([w[g].mean() for g in groups])
    projectors = np.stack([v[:, g] @ v[:, g].conj().T for g in groups])
    joint = tensor_power(rho, n)
    probs = np.einsum("mij,ji->m", projectors, joint).real
    return values, projectors, probs


def test_canonical_povm_two_copy_z():
    p = canonical_povm(Z, CopySpace(2, 2))
    assert np.allclose(p.values, [-1.0, 0.0, 1.0])
    assert np.allclose(p.elements[0], np.diag([0.0, 0.0, 0.0, 1.0]))
    assert np.allclose(p.elements[1], np.diag([0.0, 1.0, 1.0, 0.0]))
    assert np.allclose(p.elements[2], np.diag([1.0, 0.0, 0.0, 0.0]))
    assert p.validate().ok


def test_canonical_povm_single_copy_is_spectral_measurement():
    rng = np.random.default_rng(50)
    a = Observable(random_hermitian(3, rng))
    p = canonical_povm(a, CopySpace(3, 1))
    assert np.allclose(p.values, a.eigenvalues)
    reassembled = sum(v * e for v, e in zip(p.values, p.elements))
    assert np.abs(reassembled - a.matrix).max() < 1e-12


def test_canonical_povm_three_copy_z_structure():
    p = canonical_povm(Z, CopySpace(2, 3))
    assert np.allclose(p.values, [-1.0, -1 / 3, 1 / 3, 1.0])
    ranks = [int(round(np.trace(e).real)) for e in p.elements]
    assert ranks == [1, 3, 3, 1]


def test_canonical_povm_first_moment_is_copy_average():
    rng = np.random.default_rng(51)
    a = random_hermitian(2, rng)
    space = CopySpace(2, 3)
    p = canonical_povm(a, space)
    assert np.abs(p.first_moment() - copy_average(a, space)).max() < 1e-10
    avg = copy_average(a, space)
    assert np.abs(p.second_moment() - avg @ avg).max() < 1e-10
    assert p.is_unbiased(a)


def test_canonical_povm_values_within_spectrum():
    rng = np.random.default_rng(52)
    a = Observable(random_hermitian(3, rng))
    p = canonical_povm(a, CopySpace(3, 2))
    assert p.values.min() >= a.lambda_min - 1e-12
    assert p.values.max() <= a.lambda_max + 1e-12


@st.composite
def canonical_instances(draw):
    """(observable, state, n): generic or degenerate spectra, mixed or pure states.

    Spectra: generic, all equal (identity-d), repeated values, or equally
    spaced (pauli-z, spin1-z). An unrotated observable with an eigenstate
    gives single-copy probabilities that are exactly 0.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["generic", "identity", "repeated", "spaced"]))
    lam = {
        "generic": rng.uniform(-1.5, 1.5, d),
        "identity": np.ones(d),
        "repeated": rng.choice([-1.0, 0.5], d),
        "spaced": np.linspace(1.0, -1.0, d) if d > 1 else np.ones(1),
    }[kind]
    # distinct type means at least 1e-3 apart keep the oracle's eigenvectors
    # (and so its projectors) accurate to ~1e-13
    types = itertools.combinations_with_replacement(range(d), n)
    means = np.sort([lam[list(t)].sum() / n for t in types])
    gaps = np.diff(means)
    assume(np.all((gaps <= 1e-12) | (gaps >= 1e-3)))
    if draw(st.booleans()):
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    else:
        u = np.eye(d)
    a = (u * lam) @ u.conj().T
    state = draw(st.sampled_from(["mixed", "pure", "eigenstate"]))
    if state == "mixed":
        rho = random_density(d, rng).matrix
    elif state == "pure":
        rho = pure_state(rng.standard_normal(d) + 1j * rng.standard_normal(d)).matrix
    else:
        rho = pure_state(u[:, rng.integers(d)]).matrix
    return (a + a.conj().T) / 2.0, rho, n


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(canonical_instances())
def test_type_route_matches_dense_oracle(instance):
    a, rho, n = instance
    values, projectors, probs = dense_canonical(a, rho, n)
    report = estimate_canonical(a, rho, n)
    dist = report.distribution
    assert len(dist) == values.size
    assert np.abs(dist.values - values).max() <= 1e-12
    assert np.abs(dist.probabilities - probs).max() <= 1e-12
    # squared: near an eigenstate the root magnifies rounding noise
    oracle_sq = np.clip(probs, 0.0, None) @ (values - expect(a, rho)) ** 2
    assert abs(report.povm_error**2 - oracle_sq) <= 1e-12
    povm = canonical_povm(a, CopySpace(a.shape[0], n))
    assert np.abs(povm.values - values).max() <= 1e-12
    assert np.abs(povm.elements - projectors).max() <= 1e-12


def test_estimate_canonical_builds_nothing_on_the_copy_space():
    # d=3, n=6: the dense element stack alone is 28 x 729^2 x 16 B = 227 MB
    rng = np.random.default_rng(60)
    a = Observable(random_hermitian(3, rng))
    rho = random_density(3, rng)
    tracemalloc.start()
    try:
        report = estimate_canonical(a, rho, 6, shots=1000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.distribution) == 28
    assert peak < 5 * 2**20


def _basis_cases():
    rng = np.random.default_rng(64)
    yield np.array([[0.7]]), 3
    for a in (X, Z, random_hermitian(2, rng)):
        for n in range(1, 6):
            yield a, n
    for a in (np.diag([1.0, 0.0, -1.0]), random_hermitian(3, rng)):
        for n in range(1, 4):
            yield a, n


@pytest.mark.parametrize("a, n", list(_basis_cases()))
def test_product_basis_diagonalises_the_dense_copy_average(a, n):
    obs = Observable(a)
    space = CopySpace(obs.dim, n)
    basis, counts = _product_basis(obs, space)
    theta = counts @ obs.eigenvalues / n
    rotated = basis.conj().T @ copy_average(obs.matrix, space) @ basis
    assert np.abs(rotated - np.diag(theta)).max() <= 1e-12
    assert np.abs(basis.conj().T @ basis - np.eye(space.total_dim)).max() <= 1e-12
    assert (counts.sum(axis=1) == n).all()


@pytest.mark.parametrize("d,n", [(1, 3), (2, 1), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_digit_counts_are_the_column_types_built_one_copy_at_a_time(d, n):
    reference = np.zeros((1, d), dtype=np.int64)
    for _ in range(n):
        reference = (reference[:, None, :] + np.eye(d, dtype=np.int64)).reshape(-1, d)
    assert np.array_equal(_digit_counts(d, n), reference)


@pytest.mark.parametrize("spectrum", ["distinct", "degenerate"])
def test_canonical_povm_labels_columns_exactly_at_a_wide_local_dim(spectrum):
    # at d = 64 a base-(n + 1) code of the count rows needs 2**63, past int64
    d = 64
    w = np.arange(d, dtype=float) if spectrum == "distinct" else np.arange(d) // 3 * 1.0
    u, _ = np.linalg.qr(random_hermitian(d, np.random.default_rng(5)))
    povm = canonical_povm(u @ np.diag(w) @ u.conj().T, CopySpace(d, 1))
    values = np.unique(w)
    assert np.allclose(povm.values, values)
    for value, element in zip(values, povm.elements):
        vecs = u[:, w == value]
        assert np.abs(element - vecs @ vecs.conj().T).max() <= 1e-10


def test_product_basis_refuses_a_wrong_dimension_observable():
    space = CopySpace(3, 2)
    with pytest.raises(DimensionMismatchError):
        _product_basis(Observable(Z), space)
    with pytest.raises(DimensionMismatchError):
        canonical_povm(Z, space)
    with pytest.raises(DimensionMismatchError):
        project_unbiased_povm(Z, space, (-1.0, 0.0, 1.0))


def test_canonical_povm_stack_guard(monkeypatch):
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    tracemalloc.start()
    try:
        # D = 4096 passes the cap, but 13 elements of 4096^2 do not
        with pytest.raises(DimensionCapError) as info:
            canonical_povm(Z, CopySpace(2, 12))
        _, refused_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        p = canonical_povm(Z, CopySpace(2, 10))
        _, built_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == "DIM_CAP"
    assert refused_peak < 2**20
    assert p.n_outcomes == 11
    # one stack, no second copy of it
    assert built_peak < 1.5 * p.elements.nbytes


def test_repeated_distribution_survives_subnormal_weights():
    # p(-) = 0.001: the tail types' probabilities go subnormal near n = 100
    rho = 0.999 * PLUS.matrix + 0.001 * pure_state([1.0, -1.0]).matrix
    for n in (108, 140):
        dist = repeated_measurement_distribution(X, rho, n)
        assert len(dist) == n + 1
        assert np.allclose(dist.values, np.linspace(-1.0, 1.0, n + 1), atol=1e-12)


def test_canonical_error_examples():
    assert canonical_error(Z, PLUS, 4) == pytest.approx(0.5)
    assert canonical_error(Z, pure_state([1.0, 0.0]), 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        canonical_error(Z, PLUS, 0)


def test_canonical_error_scaling_law():
    rng = np.random.default_rng(53)
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    e1 = canonical_error(a, rho, 1)
    for n in (2, 3, 4):
        assert canonical_error(a, rho, n) == pytest.approx(e1 / np.sqrt(n))


def test_canonical_povm_error_matches_closed_form():
    rng = np.random.default_rng(54)
    a = Observable(random_hermitian(3, rng))
    rho = random_density(3, rng)
    space = CopySpace(3, 3)
    p = canonical_povm(a, space)
    assert p.estimation_error(a, rho) == pytest.approx(
        canonical_error(a, rho, 3), abs=1e-9
    )


def test_single_copy_distribution_merges_degenerate_eigenvalues():
    rng = np.random.default_rng(55)
    rho = random_density(2, rng)
    dist = single_copy_distribution(np.eye(2, dtype=complex), rho)
    assert len(dist) == 1
    assert dist.values[0] == pytest.approx(1.0)
    assert dist.probabilities[0] == pytest.approx(1.0)


def test_repeated_distribution_two_copy_z_plus():
    dist = repeated_measurement_distribution(Z, PLUS, 2).sorted_by_value()
    assert np.allclose(dist.values, [-1.0, 0.0, 1.0])
    assert np.allclose(dist.probabilities, [0.25, 0.5, 0.25])


def test_repeated_distribution_single_copy_reduces():
    rng = np.random.default_rng(56)
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    d1 = repeated_measurement_distribution(a, rho, 1)
    d2 = single_copy_distribution(a, rho)
    assert np.allclose(d1.values, d2.values)
    assert np.allclose(d1.probabilities, d2.probabilities)


def test_repeated_distribution_matches_canonical_povm():
    rng = np.random.default_rng(57)
    for d, n in [(2, 4), (3, 3)]:
        a = Observable(random_hermitian(d, rng))
        rho = random_density(d, rng)
        space = CopySpace(d, n)
        joint = canonical_povm(a, space).probabilities(rho)
        marginal = repeated_measurement_distribution(a, rho, n)
        assert total_variation(joint, marginal) <= 1e-9
        types = estimate_canonical(a, rho, n).distribution
        assert total_variation(types, marginal) <= 1e-9


def test_repeated_distribution_moments():
    rng = np.random.default_rng(58)
    a = Observable(random_hermitian(2, rng))
    rho = random_density(2, rng)
    dist = repeated_measurement_distribution(a, rho, 5)
    assert dist.mean() == pytest.approx(expect(a.matrix, rho.matrix), abs=1e-10)
    assert np.sqrt(dist.variance()) == pytest.approx(
        canonical_error(a, rho, 5), abs=1e-10
    )


def test_total_variation_basics():
    da = OutcomeDistribution([0.0, 1.0], [0.5, 0.5])
    db = OutcomeDistribution([1.0, 0.0], [0.5, 0.5])
    assert total_variation(da, db) == pytest.approx(0.0)
    dc = OutcomeDistribution([0.0, 1.0], [1.0, 0.0])
    assert total_variation(da, dc) == pytest.approx(0.5)
    # disjoint supports: distance 1
    dd = OutcomeDistribution([5.0], [1.0])
    assert total_variation(da, dd) == pytest.approx(1.0)


def test_default_merge_tol_scales():
    assert default_merge_tol(np.array([0.5])) == pytest.approx(1e-8)
    assert default_merge_tol(np.array([200.0])) == pytest.approx(2e-6)


def test_estimate_canonical_report():
    report = estimate_canonical(Z, PLUS, 4, shots=0)
    assert report.closed_form_error == pytest.approx(0.5)
    assert report.povm_error == pytest.approx(0.5, abs=1e-12)
    assert report.expected_value == pytest.approx(0.0, abs=1e-12)
    d = report.to_dict()
    assert "shots" not in d and "outcome_values" in d
    report2 = estimate_canonical(Z, PLUS, 4, shots=200, seed=3)
    assert report2.sample_mean is not None
    d2 = report2.to_dict()
    assert list(d2)[:4] == [
        "local_dim",
        "n_copies",
        "expected_value",
        "closed_form_error",
    ]


@pytest.mark.parametrize("n", [13, 1000])
def test_canonical_route_is_not_bounded_by_the_copy_dimension(n, monkeypatch):
    # 2**n is far above the dimension cap; Z's law on n copies is a binomial
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    up, down = Fraction(rho.matrix[0, 0].real), Fraction(rho.matrix[1, 1].real)
    exact = [float(math.comb(n, k) * up**k * down ** (n - k)) for k in range(n + 1)]
    dist = estimate_canonical(Z, rho, n).distribution
    assert np.abs(dist.values - (2.0 * np.arange(n + 1) - n) / n).max() <= 1e-15
    np.testing.assert_allclose(dist.probabilities, exact, rtol=1e-10, atol=1e-300)


def test_canonical_type_guard_refuses_before_listing(monkeypatch):
    # the type route may hold one cap-sized complex matrix, cap^2 * 16 bytes;
    # distinct type means (Z, or 1 and sqrt(2) rationally independent) make
    # nearly every type its own outcome, the largest outcome arrays
    cap = 1024
    monkeypatch.setenv("OBSAVG_DIM_CAP", str(cap))
    generic3, mixed3 = np.diag([0.0, 1.0, np.sqrt(2.0)]), np.eye(3) / 3.0
    for a, rho, d in [(Z, PLUS, 2), (generic3, mixed3, 3)]:
        n = 1  # the largest n the guard accepts
        while math.comb(n + d, d - 1) * (2 * d + TYPE_WORDS) <= 2 * cap * cap:
            n += 1
        tracemalloc.start()
        try:
            report = estimate_canonical(a, rho, n, shots=100, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.distribution) > 0.9 * math.comb(n + d - 1, d - 1)
        assert peak <= cap * cap * 16
        with pytest.raises(DimensionCapError):
            estimate_canonical(a, rho, n + 1)
    monkeypatch.delenv("OBSAVG_DIM_CAP")
    tracemalloc.start()
    try:
        with pytest.raises(DimensionCapError) as info:
            estimate_canonical(Z, PLUS, 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == "DIM_CAP"
    assert peak < 2**20


def test_simulate_repeated_eigenstate_is_exact():
    report = simulate_repeated(Z, pure_state([0.0, 1.0]), 3, shots=100, seed=1)
    assert report.sample_mean == pytest.approx(-1.0)
    assert report.sample_stddev == pytest.approx(0.0, abs=1e-15)


def test_simulate_repeated_statistics():
    report = simulate_repeated(Z, PLUS, 4, shots=100_000, seed=12)
    assert abs(report.sample_mean) <= 4 * 0.5 / np.sqrt(100_000)
    assert report.sample_stddev == pytest.approx(0.5, rel=0.05)


def test_simulate_repeated_deterministic():
    r1 = simulate_repeated(Z, PLUS, 2, shots=500, seed=9)
    r2 = simulate_repeated(Z, PLUS, 2, shots=500, seed=9)
    assert r1.to_dict() == r2.to_dict()
    with pytest.raises(ValueError):
        simulate_repeated(Z, PLUS, 2, shots=0)


def test_estimation_report_key_order_is_stable():
    report = EstimationReport(
        local_dim=2,
        n_copies=1,
        expected_value=0.0,
        closed_form_error=1.0,
        povm_error=1.0,
        distribution=OutcomeDistribution([1.0, -1.0], [0.5, 0.5]),
        shots=10,
        seed=0,
        sample_mean=0.1,
        sample_stddev=1.0,
    )
    assert list(report.to_dict()) == [
        "local_dim",
        "n_copies",
        "expected_value",
        "closed_form_error",
        "povm_error",
        "outcome_values",
        "outcome_probabilities",
        "shots",
        "seed",
        "sample_mean",
        "sample_stddev",
    ]
