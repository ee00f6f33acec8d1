import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsavg.errors import (
    DimensionCapError,
    DimensionMismatchError,
    ObsavgError,
    PovmValidationError,
    StateValidationError,
)
from obsavg.linops import (
    DensityMatrix,
    expect,
    memory_cap_bytes,
    pure_state,
    random_density,
    random_hermitian,
)
from obsavg.povm import (
    OutcomeDistribution,
    Povm,
    moment_inequality_floor,
    random_povm,
)
from obsavg.symspace import CopySpace, copy_average, twirl
from competitors import COMPETITORS

Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = pure_state([1.0, 1.0])


def z_average_povm_two_copies() -> Povm:
    """Hand-built spectral POVM of the two-copy average of Z: diag(1, 0, 0, -1)."""
    e_plus = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    e_zero = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    e_minus = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
    return Povm([1.0, 0.0, -1.0], [e_plus, e_zero, e_minus], CopySpace(2, 2))


def test_validate_accepts_projective_povm():
    p = Povm([1.0, -1.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], CopySpace(2, 1))
    report = p.validate()
    assert report.ok and report.psd_ok and report.completeness_ok
    assert report.completeness_residual == 0.0
    assert report.min_eigenvalue >= 0.0


def test_validate_accepts_single_outcome_identity():
    p = Povm([1.0], [np.eye(3, dtype=complex)])
    assert p.validate().ok


def test_validate_flags_completeness_failure():
    p = Povm([1.0], [1.1 * np.eye(2, dtype=complex)])
    report = p.validate()
    assert not report.ok
    assert report.completeness_residual == pytest.approx(0.1)
    with pytest.raises(PovmValidationError) as err:
        p.require_valid()
    assert err.value.code == "POVM_COMPLETENESS"


def test_validate_flags_positivity_failure():
    elems = [np.diag([1.5, 0.0]).astype(complex), np.diag([-0.5, 1.0]).astype(complex)]
    p = Povm([0.0, 1.0], elems)
    report = p.validate()
    assert report.completeness_ok and not report.psd_ok
    assert report.min_eigenvalue == pytest.approx(-0.5)
    with pytest.raises(PovmValidationError) as err:
        p.require_valid()
    assert err.value.code == "POVM_POSITIVITY"


def test_construction_shape_errors():
    with pytest.raises(DimensionMismatchError):
        Povm([1.0, 2.0], [np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        Povm([1.0], np.zeros((1, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        Povm([1.0], [np.eye(3)], CopySpace(2, 1))


def test_povm_arrays_frozen_and_decoupled():
    src = np.stack([np.eye(2, dtype=complex)])
    p = Povm([1.0], src)
    src[0, 0, 0] = 99.0
    assert p.elements[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        p.elements[0, 0, 0] = 2.0


def test_probabilities_plus_state_example():
    p = z_average_povm_two_copies()
    dist = p.probabilities(PLUS)
    assert np.allclose(dist.values, [1.0, 0.0, -1.0])
    assert np.allclose(dist.probabilities, [0.25, 0.5, 0.25])


def test_probabilities_single_outcome():
    p = Povm([1.0], [np.eye(2, dtype=complex)])
    rng = np.random.default_rng(40)
    dist = p.probabilities(random_density(2, rng))
    assert dist.probabilities == pytest.approx([1.0])


def test_probabilities_match_trace_oracle():
    rng = np.random.default_rng(41)
    space = CopySpace(2, 2)
    p = random_povm(space, 5, rng)
    rho = random_density(4, rng)
    dist = p.probabilities(rho)
    oracle = [np.trace(e @ rho.matrix).real for e in p.elements]
    assert np.allclose(dist.probabilities, oracle, atol=1e-13)


def test_probabilities_single_copy_state_tensors_up():
    p = z_average_povm_two_copies()
    rng = np.random.default_rng(42)
    rho = random_density(2, rng)
    joint = DensityMatrix(rho.tensor_power(2))
    assert np.allclose(
        p.probabilities(rho).probabilities,
        p.probabilities(joint).probabilities,
        atol=1e-14,
    )


def test_first_and_second_moment_diagonal_example():
    p = Povm([2.0, 3.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert np.allclose(p.first_moment(), np.diag([2.0, 3.0]))
    assert np.allclose(p.second_moment(), np.diag([4.0, 9.0]))


def test_is_unbiased_cases():
    p = z_average_povm_two_copies()
    assert p.unbiasedness_residual(Z) < 1e-15
    shifted = Povm(p.values + 0.1, p.elements, p.space)
    assert shifted.unbiasedness_residual(Z) == pytest.approx(0.1)
    trivial = Povm([0.0], [np.eye(4, dtype=complex)], CopySpace(2, 2))
    assert trivial.unbiasedness_residual(Z) == pytest.approx(1.0)


def test_unbiased_mean_matches_single_copy_expectation():
    p = z_average_povm_two_copies()
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = random_density(2, rng)
        assert p.probabilities(rho).mean() == pytest.approx(
            expect(Z, rho.matrix), abs=1e-12
        )


@pytest.mark.parametrize("make", [c[1] for c in COMPETITORS], ids=[c[0] for c in COMPETITORS])
def test_unbiased_competitors_off_the_invariant_subspace(make):
    p = make()
    # the first moment itself is not the copy average, only its twirl is
    assert np.abs(p.first_moment() - copy_average(Z, p.space)).max() >= 0.3
    assert p.unbiasedness_residual(Z) <= 1e-15
    rng = np.random.default_rng(45)
    for _ in range(20):
        rho = random_density(2, rng)
        # sum_m r_m p_m(rho^(x)n), from the outcome law: no twirl involved
        assert p.probabilities(rho).mean() == pytest.approx(expect(Z, rho.matrix), abs=1e-14)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), outcomes=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_unbiasedness_residual_never_exceeds_the_entrywise_one(d, n, outcomes, seed):
    # an orbit mean is at most the orbit's largest entry in modulus
    space = CopySpace(d, n)
    rng = np.random.default_rng(seed)
    a = random_hermitian(d, rng)
    p = random_povm(space, outcomes, rng, values=rng.standard_normal(outcomes))
    entrywise = np.abs(p.first_moment() - copy_average(a, space)).max()
    assert p.unbiasedness_residual(a) <= entrywise * (1 + 1e-12)


def test_estimation_error_examples():
    p = z_average_povm_two_copies()
    # eigenstate: zero error
    assert p.estimation_error(Z, pure_state([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # |+>: variance 1, two copies
    assert p.estimation_error(Z, PLUS) == pytest.approx(np.sqrt(0.5))
    # a joint state is refused: the true mean is a single-copy expectation
    joint = DensityMatrix(PLUS.tensor_power(2))
    with pytest.raises(DimensionMismatchError):
        p.estimation_error(Z, joint)


def test_estimation_error_squared_identity_for_unbiased():
    # for an unbiased POVM: error^2 = Tr[second_moment rho^n] - <A>^2
    p = z_average_povm_two_copies()
    rng = np.random.default_rng(44)
    rho = random_density(2, rng)
    lhs = p.estimation_error(Z, rho) ** 2
    rhs = expect(p.second_moment(), rho.tensor_power(2)) - expect(Z, rho.matrix) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sample_deterministic_and_consistent():
    p = z_average_povm_two_copies()
    c1 = p.sample(PLUS, 1000, seed=5)
    c2 = p.sample(PLUS, 1000, seed=5)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 1000
    assert p.sample(PLUS, 0, seed=5).sum() == 0
    with pytest.raises(ObsavgError) as err:
        p.sample(PLUS, -1)
    assert err.value.code == "BAD_COUNT"


def test_sample_concentrates_on_certain_outcome():
    p = Povm([1.0, 0.0], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], CopySpace(2, 1))
    counts = p.sample(pure_state([1.0, 0.0]), 500, seed=0)
    assert np.array_equal(counts, [500, 0])


def test_sample_frequencies_near_probabilities():
    p = z_average_povm_two_copies()
    shots = 100_000
    counts = p.sample(PLUS, shots, seed=7)
    freqs = counts / shots
    probs = np.array([0.25, 0.5, 0.25])
    bound = 5.0 * np.sqrt(probs * (1 - probs) / shots)
    assert np.all(np.abs(freqs - probs) <= bound)


@pytest.mark.parametrize("d,n,m", [(2, 2, 4), (3, 1, 3), (2, 3, 6)])
def test_moment_inequality_floor_nonnegative(d, n, m):
    rng = np.random.default_rng(45)
    space = CopySpace(d, n)
    for _ in range(5):
        p = random_povm(space, m, rng, values=rng.standard_normal(m))
        assert moment_inequality_floor(p) >= -1e-9


def test_probabilities_invariant_under_element_twirl():
    # tensor-power states cannot tell a POVM from its elementwise twirl
    rng = np.random.default_rng(46)
    space = CopySpace(2, 3)
    p = random_povm(space, 4, rng)
    twirled = Povm(p.values, [twirl(e, space) for e in p.elements], space)
    for _ in range(5):
        rho = random_density(2, rng)
        assert np.abs(
            p.probabilities(rho).probabilities
            - twirled.probabilities(rho).probabilities
        ).max() < 1e-12


def test_random_povm_is_valid():
    rng = np.random.default_rng(47)
    p = random_povm(CopySpace(3, 1), 5, rng)
    report = p.validate()
    assert report.ok
    assert report.completeness_residual < 1e-12
    with pytest.raises(ObsavgError) as err:
        random_povm(CopySpace(3, 1), 0, rng)
    assert err.value.code == "BAD_COUNT"


def test_random_povm_meets_the_memory_rule_before_it_draws(monkeypatch):
    monkeypatch.setenv("OBSAVG_DIM_CAP", "64")
    rng = np.random.default_rng(48)
    with pytest.raises(DimensionCapError):
        random_povm(CopySpace(2, 6), 50, rng)
    assert rng.standard_normal() == np.random.default_rng(48).standard_normal()
    # the largest stack accepted at D=16 peaks below one cap-sized matrix
    space = CopySpace(2, 4)
    accepted = 1
    while True:
        try:
            random_povm(space, accepted + 1, rng)
        except DimensionCapError:
            break
        accepted += 1
    assert accepted >= 8
    tracemalloc.start()
    try:
        random_povm(space, accepted, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < memory_cap_bytes()


def test_outcome_distribution_validation():
    d = OutcomeDistribution([1.0, -1.0], [0.5, 0.5])
    assert d.mean() == 0.0
    assert d.variance() == pytest.approx(1.0)
    assert d.rms_about(1.0) == pytest.approx(np.sqrt(2.0))
    # tiny negative rounding noise is clamped
    d2 = OutcomeDistribution([0.0, 1.0], [1.0 + 1e-13, -1e-13])
    assert d2.probabilities.min() == 0.0
    with pytest.raises(StateValidationError):
        OutcomeDistribution([0.0, 1.0], [1.0, -1e-6])
    with pytest.raises(StateValidationError):
        OutcomeDistribution([0.0, 1.0], [0.7, 0.2])
    with pytest.raises(DimensionMismatchError):
        OutcomeDistribution([0.0], [0.5, 0.5])


def test_first_moment_against_copy_average_for_hand_povm():
    p = z_average_povm_two_copies()
    assert np.abs(p.first_moment() - copy_average(Z, CopySpace(2, 2))).max() < 1e-15
