import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsavg.errors import ConditioningError, DimensionCapError, DimensionMismatchError
from obsavg.linops import random_density, random_hermitian, tensor_power, trace_product
from obsavg.polarization import (
    coefficient_extract,
    product_expectation,
    product_grid_expectations,
    product_vector,
    random_probe_states,
    reconstruct_from_diagonal,
    reconstruct_from_moments,
    symmetrized_product_sum,
)
from obsavg.symspace import CopySpace, copy_average, twirl

Z = np.diag([1.0, -1.0]).astype(complex)


def _random_matrix(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _loop_oracle(x, n):
    """The per-vector oracle: one product_expectation per point of the (T,)**n grid."""
    return lambda table: np.reshape([product_expectation(x, factors) for factors in
                                     itertools.product(table, repeat=n)], (len(table),) * n)


def _moment_oracle(x, n):
    return lambda rho: trace_product(x, tensor_power(rho.matrix, n))


def test_product_vector_and_expectation_examples():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    w = product_vector([e0, e1])
    assert np.array_equal(w, [0.0, 1.0, 0.0, 0.0])
    assert product_expectation(np.eye(4), [e0, e1]) == pytest.approx(1.0)
    # |00><00| has no overlap with |01>
    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0] = 1.0
    assert product_expectation(proj, [e0, e1]) == pytest.approx(0.0)


def test_product_expectation_matches_dense_oracle():
    rng = np.random.default_rng(60)
    x = _random_matrix(rng, 8)
    factors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    w = factors[0]
    for f in factors[1:]:
        w = np.kron(w, f)
    assert product_expectation(x, factors) == pytest.approx(w.conj() @ x @ w)


def test_product_expectation_shape_errors():
    with pytest.raises(DimensionMismatchError):
        product_expectation(np.eye(4), [np.ones(2), np.ones(3)])
    with pytest.raises(DimensionMismatchError):
        product_expectation(np.eye(8), [np.ones(2), np.ones(2)])


@pytest.mark.parametrize("d,n", [(1, 3), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_reconstruct_from_diagonal_recovers_random_matrix(d, n):
    rng = np.random.default_rng(61)
    x = _random_matrix(rng, d**n)
    looped = reconstruct_from_diagonal(_loop_oracle(x, n), d, n)
    batched = reconstruct_from_diagonal(lambda t: product_grid_expectations(x, t, n), d, n)
    assert np.abs(looped - x).max() < 1e-12
    assert np.abs(batched - looped).max() < 1e-12


def test_reconstruct_from_diagonal_identity():
    got = reconstruct_from_diagonal(_loop_oracle(np.eye(4, dtype=complex), 2), 2, 2)
    assert np.abs(got - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("d,n,rows", [(1, 4, 3), (2, 1, 5), (2, 3, 4), (3, 2, 6)])
def test_product_grid_matches_product_expectation(d, n, rows):
    rng = np.random.default_rng(69)
    x = _random_matrix(rng, d**n)
    table = rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    grid = product_grid_expectations(x, table, n)
    assert grid.shape == (rows,) * n
    for t in itertools.product(range(rows), repeat=n):
        assert abs(grid[t] - product_expectation(x, table[list(t)])) <= 1e-12 * max(
            1.0, abs(grid[t]))


def test_reconstruct_from_diagonal_grid_guard(monkeypatch):
    def oracle(table):
        raise AssertionError("the guard must refuse before calling the oracle")

    # (4 d^2)^n product values against cap^2: 16^7 > 4096^2 = 16^6
    monkeypatch.delenv("OBSAVG_DIM_CAP", raising=False)
    with pytest.raises(DimensionCapError) as info:
        reconstruct_from_diagonal(oracle, 2, 7)
    assert info.value.code == "DIM_CAP"
    monkeypatch.setenv("OBSAVG_DIM_CAP", "64")
    for d, n in [(2, 4), (3, 3), (5, 2)]:
        with pytest.raises(DimensionCapError):
            reconstruct_from_diagonal(oracle, d, n)
    # 16^3 = 64^2 is still accepted
    x = _random_matrix(np.random.default_rng(70), 8)
    got = reconstruct_from_diagonal(lambda t: product_grid_expectations(x, t, 3), 2, 3)
    assert np.abs(got - x).max() < 1e-12
    with pytest.raises(DimensionCapError):
        product_grid_expectations(x, np.ones((17, 2)), 3)


def test_reconstruct_from_diagonal_checks_the_grid_shape():
    with pytest.raises(DimensionMismatchError):
        reconstruct_from_diagonal(lambda table: np.zeros((16, 16)), 2, 3)


def test_symmetrized_sum_single_factor_reduces():
    rng = np.random.default_rng(62)
    x = _random_matrix(rng, 3)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert symmetrized_product_sum(x, [v]) == pytest.approx(
        product_expectation(x, [v])
    )


def test_symmetrized_sum_invariant_operator_collapses():
    # on a permutation-invariant X every ordering contributes the same value
    rng = np.random.default_rng(63)
    space = CopySpace(2, 3)
    x = twirl(_random_matrix(rng, 8), space)
    factors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    total = symmetrized_product_sum(x, factors)
    single = product_expectation(x, factors)
    assert total == pytest.approx(math.factorial(3) * single)


def test_coefficient_extract_single_copy():
    rng = np.random.default_rng(64)
    x = _random_matrix(rng, 2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    # n = 1: the coefficient is just Tr[X |v><v|]
    assert coefficient_extract(x, [v]) == pytest.approx(
        complex(np.trace(x @ np.outer(v, v.conj())))
    )


def test_coefficient_extract_orthonormal_identity():
    # X = I, orthonormal vectors: every permutation term is 1, so the sum is n!
    eye = np.eye(2)
    assert coefficient_extract(np.eye(4, dtype=complex), [eye[0], eye[1]]) == pytest.approx(
        math.factorial(2)
    )


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (3, 2)])
def test_coefficient_extract_matches_symmetrized_sum(d, n):
    rng = np.random.default_rng(65)
    for _ in range(5):
        x = _random_matrix(rng, d**n)
        vectors = [
            rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)
        ]
        lhs = coefficient_extract(x, vectors)
        rhs = symmetrized_product_sum(x, vectors)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(d=3, n=4, seed=0)
def test_coefficient_extract_equals_the_symmetrized_sum_on_any_operator(d, n, seed):
    rng = np.random.default_rng(seed)
    x = _random_matrix(rng, d**n)
    vectors = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(n)]
    rhs = symmetrized_product_sum(x, vectors)
    assert abs(coefficient_extract(x, vectors) - rhs) <= 1e-9 * max(1.0, abs(rhs))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(d=2, n=3, seed=0, scale=1.0)
@example(d=3, n=3, seed=1, scale=1e3)
def test_reconstruct_from_diagonal_recovers_any_operator(d, n, seed, scale):
    x = scale * _random_matrix(np.random.default_rng(seed), d**n)
    got = reconstruct_from_diagonal(lambda t: product_grid_expectations(x, t, n), d, n)
    assert np.abs(got - x).max() < 1e-12 * scale


def test_coefficient_extract_refuses_bad_shapes():
    rng = np.random.default_rng(66)
    vectors = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2)]
    with pytest.raises(DimensionMismatchError):
        coefficient_extract(_random_matrix(rng, 8), vectors)  # X on 3 copies, 2 vectors
    with pytest.raises(DimensionMismatchError):
        coefficient_extract(_random_matrix(rng, 6), [vectors[0], np.ones(3)])
    with pytest.raises(DimensionMismatchError):
        coefficient_extract(_random_matrix(rng, 1), [])


def test_reconstruct_from_moments_recovers_invariant_operator():
    rng = np.random.default_rng(67)
    space = CopySpace(2, 2)
    x = twirl(random_hermitian(4, rng), space)
    probes = random_probe_states(2, 14, seed=5)
    rec = reconstruct_from_moments(_moment_oracle(x, 2), 2, 2, probes)
    assert np.abs(rec.matrix - x).max() < 1e-8
    assert rec.rank == rec.n_basis == 10
    assert rec.condition_number < 1e8
    assert rec.residual < 1e-10


def test_reconstruct_from_moments_copy_average_target():
    probes = random_probe_states(2, 12, seed=6)
    space = CopySpace(2, 2)
    target = copy_average(Z, space)
    rec = reconstruct_from_moments(_moment_oracle(target, 2), 2, 2, probes)
    assert np.abs(rec.matrix - target).max() < 1e-8


def test_reconstruct_from_moments_needs_enough_probes():
    probes = random_probe_states(2, 9, seed=7)
    with pytest.raises(ConditioningError) as err:
        reconstruct_from_moments(_moment_oracle(np.eye(4), 2), 2, 2, probes)
    assert err.value.code == "PROBE_RANK"


def test_reconstruct_from_moments_flags_degenerate_probes():
    # identical probes cannot span the invariant space
    rng = np.random.default_rng(68)
    probe = random_density(2, rng)
    with pytest.raises(ConditioningError):
        reconstruct_from_moments(_moment_oracle(np.eye(4), 2), 2, 2, [probe] * 12)


def test_vanishing_moments_imply_vanishing_invariant_operator():
    # oracle that reports zero moments must reconstruct (near) zero,
    # while a genuinely nonzero invariant operator has a visible moment
    probes = random_probe_states(2, 14, seed=8)
    rec = reconstruct_from_moments(lambda rho: 0.0, 2, 2, probes)
    assert np.linalg.norm(rec.matrix) <= 1e-6
    target = copy_average(Z, CopySpace(2, 2))
    moments = [abs(_moment_oracle(target, 2)(rho)) for rho in probes]
    assert max(moments) > 1e-3


def test_random_probe_states_seeded():
    a = random_probe_states(2, 3, seed=1)
    b = random_probe_states(2, 3, seed=1)
    for x, y in zip(a, b):
        assert np.array_equal(x.matrix, y.matrix)
