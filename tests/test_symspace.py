import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsavg.errors import DimensionCapError, DimensionMismatchError, OperatorValidationError
from obsavg.linops import expect, random_density, random_hermitian
from obsavg.symspace import (
    CopySpace,
    _irrep_dims,
    _schur_basis,
    copy_average,
    invariant_basis,
    lift,
    orbit_sums,
    pair_orbit_labels,
    twirl,
)
from perm_oracle import (
    Permutation,
    all_permutations,
    composite_index_map,
    is_perm_invariant,
    permutation_operator,
    transposition,
)

Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)


def test_permutation_basics():
    sigma = Permutation((1, 2, 0))
    assert sigma(0) == 1 and sigma(2) == 0
    assert sigma.inverse().mapping == (2, 0, 1)
    assert sigma.compose(sigma.inverse()).mapping == (0, 1, 2)
    assert Permutation.identity(3).mapping == (0, 1, 2)
    with pytest.raises(OperatorValidationError):
        Permutation((0, 0, 1))


def test_compose_is_function_composition():
    rng = np.random.default_rng(30)
    for _ in range(10):
        a = Permutation(tuple(rng.permutation(4).tolist()))
        b = Permutation(tuple(rng.permutation(4).tolist()))
        c = a.compose(b)
        for x in range(4):
            assert c(x) == a(b(x))


def test_copy_space_validation():
    space = CopySpace(2, 3)
    assert space.total_dim == 8
    with pytest.raises(DimensionMismatchError):
        CopySpace(2, 0)
    with pytest.raises(DimensionCapError):
        CopySpace(2, 13)  # 8192 > 4096


def test_composite_index_map_swap():
    space = CopySpace(2, 2)
    t_id = composite_index_map(Permutation.identity(2), space)
    assert np.array_equal(t_id, [0, 1, 2, 3])
    t_swap = composite_index_map(transposition(0, 1, 2), space)
    assert np.array_equal(t_swap, [0, 2, 1, 3])


def test_permutation_operator_swap_example():
    space = CopySpace(2, 2)
    p = permutation_operator(transposition(0, 1, 2), space)
    # |01> (index 1) must map to |10> (index 2)
    e1 = np.zeros(4)
    e1[1] = 1.0
    out = p @ e1
    assert out[2] == 1.0 and np.sum(np.abs(out)) == 1.0


def test_permutation_operator_is_permutation_unitary():
    space = CopySpace(2, 3)
    for sigma in all_permutations(3):
        p = permutation_operator(sigma, space)
        assert np.abs(p @ p.conj().T - np.eye(8)).max() < 1e-15
        assert np.array_equal(np.sort(np.abs(p).sum(axis=0)), np.ones(8))


def test_permutation_operator_composition_convention():
    space = CopySpace(2, 3)
    rng = np.random.default_rng(31)
    for _ in range(8):
        sigma = Permutation(tuple(rng.permutation(3).tolist()))
        tau = Permutation(tuple(rng.permutation(3).tolist()))
        lhs = permutation_operator(sigma, space) @ permutation_operator(tau, space)
        rhs = permutation_operator(sigma.compose(tau), space)
        assert np.abs(lhs - rhs).max() < 1e-15


def test_lift_positions():
    space = CopySpace(2, 2)
    assert np.array_equal(lift(Z, 0, space), np.kron(Z, I2))
    assert np.array_equal(lift(Z, 1, space), np.kron(I2, Z))
    with pytest.raises(DimensionMismatchError):
        lift(Z, 2, space)
    with pytest.raises(DimensionMismatchError):
        lift(np.eye(3), 0, space)


def test_lift_trace_and_spectrum():
    rng = np.random.default_rng(32)
    a = random_hermitian(2, rng)
    space = CopySpace(2, 3)
    lifted = lift(a, 1, space)
    assert np.trace(lifted) == pytest.approx(np.trace(a) * 4)
    w_a = np.linalg.eigvalsh(a)
    w_l = np.linalg.eigvalsh(lifted)
    assert np.allclose(np.sort(np.repeat(w_a, 4)), w_l)


def test_copy_average_examples():
    space = CopySpace(2, 2)
    avg = copy_average(Z, space)
    assert np.allclose(avg, np.diag([1.0, 0.0, 0.0, -1.0]))
    one = CopySpace(2, 1)
    assert np.allclose(copy_average(Z, one), Z)
    w = np.linalg.eigvalsh(copy_average(Z, CopySpace(2, 3)))
    assert np.allclose(w, [-1.0, -1 / 3, -1 / 3, -1 / 3, 1 / 3, 1 / 3, 1 / 3, 1.0])


def test_copy_average_expectation_identity():
    rng = np.random.default_rng(33)
    a = random_hermitian(3, rng)
    rho = random_density(3, rng)
    space = CopySpace(3, 2)
    joint = rho.tensor_power(2)
    assert expect(copy_average(a, space), joint) == pytest.approx(
        expect(a, rho.matrix), abs=1e-12
    )


def test_twirl_examples():
    space = CopySpace(2, 2)
    e01 = np.zeros((4, 4), dtype=complex)
    e01[1, 1] = 1.0
    out = twirl(e01, space)
    assert np.allclose(out, np.diag([0.0, 0.5, 0.5, 0.0]))
    assert np.allclose(twirl(np.eye(4), space), np.eye(4))


def test_twirl_matches_conjugation_oracle_and_is_projection():
    rng = np.random.default_rng(34)
    for d, n in [(2, 3), (3, 2), (2, 4), (1, 3)]:
        space = CopySpace(d, n)
        dim = space.total_dim
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        acc = np.zeros_like(x)
        for sigma in all_permutations(n):
            p = permutation_operator(sigma, space)
            acc += p.conj().T @ x @ p
        oracle = acc / math.factorial(n)
        # every entry of the twirl is the mean of x over its index-pair orbit
        labels = pair_orbit_labels(space)
        orbit_mean = (orbit_sums(x, space) / np.bincount(labels.reshape(-1)))[labels]
        assert np.abs(orbit_mean - oracle).max() < 1e-13
        out = twirl(x, space)
        assert np.abs(out - oracle).max() < 1e-13
        assert np.abs(twirl(out, space) - out).max() < 1e-13
        assert np.trace(out) == pytest.approx(np.trace(x))
        assert is_perm_invariant(out, space, tol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(d=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(d=3, n=4, seed=0)
def test_twirl_is_the_trace_preserving_group_average_projection(d, n, seed):
    space = CopySpace(d, n)
    dim = space.total_dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    oracle = sum(p.conj().T @ x @ p for p in
                 (permutation_operator(sigma, space) for sigma in all_permutations(n)))
    out = twirl(x, space)
    assert np.abs(out - oracle / math.factorial(n)).max() < 1e-12
    assert np.abs(twirl(out, space) - out).max() < 1e-13
    assert np.trace(out) == pytest.approx(np.trace(x), abs=1e-12)
    rho = random_density(d, rng).tensor_power(n)
    assert np.trace(out @ rho) == pytest.approx(np.trace(x @ rho), abs=1e-12)


def test_pair_orbit_labels_match_bruteforce_orbits():
    for d, n in [(1, 3), (2, 2), (2, 3), (3, 3)]:
        space = CopySpace(d, n)
        dim = space.total_dim
        # orbit code: the smallest pair code i * dim + j over all relabelings
        codes = np.full((dim, dim), np.iinfo(np.int64).max)
        for sigma in all_permutations(n):
            t = composite_index_map(sigma, space)
            np.minimum(codes, t[:, None] * dim + t[None, :], out=codes)
        _, oracle = np.unique(codes, return_inverse=True)
        labels = pair_orbit_labels(space)
        assert np.array_equal(labels, oracle.reshape(dim, dim))
        assert not labels.flags.writeable


def test_twirl_fixes_copy_average():
    rng = np.random.default_rng(35)
    a = random_hermitian(2, rng)
    space = CopySpace(2, 3)
    avg = copy_average(a, space)
    assert np.abs(twirl(avg, space) - avg).max() < 1e-13


def test_twirl_beyond_nine_factorial_permutations():
    # n=9: 362880 permutations; the orbit labels never enumerate them
    rng = np.random.default_rng(37)
    space = CopySpace(2, 9)
    x = random_hermitian(space.total_dim, rng)
    out = twirl(x, space)
    assert np.abs(twirl(out, space) - out).max() < 1e-13
    assert is_perm_invariant(out, space, tol=1e-12)
    avg = copy_average(random_hermitian(2, rng), space)
    assert np.abs(twirl(avg, space) - avg).max() < 1e-13


def test_is_perm_invariant_cases():
    space = CopySpace(2, 2)
    assert is_perm_invariant(np.eye(4), space)
    assert is_perm_invariant(copy_average(Z, space), space)
    assert not is_perm_invariant(lift(Z, 0, space), space)
    x = copy_average(Z, space).copy()
    x[0, 1] += 1e-6
    assert not is_perm_invariant(x, space, tol=1e-9)
    assert is_perm_invariant(x, space, tol=1e-3)


@pytest.mark.parametrize(
    "d,n",
    [(2, 2), (2, 3), (3, 2), (1, 3), (2, 6), (3, 4)],
)
def test_invariant_basis_count_matches_multiset_formula(d, n):
    # dimension of the invariant matrix subspace: multisets of size n over d*d symbols
    expected = math.comb(d * d + n - 1, n)
    assert len(invariant_basis(CopySpace(d, n))) == expected


def test_invariant_basis_partitions_and_spans():
    space = CopySpace(2, 2)
    basis = invariant_basis(space)
    total = np.zeros((4, 4), dtype=complex)
    for b in basis:
        assert set(np.unique(b.real)) <= {0.0, 1.0}
        assert np.abs(twirl(b, space) - b).max() < 1e-13
        total += b
    # orbits partition the index pairs: disjoint supports covering everything
    assert np.array_equal(total, np.ones((4, 4), dtype=complex))
    # any twirled operator is constant on each orbit
    rng = np.random.default_rng(36)
    x = twirl(random_hermitian(4, rng), space)
    for b in basis:
        vals = x[b.real == 1.0]
        assert np.abs(vals - vals[0]).max() < 1e-12


SCHUR_SIZES = [(d, n) for d, top in ((2, 6), (3, 4), (4, 3)) for n in range(1, top + 1)]


def _young_shapes(n: int, rows: int) -> list[tuple[int, ...]]:
    """Partitions of n with at most rows parts, lexicographically descending."""
    shapes = {tuple(sorted(c, reverse=True)) for c in itertools.product(range(n + 1), repeat=rows)
              if sum(c) == n}
    return sorted((tuple(r for r in shape if r) for shape in shapes), reverse=True)


def _semistandard_count(shape: tuple[int, ...], d: int) -> int:
    """Fillings of shape from 1..d, rows weakly and columns strictly increasing."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    count = 0
    for filling in itertools.product(range(d), repeat=len(cells)):
        t = dict(zip(cells, filling))
        count += all((j == 0 or t[i, j - 1] <= t[i, j]) and (i == 0 or t[i - 1, j] < t[i, j])
                     for i, j in cells)
    return count


def _standard_count(shape: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape, by the hook-length formula."""
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            below = sum(1 for r in shape[i + 1:] if r > j)
            hooks *= row - j + below
    return math.factorial(sum(shape)) // hooks


@pytest.mark.parametrize("d,n", SCHUR_SIZES)
def test_schur_basis_is_unitary_and_made_of_weight_vectors(d, n):
    schur = _schur_basis(d, n)
    space = CopySpace(d, n)
    v = schur.vectors
    assert not v.flags.writeable
    assert np.abs(v.conj().T @ v - np.eye(d**n)).max() < 1e-13
    # sum_k lift(|a><a|, k) counts the digits a: diagonal, with the row's weight
    weights = np.concatenate([np.repeat(schur.counts[b, :size], mult, axis=0)
                              for b, (size, mult, _) in enumerate(schur.blocks)])
    for a in range(d):
        digit = np.zeros((d, d))
        digit[a, a] = 1.0
        number = sum(lift(digit, k, space) for k in range(n))
        assert np.abs(v.conj().T @ number @ v - np.diag(weights[:, a])).max() < 1e-12


@pytest.mark.parametrize("d,n", SCHUR_SIZES)
def test_schur_blocks_count_tableaux(d, n):
    schur = _schur_basis(d, n)
    shapes = _young_shapes(n, d)
    assert len(schur.blocks) == len(shapes)
    col = 0
    for b, (shape, (size, mult, cols)) in enumerate(zip(shapes, schur.blocks)):
        # the first row of a block is its highest weight, lambda itself
        assert tuple(schur.counts[b, 0]) == shape + (0,) * (d - len(shape))
        assert size == _semistandard_count(shape, d)
        assert mult == _standard_count(shape)
        assert (cols.start, cols.stop) == (col, col + size * mult)
        col = cols.stop
        assert (schur.counts[b, :size].sum(axis=1) == n).all()
        assert not schur.counts[b, size:].any()
    assert col == d**n
    assert sum(size**2 for size, _, _ in schur.blocks) == len(invariant_basis(CopySpace(d, n)))
    # the hook-content sizes the adversary's memory rule reads before building it
    assert _irrep_dims(d, n) == [size for size, _, _ in schur.blocks]
