import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsavg import adversary
from obsavg.adversary import (
    BLOCK_STACKS,
    LIFT_MATRICES,
    _coupled_basis,
    _lift_blocks,
    compare,
    project_unbiased_povm,
    run_trials,
    smear_povm,
)
from obsavg.errors import (
    DimensionCapError,
    DimensionMismatchError,
    InfeasibleError,
    ObsavgError,
    PovmValidationError,
)
from obsavg.estimators import canonical_error, canonical_povm, total_variation
from obsavg.linops import DensityMatrix, Observable, pure_state, random_density, random_hermitian
from obsavg.povm import Povm
from obsavg.symspace import CopySpace, _irrep_dims, _schur_basis, twirl
from competitors import COMPETITORS
from dense_oracle import lift, search_product_basis
from perm_oracle import is_perm_invariant

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SPIN1_Z = np.diag([1.0, 0.0, -1.0]).astype(complex)


def _spanning_grid(a, size: int) -> np.ndarray:
    obs = Observable(a)
    return np.linspace(obs.lambda_min, obs.lambda_max, size)


@pytest.mark.parametrize("grid,settings,message", [
    ((), {}, "value grid must be nonempty"),
    ((np.inf, 0.0), {}, "value grid must be finite"),
    ((-1.0, np.nan, 1.0), {}, "value grid must be finite"),
    ((-1.0, 1.0), {"max_iterations": 0}, "max_iterations must be an integer >= 1"),
    # a fractional count once never met the loop's stop and ran for ever
    ((-1.0, 1.0), {"max_iterations": 3.5}, "max_iterations must be an integer >= 1"),
    ((-1.0, 1.0), {"convergence_tol": 0.0}, "convergence_tol must be > 0"),
    ((-1.0, 1.0), {"convergence_tol": np.nan}, "convergence_tol must be > 0"),
], ids=["empty", "inf", "nan", "zero-iterations", "fractional-iterations", "zero-tol",
        "nan-tol"])
def test_project_validates_its_settings(grid, settings, message):
    with pytest.raises(ObsavgError) as err:
        project_unbiased_povm(Z, CopySpace(2, 2), grid, **settings)
    assert err.value.code == "BAD_GRID"
    assert str(err.value) == message


def _block_stack(d: int, n: int, n_out: int) -> np.ndarray:
    """Zeros in the search's (blocks, M, R, R) layout."""
    schur = _schur_basis(d, n)
    return np.zeros((len(schur.blocks), n_out) + (schur.counts.shape[1],) * 2, dtype=complex)


def _canonical_block_start(obs: Observable, n: int, values: np.ndarray) -> np.ndarray:
    """The canonical POVM in blocks: each row's diagonal entry is 1 on the
    outcome nearest that row's type mean counts @ eigenvalues / n."""
    schur = _schur_basis(obs.dim, n)
    theta = schur.counts @ obs.eigenvalues / n
    nearest = np.abs(theta[..., None] - values).argmin(axis=-1)
    start = _block_stack(obs.dim, n, values.size)
    b, r = np.nonzero(schur.counts.any(axis=-1))
    start[b, nearest[b, r], r, r] = 1.0
    return start


def _random_block_start(d: int, n: int, n_out: int, rng) -> np.ndarray:
    """Random PSD blocks in the search's (blocks, M, R, R) layout."""
    shape = _block_stack(d, n, n_out).shape
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g @ g.conj().swapaxes(-1, -2) / shape[-1]


def test_canonical_start_converges_immediately():
    for a, space in [(Z, CopySpace(2, 2)), (SPIN1_Z, CopySpace(3, 3))]:
        p = canonical_povm(a, space)
        start = _canonical_block_start(Observable(a), space.n_copies, p.values)
        result = project_unbiased_povm(a, space, p.values, start=start, max_iterations=50)
        assert result.iterations == 0
        assert result.completeness_residual <= 1e-12
        assert np.abs(result.povm.elements - p.elements).max() <= 1e-12


def test_start_off_the_cone_is_not_returned_as_a_povm():
    # canonical Z in blocks at n = 2 with row 1 of block 0, the symmetric
    # weight-1 row, moved: +1 on the outcomes -1 and +1, -2 on 0. Complete
    # and unbiased, so the gaps vanish, but the element for 0 has eigenvalue -1
    space = CopySpace(2, 2)
    p = canonical_povm(Z, space)
    start = _canonical_block_start(Observable(Z), 2, p.values)
    start[0, :, 1, 1] += p.values**2 * 3 - 2
    assert np.linalg.eigvalsh(start).min() < -0.9
    result = project_unbiased_povm(Z, space, p.values, start=start, max_iterations=50)
    assert result.povm.validate().ok
    assert result.povm.unbiasedness_residual(Z) <= 1e-9


def test_project_copies_the_start():
    space = CopySpace(2, 3)
    grid = _spanning_grid(Z, 5)
    start = _random_block_start(2, 3, grid.size, np.random.default_rng(8))
    kept = start.copy()
    result = project_unbiased_povm(Z, space, grid, start=start, convergence_tol=1e-10)
    assert result.povm.validate().ok
    assert np.array_equal(start, kept)


def test_project_refuses_a_start_of_another_shape():
    # a dense (M, D, D) stack is no longer a start: blocks (3, 3) here
    space = CopySpace(2, 2)
    p = canonical_povm(Z, space)
    start = _canonical_block_start(Observable(Z), 2, p.values)
    for wrong in (p.elements, start[:, :2], start[..., :2, :2]):
        with pytest.raises(ObsavgError) as err:
            project_unbiased_povm(Z, space, p.values, start=wrong)
        assert err.value.code == "BAD_GRID"
        assert str(err.value) == f"start must have shape (2, 3, 3, 3), got {wrong.shape}"


def test_project_finds_valid_unbiased_povm():
    space = CopySpace(2, 2)
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    result = project_unbiased_povm(
        Z, space, grid, rng=np.random.default_rng(3)
    )
    povm = result.povm
    assert povm.validate().ok
    assert povm.unbiasedness_residual(Z) <= 1e-8
    assert result.iterations > 0


@pytest.mark.parametrize("a,space,seed", [(SPIN1_Z, CopySpace(3, 2), 13),
                                           *[(X, CopySpace(2, 3), s) for s in (16, 21, 26)]],
                         ids=["spin1-z-2-seed-13", "pauli-x-3-seed-16", "pauli-x-3-seed-21",
                              "pauli-x-3-seed-26"])
def test_project_lifts_again_when_the_first_lift_misses_completeness(monkeypatch, a, space,
                                                                     seed):
    # at a loose convergence_tol the first lift's completeness misses DEFAULT_TOL
    lifts = []

    def spy(*args):
        lifts.append(args)
        return lift_blocks(*args)

    lift_blocks = adversary._lift_blocks
    monkeypatch.setattr(adversary, "_lift_blocks", spy)
    result = project_unbiased_povm(a, space, np.linspace(-1.0, 1.0, 40),
                                   rng=np.random.default_rng(seed), convergence_tol=1e-4)
    assert len(lifts) == 2
    assert result.completeness_residual <= 1e-9
    result.povm.require_valid()


def test_project_rejects_uncovering_grid():
    with pytest.raises(InfeasibleError) as err:
        project_unbiased_povm(Z, CopySpace(2, 2), (0.0,))
    assert err.value.details["reason"] == "grid_coverage"


def test_project_rejects_out_of_range_grid():
    with pytest.raises(ObsavgError) as err:
        project_unbiased_povm(Z, CopySpace(2, 2), (-2.0, 0.0, 2.0))
    assert err.value.code == "BAD_GRID"


@pytest.mark.parametrize("a,local_dim", [(Z, 3), (SPIN1_Z, 2)], ids=["qubit-on-qutrits",
                                                                      "qutrit-on-qubits"])
def test_project_rejects_an_observable_of_another_dimension(a, local_dim):
    with pytest.raises(DimensionMismatchError):
        project_unbiased_povm(a, CopySpace(local_dim, 2), (-1.0, 0.0, 1.0))


@pytest.mark.parametrize("a,n", [(Z, 5), (SPIN1_Z, 3)], ids=["pauli-z-5", "spin1-z-3"])
def test_douglas_rachford_converges_in_tens_of_iterations(a, n):
    # plain alternating projections took a mean of 472 and 573 iterations here
    space = CopySpace(len(a), n)
    grid = _spanning_grid(a, 8)
    for seed in range(10):
        result = project_unbiased_povm(a, space, grid, rng=np.random.default_rng(seed),
                                       convergence_tol=1e-10)
        assert 0 < result.iterations <= 60
        assert result.povm.validate().ok


def test_project_reports_non_convergence():
    # no residual rounds to below 1e-300, whatever the draw
    with pytest.raises(InfeasibleError) as err:
        project_unbiased_povm(
            Z,
            CopySpace(2, 2),
            (-1.0, 0.0, 1.0),
            rng=np.random.default_rng(0),
            max_iterations=3,
            convergence_tol=1e-300,
        )
    assert err.value.details["reason"] == "no_convergence"
    assert err.value.details["iterations"] == 3


def _traced(call):
    """call()'s result, or the ObsavgError it raised, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        try:
            outcome = call()
        except ObsavgError as err:
            outcome = err
        return outcome, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _check_trial_memory_guard(monkeypatch, a, n: int, tol: float, cap: int = 1024) -> None:
    """A trial at n copies, search and compare, may hold one cap-sized complex matrix.

    The largest grid the rule accepts at n copies peaks within 80-100% of
    the bound; one more grid point, or one more copy, is refused before
    anything of size D is allocated.
    """
    bound = 16 * cap * cap
    monkeypatch.setenv("OBSAVG_DIM_CAP", str(cap))
    d = len(a)
    run_trials(a, CopySpace(d, 2), (-1.0, 1.0), 1)  # numpy's lazy imports
    space = CopySpace(d, n)

    def accepted(m: int, n: int) -> bool:
        sizes = _irrep_dims(d, n)
        stack = m * len(sizes) * max(sizes) ** 2
        return 16 * (d ** (2 * n) * (m + LIFT_MATRICES) + BLOCK_STACKS * stack) <= bound

    def trial(size, trial_space):
        grid = _spanning_grid(a, size)
        return lambda: run_trials(a, trial_space, grid, 1, seed=5, convergence_tol=tol)

    m = 2  # the largest grid accepted at n copies
    while accepted(m + 1, n):
        m += 1
    _schur_basis.cache_clear()  # the basis is built inside the trace
    (_, summary), peak = _traced(trial(m, space))
    assert summary["converged"] == 1
    assert 0.8 * bound < peak <= bound
    assert accepted(2, n) and not accepted(2, n + 1)
    for size, refused_space in [(m + 1, space), (2, CopySpace(d, n + 1))]:
        outcome, peak = _traced(trial(size, refused_space))
        assert isinstance(outcome, DimensionCapError)
        assert peak < 2**20


def test_project_memory_guard_matches_its_peak(monkeypatch):
    _check_trial_memory_guard(monkeypatch, X, 8, 1e-8)  # D = 256, M = 9


def test_qutrit_memory_guard_matches_its_peak(monkeypatch):
    # the same rule at d = 3; 1e-8 would leave completeness short of validation
    _check_trial_memory_guard(monkeypatch, SPIN1_Z, 5, 1e-10)  # D = 243, M = 10


def test_qutrit_memory_guard_counts_the_block_stacks(monkeypatch):
    # D = 81, blocks of 15, 15, 6 and 3 rows: the three block stacks come to
    # 0.4 of the lifted stack, M = 13
    _check_trial_memory_guard(monkeypatch, SPIN1_Z, 4, 1e-10, cap=400)


def _spin_operators(n: int) -> list[np.ndarray]:
    """J_x, J_y, J_z of n qubits as sums of single-copy lifts, digit 1 as spin up."""
    space = CopySpace(2, n)
    halves = [X / 2, np.array([[0.0, 1j], [-1j, 0.0]]) / 2, np.diag([-0.5, 0.5])]
    return [sum(lift(h, k, space) for k in range(n)) for h in halves]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spin_basis_is_unitary_and_diagonalises_jz_and_j2(n):
    schur = _schur_basis(2, n)
    basis = schur.vectors
    assert np.abs(basis.conj().T @ basis - np.eye(2**n)).max() < 1e-13
    jx, jy, jz = _spin_operators(n)
    j2 = jx @ jx + jy @ jy + jz @ jz
    m_z, j_j1 = [], []
    for b, (size, mult, cols) in enumerate(schur.blocks):
        # block b has spin n/2 - b; row w has w + b digits 1
        j = n / 2 - b
        assert size == 2 * j + 1
        for w in range(size):
            assert list(schur.counts[b, w]) == [n - b - w, b + w]
            m_z += [b + w - n / 2] * mult
            j_j1 += [j * (j + 1)] * mult
    assert np.abs(basis.conj().T @ jz @ basis - np.diag(m_z)).max() < 1e-12
    assert np.abs(basis.conj().T @ j2 @ basis - np.diag(j_j1)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_twirl_is_block_times_identity_in_spin_basis(n):
    for d in (2, 3):
        rng = np.random.default_rng(40 + n)
        space = CopySpace(d, n)
        dim = space.total_dim
        schur = _schur_basis(d, n)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        y = schur.vectors.conj().T @ twirl(x, space) @ schur.vectors
        for size, mult, cols in schur.blocks:
            block = y[cols, cols]
            x_b = block[::mult, ::mult]
            assert np.abs(block - np.kron(x_b, np.eye(mult))).max() < 1e-12
            assert np.abs(x_b).min() > 1e-3
            y[cols, cols] = 0.0
        assert np.abs(y).max() < 1e-12


def _check_block_route_against_dense(a, n: int, grid, seed: int) -> None:
    """The block route from a random block start and the dense solver from its lift agree."""
    obs = Observable(a)
    space = CopySpace(obs.dim, n)
    start = _random_block_start(obs.dim, n, len(grid), np.random.default_rng(seed))
    lifted = _lift_blocks(start, _coupled_basis(obs, n), _schur_basis(obs.dim, n))
    assert np.abs(np.stack([twirl(e, space) for e in lifted]) - lifted).max() <= 1e-12
    block = project_unbiased_povm(obs, space, grid, start=start, convergence_tol=1e-12)
    dense = search_product_basis(obs, space, np.asarray(grid, dtype=float), lifted,
                                 None, 5000, 1e-12)
    for result in (block, dense):
        povm = result.povm
        report = povm.validate()
        assert report.ok and report.completeness_residual <= 1e-12
        assert all(is_perm_invariant(e, space, tol=1e-9) for e in povm.elements)
        assert povm.unbiasedness_residual(obs) <= 1e-9
    assert np.abs(block.povm.elements - dense.povm.elements).max() <= 1e-8
    report = compare(block.povm, obs, random_density(obs.dim, np.random.default_rng(seed)))
    assert report.gap >= -1e-8


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sizes=st.sampled_from([(d, n) for d, top in ((3, 3), (2, 5)) for n in range(top, 0, -1)]),
       coefficients=st.lists(st.floats(-2.0, 2.0), min_size=9, max_size=9),
       size=st.integers(3, 6), seed=st.integers(0, 2**16))
def test_block_route_matches_the_dense_solver(sizes, coefficients, size, seed):
    d, n = sizes
    # a Hermitian d x d matrix: the diagonal, then real and imaginary parts
    # of the upper triangle
    a = np.diag(np.asarray(coefficients[:d], dtype=complex))
    upper = np.triu_indices(d, 1)
    pairs = len(upper[0])
    a[upper] = np.asarray(coefficients[d:d + pairs]) + 1j * np.asarray(
        coefficients[d + pairs:d + 2 * pairs])
    a = a + np.triu(a, 1).conj().T
    # a near-degenerate spectrum leaves a row of the copy average just short
    # of an extreme or the grid values nearly equal, which slows or stalls
    # both solvers alike; exactly degenerate spectra are checked on their own
    # below
    assume(np.diff(np.linalg.eigvalsh(a)).min() >= 0.2)
    grid = _spanning_grid(a, size)
    _check_block_route_against_dense(a, n, grid, seed)


@pytest.mark.parametrize("a,n,grid", [
    (X, 1, (-1.0, 0.0, 1.0)),
    (Z + 0.5 * X, 2, (-1.118033988749895, -0.3, 0.2, 1.118033988749895)),
    (2.0 * np.eye(2), 3, (2.0, 2.0, 2.0)),  # degenerate: one eigenvalue
    (np.diag([1.0, 1.0, 0.0]), 3, (0.0, 0.25, 0.5, 1.0)),  # a twice degenerate top
    (2.0 * np.eye(3), 2, (2.0, 2.0, 2.0)),
], ids=["one-copy", "two-copies", "degenerate", "qutrit-degenerate-top", "qutrit-identity"])
def test_block_route_matches_the_dense_solver_at_the_edges(a, n, grid):
    _check_block_route_against_dense(a, n, grid, seed=9)


def test_project_is_deterministic_for_a_seeded_rng():
    space = CopySpace(2, 2)
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    p1 = project_unbiased_povm(Z, space, grid, rng=np.random.default_rng(11)).povm
    p2 = project_unbiased_povm(Z, space, grid, rng=np.random.default_rng(11)).povm
    assert np.array_equal(p1.elements, p2.elements)
    assert p1.validate().ok


def test_smear_zero_deltas_keeps_distribution():
    space = CopySpace(2, 2)
    base = canonical_povm(Z, space)
    smeared = smear_povm(base, deltas=np.zeros(base.n_outcomes))
    rho = random_density(2, np.random.default_rng(70))
    tv = total_variation(base.probabilities(rho), smeared.probabilities(rho))
    assert tv <= 1e-12
    assert np.abs(smeared.first_moment() - base.first_moment()).max() < 1e-14


def test_smear_error_oracle_maximally_mixed():
    # canonical Z on one copy, rho = I/2, both deltas 0.2:
    # outcomes (+-1.2, +-0.8) each with probability 1/4, mean 0,
    # so the squared error is (1.44 + 0.64 + 0.64 + 1.44) / 4 = 1.04
    base = canonical_povm(Z, CopySpace(2, 1))
    smeared = smear_povm(base, deltas=[0.2, 0.2])
    rho = DensityMatrix(np.eye(2) / 2)
    dist = smeared.probabilities(rho)
    assert sorted(np.round(dist.values, 12)) == [-1.2, -0.8, 0.8, 1.2]
    assert np.allclose(dist.probabilities, 0.25)
    assert smeared.estimation_error(Z, rho) ** 2 == pytest.approx(1.04)
    assert base.estimation_error(Z, rho) ** 2 == pytest.approx(1.0)


def test_smear_variance_increase_identity():
    rng = np.random.default_rng(71)
    space = CopySpace(2, 2)
    for trial in range(10):
        a = Observable(random_hermitian(2, rng))
        base = canonical_povm(a, space)
        deltas = rng.uniform(0.0, 0.3, size=base.n_outcomes)
        smeared = smear_povm(base, deltas=deltas)
        rho = random_density(2, rng)
        base_dist = base.probabilities(rho)
        lhs = smeared.estimation_error(a, rho) ** 2 - base.estimation_error(a, rho) ** 2
        rhs = float(base_dist.probabilities @ deltas**2)
        assert abs(lhs - rhs) <= 1e-12


def test_smear_seeded_draw_and_validation():
    base = canonical_povm(Z, CopySpace(2, 2))
    s1 = smear_povm(base, seed=4, value_range=(-1.0, 1.0))
    s2 = smear_povm(base, seed=4, value_range=(-1.0, 1.0))
    assert np.array_equal(s1.values, s2.values)
    assert s1.values.max() <= 1.0 + 1e-12
    assert s1.values.min() >= -1.0 - 1e-12
    assert s1.unbiasedness_residual(Z) < 1e-12
    with pytest.raises(ObsavgError):
        smear_povm(base, deltas=[0.1])
    with pytest.raises(ObsavgError):
        smear_povm(base, deltas=[-0.1, 0.0, 0.0])
    with pytest.raises(ObsavgError):
        smear_povm(base, deltas=[0.5, 0.0, 0.0], value_range=(-1.0, 1.0))


def test_compare_canonical_has_zero_gap():
    space = CopySpace(2, 3)
    rng = np.random.default_rng(72)
    a = Observable(random_hermitian(2, rng))
    rho = random_density(2, rng)
    report = compare(canonical_povm(a, space), a, rho)
    assert abs(report.gap) <= 1e-10
    assert report.unbiasedness_residual <= 1e-10
    assert report.moment_floor >= -1e-9


def test_compare_smeared_gap_matches_formula():
    space = CopySpace(2, 2)
    base = canonical_povm(Z, space)
    # only the interior outcome is smeared, keeping values inside the spectrum
    deltas = np.array([0.0, 0.15, 0.0])
    smeared = smear_povm(base, deltas=deltas)
    rho = random_density(2, np.random.default_rng(73))
    report = compare(smeared, Z, rho)
    increase = float(base.probabilities(rho).probabilities @ deltas**2)
    expected_gap = increase / (report.adversary_error + report.canonical_error)
    assert report.gap == pytest.approx(expected_gap, abs=1e-12)
    assert report.gap > 0


def test_compare_rejects_biased_povm():
    space = CopySpace(2, 2)
    base = canonical_povm(Z, space)
    biased = Povm(base.values + 0.2, base.elements, space)
    rho = random_density(2, np.random.default_rng(74))
    with pytest.raises(PovmValidationError) as err:
        compare(biased, Z, rho)
    assert err.value.code == "POVM_BIASED"


@pytest.mark.parametrize("make, weight_squares", [c[1:] for c in COMPETITORS],
                         ids=[c[0] for c in COMPETITORS])
def test_compare_takes_unbiased_competitors_off_the_invariant_subspace(make, weight_squares):
    p = make()
    rho = random_density(2, np.random.default_rng(75))
    variance = Observable(Z).variance(rho)
    report = compare(p, Z, rho)
    assert report.unbiasedness_residual <= 1e-15
    assert report.adversary_error == pytest.approx(np.sqrt(weight_squares * variance), abs=1e-12)
    assert report.gap == pytest.approx(
        np.sqrt(weight_squares * variance) - np.sqrt(variance / p.space.n_copies), abs=1e-12)
    assert report.gap > 0


def test_compare_rejects_invalid_povm():
    space = CopySpace(2, 1)
    bad = Povm([1.0, -1.0], [np.eye(2, dtype=complex), np.eye(2, dtype=complex)], space)
    with pytest.raises(PovmValidationError):
        compare(bad, Z, DensityMatrix(np.eye(2) / 2))


def test_compare_warns_on_out_of_range_values():
    base = canonical_povm(Z, CopySpace(2, 1))
    wide = smear_povm(base, deltas=[0.5, 0.5])  # values reach +-1.5
    rho = DensityMatrix(np.eye(2) / 2)
    with pytest.warns(UserWarning):
        report = compare(wide, Z, rho)
    assert report.gap > 0


def test_run_trials_batch():
    space = CopySpace(2, 2)
    grid = (-1.0, -0.5, 0.0, 0.5, 1.0)
    rows, summary = run_trials(Z, space, grid, 5, seed=100)
    assert len(rows) == 5
    assert summary["trials"] == 5
    assert summary["converged"] == 5
    assert summary["min_gap"] >= -1e-8
    assert summary["max_unbiasedness_residual"] <= 1e-8
    for row in rows:
        assert row["converged"]
        assert row["moment_floor"] >= -1e-9
    rows2, summary2 = run_trials(Z, space, grid, 5, seed=100)
    assert rows == rows2 and summary == summary2


def test_run_trials_records_a_trial_that_does_not_converge(monkeypatch):
    real = adversary.project_unbiased_povm

    def fail_second_trial(*args, rng, **kwargs):
        if rng.bit_generator.seed_seq.entropy == 101:
            raise InfeasibleError("no convergence", details={"reason": "no_convergence"})
        return real(*args, rng=rng, **kwargs)

    monkeypatch.setattr(adversary, "project_unbiased_povm", fail_second_trial)
    rows, summary = run_trials(Z, CopySpace(2, 2), (-1.0, -0.5, 0.0, 0.5, 1.0), 3, seed=100,
                               max_iterations=700)
    failed = rows[1]
    assert list(failed) == list(rows[0])
    assert failed["converged"] is False
    assert failed["iterations"] == 700
    metrics = list(failed)[4:]
    assert metrics == ["n_outcomes", "adversary_error", "canonical_error", "gap",
                       "unbiasedness_residual", "completeness_residual", "moment_floor"]
    assert all(failed[key] is None for key in metrics)
    done = [rows[0], rows[2]]
    assert all(row["converged"] for row in done)
    assert summary["trials"] == 3
    assert summary["converged"] == 2
    assert summary["min_gap"] == min(row["gap"] for row in done)
    assert summary["max_gap"] == max(row["gap"] for row in done)
    assert summary["mean_gap"] == pytest.approx((rows[0]["gap"] + rows[2]["gap"]) / 2)
    assert summary["max_completeness_residual"] == max(
        row["completeness_residual"] for row in done)
    assert summary["min_moment_floor"] == min(row["moment_floor"] for row in done)
    # a batch of failures only: every summary statistic is empty
    rows, summary = run_trials(Z, CopySpace(2, 2), (-1.0, 1.0), 1, seed=101)
    assert summary["converged"] == 0
    assert summary["min_gap"] is None and summary["mean_gap"] is None
