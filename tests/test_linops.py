import numpy as np
import pytest

from obsavg.errors import (
    DimensionCapError,
    DimensionMismatchError,
    ObsavgError,
    OperatorValidationError,
    StateValidationError,
)
from obsavg.linops import (
    DensityMatrix,
    Observable,
    as_matrix,
    default_dim_cap,
    eigh,
    expect,
    hermitian_defect,
    pure_state,
    random_density,
    random_hermitian,
    tensor_power,
    trace_product,
)
from obsavg.symspace import CopySpace

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_tensor_power_small():
    out = tensor_power(Z, 3)
    assert out.shape == (8, 8)
    assert np.array_equal(np.diag(out).real, [1, -1, -1, 1, -1, 1, 1, -1])
    with pytest.raises(DimensionMismatchError):
        tensor_power(Z, 0)


def test_eigh_orders_and_reconstructs():
    w, v = eigh(Z)
    assert np.allclose(w, [-1.0, 1.0])
    rng = np.random.default_rng(11)
    m = random_hermitian(6, rng)
    w, v = eigh(m)
    assert np.all(np.diff(w) >= 0)
    assert np.abs(v @ np.diag(w) @ v.conj().T - m).max() < 1e-12
    assert np.abs(v.conj().T @ v - np.eye(6)).max() < 1e-12


def test_eigh_rejects_non_hermitian():
    with pytest.raises(OperatorValidationError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_expect_examples():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    assert expect(Z, rho0) == pytest.approx(1.0)
    plus = pure_state([1.0, 1.0])
    assert expect(Z, plus.matrix) == pytest.approx(0.0, abs=1e-15)
    assert expect(X, plus.matrix) == pytest.approx(1.0)


def test_expect_matches_elementwise_oracle():
    rng = np.random.default_rng(12)
    h = random_hermitian(5, rng)
    rho = random_density(5, rng).matrix
    oracle = np.sum(h * rho.T).real
    assert expect(h, rho) == pytest.approx(oracle, abs=1e-13)


def test_expect_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        expect(Z, np.eye(3) / 3)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(OperatorValidationError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(OperatorValidationError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_trace_product_oracle():
    rng = np.random.default_rng(14)
    a, b = random_hermitian(4, rng), random_hermitian(4, rng)
    assert trace_product(a, b) == pytest.approx(np.trace(a @ b))


def test_observable_validation_and_eigensystem():
    a = Observable(Z)
    assert a.dim == 2
    assert a.lambda_min == pytest.approx(-1.0)
    assert a.lambda_max == pytest.approx(1.0)
    # cached: same object on repeated access
    assert a.eigensystem is a.eigensystem
    with pytest.raises(OperatorValidationError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_matrix_is_read_only():
    a = Observable(Z)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_observable_variance_oracle():
    rng = np.random.default_rng(15)
    a = Observable(random_hermitian(3, rng))
    rho = random_density(3, rng)
    mean = expect(a.matrix, rho.matrix)
    second = expect(a.matrix @ a.matrix, rho.matrix)
    assert a.variance(rho) == pytest.approx(second - mean**2, abs=1e-12)


def test_variance_of_a_multiple_of_the_identity_is_rounding_small():
    # <A^2> - <A>^2 left about 4e-16 here, which canonical_error's square
    # root turned into 2e-8: a spurious adversary gap of -2e-8
    rng = np.random.default_rng(9)
    for d in (2, 3, 4):
        a = Observable(2.0 * np.eye(d))
        for _ in range(20):
            assert a.variance(random_density(d, rng)) <= 1e-28


def test_density_matrix_validation():
    rng = np.random.default_rng(16)
    rho = random_density(3, rng)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12
    with pytest.raises(StateValidationError):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(StateValidationError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(StateValidationError):
        DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]))  # not Hermitian


def test_density_tensor_power():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    big = rho.tensor_power(3)
    assert big.shape == (8, 8)
    assert np.trace(big).real == pytest.approx(1.0)
    with pytest.raises(DimensionCapError):
        rho.tensor_power(13)


def test_pure_state_normalizes():
    rho = pure_state([2.0, 0.0])
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    with pytest.raises(StateValidationError):
        pure_state([0.0, 0.0])


def test_hermitian_defect_value():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert hermitian_defect(m) == pytest.approx(1.0)
    assert hermitian_defect(Z) == 0.0


def test_dim_cap_env_override(monkeypatch):
    monkeypatch.setenv("OBSAVG_DIM_CAP", "16")
    assert default_dim_cap() == 16
    with pytest.raises(DimensionCapError):
        tensor_power(np.eye(5), 2)
    monkeypatch.setenv("OBSAVG_DIM_CAP", "not-a-number")
    with pytest.raises(ObsavgError):
        default_dim_cap()


@pytest.mark.parametrize("build", [
    lambda d, n: CopySpace(d, n).total_dim,
    lambda d, n: tensor_power(np.eye(d), n).shape[0],
], ids=["copy-space", "tensor-power"])
def test_dim_cap_boundary(monkeypatch, build):
    monkeypatch.setenv("OBSAVG_DIM_CAP", "27")
    assert build(3, 3) == 27  # D = cap is accepted
    for d, n in ((28, 1), (2, 5)):
        with pytest.raises(DimensionCapError) as info:
            build(d, n)
        assert info.value.code == "DIM_CAP"
        assert info.value.details["dim"] == d**n
