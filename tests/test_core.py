import numpy as np
import pytest

from pdcg import (
    DimensionMismatch,
    Hinge,
    LinearOperator,
    ProblemInstance,
    SquaredL2,
    ValidationError,
    as_vector,
    validate_instance,
)
from pdcg.core import clamp_gap, GapInconsistencyError


def test_apply_identity():
    op = LinearOperator.identity(2)
    np.testing.assert_array_equal(op.apply([3.0, -1.0]), [3.0, -1.0])


def test_apply_hand_values():
    op = LinearOperator([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(op.apply([1.0, 1.0]), [3.0, 1.0])
    np.testing.assert_array_equal(op.adjoint_apply([1.0, 1.0]), [1.0, 3.0])


def test_apply_zero_operator():
    op = LinearOperator(np.zeros((2, 2)))
    np.testing.assert_array_equal(op.apply([5.0, 7.0]), [0.0, 0.0])


def test_adjoint_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n, p = rng.integers(1, 9, size=2)
        op = LinearOperator(rng.standard_normal((n, p)))
        x = rng.standard_normal(p)
        y = rng.standard_normal(n)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint_apply(y))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_adjoint_identity_against_double_loop():
    # independent oracle: accumulate sum_ij A_ij x_j y_i one entry at a time
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 3))
    x = rng.standard_normal(3)
    y = rng.standard_normal(4)
    acc = 0.0
    for i in range(4):
        for j in range(3):
            acc += a[i, j] * x[j] * y[i]
    op = LinearOperator(a)
    assert abs(float(op.apply(x) @ y) - acc) <= 1e-12 * (1.0 + abs(acc))
    assert abs(float(x @ op.adjoint_apply(y)) - acc) <= 1e-12 * (1.0 + abs(acc))


def test_apply_deterministic():
    rng = np.random.default_rng(2)
    op = LinearOperator(rng.standard_normal((6, 4)))
    x = rng.standard_normal(4)
    first = op.apply(x)
    for _ in range(5):
        assert op.apply(x).tobytes() == first.tobytes()


def test_dimension_errors():
    op = LinearOperator(np.ones((3, 2)))
    with pytest.raises(DimensionMismatch):
        op.apply([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatch):
        op.adjoint_apply([1.0, 2.0])


def test_operator_rejects_nonfinite():
    with pytest.raises(ValidationError):
        LinearOperator([[np.nan, 1.0]])


def test_as_vector_checks():
    with pytest.raises(DimensionMismatch):
        as_vector(np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        as_vector([1.0], length=2)
    with pytest.raises(ValidationError):
        as_vector([np.inf])


# the finiteness scan sums the entries; inf + -inf in that sum warns
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("values", [[np.nan], [np.inf], [np.inf, -np.inf], [1.0, np.nan]],
                         ids=["nan", "inf", "inf-minus-inf", "one-nan"])
def test_as_vector_rejects_non_finite(values):
    with pytest.raises(ValidationError, match="v contains non-finite entries"):
        as_vector(values, name="v")
    with pytest.raises(ValidationError, match="v contains non-finite entries"):
        as_vector(np.array(values), name="v")


def test_as_vector_accepts_finite_entries_whose_sum_overflows():
    # the overflow warning shows that the sum was not finite, so the
    # entrywise scan decided
    with pytest.warns(RuntimeWarning, match="overflow"):
        v = as_vector(np.array([1e308, 1e308]))
    assert v.tolist() == [1e308, 1e308]


def test_as_vector_coerces_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64 and v.tolist() == [1.0, 2.0, 3.0]
    w = as_vector(np.array([0.5, 1.5], dtype=np.float32))
    assert w.dtype == np.float64 and w.tolist() == [0.5, 1.5]
    u = np.array([0.25, 4.0])
    assert as_vector(u) is u


def _svm_instance(n=4, p=2):
    rng = np.random.default_rng(7)
    op = LinearOperator(rng.standard_normal((n, p)))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return ProblemInstance(op, SquaredL2(1.0, p), Hinge(labels, 1.0 / n))


def test_validate_instance_passthrough():
    prob = _svm_instance()
    assert validate_instance(prob) is prob


def test_validate_instance_shape_mismatch():
    prob = _svm_instance()
    bad = ProblemInstance(prob.operator, SquaredL2(1.0, 3), prob.loss)
    with pytest.raises(ValidationError):
        validate_instance(bad)


def test_validate_instance_zero_modulus():
    prob = _svm_instance()
    degenerate = ProblemInstance(prob.operator, SquaredL2(0.0, 2), prob.loss)
    validate_instance(degenerate)  # fine without strong convexity
    with pytest.raises(ValidationError):
        validate_instance(degenerate, require_strong_convexity=True)


def test_clamp_gap():
    assert clamp_gap(1.5) == 1.5
    assert clamp_gap(-5e-11) == 0.0
    with pytest.raises(GapInconsistencyError):
        clamp_gap(-1e-9)
