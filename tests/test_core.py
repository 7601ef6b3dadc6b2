import re
import warnings

import numpy as np
import pytest

from pdcg import (
    Box,
    DimensionMismatch,
    Hinge,
    LeastAbsoluteDeviation,
    LinearOperator,
    ProblemInstance,
    Regularizer,
    SquaredL2,
    SquaredL2Box,
    TraceRecord,
    ValidationError,
    as_vector,
)
from pdcg.core import clamp_gap, check_gap_floor, GapInconsistencyError
from pdcg.harness import TRACE_COLUMNS


def test_apply_identity():
    op = LinearOperator(np.eye(2))
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


def test_operator_keeps_its_own_copy_of_the_callers_matrix():
    a = np.random.default_rng(3).standard_normal((5, 3))
    op = LinearOperator(a)
    x = np.arange(3.0)
    before = op.apply(x)
    a[:] = 7.0
    assert not np.shares_memory(a, op.matrix)
    assert op.apply(x).tobytes() == before.tobytes()


@pytest.mark.parametrize("matrix", [np.ones(3), np.ones((0, 3)), np.array([[np.nan, 1.0]])],
                         ids=["1-d", "no-rows", "non-finite"])
def test_an_adopted_matrix_gets_the_checks_of_a_copied_one(matrix):
    with pytest.raises(ValueError) as copied:
        LinearOperator(matrix)
    with pytest.raises(type(copied.value), match=re.escape(str(copied.value))):
        LinearOperator._adopt(matrix)


@pytest.mark.parametrize("n, p", [(300, 200), (37, 3), (3, 2**14 + 5), (1, 50)],
                         ids=["several-blocks", "one-block", "one-row-blocks", "one-row"])
def test_row_norms_have_the_bits_of_the_whole_matrix_norm(n, p):
    m = np.random.default_rng(n + p).standard_normal((n, p))
    norms = LinearOperator(m).row_norms
    assert norms.view(np.int64).tolist() == np.linalg.norm(m, axis=1).view(np.int64).tolist()


def test_row_norms_overflow_to_inf_with_one_warning():
    m = np.random.default_rng(4).standard_normal((300, 200))
    m[150] = 1e200
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        norms = LinearOperator(m).row_norms
    assert [(w.category, "overflow" in str(w.message)) for w in caught] == [(RuntimeWarning, True)]
    with np.errstate(over="ignore"):
        whole = np.linalg.norm(m, axis=1)
    assert norms[150] == np.inf and norms.view(np.int64).tolist() == whole.view(np.int64).tolist()


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (np.ones(3), DimensionMismatch, "operator matrix must be 2-D, got shape (3,)"),
        (np.ones((2, 2, 2)), DimensionMismatch, "operator matrix must be 2-D, got shape (2, 2, 2)"),
        (np.ones((0, 3)), ValidationError, "operator matrix must be non-empty"),
        (np.ones((3, 0)), ValidationError, "operator matrix must be non-empty"),
    ],
    ids=["1-d", "3-d", "no-rows", "no-columns"],
)
def test_operator_needs_a_nonempty_matrix(matrix, error, message):
    with pytest.raises(error, match=re.escape(message)):
        LinearOperator(matrix)


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


# the forms as_vector meets: a native array goes through as it is, the
# others are converted to a native float64 array first
VECTOR_FORMS = {
    "list": list,
    "array": np.array,
    "strided-view": lambda v: np.array(v).repeat(2)[::2],
    "big-endian": lambda v: np.array(v, dtype=">f8"),
    "little-endian": lambda v: np.array(v, dtype="<f8"),
}
NON_FINITE = {
    "nan": [1.0, np.nan],
    "inf": [np.inf],
    "minus-inf": [2.0, -np.inf],
    "inf-minus-inf": [np.inf, -np.inf],
    "nan-near-limit": [1e308, 1e308, np.nan],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("form", list(VECTOR_FORMS))
@pytest.mark.parametrize("values", list(NON_FINITE))
def test_as_vector_rejects_non_finite_in_every_form(form, values):
    with pytest.raises(ValidationError) as exc:
        as_vector(VECTOR_FORMS[form](NON_FINITE[values]), name="v")
    assert str(exc.value) == "v contains non-finite entries"


@pytest.mark.parametrize("form", list(VECTOR_FORMS))
def test_as_vector_accepts_entries_near_the_float64_limit(form):
    values = [1e308, -1.7e308, 1.5e308, 1e308, -1e308]
    x = VECTOR_FORMS[form](values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the sum overflows; the entrywise scan decides
        v = as_vector(x, 5)
    assert v.dtype == np.float64 and v.dtype.isnative and v.tolist() == values
    if form in ("array", "strided-view", "little-endian"):
        assert v is x


@pytest.mark.parametrize("form", list(VECTOR_FORMS))
def test_as_vector_finiteness_proof_raises_no_warning_below_overflow(form):
    # a square-based proof such as v.dot(v) would warn from about 1.3e154 on
    rows = [[1e300] * 8, [1e300, -1e300, 1e154, -1.3e154, 5e-324, -0.0], [1.3e154] * 3, [1e-300, 5e-324]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in rows:
            assert as_vector(VECTOR_FORMS[form](values)).tolist() == values


def test_as_vector_shape_messages():
    with pytest.raises(DimensionMismatch) as exc:
        as_vector(np.ones((2, 2)), name="v")
    assert str(exc.value) == "v must be 1-D, got shape (2, 2)"
    with pytest.raises(DimensionMismatch) as exc:
        as_vector([1.0], 2, "v")
    assert str(exc.value) == "v has length 1, expected 2"
    assert as_vector([], 0).shape == (0,)


def test_trace_record_is_an_immutable_record():
    rec = TraceRecord(t=1, rho=1.0, primal_value=2.0, dual_value=1.0, gap=1.0, avg_primal_value=2.0)
    with pytest.raises(AttributeError):
        rec.gap = 0.0
    assert TraceRecord._fields == (*TRACE_COLUMNS.values(), "avg_gap")
    optional = ("dual_suboptimality", "bregman_to_ref", "avg_gap")
    assert TraceRecord._field_defaults == dict.fromkeys(optional)
    assert all(getattr(rec, name) is None for name in optional)


def _svm_instance(n=4, p=2):
    rng = np.random.default_rng(7)
    op = LinearOperator(rng.standard_normal((n, p)))
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return ProblemInstance(op, SquaredL2(1.0, p), Hinge(labels, 1.0 / n))


def test_instance_rejects_dimension_mismatch_at_construction():
    prob = _svm_instance()  # n=4, p=2
    with pytest.raises(ValidationError, match="regularizer dimension 3 does not match operator columns 2"):
        ProblemInstance(prob.operator, SquaredL2(1.0, 3), prob.loss)
    with pytest.raises(ValidationError, match="loss dimension 3 does not match operator rows 4"):
        ProblemInstance(prob.operator, prob.regularizer, Hinge([1.0, -1.0, 1.0]))
    loss = LeastAbsoluteDeviation(np.zeros(4))
    loss.dual_domain = Box(-np.ones(3), np.ones(3))
    with pytest.raises(ValidationError, match="dual domain dimension 3 does not match operator rows 4"):
        ProblemInstance(prob.operator, prob.regularizer, loss)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.inf, np.nan])
def test_regularizer_modulus_must_be_positive_and_finite(mu):
    with pytest.raises(ValidationError, match="modulus mu must be positive and finite"):
        SquaredL2(mu, 2)
    with pytest.raises(ValidationError, match="modulus mu must be positive and finite"):
        SquaredL2Box(mu, np.zeros(2), np.ones(2))


def test_instance_rejects_zero_modulus_of_any_regularizer():
    class Flat(Regularizer):
        mu, dim = 0.0, 2

    prob = _svm_instance()
    with pytest.raises(ValidationError, match="regularizer modulus mu=0.0 must be positive"):
        ProblemInstance(prob.operator, Flat(), prob.loss)


def test_clamp_gap():
    assert clamp_gap(1.5, 0.0) == 1.5
    assert clamp_gap(0.0, 5e-11) == 0.0
    with pytest.raises(GapInconsistencyError, match=r"duality gap -1e-09 < -1e-10;"):
        clamp_gap(0.0, 1e-9)
    # the floor scales with the pair: one ulp below a primal of 2.87e7 is round-off,
    # a millionth of it is not
    primal = 2.87e7
    assert clamp_gap(primal, np.nextafter(primal, np.inf)) == 0.0
    with pytest.raises(GapInconsistencyError, match=r"< -0\.00287"):
        clamp_gap(primal, primal * (1.0 + 1e-6))


def test_nan_gap_is_an_inconsistency():
    # a NaN gap compares false with everything, so it must fail the floor
    with pytest.raises(GapInconsistencyError):
        check_gap_floor(float("nan"), 0.0)
    with pytest.raises(GapInconsistencyError):
        clamp_gap(0.0, float("nan"))
    # a -inf gap stays an inconsistency under the infinite floor of an infinite dual
    with pytest.raises(GapInconsistencyError):
        check_gap_floor(0.0, float("inf"))
