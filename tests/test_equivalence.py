import numpy as np
import pytest

from pdcg import (
    ConfigurationError,
    ExperimentConfig,
    FeasibilityError,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    NegativeEntropySimplex,
    ProblemInstance,
    SquaredL2,
    SqrtDecay,
    SquaredL2Box,
    estimate_r2,
    gcg_step,
    generate_problem,
    init_state,
    md_step,
    step_size,
    verify_equivalence,
)


def test_init_primal_from_dual_zero():
    prob = ProblemInstance(LinearOperator(np.eye(2)), SquaredL2(1.0, 2), LeastAbsoluteDeviation([0.0, 0.0], 1.0))
    state = init_state(prob, np.zeros(2))
    np.testing.assert_array_equal(state.x, [0.0, 0.0])
    np.testing.assert_array_equal(state.carried_h_sub, [0.0, 0.0])


def test_init_primal_from_dual_entropy():
    prob = ProblemInstance(
        LinearOperator(np.eye(2)), NegativeEntropySimplex(2), LeastAbsoluteDeviation([0.0, 0.0], 1.0)
    )
    np.testing.assert_allclose(init_state(prob, np.zeros(2)).x, [0.5, 0.5], atol=1e-15)


def test_init_primal_from_dual_hand_values():
    prob = ProblemInstance(
        LinearOperator([[1.0, 2.0], [0.0, 1.0]]),
        SquaredL2(2.0, 2),
        LeastAbsoluteDeviation([0.0, 0.0], 1.0),
    )
    state = init_state(prob, [1.0, 0.0])
    np.testing.assert_array_equal(state.carried_h_sub, [-1.0, -2.0])
    np.testing.assert_array_equal(state.x, [-0.5, -1.0])


def test_init_rejects_infeasible_dual():
    prob = ProblemInstance(
        LinearOperator(np.eye(2)), SquaredL2(1.0, 2), LeastAbsoluteDeviation([0.0, 0.0], 0.5)
    )
    with pytest.raises(FeasibilityError):
        init_state(prob, [2.0, 0.0])


def _svm(n=40, p=8, seed=7):
    cfg = ExperimentConfig(loss="hinge", regularizer="squared_l2", n=n, p=p, mu=1.0, seed=seed)
    return generate_problem(cfg)


def test_equivalence_zero_iterations_vacuous():
    rep = verify_equivalence(_svm(), np.zeros(40), FixedTwoOverTPlusOne(), 0, 1e-9)
    assert rep.passed
    assert rep.max_x_deviation == 0.0
    assert rep.max_dual_identity_deviation == 0.0


@pytest.mark.parametrize("iterations,tolerance", [(-5, 1e-9), (10, -1.0)], ids=["iterations", "tolerance"])
def test_equivalence_rejects_negative_arguments(iterations, tolerance):
    with pytest.raises(ConfigurationError, match="must be nonnegative"):
        verify_equivalence(_svm(), np.zeros(40), FixedTwoOverTPlusOne(), iterations, tolerance)


def test_equivalence_rejects_a_schedule_run_rejects():
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=5, seed=4)
    prob = generate_problem(cfg)
    with pytest.raises(ConfigurationError, match="sqrt-decay pairs with the compact-domain recursion only"):
        verify_equivalence(prob, np.zeros(prob.n), SqrtDecay(delta=1.0, radius=1.0), 10)


@pytest.mark.parametrize("make_sched", [
    lambda prob: FixedTwoOverTPlusOne(),
    lambda prob: FixedOneOverT(),
    lambda prob: LineSearch(mu=1.0, r2=estimate_r2(prob.loss, prob.operator, "diameter")[0]),
], ids=["two-over-t-plus-one", "one-over-t", "line-search"])
def test_equivalence_schedule_agnostic(make_sched):
    prob = _svm()
    rep = verify_equivalence(prob, np.zeros(prob.n), make_sched(prob), 300, 1e-9)
    assert rep.passed, rep


def test_equivalence_every_loss_and_smooth_regularizer():
    for loss, reg in [
        ("hinge", "squared_l2"), ("hinge", "entropy"),
        ("lad", "squared_l2"), ("lad", "entropy"),
        ("logistic", "squared_l2"), ("logistic", "entropy"),
        ("gauge", "squared_l2"), ("gauge", "entropy"),
    ]:
        cfg = ExperimentConfig(loss=loss, regularizer=reg, n=25, p=6, mu=1.0, seed=21)
        prob = generate_problem(cfg)
        rep = verify_equivalence(prob, np.zeros(prob.n), FixedTwoOverTPlusOne(), 150, 1e-9)
        assert rep.passed, (loss, reg, rep)


def test_equivalence_box_regularizer_carried_rule():
    # non-smooth h: the identity still holds under the carried subgradient
    rng = np.random.default_rng(22)
    prob = ProblemInstance(
        LinearOperator(rng.standard_normal((12, 4))),
        SquaredL2Box(0.8, -np.ones(4), np.ones(4)),
        LeastAbsoluteDeviation(rng.standard_normal(12), 1.0),
    )
    rep = verify_equivalence(prob, np.zeros(12), FixedTwoOverTPlusOne(), 200, 1e-9)
    assert rep.passed, rep


def test_mismatched_init_diverges():
    # start the primal recursion from x0 = 0 with carried 0 while the dual
    # one starts from y0 = f'(0) != 0: the trajectories must separate
    # (logistic: the oracle responds continuously to the differing x0)
    cfg = ExperimentConfig(loss="logistic", regularizer="squared_l2", n=20, p=5, seed=3, scale=0.6)
    prob = generate_problem(cfg)
    y0 = prob.loss.subgradient(np.zeros(20))
    assert float(np.max(np.abs(y0))) > 0
    md = init_state(prob, np.zeros(20))  # x0 = 0, carried = 0
    cg = init_state(prob, y0)
    dev = 0.0
    for t in range(1, 51):
        rho = step_size(FixedTwoOverTPlusOne(), t)
        md = md_step(prob, md, rho)
        cg = gcg_step(prob, cg, rho)
        dev = max(dev, float(np.max(np.abs(md.x - cg.x))))
    assert dev > 1e-9
