import numpy as np
import pytest

from pdcg import (
    ConfigurationError,
    ExperimentConfig,
    FeasibilityError,
    FixedTwoOverTPlusOne,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    NegativeEntropySimplex,
    ProblemInstance,
    SquaredL2,
    SqrtDecay,
    SquaredL2Box,
    generate_problem,
    init_state,
    prepare,
    run,
    step,
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


_LOCKSTEP_SCHEDULES = ("two-over-t-plus-one", "one-over-t", "line-search")


@pytest.mark.parametrize("loss, reg, scale, iterations, min_distinct, schedule", [
    *(pytest.param("hinge", "squared_l2", None, 300, 1, sched, id=sched) for sched in _LOCKSTEP_SCHEDULES),
    *(pytest.param(loss, reg, 20.0 / 40, 150, 100, sched, id=f"{loss}-{reg}-{sched}")
      for loss in ("lad", "logistic") for reg in ("squared_l2", "squared_l2_box", "entropy")
      for sched in _LOCKSTEP_SCHEDULES),
])
def test_equivalence_schedule_agnostic(loss, reg, scale, iterations, min_distinct, schedule):
    """md and gcg agree to 1e-9 in lockstep under every schedule they share.

    A check on a frozen trajectory proves nothing.  At 40 x 8, seed 7,
    hinge at the default scale 1/n nearly freezes (9, 8 and 2 distinct
    gcg gaps in 300 rows under 2/(t+1), 1/t and line search), and the
    gauge freezes (at most 2 under the fixed schedules).  lad and
    logistic at scale 20/n, under each regularizer, take a distinct gap
    on every one of the 150 rows (at least 100 asserted), and deviate by
    at most 1.8e-15.
    """
    cfg = ExperimentConfig(loss=loss, regularizer=reg, n=40, p=8, scale=scale, seed=7, schedule=schedule)
    experiment = prepare(cfg)
    prob, sched = experiment.problem, experiment.schedule
    rep = verify_equivalence(prob, None, sched, iterations, 1e-9)
    assert rep.passed, rep
    gaps = {rec.gap for rec in run(prob, "gcg", sched, iterations, gap_tol=-np.inf).trace}
    assert len(gaps) >= min_distinct


def test_equivalence_starts_and_steps_as_run_does(monkeypatch):
    # no y0 is run's start, the origin, and line search reads the raw gaps
    # run reads: on hinge + entropy they sit at -2.2e-16 from t = 2 on
    prob = generate_problem(ExperimentConfig(loss="hinge", regularizer="entropy", n=40, p=8, seed=3))
    sched = LineSearch(mu=1.0, r2=prob.geometry.r2_primal)
    assert verify_equivalence(prob, None, sched, 50) == verify_equivalence(prob, np.zeros(prob.n), sched, 50)
    gaps = []
    rho = LineSearch.rho
    monkeypatch.setattr(LineSearch, "rho", lambda self, t, gap=None: gaps.append(gap) or rho(self, t, gap))
    assert verify_equivalence(prob, None, sched, 50).passed
    lockstep, gaps[:] = gaps[:], []
    assert len(run(prob, "gcg", sched, 50, gap_tol=-np.inf).trace) == 50
    assert lockstep == gaps and len(gaps) == 50 and min(gaps) < 0.0


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


def test_equivalence_verdict_compares_with_the_tolerance_exactly():
    # the lockstep deviations are round-off, not zero: a tolerance at the
    # larger one passes and half of it fails
    prob = _svm()
    rep = verify_equivalence(prob, np.zeros(prob.n), FixedTwoOverTPlusOne(), 100, 1e-9)
    worst = max(rep.max_x_deviation, rep.max_dual_identity_deviation)
    assert 0.0 < worst <= 1e-9
    assert verify_equivalence(prob, np.zeros(prob.n), FixedTwoOverTPlusOne(), 100, worst).passed
    assert not verify_equivalence(prob, np.zeros(prob.n), FixedTwoOverTPlusOne(), 100, worst / 2).passed


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
        rho = FixedTwoOverTPlusOne().rho(t)
        md = step(prob, "md", md, rho)
        cg = step(prob, "gcg", cg, rho)
        dev = max(dev, float(np.max(np.abs(md.x - cg.x))))
    assert dev > 1e-9
