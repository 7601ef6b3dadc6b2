import dataclasses
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import pdcg.core
from pdcg import (
    ConfigurationError,
    DimensionMismatch,
    ExperimentConfig,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    Hinge,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    NegativeEntropySimplex,
    ProblemInstance,
    SqrtDecay,
    SquaredL2,
    SquaredL2Box,
    ValidationError,
    build_schedule,
    gcg_step,
    generate_problem,
    init_state,
    init_state_compact,
    md_step,
    ns_md_step,
    reference_solution,
    resolve_initial_dual,
    run,
    step_size,
    verify_equivalence,
)
from pdcg.algorithms import primal_dual_values


# --------------------------------------------------------------------------
# step sizes


def test_step_size_two_over_t_plus_one():
    sched = FixedTwoOverTPlusOne()
    assert step_size(sched, 1) == 1.0
    assert step_size(sched, 3) == 0.5


def test_step_size_one_over_t():
    assert step_size(FixedOneOverT(), 1) == 1.0
    assert step_size(FixedOneOverT(), 4) == 0.25


def test_step_size_line_search():
    assert step_size(LineSearch(mu=1.0, r2=4.0), 5, current_gap=1.0) == 0.25
    assert step_size(LineSearch(mu=2.0, r2=1.0), 5, current_gap=3.0) == 1.0
    with pytest.raises(ValueError):
        step_size(LineSearch(mu=1.0, r2=4.0), 5)


def test_step_size_sqrt_decay():
    sched = SqrtDecay(delta=1.0, radius=2.0)
    assert step_size(sched, 1) == 0.5
    assert step_size(sched, 4) == 0.25
    assert step_size(SqrtDecay(delta=5.0, radius=1.0), 1) == 1.0  # clamped


def test_step_size_rejects_bad_iteration():
    with pytest.raises(ValueError):
        step_size(FixedOneOverT(), 0)


# --------------------------------------------------------------------------
# steppers


def _single_hinge_problem():
    return ProblemInstance(
        LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0)
    )


def test_md_step_hand_simulation():
    prob = _single_hinge_problem()
    state = init_state(prob, np.zeros(1))
    out = md_step(prob, state, 1.0)
    np.testing.assert_array_equal(out.x, [1.0])
    np.testing.assert_array_equal(out.carried_h_sub, [1.0])
    np.testing.assert_array_equal(out.y_bar, [-1.0])


def test_md_step_matches_subgradient_descent_form():
    # for h = (mu/2)||x||^2 the recursion is x - (rho/mu)(A^T f'(Ax) + mu x)
    rng = np.random.default_rng(11)
    op = LinearOperator(rng.standard_normal((6, 3)))
    prob = ProblemInstance(op, SquaredL2(1.7, 3), Hinge(np.where(rng.random(6) < 0.5, 1.0, -1.0), 0.25))
    state = init_state(prob, np.zeros(6))
    for t in range(1, 20):
        rho = step_size(FixedTwoOverTPlusOne(), t)
        expected = state.x - (rho / 1.7) * (
            op.adjoint_apply(prob.loss.subgradient(op.apply(state.x))) + 1.7 * state.x
        )
        state = md_step(prob, state, rho)
        np.testing.assert_allclose(state.x, expected, atol=1e-14)


def test_md_step_entropy_two_line_recursion():
    # independent scalar computation of both lines of the recursion
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        NegativeEntropySimplex(2),
        LeastAbsoluteDeviation([0.0, 0.0], 1.0),
    )
    x0 = np.array([0.5, 0.5])
    state = init_state(prob, np.zeros(2))
    h_sub = np.log(x0) + 1.0  # gradient of the entropy at an interior x0
    state = dataclasses.replace(state, x=x0, ax=x0.copy(), carried_h_sub=h_sub)
    out = md_step(prob, state, 0.5)
    ybar = np.sign(x0)  # LAD oracle at Ax0 with zero targets
    g = 0.5 * h_sub - 0.5 * ybar
    expect = np.exp(g - np.max(g))
    expect /= expect.sum()
    np.testing.assert_allclose(out.x, expect, atol=1e-15)


def test_zero_step_keeps_iterates():
    prob = _single_hinge_problem()
    state = init_state(prob, np.array([-0.5]))
    for stepper in (md_step, gcg_step):
        out = stepper(prob, state, 0.0)
        assert out.t == 1
        np.testing.assert_array_equal(out.x, state.x)
        np.testing.assert_array_equal(out.y, state.y)


def test_gcg_full_step_takes_oracle_vertex():
    prob = _single_hinge_problem()
    state = init_state(prob, np.zeros(1))
    out = gcg_step(prob, state, 1.0)
    np.testing.assert_array_equal(out.y, [-1.0])
    np.testing.assert_array_equal(out.x, [1.0])


def test_ns_md_entropy_multiplicative_update():
    # closed form cross-checked by grid minimization of the subproblem
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        NegativeEntropySimplex(2),
        LeastAbsoluteDeviation([0.0, 0.5], 1.0),
    )
    state = init_state_compact(prob)  # (0.5, 0.5)
    out = ns_md_step(prob, state, 1.0)
    expected = np.array([np.exp(-1.0), 1.0])
    expected /= expected.sum()
    np.testing.assert_allclose(out.x, expected, atol=1e-12)
    np.testing.assert_allclose(out.x, [0.26894142, 0.73106], atol=1e-5)

    # grid oracle: minimize D(x, x0) + <x - x0, A^T y> over the simplex
    a = np.linspace(1e-9, 1.0 - 1e-9, 100001)
    aty = np.array([1.0, 0.0])
    kl = a * np.log(a / 0.5) + (1 - a) * np.log((1 - a) / 0.5)
    obj = kl + (a - 0.5) * aty[0] + ((1 - a) - 0.5) * aty[1]
    best = a[np.argmin(obj)]
    np.testing.assert_allclose(out.x[0], best, atol=1e-5)


def test_ns_md_entropy_symmetry():
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        NegativeEntropySimplex(2),
        LeastAbsoluteDeviation([0.5, 0.5], 1.0),
    )
    state = init_state_compact(prob)  # uniform
    out = ns_md_step(prob, state, 0.7)
    np.testing.assert_allclose(out.x, [0.5, 0.5], atol=1e-15)


def test_ns_md_box_clamp():
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        SquaredL2Box(2.0, np.zeros(2), np.ones(2)),
        LeastAbsoluteDeviation([-1.0, 0.8], 1.0),
    )
    state = init_state_compact(prob)  # (0.5, 0.5)
    out = ns_md_step(prob, state, 0.5)
    # A^T y = sign(x - target) = (1, -1); clamp(x - (rho/mu) aty)
    np.testing.assert_allclose(out.x, [0.5 - 0.25, 0.5 + 0.25], atol=1e-15)
    frozen = ns_md_step(prob, state, 0.0)
    np.testing.assert_array_equal(frozen.x, state.x)


def test_ns_md_rejects_noncompact():
    prob = _single_hinge_problem()
    with pytest.raises(ValidationError, match="algorithm requires a compact primal domain"):
        run(prob, "ns-md", SqrtDecay(delta=1.0, radius=1.0), max_iters=1)
    with pytest.raises(ConfigurationError, match="compact-domain recursion supports"):
        ns_md_step(prob, init_state_compact(prob), 0.5)


# --------------------------------------------------------------------------
# run loop


def _svm_problem(n=30, p=6, seed=3, mu=1.0):
    cfg = ExperimentConfig(loss="hinge", regularizer="squared_l2", n=n, p=p, mu=mu, seed=seed)
    return generate_problem(cfg)


def test_primal_dual_values_checks_the_state_it_reads():
    prob = _svm_problem(seed=4)
    state = init_state(prob, np.zeros(prob.n))
    first = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=1).trace[0]
    assert primal_dual_values(prob, state) == (first.primal_value, first.dual_value)
    # the same pair from a strided copy of every vector, to the bit
    strided = {f: np.repeat(getattr(state, f), 2)[::2] for f in ("x", "ax", "y", "carried_h_sub")}
    assert primal_dual_values(prob, dataclasses.replace(state, **strided)) == (first.primal_value, first.dual_value)
    with pytest.raises(DimensionMismatch, match="ax has length 29, expected 30"):
        primal_dual_values(prob, dataclasses.replace(state, ax=state.ax[:-1]))
    with pytest.raises(ValidationError, match="carried_h_sub contains non-finite entries"):
        primal_dual_values(prob, dataclasses.replace(state, carried_h_sub=np.full(prob.p, np.nan)))


def test_run_zero_budget():
    prob = _svm_problem()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=0)
    assert res.trace == []
    assert res.termination == "budget"
    assert res.state.t == 0


def test_run_infinite_gap_tol():
    prob = _svm_problem()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=100, gap_tol=np.inf)
    assert len(res.trace) == 1
    assert res.termination == "gap_tolerance"


def test_run_trace_consistency():
    cfg = ExperimentConfig(loss="logistic", regularizer="squared_l2", n=30, p=6, seed=3)
    prob = generate_problem(cfg)
    res = run(prob, "md", FixedTwoOverTPlusOne(), max_iters=200)
    for rec in res.trace:
        assert 0.0 <= rec.rho <= 1.0
        assert rec.gap == rec.primal_value - rec.dual_value
        assert rec.gap >= -1e-10
    assert [rec.t for rec in res.trace] == list(range(1, 201))


def test_run_deterministic_traces():
    prob = _svm_problem()
    res1 = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=150)
    res2 = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=150)
    for a, b in zip(res1.trace, res2.trace):
        assert a == b
    assert res1.state.x.tobytes() == res2.state.x.tobytes()


def test_run_dual_feasibility():
    prob = _svm_problem(n=24, p=5, seed=9)
    for algo in ("md", "gcg"):
        res = run(prob, algo, FixedTwoOverTPlusOne(), max_iters=300)
        assert prob.loss.dual_domain.contains(res.state.y, 1e-10)


def test_convex_combination_identity_short():
    # y_t equals the weighted average of oracle outputs under 2/(t+1),
    # and stays feasible at every step
    prob = _svm_problem(n=24, p=5, seed=9)
    state = init_state(prob, np.zeros(prob.n))
    wsum_ybar = np.zeros(prob.n)
    for t in range(1, 51):
        state = gcg_step(prob, state, step_size(FixedTwoOverTPlusOne(), t))
        wsum_ybar += t * state.y_bar
        np.testing.assert_allclose(state.y, 2.0 / (t * (t + 1.0)) * wsum_ybar, atol=1e-12)
        assert prob.loss.dual_domain.contains(state.y, 1e-10)


def test_ns_md_iterate_feasibility():
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=20, p=10, mu=1.0, seed=5,
        algorithm="ns-md", schedule="sqrt-decay", max_iters=200,
    )
    prob = generate_problem(cfg)
    res = run(prob, "ns-md", build_schedule(cfg, prob), max_iters=200)
    state = init_state_compact(prob)
    assert abs(res.state.x.sum() - 1.0) <= 1e-12
    assert res.state.x.min() > 0.0

    box_prob = ProblemInstance(
        prob.operator,
        SquaredL2Box(1.0, np.zeros(10), np.ones(10)),
        prob.loss,
    )
    res = run(box_prob, "ns-md", SqrtDecay(delta=1.0, radius=5.0), max_iters=200)
    assert np.all(res.state.x >= -1e-12) and np.all(res.state.x <= 1.0 + 1e-12)


def test_run_schedule_pairing_errors():
    prob = _svm_problem()
    with pytest.raises(ConfigurationError):
        run(prob, "md", SqrtDecay(delta=1.0, radius=1.0), max_iters=5)
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1)
    ent = generate_problem(cfg)
    with pytest.raises(ConfigurationError):
        run(ent, "ns-md", LineSearch(mu=1.0, r2=1.0), max_iters=5)
    with pytest.raises(ConfigurationError):
        run(prob, "dogleg", FixedOneOverT(), max_iters=5)


def test_run_rejects_nan_gap_tol():
    # gap <= NaN is never true, so the tolerance would be silently ignored
    with pytest.raises(ConfigurationError, match="gap_tol must not be NaN"):
        run(_svm_problem(), "gcg", FixedTwoOverTPlusOne(), max_iters=5, gap_tol=float("nan"))
    res = run(_svm_problem(), "gcg", FixedTwoOverTPlusOne(), max_iters=5, gap_tol=float("-inf"))
    assert res.termination == "budget" and len(res.trace) == 5


def test_run_partial_reference_columns():
    prob = _svm_problem()
    res = run(prob, "md", FixedTwoOverTPlusOne(), max_iters=10)
    assert all(rec.dual_suboptimality is None for rec in res.trace)


def test_line_search_run_consumes_exact_gap():
    prob = _svm_problem(n=20, p=4, seed=2)
    r2, _ = prob.loss.dual_domain.r2(prob.operator, "diameter")
    sched = LineSearch(mu=1.0, r2=r2)
    res = run(prob, "gcg", sched, max_iters=50)
    for rec in res.trace:
        expected = min(1.0 / r2 * max(rec.gap, 0.0), 1.0)
        assert rec.rho == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("with_reference", [False, True], ids=["plain", "reference"])
@pytest.mark.parametrize(
    "algorithm,schedule,calls_per_iter",
    [
        ("md", "two-over-t-plus-one", 1),
        ("gcg", "two-over-t-plus-one", 1),
        ("md", "line-search", 1),
        ("gcg", "line-search", 1),
        ("md", "one-over-t", 2),  # plus the averaged dual pair
        ("gcg", "one-over-t", 2),
    ],
)
def test_run_evaluates_each_primal_dual_pair_once(algorithm, schedule, calls_per_iter, with_reference, monkeypatch):
    # the post-step pair of iteration t is the pre-step pair of t + 1
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, scale=20.0 / 30, seed=3,
                           algorithm=algorithm, schedule=schedule)
    prob = generate_problem(cfg)
    sched = build_schedule(cfg, prob)
    reference = SimpleNamespace(x_star=np.zeros(prob.p), primal_value=1.0) if with_reference else None
    # run() calls the loss's conjugate kernel, not the checking entry point
    conj_value = prob.loss._conj_value
    calls = []
    monkeypatch.setattr(prob.loss, "_conj_value", lambda y: calls.append(1) or conj_value(y))
    iters = 20
    res = run(prob, algorithm, sched, max_iters=iters, gap_tol=-np.inf, reference=reference)
    assert len(res.trace) == iters
    assert len(calls) == calls_per_iter * iters + 1


def _count_as_vector(monkeypatch):
    """Count ``as_vector`` calls the way the benchmark's tracer does: through every module attribute."""
    calls = []
    original = pdcg.core.as_vector

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "pdcg" or name.startswith("pdcg.")) and vars(module).get("as_vector") is original:
            monkeypatch.setattr(module, "as_vector", counted)
    return calls


@pytest.mark.parametrize("algorithm", ["md", "gcg"])
def test_run_scans_at_most_six_vectors_per_iteration(algorithm, monkeypatch):
    # one scan where each vector that can overflow is made: the two matvec
    # inputs, A x, the carried g or A^T y, and the two averaged points
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, scale=20.0 / 30, seed=3,
                           algorithm=algorithm, schedule="two-over-t-plus-one")
    prob = generate_problem(cfg)
    calls = _count_as_vector(monkeypatch)
    counts = []
    for iters in (20, 40):
        calls.clear()
        run(prob, algorithm, FixedTwoOverTPlusOne(), max_iters=iters, gap_tol=-np.inf)
        counts.append(len(calls))
    assert (counts[1] - counts[0]) / 20 <= 6


def _overflowing(loss="lad", reg="squared_l2", mu=None, a_scale=1.0, box=(0.0, 1.0)):
    cfg = ExperimentConfig(loss=loss, regularizer=reg, n=30, p=6, scale=20.0 / 30, seed=3,
                           box_lower=box[0], box_upper=box[1])
    prob = generate_problem(cfg)
    h = prob.regularizer
    if mu is not None:
        h = SquaredL2(mu, 6) if reg == "squared_l2" else SquaredL2Box(mu, h.domain.lower, h.domain.upper)
    return ProblemInstance(LinearOperator(a_scale * prob.operator.matrix), h, prob.loss)


# x = g/mu overflows at mu = 1e-310, and A^T y and A x do with A scaled by 1e307
# (by 1e307 on a box of half-width 1000 for the compact-domain recursion)
OVERFLOWING = {
    "md-small-mu": lambda: run(_overflowing(mu=1e-310), "md", FixedTwoOverTPlusOne(), 20),
    "gcg-small-mu": lambda: run(_overflowing(mu=1e-310), "gcg", FixedOneOverT(), 20),
    "md-large-a": lambda: run(_overflowing(a_scale=1e307), "md", FixedTwoOverTPlusOne(), 20),
    "gcg-large-a": lambda: run(_overflowing(a_scale=1e307), "gcg", FixedTwoOverTPlusOne(), 20),
    "ns-md-large-a": lambda: run(_overflowing(reg="squared_l2_box", a_scale=1e307, box=(-1e3, 1e3)), "ns-md",
                                 SqrtDecay(delta=1.0, radius=1.0), 20),
    "reference-small-mu": lambda: reference_solution(_overflowing(mu=1e-310)),
    "reference-large-a": lambda: reference_solution(_overflowing(a_scale=1e307)),
    "equivalence-small-mu": lambda: verify_equivalence(_overflowing(mu=1e-310), np.zeros(30),
                                                       FixedTwoOverTPlusOne(), 20),
    "equivalence-large-a": lambda: verify_equivalence(_overflowing(a_scale=1e307), np.zeros(30),
                                                      FixedTwoOverTPlusOne(), 20),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", list(OVERFLOWING))
def test_iterates_that_overflow_raise(case):
    with pytest.raises(ValidationError, match="contains non-finite entries"):
        OVERFLOWING[case]()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("algorithm", ["md", "gcg"])
def test_box_regularizer_at_tiny_mu_stays_finite(algorithm):
    # g/mu overflows, but the clamp keeps x = clip(g/mu) in the box
    res = run(_overflowing(reg="squared_l2_box", mu=1e-310), algorithm, FixedTwoOverTPlusOne(), 20)
    assert len(res.trace) == 20
    assert all(np.isfinite([rec.primal_value, rec.dual_value, rec.avg_primal_value]).all() for rec in res.trace)


@pytest.mark.parametrize(
    "algorithm,schedule",
    [
        ("md", "two-over-t-plus-one"),
        ("gcg", "two-over-t-plus-one"),
        ("md", "one-over-t"),
        ("gcg", "one-over-t"),
        ("md", "line-search"),
        ("gcg", "line-search"),
        ("ns-md", "sqrt-decay"),
        ("ns-md", "two-over-t-plus-one"),
    ],
)
def test_run_averaged_columns_match_a_replay(algorithm, schedule):
    # replay the recorded steps and keep the running sums here, with the
    # arithmetic of each schedule's average written out
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=30, p=6, scale=20.0 / 30, seed=4,
        algorithm=algorithm, schedule=schedule, max_iters=60,
    )
    prob = generate_problem(cfg)
    res = run(prob, algorithm, build_schedule(cfg, prob), max_iters=cfg.max_iters)
    op, reg, loss = prob.operator, prob.regularizer, prob.loss
    avg_primal, avg_gap = [], []
    if algorithm == "ns-md":
        state = init_state_compact(prob)
        sum_ax, sum_y, sum_aty = np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.p)
        for rec in res.trace:
            t = rec.t
            sum_ax = sum_ax + state.ax
            state = ns_md_step(prob, state, rec.rho)
            sum_y = sum_y + state.y
            sum_aty = sum_aty + state.last_aty
            primal = loss.value(sum_ax / t)
            avg_primal.append(primal)
            avg_gap.append(primal + reg.domain.support(-sum_aty / t) + loss.conj_value(sum_y / t))
    else:
        state = init_state(prob, resolve_initial_dual(prob))
        stepper = md_step if algorithm == "md" else gcg_step
        sum_x, sum_ax, sum_ybar = np.zeros(prob.p), np.zeros(prob.n), np.zeros(prob.n)
        for rec in res.trace:
            t = rec.t
            if schedule == "two-over-t-plus-one":  # weight u on x_{u-1}
                sum_x = sum_x + t * state.x
                sum_ax = sum_ax + t * state.ax
                state = stepper(prob, state, rec.rho)
                w = 2.0 / (t * (t + 1.0))
                primal = reg.value(w * sum_x) + loss.value(w * sum_ax)
                # the averaged pair's dual point is y_t itself
                gap = primal - (-reg.conj_value(state.carried_h_sub) - loss.conj_value(state.y))
            else:  # uniform weights
                sum_x = sum_x + state.x
                sum_ax = sum_ax + state.ax
                state = stepper(prob, state, rec.rho)
                sum_ybar = sum_ybar + state.y_bar
                primal = reg.value(sum_x / t) + loss.value(sum_ax / t)
                ybar_avg = sum_ybar / t
                dual = -reg.conj_value(-op.adjoint_apply(ybar_avg)) - loss.conj_value(ybar_avg)
                gap = primal - dual if schedule == "one-over-t" else None
            avg_primal.append(primal)
            avg_gap.append(gap)
    assert len(res.trace) == cfg.max_iters
    assert len(set(avg_primal)) > 10  # the averages move
    assert [rec.avg_primal_value for rec in res.trace] == avg_primal
    assert [rec.avg_gap for rec in res.trace] == avg_gap
