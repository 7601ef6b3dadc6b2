import dataclasses
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import pdcg.algorithms
import pdcg.core
import pdcg.equivalence
from pdcg import (
    Box,
    ConfigurationError,
    DomainError,
    ExperimentConfig,
    FeasibilityError,
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
    generate_problem,
    init_state,
    init_state_compact,
    reference_solution,
    run,
    step,
    verify_equivalence,
)


# --------------------------------------------------------------------------
# step sizes


def test_rho_two_over_t_plus_one():
    sched = FixedTwoOverTPlusOne()
    assert sched.rho(1) == 1.0
    assert sched.rho(3) == 0.5


def test_rho_one_over_t():
    assert FixedOneOverT().rho(1) == 1.0
    assert FixedOneOverT().rho(4) == 0.25


def test_rho_line_search():
    assert LineSearch(mu=1.0, r2=4.0).rho(5, 1.0) == 0.25
    assert LineSearch(mu=2.0, r2=1.0).rho(5, 3.0) == 1.0
    with pytest.raises(ValueError):
        LineSearch(mu=1.0, r2=4.0).rho(5)


def test_rho_sqrt_decay():
    sched = SqrtDecay(delta=1.0, radius=2.0)
    assert sched.rho(1) == 0.5
    assert sched.rho(4) == 0.25
    assert SqrtDecay(delta=5.0, radius=1.0).rho(1) == 1.0  # clamped


# --------------------------------------------------------------------------
# steppers


def _single_hinge_problem():
    return ProblemInstance(
        LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0)
    )


def test_md_step_hand_simulation():
    prob = _single_hinge_problem()
    state = init_state(prob, np.zeros(1))
    out = step(prob, "md", state, 1.0)
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
        rho = FixedTwoOverTPlusOne().rho(t)
        expected = state.x - (rho / 1.7) * (
            op.adjoint_apply(prob.loss.subgradient(op.apply(state.x))) + 1.7 * state.x
        )
        state = step(prob, "md", state, rho)
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
    out = step(prob, "md", state, 0.5)
    ybar = np.sign(x0)  # LAD oracle at Ax0 with zero targets
    g = 0.5 * h_sub - 0.5 * ybar
    expect = np.exp(g - np.max(g))
    expect /= expect.sum()
    np.testing.assert_allclose(out.x, expect, atol=1e-15)


def test_zero_step_keeps_iterates():
    prob = _single_hinge_problem()
    state = init_state(prob, np.array([-0.5]))
    for algorithm in ("md", "gcg"):
        out = step(prob, algorithm, state, 0.0)
        assert out.t == 1
        np.testing.assert_array_equal(out.x, state.x)
        np.testing.assert_array_equal(out.y, state.y)


def test_gcg_full_step_takes_oracle_vertex():
    prob = _single_hinge_problem()
    state = init_state(prob, np.zeros(1))
    out = step(prob, "gcg", state, 1.0)
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
    out = step(prob, "ns-md", state, 1.0)
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
    out = step(prob, "ns-md", state, 0.7)
    np.testing.assert_allclose(out.x, [0.5, 0.5], atol=1e-15)


def test_ns_md_box_clamp():
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        SquaredL2Box(2.0, np.zeros(2), np.ones(2)),
        LeastAbsoluteDeviation([-1.0, 0.8], 1.0),
    )
    state = init_state_compact(prob)  # (0.5, 0.5)
    out = step(prob, "ns-md", state, 0.5)
    # A^T y = sign(x - target) = (1, -1); clamp(x - (rho/mu) aty)
    np.testing.assert_allclose(out.x, [0.5 - 0.25, 0.5 + 0.25], atol=1e-15)
    frozen = step(prob, "ns-md", state, 0.0)
    np.testing.assert_array_equal(frozen.x, state.x)


def test_md_steps_from_an_ns_md_state_but_not_from_the_compact_start():
    # ns-md carries -A^T y, as gcg does, so md continues from its state; the
    # compact start has taken no step and carries nothing
    prob = ProblemInstance(
        LinearOperator([[1.0, 2.0], [0.0, -1.0]]),
        SquaredL2Box(2.0, np.zeros(2), np.ones(2)),
        LeastAbsoluteDeviation([-1.0, 0.8], 1.0),
    )
    start = init_state_compact(prob)
    with pytest.raises(ValueError, match="no carried subgradient"):
        step(prob, "md", start, 0.5)
    after = step(prob, "ns-md", start, 0.5)
    np.testing.assert_array_equal(after.carried_h_sub, -prob.operator.adjoint_apply(after.y))
    assert step(prob, "md", after, 0.5).t == 2


def test_ns_md_rejects_noncompact(monkeypatch):
    prob = _single_hinge_problem()
    message = "^algorithm requires a compact primal domain$"
    with pytest.raises(ValidationError, match=message):
        run(prob, "ns-md", SqrtDecay(delta=1.0, radius=1.0), max_iters=1)
    # step enters by run's check: no loss oracle and no matvec runs first
    state = init_state(prob, np.zeros(1))
    calls = []
    for obj, name in ((prob.loss, "_subgradient"), (prob.operator, "apply"), (prob.operator, "adjoint_apply")):
        monkeypatch.setattr(obj, name, lambda v: calls.append(1))
    with pytest.raises(ValidationError, match=message):
        step(prob, "ns-md", state, 0.5)
    assert calls == []
    # the start itself has no interior point to take
    with pytest.raises(ConfigurationError, match="compact-domain recursion supports"):
        init_state_compact(prob)


@pytest.mark.parametrize("given", ["y0", "y0-outside-c", "reference"])
def test_ns_md_rejects_a_dual_start_or_reference(given, monkeypatch):
    # ns-md starts at the interior point of K and its dual reads the support
    # function, so a y0 or a reference would be dropped: it raises instead,
    # before any oracle or matvec runs
    prob = generate_problem(ExperimentConfig(loss="lad", regularizer="entropy", n=30, p=6, seed=1))
    sched = SqrtDecay(delta=1.0, radius=1.0)
    kwargs = {
        "y0": {"y0": np.zeros(prob.n)},
        "y0-outside-c": {"y0": np.full(prob.n, 1e9)},
        "reference": {"reference": SimpleNamespace(x_star=None, primal_value=1.0)},
    }[given]
    free = run(prob, "ns-md", sched, max_iters=5)
    calls = []
    kernels = [(prob.operator, "apply"), (prob.operator, "adjoint_apply")]
    kernels += [(kind, name) for kind in (prob.loss, prob.regularizer)
                for name in ("_value", "_conj_value", "_subgradient", "_conj_grad") if hasattr(kind, name)]
    for obj, name in kernels:
        monkeypatch.setattr(obj, name, lambda *args: calls.append(1))
    with pytest.raises(ConfigurationError, match="^ns-md starts at the interior point of K and has no y0 or "
                       "reference; pass neither$"):
        run(prob, "ns-md", sched, max_iters=5, **kwargs)
    assert calls == []
    monkeypatch.undo()
    assert run(prob, "ns-md", sched, max_iters=5).trace == free.trace
    # md and gcg read both: a y0 outside C raises, and a reference fills its column
    for algorithm in ("md", "gcg"):
        plain = run(prob, algorithm, FixedTwoOverTPlusOne(), max_iters=5)
        if given == "y0-outside-c":
            with pytest.raises(FeasibilityError, match="y0 lies outside the dual domain C"):
                run(prob, algorithm, FixedTwoOverTPlusOne(), max_iters=5, **kwargs)
            continue
        res = run(prob, algorithm, FixedTwoOverTPlusOne(), max_iters=5, **kwargs)
        if given == "y0":  # the default start, given explicitly
            assert res.trace == plain.trace
        else:  # row t's column reads the post-step dual, row t + 1's own
            assert [rec._replace(dual_suboptimality=None) for rec in res.trace] == plain.trace
            subopt = [rec.dual_suboptimality for rec in res.trace[:-1]]
            assert subopt == [1.0 - rec.dual_value for rec in plain.trace[1:]]


@pytest.mark.parametrize("bad", ["length-1", "nan"])
@pytest.mark.parametrize("algorithm,field", [("md", "y"), ("gcg", "y"), ("md", "carried_h_sub")])
def test_step_checks_each_vector_its_recursion_reads(algorithm, field, bad, monkeypatch):
    # unchecked, a length-1 vector broadcasts to length n or p and an all-NaN
    # md y comes back as NaN; the check comes before the kernel's oracle call
    prob = generate_problem(ExperimentConfig(loss="lad", n=8, p=3, seed=1))
    state = init_state(prob, np.zeros(prob.n))
    size = getattr(state, field).shape[0]
    value, error, message = {
        "length-1": (np.zeros(1), pdcg.core.DimensionMismatch, f"{field} has length 1, expected {size}"),
        "nan": (np.full(size, np.nan), ValidationError, f"{field} contains non-finite entries"),
    }[bad]
    calls = []
    monkeypatch.setattr(prob.loss, "_subgradient", lambda z: calls.append(1))
    with pytest.raises(error, match=message):
        step(prob, algorithm, dataclasses.replace(state, **{field: value}), 0.5)
    assert calls == []


def test_step_rejects_an_unknown_algorithm():
    prob = _single_hinge_problem()
    with pytest.raises(ConfigurationError, match="unknown algorithm 'dogleg'"):
        step(prob, "dogleg", init_state(prob, np.zeros(1)), 0.5)


# --------------------------------------------------------------------------
# run loop

# rows run() evaluates together: as many as fit 2^14 floats of n + p, at most
# 64, which every instance here reaches
BLOCK = 64


def _svm_problem(n=30, p=6, seed=3, mu=1.0):
    cfg = ExperimentConfig(loss="hinge", regularizer="squared_l2", n=n, p=p, mu=mu, seed=seed)
    return generate_problem(cfg)


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


def test_dual_start_is_zero_and_a_c_without_it_needs_y0():
    prob = generate_problem(ExperimentConfig(loss="lad", n=8, p=3, seed=1))
    assert init_state(prob).y.tobytes() == np.zeros(8).tobytes()
    assert _same_state(init_state(prob), init_state(prob, np.zeros(8)))
    assert init_state(prob, np.full(8, 0.0625)).y.tolist() == [0.0625] * 8  # inside C = [-1/8, 1/8]^8
    # a loss whose C leaves out 0: no fallback start, so the caller passes y0
    loss = LeastAbsoluteDeviation(prob.loss.targets)
    loss.dual_domain = Box(np.full(8, 0.5), np.ones(8))
    shifted = ProblemInstance(prob.operator, prob.regularizer, loss)
    with pytest.raises(FeasibilityError, match="y0 lies outside the dual domain C"):
        init_state(shifted)
    assert init_state(shifted, np.full(8, 0.75)).y.tolist() == [0.75] * 8


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
        state = step(prob, "gcg", state, FixedTwoOverTPlusOne().rho(t))
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


def test_ns_md_past_a_softmax_underflow_warns_nothing():
    # x_1 is the vertex e_1, so every later prox step takes the log of exact zeros
    cfg = ExperimentConfig(loss="hinge", regularizer="entropy", n=30, p=6, scale=1e6, seed=1, algorithm="ns-md")
    prob = generate_problem(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(prob, "ns-md", FixedTwoOverTPlusOne(), max_iters=100, gap_tol=-np.inf)
    assert len(res.trace) == 100
    assert res.state.x.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]


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


def test_run_and_lockstep_reject_a_schedule_name():
    # a name is not a StepSchedule: a ConfigurationError on entry, not an AttributeError
    prob = _svm_problem()
    with pytest.raises(ConfigurationError, match="unknown schedule 'line-search'"):
        run(prob, "gcg", "line-search", max_iters=5)
    with pytest.raises(ConfigurationError, match="unknown schedule 'line-search'"):
        verify_equivalence(prob, np.zeros(prob.n), "line-search", 5)


def test_run_and_lockstep_check_the_schedule_once(monkeypatch):
    prob = _svm_problem()
    sched = LineSearch(mu=1.0, r2=prob.geometry.r2_primal)
    calls = []
    for module in (pdcg.algorithms, pdcg.equivalence):
        check = module._check_schedule
        monkeypatch.setattr(module, "_check_schedule", lambda *args, check=check: calls.append(1) or check(*args))
    assert len(run(prob, "gcg", sched, max_iters=20, gap_tol=-np.inf).trace) == 20
    assert verify_equivalence(prob, np.zeros(prob.n), sched, 20).passed
    assert len(calls) == 2


def test_run_rejects_nan_gap_tol():
    # gap <= NaN is never true, so the tolerance would be silently ignored
    with pytest.raises(ConfigurationError, match="gap_tol must not be NaN"):
        run(_svm_problem(), "gcg", FixedTwoOverTPlusOne(), max_iters=5, gap_tol=float("nan"))
    res = run(_svm_problem(), "gcg", FixedTwoOverTPlusOne(), max_iters=5, gap_tol=float("-inf"))
    assert res.termination == "budget" and len(res.trace) == 5


def _start(prob, **changes):
    return dataclasses.replace(init_state(prob, np.zeros(prob.n)), **changes)


@pytest.mark.parametrize(
    "call, outcome",
    [
        (lambda prob: run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=-1),
         ConfigurationError("max_iters must be nonnegative")),
        (lambda prob: step(prob, "gcg", _start(prob), 1.5), ValueError("step size must lie in [0, 1], got 1.5")),
        (lambda prob: step(prob, "gcg", _start(prob), -0.5), ValueError("step size must lie in [0, 1], got -0.5")),
        (lambda prob: step(prob, "md", _start(prob, carried_h_sub=None), 0.5),
         ValueError("mirror descent state has no carried subgradient; use init_state")),
        # without their guards these divide by zero: a ZeroDivisionError, or numpy's warning
        (lambda prob: LineSearch(mu=1.0, r2=0.0).rho(1, 1.0), 1.0),
        (lambda prob: SqrtDecay(delta=0.0, radius=0.0).rho(1), 1.0),
    ],
    ids=["run-negative-budget", "rho-above-one", "rho-below-zero", "md-without-carried", "line-search-r2-zero",
         "sqrt-decay-radius-zero"],
)
def test_algorithm_entry_checks(call, outcome):
    prob = _svm_problem()
    if isinstance(outcome, Exception):
        with pytest.raises(type(outcome), match=re.escape(str(outcome))):
            call(prob)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(prob) == outcome


def test_run_partial_reference_columns():
    prob = _svm_problem()
    res = run(prob, "md", FixedTwoOverTPlusOne(), max_iters=10)
    assert all(rec.dual_suboptimality is None for rec in res.trace)


def test_line_search_run_consumes_exact_gap():
    prob = _svm_problem(n=20, p=4, seed=2)
    r2 = prob.loss.dual_domain.r2(prob.operator)[0]
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
    # the post-step pair of iteration t is the pre-step pair of t + 1; the
    # count is of points evaluated, one per row of a stacked call
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, scale=20.0 / 30, seed=3,
                           algorithm=algorithm, schedule=schedule)
    prob = generate_problem(cfg)
    sched = build_schedule(cfg, prob)
    reference = SimpleNamespace(x_star=np.zeros(prob.p), primal_value=1.0) if with_reference else None
    # run() calls the loss's conjugate kernel, not the checking entry point
    conj_value = prob.loss._conj_value
    points = []
    monkeypatch.setattr(prob.loss, "_conj_value", lambda y: points.append(np.atleast_2d(y).shape[0]) or conj_value(y))
    iters = 150  # past two block boundaries
    res = run(prob, algorithm, sched, max_iters=iters, gap_tol=-np.inf, reference=reference)
    assert len(res.trace) == iters
    assert sum(points) == calls_per_iter * iters + 1


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
def test_run_scans_four_vectors_per_row_and_two_per_block(algorithm, monkeypatch):
    # one scan where each vector that can overflow is made: per row the two
    # matvec inputs, A x, and the carried g or A^T y; per block of rows the
    # stacks of the two averaged points
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, scale=20.0 / 30, seed=3,
                           algorithm=algorithm, schedule="two-over-t-plus-one")
    prob = generate_problem(cfg)
    calls = _count_as_vector(monkeypatch)
    counts = []
    for iters in (BLOCK, 2 * BLOCK, 2 * BLOCK + 22):
        calls.clear()
        run(prob, algorithm, FixedTwoOverTPlusOne(), max_iters=iters, gap_tol=-np.inf)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 4 * BLOCK + 2
    assert counts[2] - counts[1] == 4 * 22 + 2


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
    # replay the recorded steps one at a time through the public oracles and
    # keep the running sums here, with the arithmetic of each schedule's
    # average written out; 150 rows cross two block boundaries
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=30, p=6, scale=20.0 / 30, seed=4,
        algorithm=algorithm, schedule=schedule, max_iters=2 * BLOCK + 22,
    )
    prob = generate_problem(cfg)
    res = run(prob, algorithm, build_schedule(cfg, prob), max_iters=cfg.max_iters)
    op, reg, loss = prob.operator, prob.regularizer, prob.loss
    pairs, avg_primal, avg_gap = [], [], []
    if algorithm == "ns-md":
        state = init_state_compact(prob)
        sum_ax, sum_y, sum_aty = np.zeros(prob.n), np.zeros(prob.n), np.zeros(prob.p)
        for rec in res.trace:
            t = rec.t
            sum_ax = sum_ax + state.ax
            primal = loss.value(state.ax)
            state = step(prob, "ns-md", state, rec.rho)
            aty = op.adjoint_apply(state.y)
            dual = -reg.domain.support(-aty) - loss.conj_value(state.y)
            pairs.append((primal, dual, primal - dual))
            sum_y = sum_y + state.y
            sum_aty = sum_aty + aty
            primal = loss.value(sum_ax / t)
            avg_primal.append(primal)
            avg_gap.append(primal + reg.domain.support(-sum_aty / t) + loss.conj_value(sum_y / t))
    else:
        state = init_state(prob)
        sum_x, sum_ax, sum_ybar = np.zeros(prob.p), np.zeros(prob.n), np.zeros(prob.n)
        for rec in res.trace:
            t = rec.t
            # the pre-step pair (x_{t-1}, y_{t-1})
            primal = reg.value(state.x) + loss.value(state.ax)
            dual = -reg.conj_value(state.carried_h_sub) - loss.conj_value(state.y)
            pairs.append((primal, dual, primal - dual))
            if schedule == "two-over-t-plus-one":  # weight u on x_{u-1}
                sum_x = sum_x + t * state.x
                sum_ax = sum_ax + t * state.ax
                state = step(prob, algorithm, state, rec.rho)
                w = 2.0 / (t * (t + 1.0))
                primal = reg.value(w * sum_x) + loss.value(w * sum_ax)
                # the averaged pair's dual point is y_t itself
                gap = primal - (-reg.conj_value(state.carried_h_sub) - loss.conj_value(state.y))
            else:  # uniform weights
                sum_x = sum_x + state.x
                sum_ax = sum_ax + state.ax
                state = step(prob, algorithm, state, rec.rho)
                sum_ybar = sum_ybar + state.y_bar
                primal = reg.value(sum_x / t) + loss.value(sum_ax / t)
                ybar_avg = sum_ybar / t
                dual = -reg.conj_value(-op.adjoint_apply(ybar_avg)) - loss.conj_value(ybar_avg)
                gap = primal - dual if schedule == "one-over-t" else None
            avg_primal.append(primal)
            avg_gap.append(gap)
    assert len(res.trace) == cfg.max_iters
    assert len(set(avg_primal)) > 10  # the averages move
    assert [(rec.primal_value, rec.dual_value, rec.gap) for rec in res.trace] == pairs
    assert [rec.avg_primal_value for rec in res.trace] == avg_primal
    assert [rec.avg_gap for rec in res.trace] == avg_gap
    assert all(type(v) is float for rec in res.trace for v in rec[2:] if v is not None)


def _logistic_run(regularizer, algorithm, schedule, iters=2 * BLOCK + 22):
    cfg = ExperimentConfig(loss="logistic", regularizer=regularizer, n=30, p=6, scale=20.0 / 30, seed=0,
                           algorithm=algorithm, schedule=schedule, max_iters=iters)
    prob = generate_problem(cfg)
    return prob, build_schedule(cfg, prob)


def _replayed_state(prob, algorithm, trace):
    """The state after the recorded steps, taken one at a time."""
    state = init_state_compact(prob) if algorithm == "ns-md" else init_state(prob)
    for rec in trace:
        state = step(prob, algorithm, state, rec.rho)
    return state


def _same_state(a, b):
    return a.t == b.t and all(
        (u is None and v is None) or (u.dtype == v.dtype and u.tobytes() == v.tobytes())
        for u, v in ((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.name != "t")
    )


# these instances' gaps reach a new strict minimum at rows 1, BLOCK, BLOCK + 1
# and 2 * BLOCK + 22, the last
TOLERANCE_RUNS = [
    ("squared_l2", "md", "two-over-t-plus-one"),
    ("squared_l2", "gcg", "one-over-t"),
    ("squared_l2", "md", "line-search"),
    ("entropy", "ns-md", "sqrt-decay"),
]


@pytest.mark.parametrize("row", [1, BLOCK, BLOCK + 1, 2 * BLOCK + 22])
@pytest.mark.parametrize("regularizer,algorithm,schedule", TOLERANCE_RUNS)
def test_gap_tolerance_met_at_a_block_edge_stops_at_that_row(regularizer, algorithm, schedule, row):
    prob, sched = _logistic_run(regularizer, algorithm, schedule)
    full = run(prob, algorithm, sched, max_iters=2 * BLOCK + 22, gap_tol=-np.inf)
    gaps = [rec.gap for rec in full.trace]
    assert all(g > gaps[row - 1] for g in gaps[: row - 1])
    res = run(prob, algorithm, sched, max_iters=2 * BLOCK + 22, gap_tol=gaps[row - 1])
    assert res.termination == "gap_tolerance"
    assert res.trace == full.trace[:row]
    # the state of the last row kept, not of a step run ahead of it
    assert _same_state(res.state, _replayed_state(prob, algorithm, res.trace))


def _raising_at(kernel, call):
    """``kernel``, made to raise on its ``call``-th call (counting from 1)."""
    calls = []

    def patched(*args):
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError(f"kernel call {call}")
        return kernel(*args)

    return patched


@pytest.mark.parametrize(
    "stop_row,failing_step,raises",
    [
        (1, 2, False),
        (BLOCK, BLOCK + 1, False),  # the failing step opens the next block
        (BLOCK + 1, BLOCK + 2, False),
        (BLOCK + 1, BLOCK + 1, True),  # a row's own step comes before its record
        (BLOCK, 10, True),
        (None, 2 * BLOCK + 22, True),
    ],
)
@pytest.mark.parametrize("regularizer,algorithm,schedule", TOLERANCE_RUNS)
def test_a_step_that_fails_after_the_stopping_row_is_dropped(regularizer, algorithm, schedule, stop_row,
                                                             failing_step, raises, monkeypatch):
    prob, sched = _logistic_run(regularizer, algorithm, schedule)
    full = run(prob, algorithm, sched, max_iters=2 * BLOCK + 22, gap_tol=-np.inf)
    gap_tol = -np.inf if stop_row is None else full.trace[stop_row - 1].gap
    # every recursion calls the loss oracle once per step
    monkeypatch.setattr(prob.loss, "_subgradient", _raising_at(prob.loss._subgradient, failing_step))
    if raises:
        with pytest.raises(RuntimeError, match=f"kernel call {failing_step}$"):
            run(prob, algorithm, sched, max_iters=2 * BLOCK + 22, gap_tol=gap_tol)
    else:
        res = run(prob, algorithm, sched, max_iters=2 * BLOCK + 22, gap_tol=gap_tol)
        assert res.trace == full.trace[:stop_row]
        assert res.state.t == stop_row


def _raising_on(kernel, marker, exc):
    """``kernel``, made to raise ``exc`` when a row of its last argument is ``marker``."""
    def patched(*args):
        if np.any(np.all(np.atleast_2d(args[-1]) == marker, axis=-1)):
            raise exc
        return kernel(*args)

    return patched


@pytest.mark.parametrize("stop_row,raised", [(None, DomainError), (30, DomainError), (25, DomainError), (24, None)])
def test_run_raises_what_the_first_failing_row_raises(stop_row, raised, monkeypatch):
    # in one block, row 25 fails in the Bregman column and row 30 earlier in
    # the row's order, at its post-step dual value; evaluated one row at a
    # time after its step, row 25 fails first
    prob, sched = _logistic_run("entropy", "md", "two-over-t-plus-one")
    reference = SimpleNamespace(x_star=prob.regularizer.interior_point(), primal_value=1.0)
    full = run(prob, "md", sched, max_iters=40, gap_tol=-np.inf, reference=reference)
    states = [_replayed_state(prob, "md", full.trace[:t]) for t in (25, 30)]
    gaps = [rec.gap for rec in full.trace]
    gap_tol = -np.inf if stop_row is None else gaps[stop_row - 1]
    if stop_row is not None:
        assert all(g > gap_tol for g in gaps[: stop_row - 1])
    reg, loss = prob.regularizer, prob.loss
    monkeypatch.setattr(reg, "_bregman", _raising_on(reg._bregman, states[0].x, DomainError("row 25")))
    monkeypatch.setattr(loss, "_conj_value", _raising_on(loss._conj_value, states[1].y, ValueError("row 30")))
    if raised is None:
        res = run(prob, "md", sched, max_iters=40, gap_tol=gap_tol, reference=reference)
        assert res.trace == full.trace[:stop_row]
    else:
        with pytest.raises(raised, match="row 25"):
            run(prob, "md", sched, max_iters=40, gap_tol=gap_tol, reference=reference)


def test_a_failing_one_row_block_raises_after_one_evaluation(monkeypatch):
    # the last block holds one row: its failure raises as it is, and no
    # row-by-row fallback evaluates that row a second time
    prob, sched = _logistic_run("squared_l2", "md", "two-over-t-plus-one")
    conj_value, calls = prob.loss._conj_value, []

    def failing_on_one_row(y):
        if np.ndim(y) == 2 and len(y) == 1:
            calls.append(y)
            raise ValueError("one-row block")
        return conj_value(y)

    monkeypatch.setattr(prob.loss, "_conj_value", failing_on_one_row)
    with pytest.raises(ValueError, match="one-row block"):
        run(prob, "md", sched, max_iters=BLOCK + 1)
    assert len(calls) == 1


@pytest.mark.parametrize("algorithm,schedule", [("md", "two-over-t-plus-one"), ("gcg", "one-over-t"),
                                                ("gcg", "line-search")])
def test_gaps_at_the_round_off_floor_pass_and_below_it_raise(algorithm, schedule, monkeypatch):
    # every kernel of the pair patched so that each gap and averaged gap is
    # exactly -GAP_CLAMP, then one ulp below it
    prob, sched = _logistic_run("squared_l2", algorithm, schedule)
    zeros = lambda v: np.zeros(np.shape(v)[:-1])  # noqa: E731
    for obj, name in ((prob.regularizer, "_value"), (prob.loss, "_value"), (prob.regularizer, "_conj_value")):
        monkeypatch.setattr(obj, name, zeros)
    floor = pdcg.core.GAP_CLAMP
    monkeypatch.setattr(prob.loss, "_conj_value", lambda y: np.full(np.shape(y)[:-1], -floor))
    res = run(prob, algorithm, sched, max_iters=BLOCK + 5, gap_tol=-np.inf)
    assert {rec.gap for rec in res.trace} == {-floor}
    assert {rec.avg_gap for rec in res.trace} <= {-floor, None}
    below = float(np.nextafter(-floor, -1.0))
    monkeypatch.setattr(prob.loss, "_conj_value", lambda y: np.full(np.shape(y)[:-1], below))
    with pytest.raises(pdcg.core.GapInconsistencyError, match=f"duality gap {below!r} < -{floor}"):
        run(prob, algorithm, sched, max_iters=BLOCK + 5, gap_tol=-np.inf)


@pytest.mark.parametrize("algorithm", ["md", "gcg", "ns-md"])
def test_the_round_off_floor_scales_with_the_pair(algorithm, monkeypatch):
    # hinge + entropy at scale 1e6 settles on a gap of -3.7e-9, one ulp of its
    # primal value 2.87e7 and far below the absolute -1e-10
    cfg = ExperimentConfig(loss="hinge", regularizer="entropy", n=30, p=6, scale=1e6, seed=1, algorithm=algorithm)
    prob = generate_problem(cfg)
    sched = build_schedule(cfg, prob)
    res = run(prob, algorithm, sched, max_iters=BLOCK + 5, gap_tol=-np.inf)
    assert res.termination == "budget" and len(res.trace) == BLOCK + 5
    assert min(rec.gap for rec in res.trace) < -pdcg.core.GAP_CLAMP
    primal = abs(res.trace[-1].primal_value)
    assert 2e7 < primal < 4e7
    # a dual raised by a millionth of the primal value is an inconsistency still
    conj_value = prob.loss._conj_value
    monkeypatch.setattr(prob.loss, "_conj_value", lambda y: conj_value(y) - 1e-6 * primal)
    with pytest.raises(pdcg.core.GapInconsistencyError):
        run(prob, algorithm, sched, max_iters=BLOCK + 5, gap_tol=-np.inf)
