import dataclasses
import gc
import json
import math
import os
import pathlib
import tracemalloc
import weakref

import numpy as np
import pytest

from pdcg import (
    Box,
    ConfigurationError,
    ExperimentConfig,
    FixedTwoOverTPlusOne,
    Hinge,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    Loss,
    ProblemInstance,
    RealSpace,
    Regularizer,
    SqrtDecay,
    SquaredL2,
    TraceRecord,
    build_schedule,
    duality_gap,
    emit_trace,
    generate_problem,
    geometry_constants,
    prepare,
    reference_solution,
    run,
    run_sweep,
    trace_csv,
    trace_json_obj,
)
from pdcg import harness
from pdcg.algorithms import StepSchedule
from pdcg.harness import CSV_HEADER, SCHEDULE_NAMES, SCHEDULES, TRACE_COLUMNS, sweep_cells


# --------------------------------------------------------------------------
# config


def test_config_round_trips_through_json(tmp_path):
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=17, p=5, mu=1.0, scale=0.25,
        seed=42, algorithm="ns-md", schedule="sqrt-decay", max_iters=77,
        gap_tol=1e-6, output_format="json", output_path="out.json",
        reference_budget=1234,
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert ExperimentConfig.load(str(path)) == cfg
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"loss": "hinge", "bogus": 1})


@pytest.mark.parametrize(
    "overrides",
    [
        {"loss": "huber"},
        {"regularizer": "l1"},
        {"algorithm": "sgd"},
        {"schedule": "constant"},
        {"n": 0},
        {"max_iters": -1},
        {"output_format": "parquet"},
        {"regularizer": "entropy", "mu": 2.0},
        {"reference_budget": -1},
        {"gap_tol": float("nan")},
        {"seed": -1},
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**overrides).validate()


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"mu": 0.0}, "modulus mu must be positive and finite"),
        ({"mu": -1.0}, "modulus mu must be positive and finite"),
        ({"mu": float("inf")}, "modulus mu must be positive and finite"),
        ({"mu": float("nan")}, "modulus mu must be positive and finite"),
        ({"regularizer": "squared_l2_box", "mu": 0.0}, "modulus mu must be positive and finite"),
        ({"regularizer": "squared_l2_box", "box_lower": 1.0, "box_upper": 0.0},
         "box_lower must be strictly below box_upper"),
        ({"regularizer": "squared_l2_box", "box_lower": 0.5, "box_upper": 0.5},
         "box_lower must be strictly below box_upper"),
        ({"regularizer": "squared_l2_box", "box_lower": float("nan")}, "box_lower must be strictly below box_upper"),
        ({"regularizer": "squared_l2_box", "box_lower": -math.inf}, "box bounds must be finite"),
        ({"regularizer": "squared_l2_box", "box_upper": math.inf}, "box bounds must be finite"),
        ({"scale": 0.0}, "loss scale must be positive and finite"),
        ({"loss": "lad", "scale": -1.0}, "loss scale must be positive and finite"),
        ({"loss": "logistic", "scale": float("nan")}, "loss scale must be positive and finite"),
        ({"loss": "lad", "scale": math.inf}, "loss scale must be positive and finite"),
        ({"loss": "gauge", "gauge_omega0": 0.0}, "omega0 must be positive and finite"),
        ({"loss": "gauge", "gauge_omega0": math.inf}, "omega0 must be positive and finite"),
        ({"loss": "gauge", "gauge_lambda": -1.0}, "lam must be nonnegative and finite"),
        ({"loss": "gauge", "gauge_lambda": math.inf}, "lam must be nonnegative and finite"),
    ],
)
def test_config_checks_mu_and_box_bounds_when_built(overrides, message):
    # both used to pass here and fail only when the instance was generated
    with pytest.raises(ConfigurationError, match=message):
        ExperimentConfig(**overrides)
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(ExperimentConfig(), **overrides)


def test_config_rules_come_before_the_constructor_checks():
    # the strict box rule is the config's own, so it is raised before the
    # one-by-one instance runs the regularizer's modulus check
    with pytest.raises(ConfigurationError, match="box_lower must be strictly below box_upper"):
        ExperimentConfig(regularizer="squared_l2_box", mu=0.0, box_lower=0.5, box_upper=0.5)
    with pytest.raises(ConfigurationError, match="modulus mu must be positive and finite"):
        ExperimentConfig(regularizer="squared_l2_box", loss="lad", mu=0.0, scale=-1.0)


def test_box_bounds_are_checked_for_the_box_regularizer_only():
    assert ExperimentConfig(regularizer="squared_l2", box_lower=1.0, box_upper=0.0).box_lower == 1.0
    # the gauge reads gauge_omega0 and gauge_lambda, not scale
    assert ExperimentConfig(loss="gauge", scale=-1.0).scale == -1.0


# --------------------------------------------------------------------------
# generation


def test_generate_deterministic():
    cfg = ExperimentConfig(loss="hinge", n=12, p=3, seed=1)
    a = generate_problem(cfg)
    b = generate_problem(cfg)
    assert a.operator.matrix.tobytes() == b.operator.matrix.tobytes()
    assert np.array_equal(a.loss.labels, b.loss.labels)


def test_generate_column_norms_order_one():
    cfg = ExperimentConfig(loss="logistic", n=200, p=20, seed=5)
    prob = generate_problem(cfg)
    col_norms = np.linalg.norm(prob.operator.matrix, axis=0)
    assert np.all(col_norms > 0.3)
    assert np.all(col_norms < 3.0)


def test_generate_lad_outlier_mass():
    # the lad generator plants x_true and n // 10 outliers, in this draw
    # order; replaying its draws recovers both, and the loss at the planted
    # point is the outliers' mass
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=50, p=10, seed=3)
    prob = generate_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    a = rng.standard_normal((50, 10)) / np.sqrt(50)
    x_true = rng.standard_normal(10)
    outliers = rng.choice(50, size=5, replace=False)
    amplitudes = 5.0 * rng.standard_normal(5)
    assert np.array_equal(prob.operator.matrix, a)
    assert np.array_equal(np.flatnonzero(prob.loss.targets - a @ x_true), np.sort(outliers))
    mass = prob.loss.scale * float(np.sum(np.abs(amplitudes)))
    assert prob.loss.value(prob.operator.apply(x_true)) == pytest.approx(mass, abs=1e-12)


def test_generate_rejects_empty():
    with pytest.raises(ConfigurationError):
        generate_problem(ExperimentConfig(loss="hinge", n=0, p=3))


def test_generate_gauge_instance():
    cfg = ExperimentConfig(loss="gauge", n=14, p=4, seed=2, gauge_omega0=1.5, gauge_lambda=0.2)
    prob = generate_problem(cfg)
    assert prob.loss.dual_domain.radius == 1.5


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("loss", ["hinge", "logistic", "lad", "gauge"])
def test_generate_holds_one_matrix_beyond_the_operators_copy(loss):
    # the drawn matrix and the operator's copy; a whole-matrix row norm held a third
    cfg = ExperimentConfig(loss=loss, n=2000, p=500, seed=0)
    assert _peak_bytes(generate_problem, cfg) <= 2 * 2000 * 500 * 8 + 2**20


def test_operator_build_holds_nothing_matrix_sized_beyond_its_copy():
    m = np.random.default_rng(0).standard_normal((2000, 500))
    assert _peak_bytes(LinearOperator, m) <= m.nbytes + 2**20


# --------------------------------------------------------------------------
# reference solving


def test_reference_one_dimensional_hinge():
    # min x^2/2 + max(1 - x, 0): derivative is x - 1 left of the kink and x
    # to the right, so x* = 1 with value 1/2
    prob = ProblemInstance(LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0))
    ref = reference_solution(prob, tol=1e-9)
    assert ref.certified
    assert ref.certified_gap <= 1e-9
    np.testing.assert_allclose(ref.x_star, [1.0], atol=1e-8)
    assert ref.primal_value == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("n, mu, s", [(8, 1.0, 0.5), (20, 2.0, 1.0), (50, 0.5, 0.25)])
def test_reference_reaches_the_closed_form_separable_optimum(n, mu, s):
    # lad under squared_l2 with A = I separates: min_x mu/2 x^2 + s |x - b| per
    # coordinate, so x* = clip(b, -s/mu, s/mu).  P is mu-strongly convex, so
    # mu/2 ||x - x*||^2 <= P(x) - P* <= the certified gap
    b = 2.0 * np.random.default_rng(n).standard_normal(n)
    x_exact = np.clip(b, -s / mu, s / mu)
    assert 0 < np.count_nonzero(x_exact != b) < n  # some coordinates clip, some do not
    prob = ProblemInstance(LinearOperator(np.eye(n)), SquaredL2(mu, n), LeastAbsoluteDeviation(b, s))
    ref = reference_solution(prob, tol=1e-9)
    assert ref.certified
    assert mu / 2.0 * float(np.sum((ref.x_star - x_exact) ** 2)) <= ref.certified_gap


def test_reference_degenerate_tolerance():
    prob = ProblemInstance(LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0))
    ref = reference_solution(prob, tol=np.inf)
    assert ref.certified
    assert ref.iterations <= 1


def _count_polish_calls(monkeypatch):
    calls = []
    polish = harness._polish_box_dual

    def counted(*args, **kwargs):
        calls.append(args)
        return polish(*args, **kwargs)

    monkeypatch.setattr(harness, "_polish_box_dual", counted)
    return calls


def test_reference_zero_budget_uncertified(monkeypatch):
    cfg = ExperimentConfig(loss="logistic", n=20, p=5, seed=6, scale=0.5)
    prob = generate_problem(cfg)
    calls = _count_polish_calls(monkeypatch)
    ref = reference_solution(prob, tol=1e-9, cap=0)
    assert not ref.certified
    assert ref.iterations == 0
    assert ref.certified_gap > 1e-9
    # the unpolished dual start, bit for bit: 0 on the face of the open C, not clipped inside it
    assert calls == []
    start = harness.init_state(prob, np.zeros(prob.n))
    assert ref.y_star.tobytes() == np.zeros(prob.n).tobytes()
    assert ref.x_star.tobytes() == start.x.tobytes()


@pytest.mark.parametrize(
    "cfg, engine, cap, final",
    [
        (ExperimentConfig(loss="lad", n=20, p=5, seed=3, scale=0.4), "_polish_box_dual", 10**6, lambda out: out[0]),
        (ExperimentConfig(loss="gauge", regularizer="entropy", n=20, p=5, seed=3, scale=0.4), "run", 10**6,
         lambda out: out.state),
        (ExperimentConfig(loss="logistic", n=20, p=5, seed=6, scale=0.5), "init_state", 0, lambda out: out),
    ],
    ids=["newton", "line-search", "zero-budget"],
)
def test_reference_returns_its_engines_own_state(monkeypatch, cfg, engine, cap, final):
    prob = generate_problem(cfg)
    init_state, starts, returns = harness.init_state, [], []

    def counted_start(*args):
        starts.append(args)
        return init_state(*args)

    monkeypatch.setattr(harness, "init_state", counted_start)
    solve = getattr(harness, engine)

    def traced_engine(*args, **kwargs):
        out = solve(*args, **kwargs)
        returns.append((len(starts), out))
        return out

    monkeypatch.setattr(harness, engine, traced_engine)
    ref = reference_solution(prob, cap=cap)
    [(starts_at_return, out)] = returns
    # the engine's state is the pair: nothing rebuilds it from y* afterwards
    assert len(starts) == starts_at_return
    state = final(out)
    assert ref.y_star.tobytes() == state.y.tobytes()
    assert ref.x_star.tobytes() == init_state(prob, ref.y_star).x.tobytes()
    values = np.array(harness._values(prob, state))
    assert np.array([ref.primal_value, ref.dual_value]).tobytes() == values.tobytes()
    assert (ref.iterations > 1 and np.any(ref.y_star != 0.0)) if cap else ref.iterations == 0


@pytest.mark.parametrize(
    "kwargs", [{"tol": float("nan")}, {"tol": -1.0}, {"cap": -1}], ids=["nan-tol", "negative-tol", "negative-cap"]
)
def test_reference_rejects_bad_tolerance_or_budget(kwargs):
    prob = ProblemInstance(LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0))
    with pytest.raises(ConfigurationError):
        reference_solution(prob, **kwargs)


def test_reference_certifies_all_loss_regularizer_mixes(monkeypatch):
    calls = _count_polish_calls(monkeypatch)
    for loss, reg in [
        ("hinge", "squared_l2"), ("hinge", "entropy"),
        ("lad", "squared_l2"), ("lad", "entropy"),
        ("logistic", "squared_l2"), ("logistic", "entropy"),
    ]:
        cfg = ExperimentConfig(loss=loss, regularizer=reg, n=30, p=7, mu=1.0, seed=8, scale=0.4)
        prob = generate_problem(cfg)
        ref = reference_solution(prob, tol=1e-9)
        assert ref.certified, (loss, reg, ref.certified_gap)
        # dual value never exceeds primal value at the certified pair
        assert ref.dual_value <= ref.primal_value + 1e-12
        # the Newton polish starts at the dual start: no 500-step warm start
        assert ref.iterations < 500, (loss, reg, ref.iterations)
    assert len(calls) == 6


def test_reference_polish_stops_when_no_step_ascends():
    # on this lad + entropy instance the Newton and the gradient directions
    # both fail to raise the dual before the gap reaches tol: the polish
    # stops early, and its result is marked uncertified by its own gap
    prob = generate_problem(ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=10, scale=1.0, seed=8))
    ref = reference_solution(prob, tol=1e-9)
    assert not ref.certified and ref.iterations < 200  # only the stall exit ends the loop early uncertified
    assert ref.certified_gap == duality_gap(prob, ref.x_star, ref.y_star)


def test_reference_polish_falls_back_to_least_squares_on_a_singular_system(monkeypatch):
    # np.linalg.solve may reject a Newton system as singular: that pass
    # takes the least-squares step instead, and the polish still certifies
    prob = generate_problem(ExperimentConfig(loss="logistic", regularizer="squared_l2", n=20, p=10, seed=3))
    solve, lstsq, failed, fallbacks = np.linalg.solve, np.linalg.lstsq, [], []

    def singular_once(a, b):
        if not failed:
            failed.append(1)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kwargs: fallbacks.append(1) or lstsq(*args, **kwargs))
    ref = reference_solution(prob, tol=1e-9)
    assert failed == fallbacks == [1]
    assert ref.certified and ref.iterations > 1
    assert ref.certified_gap == duality_gap(prob, ref.x_star, ref.y_star)


# mixes the Newton polish cannot run on: run's line-search GCG is their
# only engine, and a box C it leaves uncertified with budget left raises
@pytest.mark.parametrize(
    "loss, reg, scale, certified",
    [("hinge", "squared_l2_box", None, True), ("lad", "squared_l2_box", 20.0 / 60, None), ("gauge", "entropy", None, False),
     ("gauge", "squared_l2", None, True)],
    ids=["hinge-box-certifies", "lad-box-raises", "gauge-entropy-uncertified", "gauge-l2-certifies"],
)
def test_reference_without_newton_start_runs_gcg_first(loss, reg, scale, certified, monkeypatch):
    prob = generate_problem(ExperimentConfig(loss=loss, regularizer=reg, n=60, p=10, seed=3, scale=scale))
    calls = _count_polish_calls(monkeypatch)
    if certified is None:
        with pytest.raises(ConfigurationError, match="^no smooth dual model for SquaredL2Box$"):
            reference_solution(prob, tol=1e-9)
        # with no budget left the box is not blamed: the result is uncertified
        assert not reference_solution(prob, tol=1e-9, cap=40).certified
        assert calls == []
        return
    ref = reference_solution(prob, tol=1e-9)
    assert ref.certified == certified, ref.certified_gap
    assert calls == []
    if loss == "hinge":
        # two GCG steps reach gap 0, and the count is those steps alone
        assert (ref.iterations, ref.certified_gap) == (2, 0.0)
    if not certified:
        # the whole min(cap, 500) GCG budget, and no polish on an l1-ball C
        assert ref.iterations == 500
        assert reference_solution(prob, tol=1e-9, cap=40).iterations == 40


# test-only kinds from the required kernels alone: lad's f on its box C and
# h = (mu/2)||x||^2 on R^p; the subclasses add the two polish kernels and declare nothing
class _BoxLoss(Loss):
    def __init__(self, targets, scale):
        self.targets, self.scale, self.dim = targets, scale, targets.shape[0]
        self.dual_domain = Box(np.full(self.dim, -scale), np.full(self.dim, scale))

    def _value(self, z):
        return self.scale * np.add.reduce(np.abs(z - self.targets), axis=-1)

    def _conj_value(self, y):
        inside = np.logical_and.reduce(np.abs(y) <= self.scale * (1.0 + 1e-9), axis=-1)
        return np.where(inside, y @ self.targets, np.inf)[()]

    def _subgradient(self, z):
        return self.scale * np.sign(z - self.targets)


class _NewtonBoxLoss(_BoxLoss):
    newton_calls = 0

    def _conj_newton(self, y):
        self.newton_calls += 1
        return self.targets.copy(), np.zeros(self.dim)


class _PlainL2(Regularizer):
    def __init__(self, mu, dim):
        self.mu, self.dim, self.domain = mu, dim, RealSpace(dim)

    def _value(self, x):
        return 0.5 * self.mu * np.add.reduce(x * x, axis=-1)

    def _conj_value(self, z):
        return np.add.reduce(z * z, axis=-1) / (2.0 * self.mu)

    def _conj_grad(self, z):
        return z / self.mu

    def _bregman(self, x1, x2):
        return self._value(x1 - x2)


class _HessianL2(_PlainL2):
    def _conj_hess(self, z, x):
        return np.eye(self.dim) / self.mu


@pytest.mark.parametrize(
    "loss_cls,reg_cls",
    [(_BoxLoss, _PlainL2), (_BoxLoss, _HessianL2), (_NewtonBoxLoss, _PlainL2), (_NewtonBoxLoss, _HessianL2)],
    ids=["no-kernel", "conj-hess-only", "conj-newton-only", "both-kernels"],
)
def test_reference_engine_is_picked_from_the_kernels_the_kinds_implement(loss_cls, reg_cls):
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=7, mu=1.0, seed=8, scale=0.4)
    prob = generate_problem(cfg)
    inst = ProblemInstance(prob.operator, reg_cls(1.0, prob.p), loss_cls(prob.loss.targets, prob.loss.scale))
    if loss_cls is _BoxLoss:
        # without _conj_newton: run's line-search gcg for its whole budget, whatever h* has
        ref = reference_solution(inst, tol=1e-9)
        assert (ref.certified, ref.iterations) == (False, 500)
    elif reg_cls is _PlainL2:
        # _conj_newton under an h* without _conj_hess: gcg alone, and h* is blamed while budget is left
        with pytest.raises(ConfigurationError, match="^no smooth dual model for _PlainL2$"):
            reference_solution(inst, tol=1e-9)
        ref = reference_solution(inst, tol=1e-9, cap=40)
        assert (ref.certified, ref.iterations, inst.loss.newton_calls) == (False, 40, 0)
    else:
        # both kernels: the Newton polish, in as many passes as the built-in lad under squared_l2 takes
        ref = reference_solution(inst, tol=1e-9)
        assert ref.certified and inst.loss.newton_calls > 0
        assert ref.iterations == reference_solution(prob, tol=1e-9).iterations < 500


# --------------------------------------------------------------------------
# schedules


def test_build_schedule_constants():
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1, schedule="line-search")
    prob = generate_problem(cfg)
    sched = build_schedule(cfg, prob)
    assert isinstance(sched, LineSearch) and sched.mu == 1.0 and sched.r2 > 0
    cfg2 = ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1, schedule="sqrt-decay")
    sched2 = build_schedule(cfg2, prob)
    assert isinstance(sched2, SqrtDecay)
    assert sched2.delta == pytest.approx(np.sqrt(np.log(4.0)))


def test_the_schedule_classes_name_the_schedules():
    # the config default, its validation, the CLI choices and build_schedule read the class names
    assert SCHEDULE_NAMES == ("two-over-t-plus-one", "one-over-t", "line-search", "sqrt-decay")
    assert set(SCHEDULES) == set(StepSchedule.__subclasses__())
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1)
    assert (cfg.algorithm, cfg.schedule) == ("gcg", "two-over-t-plus-one")
    prob = generate_problem(cfg)
    for cls in SCHEDULES:
        assert type(build_schedule(dataclasses.replace(cfg, schedule=cls.name), prob)) is cls
    # avg_dual is the one averaging fact: "y" alone weights the md/gcg iterates
    assert {cls.name: cls.avg_dual for cls in SCHEDULES} == {
        "two-over-t-plus-one": "y", "one-over-t": "oracle", "line-search": None, "sqrt-decay": None}
    assert not hasattr(StepSchedule, "weighted")


# --------------------------------------------------------------------------
# serialization


def _small_result(max_iters=3, reference=None):
    cfg = ExperimentConfig(loss="logistic", n=10, p=3, seed=4, max_iters=max_iters)
    prob = generate_problem(cfg)
    ref = reference_solution(prob, tol=1e-9) if reference else None
    return cfg, run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=max_iters, reference=ref)


def test_emit_trace_empty_is_header_only(tmp_path):
    cfg, res = _small_result(max_iters=0)
    path = tmp_path / "t.csv"
    emit_trace(res, "csv", str(path))
    assert path.read_text() == "t,rho,primal,dual,gap,avg_primal,dual_subopt,bregman_ref\n"


def test_emit_trace_row_count(tmp_path):
    cfg, res = _small_result(max_iters=3)
    path = tmp_path / "t.csv"
    emit_trace(res, "csv", str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("t,rho,")


def test_csv_seventeen_significant_digits():
    cfg, res = _small_result(max_iters=2)
    row = trace_csv(res).splitlines()[1].split(",")
    # parse back: every numeric field round-trips to the stored double
    assert int(row[0]) == res.trace[0].t
    assert float(row[1]) == res.trace[0].rho
    assert float(row[2]) == res.trace[0].primal_value
    assert float(row[4]) == res.trace[0].gap
    assert row[6] == "" and row[7] == ""  # no reference


def test_json_round_trip_bit_exact(tmp_path):
    cfg, res = _small_result(max_iters=3, reference=True)
    path = tmp_path / "t.json"
    emit_trace(res, "json", str(path), config=cfg)
    obj = json.loads(path.read_text())
    assert obj["header"]["config"] == cfg.to_dict()
    assert obj["header"]["termination"] == res.termination
    for rec, row in zip(res.trace, obj["records"]):
        assert row["t"] == rec.t
        assert row["rho"] == rec.rho
        assert row["primal"] == rec.primal_value
        assert row["dual"] == rec.dual_value
        assert row["gap"] == rec.gap
        assert row["avg_primal"] == rec.avg_primal_value
        assert row["dual_subopt"] == rec.dual_suboptimality
        assert row["bregman_ref"] == rec.bregman_to_ref


def test_reference_columns_serialized(tmp_path):
    cfg, res = _small_result(max_iters=2, reference=True)
    text = trace_csv(res)
    row = text.splitlines()[1].split(",")
    assert row[6] != "" and float(row[6]) == res.trace[0].dual_suboptimality
    assert row[7] != "" and float(row[7]) == res.trace[0].bregman_to_ref


_SPECIALS = (-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan)

# every value class a trace column can hold, and both None patterns
_HAND_BUILT = {
    "empty": [],
    "no-reference": [TraceRecord(1, 1.0, 0.75, -0.25, 1.0, 0.75), TraceRecord(2, 2 / 3, 0.5, 0.125, 0.375, 0.625)],
    "reference": [TraceRecord(1, 1.0, 0.75, -0.25, 1.0, 0.75, 1e-3, 2.5e-7, 0.5)],
    "mixed": [TraceRecord(1, 1.0, 0.75, -0.25, 1.0, 0.75), TraceRecord(2, 0.5, 0.5, 0.1, 0.4, 0.6, 1e-3, None, 0.2)],
    # sqrt-decay's rho is an np.float64; t stays an int, up to 1e17 - 1
    "specials": [
        TraceRecord(t, np.float64(1 / t), *_SPECIALS[t - 1 :], *_SPECIALS[: t - 1]) for t in range(1, 7)
    ] + [TraceRecord(10**17 - 1, np.float64(-0.0), np.float64(math.nan), -math.inf, 1e-308, 0.1, None, None)],
}


def _trace_case(kind):
    """(config, problem, result): a hand-built trace, or a real run, md/gcg with a reference."""
    if kind in _HAND_BUILT:
        cfg, res = _small_result(max_iters=0)
        return cfg, generate_problem(cfg), dataclasses.replace(res, trace=_HAND_BUILT[kind])
    algorithm, schedule = kind.split(":")
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=12, p=4, seed=2, max_iters=16,
                           algorithm=algorithm, schedule=schedule, output_format="json")
    exp = prepare(cfg)
    reference = None if algorithm == "ns-md" else reference_solution(exp.problem)  # ns-md rejects one
    return cfg, exp.problem, exp.run(reference=reference)


_TRACE_KINDS = sorted(_HAND_BUILT) + ["gcg:two-over-t-plus-one", "ns-md:sqrt-decay"]


@pytest.mark.parametrize("kind", ["gcg:two-over-t-plus-one", "ns-md:sqrt-decay"])
def test_trace_columns_hold_only_numbers_and_none(kind):
    # the JSON writer splits the C encoder's output of the record values at ","
    _, _, res = _trace_case(kind)
    assert res.trace
    for rec in res.trace:
        for field in TRACE_COLUMNS.values():
            value = getattr(rec, field)
            assert value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)), (field, value)
    if kind == "ns-md:sqrt-decay":
        assert isinstance(res.trace[-1].rho, np.float64)


@pytest.mark.parametrize("with_geometry", [False, True], ids=["no-geometry", "geometry"])
@pytest.mark.parametrize("with_config", [False, True], ids=["no-config", "config"])
@pytest.mark.parametrize("kind", _TRACE_KINDS)
def test_json_trace_matches_json_dumps(tmp_path, kind, with_config, with_geometry):
    cfg, problem, res = _trace_case(kind)
    config = cfg if with_config else None
    geometry = geometry_constants(problem) if with_geometry else None
    path = tmp_path / "t.json"
    emit_trace(res, "json", str(path), config=config, geometry=geometry)
    expected = json.dumps(trace_json_obj(res, config, geometry), indent=1) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def _csv_reference(result):
    """One format(float(v), ".17g") per value; empty for None."""
    rows = [
        ",".join("" if v is None else format(float(v), ".17g") for v in (getattr(rec, f) for f in TRACE_COLUMNS.values()))
        for rec in result.trace
    ]
    return "\n".join([CSV_HEADER] + rows) + "\n"


@pytest.mark.parametrize("kind", _TRACE_KINDS)
def test_csv_trace_matches_per_value_format(tmp_path, kind):
    _, _, res = _trace_case(kind)
    path = tmp_path / "t.csv"
    emit_trace(res, "csv", str(path))
    assert path.read_bytes() == _csv_reference(res).encode("utf-8")


# --------------------------------------------------------------------------
# sweeps


def test_sweep_cell_layout(tmp_path):
    cfg = ExperimentConfig(loss="hinge", n=10, p=3, max_iters=5)
    cells = sweep_cells(cfg, ["one-over-t", "line-search"], [0, 1, 2], str(tmp_path))
    assert len(cells) == 6
    names = sorted(os.path.basename(p) for _, p in cells)
    assert names[0] == "trace_line-search_0.csv"


def test_sweep_concurrent_matches_sequential(tmp_path):
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=20)
    seq_dir = tmp_path / "seq"
    par_dir = tmp_path / "par"
    seq = run_sweep(cfg, ["two-over-t-plus-one", "one-over-t"], [0, 1], str(seq_dir), workers=1)
    par = run_sweep(cfg, ["two-over-t-plus-one", "one-over-t"], [0, 1], str(par_dir), workers=2)
    assert len(seq) == len(par) == 4
    for s, p in zip(sorted(seq), sorted(par)):
        assert pathlib.Path(s).read_bytes() == pathlib.Path(p).read_bytes()


@pytest.mark.parametrize("workers", [0, -4])
def test_sweep_rejects_nonpositive_workers(tmp_path, workers):
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=5)
    out_dir = tmp_path / "cells"
    with pytest.raises(ConfigurationError, match="workers must be >= 1"):
        run_sweep(cfg, ["one-over-t"], [0], str(out_dir), workers=workers)
    assert not out_dir.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "affinity, cpu_count, pool_size",
    [({0, 1, 2}, 64, 3), ({5}, 64, None), (None, 2, 2)],
    ids=["three-usable-cores", "one-usable-core", "no-affinity-call"],
)
def test_sweep_default_workers_are_usable_cores(tmp_path, monkeypatch, affinity, cpu_count, pool_size):
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=5)
    paths = run_sweep(cfg, ["two-over-t-plus-one", "one-over-t"], [0, 1], str(tmp_path / "cells"))
    assert len(paths) == 4 and all(os.path.exists(p) for p in paths)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])


def test_sweep_checks_every_schedule_on_one_instance(tmp_path, monkeypatch):
    seeds_generated, schedules_built = [], []
    generate, build = harness.generate_problem, harness.build_schedule

    def counting_generate(config):
        seeds_generated.append(config.seed)
        return generate(config)

    def recording_build(config, problem):
        schedules_built.append((config.schedule, config.seed, problem.n, problem.p))
        return build(config, problem)

    monkeypatch.setattr(harness, "generate_problem", counting_generate)
    monkeypatch.setattr(harness, "build_schedule", recording_build)
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=12, p=3, max_iters=5)
    schedules = ["two-over-t-plus-one", "one-over-t", "line-search"]
    run_sweep(cfg, schedules, [4, 7], str(tmp_path / "cells"), workers=1)
    # the last seed's 1 x 1 instance checks the three schedules, and only the cells generate
    assert schedules_built[:3] == [(sched, 7, 1, 1) for sched in schedules]
    assert schedules_built[3:] == [(sched, seed, 12, 3) for sched in schedules for seed in (4, 7)]
    assert seeds_generated == [4, 7] * len(schedules)
    # a schedule that only the last of them rejects still stops the sweep before out_dir exists
    out_dir = tmp_path / "rejected"
    with pytest.raises(ConfigurationError, match="delta\\^2 is defined for compact domains only"):
        run_sweep(dataclasses.replace(cfg, regularizer="squared_l2"), ["one-over-t", "sqrt-decay"], [4, 7],
                  str(out_dir), workers=1)
    assert not out_dir.exists()
    assert seeds_generated == [4, 7] * len(schedules)


def test_sweep_unknown_schedule_creates_no_directory(tmp_path):
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=5)
    out_dir = tmp_path / "cells"
    with pytest.raises(ConfigurationError):
        run_sweep(cfg, ["bogus"], [0], str(out_dir), workers=1)
    assert not out_dir.exists()


def test_prepare_run_end_to_end_deterministic():
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=15, p=6, seed=9, max_iters=25)
    a = prepare(cfg).run()
    b = prepare(cfg).run()
    assert trace_csv(a) == trace_csv(b)
    assert a.termination == b.termination


def test_problem_with_cached_geometry_is_freed():
    # the geometry lives on the instance, so no global cache keeps it alive
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=12, p=4, seed=2,
                           schedule="line-search", max_iters=5)
    experiment = prepare(cfg)
    experiment.run(reference_solution(experiment.problem, tol=1e-6, cap=50))
    geometry_constants(experiment.problem)
    ref = weakref.ref(experiment.problem)
    del experiment
    gc.collect()
    assert ref() is None


def _load_list_config(tmp_path):
    path = tmp_path / "list.json"
    path.write_text('[{"loss": "lad"}]')
    return ExperimentConfig.load(str(path))


def _emit_parquet(tmp_path):
    result = prepare(ExperimentConfig(loss="lad", n=10, p=3, max_iters=2)).run()
    emit_trace(result, "parquet", str(tmp_path / "trace.parquet"))


@pytest.mark.parametrize(
    "call, message",
    [(_load_list_config, "config file must contain a JSON object"),
     (_emit_parquet, "unknown output format 'parquet'")],
    ids=["config-not-an-object", "unknown-trace-format"],
)
def test_harness_entry_checks(tmp_path, call, message):
    with pytest.raises(ConfigurationError, match=message):
        call(tmp_path)
    assert not (tmp_path / "trace.parquet").exists()
