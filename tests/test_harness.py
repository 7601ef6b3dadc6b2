import json
import os

import numpy as np
import pytest

from pdcg import (
    ConfigurationError,
    ExperimentConfig,
    FixedTwoOverTPlusOne,
    Hinge,
    LinearOperator,
    LineSearch,
    ProblemInstance,
    SqrtDecay,
    SquaredL2,
    build_schedule,
    emit_trace,
    generate_problem,
    generate_problem_with_truth,
    reference_solution,
    run,
    run_experiment,
    run_sweep,
    trace_csv,
)
from pdcg.harness import sweep_cells, thread_budget


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
    cfg.dump(str(path))
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
    ],
)
def test_config_validation_errors(overrides):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**overrides).validate()


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
    assert np.all(prob.operator.col_norms > 0.3)
    assert np.all(prob.operator.col_norms < 3.0)


def test_generate_lad_outlier_mass():
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=50, p=10, seed=3)
    prob, info = generate_problem_with_truth(cfg)
    val = prob.loss.value(prob.operator.apply(info["x_true"]))
    assert val == pytest.approx(info["outlier_mass"], abs=1e-12)
    assert len(info["outlier_indices"]) == 5


def test_generate_rejects_empty():
    with pytest.raises(ConfigurationError):
        generate_problem(ExperimentConfig(loss="hinge", n=0, p=3))


def test_generate_gauge_instance():
    cfg = ExperimentConfig(loss="gauge", n=14, p=4, seed=2, gauge_omega0=1.5, gauge_lambda=0.2)
    prob = generate_problem(cfg)
    assert prob.loss.dual_domain.radius == 1.5


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


def test_reference_degenerate_tolerance():
    prob = ProblemInstance(LinearOperator([[1.0]]), SquaredL2(1.0, 1), Hinge([1.0], 1.0))
    ref = reference_solution(prob, tol=np.inf)
    assert ref.certified
    assert ref.iterations <= 1


def test_reference_zero_budget_uncertified():
    cfg = ExperimentConfig(loss="logistic", n=20, p=5, seed=6, scale=0.5)
    prob = generate_problem(cfg)
    ref = reference_solution(prob, tol=1e-9, cap=0)
    assert not ref.certified
    assert ref.iterations == 0
    assert ref.certified_gap > 1e-9


def test_reference_certifies_all_loss_regularizer_mixes():
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
        assert open(s, "rb").read() == open(p, "rb").read()


@pytest.mark.parametrize("workers", [0, -4])
def test_sweep_rejects_nonpositive_workers(tmp_path, workers):
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=5)
    out_dir = tmp_path / "cells"
    with pytest.raises(ConfigurationError, match="workers must be >= 1"):
        run_sweep(cfg, ["one-over-t"], [0], str(out_dir), workers=workers)
    assert not out_dir.exists()


def test_sweep_unknown_schedule_creates_no_directory(tmp_path):
    cfg = ExperimentConfig(loss="logistic", n=12, p=3, max_iters=5)
    out_dir = tmp_path / "cells"
    with pytest.raises(ConfigurationError):
        run_sweep(cfg, ["bogus"], [0], str(out_dir), workers=1)
    assert not out_dir.exists()


def test_thread_budget_env(monkeypatch):
    monkeypatch.setenv("PDCG_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.setenv("PDCG_THREADS", "zero")
    with pytest.raises(ConfigurationError):
        thread_budget()
    monkeypatch.setenv("PDCG_THREADS", "0")
    with pytest.raises(ConfigurationError):
        thread_budget()
    monkeypatch.delenv("PDCG_THREADS")
    assert thread_budget() >= 1


def test_run_experiment_end_to_end_deterministic():
    cfg = ExperimentConfig(loss="lad", regularizer="entropy", n=15, p=6, seed=9, max_iters=25)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert trace_csv(a) == trace_csv(b)
    assert a.termination == b.termination
