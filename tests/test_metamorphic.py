"""Metamorphic checks: exact relations between whole runs that need no reference.

By duality, doubling both the loss scale s and the modulus mu doubles f,
h, the dual box C and every y in it, and leaves x = (h*)'(-A^T y) where
it was.  The powers of 2 commute with IEEE rounding, so every trace value
(primal, dual, gap, averaged primal, averaged gap) doubles bit for bit,
the step sizes and x stay identical, both R^2 values are multiplied by
exactly 4, and the margins of the gap-only bounds double.  This is
checked under ``squared_l2`` and the box [-1, 1], for md and gcg under
2/(t+1), 1/t and line search, at n = 20 (exact-vertex R^2) and n = 60
(column-norm R^2).

A row permutation of (A, targets/labels) changes only the order of the
sums over rows, so md traces agree to round-off: every deviation is at
most ``PERMUTATION_RTOL`` times the row's largest objective value
(``max(|primal|, |dual|, |avg_primal|)``), and the bound verdicts stay.
The largest such deviation measured on 27 runs (hinge, lad and logistic
x the three schedules x 3 permutations, 60x12) was 2.3e-15.

Stacking every row twice, ([A; A], the targets/labels twice, s/2), gives
the same f(A x), and the point [y/2; y/2] of the halved dual box the same
dual value, so md and gcg traces agree to round-off: every trace value
within ``PERMUTATION_RTOL`` of the row's largest objective value, both
R^2 within ``DUPLICATE_R2_RTOL`` of each other, and the same gap-only
verdicts.  This is checked under ``squared_l2`` and the box [-1, 1], for
2/(t+1), 1/t and line search, at n = 30 and n = 60, where both sides
take the column-norm R^2 (exact-vertex R^2 would switch mode between n
and 2n).  Measured on the 72 pairs: 2.8e-15 at most, R^2 ratios within
4e-16 of 1.  Hinge at n = 60 freezes under the fixed schedules (5 to 7
distinct gaps in 150 rows), so those cases compare nearly constant
traces; its line-search runs and n = 30 keep moving.

Left out:

* the entropy regularizer: its mu is fixed at 1, and h is not
  homogeneous, so no power of 2 carries through;
* the gauge loss, which reads no ``scale`` (its weight is ``gauge_omega0``);
* ns-md under sqrt-decay, whose step reads delta/R: R doubles with C
  while delta stays, so the steps do not scale by a power of 2 in general.
"""

import dataclasses

import numpy as np
import pytest

from pdcg import (
    ExperimentConfig,
    LeastAbsoluteDeviation,
    LinearOperator,
    ProblemInstance,
    build_schedule,
    check_bound,
    generate_problem,
    reference_solution,
    run,
)
from pdcg.certificates import BOUND_PAIRING
from pdcg.functions import EXACT_VERTEX_LIMIT, MODE_BOUND, MODE_EXACT

ITERS = 150
DOUBLED = ("primal_value", "dual_value", "gap", "avg_primal_value", "avg_gap")
# bound ids read off the trace's gap alone, keyed by the run they apply to
GAP_ONLY = {(row.algorithm, row.schedule): wid for wid, row in BOUND_PAIRING.items()
            if not row.needs_reference and row.algorithm != "ns-md"}
PERMUTATION_RTOL = 1e-13
DUPLICATE_R2_RTOL = 1e-14


def _config(loss, regularizer, n, algorithm, schedule, **changes):
    return ExperimentConfig(loss=loss, regularizer=regularizer, n=n, p=10 if n == EXACT_VERTEX_LIMIT else 12,
                            mu=1.0, scale=20.0 / n, box_lower=-1.0, box_upper=1.0, seed=3,
                            algorithm=algorithm, schedule=schedule, max_iters=ITERS, **changes)


def _run(cfg):
    prob = generate_problem(cfg)
    # the full budget: hinge on the box at n = 20 reaches gap 0 within it
    return prob, run(prob, cfg.algorithm, build_schedule(cfg, prob), cfg.max_iters, gap_tol=-np.inf)


def _values(result, field):
    return np.array([getattr(rec, field) for rec in result.trace], dtype=np.float64)


@pytest.mark.parametrize("schedule", ["two-over-t-plus-one", "one-over-t", "line-search"])
@pytest.mark.parametrize("algorithm", ["md", "gcg"])
@pytest.mark.parametrize("n", [EXACT_VERTEX_LIMIT, 60])
@pytest.mark.parametrize("regularizer", ["squared_l2", "squared_l2_box"])
@pytest.mark.parametrize("loss", ["hinge", "lad", "logistic"])
def test_doubling_scale_and_mu_doubles_every_trace_value(loss, regularizer, n, algorithm, schedule):
    cfg = _config(loss, regularizer, n, algorithm, schedule)
    prob, base = _run(cfg)
    prob2, doubled = _run(dataclasses.replace(cfg, scale=2.0 * cfg.scale, mu=2.0 * cfg.mu))
    geo, geo2 = prob.geometry, prob2.geometry
    assert geo.mode == geo2.mode == (MODE_EXACT if n == EXACT_VERTEX_LIMIT else MODE_BOUND)
    assert geo2.r2_primal == 4.0 * geo.r2_primal and geo2.r2_origin == 4.0 * geo.r2_origin
    assert len(base.trace) == len(doubled.trace) == ITERS
    for field in DOUBLED:
        assert (2.0 * _values(base, field)).tobytes() == _values(doubled, field).tobytes(), field
    assert _values(base, "rho").tobytes() == _values(doubled, "rho").tobytes()
    assert base.state.x.tobytes() == doubled.state.x.tobytes()
    assert (2.0 * base.state.y).tobytes() == doubled.state.y.tobytes()
    wid = GAP_ONLY.get((algorithm, schedule))
    if wid is not None:
        report = check_bound(base, geo, cfg.mu, wid)
        report2 = check_bound(doubled, geo2, 2.0 * cfg.mu, wid)
        assert (2.0 * report.margins).tobytes() == report2.margins.tobytes()
        assert report.passed == report2.passed


def _on_rows(prob, rows, scale):
    """The instance on rows ``rows`` of (A, targets/labels), with loss scale ``scale``."""
    loss = prob.loss
    data = loss.targets if isinstance(loss, LeastAbsoluteDeviation) else loss.labels
    return ProblemInstance(LinearOperator(prob.operator.matrix[rows]), prob.regularizer, type(loss)(data[rows], scale))


def _assert_traces_agree(base, other):
    """Every trace value within PERMUTATION_RTOL of its row's largest objective value; rho too, absolutely."""
    scale = np.maximum.reduce([np.abs(_values(base, f)) for f in ("primal_value", "dual_value", "avg_primal_value")])
    for field in DOUBLED:
        if base.trace[0]._asdict()[field] is None:  # line search has no averaged gap
            assert all(getattr(rec, field) is None for rec in base.trace + other.trace)
            continue
        deviation = np.abs(_values(base, field) - _values(other, field))
        assert np.all(deviation <= PERMUTATION_RTOL * scale), field
    assert np.all(np.abs(_values(base, "rho") - _values(other, "rho")) <= PERMUTATION_RTOL)


@pytest.mark.parametrize("schedule", ["two-over-t-plus-one", "one-over-t", "line-search"])
@pytest.mark.parametrize("loss", ["hinge", "lad", "logistic"])
def test_a_row_permutation_keeps_md_traces_to_round_off(loss, schedule):
    cfg = _config(loss, "squared_l2", 60, "md", schedule)
    prob = generate_problem(cfg)
    moved = _on_rows(prob, np.random.default_rng(0).permutation(prob.n), prob.loss.scale)
    runs = []
    for instance in (prob, moved):
        reference = reference_solution(instance) if schedule == "two-over-t-plus-one" else None
        result = run(instance, "md", build_schedule(cfg, instance), ITERS, reference=reference)
        runs.append((instance, reference, result))
    _assert_traces_agree(runs[0][2], runs[1][2])
    if schedule == "two-over-t-plus-one":  # the md bounds, each on its own instance's reference
        ids = [wid for wid, row in BOUND_PAIRING.items() if row.algorithm == "md"]
        verdicts = [[check_bound(result, instance.geometry, cfg.mu, wid, reference=reference).passed
                     for wid in ids] for instance, reference, result in runs]
        assert verdicts[0] == verdicts[1] and len(ids) == 3


@pytest.mark.parametrize("schedule", ["two-over-t-plus-one", "one-over-t", "line-search"])
@pytest.mark.parametrize("algorithm", ["md", "gcg"])
@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize("regularizer", ["squared_l2", "squared_l2_box"])
@pytest.mark.parametrize("loss", ["hinge", "lad", "logistic"])
def test_duplicated_rows_at_half_scale_keep_traces_to_round_off(loss, regularizer, n, algorithm, schedule):
    cfg = _config(loss, regularizer, n, algorithm, schedule)
    prob, base = _run(cfg)
    twice = _on_rows(prob, np.concatenate([np.arange(n), np.arange(n)]), prob.loss.scale / 2.0)
    other = run(twice, algorithm, build_schedule(cfg, twice), ITERS, gap_tol=-np.inf)
    geo, geo2 = prob.geometry, twice.geometry
    assert geo.mode == geo2.mode == MODE_BOUND
    assert abs(geo2.r2_primal - geo.r2_primal) <= DUPLICATE_R2_RTOL * geo.r2_primal
    assert abs(geo2.r2_origin - geo.r2_origin) <= DUPLICATE_R2_RTOL * geo.r2_origin
    assert len(base.trace) == len(other.trace) == ITERS
    _assert_traces_agree(base, other)
    wid = GAP_ONLY.get((algorithm, schedule))
    if wid is not None:
        assert check_bound(base, geo, cfg.mu, wid).passed == check_bound(other, geo2, cfg.mu, wid).passed
