import dataclasses
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from pdcg import (
    ConfigurationError,
    DualNormGauge,
    ExperimentConfig,
    FixedTwoOverTPlusOne,
    GeometryConstants,
    Hinge,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    Logistic,
    Loss,
    NegativeEntropySimplex,
    ProblemInstance,
    ReferenceSolution,
    Simplex,
    SqrtDecay,
    SquaredL2,
    SquaredL2Box,
    ValidationError,
    check_bound,
    dual_objective,
    duality_gap,
    generate_problem,
    geometry_constants,
    primal_objective,
    reference_solution,
    run,
    verify_equivalence,
)
from pdcg.certificates import BOUND_PAIRING
from pdcg.functions import MEMBERSHIP_TOL, _max_sq_norm_over_vertices, _vertex_images


def _svm_identity():
    # n = p = 2, A = I, hinge labels (1, -1) at scale 1/2, h = ||x||^2/2
    return ProblemInstance(
        LinearOperator(np.eye(2)), SquaredL2(1.0, 2), Hinge([1.0, -1.0], 0.5)
    )


def test_primal_objective_values():
    prob = _svm_identity()
    assert primal_objective(prob, [0.0, 0.0]) == 1.0

    box = ProblemInstance(
        LinearOperator(np.eye(2)),
        SquaredL2Box(1.0, np.zeros(2), np.ones(2)),
        LeastAbsoluteDeviation([0.0, 0.0], 1.0),
    )
    assert primal_objective(box, [2.0, 0.0]) == np.inf

    lad = ProblemInstance(
        LinearOperator(np.eye(2)), SquaredL2(2.0, 2), LeastAbsoluteDeviation([1.0, 2.0], 1.0)
    )
    assert primal_objective(lad, [1.0, 2.0]) == 5.0


def test_dual_objective_values():
    prob = _svm_identity()
    assert dual_objective(prob, [0.0, 0.0]) == 0.0
    assert dual_objective(prob, [0.5, 0.0]) == -np.inf  # outside C


def test_duality_gap_values():
    prob = _svm_identity()
    assert duality_gap(prob, [0.0, 0.0], [0.0, 0.0]) == 1.0
    # Fenchel-matched pair: both residual brackets vanish individually
    reg, loss, op = prob.regularizer, prob.loss, prob.operator

    def residuals(x, y):
        inner = float(y @ op.apply(x))
        h_res = reg.value(x) + reg.conj_value(-op.adjoint_apply(y)) + inner
        return h_res, loss.value(op.apply(x)) + loss.conj_value(y) - inner

    y = loss.subgradient(np.zeros(2))
    x = reg.conj_grad(-op.adjoint_apply(y))
    assert abs(residuals(x, y)[0]) <= 1e-10
    assert abs(residuals(x, loss.subgradient(op.apply(x)))[1]) <= 1e-10


def test_duality_gap_at_reference_optimum():
    cfg = ExperimentConfig(loss="logistic", regularizer="squared_l2", n=20, p=4, seed=12)
    prob = generate_problem(cfg)
    ref = reference_solution(prob, tol=1e-9)
    assert ref.certified
    assert duality_gap(prob, ref.x_star, ref.y_star) <= 1e-8


def test_weak_duality_random_pairs():
    rng = np.random.default_rng(13)
    cfg = ExperimentConfig(loss="lad", regularizer="squared_l2", n=8, p=3, seed=4, scale=0.7)
    prob = generate_problem(cfg)
    dom = prob.loss.dual_domain
    for _ in range(1000):
        x = rng.standard_normal(3) * 3.0
        y = rng.uniform(dom.lower, dom.upper)
        assert primal_objective(prob, x) >= dual_objective(prob, y) - 1e-10


def test_support_gap_hand_value():
    # the first ns-md row: x0 the barycenter, y1 the LAD oracle at A x0
    prob = ProblemInstance(
        LinearOperator(np.eye(2)),
        NegativeEntropySimplex(2),
        LeastAbsoluteDeviation([0.3, 0.8], 1.0),
    )
    x0 = np.array([0.5, 0.5])
    y1 = np.array([1.0, -1.0])
    res = run(prob, "ns-md", SqrtDecay(delta=1.0, radius=1.0), max_iters=1)
    # f(A x0) + sigma_K(-A^T y1) + f*(y1), sigma of the simplex a max
    expect = prob.loss.value(x0) + max(-y1) + prob.loss.conj_value(y1)
    assert expect == pytest.approx(1.0, abs=1e-15)
    assert res.trace[0].gap == pytest.approx(expect, abs=1e-14)
    with pytest.raises(ValidationError):
        run(_svm_identity(), "ns-md", SqrtDecay(delta=1.0, radius=1.0), max_iters=1)


# --------------------------------------------------------------------------
# geometry constants


def test_estimate_r2_lad_identity():
    lad = LeastAbsoluteDeviation([0.0, 0.0], 1.0)
    op = LinearOperator(np.eye(2))
    diam, orig, mode = lad.dual_domain.r2(op)
    assert mode == "exact-vertex"
    assert diam == pytest.approx(8.0)
    assert orig == pytest.approx(2.0)


def test_estimate_r2_zero_operator():
    lad = LeastAbsoluteDeviation([0.0, 0.0], 1.0)
    op = LinearOperator(np.zeros((2, 2)))
    assert lad.dual_domain.r2(op)[:2] == (0.0, 0.0)


def test_estimate_r2_gauge_closed_form():
    gauge = DualNormGauge(3, 2.0, 0.0)
    rng = np.random.default_rng(14)
    op = LinearOperator(rng.standard_normal((3, 4)))
    m = float(np.max(op.row_norms))
    diam, orig, mode = gauge.dual_domain.r2(op)
    assert mode == "exact-vertex"
    assert diam == pytest.approx((2 * 2.0 * m) ** 2)
    assert orig == pytest.approx((2.0 * m) ** 2)


@pytest.mark.parametrize(
    "loss", [DualNormGauge(4, 2.0, 0.0), LeastAbsoluteDeviation(np.zeros(4), 1.0)], ids=["gauge", "lad"]
)
def test_estimate_r2_rejects_dimension_mismatch(loss):
    # a loss and dual domain of the wrong dimension cannot be put into an instance
    with pytest.raises(ValidationError, match="loss dimension 4 does not match operator rows 3"):
        ProblemInstance(LinearOperator(np.ones((3, 2))), SquaredL2(1.0, 2), loss)


def test_estimate_r2_exact_matches_pairwise_brute_force():
    rng = np.random.default_rng(15)
    for n in (2, 4, 6, 8):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        loss = Hinge(labels, 0.8)
        op = LinearOperator(rng.standard_normal((n, 3)))
        exact, exact_o, mode = loss.dual_domain.r2(op)
        assert mode == "exact-vertex"
        dom = loss.dual_domain
        corners = [
            np.where(np.array(bits), dom.upper, dom.lower)
            for bits in itertools.product([0, 1], repeat=n)
        ]
        brute = max(
            float(np.sum(op.adjoint_apply(a - b) ** 2))
            for a in corners
            for b in corners
        )
        assert exact == pytest.approx(brute, rel=1e-12)
        brute_o = max(float(np.sum(op.adjoint_apply(a) ** 2)) for a in corners)
        assert exact_o == pytest.approx(brute_o, rel=1e-12)


def _chunked_vertex_max(matrix, lower, upper):
    # reference: max of ||A^T y||^2 over all 2^n vertices, 16384 rows at a time
    n = matrix.shape[0]
    total = 1 << n
    chunk = 1 << min(n, 14)
    bits = np.arange(n, dtype=np.uint64)
    best = 0.0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)[:, None]
        choose = (idx >> bits) & np.uint64(1)
        y = np.where(choose == 1, upper, lower)
        v = y @ matrix
        best = max(best, float(np.max(np.einsum("ij,ij->i", v, v))))
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 20])
@pytest.mark.parametrize("kind", ["hinge", "logistic", "lad"])
def test_estimate_r2_exact_matches_chunked_enumeration(n, kind):
    # n = 1 leaves the first half-box empty; odd n splits it unequally
    rng = np.random.default_rng(100 + n)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if kind == "hinge":
        loss = Hinge(labels, 0.7)
    elif kind == "logistic":
        loss = Logistic(labels, 0.3)
    else:
        loss = LeastAbsoluteDeviation(rng.standard_normal(n), 0.5)
    op = LinearOperator(rng.standard_normal((n, 3)))
    dom = loss.dual_domain
    *values, mode = dom.r2(op)
    assert mode == "exact-vertex"
    for value, lower, upper in zip(values, (-dom.widths, dom.lower), (dom.widths, dom.upper)):
        assert value == pytest.approx(_chunked_vertex_max(op.matrix, lower, upper), rel=1e-12)


def _per_block_vertex_max(matrix, lower, upper):
    # reference: the meet-in-the-middle scan with a fresh product per 64-row block
    k = matrix.shape[0] // 2
    u1 = _vertex_images(matrix[:k], lower[:k], upper[:k])
    u2 = _vertex_images(matrix[k:], lower[k:], upper[k:])
    sq1, sq2 = np.einsum("ij,ij->i", u1, u1), np.einsum("ij,ij->i", u2, u2)
    best, best_i, best_j = -np.inf, 0, 0
    for start in range(0, u1.shape[0], 64):
        s = u1[start : start + 64] @ u2.T
        s *= 2.0
        s += sq1[start : start + 64, None]
        s += sq2
        i, j = divmod(int(s.argmax()), s.shape[1])
        if s[i, j] > best:
            best, best_i, best_j = s[i, j], start + i, j
    v = u1[best_i] + u2[best_j]
    return float(v @ v)


def test_exact_r2_buffered_product_keeps_every_bit():
    # n <= 11 gives a first half-table of fewer than 64 rows, so its one block is short
    rng = np.random.default_rng(480)
    for n in range(1, 21):
        for p in (1, 3, 10, 40):
            matrix = rng.standard_normal((n, p))
            upper = rng.random(n) + 0.1
            for lower in (-upper, upper - 2.0 * rng.random(n) - 0.1):
                got = np.float64(_max_sq_norm_over_vertices(matrix, lower, upper))
                want = np.float64(_per_block_vertex_max(matrix, lower, upper))
                assert got.view(np.int64) == want.view(np.int64), (n, p)


@pytest.mark.parametrize("p, limit_mb", [(10, 2), (500, 16)])
def test_exact_r2_memory_grows_with_half_the_vertices(p, limit_mb):
    # all 2^20 vertex images at once would take 2^20 * p * 8 bytes
    rng = np.random.default_rng(21)
    loss = LeastAbsoluteDeviation(rng.standard_normal(20), 0.5)
    op = LinearOperator(rng.standard_normal((20, p)))
    tracemalloc.start()
    try:
        loss.dual_domain.r2(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


def test_estimate_r2_bound_dominates_exact():
    rng = np.random.default_rng(16)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        loss = LeastAbsoluteDeviation(rng.standard_normal(n), 0.5)
        op = LinearOperator(rng.standard_normal((n, 3)))
        exact, exact_o, _ = loss.dual_domain.r2(op)
        coeff = loss.dual_domain.widths
        bound = float(np.sum(coeff * op.row_norms)) ** 2
        assert exact <= bound + 1e-9
        # origin form as well
        bound_o = float(np.sum(loss.dual_domain.max_abs() * op.row_norms)) ** 2
        assert exact_o <= bound_o + 1e-9


def test_estimate_r2_column_norm_bound_above_the_exact_limit():
    # one coordinate over the exact limit: (sum_i c_i ||row_i(A)||)^2 with
    # c the widths for the diameter and max(|lower|, |upper|) for the origin
    rng = np.random.default_rng(22)
    dom = LeastAbsoluteDeviation(rng.standard_normal(21), 0.5).dual_domain
    op = LinearOperator(rng.standard_normal((21, 3)))
    diam, orig, mode = dom.r2(op)
    assert mode == "column-norm-bound"
    assert diam == float(np.sum(dom.widths * op.row_norms)) ** 2
    assert orig == float(np.sum(dom.max_abs() * op.row_norms)) ** 2


def test_r2_diameter_origin_triangle_inequality():
    rng = np.random.default_rng(17)
    for seed in range(10):
        cfg = ExperimentConfig(
            loss="hinge", regularizer="squared_l2", n=int(rng.integers(2, 30)),
            p=int(rng.integers(1, 6)), seed=seed,
        )
        prob = generate_problem(cfg)
        geo = geometry_constants(prob)
        assert geo.r2_primal <= 4.0 * geo.r2_origin + 1e-9


def test_domain_radius_delta2():
    ent = NegativeEntropySimplex(2)
    assert ent.delta2() == pytest.approx(np.log(2.0))
    box = SquaredL2Box(1.0, np.zeros(2), np.ones(2))
    assert box.delta2() == pytest.approx(1.0)
    with pytest.raises(ConfigurationError, match="delta\\^2 is defined for compact domains only"):
        SquaredL2(1.0, 2).delta2()


def test_delta2_dominates_sampled_divergence():
    rng = np.random.default_rng(18)
    ent = NegativeEntropySimplex(5)
    x0 = ent.interior_point()
    d2 = ent.delta2()
    assert d2 == pytest.approx(np.log(5.0))
    for _ in range(500):
        x = rng.dirichlet(np.ones(5) * 0.5)
        assert ent.bregman(x, x0) <= d2 + 1e-12


# --------------------------------------------------------------------------
# bound checking


def _checked_setup(seed=11):
    cfg = ExperimentConfig(
        loss="hinge", regularizer="squared_l2", n=60, p=12, mu=1.0, seed=seed, scale=20.0 / 60
    )
    prob = generate_problem(cfg)
    ref = reference_solution(prob, tol=1e-9)
    geo = geometry_constants(prob)
    return prob, ref, geo


def test_check_bound_empty_trace_vacuous():
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=0)
    rep = check_bound(res, geo, 1.0, "gcg-fixed-min-gap")
    assert rep.passed and rep.iterations == 0
    assert rep.worst_iteration == 0 and rep.worst_margin == np.inf and rep.margins.size == 0


def test_check_bound_pairing_validation():
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=20, reference=ref)
    with pytest.raises(ConfigurationError):
        check_bound(res, geo, 1.0, "md-avg-subopt", reference=ref)
    with pytest.raises(ConfigurationError):
        check_bound(res, geo, 1.0, "gcg-linesearch-min-gap")
    with pytest.raises(ConfigurationError):
        check_bound(res, geo, 1.0, "not-a-bound")
    with pytest.raises(ConfigurationError):
        check_bound(res, geo, 1.0, "gcg-fixed-dual-subopt")  # no reference


def test_check_bound_requires_reference_columns():
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=20)  # no reference
    with pytest.raises(ConfigurationError):
        check_bound(res, geo, 1.0, "gcg-fixed-dual-subopt", reference=ref)


def test_check_bound_passes_and_is_monotone_in_r2():
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=400, reference=ref)
    rep = check_bound(res, geo, 1.0, "gcg-fixed-min-gap")
    assert rep.passed
    bigger = GeometryConstants(
        r2_primal=4.0 * geo.r2_primal, r2_origin=geo.r2_origin, mode=geo.mode
    )
    assert check_bound(res, bigger, 1.0, "gcg-fixed-min-gap").passed


def test_bound_ordering_linesearch_below_fixed():
    # read off the table: the line-search rows are never looser than the fixed-step rows
    t = np.arange(1, 1001, dtype=float)
    for quantity in ("dual-subopt", "min-gap"):
        fixed, search = BOUND_PAIRING[f"gcg-fixed-{quantity}"], BOUND_PAIRING[f"gcg-linesearch-{quantity}"]
        assert np.all(search.coef / (t + search.shift) <= fixed.coef / (t + fixed.shift)), quantity


@pytest.mark.parametrize("cap", [10**6, 0], ids=["certified", "uncertified"])
def test_reference_backed_bounds_carry_no_slack(cap):
    # the reference is a value a column is measured against, never a tolerance on the bound
    prob = generate_problem(
        ExperimentConfig(loss="lad", regularizer="squared_l2", n=30, p=6, mu=1.0, seed=4, scale=20.0 / 30)
    )
    ref = reference_solution(prob, tol=1e-9, cap=cap)
    assert ref.certified == (cap > 0) and ref.certified_gap > 0.0
    geo, mu = geometry_constants(prob), prob.regularizer.mu
    ids = [wid for wid, row in BOUND_PAIRING.items() if row.needs_reference]
    assert ids == ["md-avg-subopt", "md-best-subopt", "md-distance", "gcg-fixed-dual-subopt",
                   "gcg-linesearch-dual-subopt"]
    for wid in ids:
        row = BOUND_PAIRING[wid]
        sched = LineSearch(mu=mu, r2=geo.r2_primal) if row.schedule == LineSearch.name else FixedTwoOverTPlusOne()
        res = run(prob, row.algorithm, sched, max_iters=40, reference=ref)
        if wid == "md-distance" and not ref.certified:
            # the distance to an uncertified point says nothing about x*
            with pytest.raises(ConfigurationError, match="requires a certified reference"):
                check_bound(res, geo, mu, wid, reference=ref)
            continue
        t = np.arange(1, len(res.trace) + 1, dtype=np.float64)
        assert t.size > 0
        bounds = check_bound(res, geo, mu, wid, reference=ref).bounds
        assert bounds.tobytes() == (row.coef * geo.r2_primal / (mu * (t + row.shift))).tobytes(), wid


def test_check_bound_line_search_pair():
    prob, ref, geo = _checked_setup()
    sched = LineSearch(mu=1.0, r2=geo.r2_primal)
    res = run(prob, "gcg", sched, max_iters=400, reference=ref)
    for wid in ("gcg-linesearch-dual-subopt", "gcg-linesearch-min-gap"):
        rep = check_bound(res, geo, 1.0, wid, reference=ref)
        assert rep.passed, (wid, rep.worst_margin, rep.worst_iteration)


def test_check_bound_reports_margins():
    prob, ref, geo = _checked_setup()
    res = run(prob, "md", FixedTwoOverTPlusOne(), max_iters=50, reference=ref)
    rep = check_bound(res, geo, 1.0, "md-distance", reference=ref)
    assert rep.iterations == 50
    assert rep.margins.shape == (50,)
    assert rep.worst_iteration in range(1, 51)
    assert rep.passed == bool(np.all(rep.observed <= rep.bounds))
    assert rep.worst_margin == rep.margins.min() == rep.margins[rep.worst_iteration - 1]


def test_one_ulp_over_the_bound_fails_at_that_row():
    # a hand-built gap column: the bound itself on every row but the 12th,
    # which is one ulp above it.  The verdict adds nothing to either side.
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=30)
    row = BOUND_PAIRING["gcg-fixed-min-gap"]
    bounds = row.coef * geo.r2_primal / (1.0 * (np.arange(1.0, 31.0) + row.shift))

    def with_gaps(gaps):
        return dataclasses.replace(res, trace=[rec._replace(gap=float(g)) for rec, g in zip(res.trace, gaps)])

    at_bound = check_bound(with_gaps(bounds), geo, 1.0, "gcg-fixed-min-gap")
    assert at_bound.passed and at_bound.bounds.tobytes() == bounds.tobytes()
    assert np.all(at_bound.margins == 0.0)
    over = bounds.copy()
    over[11] = np.nextafter(bounds[11], np.inf)
    rep = check_bound(with_gaps(over), geo, 1.0, "gcg-fixed-min-gap")
    assert not rep.passed and rep.worst_iteration == 12
    assert rep.worst_margin == bounds[11] - over[11] < 0.0
    assert np.count_nonzero(rep.margins) == 1


@pytest.mark.parametrize(
    "field, toward", [("delta", np.inf), ("delta", -np.inf), ("radius", np.inf)],
    ids=["delta-above", "delta-below", "radius-above"],
)
def test_compact_schedule_one_ulp_off_the_instance_raises(field, toward):
    prob = generate_problem(ExperimentConfig(loss="lad", regularizer="entropy", n=20, p=10, scale=1.0, seed=0))
    geo = geometry_constants(prob)
    exact = SqrtDecay(delta=float(np.sqrt(geo.delta2)), radius=float(np.sqrt(geo.r2_origin)))
    assert check_bound(run(prob, "ns-md", exact, max_iters=5), geo, 1.0, "compact-averaged-gap").passed
    off = dataclasses.replace(exact, **{field: float(np.nextafter(getattr(exact, field), toward))})
    with pytest.raises(ConfigurationError, match=f"schedule {field}"):
        check_bound(run(prob, "ns-md", off, max_iters=5), geo, 1.0, "compact-averaged-gap")


def _lad_line_search_run():
    # lad 200x40 at scale 20/n, seed 3, gcg line search for 50 steps
    prob = generate_problem(ExperimentConfig(loss="lad", n=200, p=40, scale=20.0 / 200, seed=3))
    geo = geometry_constants(prob)
    return geo, run(prob, "gcg", LineSearch(mu=prob.regularizer.mu, r2=geo.r2_primal), max_iters=50)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
def test_check_bound_rejects_a_mu_that_is_not_positive_and_finite(mu):
    # mu = 0 made every bound +inf: a PASS with worst_margin inf
    geo, res = _lad_line_search_run()
    with pytest.raises(ConfigurationError, match="mu must be positive and finite"):
        check_bound(res, geo, mu, "gcg-linesearch-min-gap")


@pytest.mark.parametrize(
    "schedule_mu, schedule_r2, mu",
    [(1.0, 1e-6, 1.0), (1.0, "ulp-above", 1.0), (1.0, "ulp-below", 1.0), (float(np.nextafter(1.0, 2.0)), None, 1.0),
     (1.0, None, 1e-300)],
    ids=["relabelled", "r2-ulp-above", "r2-ulp-below", "mu-ulp-above", "check-mu-1e-300"],
)
def test_line_search_schedule_must_carry_the_certified_constants(schedule_mu, schedule_r2, mu):
    # the same trace under other constants used to pass (mu = 1e-300 by 1.2e301)
    geo, res = _lad_line_search_run()
    r2 = {None: geo.r2_primal, "ulp-above": float(np.nextafter(geo.r2_primal, np.inf)),
          "ulp-below": float(np.nextafter(geo.r2_primal, 0.0))}.get(schedule_r2, schedule_r2)
    check_bound(res, geo, 1.0, "gcg-linesearch-min-gap")  # the run's own constants are accepted
    relabelled = dataclasses.replace(res, schedule=LineSearch(mu=schedule_mu, r2=r2))
    with pytest.raises(ConfigurationError, match="line-search schedule r2 and mu disagree"):
        check_bound(relabelled, geo, mu, "gcg-linesearch-min-gap")


@pytest.mark.parametrize(
    "reg, start_gap, worst_margin",
    [("squared_l2", 20.0, -3.892), ("squared_l2_box", 20.0, -3.892), ("entropy", 19.461, -3.353)],
)
def test_line_search_start_gap_over_its_bound_is_reported(reg, start_gap, worst_margin):
    # exact R^2 (n = 20): the start gap exceeds 2 R^2 / (4 mu) = 16.108 at
    # t = 1.  Whether the index or the bound is at fault is open; the
    # check must report the violation, never absorb it.
    prob = generate_problem(ExperimentConfig(loss="hinge", regularizer=reg, n=20, p=10, scale=1.0, seed=3))
    geo = geometry_constants(prob)
    assert geo.mode == "exact-vertex"
    res = run(prob, "gcg", LineSearch(mu=prob.regularizer.mu, r2=geo.r2_primal), max_iters=150)
    rep = check_bound(res, geo, prob.regularizer.mu, "gcg-linesearch-min-gap")
    assert not rep.passed and rep.worst_iteration == 1
    assert rep.observed[0] == pytest.approx(start_gap, abs=1e-3)
    assert rep.bounds[0] == pytest.approx(16.108, abs=1e-3)
    assert rep.worst_margin == pytest.approx(worst_margin, abs=1e-3)
    assert np.count_nonzero(rep.margins < 0.0) == 1


# --------------------------------------------------------------------------
# a worst case for both methods


class _MaxLoss(Loss):
    """f(z) = max_i z_i, whose f* is 0 on C = the simplex and +inf off it.

    The subgradient oracle returns the vertex e_i at the lowest index i
    attaining the max, so each oracle output is one coordinate.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.dual_domain = Simplex(dim)

    def _value(self, z):
        return np.maximum.reduce(z, axis=-1)

    def _conj_value(self, y):
        return np.where(self.dual_domain._inside(y, MEMBERSHIP_TOL), 0.0, np.inf)[()]

    def _subgradient(self, z):
        out = np.zeros(self.dim)
        out[int(np.argmax(z))] = 1.0
        return out


def test_worst_case_instance_holds_every_two_over_t_bound_above_its_proven_floor():
    """A = I_p, h = mu/2 ||x||^2, f(z) = max_i z_i and y_0 = e_1.

    The primal is Nesterov's worst-case function and the dual,
    max_{y in simplex} -||y||^2 / (2 mu), Jaggi's worst case for
    Frank-Wolfe, so one trajectory is worst-case for md and gcg at once.
    The optimum is x* = -1/(mu p) 1 and y* = 1/p 1, with
    P* = D* = -1/(2 mu p); R^2 = diam(simplex)^2 = 2.

    Under 2/(t+1), rho_1 = 1 drops y_0 and each step adds one vertex,
    so |supp y_t| <= t; a simplex point on k coordinates has
    ||y||^2 >= 1/k, and x_t = -y_t / mu.  Hence, for p > t:
    * D* - D(y_t) = (||y_t||^2 - 1/p) / (2 mu) >= (1/t - 1/p) / (2 mu), and
      mu/2 ||x_t - x*||^2 is the same value;
    * P(x) - P* >= 1/(2 mu t) at any average x of x_0..x_{t-1}, as
      -mu x then lies on at most t coordinates and max_i x_i = 0;
    * the gap of a pre-step pair (x_u, y_u), u < t, is ||y_u||^2 / mu >= 1/(mu t).
    So observed/bound is at least (t+1)/(4t) - (t+1)/(4p) >= 1/4 - (t+1)/(4p)
    for the md ids (bound R^2/(mu (t+1))), (t+1)/(8t) - (t+1)/(8p) >=
    1/8 - (t+1)/(8p) for gcg-fixed-dual-subopt (2 R^2/(mu (t+1))) and
    (t+1)/(16t) >= 1/16 for gcg-fixed-min-gap (8 R^2/(mu (t+1))).  With
    p > T(T+1) the first two stay above 1/4 and 1/8 at every row, so a
    coef mutant by that factor must fail by proof.
    """
    p, mu, T = 200, 2.0, 12
    assert p > T * (T + 1)
    prob = ProblemInstance(LinearOperator(np.eye(p)), SquaredL2(mu, p), _MaxLoss(p))
    y0 = np.zeros(p)
    y0[0] = 1.0
    opt = -1.0 / (2.0 * mu * p)
    ref = ReferenceSolution(x_star=np.full(p, -1.0 / (mu * p)), y_star=np.full(p, 1.0 / p), certified_gap=0.0,
                            iterations=0, certified=True, primal_value=opt, dual_value=opt)
    geo = GeometryConstants(2.0, 1.0, "exact-vertex")
    assert verify_equivalence(prob, y0, FixedTwoOverTPlusOne(), T).passed
    t = np.arange(1.0, T + 1.0)
    md_floor = (t + 1) / (4 * t) - (t + 1) / (4 * p)
    floors = {
        "md-avg-subopt": md_floor,
        "md-best-subopt": md_floor,
        "md-distance": md_floor,
        "gcg-fixed-dual-subopt": md_floor / 2,
        "gcg-fixed-min-gap": (t + 1) / (16 * t),
    }
    assert np.all(md_floor > 0.25)
    runs = {alg: run(prob, alg, FixedTwoOverTPlusOne(), T, y0=y0, reference=ref) for alg in ("md", "gcg")}
    np.testing.assert_allclose([r[2:6] for r in runs["md"].trace], [r[2:6] for r in runs["gcg"].trace], rtol=1e-12)
    for wid, floor in floors.items():
        row = BOUND_PAIRING[wid]
        rep = check_bound(runs[row.algorithm], geo, mu, wid, reference=ref)
        assert rep.iterations == T and rep.passed, (wid, rep.worst_iteration, rep.worst_margin)
        ratio = rep.observed / rep.bounds
        assert np.all(ratio >= floor), (wid, ratio.min())


def test_compact_bound_needs_delta2():
    # delta^2 is None off a compact domain, so a constants object may lack it
    prob = generate_problem(ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1))
    res = run(prob, "ns-md", SqrtDecay(delta=1.0, radius=1.0), max_iters=3)
    constants = dataclasses.replace(geometry_constants(prob), delta2=None)
    with pytest.raises(ConfigurationError, match=re.escape("compact-averaged-gap requires delta^2 in the constants")):
        check_bound(res, constants, 1.0, "compact-averaged-gap")


@pytest.mark.parametrize(
    "which, field, value",
    [("gcg-fixed-min-gap", "r2_primal", None),
     ("compact-averaged-gap", "r2_origin", None),
     ("compact-averaged-gap", "r2_origin", np.inf),
     ("compact-averaged-gap", "delta2", np.inf),
     ("gcg-fixed-min-gap", "r2_primal", np.inf),
     ("gcg-fixed-min-gap", "r2_primal", np.nan),
     ("md-best-subopt", "r2_primal", np.inf)],
)
def test_a_non_finite_constant_is_rejected_not_passed(which, field, value):
    # a box [-1e308, 1e308] overflows delta^2 to inf, and an infinite bound
    # passed every trace (worst margin nan); a constant that is not a finite
    # float cannot be built, so no bound reads it.  The constants are built by
    # hand so that no overflow warning is raised on the way
    assert field in (("r2_origin", "delta2") if which == "compact-averaged-gap" else ("r2_primal",))
    prob = generate_problem(ExperimentConfig(loss="lad", regularizer="entropy", n=10, p=4, seed=1))
    message = f"geometry constant {field} must be a finite float, got {value!r}"
    with pytest.raises(OverflowError, match=re.escape(message)):
        dataclasses.replace(geometry_constants(prob), **{field: value})
