import itertools
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
    NegativeEntropySimplex,
    ProblemInstance,
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
)


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
    diam, mode = lad.dual_domain.r2(op, "diameter")
    orig, _ = lad.dual_domain.r2(op, "origin")
    assert mode == "exact-vertex"
    assert diam == pytest.approx(8.0)
    assert orig == pytest.approx(2.0)


def test_estimate_r2_zero_operator():
    lad = LeastAbsoluteDeviation([0.0, 0.0], 1.0)
    op = LinearOperator(np.zeros((2, 2)))
    assert lad.dual_domain.r2(op, "diameter")[0] == 0.0
    assert lad.dual_domain.r2(op, "origin")[0] == 0.0


def test_estimate_r2_gauge_closed_form():
    gauge = DualNormGauge(3, 2.0, 0.0)
    rng = np.random.default_rng(14)
    op = LinearOperator(rng.standard_normal((3, 4)))
    m = float(np.max(op.row_norms))
    diam, mode = gauge.dual_domain.r2(op, "diameter")
    orig, _ = gauge.dual_domain.r2(op, "origin")
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


def test_instance_r2_rejects_unknown_variant():
    prob = _svm_identity()
    with pytest.raises(ConfigurationError, match="which must be 'diameter' or 'origin'"):
        prob.r2("radius")
    assert prob.r2("origin") == prob.loss.dual_domain.r2(prob.operator, "origin")


def test_estimate_r2_exact_matches_pairwise_brute_force():
    rng = np.random.default_rng(15)
    for n in (2, 4, 6, 8):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        loss = Hinge(labels, 0.8)
        op = LinearOperator(rng.standard_normal((n, 3)))
        exact, mode = loss.dual_domain.r2(op, "diameter")
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
        exact_o, mode_o = loss.dual_domain.r2(op, "origin")
        assert mode_o == "exact-vertex"
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
    for which, lower, upper in (
        ("diameter", -dom.widths, dom.widths),
        ("origin", dom.lower, dom.upper),
    ):
        value, mode = loss.dual_domain.r2(op, which)
        assert mode == "exact-vertex"
        assert value == pytest.approx(_chunked_vertex_max(op.matrix, lower, upper), rel=1e-12)


@pytest.mark.parametrize("p, limit_mb", [(10, 2), (500, 16)])
def test_exact_r2_memory_grows_with_half_the_vertices(p, limit_mb):
    # all 2^20 vertex images at once would take 2^20 * p * 8 bytes
    rng = np.random.default_rng(21)
    loss = LeastAbsoluteDeviation(rng.standard_normal(20), 0.5)
    op = LinearOperator(rng.standard_normal((20, p)))
    tracemalloc.start()
    try:
        loss.dual_domain.r2(op, "diameter")
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
        exact, _ = loss.dual_domain.r2(op, "diameter")
        coeff = loss.dual_domain.widths
        bound = float(np.sum(coeff * op.row_norms)) ** 2
        assert exact <= bound + 1e-9
        # origin form as well
        exact_o, _ = loss.dual_domain.r2(op, "origin")
        bound_o = float(np.sum(loss.dual_domain.max_abs() * op.row_norms)) ** 2
        assert exact_o <= bound_o + 1e-9


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


def test_geometry_for_one_bound_holds_only_the_r2_it_reads():
    prob, ref, geo = _checked_setup()
    res = run(prob, "gcg", FixedTwoOverTPlusOne(), max_iters=20)
    diameter_only = geometry_constants(prob, "gcg-fixed-min-gap")
    assert (diameter_only.r2_primal, diameter_only.r2_origin) == (geo.r2_primal, None)
    rep = check_bound(res, diameter_only, 1.0, "gcg-fixed-min-gap")
    assert rep.bounds.tolist() == check_bound(res, geo, 1.0, "gcg-fixed-min-gap").bounds.tolist()
    origin_only = geometry_constants(prob, "compact-averaged-gap")
    assert (origin_only.r2_primal, origin_only.r2_origin) == (None, geo.r2_origin)
    with pytest.raises(ConfigurationError, match="requires the R\\^2 it reads"):
        check_bound(res, origin_only, 1.0, "gcg-fixed-min-gap")


def test_bound_ordering_linesearch_below_fixed():
    t = np.arange(1, 1001, dtype=float)
    assert np.all(2.0 / (t + 3.0) <= 2.0 / (t + 1.0))


def test_check_bound_line_search_pair():
    prob, ref, geo = _checked_setup()
    sched = LineSearch(mu=1.0, r2=geo.r2_primal)
    res = run(prob, "gcg", sched, max_iters=400, reference=ref)
    for wid in ("gcg-linesearch-dual-subopt", "gcg-linesearch-min-gap"):
        rep = check_bound(res, geo, 1.0, wid, reference=ref, reference_tolerance=1e-8)
        assert rep.passed, (wid, rep.worst_margin, rep.worst_iteration)


def test_check_bound_reports_margins():
    prob, ref, geo = _checked_setup()
    res = run(prob, "md", FixedTwoOverTPlusOne(), max_iters=50, reference=ref)
    rep = check_bound(res, geo, 1.0, "md-distance", reference=ref)
    assert rep.iterations == 50
    assert rep.margins.shape == (50,)
    assert rep.worst_iteration in range(1, 51)
    assert rep.passed == bool(np.all(rep.margins >= -1e-9 * (1 + np.abs(rep.bounds))))
