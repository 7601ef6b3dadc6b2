"""End-to-end acceptance suite.

Every test here exercises one verification target at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see
them).  The certified-bound targets run on a fixed panel of twenty
seeded instances mixing the three separable losses with the squared-norm
and entropy regularizers; references are solved once per session and
certified to gap <= 1e-9 by their own duality gap.
"""

import time

import numpy as np
import pytest

from pdcg import (
    ExperimentConfig,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    LeastAbsoluteDeviation,
    LinearOperator,
    LineSearch,
    ProblemInstance,
    SquaredL2Box,
    build_schedule,
    check_bound,
    duality_gap,
    generate_problem,
    geometry_constants,
    init_state,
    reference_solution,
    run,
    step,
    verify_equivalence,
)

EQ_TOL = 1e-9
REF_TOL = 1e-9
AVG_IDENTITY_TOL = 1e-10

# (loss, regularizer, n, p, mu, seed, loss scale); the scale keeps the
# geometry constant R^2 comfortably above the start-up gap so the
# min-gap bounds hold from the very first recorded pair.
INSTANCE_PANEL = [
    ("hinge", "squared_l2", 60, 12, 1.0, 11, 20.0 / 60),
    ("hinge", "squared_l2", 50, 10, 2.0, 12, 40.0 / 50),
    ("hinge", "squared_l2", 45, 9, 0.5, 13, 20.0 / 45),
    ("hinge", "squared_l2", 70, 14, 1.0, 14, 20.0 / 70),
    ("hinge", "entropy", 60, 12, 1.0, 15, 20.0 / 60),
    ("hinge", "entropy", 50, 14, 1.0, 33, 20.0 / 50),
    ("hinge", "entropy", 48, 12, 1.0, 37, 20.0 / 48),
    ("hinge", "entropy", 60, 20, 1.0, 39, 20.0 / 60),
    ("lad", "squared_l2", 50, 10, 2.0, 19, 20.0 / 50),
    ("lad", "squared_l2", 60, 12, 1.0, 20, 20.0 / 60),
    ("lad", "squared_l2", 40, 8, 0.5, 21, 20.0 / 40),
    ("lad", "entropy", 50, 10, 1.0, 22, 20.0 / 50),
    ("lad", "entropy", 45, 12, 1.0, 23, 20.0 / 45),
    ("lad", "entropy", 66, 11, 1.0, 24, 20.0 / 66),
    ("logistic", "squared_l2", 40, 8, 0.5, 25, 20.0 / 40),
    ("logistic", "squared_l2", 56, 10, 1.0, 26, 20.0 / 56),
    ("logistic", "squared_l2", 48, 12, 2.0, 27, 20.0 / 48),
    ("logistic", "entropy", 40, 8, 1.0, 28, 20.0 / 40),
    ("logistic", "entropy", 60, 14, 1.0, 29, 20.0 / 60),
    ("logistic", "entropy", 52, 9, 1.0, 30, 20.0 / 52),
]


def _report(name, passed, detail):
    print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="session")
def panel():
    """The twenty instances with certified references and geometry."""
    t0 = time.perf_counter()
    items = []
    for loss, reg, n, p, mu, seed, scale in INSTANCE_PANEL:
        cfg = ExperimentConfig(
            loss=loss, regularizer=reg, n=n, p=p, mu=mu, seed=seed, scale=scale
        )
        problem = generate_problem(cfg)
        ref = reference_solution(problem, tol=REF_TOL, cap=10**6)
        geo = geometry_constants(problem)
        items.append({"cfg": cfg, "problem": problem, "ref": ref, "geo": geo, "mu": mu})
    return {"items": items, "build_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def svm_100_20():
    cfg = ExperimentConfig(
        loss="hinge", regularizer="squared_l2", n=100, p=20, mu=1.0, seed=7
    )
    return generate_problem(cfg)


# --------------------------------------------------------------------------
# 1. mirror descent and generalized conditional gradient coincide


def test_md_gcg_equivalence_across_schedules(svm_100_20):
    prob = svm_100_20
    r2 = prob.loss.dual_domain.r2(prob.operator)[0]
    schedules = [
        FixedTwoOverTPlusOne(),
        FixedOneOverT(),
        LineSearch(mu=1.0, r2=r2),
    ]
    worst_x = worst_dual = worst_time = 0.0
    for sched in schedules:
        t0 = time.perf_counter()
        rep = verify_equivalence(prob, np.zeros(prob.n), sched, 300, EQ_TOL)
        elapsed = time.perf_counter() - t0
        worst_x = max(worst_x, rep.max_x_deviation)
        worst_dual = max(worst_dual, rep.max_dual_identity_deviation)
        worst_time = max(worst_time, elapsed)
        assert rep.passed, (sched.name, rep)
        assert elapsed < 1.0, f"{sched.name} took {elapsed:.2f}s"
    _report(
        "md/gcg equivalence (3 schedules, 300 iters)",
        worst_x <= EQ_TOL and worst_dual <= EQ_TOL and worst_time < 1.0,
        f"max_x_dev={worst_x:.2e} max_dual_dev={worst_dual:.2e} max_time={worst_time:.2f}s",
    )


# --------------------------------------------------------------------------
# 2-4. certified convergence bounds on the instance panel


def test_mirror_descent_fixed_step_bounds(panel):
    t0 = time.perf_counter()
    worst = np.inf
    for item in panel["items"]:
        assert item["ref"].certified, (item["cfg"].seed, item["ref"].certified_gap)
        res = run(
            item["problem"], "md", FixedTwoOverTPlusOne(), max_iters=1000,
            reference=item["ref"],
        )
        for wid in ("md-avg-subopt", "md-best-subopt", "md-distance"):
            rep = check_bound(
                res, item["geo"], item["mu"], wid,
                reference=item["ref"],
            )
            assert rep.passed, (item["cfg"].seed, wid, rep.worst_margin, rep.worst_iteration)
            worst = min(worst, rep.worst_margin)
    elapsed = time.perf_counter() - t0 + panel["build_seconds"]
    _report(
        "mirror descent fixed-step bounds (20 instances, t<=1000)",
        elapsed < 30.0,
        f"worst_margin={worst:.2e} runtime={elapsed:.1f}s (incl. references)",
    )


def test_conditional_gradient_fixed_step_bounds(panel):
    worst = np.inf
    for item in panel["items"]:
        res = run(
            item["problem"], "gcg", FixedTwoOverTPlusOne(), max_iters=1000,
            reference=item["ref"],
        )
        rep_d = check_bound(
            res, item["geo"], item["mu"], "gcg-fixed-dual-subopt",
            reference=item["ref"],
        )
        rep_g = check_bound(res, item["geo"], item["mu"], "gcg-fixed-min-gap")
        for rep in (rep_d, rep_g):
            assert rep.passed, (item["cfg"].seed, rep.bound_id, rep.worst_margin)
            worst = min(worst, rep.worst_margin)
    _report(
        "conditional gradient fixed-step bounds (20 instances, t<=1000)",
        True,
        f"worst_margin={worst:.2e}",
    )


def test_conditional_gradient_line_search_bounds(panel):
    worst = np.inf
    for item in panel["items"]:
        sched = LineSearch(mu=item["mu"], r2=item["geo"].r2_primal)
        res = run(item["problem"], "gcg", sched, max_iters=1000, reference=item["ref"])
        rep_d = check_bound(
            res, item["geo"], item["mu"], "gcg-linesearch-dual-subopt",
            reference=item["ref"],
        )
        rep_g = check_bound(res, item["geo"], item["mu"], "gcg-linesearch-min-gap")
        for rep in (rep_d, rep_g):
            assert rep.passed, (item["cfg"].seed, rep.bound_id, rep.worst_margin)
            worst = min(worst, rep.worst_margin)
    _report(
        "conditional gradient line-search bounds (20 instances, t<=1000)",
        True,
        f"worst_margin={worst:.2e}",
    )


# --------------------------------------------------------------------------
# 5. compact-domain averaged-pair gap bound


def test_compact_domain_averaged_gap_bound():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        loss="lad", regularizer="entropy", n=50, p=50, mu=1.0, scale=1.0,
        seed=0, algorithm="ns-md", schedule="sqrt-decay", max_iters=10**4,
    )
    prob = generate_problem(cfg)
    sched = build_schedule(cfg, prob)
    geo = geometry_constants(prob)
    assert geo.delta2 == pytest.approx(np.log(50.0))
    res = run(prob, "ns-md", sched, max_iters=cfg.max_iters)
    rep = check_bound(res, geo, 1.0, "compact-averaged-gap")
    elapsed = time.perf_counter() - t0
    assert rep.iterations == 10**4
    assert rep.passed, (rep.worst_margin, rep.worst_iteration)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    ratio = float(np.max(rep.observed / rep.bounds))
    _report(
        "compact-domain averaged-gap bound (p=50 simplex, t<=1e4)",
        True,
        f"max observed/bound={ratio:.3f} runtime={elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 6. synthetic step-recursion sequence bounds


def test_step_recursion_sequence_bounds():
    # families (u_t, v_t, rho_t) satisfying u_t <= v_t and
    # u_t <= u_{t-1} - rho_t v_{t-1} + (amp/2) rho_t^2, with v drawn
    # randomly inside the feasibility cap at every step
    rng = np.random.default_rng(123)
    families = 100
    amp = 10.0 ** rng.uniform(-1.0, 1.0, families)
    horizon = 1000

    u = rng.uniform(0.0, 5.0, families) * amp
    for t in range(1, horizon + 1):
        rho = 2.0 / (t + 1.0)
        vcap = (u + 0.5 * amp * rho**2) / rho
        v = u + rng.uniform(0.0, 1.0, families) * (vcap - u)
        u_max = np.maximum(u - rho * v + 0.5 * amp * rho**2, 0.0)
        u = rng.uniform(0.0, 1.0, families) * u_max
        assert np.all(u <= 2.0 * amp / (t + 1.0) + 1e-12 * amp), t

    u = rng.uniform(0.0, 5.0, families) * amp
    for t in range(1, horizon + 1):
        small = u <= amp / 2.0
        vcap = np.where(small, np.sqrt(2.0 * amp * u), u + amp / 2.0)
        v = u + rng.uniform(0.0, 1.0, families) * np.maximum(vcap - u, 0.0)
        rho = np.minimum(v / amp, 1.0)
        u_max = np.maximum(u - rho * v + 0.5 * amp * rho**2, 0.0)
        u = rng.uniform(0.0, 1.0, families) * u_max
        assert np.all(u <= 2.0 * amp / (t + 3.0) + 1e-12 * amp), t

    _report(
        "step-recursion sequence bounds (100 random families, t<=1000)",
        True,
        "fixed rule <= 2A/(t+1); adaptive rule <= 2A/(t+3)",
    )


# --------------------------------------------------------------------------
# 7. oracle property suites


def _regularizer_cases():
    from pdcg import NegativeEntropySimplex, SquaredL2

    return [
        ("l2", SquaredL2(1.6, 5)),
        ("box", SquaredL2Box(0.8, -np.ones(5), 0.5 * np.ones(5))),
        ("entropy", NegativeEntropySimplex(5)),
    ]


def _loss_cases(rng):
    from pdcg import DualNormGauge, Hinge, Logistic

    labels = np.where(rng.random(5) < 0.5, 1.0, -1.0)
    return [
        ("hinge", Hinge(labels, 0.7)),
        ("lad", LeastAbsoluteDeviation(rng.standard_normal(5), 1.3)),
        ("logistic", Logistic(labels, 0.9)),
        ("gauge", DualNormGauge(5, 1.4, 0.3)),
    ]


def _sample_domain_point(reg, rng):
    if isinstance(reg.domain, type(None)):  # pragma: no cover
        raise AssertionError
    name = type(reg).__name__
    if name == "SquaredL2":
        return rng.standard_normal(reg.dim) * 2.0
    if name == "SquaredL2Box":
        return rng.uniform(reg.domain.lower, reg.domain.upper)
    return rng.dirichlet(np.ones(reg.dim))


def test_oracle_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    probes = 10**4

    # Fenchel-Young for h: residual >= -1e-10, equality at the conjugate
    # gradient; strong convexity of the Bregman divergence.
    for name, reg in _regularizer_cases():
        for _ in range(probes):
            x = _sample_domain_point(reg, rng)
            z = rng.standard_normal(reg.dim) * 2.0
            res = reg.value(x) + reg.conj_value(z) - float(x @ z)
            assert res >= -1e-10, name
            xm = reg.conj_grad(z)
            assert abs(reg.value(xm) + reg.conj_value(z) - float(xm @ z)) <= 1e-10, name
            x2 = _sample_domain_point(reg, rng)
            if name == "entropy":
                x2 = 0.999 * x2 + 0.001 / reg.dim  # keep the base point interior
            d = x - x2
            assert reg.bregman(x, x2) >= 0.5 * reg.mu * float(d @ d) - 1e-10, name

    # Fenchel-Young for f: inequality at random feasible y, equality at the
    # oracle output, and conjugate finiteness at that output.
    for name, loss in _loss_cases(rng):
        dom = loss.dual_domain
        for _ in range(probes):
            z = rng.standard_normal(5) * 3.0
            if hasattr(dom, "lower"):
                y = rng.uniform(dom.lower, dom.upper)
            else:
                raw = rng.standard_normal(5)
                y = raw / np.sum(np.abs(raw)) * dom.radius * rng.random()
            assert loss.value(z) + loss.conj_value(y) - float(y @ z) >= -1e-10, name
            ybar = loss.subgradient(z)
            assert dom.contains(ybar, 1e-12), name
            fc = loss.conj_value(ybar)
            assert np.isfinite(fc), name
            assert abs(loss.value(z) + fc - float(ybar @ z)) <= 1e-10, name

    # conjugate gradient against central finite differences of the
    # conjugate value (step 1e-5; error scaled by 1 + ||grad||)
    for name, reg in _regularizer_cases():
        for _ in range(100):
            z = rng.standard_normal(reg.dim) * 2.0
            grad = reg.conj_grad(z)
            fd = np.zeros(reg.dim)
            for j in range(reg.dim):
                e = np.zeros(reg.dim)
                e[j] = 1e-5
                fd[j] = (reg.conj_value(z + e) - reg.conj_value(z - e)) / 2e-5
            err = float(np.linalg.norm(fd - grad))
            assert err <= 1e-6 * (1.0 + float(np.linalg.norm(grad))), (name, err)

    # adjoint identity at 1e-12 relative tolerance
    for _ in range(probes):
        n, p = rng.integers(1, 9, size=2)
        a = rng.standard_normal((n, p))
        op = LinearOperator(a)
        x = rng.standard_normal(p)
        y = rng.standard_normal(n)
        lhs = float(op.apply(x) @ y)
        assert abs(lhs - float(x @ op.adjoint_apply(y))) <= 1e-12 * (1.0 + abs(lhs))

    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0, f"took {elapsed:.1f}s"
    _report(
        "oracle property suites (1e4 probes each)",
        True,
        f"runtime={elapsed:.1f}s",
    )


def test_conjugates_against_grid_sup_oracles():
    # brute-force sup_z <y,z> - f(z) on 1-D/2-D instances at grid
    # resolution 1e-3 (separability or the max-norm reduction collapses
    # the 2-D grids to exact 1-D sweeps)
    from pdcg import DualNormGauge, Hinge, Logistic, NegativeEntropySimplex

    rng = np.random.default_rng(101)
    grid = np.arange(-5.0, 5.0 + 1e-3, 1e-3)

    hinge = Hinge([1.0, -1.0], 0.5)
    for _ in range(20):
        y = rng.uniform(hinge.dual_domain.lower, hinge.dual_domain.upper)
        brute = sum(
            float(np.max(y[i] * grid - 0.5 * np.maximum(1.0 - lab * grid, 0.0)))
            for i, lab in enumerate((1.0, -1.0))
        )
        assert hinge.conj_value(y) == pytest.approx(brute, abs=1e-3)

    lad = LeastAbsoluteDeviation([1.5], 1.0)
    for _ in range(20):
        y = rng.uniform(-1.0, 1.0, 1)
        brute = float(np.max(y[0] * grid - np.abs(grid - 1.5)))
        assert lad.conj_value(y) == pytest.approx(brute, abs=1e-3)

    logi = Logistic([1.0], 1.0)
    for _ in range(20):
        y = rng.uniform(-0.95, -0.05, 1)
        brute = float(np.max(y[0] * grid - np.logaddexp(0.0, -grid)))
        assert logi.conj_value(y) == pytest.approx(brute, abs=1e-3)

    gauge = DualNormGauge(2, 1.5, 0.4)
    m = np.arange(0.0, 5.0 + 1e-3, 1e-3)
    for _ in range(20):
        raw = rng.standard_normal(2)
        y = raw / np.sum(np.abs(raw)) * 1.5 * 0.9 * rng.random()
        brute = float(np.max(m * np.sum(np.abs(y)) - 1.5 * np.maximum(m - 0.4, 0.0)))
        assert gauge.conj_value(y) == pytest.approx(brute, abs=1e-3)

    ent = NegativeEntropySimplex(2)
    a = np.linspace(1e-12, 1 - 1e-12, 10**5 + 1)
    ent_term = a * np.log(a) + (1 - a) * np.log(1 - a)
    for _ in range(20):
        z = rng.standard_normal(2)
        brute = float(np.max(a * z[0] + (1 - a) * z[1] - ent_term))
        assert ent.conj_value(z) == pytest.approx(brute, abs=1e-3)

    _report(
        "conjugate values vs grid-sup brute force",
        True,
        "hinge/lad/logistic/gauge/entropy at resolution 1e-3",
    )


# --------------------------------------------------------------------------
# 8. averaging identities


def test_averaging_identities(svm_100_20):
    prob = svm_100_20
    op = prob.operator
    state = init_state(prob, np.zeros(prob.n))
    wsum_ybar = np.zeros(prob.n)
    wsum_aty = np.zeros(prob.p)
    worst_y = worst_carried = 0.0
    for t in range(1, 1001):
        state = step(prob, "md", state, FixedTwoOverTPlusOne().rho(t))
        # independent accumulation of the weighted oracle outputs
        wsum_ybar += t * state.y_bar
        wsum_aty += t * op.adjoint_apply(state.y_bar)
        w = 2.0 / (t * (t + 1.0))
        worst_y = max(worst_y, float(np.max(np.abs(state.y - w * wsum_ybar))))
        worst_carried = max(
            worst_carried, float(np.max(np.abs(state.carried_h_sub + w * wsum_aty)))
        )
    _report(
        "averaging identities (t<=1000)",
        worst_y <= AVG_IDENTITY_TOL and worst_carried <= AVG_IDENTITY_TOL,
        f"dual_combo_dev={worst_y:.2e} carried_dev={worst_carried:.2e}",
    )


# --------------------------------------------------------------------------
# 9. uniform-averaging schedule: averaged-pair gap decay


def test_uniform_average_gap_decay(panel):
    worst_hit = 0
    for item in panel["items"]:
        prob = item["problem"]
        state = init_state(prob, np.zeros(prob.n))
        # independent uniform sums of the iterates x_{t-1} and oracle outputs
        psum_x = np.zeros(prob.p)
        psum_ybar = np.zeros(prob.n)
        initial = None
        hit = None
        for t in range(1, 10**4 + 1):
            psum_x += state.x
            state = step(prob, "md", state, FixedOneOverT().rho(t))
            psum_ybar += state.y_bar
            gap = duality_gap(prob, psum_x / t, psum_ybar / t)
            if initial is None:
                initial = gap
            if gap <= 1e-2 * initial:
                hit = t
                break
        assert hit is not None, (item["cfg"].seed, initial)
        worst_hit = max(worst_hit, hit)
    _report(
        "uniform-averaging gap decay (100x drop within 1e4 iters)",
        True,
        f"slowest instance hit at t={worst_hit}",
    )


# --------------------------------------------------------------------------
# 10. classical projected gradient is a different algorithm


def test_projected_gradient_non_equivalence():
    # box-constrained instance whose projected-gradient iterate hits the
    # boundary; the carried-subgradient recursion matches the dual one
    # while the projection-based recursion leaves the shared trajectory
    op = LinearOperator([[1.0, 0.4], [0.3, 1.0]])
    prob = ProblemInstance(
        op,
        SquaredL2Box(1.0, np.zeros(2), np.ones(2)),
        LeastAbsoluteDeviation([3.0, 0.45], 2.0),
    )
    rep = verify_equivalence(prob, np.zeros(2), FixedTwoOverTPlusOne(), 60, EQ_TOL)
    assert rep.passed, rep

    cg = init_state(prob, np.zeros(2))
    x_pg = cg.x.copy()
    pg_dev = 0.0
    hit_boundary = False
    for t in range(1, 61):
        rho = FixedTwoOverTPlusOne().rho(t)
        cg = step(prob, "gcg", cg, rho)
        ybar = prob.loss.subgradient(op.apply(x_pg))
        unclipped = (1.0 - rho) * x_pg + rho * (-op.adjoint_apply(ybar))
        if np.any(unclipped < 0.0) or np.any(unclipped > 1.0):
            hit_boundary = True
        x_pg = np.clip(unclipped, 0.0, 1.0)
        pg_dev = max(pg_dev, float(np.max(np.abs(x_pg - cg.x))))
    _report(
        "projected-gradient non-equivalence on a box domain",
        hit_boundary and pg_dev > 10.0 * EQ_TOL and rep.max_x_deviation <= EQ_TOL,
        f"pg_deviation={pg_dev:.2e} md_deviation={rep.max_x_deviation:.2e} boundary_hit={hit_boundary}",
    )
