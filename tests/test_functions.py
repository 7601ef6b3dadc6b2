import ast
import pathlib

import numpy as np
import pytest

import pdcg.algorithms
import pdcg.functions
from pdcg import (
    ConfigurationError,
    DomainError,
    DualNormGauge,
    Hinge,
    LeastAbsoluteDeviation,
    Logistic,
    NegativeEntropySimplex,
    SquaredL2,
    SquaredL2Box,
    ValidationError,
)

# --------------------------------------------------------------------------
# regularizer values


def test_squared_l2_values():
    reg = SquaredL2(2.0, 2)
    assert reg.value([1.0, 1.0]) == 2.0
    assert reg.conj_value([2.0, 0.0]) == 1.0
    np.testing.assert_array_equal(reg.conj_grad([2.0, -4.0]), [1.0, -2.0])
    assert reg.bregman([1.0, 0.0], [0.0, 0.0]) == 1.0


def test_entropy_values():
    ent = NegativeEntropySimplex(2)
    assert ent.value([0.5, 0.5]) == pytest.approx(-np.log(2.0), abs=1e-14)
    assert ent.value([0.5, 0.6]) == np.inf
    assert ent.conj_value([0.0, 0.0]) == pytest.approx(np.log(2.0), abs=1e-14)
    np.testing.assert_allclose(ent.conj_grad([0.0, 0.0]), [0.5, 0.5], atol=1e-15)
    # KL(e1 || uniform) by direct summation with 0 log 0 = 0
    assert ent.bregman([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-14)


def test_entropy_boundary_errors():
    ent = NegativeEntropySimplex(2)
    with pytest.raises(DomainError):
        ent.bregman([0.5, 0.5], [1.0, 0.0])


def test_box_conjugate_matches_grid_maximization():
    # grid oracle at resolution 1e-4 per coordinate (separable maximization)
    reg = SquaredL2Box(1.0, [0.0, 0.0], [1.0, 1.0])
    z = np.array([3.0, -1.0])
    grid = np.linspace(0.0, 1.0, 10001)
    brute = sum(float(np.max(grid * zi - 0.5 * grid**2)) for zi in z)
    assert reg.conj_value(z) == pytest.approx(2.5, abs=1e-12)
    assert reg.conj_value(z) == pytest.approx(brute, abs=1e-8)
    np.testing.assert_array_equal(reg.conj_grad(z), [1.0, 0.0])


def test_box_value_indicator():
    reg = SquaredL2Box(2.0, [0.0, 0.0], [1.0, 1.0])
    assert reg.value([0.5, 0.5]) == pytest.approx(0.5)
    assert reg.value([1.5, 0.5]) == np.inf
    assert reg.bregman([2.0, 0.0], [0.5, 0.5]) == np.inf


def test_bregman_zero_at_identical_points():
    rng = np.random.default_rng(3)
    for reg, point in [
        (SquaredL2(1.7, 4), rng.standard_normal(4)),
        (SquaredL2Box(1.0, np.zeros(3), np.ones(3)), rng.uniform(0.1, 0.9, 3)),
        (NegativeEntropySimplex(4), rng.dirichlet(np.ones(4) * 5)),
    ]:
        assert reg.bregman(point, point) == pytest.approx(0.0, abs=1e-14)


# --------------------------------------------------------------------------
# loss values


def test_hinge_values():
    loss = Hinge([1.0, -1.0], 0.5)
    assert loss.value([0.0, 0.0]) == 1.0
    np.testing.assert_array_equal(loss.subgradient([0.0, 0.0]), [-0.5, 0.5])
    assert loss.conj_value([0.0, 0.0]) == 0.0
    assert Hinge([1.0], 1.0).conj_value([0.5]) == np.inf


def test_hinge_kink_tie_rule():
    # margin exactly zero -> the margin-active extreme, not 0
    loss = Hinge([1.0], 1.0)
    np.testing.assert_array_equal(loss.subgradient([1.0]), [-1.0])


def test_lad_values():
    loss = LeastAbsoluteDeviation([1.0, 2.0], 1.0)
    assert loss.value([1.0, 2.0]) == 0.0
    np.testing.assert_array_equal(loss.subgradient([1.0, 2.0]), [0.0, 0.0])
    assert LeastAbsoluteDeviation([3.0], 1.0).conj_value([0.5]) == 1.5


def test_logistic_values():
    loss = Logistic([1.0], 1.0)
    assert loss.value([0.0]) == pytest.approx(np.log(2.0), abs=1e-15)
    # gradient at 0 is -label * sigmoid(0)
    np.testing.assert_allclose(loss.subgradient([0.0]), [-0.5], atol=1e-15)
    # conjugate at the midpoint gamma = 1/2 is -log 2
    assert loss.conj_value([-0.5]) == pytest.approx(-np.log(2.0), abs=1e-15)
    # closure boundary uses 0 log 0 = 0
    assert loss.conj_value([0.0]) == 0.0
    assert loss.conj_value([-1.0]) == 0.0
    assert loss.conj_value([0.5]) == np.inf


def _masked_xlogx(v):
    """The gather/scatter form of _xlogx, kept as its bit-level reference."""
    out = np.zeros_like(v)
    mask = v > 1e-300
    out[mask] = v[mask] * np.log(v[mask])
    return out


def _masked_sigmoid(u):
    """The gather/scatter form of _sigmoid, kept as its bit-level reference."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


_EDGE_POINTS = [0.0, -0.0, 1e-300, 5e-324, 1.0, 750.0, -750.0, 1e308, -1e308, -1.0, 0.5, 1e-12]


@pytest.mark.parametrize("fn,reference", [
    (pdcg.functions._xlogx, _masked_xlogx),
    (pdcg.functions._sigmoid, _masked_sigmoid),
], ids=["xlogx", "sigmoid"])
def test_entrywise_helpers_match_masked_forms_to_the_bit(fn, reference):
    rng = np.random.default_rng(5)
    inputs = [np.array(_EDGE_POINTS)]
    # every length up to 40 (so vector tails of every width), values spread
    # over many binades and both signs, with the edge points mixed in
    for n in range(1, 41):
        v = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-700.0, 700.0, n))
        v[rng.random(n) < 0.2] = rng.choice(_EDGE_POINTS)
        inputs.append(v)
    inputs.append(rng.uniform(0.0, 1.0, 1000))
    with np.errstate(over="ignore"):  # x log x overflows at 1e308 in both forms
        for v in inputs:
            assert fn(v).tobytes() == reference(v).tobytes(), v


def test_gauge_values():
    loss = DualNormGauge(2, 2.0, 0.0)
    assert loss.value([3.0, -3.0]) == 6.0
    np.testing.assert_array_equal(loss.subgradient([3.0, -3.0]), [2.0, 0.0])
    assert loss.conj_value([1.0, 0.5]) == 0.0
    assert loss.conj_value([2.0, 0.5]) == np.inf
    pen = DualNormGauge(2, 2.0, 0.3)
    assert pen.value([1.0, 0.1]) == pytest.approx(2.0 * 0.7)
    assert pen.conj_value([1.0, -0.5]) == pytest.approx(0.45)
    np.testing.assert_array_equal(pen.subgradient([0.2, -0.1]), [0.0, 0.0])


def test_gauge_vertex_oracle_against_enumeration():
    # argmax of <y, z> - lam ||y||_1 over the l1 ball, by enumerating the
    # 2n signed vertices plus the center
    rng = np.random.default_rng(4)
    loss = DualNormGauge(5, 1.7, 0.4)
    for _ in range(200):
        z = rng.standard_normal(5) * 2.0
        best_val, best_y = 0.0, np.zeros(5)  # center
        for i in range(5):
            for s in (-1.0, 1.0):
                y = np.zeros(5)
                y[i] = s * 1.7
                val = float(y @ z) - 0.4 * 1.7
                if val > best_val + 1e-12:
                    best_val, best_y = val, y
        out = loss.subgradient(z)
        got = float(out @ z) - loss.conj_value(out)
        assert got == pytest.approx(best_val, abs=1e-10)


def test_gauge_tie_lowest_index():
    loss = DualNormGauge(3, 1.0, 0.0)
    np.testing.assert_array_equal(loss.subgradient([2.0, 2.0, -2.0]), [1.0, 0.0, 0.0])


def test_loss_validation():
    with pytest.raises(ValidationError):
        Hinge([1.0, 0.5])
    with pytest.raises(ValidationError):
        LeastAbsoluteDeviation([1.0], scale=0.0)
    with pytest.raises(ValidationError):
        DualNormGauge(2, omega0=-1.0)


# --------------------------------------------------------------------------
# conjugates against grid-sup oracles


def test_hinge_conjugate_grid_sup():
    # f separable, so sup over the [-5, 5]^2 grid factors into per-axis sups
    loss = Hinge([1.0, -1.0], 0.5)
    grid = np.arange(-5.0, 5.0 + 1e-3, 1e-3)
    for y in ([0.0, 0.0], [-0.3, 0.2], [-0.5, 0.5]):
        per_axis = [
            float(np.max(y[i] * grid - 0.5 * np.maximum(1.0 - lab * grid, 0.0)))
            for i, lab in enumerate([1.0, -1.0])
        ]
        assert loss.conj_value(y) == pytest.approx(sum(per_axis), abs=1e-3)


def test_lad_conjugate_grid_sup():
    loss = LeastAbsoluteDeviation([3.0], 1.0)
    grid = np.arange(-8.0, 8.0 + 1e-3, 1e-3)
    for y in ([0.5], [-0.9], [0.0]):
        brute = float(np.max(y[0] * grid - np.abs(grid - 3.0)))
        assert loss.conj_value(y) == pytest.approx(brute, abs=1e-3)


def test_logistic_conjugate_grid_sup():
    loss = Logistic([1.0], 1.0)
    grid = np.arange(-12.0, 12.0 + 1e-3, 1e-3)
    for y in ([-0.5], [-0.25], [-0.8]):
        brute = float(np.max(y[0] * grid - np.logaddexp(0.0, -grid)))
        assert loss.conj_value(y) == pytest.approx(brute, abs=1e-3)


def test_gauge_conjugate_grid_sup():
    # f(z) depends on z only through m = ||z||_inf and the sup over
    # {||z||_inf = m} of <y, z> is m ||y||_1, so the 2-D sup reduces to a
    # 1-D grid over m
    loss = DualNormGauge(2, 2.0, 0.5)
    m = np.arange(0.0, 8.0 + 1e-3, 1e-3)
    for y in ([0.5, -0.3], [1.0, 0.9], [0.0, 0.0]):
        y = np.array(y)
        brute = float(np.max(m * np.sum(np.abs(y)) - 2.0 * np.maximum(m - 0.5, 0.0)))
        assert loss.conj_value(y) == pytest.approx(brute, abs=1e-3)


def test_entropy_conjugate_grid_sup():
    ent = NegativeEntropySimplex(2)
    a = np.linspace(1e-12, 1.0 - 1e-12, 100001)
    ent_term = a * np.log(a) + (1.0 - a) * np.log(1.0 - a)
    for z in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.7]):
        brute = float(np.max(a * z[0] + (1.0 - a) * z[1] - ent_term))
        assert ent.conj_value(z) == pytest.approx(brute, abs=1e-6)


# --------------------------------------------------------------------------
# structural properties (small-probe versions; the full suites run in the
# acceptance module)


def _sample_primal(reg, rng):
    if isinstance(reg, SquaredL2Box):
        return rng.uniform(reg.domain.lower, reg.domain.upper)
    if isinstance(reg, NegativeEntropySimplex):
        return rng.dirichlet(np.ones(reg.dim))
    return rng.standard_normal(reg.dim) * 2.0


@pytest.mark.parametrize(
    "reg",
    [
        SquaredL2(2.0, 3),
        SquaredL2Box(0.7, -np.ones(3), 2 * np.ones(3)),
        NegativeEntropySimplex(3),
    ],
    ids=["l2", "box", "entropy"],
)
def test_fenchel_young_regularizer(reg):
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = _sample_primal(reg, rng)
        z = rng.standard_normal(reg.dim) * 2.0
        residual = reg.value(x) + reg.conj_value(z) - float(x @ z)
        assert residual >= -1e-10
        xm = reg.conj_grad(z)
        eq = reg.value(xm) + reg.conj_value(z) - float(xm @ z)
        assert abs(eq) <= 1e-10


@pytest.mark.parametrize(
    "loss",
    [
        Hinge([1.0, -1.0, 1.0], 0.5),
        LeastAbsoluteDeviation([0.3, -1.2, 0.0], 2.0),
        Logistic([-1.0, 1.0, 1.0], 1.5),
        DualNormGauge(3, 1.2, 0.4),
    ],
    ids=["hinge", "lad", "logistic", "gauge"],
)
def test_fenchel_young_loss(loss):
    rng = np.random.default_rng(6)
    for _ in range(500):
        z = rng.standard_normal(3) * 3.0
        ybar = loss.subgradient(z)
        assert loss.dual_domain.contains(ybar, 1e-12)
        eq = loss.value(z) + loss.conj_value(ybar) - float(ybar @ z)
        assert abs(eq) <= 1e-10
        assert np.isfinite(loss.conj_value(ybar))


def test_scale_law():
    rng = np.random.default_rng(8)
    targets = rng.standard_normal(4)
    labels = np.where(rng.random(4) < 0.5, 1.0, -1.0)
    for mk in (
        lambda s: Hinge(labels, s),
        lambda s: LeastAbsoluteDeviation(targets, s),
        lambda s: Logistic(labels, s),
    ):
        base = mk(1.0)
        scaled = mk(0.37)
        for _ in range(100):
            z = rng.standard_normal(4) * 2.0
            assert scaled.value(z) == pytest.approx(0.37 * base.value(z), abs=1e-12)


def test_conj_grad_lands_in_domain():
    rng = np.random.default_rng(11)
    box = SquaredL2Box(0.5, np.zeros(3), np.ones(3))
    ent = NegativeEntropySimplex(3)
    for _ in range(500):
        z = rng.standard_normal(3) * 5.0
        assert box.domain.contains(box.conj_grad(z), 1e-12)
        assert ent.domain.contains(ent.conj_grad(z), 1e-12)


def test_conj_grad_lipschitz():
    rng = np.random.default_rng(10)
    for reg in (SquaredL2(2.0, 3), SquaredL2Box(0.5, np.zeros(3), np.ones(3)), NegativeEntropySimplex(3)):
        for _ in range(300):
            z1 = rng.standard_normal(3) * 3.0
            z2 = rng.standard_normal(3) * 3.0
            lhs = np.linalg.norm(reg.conj_grad(z1) - reg.conj_grad(z2))
            rhs = np.linalg.norm(z1 - z2) / reg.mu
            assert lhs <= rhs * (1.0 + 1e-8) + 1e-15


# --------------------------------------------------------------------------
# oracle protocol: the smooth dual model used by the reference polish and
# the closed-form steps of the compact-domain recursion


def _central_differences(fn, point, eps=1e-6):
    """Row i is (fn(point + eps e_i) - fn(point - eps e_i)) / (2 eps)."""
    return np.array([(np.asarray(fn(point + e)) - np.asarray(fn(point - e))) / (2.0 * eps)
                     for e in eps * np.eye(point.size)])


def _inside(loss):
    box = loss.dual_domain
    return box.lower + np.array([0.3, 0.6, 0.45]) * box.widths


@pytest.mark.parametrize(
    "loss",
    [Hinge([1.0, -1.0, 1.0], 0.5), LeastAbsoluteDeviation([0.3, -1.2, 0.0], 2.0), Logistic([-1.0, 1.0, 1.0], 1.5)],
    ids=["hinge", "lad", "logistic"],
)
def test_loss_conj_grad_matches_differences(loss):
    y = _inside(loss)
    np.testing.assert_allclose(loss.conj_grad(y), _central_differences(loss.conj_value, y), atol=1e-7)


def test_logistic_conj_hess_diag_matches_differences():
    loss = Logistic([-1.0, 1.0, 1.0], 1.5)
    y = _inside(loss)
    jac = _central_differences(loss.conj_grad, y)
    np.testing.assert_allclose(loss.conj_hess_diag(y), np.diag(jac), rtol=1e-6)
    np.testing.assert_allclose(jac - np.diag(np.diag(jac)), 0.0, atol=1e-8)


@pytest.mark.parametrize("reg", [SquaredL2(2.0, 3), NegativeEntropySimplex(3)], ids=["l2", "entropy"])
def test_regularizer_conj_hess_matches_differences(reg):
    z = np.array([0.4, -1.1, 0.7])
    hess = reg.conj_hess(z, reg.conj_grad(z))
    np.testing.assert_allclose(hess, _central_differences(reg.conj_grad, z), atol=1e-8)


@pytest.mark.parametrize(
    "reg,x,expected",
    [
        # clamp(x - (rho/mu) aty) with rho/mu = 0.25
        (SquaredL2Box(2.0, np.zeros(3), np.ones(3)), [0.5, 0.9, 0.1], [0.25, 1.0, 0.0]),
        # x_i exp(-rho aty_i), renormalized
        (NegativeEntropySimplex(3), [0.2, 0.3, 0.5],
         np.array([0.2 * np.exp(-0.5), 0.3 * np.exp(0.5), 0.5 * np.exp(-0.5)])
         / (0.2 * np.exp(-0.5) + 0.3 * np.exp(0.5) + 0.5 * np.exp(-0.5))),
    ],
    ids=["box", "simplex"],
)
def test_prox_step_closed_form(reg, x, expected):
    aty = np.array([1.0, -1.0, 1.0])
    np.testing.assert_allclose(reg.prox_step(np.array(x), aty, 0.5), expected, atol=1e-15)
    np.testing.assert_allclose(reg.prox_step(np.array(x), aty, 0.0), x, atol=1e-15)


@pytest.mark.parametrize(
    "oracle,call",
    [
        (SquaredL2Box(1.0, np.zeros(3), np.ones(3)), lambda reg: reg.conj_hess(np.zeros(3), np.full(3, 0.5))),
        (DualNormGauge(3, 1.0), lambda loss: loss.conj_grad(np.zeros(3))),
        (DualNormGauge(3, 1.0), lambda loss: loss.conj_hess_diag(np.zeros(3))),
    ],
    ids=["box-conj-hess", "gauge-conj-grad", "gauge-conj-hess-diag"],
)
def test_no_smooth_dual_model(oracle, call):
    with pytest.raises(ConfigurationError) as exc:
        call(oracle)
    assert str(exc.value) == f"no smooth dual model for {type(oracle).__name__}"


def _isinstance_hits(kinds, skip=()):
    """``file:line`` of every ``isinstance`` call in the package naming one of ``kinds``."""
    hits = []
    for path in sorted(pathlib.Path(pdcg.functions.__file__).parent.glob("*.py")):
        if path.name in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node.args[1]) if isinstance(n, (ast.Name, ast.Attribute))}
                if named & kinds:
                    hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_kind_checks_stay_in_functions():
    # every other module reaches regularizer, loss and domain kinds through methods
    domains = {"Box", "L1Ball", "Simplex", "RealSpace"}
    kinds = {
        name for name, obj in vars(pdcg.functions).items()
        if isinstance(obj, type) and issubclass(obj, (pdcg.functions.Regularizer, pdcg.functions.Loss))
    }
    assert domains <= set(vars(pdcg.functions))
    assert _isinstance_hits(kinds | domains, skip=("functions.py",)) == []


def test_no_checks_on_concrete_schedule_kinds():
    # run and verify_equivalence read what a schedule declares; only the
    # StepSchedule base class may be named (step_size's unknown-schedule check)
    kinds = {"FixedTwoOverTPlusOne", "FixedOneOverT", "LineSearch", "SqrtDecay"}
    assert _isinstance_hits(kinds) == []
    assert {cls.__name__ for cls in pdcg.algorithms.StepSchedule.__subclasses__()} == kinds
