import ast
import inspect
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import pdcg.algorithms
import pdcg.functions
from pdcg import (
    Box,
    ConfigurationError,
    DimensionMismatch,
    DomainError,
    DualNormGauge,
    Hinge,
    L1Ball,
    LeastAbsoluteDeviation,
    LinearOperator,
    Logistic,
    NegativeEntropySimplex,
    Simplex,
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


def test_logistic_oracle_rounds_onto_the_boundary_of_its_dual_domain():
    # the sigmoid is exactly 1.0 from u = 36.8 and exactly 0.0 below u = -745.2,
    # so the subgradient oracle returns faces of C, where f* must stay finite
    labels = _labels(4)
    loss = Logistic(labels, 0.3)
    y = loss.subgradient(-40.0 * labels)  # label z = -40
    assert y.tobytes() == (-0.3 * labels).tobytes()
    assert loss.dual_domain.contains(y) and np.isfinite(loss.conj_value(y))
    y = loss.subgradient(746.0 * labels)
    assert (y == 0.0).all() and np.isfinite(loss.conj_value(y))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_logistic_kernels_peak_memory_on_a_stack():
    # multiples of one (64, 200) stack's bytes: the np.logaddexp value read
    # 2.003x and the conjugate over the concatenated (g, 1 - g) 5.28x
    rng = np.random.default_rng(12)
    loss = Logistic(_labels(200), 0.5)
    z = 3.0 * rng.standard_normal((64, 200))
    loss.subgradient(z[0])  # caches the label products
    assert _peak_bytes(loss._value, z) <= 2.01 * z.nbytes
    g = rng.random((64, 200))
    inside, faces, clipped = g.copy(), g.copy(), g.copy()
    faces[:, :2] = 0.0, 1.0  # 0 log 0 substituted on both sides
    clipped[0, 0], clipped[1, 1] = -0.5 * TOL, 1.0 + 0.5 * TOL
    for gamma in (inside, faces, clipped):
        y = -gamma * loss.scale * loss.labels
        assert _peak_bytes(loss._conj_value, y) <= 3.5 * y.nbytes


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


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Box(np.zeros((2, 1)), np.ones((2, 1))), "box bounds must be 1-D arrays of equal length"),
        (lambda: Box(np.zeros(2), np.ones(3)), "box bounds must be 1-D arrays of equal length"),
        (lambda: Box([0.0, -np.inf], [1.0, 1.0]), "box bounds must be finite"),
        (lambda: Box([0.0, 0.0], [1.0, np.nan]), "box bounds must be finite"),
        (lambda: Box([0.0, 2.0], [1.0, 1.0]), "box lower bounds exceed upper bounds"),
        (lambda: Simplex(0), "simplex dimension must be positive"),
        (lambda: L1Ball(3, -1.0), "l1-ball radius must be nonnegative"),
        (lambda: DualNormGauge(3, 1.0, -0.5), "lam must be nonnegative and finite"),
    ],
    ids=["box-2-d", "box-unequal", "box-infinite", "box-nan", "box-reversed", "simplex-empty", "l1-negative-radius",
         "gauge-negative-lam"],
)
def test_domain_and_gauge_constructors_check_their_parameters(build, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        build()


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
    np.testing.assert_allclose(loss._conj_newton(y)[0], _central_differences(loss.conj_value, y), atol=1e-7)


def test_logistic_conj_hess_diag_matches_differences():
    loss = Logistic([-1.0, 1.0, 1.0], 1.5)
    y = _inside(loss)
    jac = _central_differences(lambda v: loss._conj_newton(v)[0], y)
    np.testing.assert_allclose(loss._conj_newton(y)[1], np.diag(jac), rtol=1e-6)
    np.testing.assert_allclose(jac - np.diag(np.diag(jac)), 0.0, atol=1e-8)


@pytest.mark.parametrize("reg", [SquaredL2(2.0, 3), NegativeEntropySimplex(3)], ids=["l2", "entropy"])
def test_regularizer_conj_hess_matches_differences(reg):
    z = np.array([0.4, -1.1, 0.7])
    hess = reg._conj_hess(z, reg.conj_grad(z))
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
    "reg,x,aty,error",
    [
        # a length-1 aty used to broadcast, a NaN to come back as NaN, an inf to be clipped away
        (NegativeEntropySimplex(3), [0.2, 0.3, 0.5], [0.5], DimensionMismatch),
        (NegativeEntropySimplex(3), [0.2, 0.3, 0.5], [0.5, np.nan, 0.0], ValidationError),
        (SquaredL2Box(2.0, np.zeros(3), np.ones(3)), [0.5, 0.9, 0.1], [1.0, np.inf, 1.0], ValidationError),
        (SquaredL2Box(2.0, np.zeros(3), np.ones(3)), [0.5], [1.0, -1.0, 1.0], DimensionMismatch),
        (SquaredL2Box(2.0, np.zeros(3), np.ones(3)), [0.5, -np.inf, 0.1], [1.0, -1.0, 1.0], ValidationError),
    ],
    ids=["simplex-short-aty", "simplex-nan-aty", "box-inf-aty", "box-short-x", "box-inf-x"],
)
def test_prox_step_checks_its_vectors_like_every_oracle(reg, x, aty, error):
    with pytest.raises(error):
        reg.prox_step(np.array(x), np.array(aty), 0.5)


def test_prox_step_needs_a_compact_domain_whatever_its_vectors():
    with pytest.raises(ConfigurationError, match="compact-domain recursion supports"):
        SquaredL2(1.0, 3).prox_step([np.nan], [0.0, 1.0], 0.5)


def test_interior_point_belongs_to_compact_domains():
    # the compact-domain recursion starts there; R^p has no canonical start
    with pytest.raises(ConfigurationError, match="compact-domain recursion supports"):
        SquaredL2(1.0, 3).interior_point()


def test_oracle_and_matvec_bits_do_not_depend_on_memory_layout():
    # a strided view gives the bits of the same values laid out contiguously
    hits = 0
    for n in (40, 200, 1001):
        reg = SquaredL2(0.5, n)
        op = LinearOperator(np.random.default_rng(n).standard_normal((7, n)))
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal(n)
            strided = np.repeat(x, 2)[::2]
            hits += strided @ strided != x @ x  # the layout does reach BLAS's summation order
            assert reg.value(strided).hex() == reg.value(x).hex()
            assert reg.conj_value(strided).hex() == reg.conj_value(x).hex()
            assert reg.bregman(strided, x[::-1]).hex() == reg.bregman(x, x[::-1].copy()).hex()
            y = x[:7]
            assert op.apply(strided).tobytes() == op.apply(x).tobytes()
            assert op.adjoint_apply(np.repeat(y, 2)[::2]).tobytes() == op.adjoint_apply(y.copy()).tobytes()
    assert hits > 0


@pytest.mark.parametrize(
    "oracle,call",
    [
        (SquaredL2Box(1.0, np.zeros(3), np.ones(3)), lambda reg: reg._conj_hess(np.zeros(3), np.full(3, 0.5))),
        (DualNormGauge(3, 1.0), lambda loss: loss._conj_newton(np.zeros(3))),
    ],
    ids=["box-conj-hess", "gauge-conj-newton"],
)
def test_no_smooth_dual_model(oracle, call):
    with pytest.raises(ConfigurationError) as exc:
        call(oracle)
    assert str(exc.value) == f"no smooth dual model for {type(oracle).__name__}"


# every built-in kind at dimension 3; the protocol test checks this list is complete
ORACLE_KINDS = [
    SquaredL2(2.0, 3),
    SquaredL2Box(2.0, np.zeros(3), np.ones(3)),
    NegativeEntropySimplex(3),
    Hinge([1.0, -1.0, 1.0], 0.5),
    LeastAbsoluteDeviation([0.3, -1.2, 0.0], 2.0),
    Logistic([-1.0, 1.0, 1.0], 1.5),
    DualNormGauge(3, 1.0),
]
VECTOR_PARAMS = ("x", "x1", "x2", "z", "y", "aty")


def test_every_public_vector_oracle_checks_its_vectors():
    # a public method of a kind that takes a vector parameter must refuse a
    # NaN entry and a wrong length; ConfigurationError counts only for an
    # oracle the kind lacks, i.e. one that refuses valid vectors too
    bases = (pdcg.functions.Regularizer, pdcg.functions.Loss)
    kinds = {
        cls for cls in vars(pdcg.functions).values()
        if isinstance(cls, type) and issubclass(cls, bases) and cls not in bases and not cls.__name__.startswith("_")
    }
    assert {type(obj) for obj in ORACLE_KINDS} == kinds
    valid = np.array([0.2, 0.3, 0.5])  # inside every domain, interior to the simplex
    checked = set()
    for obj in ORACLE_KINDS:
        for name in dir(obj):
            method = getattr(obj, name)
            if name.startswith("_") or not inspect.ismethod(method):
                continue
            params = inspect.signature(method).parameters
            vectors = [arg for arg in params if arg in VECTOR_PARAMS]
            if not vectors:
                continue
            args = {arg: (valid.copy() if arg in VECTOR_PARAMS else 0.5) for arg in params}
            try:
                method(**args)
                accepted = (ValidationError, DimensionMismatch)
            except ConfigurationError:
                accepted = (ValidationError, DimensionMismatch, ConfigurationError)
            for arg in vectors:
                for bad in (np.array([0.2, np.nan, 0.5]), np.full(4, 0.25)):
                    with pytest.raises(accepted):
                        method(**{**args, arg: bad})
            checked.add(name)
    assert {"value", "conj_value", "conj_grad", "bregman", "prox_step", "subgradient"} == checked


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
    # StepSchedule base class may be named (_check_schedule's unknown-schedule check)
    kinds = {"FixedTwoOverTPlusOne", "FixedOneOverT", "LineSearch", "SqrtDecay"}
    assert _isinstance_hits(kinds) == []
    assert {cls.__name__ for cls in pdcg.algorithms.StepSchedule.__subclasses__()} == kinds


# --------------------------------------------------------------------------
# the oracle kernels, bit for bit against the expressions they replaced
#
# Each ``_old_*`` below is the earlier expression, kept verbatim.  The
# rewritten oracles take fewer numpy passes; every output (float.hex of a
# scalar, the int64 view of an array, the truth value of a membership
# test) must be the same on edge inputs: signed zeros and subnormals,
# entries around the 1e-300 mask of _xlogx, logistic gamma exactly 0 and
# 1 and just inside and outside MEMBERSHIP_TOL, u = 0 for the sigmoid,
# points on and just off the box bounds, length-1 vectors and n = 20000,
# each also passed as a strided view, which must give the bits of the old
# expression on the contiguous input (BLAS sums a strided dot product in
# another order, so the checking entry points and the matvecs hand their
# kernels a contiguous copy).

MASK = 1e-300
TOL = pdcg.functions.MEMBERSHIP_TOL
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, MASK, -MASK,
        np.nextafter(MASK, 0.0), np.nextafter(MASK, 1.0), 0.25, -0.75]


def _old_xlogx(v):
    mask = v > 1e-300
    w = np.where(mask, v, 1.0)
    return np.where(mask, w * np.log(w), 0.0)


def _old_sigmoid(u):
    e = np.exp(-np.abs(u))
    d = 1.0 + e
    return np.where(u >= 0, 1.0 / d, e / d)


def _old_box_contains(box, v, tol=1e-12):
    v = np.asarray(v, dtype=np.float64)
    return bool((v >= box.lower - tol).all() and (v <= box.upper + tol).all())


def _old_box_clip(box, v):
    return np.asarray(v).clip(box.lower, box.upper)


def _old_simplex_contains(simplex, v, tol=1e-12):
    v = np.asarray(v, dtype=np.float64)
    return bool(v.min() >= -tol and abs(float(v.sum()) - 1.0) <= max(tol, tol * simplex.dim))


def _old_box_value(reg, x):
    if not _old_box_contains(reg.domain, x):
        return float("inf")
    return 0.5 * reg.mu * float(x @ x)


def _old_box_conj_value(reg, z):
    c = _old_box_clip(reg.domain, z / reg.mu)
    return float(c @ z - 0.5 * reg.mu * (c @ c))


def _old_entropy_value(reg, x):
    if not _old_simplex_contains(reg.domain, x):
        return float("inf")
    return float(_old_xlogx(np.maximum(x, 0.0)).sum())


def _old_entropy_conj_value(reg, z):
    m = float(z.max())
    return m + float(np.log(np.exp(z - m).sum()))


def _old_entropy_conj_grad(reg, z):
    e = np.exp(z - z.max())
    return e / e.sum()


def _old_entropy_bregman(reg, x1, x2):
    if not _old_simplex_contains(reg.domain, x1):
        return float("inf")
    x1c = np.maximum(x1, 0.0)
    mask = x1c > 1e-300
    return float((x1c[mask] * (np.log(x1c[mask]) - np.log(x2[mask]))).sum())


def _old_entropy_prox_step(reg, x, aty, rho):
    logits = np.log(x) - rho * aty
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _logistic_value(f, z):
    """The logistic value as rewritten, pinned in place of np.logaddexp, whose scalar exp and log1p round otherwise."""
    u = -f.labels * z
    return f.scale * float((np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))).sum())


def _logistic_us():
    """u = -label z: a grid at step 0.01, and the ends of exp's range and of the sigmoid's rounding."""
    ends = [0.0, -0.0, 36.7, -36.7, 709.7, -709.7, 745.0, -745.0, 745.2, -745.2, 1e308, -1e308]
    return np.concatenate((np.linspace(-40.0, 40.0, 8001), ends))


def _logistic_entries(s):
    """(loss, z) per entry of _logistic_us, as length-1 calls under either label."""
    losses = {lab: Logistic([lab], s) for lab in (1.0, -1.0)}
    us = _logistic_us()
    return [(losses[lab], np.array([-lab * u])) for lab, u in zip(np.resize([1.0, -1.0], us.size), us)]


def test_logistic_value_is_within_4_ulp_of_logaddexp_per_entry():
    us = _logistic_us()
    values = np.array([f.value(z) for f, z in _logistic_entries(1.0)])
    ulps = np.abs(values.view(np.int64) - np.logaddexp(0.0, us).view(np.int64))
    assert ulps.max() <= 4
    # and a stack of the length-1 calls gives each row its bits
    assert Logistic([1.0], 1.0)._value(-us[:, None]).tobytes() == values.tobytes()


def _old_lad_conj_value(loss, y):
    atol = TOL * (1.0 + loss.scale)
    if (np.abs(y) > loss.scale + atol).any():
        return float("inf")
    return float(y.clip(-loss.scale, loss.scale) @ loss.targets)


def _old_logistic_conj_value(loss, y):
    gamma = -y * loss.labels / loss.scale
    if (gamma < -TOL).any() or (gamma > 1.0 + TOL).any():
        return float("inf")
    g = gamma.clip(0.0, 1.0)
    return loss.scale * float((_old_xlogx(g) + _old_xlogx(1.0 - g)).sum())


def _labels(k):
    return np.where(np.arange(k) % 2 == 0, 1.0, -1.0)


def _big(k=20000, spread=3.0):
    return spread * np.random.default_rng(k).standard_normal(k)


def _generic():
    """Vectors on R^k: edge entries, length-1 vectors and n = 20000."""
    return [np.array(EDGE), np.array([0.0]), np.array([-0.0]), np.array([MASK]), np.array([-1.5]), _big()]


def _gammas():
    """Logistic gamma = -y label / s: exactly 0 and 1, the mask, and the tolerance band."""
    inside = [0.0, -0.0, 1.0, 5e-324, MASK, np.nextafter(MASK, 0.0), np.nextafter(MASK, 1.0), 0.5,
              np.nextafter(1.0, 0.0), 1.0 - MASK, -TOL, -0.5 * TOL, 1.0 + TOL, 1.0 + 0.5 * TOL]
    return [np.array(inside), np.array([0.3, 0.7]), np.array([np.nextafter(MASK, 1.0), 0.5]),
            np.array([0.0]), np.array([1.0]), np.array([-0.0]), np.array([0.5]),
            np.array([0.5, -2.0 * TOL]), np.array([0.5, 1.0 + 2.0 * TOL]), np.array([np.nextafter(-TOL, -1.0)]),
            np.random.default_rng(1).random(20000)]


def _lad_duals(s):
    atol = TOL * (1.0 + s)
    inside = [0.0, -0.0, s, -s, 5e-324, s + 0.5 * atol, -s - 0.5 * atol, np.nextafter(s, 0.0)]
    return [np.array(inside), np.array([-0.0]), np.array([s]), np.array([-s - 0.5 * atol]),
            np.array([s + atol]), np.array([-(s + atol)]), np.array([0.0, s + 2.0 * atol]), np.array([-s - 2.0 * atol]),
            s * (2.0 * np.random.default_rng(3).random(20000) - 1.0)]


def _box_points(lower, upper):
    """Points on the bounds, just inside and outside them, and signed zeros."""
    lo, hi = float(lower), float(upper)
    vals = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nextafter(lo, np.inf),
            np.nextafter(hi, -np.inf), 0.0, -0.0, 5e-324, -5e-324, lo - 1e-12, hi + 1e-12, lo - 2e-12]
    return [np.array(vals), np.array([lo]), np.array([hi]), np.array([-0.0]), np.array([0.0]),
            np.random.default_rng(4).uniform(lo - 0.5, hi + 0.5, 20000)]


BOXES = [(0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0), (-2.0, 3.0)]


def _simplex_points():
    k = 6
    pts = [np.full(k, 1.0 / k), np.eye(k)[0], np.where(np.eye(k)[1] == 0.0, -0.0, 1.0),
           np.array([0.5, 0.5 - 1e-13, 1e-13, 0.0, -0.0, 5e-324]), np.array([0.5, 0.5 + 1e-13, -1e-13, 0.0, 0.0, 0.0]),
           np.array([0.5, 0.5, MASK, np.nextafter(MASK, 0.0), 0.0, -5e-324]),
           np.array([0.5, 0.5, -2e-12, 0.0, 0.0, 0.0]),
           np.array([1.0]), np.array([-0.0])]
    big = np.random.default_rng(5).random(20000)
    return pts + [big / big.sum()]


def _cases():
    """(id, old, new, argument tuples) for every rewritten oracle."""
    F = pdcg.functions
    cases = [
        ("xlogx", _old_xlogx, F._xlogx, [(v,) for v in _generic() + _gammas()]),
        ("xlogx-with-min", _old_xlogx, lambda v: F._xlogx(v, np.min(v)), [(v,) for v in _generic() + _gammas()]),
        ("sigmoid", _old_sigmoid, F._sigmoid, [(v,) for v in _generic() + [np.array([0.0, -0.0, 800.0, -800.0])]]),
    ]
    for lo, hi in BOXES:
        tag = f"box[{lo!r},{hi!r}]"
        pts = _box_points(lo, hi)
        boxes = [F.Box(np.full(v.size, lo), np.full(v.size, hi)) for v in pts]
        regs = [SquaredL2Box(0.5, b.lower, b.upper) for b in boxes]
        cases += [
            (f"{tag}-contains", _old_box_contains, F.Box.contains, list(zip(boxes, pts))),
            (f"{tag}-contains-tol", lambda b, v: _old_box_contains(b, v, 1e-9), lambda b, v: b.contains(v, 1e-9),
             list(zip(boxes, pts))),
            (f"{tag}-clip", _old_box_clip, F.Box.clip, list(zip(boxes, pts))),
            (f"{tag}-support", lambda b, z: float(np.maximum(b.lower * z, b.upper * z).sum()), F.Box.support,
             list(zip(boxes, pts))),
            (f"{tag}-value", _old_box_value, SquaredL2Box.value, list(zip(regs, pts))),
            (f"{tag}-conj-value", _old_box_conj_value, SquaredL2Box.conj_value, list(zip(regs, pts))),
            (f"{tag}-conj-grad", lambda r, z: _old_box_clip(r.domain, z / r.mu), SquaredL2Box.conj_grad,
             list(zip(regs, pts))),
            (f"{tag}-prox-step", lambda r, x, a, rho: _old_box_clip(r.domain, x - (rho / r.mu) * a),
             SquaredL2Box.prox_step, [(r, v, v[::-1].copy(), 0.5) for r, v in zip(regs, pts)]),
        ]
    simplex_pts = _simplex_points()
    ents = [NegativeEntropySimplex(v.size) for v in simplex_pts]
    generic = _generic()
    gen_ents = [NegativeEntropySimplex(v.size) for v in generic]
    cases += [
        ("simplex-contains", _old_simplex_contains, pdcg.functions.Simplex.contains,
         [(e.domain, v) for e, v in zip(ents, simplex_pts)]),
        ("simplex-interior-contains",
         lambda s, v: bool(v.min() > 0.0 and abs(float(v.sum()) - 1.0) <= max(1e-12, 1e-12 * s.dim)),
         lambda s, v: bool(s._inside(v, interior=True)), [(e.domain, v) for e, v in zip(ents, simplex_pts)]),
        ("simplex-support", lambda s, z: float(np.asarray(z, dtype=np.float64).max()), pdcg.functions.Simplex.support,
         [(e.domain, v) for e, v in zip(gen_ents, generic)]),
        ("entropy-value", _old_entropy_value, NegativeEntropySimplex.value, list(zip(ents, simplex_pts))),
        ("entropy-conj-value", _old_entropy_conj_value, NegativeEntropySimplex.conj_value,
         list(zip(gen_ents, generic))),
        ("entropy-conj-grad", _old_entropy_conj_grad, NegativeEntropySimplex.conj_grad, list(zip(gen_ents, generic))),
        ("entropy-bregman", _old_entropy_bregman, NegativeEntropySimplex.bregman,
         [(e, v, e.interior_point()) for e, v in zip(ents, simplex_pts)]),
        ("entropy-prox-step", _old_entropy_prox_step, NegativeEntropySimplex.prox_step,
         [(e, e.interior_point(), z, 0.5) for e, z in zip(gen_ents, generic)]),
        ("l2-value", lambda r, x: 0.5 * r.mu * float(x @ x), SquaredL2.value,
         [(SquaredL2(0.5, v.size), v) for v in generic]),
        ("l2-conj-value", lambda r, z: float(z @ z) / (2.0 * r.mu), SquaredL2.conj_value,
         [(SquaredL2(0.5, v.size), v) for v in generic]),
        ("l2-bregman", lambda r, a, b: 0.5 * r.mu * float((a - b) @ (a - b)), SquaredL2.bregman,
         [(SquaredL2(0.5, v.size), v, v[::-1].copy()) for v in generic]),
    ]
    for s in (1.0, 0.1):
        lg = [(Logistic(_labels(g.size), s), -g * s * _labels(g.size)) for g in _gammas()]
        zs = [(Logistic(_labels(v.size), s), v) for v in generic]
        ly = [(LeastAbsoluteDeviation(_big(y.size, 1.0), s), y) for y in _lad_duals(s)]
        lz = [(LeastAbsoluteDeviation(_big(v.size, 1.0), s), v) for v in generic]
        cases += [
            (f"logistic-{s}-value", _logistic_value, Logistic.value, zs),
            # per entry too, since one long sum and a few length-1 calls let
            # most of its rounding go unseen (the stacks are checked below)
            (f"logistic-{s}-value-entries", _logistic_value, lambda f, z: f.value(z), _logistic_entries(s)),
            (f"logistic-{s}-conj-value", _old_logistic_conj_value, Logistic.conj_value, lg),
            (f"logistic-{s}-subgradient", lambda f, z: -f.scale * f.labels * _old_sigmoid(-f.labels * z),
             Logistic.subgradient, zs),
            (f"lad-{s}-value", lambda f, z: f.scale * float(np.abs(z - f.targets).sum()),
             LeastAbsoluteDeviation.value, lz),
            (f"lad-{s}-conj-value", _old_lad_conj_value, LeastAbsoluteDeviation.conj_value, ly),
        ]
    shapes = ((1, 1), (3, 2), (200, 40), (20000, 5))
    ops = [pdcg.LinearOperator(np.random.default_rng(n).standard_normal((n, p))) for n, p in shapes]
    ops.append(pdcg.LinearOperator([[1.0]]))
    def _inputs(k):
        return [np.random.default_rng(0).standard_normal(k), np.full(k, -0.0), np.zeros(k)]
    cases += [
        ("operator-apply", lambda op, x: op.matrix @ x, pdcg.LinearOperator.apply,
         [(op, x) for op in ops for x in _inputs(op.p)]),
        ("operator-adjoint-apply", lambda op, y: op.matrix.T @ y, pdcg.LinearOperator.adjoint_apply,
         [(op, y) for op in ops for y in _inputs(op.n)]),
    ]
    return cases


def _bits(out):
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.view(np.int64).tolist() if out.dtype == np.float64 else out.tolist()
    if isinstance(out, (bool, np.bool_)):
        return bool(out)
    assert type(out) is float  # an oracle's scalar is a Python float
    return out.hex()


def _strided(a):
    """The same entries as a non-contiguous view; any other argument as it is."""
    return np.repeat(a, 2)[::2] if isinstance(a, np.ndarray) and a.ndim == 1 else a


KERNEL_CASES = {case[0]: case for case in _cases()}


@pytest.mark.parametrize("name", list(KERNEL_CASES))
def test_oracle_kernels_match_the_replaced_expressions_bit_for_bit(name):
    _, old, new, arg_sets = KERNEL_CASES[name]
    for contiguous in arg_sets:
        expected = _bits(old(*contiguous))
        for args in (contiguous, tuple(_strided(a) for a in contiguous)):
            assert _bits(new(*args)) == expected, (name, args[-1][:8] if hasattr(args[-1], "__len__") else args)


# --------------------------------------------------------------------------
# row stacks: the certificate kernels on a (k, dim) stack, row by row

# public oracle -> the kernel that takes a stack of points in its last argument
STACK_KERNELS = {"value": "_value", "conj_value": "_conj_value", "bregman": "_bregman", "support": "support"}


def _interior_points(k, count=3):
    rng = np.random.default_rng(k)
    return [v / v.sum() for v in (rng.random(k) + 0.05 for _ in range(count))]


def _stack_cases():
    """(id, kernel name, argument tuples): the stacked KERNEL_CASES, and hinge and gauge."""
    cases = [(name, STACK_KERNELS[new.__name__], args) for name, (_, _, new, args) in KERNEL_CASES.items()
             if new.__name__ in STACK_KERNELS]
    for s in (1.0, 0.1):
        hinge_duals = [(Hinge(_labels(g.size), s), -g * s * _labels(g.size)) for g in _gammas()]
        cases += [
            (f"hinge-{s}-value", "_value", [(Hinge(_labels(v.size), s), v) for v in _generic()]),
            (f"hinge-{s}-conj-value", "_conj_value", hinge_duals),
        ]
    for lam in (0.0, 0.3):
        cases += [
            (f"gauge-{lam}-value", "_value", [(DualNormGauge(v.size, 1.5, lam), v) for v in _generic()]),
            (f"gauge-{lam}-conj-value", "_conj_value", [(DualNormGauge(v.size, 1.5, lam), v) for v in _generic()]),
        ]
    return cases


STACK_CASES = {case[0]: case for case in _stack_cases()}
# the kernels that are +inf outside a domain, whose stacks mix finite and
# infinite rows (a divergence is +inf for an x1 outside, so for no row or all)
INF_OUTSIDE = re.compile(r"box\[.*\]-value|entropy-value|(lad|logistic|hinge|gauge)-.*-conj-value")


@pytest.mark.parametrize("name", list(STACK_CASES))
def test_kernels_give_each_row_of_a_stack_the_bits_of_its_one_vector_call(name):
    _, kernel_name, arg_sets = STACK_CASES[name]
    mixed = False
    for fixed in arg_sets:
        obj, *others = fixed[:-1]
        kernel = getattr(obj, kernel_name)
        # rows: every point of the case with this length, reversed too, and
        # (but for the interior second point of a divergence) shifted out of
        # every compact domain, so in- and out-of-domain rows mix
        rows = [args[-1] for args in arg_sets if args[-1].shape == fixed[-1].shape]
        if kernel_name == "_bregman":
            rows += _interior_points(rows[0].size)
        else:
            rows += [v[::-1] for v in rows] + [v + 1e3 for v in rows]
        stack = np.array(rows)
        values = kernel(*others, stack)
        assert isinstance(values, np.ndarray) and values.shape == (len(rows),)
        expected = [float(kernel(*others, np.ascontiguousarray(row))).hex() for row in rows]
        assert [float(v).hex() for v in values] == expected, name
        mixed |= bool(np.isinf(values).any() and np.isfinite(values).any())
    assert mixed == bool(INF_OUTSIDE.fullmatch(name)), name
