"""Oracle bundles for strongly convex regularizers h and Lipschitz losses f.

This is the only module that knows the regularizer and loss kinds: the
other modules call the methods below.  A public vector oracle checks
its vectors in the base class and calls the kind's kernel (same name,
leading underscore), which a new kind implements and the recursions
call directly.  An oracle a kind does not support raises
``ConfigurationError``.

Each regularizer exposes h, its conjugate h*, the conjugate gradient
(h*)' and the Bregman divergence D(x1, x2) = h(x1) - h(x2) - <x1 - x2,
h'(x2)>; the recursions carry their own subgradient of h.  Compact
domains add the closed-form Bregman-proximal step ``prox_step`` and the
radius bound ``delta2`` at ``interior_point``, where the compact-domain
recursion starts; a smooth h* adds its Hessian ``conj_hess`` for the
reference solver's Newton polish.

Each loss exposes f, its conjugate f*, and the argmax-subgradient oracle
f'(z) = argmax_{y in C} <y, z> - f*(y) over the compact dual domain C,
plus ``conj_grad``/``conj_hess_diag`` of f* inside a box C for the polish
(declared by ``box_polish``).  Each dual domain C gives R^2 under an
operator A through ``r2(op, which)``, together with its mode string.
Separable losses are scaled as f = s * sum_i l_i, whose conjugate is
f*(y) = s * sum_i l_i*(y_i / s) with C scaled accordingly.

Tie-breaking in every argmax is deterministic so that two recursions
calling the same oracle see bit-identical outputs.

The three regularizers and the lad and logistic losses run on every
iteration of the timed benchmark, so each of their quantities takes one
numpy pass: reductions call the ufunc's ``reduce`` directly instead of
the ndarray methods (``sum``, ``max``, ``all``) and their Python
wrappers, and range checks are one min and one max.  Hinge and the
gauge keep their plain expressions until a workload times them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import ConfigurationError, DomainError, LinearOperator, ValidationError, as_vector, contiguous_vector

# Points this far outside a dual domain are treated as members and the
# conjugate is evaluated at the clamped point; further out it is +inf.
MEMBERSHIP_TOL = 1e-9

# Default tolerance of the domains' membership tests.
_TOL = 1e-12

_COMPACT_ONLY = "compact-domain recursion supports entropy and box regularizers only"

# Largest dual dimension for which vertex enumeration is exact.
EXACT_VERTEX_LIMIT = 20

MODE_EXACT = "exact-vertex"
MODE_BOUND = "column-norm-bound"


def _xlogx(v: np.ndarray, v_min: float = 0.0) -> np.ndarray:
    """Entrywise v*log(v) with the convention 0*log(0) = 0.

    Entries at or below 1e-300 (negative ones too) become w = 1, whose
    w*log(w) is already +0.0.  A caller that knows min(v) passes it as
    ``v_min``; above 1e-300 no entry needs the substitution.
    """
    w = v if v_min > 1e-300 else np.where(v > 1e-300, v, 1.0)
    out = np.log(w)
    out *= w
    return out


def _range(v: np.ndarray) -> tuple:
    """(min, max) of v in two reductions; (inf, -inf) when v is empty, which passes every range check."""
    return np.minimum.reduce(v, initial=np.inf), np.maximum.reduce(v, initial=-np.inf)


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Entrywise 1/(1 + exp(-u)), with exp taken of -|u| only, so it never overflows."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _vertex_images(matrix: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """A^T y for every vertex y of the box [lower, upper], one row per vertex."""
    k = matrix.shape[0]
    choose = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    return np.where(choose == 1, upper, lower) @ matrix


def _max_sq_norm_over_vertices(matrix: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Exact max of ||A^T y||^2 over the vertices of a box, meet in the middle.

    A vertex is a pair of vertices of the two half-boxes (first n//2
    coordinates, the rest), so A^T y = u1 + u2 and
    ||u1 + u2||^2 = ||u1||^2 + ||u2||^2 + 2 <u1, u2>.  One product of the
    two image tables, taken in blocks of 64 rows, scores all 2^n vertices
    in O(2^(n/2) p) memory.  The winner is rescored as ||u1 + u2||^2, so the
    value returned is the norm of a real vertex image.
    """
    k = matrix.shape[0] // 2
    u1 = _vertex_images(matrix[:k], lower[:k], upper[:k])
    u2 = _vertex_images(matrix[k:], lower[k:], upper[k:])
    sq1 = np.einsum("ij,ij->i", u1, u1)
    sq2 = np.einsum("ij,ij->i", u2, u2)
    best, best_i, best_j = -np.inf, 0, 0
    for start in range(0, u1.shape[0], 64):
        s = u1[start : start + 64] @ u2.T
        s *= 2.0
        s += sq1[start : start + 64, None]
        s += sq2
        flat = int(s.argmax())
        i, j = divmod(flat, s.shape[1])
        if s[i, j] > best:
            best, best_i, best_j = s[i, j], start + i, j
    v = u1[best_i] + u2[best_j]
    return float(v @ v)


# ---------------------------------------------------------------------------
# Domain descriptors


class RealSpace:
    """All of R^dim (non-compact)."""

    compact = False

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)

    def contains(self, v, tol: float = _TOL) -> bool:
        return True


class Box:
    """Axis-aligned box {v : lower <= v <= upper}."""

    compact = True

    def __init__(self, lower, upper) -> None:
        lo = np.asarray(lower, dtype=np.float64)
        hi = np.asarray(upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box bounds must be 1-D arrays of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValidationError("box bounds must be finite")
        if (lo > hi).any():
            raise ValidationError("box lower bounds exceed upper bounds")
        self.lower = lo
        self.upper = hi
        self.dim = lo.shape[0]

    @cached_property
    def _slack_bounds(self) -> tuple:
        """The bounds contains() compares with at its default tolerance (kept once used)."""
        return self.lower - _TOL, self.upper + _TOL

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diameter2(self) -> float:
        return float((self.widths**2).sum())

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def max_abs(self) -> np.ndarray:
        """Per-coordinate max(|lower|, |upper|)."""
        return np.maximum(np.abs(self.lower), np.abs(self.upper))

    def contains(self, v, tol: float = _TOL) -> bool:
        v = np.asarray(v, dtype=np.float64)
        lo, hi = self._slack_bounds if tol == _TOL else (self.lower - tol, self.upper + tol)
        return bool(np.logical_and.reduce(v >= lo, axis=None) and np.logical_and.reduce(v <= hi, axis=None))

    def clip(self, v) -> np.ndarray:
        # ndarray.clip with array bounds, bit for bit with signed zeros (np.maximum(lower, v) is not)
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def support(self, z) -> float:
        """Support function max_{v in box} <v, z>."""
        z = np.asarray(z, dtype=np.float64)
        return float(np.add.reduce(np.maximum(self.lower * z, self.upper * z), axis=None))

    def r2(self, op: LinearOperator, which: str) -> tuple[float, str]:
        """Exact over the vertices (where a convex maximum lies) up to
        EXACT_VERTEX_LIMIT coordinates, else (sum_i c_i ||row_i(A)||)^2."""
        if self.dim <= EXACT_VERTEX_LIMIT:
            if which == "diameter":
                w = self.widths
                return _max_sq_norm_over_vertices(op.matrix, -w, w), MODE_EXACT
            return _max_sq_norm_over_vertices(op.matrix, self.lower, self.upper), MODE_EXACT
        coeff = self.widths if which == "diameter" else self.max_abs()
        return float(np.sum(coeff * op.row_norms)) ** 2, MODE_BOUND


class Simplex:
    """Probability simplex {v >= 0, sum(v) = 1}."""

    compact = True

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)
        if self.dim < 1:
            raise ValidationError("simplex dimension must be positive")

    def _sum_is_one(self, v: np.ndarray, tol: float) -> bool:
        return abs(float(np.add.reduce(v, axis=None)) - 1.0) <= max(tol, tol * self.dim)

    def contains(self, v, tol: float = _TOL) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.minimum.reduce(v, axis=None) >= -tol and self._sum_is_one(v, tol))

    def interior_contains(self, v, tol: float = _TOL) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.minimum.reduce(v, axis=None) > 0.0 and self._sum_is_one(v, tol))

    def support(self, z) -> float:
        """Support function max_{v in simplex} <v, z> = max_i z_i."""
        return float(np.maximum.reduce(np.asarray(z, dtype=np.float64), axis=None))


class L1Ball:
    """Scaled l1 ball {v : ||v||_1 <= radius}."""

    compact = True

    def __init__(self, dim: int, radius: float) -> None:
        self.dim = int(dim)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValidationError("l1-ball radius must be nonnegative")

    def contains(self, v, tol: float = _TOL) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.abs(v).sum() <= self.radius + tol * (1.0 + self.radius))

    def r2(self, op: LinearOperator, which: str) -> tuple[float, str]:
        """Always exact: the extreme points are +-radius e_i."""
        r = self.radius * float(np.max(op.row_norms))
        return ((2.0 * r) ** 2 if which == "diameter" else r**2), MODE_EXACT


# ---------------------------------------------------------------------------
# Regularizers


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not 0.0 < mu < np.inf:
        raise ValidationError("modulus mu must be positive and finite")
    return mu


class Regularizer:
    """Oracle bundle for a mu-strongly convex h with domain K; mu > 0.

    A kernel takes finite C-contiguous float64 vectors of length ``dim``.
    """

    mu: float
    dim: int

    def value(self, x) -> float:
        """h(x); +inf outside K."""
        return self._value(contiguous_vector(x, self.dim, "x"))

    def conj_value(self, z) -> float:
        """h*(z) = max_x <x, z> - h(x)."""
        return self._conj_value(contiguous_vector(z, self.dim, "z"))

    def conj_grad(self, z) -> np.ndarray:
        """(h*)'(z); the unique maximizer of <x, z> - h(x), always in K."""
        return self._conj_grad(contiguous_vector(z, self.dim, "z"))

    def bregman(self, x1, x2) -> float:
        """D(x1, x2) = h(x1) - h(x2) - <x1 - x2, h'(x2)> >= 0."""
        return self._bregman(contiguous_vector(x1, self.dim, "x1"), contiguous_vector(x2, self.dim, "x2"))

    def interior_point(self) -> np.ndarray:
        """A canonical strictly feasible point of K."""
        raise NotImplementedError

    def conj_hess(self, z, x) -> np.ndarray:
        """Hessian of h* at z, given x = (h*)'(z)."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")

    def prox_step(self, x, aty, rho: float) -> np.ndarray:
        """argmin_{x' in K} (1/rho) D(x', x) + <x' - x, aty>, in closed form."""
        if not self.domain.compact:
            raise ConfigurationError(_COMPACT_ONLY)
        return self._prox_step(contiguous_vector(x, self.dim, "x"), contiguous_vector(aty, self.dim, "aty"), rho)

    def _prox_step(self, x, aty, rho: float) -> np.ndarray:
        raise ConfigurationError(_COMPACT_ONLY)

    def delta2(self) -> float:
        """Upper bound delta^2 on D(x, x0) over the compact domain K, x0 the interior point."""
        raise ConfigurationError("delta^2 is defined for compact domains only")


class SquaredL2(Regularizer):
    """h(x) = (mu/2) ||x||^2 on all of R^p."""

    def __init__(self, mu: float, dim: int) -> None:
        self.mu = _check_mu(mu)
        self.dim = int(dim)
        self.domain = RealSpace(self.dim)

    def _value(self, x) -> float:
        return 0.5 * self.mu * float(x @ x)

    def _conj_value(self, z) -> float:
        return float(z @ z) / (2.0 * self.mu)

    def _conj_grad(self, z) -> np.ndarray:
        return z / self.mu

    def _bregman(self, x1, x2) -> float:
        d = x1 - x2
        return 0.5 * self.mu * float(d @ d)

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def conj_hess(self, z, x) -> np.ndarray:
        return np.eye(self.dim) / self.mu


class SquaredL2Box(Regularizer):
    """h(x) = (mu/2) ||x||^2 + indicator of a box K."""

    def __init__(self, mu: float, lower, upper) -> None:
        self.mu = _check_mu(mu)
        self.domain = Box(lower, upper)
        self.dim = self.domain.dim

    def _value(self, x) -> float:
        if not self.domain.contains(x):
            return float("inf")
        return 0.5 * self.mu * float(x @ x)

    def _conj_value(self, z) -> float:
        # Separable: per coordinate max over [lo, hi] of x*z - (mu/2) x^2,
        # attained at the clamp of z/mu.
        c = self.domain.clip(z / self.mu)
        return float(c @ z) - 0.5 * self.mu * float(c @ c)

    def _conj_grad(self, z) -> np.ndarray:
        return self.domain.clip(z / self.mu)

    def _bregman(self, x1, x2) -> float:
        if not self.domain.contains(x1):
            return float("inf")
        d = x1 - x2
        return 0.5 * self.mu * float(d @ d)

    def interior_point(self) -> np.ndarray:
        return self.domain.center()

    def _prox_step(self, x, aty, rho: float) -> np.ndarray:
        # clamped gradient step
        return self.domain.clip(x - (rho / self.mu) * aty)

    def delta2(self) -> float:
        """(mu/2) diam(K)^2, whatever the start."""
        return 0.5 * self.mu * self.domain.diameter2()


class NegativeEntropySimplex(Regularizer):
    """h(x) = sum_i x_i log x_i + indicator of the probability simplex.

    1-strongly convex on the simplex (w.r.t. the Euclidean norm);
    h* is the log-sum-exp function and (h*)' the softmax map, both
    computed with max-subtraction for stability.
    """

    def __init__(self, dim: int) -> None:
        self.mu = 1.0
        self.dim = int(dim)
        self.domain = Simplex(self.dim)

    def _value(self, x) -> float:
        if not self.domain.contains(x):
            return float("inf")
        # _xlogx maps the tiny negatives contains() admits to 0, as it does 0
        return float(np.add.reduce(_xlogx(x)))

    def _conj_value(self, z) -> float:
        m = float(np.maximum.reduce(z))
        return m + float(np.log(np.add.reduce(np.exp(z - m))))

    def _conj_grad(self, z) -> np.ndarray:
        e = np.exp(z - np.maximum.reduce(z))
        return e / np.add.reduce(e)

    def _bregman(self, x1, x2) -> float:
        # Kullback-Leibler divergence on the simplex; x2 must be interior.
        if not self.domain.interior_contains(x2):
            raise DomainError("Bregman divergence requires an interior second argument")
        if not self.domain.contains(x1):
            return float("inf")
        mask = x1 > 1e-300
        x1m = x1[mask]
        return float(np.add.reduce(x1m * (np.log(x1m) - np.log(x2[mask]))))

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def conj_hess(self, z, x) -> np.ndarray:
        return np.diag(x) - np.outer(x, x)

    def _prox_step(self, x, aty, rho: float) -> np.ndarray:
        # renormalized multiplicative update
        logits = np.log(x) - rho * aty
        e = np.exp(logits - np.maximum.reduce(logits))
        return e / np.add.reduce(e)

    def delta2(self) -> float:
        """max_x KL(x || x0), attained at a vertex: -log(min_i x0_i) at the barycenter x0."""
        return float(-np.log(self.interior_point().min()))


# ---------------------------------------------------------------------------
# Losses


class Loss:
    """Oracle bundle for a Lipschitz f with compact dual domain C; kernels as for ``Regularizer``."""

    dim: int
    dual_domain: object
    # True when the oracle never reaches the boundary of C, so points
    # handed to ``conj_grad`` must stay strictly inside it
    open_domain = False
    # True when C is a box and f* has ``conj_grad``/``conj_hess_diag``
    # there, so the reference solver may polish the dual by Newton steps
    box_polish = False

    def value(self, z) -> float:
        """f(z)."""
        return self._value(contiguous_vector(z, self.dim, "z"))

    def conj_value(self, y) -> float:
        """f*(y); +inf outside the closure of C."""
        return self._conj_value(contiguous_vector(y, self.dim, "y"))

    def subgradient(self, z) -> np.ndarray:
        """A deterministic maximizer of <y, z> - f*(y) over C."""
        return self._subgradient(contiguous_vector(z, self.dim, "z"))

    def conj_grad(self, y) -> np.ndarray:
        """Gradient of f* on the interior of C."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")

    def conj_hess_diag(self, y) -> np.ndarray:
        """Diagonal of the (diagonal) Hessian of f* on the interior of C."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")


def _check_labels(labels) -> np.ndarray:
    lab = as_vector(labels, name="labels")
    if not (np.abs(lab) == 1.0).all():
        raise ValidationError("labels must be +1 or -1")
    return lab


def _check_scale(scale: float) -> float:
    s = float(scale)
    if not (s > 0 and np.isfinite(s)):
        raise ValidationError("loss scale must be positive and finite")
    return s


class _LabelLoss(Loss):
    """Margin loss in label_i z_i, with C = {y : -y_i label_i in [0, s]}."""

    box_polish = True

    def __init__(self, labels, scale: float = 1.0) -> None:
        self.labels = _check_labels(labels)
        self.scale = _check_scale(scale)
        self.dim = self.labels.shape[0]
        lo = np.where(self.labels > 0, -self.scale, 0.0)
        hi = np.where(self.labels > 0, 0.0, self.scale)
        self.dual_domain = Box(lo, hi)


class Hinge(_LabelLoss):
    """f(z) = s * sum_i max(1 - label_i z_i, 0).

    f* is linear on its domain: f*(y) = sum_i y_i label_i on
    {y : y_i label_i in [-s, 0]}.  At the kink 1 - label_i z_i = 0 the
    subgradient oracle returns the margin-active extreme -s*label_i.
    """

    def _value(self, z) -> float:
        return self.scale * float(np.maximum(1.0 - self.labels * z, 0.0).sum())

    def _conj_value(self, y) -> float:
        beta = y * self.labels
        atol = MEMBERSHIP_TOL * (1.0 + self.scale)
        if (beta > atol).any() or (beta < -self.scale - atol).any():
            return float("inf")
        return float(beta.clip(-self.scale, 0.0).sum())

    def _subgradient(self, z) -> np.ndarray:
        margin = 1.0 - self.labels * z
        return np.where(margin >= 0.0, -self.scale * self.labels, 0.0)

    def conj_grad(self, y) -> np.ndarray:
        return self.labels.copy()

    def conj_hess_diag(self, y) -> np.ndarray:
        return np.zeros(self.dim)


class LeastAbsoluteDeviation(Loss):
    """f(z) = s * sum_i |z_i - target_i|.

    f*(y) = <y, target> on the box [-s, s]^n.  At the kink z_i = target_i
    the subgradient oracle returns 0 (interior maximizer).
    """

    box_polish = True

    def __init__(self, targets, scale: float = 1.0) -> None:
        self.targets = contiguous_vector(targets, name="targets")
        self.scale = _check_scale(scale)
        self.dim = self.targets.shape[0]
        s = np.full(self.dim, self.scale)
        self.dual_domain = Box(-s, s)

    def _value(self, z) -> float:
        return self.scale * float(np.add.reduce(np.abs(z - self.targets)))

    def _conj_value(self, y) -> float:
        s = self.scale
        lo, hi = _range(y)
        atol = MEMBERSHIP_TOL * (1.0 + s)
        if hi > s + atol or lo < -(s + atol):
            return float("inf")
        return float(y.clip(-s, s) @ self.targets)

    def _subgradient(self, z) -> np.ndarray:
        return self.scale * np.sign(z - self.targets)

    def conj_grad(self, y) -> np.ndarray:
        return self.targets.copy()

    def conj_hess_diag(self, y) -> np.ndarray:
        return np.zeros(self.dim)


class Logistic(_LabelLoss):
    """f(z) = s * sum_i log(1 + exp(-label_i z_i)).

    The dual domain is open per coordinate (the gradient never reaches
    the extremes in floating point); f* extends continuously to the
    closed box with the convention 0*log(0) = 0, which keeps duality
    gaps finite everywhere on the closure.
    """

    open_domain = True

    # -label and -s*label, kept once an oracle has used them.  Both are
    # exact sign flips, so a product with either has the bits of the
    # product with the negated factor.

    @cached_property
    def _neg_labels(self) -> np.ndarray:
        return -self.labels

    @cached_property
    def _neg_scaled(self) -> np.ndarray:
        return -self.scale * self.labels

    def _value(self, z) -> float:
        return self.scale * float(np.add.reduce(np.logaddexp(0.0, self._neg_labels * z)))

    def _conj_value(self, y) -> float:
        # -y*label/s: dividing by -s*label flips the same signs exactly
        g = y / self._neg_scaled
        lo, hi = _range(g)
        if lo < -MEMBERSHIP_TOL or hi > 1.0 + MEMBERSHIP_TOL:
            return float("inf")
        # the clip would leave an in-range g as it is, signed zeros included
        if lo < 0.0 or hi > 1.0:
            g = g.clip(0.0, 1.0)
        # one _xlogx pass over g and 1 - g, summed as the entrywise pairs;
        # rounding is monotone, so min(1 - g) is 1 - max(g)
        e = _xlogx(np.concatenate((g, 1.0 - g)), min(lo, 1.0 - hi))
        return self.scale * float(np.add.reduce(e[: self.dim] + e[self.dim :]))

    def _subgradient(self, z) -> np.ndarray:
        return self._neg_scaled * _sigmoid(self._neg_labels * z)

    def conj_grad(self, y) -> np.ndarray:
        g = (-y * self.labels / self.scale).clip(1e-12, 1.0 - 1e-12)
        return -self.labels * np.log(g / (1.0 - g))

    def conj_hess_diag(self, y) -> np.ndarray:
        g = (-y * self.labels / self.scale).clip(1e-12, 1.0 - 1e-12)
        return 1.0 / (self.scale * g * (1.0 - g))


class DualNormGauge(Loss):
    """f(z) = omega0 * max(||z||_inf - lam, 0).

    This is the loss whose conjugate penalizes-and-constrains the l1
    norm: f*(y) = lam * ||y||_1 + indicator{||y||_1 <= omega0}.  With
    lam = 0 it is the pure constraint case.  The subgradient oracle
    returns the l1-ball vertex omega0 * sign(z_i*) e_i* for the lowest
    index i* attaining ||z||_inf (zero when ||z||_inf <= lam).
    """

    def __init__(self, dim: int, omega0: float, lam: float = 0.0) -> None:
        self.dim = int(dim)
        self.omega0 = float(omega0)
        self.lam = float(lam)
        if not 0.0 < self.omega0 < np.inf:
            raise ValidationError("omega0 must be positive and finite")
        if not 0.0 <= self.lam < np.inf:
            raise ValidationError("lam must be nonnegative and finite")
        self.dual_domain = L1Ball(self.dim, self.omega0)

    def _value(self, z) -> float:
        return self.omega0 * max(float(np.abs(z).max()) - self.lam, 0.0)

    def _conj_value(self, y) -> float:
        if not self.dual_domain.contains(y, MEMBERSHIP_TOL):
            return float("inf")
        return self.lam * float(np.abs(y).sum())

    def _subgradient(self, z) -> np.ndarray:
        out = np.zeros(self.dim)
        a = np.abs(z)
        m = float(a.max())
        if m > self.lam:
            i = int(a.argmax())  # argmax returns the lowest index on ties
            out[i] = self.omega0 * np.sign(z[i])
        return out
