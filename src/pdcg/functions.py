"""Oracle bundles for strongly convex regularizers h and Lipschitz losses f.

This is the only module that knows the regularizer and loss kinds: the
other modules call the methods below.  A public vector oracle checks
its vectors in the base class and calls the kind's kernel (same name,
leading underscore), which a new kind implements and the recursions
call directly.  A public oracle a kind does not support raises
``ConfigurationError``; a kernel exists only on the kinds that run it.
A bad constructor parameter raises ``ValidationError``, and
``ExperimentConfig.validate`` calls those checks.

Each regularizer exposes h, its conjugate h*, the conjugate gradient
(h*)' and the Bregman divergence D(x1, x2) = h(x1) - h(x2) - <x1 - x2,
h'(x2)>; the recursions carry their own subgradient of h.  Compact
domains add the closed-form Bregman-proximal step ``prox_step`` and the
radius bound ``delta2`` at ``interior_point``, where the compact-domain
recursion starts; an h* that is smooth everywhere adds the kernel
``_conj_hess(z, x)``, its Hessian at z given x = (h*)'(z).

Each loss exposes f, its conjugate f*, and the argmax-subgradient oracle
f'(z) = argmax_{y in C} <y, z> - f*(y) over the compact dual domain C,
which contains 0, the default dual start.  A loss whose C is a box
may add the kernel ``_conj_newton(y)``: the gradient of f* and the
diagonal of its (diagonal) Hessian on the interior of C, from one call.
The reference solver's Newton polish of the dual runs exactly where the
loss has ``_conj_newton`` and h* has ``_conj_hess``; these two kernels
serve that polish only and have no public entry.
Each dual domain C gives both R^2 under an operator A, diam(A^T C)^2
and max_{y in C} ||A^T y||^2, and their mode string through ``r2(op)``.
Separable losses are scaled as f = s * sum_i l_i, whose conjugate is
f*(y) = s * sum_i l_i*(y_i / s) with C scaled accordingly.

Tie-breaking in every argmax is deterministic so that two recursions
calling the same oracle see bit-identical outputs.

The certificate kernels (``_value``, ``_conj_value``, ``_bregman`` of
one x1 and a stack of x2, and ``support``) take a C-contiguous (k, dim)
stack too and return per-row values with the bits of 1-D calls, which
give numpy scalars; the public oracles return Python floats.

The three regularizers and the lad and logistic losses run on every
iteration of the timed benchmark, so each of their quantities takes one
numpy pass: reductions call the ufunc's ``reduce`` directly instead of
the ndarray methods (``sum``, ``max``, ``all``) and their Python
wrappers, and range checks are one min and one max.  The logistic
kernels work in place, in buffers they own, on numpy's vector exp, log
and log1p (``np.logaddexp`` calls the scalar ones).  Hinge and the
gauge are held to that only where it takes no extra code.
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


def _xlogx(v: np.ndarray, v_min: float = 0.0, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise v*log(v) with the convention 0*log(0) = 0.

    Entries at or below 1e-300 (negative ones too) become w = 1, whose
    w*log(w) is already +0.0.  A caller that knows min(v) passes it as
    ``v_min``; above 1e-300 no entry needs the substitution.  A caller
    that owns v and no longer needs it passes ``out``, a buffer of v's
    shape: v is then substituted in place and the result written to out.
    """
    if v_min > 1e-300:
        w = v
    elif out is None:
        w = np.where(v > 1e-300, v, 1.0)
    else:
        w = v
        np.copyto(w, 1.0, where=np.logical_not(v > 1e-300))
    out = np.log(w, out=out)
    out *= w
    return out


def _range(v: np.ndarray) -> tuple:
    """(min, max) of each row of v in two reductions; (inf, -inf) for an empty row, which passes every range check."""
    return np.minimum.reduce(v, axis=-1, initial=np.inf), np.maximum.reduce(v, axis=-1, initial=-np.inf)


def _overall_range(lo, hi) -> tuple:
    """(min, max) over all rows from ``_range``'s per-row values; one vector's are its own."""
    return (lo, hi) if lo.ndim == 0 else (np.minimum.reduce(lo), np.maximum.reduce(hi))


def _inf_outside(inside, value):
    """``value`` where ``inside`` holds and +inf elsewhere, per row of a stack or for one point."""
    return np.where(inside, value, np.inf) if value.ndim else (value if inside else np.inf)


def _dot(a: np.ndarray, b: np.ndarray):
    """<a, b> per row of two stacks (or of a stack and a vector); each row has the bits of the 1-D ``a @ b``."""
    if a.ndim == 1 == b.ndim:  # the same bits, with less overhead for one pair
        return a @ b
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Entrywise 1/(1 + exp(-u)), with exp taken of -|u| only, so it never overflows.

    It rounds to exactly 1.0 for u >= 36.8 and to 0.0 for u <= -745.2.
    """
    e = np.copysign(u, -1.0)  # -|u|
    np.exp(e, out=e)
    out = np.where(u >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


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
    two image tables, in 64-row blocks written to one buffer, scores all
    2^n vertices in O(2^(n/2) p) memory.  The winner is rescored as
    ||u1 + u2||^2, so the value returned is a real vertex image's norm.
    """
    k = matrix.shape[0] // 2
    u1 = _vertex_images(matrix[:k], lower[:k], upper[:k])
    u2 = _vertex_images(matrix[k:], lower[k:], upper[k:])
    sq1 = np.einsum("ij,ij->i", u1, u1)
    sq2 = np.einsum("ij,ij->i", u2, u2)
    best, best_i, best_j = -np.inf, 0, 0
    buf = np.empty((min(64, u1.shape[0]), u2.shape[0]))
    for start in range(0, u1.shape[0], 64):
        s = np.matmul(u1[start : start + 64], u2.T, out=buf[: u1.shape[0] - start])
        s *= 2.0
        s += sq1[start : start + 64, None]
        s += sq2
        flat = int(s.argmax())
        i, j = divmod(flat, s.shape[1])
        if s[i, j] > best:
            best, best_i, best_j = s[i, j], start + i, j
    v = u1[best_i] + u2[best_j]
    return float(v @ v)


def _square(v: float) -> float:
    """``v ** 2`` with its bits, but ``inf`` where Python's ``**`` raises OverflowError.

    ``v * v`` would give ``inf`` too, but it is one ulp off Python's
    ``**`` (C ``pow``) for about 1 float in 1,000, and R^2 keeps its bits.
    """
    try:
        return v**2
    except OverflowError:
        return np.inf


# ---------------------------------------------------------------------------
# Domain descriptors


class RealSpace:
    """All of R^dim (non-compact)."""

    compact = False

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)


class _CompactDomain:
    """A compact domain; ``_inside`` tests each row of a stack."""

    compact = True

    def contains(self, v, tol: float = _TOL) -> bool:
        return bool(np.logical_and.reduce(self._inside(np.asarray(v, dtype=np.float64), tol), axis=None))


class Box(_CompactDomain):
    """Axis-aligned box {v : lower <= v <= upper}."""

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

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def max_abs(self) -> np.ndarray:
        """Per-coordinate max(|lower|, |upper|)."""
        return np.maximum(np.abs(self.lower), np.abs(self.upper))

    def _inside(self, v: np.ndarray, tol: float = _TOL):
        lo, hi = self.lower - tol, self.upper + tol
        return np.logical_and.reduce(v >= lo, axis=-1) & np.logical_and.reduce(v <= hi, axis=-1)

    def clip(self, v) -> np.ndarray:
        # ndarray.clip with array bounds, bit for bit with signed zeros (np.maximum(lower, v) is not)
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def support(self, z):
        """Support function max_{v in box} <v, z>; one value per row of a stack."""
        z = np.asarray(z, dtype=np.float64)
        s = np.add.reduce(np.maximum(self.lower * z, self.upper * z), axis=-1)
        return float(s) if s.ndim == 0 else s

    def r2(self, op: LinearOperator) -> tuple[float, float, str]:
        """Exact over the vertices (where a convex maximum lies) up to
        EXACT_VERTEX_LIMIT coordinates, else (sum_i c_i ||row_i(A)||)^2,
        c the widths for the diameter and max(|lower|, |upper|) for the origin."""
        if self.dim <= EXACT_VERTEX_LIMIT:
            w = self.widths
            diameter = _max_sq_norm_over_vertices(op.matrix, -w, w)
            return diameter, _max_sq_norm_over_vertices(op.matrix, self.lower, self.upper), MODE_EXACT
        diameter = _square(float(np.sum(self.widths * op.row_norms)))
        return diameter, _square(float(np.sum(self.max_abs() * op.row_norms))), MODE_BOUND


class Simplex(_CompactDomain):
    """Probability simplex {v >= 0, sum(v) = 1}."""

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)
        if self.dim < 1:
            raise ValidationError("simplex dimension must be positive")

    def _inside(self, v: np.ndarray, tol: float = _TOL, interior: bool = False):
        low = np.minimum.reduce(v, axis=-1)
        low = low > 0.0 if interior else low >= -tol
        return low & (np.abs(np.add.reduce(v, axis=-1) - 1.0) <= max(tol, tol * self.dim))

    def support(self, z):
        """Support function max_{v in simplex} <v, z> = max_i z_i; one value per row of a stack."""
        s = np.maximum.reduce(np.asarray(z, dtype=np.float64), axis=-1)
        return float(s) if s.ndim == 0 else s


class L1Ball(_CompactDomain):
    """Scaled l1 ball {v : ||v||_1 <= radius}."""

    def __init__(self, dim: int, radius: float) -> None:
        self.dim = int(dim)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValidationError("l1-ball radius must be nonnegative")

    def _inside(self, v: np.ndarray, tol: float = _TOL):
        return np.add.reduce(np.abs(v), axis=-1) <= self.radius + tol * (1.0 + self.radius)

    def r2(self, op: LinearOperator) -> tuple[float, float, str]:
        """Always exact: the extreme points are +-radius e_i."""
        r = self.radius * float(np.max(op.row_norms))
        return _square(2.0 * r), _square(r), MODE_EXACT


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
        return float(self._value(contiguous_vector(x, self.dim, "x")))

    def conj_value(self, z) -> float:
        """h*(z) = max_x <x, z> - h(x)."""
        return float(self._conj_value(contiguous_vector(z, self.dim, "z")))

    def conj_grad(self, z) -> np.ndarray:
        """(h*)'(z); the unique maximizer of <x, z> - h(x), always in K."""
        return self._conj_grad(contiguous_vector(z, self.dim, "z"))

    def bregman(self, x1, x2) -> float:
        """D(x1, x2) = h(x1) - h(x2) - <x1 - x2, h'(x2)> >= 0."""
        return float(self._bregman(contiguous_vector(x1, self.dim, "x1"), contiguous_vector(x2, self.dim, "x2")))

    def interior_point(self) -> np.ndarray:
        """A canonical strictly feasible point of the compact K, where the compact-domain recursion starts."""
        raise ConfigurationError(_COMPACT_ONLY)

    def prox_step(self, x, aty, rho: float) -> np.ndarray:
        """argmin_{x' in K} (1/rho) D(x', x) + <x' - x, aty>, in closed form."""
        if not self.domain.compact:
            raise ConfigurationError(_COMPACT_ONLY)
        return self._prox_step(contiguous_vector(x, self.dim, "x"), contiguous_vector(aty, self.dim, "aty"), rho)

    def delta2(self) -> float:
        """Upper bound delta^2 on D(x, x0) over the compact domain K, x0 the interior point."""
        raise ConfigurationError("delta^2 is defined for compact domains only")


class SquaredL2(Regularizer):
    """h(x) = (mu/2) ||x||^2 on all of R^p."""

    def __init__(self, mu: float, dim: int) -> None:
        self.mu = _check_mu(mu)
        self.dim = int(dim)
        self.domain = RealSpace(self.dim)

    def _value(self, x):
        return 0.5 * self.mu * _dot(x, x)

    def _conj_value(self, z):
        return _dot(z, z) / (2.0 * self.mu)

    def _conj_grad(self, z) -> np.ndarray:
        return z / self.mu

    def _bregman(self, x1, x2):
        d = x1 - x2
        return 0.5 * self.mu * _dot(d, d)

    def _conj_hess(self, z, x) -> np.ndarray:
        return np.eye(self.dim) / self.mu


class SquaredL2Box(Regularizer):
    """h(x) = (mu/2) ||x||^2 + indicator of a box K."""

    def __init__(self, mu: float, lower, upper) -> None:
        self.mu = _check_mu(mu)
        self.domain = Box(lower, upper)
        self.dim = self.domain.dim

    def _value(self, x):
        return _inf_outside(self.domain._inside(x), 0.5 * self.mu * _dot(x, x))

    def _conj_value(self, z):
        # Separable: per coordinate max over [lo, hi] of x*z - (mu/2) x^2,
        # attained at the clamp of z/mu.
        c = self.domain.clip(z / self.mu)
        return _dot(c, z) - 0.5 * self.mu * _dot(c, c)

    def _conj_grad(self, z) -> np.ndarray:
        return self.domain.clip(z / self.mu)

    def _bregman(self, x1, x2):
        d = x1 - x2
        return _inf_outside(self.domain._inside(x1), 0.5 * self.mu * _dot(d, d))

    def interior_point(self) -> np.ndarray:
        return 0.5 * (self.domain.lower + self.domain.upper)

    def _prox_step(self, x, aty, rho: float) -> np.ndarray:
        # clamped gradient step
        return self.domain.clip(x - (rho / self.mu) * aty)

    def delta2(self) -> float:
        """(mu/2) diam(K)^2, whatever the start."""
        return 0.5 * self.mu * float((self.domain.widths**2).sum())


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

    def _value(self, x):
        # _xlogx maps the tiny negatives contains() admits to 0, as it does 0
        return _inf_outside(self.domain._inside(x), np.add.reduce(_xlogx(x), axis=-1))

    def _conj_value(self, z):
        m = np.maximum.reduce(z, axis=-1)
        return m + np.log(np.add.reduce(np.exp(z - m[..., None]), axis=-1))

    def _conj_grad(self, z) -> np.ndarray:
        e = np.exp(z - np.maximum.reduce(z))
        return e / np.add.reduce(e)

    def _bregman(self, x1, x2):
        # Kullback-Leibler divergence on the simplex; every row of x2 must be interior.
        if not np.logical_and.reduce(self.domain._inside(x2, interior=True), axis=None):
            raise DomainError("Bregman divergence requires an interior second argument")
        mask = x1 > 1e-300
        x1m = x1[mask]
        kl = np.add.reduce(x1m * (np.log(x1m) - np.log(x2.compress(mask, axis=-1))), axis=-1)
        return _inf_outside(self.domain._inside(x1), kl)

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def _conj_hess(self, z, x) -> np.ndarray:
        return np.diag(x) - np.outer(x, x)

    def _prox_step(self, x, aty, rho: float) -> np.ndarray:
        # renormalized multiplicative update: the softmax at the mirrored point;
        # a coordinate the softmax underflowed to 0 stays there, its log -inf
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        return self._conj_grad(log_x - rho * aty)

    def delta2(self) -> float:
        """max_x KL(x || x0), attained at a vertex: -log(min_i x0_i) at the barycenter x0."""
        return float(-np.log(self.interior_point().min()))


# ---------------------------------------------------------------------------
# Losses


class Loss:
    """Oracle bundle for a Lipschitz f with compact dual domain C; kernels as for ``Regularizer``."""

    dim: int
    dual_domain: object
    # True when f* is smooth only on the interior of C, so points handed
    # to ``_conj_newton`` must stay strictly inside it (the oracle itself
    # may still round onto the boundary)
    open_domain = False

    def value(self, z) -> float:
        """f(z)."""
        return float(self._value(contiguous_vector(z, self.dim, "z")))

    def conj_value(self, y) -> float:
        """f*(y); +inf outside the closure of C."""
        return float(self._conj_value(contiguous_vector(y, self.dim, "y")))

    def subgradient(self, z) -> np.ndarray:
        """A deterministic maximizer of <y, z> - f*(y) over C."""
        return self._subgradient(contiguous_vector(z, self.dim, "z"))


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

    def _value(self, z):
        return self.scale * np.add.reduce(np.maximum(1.0 - self.labels * z, 0.0), axis=-1)

    def _conj_value(self, y):
        beta = y * self.labels
        atol = MEMBERSHIP_TOL * (1.0 + self.scale)
        outside = np.logical_or.reduce((beta > atol) | (beta < -self.scale - atol), axis=-1)
        return _inf_outside(~outside, np.add.reduce(beta.clip(-self.scale, 0.0), axis=-1))

    def _subgradient(self, z) -> np.ndarray:
        margin = 1.0 - self.labels * z
        return np.where(margin >= 0.0, -self.scale * self.labels, 0.0)

    def _conj_newton(self, y) -> tuple:
        return self.labels.copy(), np.zeros(self.dim)


class LeastAbsoluteDeviation(Loss):
    """f(z) = s * sum_i |z_i - target_i|.

    f*(y) = <y, target> on the box [-s, s]^n.  At the kink z_i = target_i
    the subgradient oracle returns 0 (interior maximizer).
    """

    def __init__(self, targets, scale: float = 1.0) -> None:
        self.targets = contiguous_vector(targets, name="targets")
        self.scale = _check_scale(scale)
        self.dim = self.targets.shape[0]
        s = np.full(self.dim, self.scale)
        self.dual_domain = Box(-s, s)

    def _value(self, z):
        return self.scale * np.add.reduce(np.abs(z - self.targets), axis=-1)

    def _conj_value(self, y):
        s = self.scale
        lo, hi = _range(y)
        atol = MEMBERSHIP_TOL * (1.0 + s)
        outside = (hi > s + atol) | (lo < -(s + atol))
        # the clip would leave an in-range y as it is, signed zeros included
        low, high = _overall_range(lo, hi)
        if low < -s or high > s:
            y = y.clip(-s, s)
        return _inf_outside(~outside, _dot(y, self.targets))

    def _subgradient(self, z) -> np.ndarray:
        return self.scale * np.sign(z - self.targets)

    def _conj_newton(self, y) -> tuple:
        return self.targets.copy(), np.zeros(self.dim)


class Logistic(_LabelLoss):
    """f(z) = s * sum_i log(1 + exp(-label_i z_i)).

    f* is smooth on the open box only, but the gradient rounds onto its
    faces: the sigmoid is exactly 1.0 for label_i z_i <= -36.8 and
    exactly 0.0 for label_i z_i >= 745.2, so the subgradient oracle
    returns boundary points of C.  f* extends continuously to the
    closed box with the convention 0*log(0) = 0, which keeps duality
    gaps finite everywhere on the closure.  The value is
    s * sum_i (max(u_i, 0) + log1p(exp(-|u_i|))), u = -label z, on
    numpy's vector exp and log1p: within 4 ulp per entry of
    ``np.logaddexp(0, u)``, which runs libm's scalar exp and log1p.
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

    def _value(self, z):
        # two buffers; u goes before the reduction, which allocates its own
        u = self._neg_labels * z
        t = np.copysign(u, -1.0)  # -|u|
        np.exp(t, out=t)
        np.log1p(t, out=t)
        t += np.maximum(u, 0.0, out=u)
        del u
        return self.scale * np.add.reduce(t, axis=-1)

    def _conj_value(self, y):
        # -y*label/s: dividing by -s*label flips the same signs exactly
        g = y / self._neg_scaled
        lo, hi = _range(g)
        outside = (lo < -MEMBERSHIP_TOL) | (hi > 1.0 + MEMBERSHIP_TOL)
        # the clip would leave an in-range g as it is, signed zeros included
        low, high = _overall_range(lo, hi)
        if low < 0.0 or high > 1.0:
            np.clip(g, 0.0, 1.0, out=g)
        # rounding is monotone, so min(1 - g) is 1 - max(g); each _xlogx
        # substitutes in its own input and g's buffer takes the second
        h = 1.0 - g
        e = _xlogx(g, low, out=np.empty_like(g))
        e += _xlogx(h, 1.0 - high, out=g)
        return _inf_outside(~outside, self.scale * np.add.reduce(e, axis=-1))

    def _subgradient(self, z) -> np.ndarray:
        out = _sigmoid(self._neg_labels * z)
        out *= self._neg_scaled
        return out

    def _conj_newton(self, y) -> tuple:
        g = (-y * self.labels / self.scale).clip(1e-12, 1.0 - 1e-12)
        return -self.labels * np.log(g / (1.0 - g)), 1.0 / (self.scale * g * (1.0 - g))


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

    def _value(self, z):
        return self.omega0 * np.maximum(np.maximum.reduce(np.abs(z), axis=-1) - self.lam, 0.0)

    def _conj_value(self, y):
        return _inf_outside(self.dual_domain._inside(y, MEMBERSHIP_TOL), self.lam * np.add.reduce(np.abs(y), axis=-1))

    def _subgradient(self, z) -> np.ndarray:
        out = np.zeros(self.dim)
        a = np.abs(z)
        m = float(a.max())
        if m > self.lam:
            i = int(a.argmax())  # argmax returns the lowest index on ties
            out[i] = self.omega0 * np.sign(z[i])
        return out
