"""Oracle bundles for strongly convex regularizers h and Lipschitz losses f.

This is the only module that knows the regularizer and loss kinds: the
other modules call the methods below, and a new kind implements them.
An oracle a kind does not support raises ``ConfigurationError``.

Each regularizer exposes h, its conjugate h*, the conjugate gradient
(h*)', a deterministic subgradient selection, and the Bregman divergence
D(x1, x2) = h(x1) - h(x2) - <x1 - x2, h'(x2)>.  Compact domains add the
closed-form Bregman-proximal step ``prox_step``, the start check
``check_start`` and the radius bound ``delta2``; a smooth h* adds its
Hessian ``conj_hess`` for the reference solver's Newton polish.

Each loss exposes f, its conjugate f*, and the argmax-subgradient oracle
f'(z) = argmax_{y in C} <y, z> - f*(y) over the compact dual domain C,
plus ``conj_grad``/``conj_hess_diag`` of f* inside a box C for the polish.
Separable losses are scaled as f = s * sum_i l_i, whose conjugate is
f*(y) = s * sum_i l_i*(y_i / s) with C scaled accordingly.

Tie-breaking in every argmax is deterministic so that two recursions
calling the same oracle see bit-identical outputs.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, DomainError, FeasibilityError, ValidationError, as_vector

# Points this far outside a dual domain are treated as members and the
# conjugate is evaluated at the clamped point; further out it is +inf.
MEMBERSHIP_TOL = 1e-9

_COMPACT_ONLY = "compact-domain recursion supports entropy and box regularizers only"


def _xlogx(v: np.ndarray) -> np.ndarray:
    """Entrywise v*log(v) with the convention 0*log(0) = 0."""
    out = np.zeros_like(v)
    mask = v > 1e-300
    out[mask] = v[mask] * np.log(v[mask])
    return out


def _sigmoid(u: np.ndarray) -> np.ndarray:
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ---------------------------------------------------------------------------
# Domain descriptors


class RealSpace:
    """All of R^dim (non-compact)."""

    compact = False

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)

    def contains(self, v, tol: float = 1e-12) -> bool:
        return True


class Box:
    """Axis-aligned box {v : lower <= v <= upper}."""

    compact = True

    def __init__(self, lower, upper) -> None:
        lo = np.asarray(lower, dtype=np.float64)
        hi = np.asarray(upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box bounds must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValidationError("box lower bounds exceed upper bounds")
        self.lower = lo
        self.upper = hi
        self.dim = lo.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def diameter2(self) -> float:
        return float(np.sum(self.widths**2))

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def max_abs(self) -> np.ndarray:
        """Per-coordinate max(|lower|, |upper|)."""
        return np.maximum(np.abs(self.lower), np.abs(self.upper))

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.all(v >= self.lower - tol) and np.all(v <= self.upper + tol))

    def clip(self, v) -> np.ndarray:
        return np.clip(v, self.lower, self.upper)

    def support(self, z) -> float:
        """Support function max_{v in box} <v, z>."""
        z = np.asarray(z, dtype=np.float64)
        return float(np.sum(np.maximum(self.lower * z, self.upper * z)))


class Simplex:
    """Probability simplex {v >= 0, sum(v) = 1}."""

    compact = True

    def __init__(self, dim: int) -> None:
        self.dim = int(dim)
        if self.dim < 1:
            raise ValidationError("simplex dimension must be positive")

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.min(v) >= -tol and abs(float(np.sum(v)) - 1.0) <= max(tol, tol * self.dim))

    def interior_contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.min(v) > 0.0 and abs(float(np.sum(v)) - 1.0) <= max(tol, tol * self.dim))

    def support(self, z) -> float:
        """Support function max_{v in simplex} <v, z> = max_i z_i."""
        return float(np.max(np.asarray(z, dtype=np.float64)))


class L1Ball:
    """Scaled l1 ball {v : ||v||_1 <= radius}."""

    compact = True

    def __init__(self, dim: int, radius: float) -> None:
        self.dim = int(dim)
        self.radius = float(radius)
        if self.radius < 0:
            raise ValidationError("l1-ball radius must be nonnegative")

    def contains(self, v, tol: float = 1e-12) -> bool:
        v = np.asarray(v, dtype=np.float64)
        return bool(np.sum(np.abs(v)) <= self.radius + tol * (1.0 + self.radius))


# ---------------------------------------------------------------------------
# Regularizers


class Regularizer:
    """Oracle bundle for a mu-strongly convex h with domain K."""

    mu: float
    dim: int

    def _require_mu(self) -> None:
        if self.mu <= 0:
            raise ValidationError("conjugate oracle undefined for mu = 0")

    def value(self, x) -> float:
        """h(x); +inf outside K."""
        raise NotImplementedError

    def conj_value(self, z) -> float:
        """h*(z) = max_x <x, z> - h(x)."""
        raise NotImplementedError

    def conj_grad(self, z) -> np.ndarray:
        """(h*)'(z); the unique maximizer of <x, z> - h(x), always in K."""
        raise NotImplementedError

    def subgradient(self, x) -> np.ndarray:
        """A member of the subdifferential of h at x."""
        raise NotImplementedError

    def bregman(self, x1, x2) -> float:
        """D(x1, x2) = h(x1) - h(x2) - <x1 - x2, h'(x2)> >= 0."""
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        """A canonical strictly feasible point of K."""
        raise NotImplementedError

    def conj_hess(self, z, x) -> np.ndarray:
        """Hessian of h* at z, given x = (h*)'(z)."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")

    def check_start(self, x0, error=FeasibilityError) -> None:
        """Raise ``error`` unless the compact-domain recursion may start at x0."""
        raise ConfigurationError(_COMPACT_ONLY)

    def prox_step(self, x, aty, rho: float) -> np.ndarray:
        """argmin_{x' in K} (1/rho) D(x', x) + <x' - x, aty>, in closed form."""
        raise ConfigurationError(_COMPACT_ONLY)

    def delta2(self, x0) -> float:
        """Upper bound delta^2 on D(x, x0) over the compact domain K."""
        raise ConfigurationError("delta^2 is defined for compact domains only")


class SquaredL2(Regularizer):
    """h(x) = (mu/2) ||x||^2 on all of R^p."""

    def __init__(self, mu: float, dim: int) -> None:
        if mu < 0:
            raise ValidationError("modulus mu must be nonnegative")
        self.mu = float(mu)
        self.dim = int(dim)
        self.domain = RealSpace(self.dim)

    def value(self, x) -> float:
        x = as_vector(x, self.dim, "x")
        return 0.5 * self.mu * float(x @ x)

    def conj_value(self, z) -> float:
        self._require_mu()
        z = as_vector(z, self.dim, "z")
        return float(z @ z) / (2.0 * self.mu)

    def conj_grad(self, z) -> np.ndarray:
        self._require_mu()
        z = as_vector(z, self.dim, "z")
        return z / self.mu

    def subgradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim, "x")
        return self.mu * x

    def bregman(self, x1, x2) -> float:
        x1 = as_vector(x1, self.dim, "x1")
        x2 = as_vector(x2, self.dim, "x2")
        d = x1 - x2
        return 0.5 * self.mu * float(d @ d)

    def interior_point(self) -> np.ndarray:
        return np.zeros(self.dim)

    def conj_hess(self, z, x) -> np.ndarray:
        return np.eye(self.dim) / self.mu


class SquaredL2Box(Regularizer):
    """h(x) = (mu/2) ||x||^2 + indicator of a box K.

    The subgradient selection at x is mu*x (valid on the interior; on the
    boundary the recursions carry their own subgradient instead of
    calling this oracle).
    """

    def __init__(self, mu: float, lower, upper) -> None:
        if mu < 0:
            raise ValidationError("modulus mu must be nonnegative")
        self.mu = float(mu)
        self.domain = Box(lower, upper)
        self.dim = self.domain.dim

    def value(self, x) -> float:
        x = as_vector(x, self.dim, "x")
        if not self.domain.contains(x):
            return float("inf")
        return 0.5 * self.mu * float(x @ x)

    def conj_value(self, z) -> float:
        # Separable: per coordinate max over [lo, hi] of x*z - (mu/2) x^2,
        # attained at the clamp of z/mu.
        self._require_mu()
        z = as_vector(z, self.dim, "z")
        c = self.domain.clip(z / self.mu)
        return float(c @ z - 0.5 * self.mu * (c @ c))

    def conj_grad(self, z) -> np.ndarray:
        self._require_mu()
        z = as_vector(z, self.dim, "z")
        return self.domain.clip(z / self.mu)

    def subgradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim, "x")
        if not self.domain.contains(x):
            raise DomainError("subgradient requested outside the box domain")
        return self.mu * x

    def bregman(self, x1, x2) -> float:
        x1 = as_vector(x1, self.dim, "x1")
        x2 = as_vector(x2, self.dim, "x2")
        if not self.domain.contains(x1):
            return float("inf")
        d = x1 - x2
        return 0.5 * self.mu * float(d @ d)

    def interior_point(self) -> np.ndarray:
        return self.domain.center()

    def check_start(self, x0, error=FeasibilityError) -> None:
        if not self.domain.contains(x0):
            raise error("x0 must lie in the box domain")

    def prox_step(self, x, aty, rho: float) -> np.ndarray:
        # clamped gradient step
        return self.domain.clip(x - (rho / self.mu) * aty)

    def delta2(self, x0) -> float:
        """(mu/2) diam(K)^2, independent of x0."""
        self.check_start(as_vector(x0, self.dim, "x0"), ConfigurationError)
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

    def value(self, x) -> float:
        x = as_vector(x, self.dim, "x")
        if not self.domain.contains(x):
            return float("inf")
        return float(np.sum(_xlogx(np.maximum(x, 0.0))))

    def conj_value(self, z) -> float:
        z = as_vector(z, self.dim, "z")
        m = float(np.max(z))
        return m + float(np.log(np.sum(np.exp(z - m))))

    def conj_grad(self, z) -> np.ndarray:
        z = as_vector(z, self.dim, "z")
        e = np.exp(z - np.max(z))
        return e / np.sum(e)

    def subgradient(self, x) -> np.ndarray:
        x = as_vector(x, self.dim, "x")
        if not self.domain.interior_contains(x):
            raise DomainError("entropy subgradient undefined on the simplex boundary")
        return np.log(x) + 1.0

    def bregman(self, x1, x2) -> float:
        # Kullback-Leibler divergence on the simplex; x2 must be interior.
        x1 = as_vector(x1, self.dim, "x1")
        x2 = as_vector(x2, self.dim, "x2")
        if not self.domain.interior_contains(x2):
            raise DomainError("Bregman divergence requires an interior second argument")
        if not self.domain.contains(x1):
            return float("inf")
        x1c = np.maximum(x1, 0.0)
        mask = x1c > 1e-300
        return float(np.sum(x1c[mask] * (np.log(x1c[mask]) - np.log(x2[mask]))))

    def interior_point(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)

    def conj_hess(self, z, x) -> np.ndarray:
        return np.diag(x) - np.outer(x, x)

    def check_start(self, x0, error=FeasibilityError) -> None:
        if not self.domain.interior_contains(x0):
            raise error("x0 must lie in the interior of the simplex")

    def prox_step(self, x, aty, rho: float) -> np.ndarray:
        # renormalized multiplicative update
        logits = np.log(x) - rho * aty
        e = np.exp(logits - np.max(logits))
        return e / np.sum(e)

    def delta2(self, x0) -> float:
        """max_x KL(x || x0), attained at a vertex: -log(min_i x0_i)."""
        x0 = as_vector(x0, self.dim, "x0")
        self.check_start(x0, ConfigurationError)
        return float(-np.log(np.min(x0)))


# ---------------------------------------------------------------------------
# Losses


class Loss:
    """Oracle bundle for a Lipschitz f with compact dual domain C."""

    dim: int
    dual_domain: object
    # True when the oracle never reaches the boundary of C, so points
    # handed to ``conj_grad`` must stay strictly inside it
    open_domain = False

    def value(self, z) -> float:
        """f(z)."""
        raise NotImplementedError

    def conj_value(self, y) -> float:
        """f*(y); +inf outside the closure of C."""
        raise NotImplementedError

    def subgradient(self, z) -> np.ndarray:
        """A deterministic maximizer of <y, z> - f*(y) over C."""
        raise NotImplementedError

    def conj_grad(self, y) -> np.ndarray:
        """Gradient of f* on the interior of C."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")

    def conj_hess_diag(self, y) -> np.ndarray:
        """Diagonal of the (diagonal) Hessian of f* on the interior of C."""
        raise ConfigurationError(f"no smooth dual model for {type(self).__name__}")

    @property
    def lipschitz_bound(self) -> float:
        """B = sup_{y in C} ||y||, a Lipschitz constant of f."""
        dom = self.dual_domain
        if isinstance(dom, Box):
            return float(np.sqrt(np.sum(dom.max_abs() ** 2)))
        if isinstance(dom, L1Ball):
            return dom.radius
        raise NotImplementedError


def _check_labels(labels) -> np.ndarray:
    lab = as_vector(labels, name="labels")
    if not np.all(np.abs(lab) == 1.0):
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

    def value(self, z) -> float:
        z = as_vector(z, self.dim, "z")
        return self.scale * float(np.sum(np.maximum(1.0 - self.labels * z, 0.0)))

    def conj_value(self, y) -> float:
        y = as_vector(y, self.dim, "y")
        beta = y * self.labels
        atol = MEMBERSHIP_TOL * (1.0 + self.scale)
        if np.any(beta > atol) or np.any(beta < -self.scale - atol):
            return float("inf")
        return float(np.sum(np.clip(beta, -self.scale, 0.0)))

    def subgradient(self, z) -> np.ndarray:
        z = as_vector(z, self.dim, "z")
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

    def __init__(self, targets, scale: float = 1.0) -> None:
        self.targets = as_vector(targets, name="targets")
        self.scale = _check_scale(scale)
        self.dim = self.targets.shape[0]
        s = np.full(self.dim, self.scale)
        self.dual_domain = Box(-s, s)

    def value(self, z) -> float:
        z = as_vector(z, self.dim, "z")
        return self.scale * float(np.sum(np.abs(z - self.targets)))

    def conj_value(self, y) -> float:
        y = as_vector(y, self.dim, "y")
        atol = MEMBERSHIP_TOL * (1.0 + self.scale)
        if np.any(np.abs(y) > self.scale + atol):
            return float("inf")
        return float(np.clip(y, -self.scale, self.scale) @ self.targets)

    def subgradient(self, z) -> np.ndarray:
        z = as_vector(z, self.dim, "z")
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

    def value(self, z) -> float:
        z = as_vector(z, self.dim, "z")
        return self.scale * float(np.sum(np.logaddexp(0.0, -self.labels * z)))

    def conj_value(self, y) -> float:
        y = as_vector(y, self.dim, "y")
        gamma = -y * self.labels / self.scale
        if np.any(gamma < -MEMBERSHIP_TOL) or np.any(gamma > 1.0 + MEMBERSHIP_TOL):
            return float("inf")
        g = np.clip(gamma, 0.0, 1.0)
        return self.scale * float(np.sum(_xlogx(g) + _xlogx(1.0 - g)))

    def subgradient(self, z) -> np.ndarray:
        z = as_vector(z, self.dim, "z")
        return -self.scale * self.labels * _sigmoid(-self.labels * z)

    def conj_grad(self, y) -> np.ndarray:
        g = np.clip(-y * self.labels / self.scale, 1e-12, 1.0 - 1e-12)
        return -self.labels * np.log(g / (1.0 - g))

    def conj_hess_diag(self, y) -> np.ndarray:
        g = np.clip(-y * self.labels / self.scale, 1e-12, 1.0 - 1e-12)
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
        if self.omega0 <= 0:
            raise ValidationError("omega0 must be positive")
        if self.lam < 0:
            raise ValidationError("lam must be nonnegative")
        self.dual_domain = L1Ball(self.dim, self.omega0)

    def value(self, z) -> float:
        z = as_vector(z, self.dim, "z")
        return self.omega0 * max(float(np.max(np.abs(z))) - self.lam, 0.0)

    def conj_value(self, y) -> float:
        y = as_vector(y, self.dim, "y")
        if not self.dual_domain.contains(y, MEMBERSHIP_TOL):
            return float("inf")
        return self.lam * float(np.sum(np.abs(y)))

    def subgradient(self, z) -> np.ndarray:
        z = as_vector(z, self.dim, "z")
        out = np.zeros(self.dim)
        a = np.abs(z)
        m = float(np.max(a))
        if m > self.lam:
            i = int(np.argmax(a))  # argmax returns the lowest index on ties
            out[i] = self.omega0 * np.sign(z[i])
        return out
