"""Dense vector/operator arithmetic and the validated problem container.

Everything downstream works on 1-D float64 numpy arrays and a dense
linear operator A of shape (n, p).  The primal variable x lives in R^p,
the dual variable y in R^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .functions import Loss, Regularizer

# Negative duality gaps larger than this are treated as oracle bugs;
# smaller ones are round-off and clamped to zero.
GAP_CLAMP = 1e-10

_FLOAT64 = np.dtype(np.float64)


class DimensionMismatch(ValueError):
    """Operand length disagrees with the operator shape."""


class ValidationError(ValueError):
    """Problem instance violates a structural requirement."""


class DomainError(ValueError):
    """Oracle evaluated at a point outside its admissible domain."""


class FeasibilityError(ValueError):
    """Supplied point lies outside the required feasible set."""


class ConfigurationError(ValueError):
    """Incompatible algorithm, schedule, or problem configuration."""


class GapInconsistencyError(RuntimeError):
    """Duality gap negative beyond round-off; indicates an oracle bug."""


def as_vector(x, length: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally checking length.

    The finiteness scan is one sum: any NaN or infinite entry makes the
    sum non-finite, so a finite sum proves every entry finite.  Only a
    non-finite sum, which finite entries near the float64 limit can also
    produce (numpy then warns of the overflow), runs the entrywise scan.
    """
    v = x if type(x) is np.ndarray and x.dtype is _FLOAT64 else np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if length is not None and v.shape[0] != length:
        raise DimensionMismatch(f"{name} has length {v.shape[0]}, expected {length}")
    if not math.isfinite(np.add.reduce(v)) and not np.isfinite(v).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return v


def contiguous_vector(x, length: Optional[int] = None, name: str = "vector") -> np.ndarray:
    """``as_vector``, copied to C order when the caller's vector is strided.

    OpenBLAS sums a strided dot product or matvec in another order; the
    oracles and matvecs take their vectors through here, so equal values
    give equal bits whatever the caller's memory layout.
    """
    return np.ascontiguousarray(as_vector(x, length, name))


def clamp_gap(gap: float) -> float:
    """Zero out round-off negativity of a duality gap; reject real negativity."""
    return max(check_gap_floor(gap), 0.0)


def check_gap_floor(gap: float) -> float:
    """Pass a raw gap through unchanged, rejecting real negativity.

    Trace rows keep the exact primal-dual difference (so the row stays
    consistent to the bit); only values below the round-off floor, and
    NaN, signal an oracle bug.
    """
    if not gap >= -GAP_CLAMP:
        raise GapInconsistencyError(f"duality gap {gap} < -{GAP_CLAMP}; oracle inconsistency")
    return float(gap)


class LinearOperator:
    """Dense matrix A of shape (n, p) with exact transpose action.

    ``apply`` computes A x, ``adjoint_apply`` computes A^T y; both are
    deterministic and the pair satisfies <A x, y> = <x, A^T y> to
    round-off.  The transposed view and the row norms (for the norm
    bound on R^2 over a large dual box) are kept with the matrix.
    """

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionMismatch(f"operator matrix must be 2-D, got shape {m.shape}")
        if m.shape[0] < 1 or m.shape[1] < 1:
            raise ValidationError("operator matrix must be non-empty")
        if not np.all(np.isfinite(m)):
            raise ValidationError("operator matrix contains non-finite entries")
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self._transpose = m.T
        self.n, self.p = m.shape
        self.row_norms = np.linalg.norm(m, axis=1)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ contiguous_vector(x, self.p, "x")

    def adjoint_apply(self, y) -> np.ndarray:
        return self._transpose @ contiguous_vector(y, self.n, "y")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearOperator(n={self.n}, p={self.p})"


@dataclass(frozen=True)
class ProblemInstance:
    """The triple (A, h, f) defining min_x h(x) + f(A x).

    Valid by construction: h acts on R^p, f and its dual domain C on R^n,
    and h is mu-strongly convex with mu > 0, so x = (h*)'(-A^T y) is
    defined for every algorithm.  R^2 and delta^2 are computed on first
    use and kept on the instance.
    """

    operator: LinearOperator
    regularizer: "Regularizer"
    loss: "Loss"
    _r2: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        op, reg, loss = self.operator, self.regularizer, self.loss
        if reg.dim != op.p:
            raise ValidationError(f"regularizer dimension {reg.dim} does not match operator columns {op.p}")
        if loss.dim != op.n:
            raise ValidationError(f"loss dimension {loss.dim} does not match operator rows {op.n}")
        if loss.dual_domain.dim != op.n:
            raise ValidationError(
                f"dual domain dimension {loss.dual_domain.dim} does not match operator rows {op.n}"
            )
        if not reg.mu > 0.0:
            raise ValidationError(f"regularizer modulus mu={reg.mu} must be positive")

    @property
    def n(self) -> int:
        return self.operator.n

    @property
    def p(self) -> int:
        return self.operator.p

    def r2(self, which: str) -> tuple[float, str]:
        """``(R^2, mode)`` of the dual domain under the operator, computed at most once per variant.

        ``which='diameter'`` gives max_{y,y' in C} ||A^T (y - y')||^2;
        ``which='origin'`` gives max_{y in C} ||A^T y||^2.
        """
        if which not in self._r2:
            if which not in ("diameter", "origin"):
                raise ConfigurationError(f"which must be 'diameter' or 'origin', got {which!r}")
            self._r2[which] = self.loss.dual_domain.r2(self.operator, which)
        return self._r2[which]

    @cached_property
    def delta2(self) -> float:
        """delta^2 at the interior point of a compact primal domain; raises otherwise."""
        return self.regularizer.delta2()


class TraceRecord(NamedTuple):
    """Per-iteration certificate row.

    ``primal_value``, ``dual_value`` and ``gap`` are evaluated at the
    pre-step pair (x_{t-1}, y_{t-1}), so the gap consumed by the
    line-search rule appears verbatim in the row.  ``avg_primal_value``
    is the objective at the schedule's average of x_0..x_{t-1} (weight u
    on x_{u-1} under 2/(t+1); uniform otherwise and for ns-md).
    ``dual_suboptimality`` and ``bregman_to_ref`` describe the post-step
    pair (x_t, y_t) against a reference solution and are filled only
    when a reference is supplied.  ``avg_gap`` pairs that average with
    y_t under 2/(t+1), with the uniform average of the oracle outputs
    under 1/t and for ns-md, and is None under line search.

    A record is a tuple: it equals the plain tuple of its values, JSON
    writes it as a list, and ``_asdict``/``_replace``/``_fields`` stand
    in for the ``dataclasses`` helpers, which raise ``TypeError`` on it.
    """

    t: int
    rho: float
    primal_value: float
    dual_value: float
    gap: float
    avg_primal_value: float
    dual_suboptimality: Optional[float] = None
    bregman_to_ref: Optional[float] = None
    avg_gap: Optional[float] = None
