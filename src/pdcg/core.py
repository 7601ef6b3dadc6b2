"""Dense vector/operator arithmetic and the validated problem container.

Everything downstream works on 1-D float64 numpy arrays and a dense
linear operator A of shape (n, p).  The primal variable x lives in R^p,
the dual variable y in R^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .functions import Loss, Regularizer

# A duality gap P - D below -GAP_CLAMP * max(1, |P|, |D|) is treated as an
# oracle bug; a smaller negative one is round-off and clamped to zero.
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


def clamp_gap(primal: float, dual: float) -> float:
    """The gap primal - dual with round-off negativity zeroed out; real negativity raises."""
    return max(check_gap_floor(primal, dual), 0.0)


def check_gap_floor(primal: float, dual: float) -> float:
    """The raw gap primal - dual, unchanged, rejecting real negativity.

    Trace rows keep the exact primal-dual difference (so the row stays
    consistent to the bit); only values below the round-off floor, and
    NaN, signal an oracle bug.  A gap at or above -GAP_CLAMP, the least
    floor, skips the scaling; under an infinite floor a -inf gap is NaN.
    """
    gap = primal - dual
    floor = GAP_CLAMP if gap >= -GAP_CLAMP else GAP_CLAMP * max(1.0, abs(primal), abs(dual))
    if not gap + floor >= 0.0:
        raise GapInconsistencyError(f"duality gap {gap} < -{floor}; oracle inconsistency")
    return float(gap)


def check_gap_floors(gaps: np.ndarray, primal: np.ndarray, dual: np.ndarray) -> list:
    """``check_gap_floor`` of each of ``gaps``, the caller's primal - dual, at once; the first bad one raises."""
    floor = GAP_CLAMP * np.maximum(np.maximum(np.abs(primal), np.abs(dual)), 1.0)
    ok = gaps + floor >= 0.0
    if not np.logical_and.reduce(ok):
        i = np.argmin(ok)
        raise GapInconsistencyError(f"duality gap {float(gaps[i])} < -{float(floor[i])}; oracle inconsistency")
    return gaps.tolist()


def _checked_matrix(matrix) -> np.ndarray:
    """``matrix`` as float64 (no copy when it already is), refused unless 2-D, non-empty and finite."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"operator matrix must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError("operator matrix must be non-empty")
    if not np.all(np.isfinite(m)):
        raise ValidationError("operator matrix contains non-finite entries")
    return m


class LinearOperator:
    """Dense matrix A of shape (n, p) with exact transpose action.

    ``apply`` computes A x, ``adjoint_apply`` computes A^T y; both are
    deterministic and the pair satisfies <A x, y> = <x, A^T y> to
    round-off.  The transposed view and the row norms (for the norm
    bound on R^2 over a large dual box) are kept with the matrix.

    ``LinearOperator(matrix)`` keeps a read-only copy of the caller's
    matrix, which the caller may go on writing.  The generator's fresh
    matrix, which nothing else refers to, is adopted instead: ``_adopt``
    runs the same checks and marks it read-only, with no copy.  Beyond
    the operator's matrix (and the caller's), a build holds only the
    finiteness scan's bools: the row norms are taken over row blocks of
    2^14 floats, each row with the bits of the whole-matrix call.
    """

    def __init__(self, matrix) -> None:
        self._own(_checked_matrix(matrix).copy())

    @classmethod
    def _adopt(cls, matrix: np.ndarray) -> "LinearOperator":
        """The operator on the generator's fresh, owning, C-ordered float64 ``matrix``, made read-only, not copied."""
        assert matrix.dtype == _FLOAT64 and matrix.flags.c_contiguous and matrix.flags.owndata
        op = cls.__new__(cls)
        op._own(_checked_matrix(matrix))
        return op

    def _own(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        self.matrix = m
        self._transpose = m.T
        self.n, self.p = m.shape
        self.row_norms = np.empty(self.n)
        k = max(1, 2**14 // self.p)  # rows per block
        for i in range(0, self.n, k):
            self.row_norms[i:i + k] = np.linalg.norm(m[i:i + k], axis=1)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ contiguous_vector(x, self.p, "x")

    def adjoint_apply(self, y) -> np.ndarray:
        return self._transpose @ contiguous_vector(y, self.n, "y")


@dataclass(frozen=True)
class GeometryConstants:
    """R^2 in its two variants plus the Bregman radius of a compact domain.

    ``r2_primal`` is diam(A^T C)^2 (used by the strongly convex bounds);
    ``r2_origin`` is max_{y in C} ||A^T y||^2 (used by the compact-domain
    bound).  ``mode`` records whether the values are exact vertex maxima
    or norm upper bounds; the bounds remain valid with any upper bound.
    ``delta2`` is None off a compact primal domain.  A constant that is not
    a finite float raises OverflowError, as a bound read off it passes any trace.
    """

    r2_primal: float
    r2_origin: float
    mode: str
    delta2: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("r2_primal", "r2_origin", "delta2"):
            value = getattr(self, name)
            if not (isinstance(value, float) and math.isfinite(value)) and (name != "delta2" or value is not None):
                raise OverflowError(f"geometry constant {name} must be a finite float, got {value!r}")


@dataclass(frozen=True)
class ProblemInstance:
    """The triple (A, h, f) defining min_x h(x) + f(A x).

    Valid by construction: h acts on R^p, f and its dual domain C on R^n,
    and h is mu-strongly convex with mu > 0, so x = (h*)'(-A^T y) is
    defined for every algorithm.  Its geometry is computed on first use
    and kept on the instance.
    """

    operator: LinearOperator
    regularizer: "Regularizer"
    loss: "Loss"

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

    @cached_property
    def geometry(self) -> GeometryConstants:
        """Both R^2 from one call of the dual domain, and delta^2 at the interior start when compact."""
        r2_primal, r2_origin, mode = self.loss.dual_domain.r2(self.operator)
        reg = self.regularizer
        return GeometryConstants(r2_primal, r2_origin, mode, reg.delta2() if reg.domain.compact else None)


class TraceRecord(NamedTuple):
    """Per-iteration certificate row.

    ``primal_value``, ``dual_value`` and ``gap`` are evaluated at the
    pre-step pair (x_{t-1}, y_{t-1}), so the gap consumed by the
    line-search rule appears verbatim in the row.  ``avg_primal_value``
    is the objective at the schedule's average of x_0..x_{t-1} (weight u
    on x_{u-1} when its ``avg_dual`` is "y"; uniform otherwise and for ns-md).
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
