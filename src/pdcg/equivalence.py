"""Executable verification that the two recursions coincide.

Started from the matched initialization x_0 = (h*)'(-A^T y_0), mirror
descent and the generalized conditional gradient produce identical
primal trajectories, and the carried subgradient of the former equals
-A^T y_t of the latter at every step.  The verification runs both
recursions in lockstep (one stepper call each per iteration) so the
first divergent iteration is caught and memory stays constant.

For non-smooth h the identity holds under the carried-subgradient rule
only; classical projected gradient descent, which re-derives the
subgradient from the projected point, is a different algorithm and is
deliberately not implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import (
    GCG,
    MD,
    StepSchedule,
    _check_rho,
    _gcg_step,
    _md_step,
    _values,
    init_state,
    step_size,
)
from .core import ConfigurationError, ProblemInstance, clamp_gap


@dataclass(frozen=True)
class EquivalenceReport:
    """Maximal deviations between the two lockstep trajectories."""

    iterations: int
    max_x_deviation: float
    max_dual_identity_deviation: float
    tolerance: float
    passed: bool


def verify_equivalence(
    problem: ProblemInstance,
    y0,
    schedule: StepSchedule,
    iterations: int,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Run both recursions in lockstep from a matched start and compare.

    Records max_t ||x_t^MD - x_t^GCG||_inf and the dual identity
    deviation max_t ||carried^MD_t + A^T y_t^GCG||_inf.  With a
    line-search schedule the gap is computed once per iteration from
    the conditional-gradient pair and fed to both steppers, which
    removes round-off asymmetry between the two runs.  Zero iterations
    pass vacuously; a negative count or tolerance, or a schedule that
    ``run`` rejects for either recursion, is a usage error.
    """
    if iterations < 0 or not tolerance >= 0:
        raise ConfigurationError("iterations and tolerance must be nonnegative")
    if MD not in schedule.recursions or GCG not in schedule.recursions:
        raise ConfigurationError(schedule.pairing_error)
    # a step never writes to the state it reads, so both start from one
    md_state = cg_state = init_state(problem, y0)
    max_x = 0.0
    max_dual = 0.0
    for t in range(1, iterations + 1):
        if schedule.needs_gap:
            primal, dual = _values(problem, cg_state)
            rho = step_size(schedule, t, current_gap=clamp_gap(primal - dual))
        else:
            rho = step_size(schedule, t)
        rho = _check_rho(rho)
        md_state = _md_step(problem, md_state, rho)
        cg_state = _gcg_step(problem, cg_state, rho)
        max_x = max(max_x, float(np.max(np.abs(md_state.x - cg_state.x))))
        # gcg carries -A^T y_t computed by an actual matvec, so this is
        # the identity carried^MD = -A^T y^GCG checked to round-off
        max_dual = max(
            max_dual,
            float(np.max(np.abs(md_state.carried_h_sub - cg_state.carried_h_sub))),
        )
    return EquivalenceReport(
        iterations=iterations,
        max_x_deviation=max_x,
        max_dual_identity_deviation=max_dual,
        tolerance=float(tolerance),
        passed=bool(max_x <= tolerance and max_dual <= tolerance),
    )
