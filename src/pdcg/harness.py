"""Problem generation, reference solving, and experiment orchestration.

Everything is synthetic and seeded: a config plus a seed determines the
problem instance, the run, and the serialized trace byte-for-byte.
Traces are written as CSV (fixed column set, 17 significant digits) or
JSON (same record fields plus a header with the config echo, geometry
constants and termination reason).
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import (
    ALGORITHMS,
    FixedOneOverT,
    FixedTwoOverTPlusOne,
    LineSearch,
    RunResult,
    SqrtDecay,
    StepSchedule,
    _check_rho,
    _gcg_step,
    _values,
    init_state,
    resolve_initial_dual,
    run,
    step_size,
)
from .certificates import GeometryConstants, _dual_objective
from .core import ConfigurationError, LinearOperator, ProblemInstance, clamp_gap
from .functions import (
    DualNormGauge,
    Hinge,
    LeastAbsoluteDeviation,
    Logistic,
    NegativeEntropySimplex,
    SquaredL2,
    SquaredL2Box,
)

LOSS_KINDS = ("hinge", "lad", "logistic", "gauge")
REGULARIZER_KINDS = ("squared_l2", "squared_l2_box", "entropy")
SCHEDULE_NAMES = ("two-over-t-plus-one", "one-over-t", "line-search", "sqrt-decay")

# trace column -> TraceRecord field, in CSV and JSON order
TRACE_COLUMNS = {
    "t": "t",
    "rho": "rho",
    "primal": "primal_value",
    "dual": "dual_value",
    "gap": "gap",
    "avg_primal": "avg_primal_value",
    "dual_subopt": "dual_suboptimality",
    "bregman_ref": "bregman_to_ref",
}
CSV_HEADER = ",".join(TRACE_COLUMNS)

# JSON values accepted for each declared config field type
_CONFIG_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real}


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    """Flat, JSON-serializable description of one experiment."""

    loss: str = "hinge"
    regularizer: str = "squared_l2"
    n: int = 100
    p: int = 20
    mu: float = 1.0
    scale: Optional[float] = None  # None -> 1/n
    gauge_omega0: float = 1.0
    gauge_lambda: float = 0.0
    box_lower: float = 0.0
    box_upper: float = 1.0
    seed: int = 0
    algorithm: str = "gcg"
    schedule: str = "two-over-t-plus-one"
    max_iters: int = 1000
    gap_tol: float = 0.0
    output_format: str = "csv"
    output_path: Optional[str] = None
    reference_budget: int = 100000

    def validate(self) -> "ExperimentConfig":
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.regularizer not in REGULARIZER_KINDS:
            raise ConfigurationError(
                f"regularizer must be one of {REGULARIZER_KINDS}, got {self.regularizer!r}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}"
            )
        if self.schedule not in SCHEDULE_NAMES:
            raise ConfigurationError(
                f"schedule must be one of {SCHEDULE_NAMES}, got {self.schedule!r}"
            )
        if self.n < 1 or self.p < 1:
            raise ConfigurationError("n and p must be positive")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.max_iters < 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if math.isnan(self.gap_tol):
            raise ConfigurationError("gap_tol must not be NaN")
        if self.reference_budget < 0:
            raise ConfigurationError("reference_budget must be nonnegative")
        if self.output_format not in ("csv", "json"):
            raise ConfigurationError("output_format must be 'csv' or 'json'")
        if self.regularizer == "entropy" and self.mu != 1.0:
            raise ConfigurationError("the entropy regularizer has modulus 1; set mu = 1")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            declared = fields[key]  # "str", "int", "float" or "Optional[...]" of one
            if val is None and declared.startswith("Optional["):
                continue
            allowed = _CONFIG_TYPES[declared.removeprefix("Optional[").rstrip("]")]
            if isinstance(val, bool) or not isinstance(val, allowed):
                raise ConfigurationError(f"config key {key!r} must be {declared}, got {val!r}")
        return cls(**data).validate()

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"invalid config JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError("config file must contain a JSON object")
        return cls.from_dict(data)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Problem generation


def generate_problem_with_truth(config: ExperimentConfig):
    """Seeded synthetic instance plus generator metadata.

    Classification losses use rows drawn from two unit-variance Gaussian
    clusters at +-0.5/sqrt(p) with matching labels; the least-absolute-
    deviation loss uses Gaussian rows, a planted primal point and sparse
    outliers.  Features are scaled by 1/sqrt(n) so column norms are O(1).
    The metadata dict records what was planted (labels, x_true, outlier
    indices and mass) for oracle-style tests.
    """
    config.validate()
    n, p = config.n, config.p
    rng = np.random.default_rng(config.seed)
    scale = config.scale if config.scale is not None else 1.0 / n
    info: dict = {"scale": scale}

    if config.regularizer == "entropy":
        regularizer = NegativeEntropySimplex(p)
    elif config.regularizer == "squared_l2_box":
        if not config.box_lower < config.box_upper:
            raise ConfigurationError("box_lower must be strictly below box_upper")
        regularizer = SquaredL2Box(
            config.mu, np.full(p, config.box_lower), np.full(p, config.box_upper)
        )
    else:
        regularizer = SquaredL2(config.mu, p)

    if config.loss in ("hinge", "logistic"):
        labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        center = 0.5 / np.sqrt(p)
        a = (rng.standard_normal((n, p)) + labels[:, None] * center) / np.sqrt(n)
        loss = Hinge(labels, scale) if config.loss == "hinge" else Logistic(labels, scale)
        info["labels"] = labels
    elif config.loss == "lad":
        a = rng.standard_normal((n, p)) / np.sqrt(n)
        if config.regularizer == "entropy":
            x_true = rng.dirichlet(np.ones(p))
        elif config.regularizer == "squared_l2_box":
            x_true = rng.uniform(config.box_lower, config.box_upper, size=p)
        else:
            x_true = rng.standard_normal(p)
        k = max(1, n // 10)
        outlier_idx = rng.choice(n, size=k, replace=False)
        amplitudes = 5.0 * rng.standard_normal(k)
        targets = a @ x_true
        targets[outlier_idx] += amplitudes
        loss = LeastAbsoluteDeviation(targets, scale)
        info.update(
            x_true=x_true,
            outlier_indices=np.sort(outlier_idx),
            outlier_mass=scale * float(np.sum(np.abs(amplitudes))),
        )
    else:  # gauge
        a = rng.standard_normal((n, p)) / np.sqrt(n)
        loss = DualNormGauge(n, config.gauge_omega0, config.gauge_lambda)

    return ProblemInstance(LinearOperator(a), regularizer, loss), info


def generate_problem(config: ExperimentConfig) -> ProblemInstance:
    """Deterministic synthetic instance for a config (see _with_truth)."""
    return generate_problem_with_truth(config)[0]


# ---------------------------------------------------------------------------
# Reference solving


@dataclass
class ReferenceSolution:
    """A primal-dual pair whose duality gap certifies its own quality.

    ``certified_gap`` is the gap achieved at (x_star, y_star); the pair
    is ``certified`` when that gap meets the requested tolerance.  The
    primal and dual objective values at the pair bracket the optimum.
    """

    x_star: np.ndarray
    y_star: np.ndarray
    certified_gap: float
    iterations: int
    certified: bool
    primal_value: float
    dual_value: float


def _polish_box_dual(problem: ProblemInstance, y: np.ndarray, tol: float, max_iter: int):
    """Active-set projected Newton ascent on the dual over a box C.

    The conditional-gradient warm start gets within zigzag range of the
    optimum; this stage identifies the active face and solves the
    remaining smooth concave program to gap <= tol.  Used only as a
    reference engine; the returned pair is certified by its gap, not by
    this procedure.
    """
    op, reg, loss = problem.operator, problem.regularizer, problem.loss
    box = loss.dual_domain
    lo, hi = box.lower, box.upper
    widths = np.maximum(box.widths, 1e-300)
    y = np.clip(y, lo, hi)
    if loss.open_domain:
        margin = 1e-12 * widths
        y = np.clip(y, lo + margin, hi - margin)
    # the first pass evaluates the start pair
    best_y, best_gap = y, float("inf")
    used = 0
    for k in range(max_iter):
        used = k + 1
        state = init_state(problem, y)
        primal, dual = _values(problem, state)
        gap = clamp_gap(primal - dual)
        if gap < best_gap:
            best_gap, best_y = gap, state.y
        if gap <= tol:
            break
        grad = state.ax - loss.conj_grad(y)
        at_lo = (y - lo) <= 1e-12 * widths
        at_hi = (hi - y) <= 1e-12 * widths
        free = ~((at_lo & (grad <= 0.0)) | (at_hi & (grad >= 0.0)))
        direction = np.zeros_like(y)
        if np.any(free):
            hess = -(op.matrix @ reg.conj_hess(state.carried_h_sub, state.x) @ op.matrix.T)
            hess[np.diag_indices_from(hess)] -= loss.conj_hess_diag(y)
            sub = -hess[np.ix_(free, free)]
            sub[np.diag_indices_from(sub)] += 1e-12 * (1.0 + np.trace(sub) / sub.shape[0])
            try:
                d = np.linalg.solve(sub, grad[free])
            except np.linalg.LinAlgError:
                d = np.linalg.lstsq(sub, grad[free], rcond=None)[0]
            direction[free] = d

        def _try(step_dir):
            alpha = 1.0
            for _ in range(60):
                cand = np.clip(y + alpha * step_dir, lo, hi)
                if loss.open_domain:
                    cand = np.clip(cand, lo + 1e-15 * widths, hi - 1e-15 * widths)
                if _dual_objective(problem, cand) > dual:
                    return cand
                alpha *= 0.5
            return None

        nxt = _try(direction) if np.any(free) else None
        if nxt is None:
            nxt = _try(grad)
        if nxt is None:
            break
        y = nxt
    return best_y, best_gap, used


def reference_solution(problem: ProblemInstance, tol: float = 1e-9, cap: int = 10**6) -> ReferenceSolution:
    """High-accuracy primal-dual pair, certified by its duality gap.

    Warm-starts with the line-search conditional gradient, then (for a
    loss that declares ``box_polish``) switches to an active-set Newton
    polish of the dual over its box; the best pair seen is kept, and
    x_star is always recomputed as (h*)'(-A^T y_star).  If the gap
    tolerance is not reached within the budget, the result is returned
    marked uncertified rather than raising.  A ``tol`` that is not >= 0
    (NaN included) can never be met and a negative ``cap`` is no budget,
    so both raise ConfigurationError.
    """
    if not tol >= 0:
        raise ConfigurationError(f"reference tolerance must be >= 0, got {tol!r}")
    if cap < 0:
        raise ConfigurationError(f"reference budget must be >= 0, got {cap!r}")
    schedule = LineSearch(mu=problem.regularizer.mu, r2=problem.r2("diameter")[0])
    state = init_state(problem, resolve_initial_dual(problem))
    # the first warm-start pass evaluates the start pair
    best_y, best_gap = state.y, float("inf")
    iters = 0
    warm = min(cap, 500)
    for t in range(1, warm + 1):
        primal, dual = _values(problem, state)
        gap = clamp_gap(primal - dual)
        if gap < best_gap:
            best_gap, best_y = gap, state.y.copy()
        if gap <= tol:
            break
        state = _gcg_step(problem, state, _check_rho(step_size(schedule, t, current_gap=gap)))
        iters = t
    if best_gap > tol and iters < cap and problem.loss.box_polish:
        y_pol, gap_pol, used = _polish_box_dual(
            problem, best_y, tol, max_iter=min(200, cap - iters)
        )
        iters += used
        if gap_pol < best_gap:
            best_gap, best_y = gap_pol, y_pol
    final = init_state(problem, best_y)
    primal, dual = _values(problem, final)
    certified_gap = clamp_gap(primal - dual)
    return ReferenceSolution(
        x_star=final.x,
        y_star=best_y,
        certified_gap=certified_gap,
        iterations=iters,
        certified=bool(certified_gap <= tol),
        primal_value=primal,
        dual_value=dual,
    )


# ---------------------------------------------------------------------------
# Schedules and experiment assembly


def build_schedule(config: ExperimentConfig, problem: ProblemInstance) -> StepSchedule:
    """Schedule object for a config; R^2 and delta^2 are the instance's."""
    name = config.schedule
    if name == "two-over-t-plus-one":
        return FixedTwoOverTPlusOne()
    if name == "one-over-t":
        return FixedOneOverT()
    if name == "line-search":
        return LineSearch(mu=problem.regularizer.mu, r2=problem.r2("diameter")[0])
    if name == "sqrt-decay":
        radius = float(np.sqrt(problem.r2("origin")[0]))
        return SqrtDecay(delta=float(np.sqrt(problem.delta2)), radius=radius)
    raise ConfigurationError(f"unknown schedule {name!r}")


@dataclass(frozen=True)
class Experiment:
    """A config with its generated instance and schedule, ready to run."""

    config: ExperimentConfig
    problem: ProblemInstance
    schedule: StepSchedule

    def run(self, reference=None) -> RunResult:
        """Run the config's algorithm within its iteration budget and gap tolerance."""
        cfg = self.config
        return run(self.problem, cfg.algorithm, self.schedule, cfg.max_iters, cfg.gap_tol, reference=reference)


def prepare(config: ExperimentConfig) -> Experiment:
    """Validate the config, generate its instance and build its schedule (every command starts here)."""
    problem = generate_problem(config)
    return Experiment(config, problem, build_schedule(config, problem))


# ---------------------------------------------------------------------------
# Trace serialization


def _fmt(v: Optional[float]) -> str:
    return "" if v is None else format(float(v), ".17g")


def trace_csv(result: RunResult) -> str:
    """CSV text for a trace: fixed header plus one row per iteration."""
    # 17 significant digits print every iteration index t < 1e17 as an integer
    lines = [CSV_HEADER] + [
        ",".join(_fmt(getattr(rec, field)) for field in TRACE_COLUMNS.values()) for rec in result.trace
    ]
    return "\n".join(lines) + "\n"


def trace_json_obj(
    result: RunResult,
    config: Optional[ExperimentConfig] = None,
    geometry: Optional[GeometryConstants] = None,
) -> dict:
    """JSON object mirroring the CSV fields plus a header."""
    header = {
        "algorithm": result.algorithm,
        "schedule": result.schedule.name,
        "termination": result.termination,
        "iterations": len(result.trace),
        "config": config.to_dict() if config is not None else None,
        "geometry": None if geometry is None else dataclasses.asdict(geometry),
    }
    records = [{col: getattr(rec, field) for col, field in TRACE_COLUMNS.items()} for rec in result.trace]
    return {"header": header, "records": records}


def emit_trace(
    result: RunResult,
    output_format: str,
    path: str,
    config: Optional[ExperimentConfig] = None,
    geometry: Optional[GeometryConstants] = None,
) -> None:
    """Write a trace to ``path`` as CSV or JSON."""
    if output_format == "csv":
        text = trace_csv(result)
    elif output_format == "json":
        text = json.dumps(trace_json_obj(result, config, geometry), indent=1) + "\n"
    else:
        raise ConfigurationError(f"unknown output format {output_format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Sweeps


def sweep_cells(config: ExperimentConfig, schedules, seeds, out_dir: str):
    """One (config, output path) pair per grid cell; two cells may not share a path."""
    cells = {}
    for sched in schedules:
        for seed in seeds:
            cfg = dataclasses.replace(config, schedule=sched, seed=int(seed))
            cfg.validate()
            path = os.path.join(out_dir, f"trace_{sched}_{seed}.{cfg.output_format}")
            if path in cells:
                raise ConfigurationError(
                    f"schedule {sched!r} and seed {seed} appear twice; each cell needs its own trace file"
                )
            cells[path] = cfg
    return [(cfg, path) for path, cfg in cells.items()]


def _run_cell(payload) -> str:
    cfg_dict, path = payload
    cfg = ExperimentConfig.from_dict(cfg_dict)
    result = prepare(cfg).run()
    emit_trace(result, cfg.output_format, path, config=cfg)
    return path


def run_sweep(config: ExperimentConfig, schedules, seeds, out_dir: str, workers: Optional[int] = None):
    """Run the grid; cells are independent, so order never affects bytes.

    ``workers`` defaults to the machine's cores and must be at least 1.
    Every argument is checked before ``out_dir`` is created: one cell
    per schedule runs with a zero budget, which makes every check
    ``solve`` makes and takes no step.
    """
    workers = (os.cpu_count() or 1) if workers is None else workers
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    cells = sweep_cells(config, schedules, seeds, out_dir)
    for cfg in {cfg.schedule: cfg for cfg, _ in cells}.values():
        prepare(dataclasses.replace(cfg, max_iters=0)).run()
    os.makedirs(out_dir, exist_ok=True)
    payloads = [(cfg.to_dict(), path) for cfg, path in cells]
    if workers == 1 or len(payloads) <= 1:
        return [_run_cell(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
        return list(pool.map(_run_cell, payloads))
