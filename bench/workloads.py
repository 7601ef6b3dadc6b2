"""Workloads, correctness checks and metrics of the pdcg benchmark.

Every workload is a closed loop driven from one process: a *round* runs
each of the workload's operations once, the next round starts when the
previous one has finished, and rounds repeat until the measuring time is
used up.  The operations call the same library functions as the CLI
subcommands (``solve``, ``certify``, ``compare``, ``sweep``); set-up
(``generate_problem`` + ``build_schedule`` + ``geometry_constants``) is
timed on its own and repeated several times.

End-to-end metrics (tracing off), reported by every workload:

``setup_s``            median set-up time, summed over the workload's instances
``op_floor_ratio``     ``op_s`` over the two-matvec floor of the same round
``floor_ratio``        ``solve_us_per_iter`` over the two-matvec floor of the
                       same round
``peak_rss_mb``        ``ru_maxrss`` of the process (sweep: plus its children)

where ``op_s`` is the median wall time of one round of the workload's
operations (solve: the ``run`` calls; certify: every certify and compare
operation; sweep: one ``run_sweep`` call), ``solve_us_per_iter`` is the
time inside ``run()`` over its iterations (sweep: the in-process replay of
its cells), and the floor is a bare ``A @ x`` plus ``A.T @ y`` on the run's
own matrix, timed right after each run and weighted by its iterations.
Raw times are printed too; the floor ratios are the compared figures
because wall time on a shared host drifts between runs and the ratio to a
floor sampled alongside cancels that drift.

Each operation's outputs are checked: the run executes its whole budget,
every certificate value is finite, the trajectory is non-trivial (a
minimum count of distinct gap values), the gap-only bounds hold, every
certify bound passes with a certified reference, the lockstep equivalence
holds, and each serialized trace is bit-identical in every round.  A
failed check counts as a failed operation; it is never raised.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import pdcg
from spans import Tracer

# A gap tolerance no run can reach, so every run executes its whole budget.
NO_TOL = float("-inf")
REFERENCE_TOL = 1e-9
EQUIVALENCE_TOL = 1e-9

# bound id -> (algorithm, schedule, needs a reference): the README's table.
CERTIFY_SETUP = {
    "md-avg-subopt": ("md", "two-over-t-plus-one", True),
    "md-best-subopt": ("md", "two-over-t-plus-one", True),
    "md-distance": ("md", "two-over-t-plus-one", True),
    "gcg-fixed-dual-subopt": ("gcg", "two-over-t-plus-one", True),
    "gcg-fixed-min-gap": ("gcg", "two-over-t-plus-one", False),
    "gcg-linesearch-dual-subopt": ("gcg", "line-search", True),
    "gcg-linesearch-min-gap": ("gcg", "line-search", False),
    "compact-averaged-gap": ("ns-md", "sqrt-decay", False),
}

# The bounds that need no reference, checked on every solve run they apply to.
GAP_ONLY_BOUND = {
    ("gcg", "two-over-t-plus-one"): "gcg-fixed-min-gap",
    ("gcg", "line-search"): "gcg-linesearch-min-gap",
    ("ns-md", "sqrt-decay"): "compact-averaged-gap",
}

MD_GCG_SCHEDULES = (("md", "two-over-t-plus-one"), ("gcg", "line-search"), ("gcg", "one-over-t"))
NS_MD_SCHEDULE = ("ns-md", "sqrt-decay")

WORKLOADS = ("solve-small", "solve-large", "certify", "sweep")

# Instance seeds are SEED_STRIDE * seed + index, so --seed offsets every one.
SEED_STRIDE = 1000

# Set-up is repeated at least MIN_SETUPS times, and until it has taken
# SETUP_SECONDS, but at most MAX_SETUPS times.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 3, 200, 1.5


@dataclass(frozen=True)
class Op:
    """One operation of a workload; ``config`` names instance, algorithm and budget."""

    kind: str  # "solve" | "certify" | "compare" | "sweep-cell"
    config: pdcg.ExperimentConfig
    prop: Optional[str] = None

    @property
    def label(self) -> str:
        c = self.config
        what = self.prop or f"{c.algorithm}/{c.schedule}"
        return f"{self.kind} {c.loss}+{c.regularizer} {c.n}x{c.p} seed={c.seed} {what}"


@dataclass
class Workload:
    name: str
    ops: list
    min_distinct_gaps: int
    compare_iters: int = 0
    sweep_base: Optional[pdcg.ExperimentConfig] = None
    sweep_schedules: tuple = ()
    sweep_seeds: tuple = ()
    probes: list = field(default_factory=list)


def _config(loss, reg, n, p, scale_times_n, seed, **kw) -> pdcg.ExperimentConfig:
    # scale = c/n: the default 1/n lets the optimum sit inside every margin,
    # so trajectories freeze after a step or two and the checks test nothing.
    return pdcg.ExperimentConfig(
        loss=loss, regularizer=reg, n=n, p=p, scale=scale_times_n / n, seed=seed, gap_tol=NO_TOL, **kw
    ).validate()


def _certify_op(loss, reg, n, p, seed, prop, iters) -> Op:
    algo, sched, _ = CERTIFY_SETUP[prop]
    return Op("certify", _config(loss, reg, n, p, 20, seed, algorithm=algo, schedule=sched, max_iters=iters), prop)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload with every instance seed offset by ``seed``.

    ``tiny`` shrinks every size and budget so a test can run the whole
    workload in about a second.
    """
    seeds = iter(SEED_STRIDE * seed + i for i in range(SEED_STRIDE))
    if name in ("solve-small", "solve-large"):
        if name == "solve-small":
            n, p, c, iters = (30, 8, 20, 30) if tiny else (200, 40, 20, 200)
            regs = ("squared_l2", "squared_l2_box", "entropy")
        else:
            # c = 100: at 20/n the logistic line-search run takes rho = 0 from t = 2 on
            n, p, c, iters = (300, 30, 100, 12) if tiny else (20000, 500, 100, 20)
            regs = ("squared_l2",)
        ops = []
        for loss in ("lad", "logistic"):
            for reg in regs:
                inst = next(seeds)
                combos = MD_GCG_SCHEDULES + ((NS_MD_SCHEDULE,) if reg != "squared_l2" else ())
                for algo, sched in combos:
                    cfg = _config(loss, reg, n, p, c, inst, algorithm=algo, schedule=sched, max_iters=iters)
                    ops.append(Op("solve", cfg))
        return Workload(name, ops, min_distinct_gaps=5 if tiny else 10)
    if name == "certify":
        (mid_n, mid_p), (ex_n, ex_p) = ((30, 8), (8, 4)) if tiny else ((200, 40), (20, 10))
        iters, compare_iters = (30, 30) if tiny else (200, 300)
        ops, compare = [], []
        # Mid size (column-norm geometry): one instance per bound id, so the
        # seed-dependent reference cost averages over many instances.
        for loss in ("lad", "logistic"):
            for prop in pdcg.BOUND_IDS:
                reg = "entropy" if prop == "compact-averaged-gap" else "squared_l2"
                ops.append(_certify_op(loss, reg, mid_n, mid_p, next(seeds), prop, iters))
            for _, sched in MD_GCG_SCHEDULES:
                cfg = dataclasses.replace(ops[-len(pdcg.BOUND_IDS)].config, algorithm="gcg",
                                          schedule=sched, max_iters=compare_iters)
                compare.append(Op("compare", cfg))
        # n = 20: exact vertex enumeration, one instance per loss (each costs ~1 s to set up).
        lad, logistic = next(seeds), next(seeds)
        probes = []
        for prop in pdcg.BOUND_IDS:
            if prop != "compact-averaged-gap":
                ops.append(_certify_op("lad", "squared_l2", ex_n, ex_p, lad, prop, iters))
            # gcg-linesearch-min-gap compares row 1, the start gap, with
            # 2R^2/(4 mu); on logistic + entropy at n = 20 the start gap is a
            # median 0.72 times that bound and exceeds it on about 3% of seeds.
            op = _certify_op("logistic", "entropy", ex_n, ex_p, logistic, prop, iters)
            (probes if prop == "gcg-linesearch-min-gap" else ops).append(op)
        # Advertised mixes that fail today, certified outside the timed loop:
        # squared_l2_box has no smooth dual model for the reference, gauge +
        # entropy leaves the reference uncertified, and lad + entropy at n = 20
        # leaves it uncertified on about one seed in four.
        for loss, reg, n, p in (("lad", "squared_l2_box", mid_n, mid_p), ("logistic", "squared_l2_box", mid_n, mid_p),
                                ("gauge", "entropy", mid_n, mid_p), ("lad", "entropy", ex_n, ex_p)):
            inst = next(seeds)
            probes += [_certify_op(loss, reg, n, p, inst, prop, iters) for prop in pdcg.BOUND_IDS]
        return Workload(name, ops + compare, min_distinct_gaps=5 if tiny else 10,
                        compare_iters=compare_iters, probes=probes)
    if name == "sweep":
        n, p, iters, count = (40, 8, 30, 2) if tiny else (500, 50, 300, 8)
        base = _config("lad", "squared_l2", n, p, 20, 0, algorithm="gcg", max_iters=iters, output_format="json")
        schedules = ("two-over-t-plus-one", "line-search")
        cell_seeds = tuple(next(seeds) for _ in range(count))
        ops = [Op("sweep-cell", dataclasses.replace(base, schedule=s, seed=sd).validate())
               for s in schedules for sd in cell_seeds]
        return Workload(name, ops, min_distinct_gaps=5 if tiny else 10, sweep_base=base,
                        sweep_schedules=schedules, sweep_seeds=cell_seeds)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def instance_key(cfg: pdcg.ExperimentConfig) -> tuple:
    return (cfg.loss, cfg.regularizer, cfg.n, cfg.p, cfg.scale, cfg.seed)


@dataclass
class Prepared:
    """Set-up output: problems, schedules and geometry keyed by instance."""

    problems: dict = field(default_factory=dict)
    schedules: dict = field(default_factory=dict)
    geometry: dict = field(default_factory=dict)


def prepare(ops) -> Prepared:
    """Generate every instance, build every schedule and the geometry constants."""
    out = Prepared()
    for op in ops:
        key = instance_key(op.config)
        if key not in out.problems:
            out.problems[key] = pdcg.generate_problem(op.config)
            out.geometry[key] = pdcg.geometry_constants(out.problems[key])
        skey = (key, op.config.schedule)
        if skey not in out.schedules:
            out.schedules[skey] = pdcg.build_schedule(op.config, out.problems[key])
    return out


def run_problems(result, budget: int, min_distinct: int) -> list:
    """Reasons a finished run is unusable as evidence; empty when it is fine."""
    reasons = []
    if result.termination != "budget" or len(result.trace) != budget:
        reasons.append(f"ran {len(result.trace)} of {budget} iterations ({result.termination})")
    values = [(r.primal_value, r.dual_value, r.gap, r.avg_primal_value) for r in result.trace]
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        reasons.append("non-finite certificate values")
    distinct = len({r.gap for r in result.trace})
    if distinct < min_distinct:
        reasons.append(f"trivial trajectory: {distinct} distinct gaps < {min_distinct}")
    return reasons


def floor_pair_us(matrix: np.ndarray, min_seconds: float = 0.003) -> float:
    """Median time of one bare ``A @ x`` plus ``A.T @ y``, in microseconds."""
    n, p = matrix.shape
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(p), rng.standard_normal(n)
    t0 = time.perf_counter()
    matrix @ x
    matrix.T @ y
    reps = max(1, int(min_seconds / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            matrix @ x
            matrix.T @ y
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


@dataclass
class RoundStats:
    traced: bool
    op_s: float = 0.0
    solve_s: float = 0.0
    iters: int = 0
    floor_weighted_us: float = 0.0  # sum over runs of iterations x floor sampled after the run
    sequential_s: float = 0.0  # sweep: in-process time of the same cells
    serialize_s: float = 0.0
    serialize_bytes: int = 0
    spans: tuple = (0, 0)
    # per-operation samples (certify workload)
    reference_s: list = field(default_factory=list)
    certify_s: list = field(default_factory=list)
    compare_s: list = field(default_factory=list)

    @property
    def us_per_iter(self) -> float:
        return self.solve_s / self.iters * 1e6 if self.iters else float("nan")

    @property
    def floor_us(self) -> float:
        return self.floor_weighted_us / self.iters if self.iters else float("nan")


class Runner:
    """Runs one workload's closed loop and keeps its samples and failures."""

    def __init__(self, workload: Workload, workdir: str, workers: int, tracer: Optional[Tracer] = None):
        self.workload = workload
        self.workdir = workdir
        self.workers = workers
        self.tracer = tracer
        self.prepared = Prepared()
        self.setup_s: list = []
        self.setup_spans: list = []
        self.rounds: list = []
        self.attempted = 0
        self.failures: list = []
        self._hashes: dict = {}
        self._compare_guard: dict = {}

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        began = time.perf_counter()
        while len(self.setup_s) < MIN_SETUPS or (
            time.perf_counter() - began < SETUP_SECONDS and len(self.setup_s) < MAX_SETUPS
        ):
            self.prepared = Prepared()  # drop the previous instances first
            first = len(self.tracer) if self.tracer else 0
            with self._tracing(self.tracer is not None):
                t0 = time.perf_counter()
                self.prepared = prepare(self.workload.ops)
                self.setup_s.append(time.perf_counter() - t0)
            self.setup_spans.append((first, len(self.tracer) if self.tracer else 0))

    # -- rounds --------------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Whole rounds until ``seconds`` have passed; traced runs alternate."""
        deadline = time.perf_counter() + seconds
        while True:
            traced = self.tracer is not None and len(self.rounds) % 2 == 1
            self.run_round(traced)
            done = time.perf_counter() >= deadline
            if done and (self.tracer is None or len(self.rounds) >= 2):
                return

    def run_round(self, traced: bool) -> RoundStats:
        rs = RoundStats(traced=traced)
        first = len(self.tracer) if self.tracer else 0
        with self._tracing(traced):
            if self.workload.sweep_base is not None:
                self._sweep_round(rs)
            else:
                for index, op in enumerate(self.workload.ops):
                    self.attempted += 1
                    try:
                        if op.kind == "solve":
                            reasons = self._solve_op(index, op, rs)
                        elif op.kind == "certify":
                            reasons = self._certify_op(index, op, rs)
                        else:
                            reasons = self._compare_op(index, op, rs)
                    except Exception as exc:  # a raising operation is a failed one
                        reasons = [f"raised {type(exc).__name__}: {exc}"]
                    if reasons:
                        self.failures.append(f"{op.label}: {'; '.join(reasons)}")
        rs.spans = (first, len(self.tracer) if self.tracer else 0)
        self.rounds.append(rs)
        return rs

    @contextlib.contextmanager
    def _tracing(self, on: bool):
        if on:
            self.tracer.install()
        try:
            yield
        finally:
            if on:
                self.tracer.uninstall()

    def _lookup(self, op: Op):
        key = instance_key(op.config)
        return (
            self.prepared.problems[key],
            self.prepared.schedules[(key, op.config.schedule)],
            self.prepared.geometry[key],
        )

    def _count_run(self, op: Op, result, seconds: float, rs: RoundStats) -> None:
        iters = len(result.trace)
        rs.solve_s += seconds
        rs.iters += iters
        # the floor is sampled right after each run, on the run's own matrix,
        # so it sees the same machine state as the run
        rs.floor_weighted_us += iters * floor_pair_us(self._lookup(op)[0].operator.matrix)

    def _trace_checks(self, index: int, op: Op, result, geometry, rs: RoundStats, path=None) -> list:
        """Guard, gap-only bound and bit-identical serialization of one run."""
        cfg = op.config
        reasons = run_problems(result, cfg.max_iters, self.workload.min_distinct_gaps)
        bound = GAP_ONLY_BOUND.get((cfg.algorithm, cfg.schedule)) if op.kind != "certify" else None
        if bound is not None:
            report = pdcg.check_bound(result, geometry, cfg.mu, bound)
            if not report.passed:
                reasons.append(f"{bound} failed at t={report.worst_iteration} by {-report.worst_margin:.3e}")
        data = self._serialize(index, op, result, geometry, rs)
        if path is not None:
            with open(path, "rb") as fh:
                if fh.read() != data:
                    reasons.append("sweep trace differs from the in-process run")
        digest = hashlib.sha256(data).hexdigest()
        if self._hashes.setdefault(index, digest) != digest:
            reasons.append("trace differs from the first round's")
        return reasons

    def _serialize(self, index: int, op: Op, result, geometry, rs: RoundStats) -> bytes:
        cfg = op.config
        local = os.path.join(self.workdir, f"trace_{index}.{cfg.output_format}")
        t0 = time.perf_counter()
        if op.kind == "sweep-cell":  # the same call the sweep's workers make
            pdcg.emit_trace(result, cfg.output_format, local, config=cfg)
        else:
            pdcg.emit_trace(result, cfg.output_format, local, config=cfg, geometry=geometry)
        rs.serialize_s += time.perf_counter() - t0
        with open(local, "rb") as fh:
            data = fh.read()
        rs.serialize_bytes += len(data)
        return data

    def _solve_op(self, index: int, op: Op, rs: RoundStats) -> list:
        problem, schedule, geometry = self._lookup(op)
        cfg = op.config
        t0 = time.perf_counter()
        result = pdcg.run(problem, cfg.algorithm, schedule, max_iters=cfg.max_iters, gap_tol=cfg.gap_tol)
        dt = time.perf_counter() - t0
        rs.op_s += dt
        self._count_run(op, result, dt, rs)
        return self._trace_checks(index, op, result, geometry, rs)

    def _certify_op(self, index: int, op: Op, rs: RoundStats) -> list:
        """``pdcg certify``: reference, then ``run(reference=...)``, then ``check_bound``."""
        problem, schedule, geometry = self._lookup(op)
        cfg = op.config
        needs_ref = CERTIFY_SETUP[op.prop][2]
        t0 = time.perf_counter()
        reference = (
            pdcg.reference_solution(problem, tol=REFERENCE_TOL, cap=cfg.reference_budget) if needs_ref else None
        )
        t1 = time.perf_counter()
        result = pdcg.run(problem, cfg.algorithm, schedule, max_iters=cfg.max_iters,
                          gap_tol=cfg.gap_tol, reference=reference)
        t2 = time.perf_counter()
        report = pdcg.check_bound(result, geometry, problem.regularizer.mu, op.prop, reference=reference)
        t3 = time.perf_counter()
        rs.op_s += t3 - t0
        rs.certify_s.append(t3 - t0)
        if needs_ref:
            rs.reference_s.append(t1 - t0)
        self._count_run(op, result, t2 - t1, rs)
        reasons = []
        if reference is not None and not reference.certified:
            reasons.append(f"reference uncertified (gap={reference.certified_gap:.3e})")
        if not report.passed:
            reasons.append(f"bound failed at t={report.worst_iteration} by {-report.worst_margin:.3e}")
        return reasons + self._trace_checks(index, op, result, geometry, rs)

    def _compare_op(self, index: int, op: Op, rs: RoundStats) -> list:
        """``pdcg compare``: md and gcg in lockstep from the matched start."""
        problem, schedule, _ = self._lookup(op)
        t0 = time.perf_counter()
        report = pdcg.verify_equivalence(problem, np.zeros(problem.n), schedule,
                                         self.workload.compare_iters, EQUIVALENCE_TOL)
        dt = time.perf_counter() - t0
        rs.op_s += dt
        rs.compare_s.append(dt)
        reasons = []
        if not report.passed:
            reasons.append(f"md and gcg diverge (x {report.max_x_deviation:.3e}, "
                           f"dual {report.max_dual_identity_deviation:.3e})")
        if index not in self._compare_guard:  # the compared trajectory must move
            guard = pdcg.run(problem, "gcg", schedule, max_iters=self.workload.compare_iters,
                             y0=np.zeros(problem.n), gap_tol=NO_TOL)
            self._compare_guard[index] = run_problems(guard, self.workload.compare_iters,
                                                      self.workload.min_distinct_gaps)
        return reasons + self._compare_guard[index]

    def _sweep_round(self, rs: RoundStats) -> None:
        """One ``pdcg sweep``, then every cell replayed in-process and compared."""
        wl = self.workload
        out_dir = os.path.join(self.workdir, "sweep")
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        try:
            paths = pdcg.run_sweep(wl.sweep_base, wl.sweep_schedules, wl.sweep_seeds, out_dir, workers=self.workers)
        except Exception as exc:  # every cell of a sweep that raised has failed
            self.attempted += len(wl.ops)
            self.failures += [f"{op.label}: sweep raised {type(exc).__name__}: {exc}" for op in wl.ops]
            return
        finally:
            rs.op_s = time.perf_counter() - t0
        for index, (op, path) in enumerate(zip(wl.ops, paths)):
            self.attempted += 1
            cfg = op.config
            try:
                t0 = time.perf_counter()
                problem = pdcg.generate_problem(cfg)
                schedule = pdcg.build_schedule(cfg, problem)
                t1 = time.perf_counter()
                result = pdcg.run(problem, cfg.algorithm, schedule, max_iters=cfg.max_iters, gap_tol=cfg.gap_tol)
                t2 = time.perf_counter()
                self._count_run(op, result, t2 - t1, rs)
                emitted = rs.serialize_s
                reasons = self._trace_checks(index, op, result, self._lookup(op)[2], rs, path=path)
                rs.sequential_s += t2 - t0 + rs.serialize_s - emitted
            except Exception as exc:
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            if reasons:
                self.failures.append(f"{op.label}: {'; '.join(reasons)}")
        if len(paths) != len(wl.ops):
            self.failures.append(f"sweep wrote {len(paths)} of {len(wl.ops)} traces")

    # -- operations that fail today on some or all seeds (certify only) ----

    def run_probes(self) -> list:
        """Certify the known-failing operations; returns (label, reasons) rows."""
        keep = self.prepared
        try:
            self.prepared = prepare(self.workload.probes)
        except Exception as exc:
            return [(op.label, [f"set-up raised {type(exc).__name__}: {exc}"]) for op in self.workload.probes]
        rows = []
        for index, op in enumerate(self.workload.probes):
            try:
                reasons = self._certify_op(-1 - index, op, RoundStats(traced=False))
            except Exception as exc:
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            rows.append((op.label, reasons))
        self.prepared = keep
        return rows
