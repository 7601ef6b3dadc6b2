"""End-to-end and per-layer metrics computed from a finished ``Runner``.

A metric row is ``(name, value, unit, note)``.  End-to-end rows come from
the untraced rounds; per-layer rows come from the spans of the traced
rounds (times and counts per round) and traced set-ups (per set-up).
"""

from __future__ import annotations

import os
import platform
import resource
import statistics

import numpy as np

import pdcg
from spans import MATVEC_NAMES, SpanTable

STEPPERS = ("algorithms.md_step", "algorithms.gcg_step", "algorithms.ns_md_step")
INIT = ("algorithms.init_state", "algorithms.init_state_compact", "algorithms.resolve_initial_dual")
GEOMETRY = ("certificates.geometry_constants", "certificates.estimate_r2", "certificates.domain_radius_delta2")
GENERATE = ("harness.generate_problem", "harness.generate_problem_with_truth")

med = statistics.median


def peak_rss_mb(include_children: bool) -> float:
    """``ru_maxrss`` in MB; with children, the largest child is added."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def end_to_end(runner, workers: int) -> list:
    rounds = [r for r in runner.rounds if not r.traced]
    n = len(rounds)
    sweep = runner.workload.sweep_base is not None
    rows = [
        ("setup_s", med(runner.setup_s), "s", f"median of {len(runner.setup_s)} set-ups"),
        # Wall time on a shared host drifts between runs (10-20% on a 2-vCPU
        # VM); its ratio to the floor sampled in the same round cancels that.
        ("op_floor_ratio", med(r.op_s / r.floor_us * 1e6 for r in rounds), "x",
         f"op_s over the floor of the same round, median of {n} rounds"),
        ("floor_ratio", med(r.us_per_iter / r.floor_us for r in rounds), "x",
         f"solve_us_per_iter over the floor of the same round, median of {n} rounds"),
        ("peak_rss_mb", peak_rss_mb(sweep), "MB", "self and largest child" if sweep else "self"),
        ("op_s", med(r.op_s for r in rounds), "s", f"one round of the workload's operations, median of {n}"),
        ("solve_s", med(r.solve_s for r in rounds), "s", f"time inside run() per round, median of {n}"),
        ("solve_us_per_iter", med(r.us_per_iter for r in rounds), "us", f"median of {n} rounds"),
        ("floor_us", med(r.floor_us for r in rounds), "us", "bare A@x + A.T@y after each run, iteration-weighted"),
    ]
    for name in ("reference_s", "certify_s", "compare_s"):
        samples = sorted(s for r in rounds for s in getattr(r, name))
        if samples:
            note = f"median of {len(samples)} operations"
            if len(samples) > 10:  # the highest percentile with ten samples beyond it
                k = len(samples) - 11
                note += f"; p{100.0 * (k + 1) / len(samples):.0f} {samples[k]:.4g} s"
            rows.append((name, med(samples), "s", note))
    if sweep:
        cells = len(runner.workload.ops)
        rows.append(("sweep_cells_per_s", med(cells / r.op_s for r in rounds), "cells/s",
                     f"{cells} cells, workers={workers}, median of {n} rounds"))
    failed = len(runner.failures)
    rows.append(("fail_ratio", failed / runner.attempted, "ratio", f"{failed} of {runner.attempted} operations"))
    return rows


def _windows(length: int, windows) -> np.ndarray:
    mask = np.zeros(length, dtype=bool)
    for first, last in windows:
        mask[first:last] = True
    return mask


def per_layer(runner, tracer, workers: int, l3: str) -> list:
    table = SpanTable(tracer)
    traced = [r for r in runner.rounds if r.traced]
    plain = [r for r in runner.rounds if not r.traced]
    rounds, setups = len(traced), len(runner.setup_spans)
    in_rounds = _windows(len(table.name), (r.spans for r in traced))
    in_setups = _windows(len(table.name), runner.setup_spans)
    iters = sum(r.iters for r in traced)
    loop = table.under(table.ids("algorithms.run")) & ~table.under(table.ids(*INIT)) & in_rounds

    def named(*names):
        return np.isin(table.name, table.ids(*names))

    def outermost(*names):
        hit = named(*names)
        inside = table.under(table.ids(*names))
        has_parent = table.parent >= 0
        nested = np.zeros_like(hit)
        nested[has_parent] = inside[table.parent[has_parent]]
        return hit & ~nested

    def methods_of(base, method=None):
        classes = {c.__name__ for c in vars(pdcg.functions).values()
                   if isinstance(c, type) and issubclass(c, base)}
        return np.array([len(parts) == 3 and parts[1] in classes and (method is None or parts[2] == method)
                         for parts in (n.split(".") for n in table.names)], dtype=bool)[table.name]

    def per_iter(mask):
        return int(np.count_nonzero(mask & loop)) / iters

    def per_round_self(mask):
        return float(np.sum(table.self_time[mask & in_rounds])) / rounds

    def per_round_total(mask):
        return float(np.sum(table.duration[mask & in_rounds])) / rounds

    matvec = named(*MATVEC_NAMES)
    matvec_s = float(np.sum(table.self_time[matvec & in_rounds]))
    matvec_bytes = float(np.sum(table.matvec_bytes[matvec & in_rounds]))
    largest_mb = max(p.operator.matrix.nbytes for p in runner.prepared.problems.values()) / 1e6
    as_vector = named("core.as_vector")
    loss = methods_of(pdcg.Loss)
    rows = [
        ("core.matvec_per_iter", per_iter(matvec), "1/iter", "apply + adjoint_apply inside run(), after its set-up"),
        ("core.matvec_s", matvec_s / rounds, "s", "self time per round"),
        ("core.matvec_gbps", matvec_bytes / matvec_s / 1e9, "GB/s",
         f"computed: 8*n*p bytes per matvec over matvec self time; largest matrix {largest_mb:.1f} MB, L3 {l3}"),
        ("core.as_vector_per_iter", per_iter(as_vector), "1/iter", "inside run()"),
        ("core.as_vector_s", per_round_self(as_vector), "s", "self time per round"),
        ("functions.loss_calls_per_iter", per_iter(loss), "1/iter", "Loss methods inside run()"),
        ("functions.reg_calls_per_iter", per_iter(methods_of(pdcg.Regularizer)), "1/iter",
         "Regularizer methods inside run()"),
        ("functions.conj_value_per_iter", per_iter(methods_of(pdcg.Loss, "conj_value")), "1/iter",
         "Loss.conj_value inside run()"),
        ("functions.oracle_s", per_round_self(table.layer == "functions"), "s",
         "self time per round, without as_vector and matvecs"),
        ("algorithms.step_s", per_round_self(named(*STEPPERS)), "s", "md/gcg/ns-md step self time per round"),
        ("algorithms.run_self_s", per_round_self(named("algorithms.run")), "s", "run() self time per round"),
        ("algorithms.iters", int(np.count_nonzero(named(*STEPPERS) & in_rounds)) / rounds, "count",
         "stepper calls per round, reference and lockstep included"),
        ("certificates.geometry_s", float(np.sum(table.duration[outermost(*GEOMETRY) & in_setups])) / setups,
         "s", "per set-up"),
        ("certificates.check_bound_s", per_round_total(named("certificates.check_bound")), "s", "per round"),
        ("certificates.duality_gap_calls", int(np.count_nonzero(named("certificates.duality_gap") & in_rounds))
         / rounds, "count", "per round"),
        ("harness.generate_s", float(np.sum(table.duration[outermost(*GENERATE) & in_setups])) / setups,
         "s", "per set-up"),
        ("harness.serialize_s", per_round_total(named("harness.emit_trace")), "s", "emit_trace per round"),
        ("harness.serialize_bytes", med(r.serialize_bytes for r in traced), "B", "bytes written per round"),
    ]
    # layers only some workloads exercise: printed, not compared
    if runner.workload.compare_iters:
        reference = named("harness.reference_solution")
        ref_gcg = per_round_total(named("algorithms.gcg_step") & table.under(table.ids("harness.reference_solution")))
        rows += [
            ("equivalence.verify_s", per_round_total(named("equivalence.verify_equivalence")), "s", "per round"),
            ("harness.reference_gcg_s", ref_gcg, "s", "warm-start gcg_step time per round"),
            ("harness.reference_other_s", per_round_total(reference) - ref_gcg, "s",
             "rest of reference_solution per round: polish, gaps, geometry"),
        ]
    if runner.workload.sweep_base is not None:
        rows.append(("harness.sweep_parallel_efficiency",
                     med(r.sequential_s / (workers * r.op_s) for r in plain), "ratio",
                     f"in-process time / (workers={workers} x sweep wall), untraced rounds"))
    overhead = med(r.solve_s for r in traced) - med(r.solve_s for r in plain)
    rows.append(("tracing_overhead_s", overhead, "s",
                 f"traced - untraced solve_s ({100.0 * overhead / med(r.solve_s for r in plain):+.1f}%)"))
    for layer in sorted(set(table.layer.tolist())):
        rows.append((f"self_s.{layer}", per_round_self(table.layer == layer), "s", "layer self time per round"))
    return rows


def machine_info(blas_threads: int, workers: int) -> dict:
    """Cores, numpy/BLAS build and L3 size of the measuring machine."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "blas_threads": blas_threads,
        "workers": workers,
        "l3": "unknown",
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache)):
            with open(os.path.join(cache, entry, "level")) as fh:
                if fh.read().strip() == "3":
                    with open(os.path.join(cache, entry, "size")) as fh2:
                        info["l3"] = fh2.read().strip()
    except OSError:
        pass
    return info
