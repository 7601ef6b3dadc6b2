"""pdcg benchmark: solve, certify and sweep end to end, timed per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: solve-small, solve-large, certify, sweep (see ``workloads.py``
and ``BENCHMARK.json``).  ``--trace 0`` measures the end-to-end metrics
with tracing off; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics.  The report goes to standard output, one
metric per line with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report
(machine, every metric, every failure) is also written to
``bench/out/BENCH_<workload>_seed<N>[_trace].json``; a traced run also
writes its spans there.

The package is imported from the checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# One BLAS thread per process, so sweep workers x BLAS threads <= nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SWEEP_WORKERS = 2


def format_row(row) -> str:
    name, value, unit, note = row
    return f"{name:<36} {value:>16.8g} {unit:<8} {note}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: str = OUT_DIR,
                 tiny: bool = False) -> dict:
    """Run one workload; returns the report rows and the result object."""
    import metrics
    import workloads
    from spans import Tracer

    workers = max(1, min(SWEEP_WORKERS, len(os.sched_getaffinity(0))))
    machine = metrics.machine_info(BLAS_THREADS, workers if name == "sweep" else 1)
    suffix = "_trace" if trace else ""
    workdir = os.path.join(out_dir, f"work_{name}_seed{seed}{suffix}")
    os.makedirs(workdir, exist_ok=True)
    tracer = Tracer() if trace else None
    runner = workloads.Runner(workloads.make_workload(name, seed, tiny=tiny), workdir, workers, tracer)
    try:
        runner.setup()
        runner.measure(seconds)
        probes = runner.run_probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(SPEC, encoding="utf-8") as fh:
        gated = [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]
    if trace:
        rows = metrics.per_layer(runner, tracer, workers, machine["l3"])
        tracer.save(os.path.join(out_dir, f"spans_{name}_seed{seed}.npz"))
    else:
        rows = metrics.end_to_end(runner, workers)
    if probes:
        failed = sum(1 for _, reasons in probes if reasons)
        rows.append(("advertised_fail_ratio", failed / len(probes), "ratio",
                     f"{failed} of {len(probes)} known-failing certify operations outside the loop"))
    by_name = {row[0]: row for row in rows}
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m: {"value": by_name[m][1], "unit": by_name[m][2]} for m in gated},
    }
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "machine": machine,
              "rows": rows, "failures": runner.failures,
              "setups_s": runner.setup_s,
              "rounds": [{"traced": r.traced, "op_s": r.op_s, "solve_s": r.solve_s, "iters": r.iters,
                          "floor_us": r.floor_us} for r in runner.rounds],
              "probes": [{"op": label, "reasons": reasons} for label, reasons in probes],
              "result": result}
    with open(os.path.join(out_dir, f"BENCH_{name}_seed{seed}{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return report


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"pdcg benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={int(report['trace'])}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']} "
          f"blas_threads={m['blas_threads']} workers={m['workers']} l3={m['l3']}")
    for row in report["rows"]:
        print(format_row(row))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for probe in report["probes"]:
        status = "FAIL " + "; ".join(probe["reasons"]) if probe["reasons"] else "ok"
        print(f"known-failing {probe['op']}: {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("solve-small", "solve-large", "certify", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import pdcg
    except ImportError as exc:
        print(f"error: cannot import pdcg from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pdcg.__file__).startswith(src + os.sep):
        print(f"error: pdcg imported from {pdcg.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
