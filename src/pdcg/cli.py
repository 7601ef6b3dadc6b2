"""Command-line interface.

Subcommands:

* ``solve``   - run one experiment and write its certificate trace.
* ``compare`` - run both recursions in lockstep and report deviations.
* ``certify`` - run the matching algorithm and check a convergence bound.
* ``sweep``   - grid over schedules and seeds, one trace file per cell.

Exit codes: 0 on success with all checks passing, 1 on a failed bound or
equivalence check, 2 on configuration/usage errors.  A flag whose
``dest`` is a config key overrides that key.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .algorithms import ALGORITHMS
from .certificates import BOUND_IDS, BOUND_PAIRING, check_bound, geometry_constants
from .core import ConfigurationError, FeasibilityError, ValidationError
from .equivalence import verify_equivalence
from .harness import SCHEDULE_NAMES, ExperimentConfig, emit_trace, prepare, reference_solution, run_sweep

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcg",
        description="Primal-dual first-order solvers with duality-gap certificates.",
    )
    parser.add_argument("--version", action="version", version=f"pdcg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    ps = sub.add_parser("solve", help="run one experiment and write its trace")
    add_config(ps)
    ps.add_argument("--algorithm", choices=ALGORITHMS, default=None)
    ps.add_argument("--schedule", choices=SCHEDULE_NAMES, default=None)
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--gap-tol", type=float, default=None)
    ps.add_argument("--out", dest="output_path", metavar="OUT", default=None,
                    help="output path (overrides config)")
    ps.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)

    pc = sub.add_parser("compare", help="lockstep mirror descent vs conditional gradient")
    add_config(pc)
    pc.add_argument("--iters", type=int, default=300)
    pc.add_argument("--tol", type=float, default=1e-9)
    pc.add_argument("--schedule", choices=SCHEDULE_NAMES, default=None)

    pv = sub.add_parser("certify", help="run and check one convergence bound")
    add_config(pv)
    pv.add_argument("--prop", required=True, choices=sorted(BOUND_IDS))
    pv.add_argument("--max-iters", type=int, default=None)
    pv.add_argument("--reference-tol", type=float, default=1e-9)
    pv.add_argument("--out", default=None, help="optional JSON report path")

    # no --seed: every cell takes its seed from --seeds, which --seed must
    # not abbreviate either
    pw = sub.add_parser("sweep", help="grid over schedules and seeds", allow_abbrev=False)
    pw.add_argument("--config", required=True, help="JSON experiment config")
    pw.add_argument(
        "--schedules",
        default="two-over-t-plus-one,one-over-t,line-search",
        help="comma-separated schedule names",
    )
    pw.add_argument("--seeds", default="0,1,2", help="comma-separated seeds or start:stop")
    pw.add_argument("--out-dir", required=True)
    pw.add_argument("--workers", type=int, default=None)
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    keys = {f.name for f in dataclasses.fields(config)}
    updates = {key: val for key, val in vars(args).items() if key in keys and val is not None}
    if updates:
        config = dataclasses.replace(config, **updates)
    return config.validate()


def _parse_seeds(spec: str):
    try:
        if ":" in spec:
            start, stop = spec.split(":", 1)
            seeds = list(range(int(start), int(stop)))
        else:
            seeds = [int(s) for s in spec.split(",") if s != ""]
    except ValueError as exc:
        raise ConfigurationError(f"--seeds {spec!r}: expected comma-separated integers or start:stop") from exc
    if not seeds:
        raise ConfigurationError(f"--seeds {spec!r} selects no seeds")
    return seeds


def _cmd_solve(args) -> int:
    config = _apply_overrides(ExperimentConfig.load(args.config), args)
    if config.output_path is None:
        raise ConfigurationError("no output path: set --out or the output_path config key")
    experiment = prepare(config)
    result = experiment.run()
    # only the JSON header records the geometry
    geometry = geometry_constants(experiment.problem) if config.output_format == "json" else None
    emit_trace(result, config.output_format, config.output_path, config=config, geometry=geometry)
    last = result.trace[-1] if result.trace else None
    gap = "n/a" if last is None else format(last.gap, ".6e")
    print(
        f"solve: {config.algorithm}/{config.schedule} iterations={len(result.trace)} "
        f"termination={result.termination} final_gap={gap} -> {config.output_path}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _apply_overrides(ExperimentConfig.load(args.config), args)
    experiment = prepare(config)
    problem = experiment.problem
    report = verify_equivalence(problem, np.zeros(problem.n), experiment.schedule, args.iters, args.tol)
    status = "PASS" if report.passed else "FAIL"
    print(
        f"compare: {status} schedule={config.schedule} iterations={report.iterations} "
        f"max_x_deviation={report.max_x_deviation:.3e} "
        f"max_dual_identity_deviation={report.max_dual_identity_deviation:.3e} "
        f"tolerance={report.tolerance:.1e}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_certify(args) -> int:
    pairing = BOUND_PAIRING[args.prop]
    config = dataclasses.replace(
        ExperimentConfig.load(args.config), algorithm=pairing.algorithm, schedule=pairing.schedule
    )
    config = _apply_overrides(config, args)
    experiment = prepare(config)
    problem = experiment.problem
    reference = None
    if pairing.needs_reference:
        reference = reference_solution(
            problem, tol=args.reference_tol, cap=config.reference_budget
        )
        if not reference.certified:
            print(
                f"certify: reference uncertified (gap={reference.certified_gap:.3e}); "
                "its achieved gap is folded into the bound",
                file=sys.stderr,
            )
    result = experiment.run(reference)
    report = check_bound(
        result, geometry_constants(problem, args.prop), problem.regularizer.mu, args.prop, reference=reference
    )
    status = "PASS" if report.passed else "FAIL"
    print(
        f"certify: {status} {args.prop} iterations={report.iterations} "
        f"worst_margin={report.worst_margin:.3e} at t={report.worst_iteration}"
    )
    if args.out is not None:
        payload = {
            "bound_id": report.bound_id,
            "passed": report.passed,
            "iterations": report.iterations,
            "worst_iteration": report.worst_iteration,
            # an empty trace has worst_margin inf, which JSON cannot hold
            "worst_margin": report.worst_margin if np.isfinite(report.worst_margin) else None,
            "margins": report.margins.tolist(),
            "bounds": report.bounds.tolist(),
            "observed": report.observed.tolist(),
            "config": config.to_dict(),
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_sweep(args) -> int:
    config = _apply_overrides(ExperimentConfig.load(args.config), args)
    schedules = [s for s in args.schedules.split(",") if s != ""]
    if not schedules:
        raise ConfigurationError(f"--schedules {args.schedules!r} selects no schedules")
    seeds = _parse_seeds(args.seeds)
    paths = run_sweep(config, schedules, seeds, args.out_dir, workers=args.workers)
    print(f"sweep: wrote {len(paths)} traces to {args.out_dir}")
    return EXIT_OK


def cli_main(argv: Optional[list] = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    commands = {"solve": _cmd_solve, "compare": _cmd_compare, "certify": _cmd_certify, "sweep": _cmd_sweep}
    try:
        return commands[args.command](args)
    except (ConfigurationError, ValidationError, FeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    main()
