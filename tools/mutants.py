"""Mutation check: does the test suite notice a broken bound, verdict or entry check?

Usage, from anywhere::

    python3 tools/mutants.py [--workdir DIR]

Each mutation names one file under ``src/``, a text that must occur in
it exactly once, its replacement, and the test files that should catch
it.  For each mutation the tool copies ``src/`` and ``tests/`` to
``--workdir/NAME``, applies that one replacement there and runs the
listed test files with pytest (``-x``, so a killed mutant stops at its
first failure).  A mutant is ``killed`` when a test fails and
``survived`` when all pass.  Before any mutant runs, every mutation's
text is checked to occur exactly once and the unmutated copy must pass
the union of the listed tests; either failing is an error (exit 2).
The exit code is 1 if any mutant survived, else 0.  The repository
itself is never written.  Not part of the test suite: the whole set
takes a few minutes; ``tests/test_tools.py`` checks only that every
text still occurs once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CERTIFICATES = "src/pdcg/certificates.py"
ALGORITHMS = "src/pdcg/algorithms.py"
CORE = "src/pdcg/core.py"
FUNCTIONS = "src/pdcg/functions.py"
HARNESS = "src/pdcg/harness.py"
EQUIVALENCE = "src/pdcg/equivalence.py"
CLI = "src/pdcg/cli.py"
BOUND_TESTS = ("tests/test_certificates.py", "tests/test_cli.py", "tests/test_acceptance.py")
STEP_TESTS = ("tests/test_algorithms.py",)


class Mutation(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple = BOUND_TESTS


def _pairing_row(bound_id: str, args: str) -> str:
    key = "COMPACT_BOUND" if bound_id == "compact-averaged-gap" else f'"{bound_id}"'
    return f"    {key}: BoundPairing({args}),\n"


def _shifted(args: str) -> str:
    """BoundPairing arguments as written, with ``shift`` (the fourth) one larger."""
    parts = args.split(", ")
    parts[3] = repr(float(parts[3]) + 1.0)
    return ", ".join(parts)


# (bound id, BoundPairing arguments as written, the same with coef halved)
_PAIRING = (
    ("md-avg-subopt", 'MD, _TWO, 1.0, 1.0, "avg_primal_value"', 'MD, _TWO, 0.5, 1.0, "avg_primal_value"'),
    ("md-best-subopt", 'MD, _TWO, 1.0, 1.0, "primal_value", running_min=True',
     'MD, _TWO, 0.5, 1.0, "primal_value", running_min=True'),
    ("md-distance", 'MD, _TWO, 1.0, 1.0, "bregman_to_ref"', 'MD, _TWO, 0.5, 1.0, "bregman_to_ref"'),
    ("gcg-fixed-dual-subopt", 'GCG, _TWO, 2.0, 1.0, "dual_suboptimality"',
     'GCG, _TWO, 1.0, 1.0, "dual_suboptimality"'),
    ("gcg-fixed-min-gap", 'GCG, _TWO, 8.0, 1.0, "gap", running_min=True',
     'GCG, _TWO, 4.0, 1.0, "gap", running_min=True'),
    ("gcg-linesearch-dual-subopt", 'GCG, LineSearch.name, 2.0, 3.0, "dual_suboptimality"',
     'GCG, LineSearch.name, 1.0, 3.0, "dual_suboptimality"'),
    ("gcg-linesearch-min-gap", 'GCG, LineSearch.name, 2.0, 3.0, "gap", running_min=True',
     'GCG, LineSearch.name, 1.0, 3.0, "gap", running_min=True'),
    ("compact-averaged-gap", 'NS_MD, SqrtDecay.name, 2.0, 0.0, "avg_gap"',
     'NS_MD, SqrtDecay.name, 1.0, 0.0, "avg_gap"'),
)

MUTATIONS = (
    Mutation("verdict-slack", CERTIFICATES, "return bool(np.all(self.observed <= self.bounds))",
             "return bool(np.all(self.margins >= -1e-9 * (1.0 + np.abs(self.bounds))))"),
    Mutation("verdict-strict", CERTIFICATES, "return bool(np.all(self.observed <= self.bounds))",
             "return bool(np.all(self.observed < self.bounds))"),
    Mutation("delta-tolerance", CERTIFICATES, "if sched.delta != delta:",
             "if abs(sched.delta - delta) > 1e-9 * (1.0 + delta):"),
    Mutation("md-distance-uncertified", CERTIFICATES,
             '    if row.column == "bregman_to_ref" and not reference.certified:\n'
             '        raise ConfigurationError(f"{which} requires a certified reference; its distance to x* is unknown")\n',
             ""),
    Mutation("reference-tolerance", CERTIFICATES, "bounds = row.coef * r2 / (mu * (t + row.shift))",
             "bounds = row.coef * r2 / (mu * (t + row.shift)) + (reference.certified_gap if row.needs_reference else 0.0)"),
    Mutation("needs-reference-inverted", CERTIFICATES, 'return self.column not in ("gap", "avg_gap")',
             'return self.column in ("gap", "avg_gap")'),
    *(Mutation(f"coef-half/{bid}", CERTIFICATES, _pairing_row(bid, old), _pairing_row(bid, new))
      for bid, old, new in _PAIRING),
    *(Mutation(f"no-running-min/{bid}", CERTIFICATES, _pairing_row(bid, old),
               _pairing_row(bid, old.replace(", running_min=True", "")))
      for bid, old, _ in _PAIRING if "running_min=True" in old),
    # the entry checks: each input is checked once, where it enters
    Mutation("mu-check-removed", CERTIFICATES,
             "    if not (mu > 0.0 and math.isfinite(mu)):\n"
             '        raise ConfigurationError(f"mu must be positive and finite, got {mu!r}")\n', ""),
    Mutation("line-search-constants-unchecked", CERTIFICATES,
             "if row.schedule == LineSearch.name and (sched.r2 != r2 or sched.mu != mu):", "if False:"),
    Mutation("step-reads-only-ax", ALGORITHMS, 'MD: (_md_step, ("ax", "y", "carried_h_sub")),',
             'MD: (_md_step, ("ax",)),', STEP_TESTS),
    Mutation("schedule-type-unchecked", ALGORITHMS,
             "    if not isinstance(schedule, StepSchedule):\n"
             '        raise ConfigurationError(f"unknown schedule {schedule!r}")\n', "", STEP_TESTS),
    # the block evaluation of the trace columns: each row is its own pre-step
    # pair, each averaged stack is scanned, a run cut short keeps the state of
    # its last row, and a gap on the round-off floor passes
    Mutation("block-row-reads-post-pair", ALGORITHMS,
             "gap = check_gap_floors(primal[:-1] - dual[:-1], primal[:-1], dual[:-1])",
             "gap = check_gap_floors(primal[1:] - dual[1:], primal[1:], dual[1:])", STEP_TESTS),
    Mutation("averaged-scan-dropped", ALGORITHMS,
             '            as_vector(avg_x.ravel(), name="avg_x")  # one scan of each averaged stack\n', "", STEP_TESTS),
    Mutation("stopped-run-keeps-block-state", ALGORITHMS, '                termination = "gap_tolerance"\n',
             '                termination, state = "gap_tolerance", states[-1]\n', STEP_TESTS),
    Mutation("gap-floor-strict", CORE, "ok = gaps + floor >= 0.0", "ok = gaps + floor > 0.0", STEP_TESTS),
    # the instance geometry: each R^2 is read from its own variant, and delta^2 is kept on a compact domain
    Mutation("exact-r2-swapped", FUNCTIONS,
             "return diameter, _max_sq_norm_over_vertices(op.matrix, self.lower, self.upper), MODE_EXACT",
             "return _max_sq_norm_over_vertices(op.matrix, self.lower, self.upper), diameter, MODE_EXACT"),
    Mutation("column-norm-r2-swapped", FUNCTIONS,
             "return diameter, float(np.sum(self.max_abs() * op.row_norms)) ** 2, MODE_BOUND",
             "return float(np.sum(self.max_abs() * op.row_norms)) ** 2, diameter, MODE_BOUND"),
    Mutation("l1-ball-diameter-as-radius", FUNCTIONS, "return (2.0 * r) ** 2, r**2, MODE_EXACT",
             "return r**2, r**2, MODE_EXACT"),
    Mutation("geometry-drops-delta2", CORE, "reg.delta2() if reg.domain.compact else None", "None"),
    # each strongly convex bound one step tighter, and the md bounds reading each other's primal column
    *(Mutation(f"shift-plus-one/{bid}", CERTIFICATES, _pairing_row(bid, old), _pairing_row(bid, _shifted(old)))
      for bid, old, _ in _PAIRING if bid != "compact-averaged-gap"),
    Mutation("md-avg-reads-primal", CERTIFICATES, _pairing_row(*_PAIRING[0][:2]),
             _pairing_row(_PAIRING[0][0], _PAIRING[0][1].replace('"avg_primal_value"', '"primal_value"'))),
    Mutation("md-best-reads-avg-primal", CERTIFICATES, _pairing_row(*_PAIRING[1][:2]),
             _pairing_row(_PAIRING[1][0], _PAIRING[1][1].replace('"primal_value"', '"avg_primal_value"'))),
    # the step rules, the lockstep verdict, and a positive control: md that
    # carries mu x in place of its own subgradient is no longer gcg's twin
    Mutation("line-search-without-mu-over-r2", ALGORITHMS, "return min(self.mu / self.r2 * max(gap, 0.0), 1.0)",
             "return min(max(gap, 0.0), 1.0)", STEP_TESTS + BOUND_TESTS),
    Mutation("weighted-average-over-t", ALGORITHMS, "norm = 2.0 / (ts * (ts + 1.0)) if weighted else ts",
             "norm = 1.0 / ts if weighted else ts", STEP_TESTS + BOUND_TESTS),
    Mutation("equivalence-tolerance-1e6", EQUIVALENCE,
             "passed=bool(max_x <= tolerance and max_dual <= tolerance),",
             "passed=bool(max_x <= 1e6 * tolerance and max_dual <= 1e6 * tolerance),",
             ("tests/test_equivalence.py", "tests/test_cli.py", "tests/test_acceptance.py")),
    Mutation("md-carries-mu-x", ALGORITHMS,
             'g = as_vector((1.0 - rho) * state.carried_h_sub - rho * op.adjoint_apply(ybar), name="g")',
             'g = as_vector((1.0 - rho) * problem.regularizer.mu * state.x - rho * op.adjoint_apply(ybar), name="g")',
             ("tests/test_equivalence.py", "tests/test_algorithms.py")),
    # the compact-domain recursion carries z = -A^T y, and its dual reads the support function at z
    Mutation("ns-md-carries-plus-aty", ALGORITHMS, "y=y, carried_h_sub=-aty)", "y=y, carried_h_sub=aty)",
             STEP_TESTS),
    Mutation("compact-dual-negates-carried", ALGORITHMS, "dual = -reg.domain.support(_stack(z))",
             "dual = -reg.domain.support(-_stack(z))", STEP_TESTS),
    # the Newton polish's kernels
    Mutation("logistic-conj-hess-doubled", FUNCTIONS, "1.0 / (self.scale * g * (1.0 - g))",
             "2.0 / (self.scale * g * (1.0 - g))", ("tests/test_functions.py",)),
    Mutation("lad-conj-grad-negated", FUNCTIONS, "return self.targets.copy(), np.zeros(self.dim)",
             "return -self.targets, np.zeros(self.dim)", ("tests/test_functions.py",)),
    # the hot loss kernels: the logistic value's max(u, 0) term, the sigmoid's numerator, the lad clip
    Mutation("logistic-value-without-max", FUNCTIONS, "t += np.maximum(u, 0.0, out=u)", "t += u",
             ("tests/test_functions.py",)),
    Mutation("sigmoid-numerator-swapped", FUNCTIONS, "out = np.where(u >= 0, 1.0, e)",
             "out = np.where(u >= 0, e, 1.0)", ("tests/test_functions.py",)),
    Mutation("lad-conj-never-clips", FUNCTIONS, "if low < -s or high > s:", "if False:",
             ("tests/test_functions.py",)),
    # an oracle error exits 2, the round-off floor scales with the pair, and a config is checked when built
    Mutation("cli-oracle-errors-escape", CLI,
             "FeasibilityError, DomainError, GapInconsistencyError) as exc:", "FeasibilityError) as exc:",
             ("tests/test_cli.py",)),
    Mutation("gap-floor-absolute", CORE, "GAP_CLAMP * max(1.0, abs(primal), abs(dual))", "GAP_CLAMP",
             ("tests/test_core.py", "tests/test_algorithms.py")),
    Mutation("gap-floors-absolute", CORE,
             "floor = GAP_CLAMP * np.maximum(np.maximum(np.abs(primal), np.abs(dual)), 1.0)",
             "floor = np.full_like(gaps, GAP_CLAMP)", ("tests/test_core.py", "tests/test_algorithms.py")),
    Mutation("config-checks-reverted", HARNESS,
             "                Box([self.box_lower], [self.box_upper])\n"
             '            if self.loss == "gauge":\n'
             "                DualNormGauge(1, self.gauge_omega0, self.gauge_lambda)\n"
             "            elif self.scale is not None:\n"
             "                _check_scale(self.scale)\n", "", ("tests/test_harness.py",)),
    Mutation("config-check-errors-unconverted", HARNESS,
             "        except ValidationError as exc:\n"
             "            raise ConfigurationError(str(exc)) from exc\n",
             "        except ValidationError:\n"
             "            raise\n", ("tests/test_harness.py",)),
)


def check_texts(mutations) -> list:
    """One line per mutation whose old text does not occur exactly once in its file."""
    problems = []
    for m in mutations:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            count = fh.read().count(m.old)
        if count != 1:
            problems.append(f"{m.name}: its text occurs {count} times in {m.path}, not once")
    return problems


def run_tests(workdir: str, name: str, tests, mutation=None) -> int:
    """pytest's exit code on a fresh copy of src/ and tests/, with ``mutation`` applied."""
    dest = os.path.join(workdir, name.replace("/", "_"))
    shutil.rmtree(dest, ignore_errors=True)
    for sub in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, sub), os.path.join(dest, sub),
                        ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        path = os.path.join(dest, mutation.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutation.old, mutation.new))
    env = dict(os.environ, PYTHONPATH=os.path.join(dest, "src"), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    code = subprocess.run(cmd, cwd=dest, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    shutil.rmtree(dest, ignore_errors=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", default=os.path.join(tempfile.gettempdir(), "pdcg-mutants"),
                        help="directory for the mutated copies (each is removed after its run)")
    args = parser.parse_args(argv)
    problems = check_texts(MUTATIONS)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    tests = tuple(dict.fromkeys(t for m in MUTATIONS for t in m.tests))
    if run_tests(args.workdir, "unmutated", tests) != 0:
        print("the unmutated tests fail; no mutant can be judged", file=sys.stderr)
        return 2
    survivors = 0
    for m in MUTATIONS:
        code = run_tests(args.workdir, m.name, m.tests, m)
        if code not in (0, 1):
            print(f"{m.name}: pytest exited {code}", file=sys.stderr)
            return 2
        survivors += code == 0
        print(f"{'survived' if code == 0 else 'killed':8s} {m.name}", flush=True)
    print(f"{len(MUTATIONS) - survivors} killed, {survivors} survived of {len(MUTATIONS)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
