"""Interpreter work per iteration of ``run()``: opcodes, Python calls and C calls.

Usage, from anywhere::

    python3 tools/work_count.py

For each config in ``CONFIGS`` the tool builds the instance with
``prepare`` and runs ``run()`` once untraced, so that first-call caches
(Logistic's cached labels, say) stay out of the counts.  It then runs
``run()`` again under ``sys.settrace``, with opcode events on, and
``sys.setprofile``, and prints the opcodes, Python calls and C calls of
that run divided by its rows.  The configs are lad and logistic +
``squared_l2`` at 200 x 40, scale 0.1, seed 1, 50 iterations, each under
md ``2/(t+1)``, gcg ``1/t`` and gcg line search, and ns-md sqrt-decay on
lad + box [-1, 1].  The counts include the run's start and nothing
outside ``run()``.

The counts see interpreter work only: numpy's kernel time and the
matvecs are invisible to them.  For one CPython and numpy build they do
not move with the hash seed, the checkout's path or the heap layout,
so a change that must add no interpreter work can show, config by
config, that it reads no higher than its parent.  Tracing slows a run
about tenfold; the seven configs take well under a second.
``tests/test_tools.py`` runs this tool in a subprocess and pins each
count as a ceiling.  Not otherwise part of the test suite.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from pdcg.algorithms import run  # noqa: E402
from pdcg.harness import ExperimentConfig, prepare  # noqa: E402

COUNTS = ("opcodes", "py_calls", "c_calls")
_COMMON = dict(n=200, p=40, scale=0.1, seed=1, max_iters=50)
# name -> (loss, regularizer, algorithm, schedule)
CONFIGS = {
    f"{loss}-{name}": (loss, "squared_l2", algorithm, schedule)
    for loss in ("lad", "logistic")
    for name, algorithm, schedule in (("md-2/(t+1)", "md", "two-over-t-plus-one"),
                                      ("gcg-1/t", "gcg", "one-over-t"),
                                      ("gcg-line-search", "gcg", "line-search"))
}
CONFIGS["lad-box-ns-md-sqrt-decay"] = ("lad", "squared_l2_box", "ns-md", "sqrt-decay")


class _Counter:
    """The hooks: opcode events of every traced frame, and Python and C call events."""

    def __init__(self):
        self.opcodes = self.py_calls = self.c_calls = 0

    def trace(self, frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.opcodes += 1
        return self._opcode

    def profile(self, frame, event, arg):
        if event == "call":
            self.py_calls += 1
        elif event == "c_call" and arg is not sys.setprofile:  # the call that switches the hook off
            self.c_calls += 1


def count(name: str) -> dict:
    """Opcodes, Python calls and C calls per row of one traced run of config ``name``, after a warm-up run."""
    loss, regularizer, algorithm, schedule = CONFIGS[name]
    config = ExperimentConfig(loss=loss, regularizer=regularizer, algorithm=algorithm, schedule=schedule,
                              box_lower=-1.0, box_upper=1.0, **_COMMON)
    experiment = prepare(config)
    args = (experiment.problem, algorithm, experiment.schedule, config.max_iters)
    run(*args)
    counter = _Counter()
    sys.settrace(counter.trace)  # the frame that sets a hook is not traced, only the frames it calls
    sys.setprofile(counter.profile)
    try:
        result = run(*args)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return {key: getattr(counter, key) / len(result.trace) for key in COUNTS}


def main() -> int:
    print(f"{'config':28s}" + "".join(f"{key:>12s}" for key in COUNTS))
    for name in CONFIGS:
        counts = count(name)
        print(f"{name:28s}" + "".join(f"{counts[key]:12.2f}" for key in COUNTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
