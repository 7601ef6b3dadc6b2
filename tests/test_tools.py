"""The mutation tool stays in step with the source it mutates, and run() adds no interpreter work."""

import importlib.util
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# tools/work_count.py per row: (opcodes, Python calls, C calls), read on CPython 3.11.7 and numpy 2.4.6.
# A ceiling that a change has to raise is raised with the cause stated in CHANGES.md.
WORK_PINNED = ("3.11", "2.4")
WORK_CEILINGS = {
    "lad-md-2/(t+1)": (505.54, 16.48, 18.44),
    "lad-gcg-1/t": (580.80, 19.76, 21.70),
    "lad-gcg-line-search": (759.46, 28.06, 24.18),
    "logistic-md-2/(t+1)": (552.24, 18.56, 18.46),
    "logistic-gcg-1/t": (627.70, 21.86, 21.72),
    "logistic-gcg-line-search": (893.30, 32.12, 25.20),
    "lad-box-ns-md-sqrt-decay": (453.52, 16.10, 17.30),
}


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "tools", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutation_text_occurs_once():
    # a refactor that rewrites a mutated line fails here: update the mutation, never delete it
    mutants = _load_tool("mutants")
    assert mutants.check_texts(mutants.MUTATIONS) == []
    assert all(os.path.isfile(os.path.join(ROOT, test)) for m in mutants.MUTATIONS for test in m.tests)


def test_interpreter_work_per_row_stays_under_its_ceilings():
    running = (".".join(platform.python_version_tuple()[:2]), ".".join(np.__version__.split(".")[:2]))
    if running != WORK_PINNED:
        pytest.skip("work ceilings are pinned on CPython %s with numpy %s, not CPython %s with numpy %s"
                    % (WORK_PINNED + running))
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "work_count.py")], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    counts = {name: tuple(map(float, values)) for name, *values in map(str.split, out.splitlines()[1:])}
    assert counts.keys() == WORK_CEILINGS.keys()
    over = {name: (counts[name], ceiling) for name, ceiling in WORK_CEILINGS.items()
            if any(c > limit for c, limit in zip(counts[name], ceiling))}
    assert over == {}
