"""The mutation tool stays in step with the source it mutates."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
