"""Every public function of the package has a caller outside the tests.

A module-level function whose name does not start with an underscore must
be called somewhere in src/ (by name or as an attribute), be exported by
bergerhelix.__all__, or be timed by the benchmark (named in REQUIRED of
perfbench/spans.py, read as source as test_trace_coverage reads it).  A
helper that only tests reach fails here, so it is deleted, or its identity
is tested on the kernel the pipeline calls.
"""

import ast
import pathlib

import bergerhelix
from test_trace_coverage import _spans

SRC = pathlib.Path(bergerhelix.__file__).resolve().parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _called_names(trees):
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    names.add(node.func.id)
                elif isinstance(node.func, ast.Attribute):
                    names.add(node.func.attr)
    return names


def test_every_public_function_has_a_pipeline_caller():
    trees = _trees()
    called = _called_names(trees)
    exported = set(bergerhelix.__all__)
    timed = _spans().REQUIRED
    dead = [f"{module}.{node.name}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in called | exported and f"{module}.{node.name}" not in timed]
    assert dead == []
