"""The docs are part of the contract: doctests must run, links must resolve.

Mirrors the CI ``docs`` job so a broken example or a dead link fails
locally before it fails on a reader.
"""

import doctest
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules whose docstrings carry runnable examples (the public-API
#: docstring pass).  Add a module here and its examples become a gate.
DOCTEST_MODULES = [
    "repro.scenarios.spec",
    "repro.scenarios.runner",
    "repro.sweep",
    "repro.fluid.vectorized",
]

DOCTEST_FLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE

#: Markdown files whose relative links must resolve.
DOC_FILES = [
    REPO_ROOT / "README.md",
    *sorted((REPO_ROOT / "docs").glob("*.md")),
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = __import__(module_name, fromlist=["__name__"])
    results = doctest.testmod(module, optionflags=DOCTEST_FLAGS, verbose=False)
    assert results.attempted > 0, f"{module_name} lost its doctest examples"
    assert results.failed == 0


@pytest.mark.parametrize("doc_path", DOC_FILES, ids=lambda p: p.name)
def test_no_dead_relative_links(doc_path):
    assert doc_path.exists(), f"{doc_path} is linked from the docs job but missing"
    dead = []
    for target in _LINK.findall(doc_path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue  # external; not checked offline
        relative = target.split("#", 1)[0]
        if not relative:
            continue  # pure in-page anchor
        if not (doc_path.parent / relative).exists():
            dead.append(target)
    assert not dead, f"dead link(s) in {doc_path.name}: {dead}"


def test_docs_directory_is_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/METRICS.md" in readme


_MATRIX_OPTION = re.compile(r'`(\w+)="[^"`]*"`')


def _public_parameters(module):
    """Parameter names of the module's own public callables and their public methods."""
    names = set()
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [obj]
        if inspect.isclass(obj):
            members += [m for n, m in vars(obj).items() if not n.startswith("_")]
        for member in members:
            if inspect.isfunction(member) or inspect.isclass(member):
                names.update(inspect.signature(member).parameters)
    return names


def _engine_modules():
    """Every ``repro.fluid`` module and the flow engine's."""
    import repro.fluid

    return [importlib.import_module("repro.experiments.dynamic_fluid")] + [
        importlib.import_module(f"repro.fluid.{info.name}")
        for info in pkgutil.iter_modules(repro.fluid.__path__)
    ]


def test_performance_matrix_options_are_real_parameters():
    """A selection-matrix row must not outlive the knob it documents, and a
    row without a knob says how its path is chosen."""
    known = set().union(*(_public_parameters(module) for module in _engine_modules()))
    text = (REPO_ROOT / "docs" / "PERFORMANCE.md").read_text()
    matrix = text.split("## Selection matrix", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in matrix.splitlines() if line.startswith("|")][2:]
    assert rows, "the selection matrix lost its rows"
    for row in rows:
        chosen_by = row.strip().strip("|").rsplit("|", 1)[1].strip()
        assert chosen_by.startswith(("no knob", "automatic")) or _MATRIX_OPTION.search(
            chosen_by
        ), f"row names neither its knob nor 'no knob' / 'automatic': {row}"
    options = {name for row in rows for name in _MATRIX_OPTION.findall(row)}
    assert options <= known, f"documented option(s) with no parameter: {options - known}"


def test_no_engine_callable_takes_a_path_selector():
    """One path per layer: no public callable or class of ``repro.fluid`` or
    the flow engine takes a ``backend`` or ``batch_ties`` parameter."""
    for module in _engine_modules():
        selectors = _public_parameters(module) & {"backend", "batch_ties"}
        assert not selectors, f"{module.__name__} takes {sorted(selectors)}"
