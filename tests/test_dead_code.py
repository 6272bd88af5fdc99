"""Every function, class, method and property of the package has a caller.

A top-level definition that nothing in ``src/bosonlc`` references, apart from
its own body and the package exports, is code no result runs; so is a method
or property whose name no attribute read outside its own body names.  The
benchmark's child process (``perfbench/child.py``) counts as a caller: it
alone runs ``HeisenbergScanEngine.evolved_operator``.  So does its tracer
(``perfbench/tracing.py``), whose count of evolved-operator entries reads
``BlockOp.mat``, which no result reads.  The only unreferenced
definitions allowed are the reference implementations kept for the tests in
``ORACLES``.
"""

import ast
from pathlib import Path

import bosonlc

SOURCE = Path(bosonlc.__file__).resolve().parent
CALLERS = ([path for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]
           + [SOURCE.parents[1] / "perfbench" / name for name in ("child.py", "tracing.py")])
# the plain Bose-Hubbard model, the single-ladder matrices and the free-boson
# propagator: independent oracles of the tests, which no result calls
ORACLES = {"bose_hubbard", "ladder_op", "single_particle_propagator"}


def _attributes(node: ast.AST) -> set[str]:
    """Every attribute name read in ``node``."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _names(node: ast.AST) -> set[str]:
    """Every name read in ``node``, bare or as an attribute."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | _attributes(node)


def _statements() -> list[tuple[Path, ast.stmt]]:
    """Each caller's top-level statements, with the file they are in."""
    return [(path, stmt) for path in CALLERS for stmt in ast.parse(path.read_text()).body]


def unreferenced_definitions() -> set[str]:
    """Top-level functions and classes no other top-level statement reads."""
    defined, used = set(), set()
    for path, stmt in _statements():
        names = _names(stmt)
        if path.parent == SOURCE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            names.discard(stmt.name)   # a recursive call is no caller
        used |= names
    return defined - used


def unreferenced_methods() -> set[str]:
    """``Class.name`` of each method and property (dunders aside) whose name
    no attribute read outside its own body names."""
    defined, used = {}, set()
    for path, stmt in _statements():
        for part in stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]:
            names = _attributes(part)
            if (path.parent == SOURCE and isinstance(stmt, ast.ClassDef)
                    and isinstance(part, ast.FunctionDef) and not part.name.startswith("__")):
                defined[f"{stmt.name}.{part.name}"] = part.name
                names.discard(part.name)
            used |= names
    return {qualified for qualified, name in defined.items() if name not in used}


def test_only_the_oracles_are_unreferenced():
    assert unreferenced_definitions() == ORACLES


def test_every_method_and_property_has_a_caller():
    assert unreferenced_methods() == set()
