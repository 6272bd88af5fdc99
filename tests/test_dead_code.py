"""Every top-level function and class of the package has a caller in it.

A definition that nothing in ``src/bosonlc`` references, apart from its own
body and the package exports, is code no result runs.  The only ones allowed
are the reference implementations kept for the tests in ``ORACLES``.
"""

import ast
from pathlib import Path

import bosonlc

SOURCE = Path(bosonlc.__file__).resolve().parent
# the plain Bose-Hubbard model, the single-ladder matrices and the free-boson
# propagator: independent oracles of the tests, which no result calls
ORACLES = {"bose_hubbard", "ladder_op", "single_particle_propagator"}


def _names(node: ast.AST) -> set[str]:
    """Every name read in ``node``, bare or as an attribute."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def unreferenced_definitions() -> set[str]:
    """Top-level functions and classes no other top-level statement reads."""
    statements = [stmt for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"
                  for stmt in ast.parse(path.read_text()).body]
    defined, used = set(), set()
    for stmt in statements:
        names = _names(stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            names.discard(stmt.name)   # a recursive call is no caller
        used |= names
    return defined - used


def test_only_the_oracles_are_unreferenced():
    assert unreferenced_definitions() == ORACLES
