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

Every defaulted parameter of a top-level function or method (the oracles
aside) is set by some call in the same caller files, by keyword or by
position; a ``Class(...)`` call sets ``__init__``'s, and those of a
dataclass's defaulted fields, in field order.  A value no caller sets is a
constant, not a parameter.  A function passed as a value, as
``scatter_block`` is to ``partial``, counts as setting all of its
parameters.  The only defaults left to the tests are ``TEST_HOOKS``.  The
check matches calls by name alone, so two cases pass it unseen: a function
whose name is also a local variable (``violations`` in ``cli.py``), and a
default that every caller overrides.
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


# defaults that only the tests set: a loose Chebyshev tolerance shows the
# a-priori bound holding, and a low state budget reaches the capacity path
# without building a large basis
TEST_HOOKS = {"_chebyshev_expv.tol", "certified_expectation.state_budget"}


def _defaults(fn: ast.FunctionDef, bound: int) -> dict[str, int | None]:
    """Each defaulted parameter of ``fn``: its index among the positional
    arguments of a call, after the ``bound`` ones the call binds itself
    (``self``, ``cls``), or None if keyword-only."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
    first = len(positional) - len(fn.args.defaults)
    out: dict[str, int | None] = {p: i for i, p in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None})
    return out


def _field_defaults(cls: ast.ClassDef) -> dict[str, int]:
    """Each defaulted field of a dataclass: its index among the positional
    arguments of ``Class(...)``."""
    if not any("dataclass" in _names(d) for d in cls.decorator_list):
        return {}
    fields = [part for part in cls.body if isinstance(part, ast.AnnAssign)]
    return {f.target.id: i for i, f in enumerate(fields) if f.value is not None}


def unset_defaults() -> set[str]:
    """``function.parameter``, ``Class.method.parameter`` or ``Class.field``
    of each defaulted parameter of a top-level function or method, or field
    of a dataclass, that no call sets."""
    defined: dict[str, list[tuple[str, dict]]] = {}    # name called -> definitions
    classes = set()
    for path, stmt in _statements():
        if path.parent != SOURCE or getattr(stmt, "name", None) in ORACLES:
            continue
        if isinstance(stmt, ast.FunctionDef):
            defined.setdefault(stmt.name, []).append((stmt.name, _defaults(stmt, 0)))
        elif isinstance(stmt, ast.ClassDef):
            classes.add(stmt.name)
            defined.setdefault(stmt.name, []).append((stmt.name, _field_defaults(stmt)))
            for part in stmt.body:
                if isinstance(part, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in part.decorator_list)
                    called = stmt.name if part.name == "__init__" else part.name
                    defined.setdefault(called, []).append(
                        (f"{stmt.name}.{part.name}", _defaults(part, 0 if static else 1)))
    unset = {f"{qualified}.{p}" for defs in defined.values() for qualified, params in defs
             for p in params}
    for _, stmt in _statements():
        nodes = list(ast.walk(stmt))
        callees = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            if isinstance(node, ast.Call):
                func, given = node.func, len(node.args)
                keywords = {k.arg for k in node.keywords}
                every = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees:
                func, given, keywords, every = node, 0, set(), True   # passed as a value
            else:
                continue
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if func is node and name in classes:
                continue    # a class named as a value sets none of its parameters
            for qualified, params in defined.get(name, []):
                unset -= {f"{qualified}.{p}" for p, i in params.items()
                          if every or p in keywords or (i is not None and i < given)}
    return unset


def test_every_default_is_set_by_a_caller():
    assert unset_defaults() == TEST_HOOKS
