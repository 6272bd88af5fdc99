"""Experiment configuration: one key table, one rule checker, model construction.

One YAML file drives every experiment; ``--set`` flags only override single
keys.  ``KEYS`` gives every key's path, rule and default: the rows under
``None`` hold for every subcommand, those under a kind for that kind only, and
``GRAPH_KEYS`` adds the keys of the chosen graph kind.  ``load_config`` checks
the whole file before anything is allocated and hands the subcommands typed
values with defaults filled in.  Every violation, YAML syntax included, raises
``ConfigError`` with the path of the key at fault.  Keys the table does not
list for the selected kind are ignored, so one file can serve several kinds.
Checks that need the built graph stay with the subcommands in ``cli``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .cluster import FAMILIES
from .fock import (Interaction, ModelSpec, PiecewiseConstant,
                   onsite_density_interaction)
from .lattice import Graph, build_cubic, build_path, build_regular_tree
from .opspace import MU_FLOOR, MonomialOp


class ConfigError(ValueError):
    """Schema violation, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Rule:
    """What one key accepts; ``check`` applies it.  ``kind`` is one of

    * ``integer``: an int in ``low..high``; digit strings pass (JSON keys are text);
    * ``number``: a finite number ``>= low`` (``> low`` when ``strict``), as a
      float; numeric strings pass, as YAML 1.1 reads 1e-06 (no decimal point) as text;
    * ``choice``: one of ``options``; ``text``: a string; ``mapping``: a mapping;
    * ``monomial``: ``{eta: {site: exponent}, zeta: {...}}``, as a ``MonomialOp``;
    * ``schedule``: a number, ``{value: v}`` or ``{segments: [{until: t, value: v},
      ..., {value: v}]}``, as a ``PiecewiseConstant``.

    With ``many`` the value is a list of such items.  With ``optional`` null
    reads as the default; elsewhere only a missing key does.  Booleans are
    never numbers.
    """

    kind: str
    low: float = -math.inf
    high: float = math.inf
    strict: bool = False
    options: tuple = ()
    many: bool = False
    optional: bool = False


@dataclass(frozen=True)
class SameAs:
    """A default that repeats the checked value of the key at ``path``."""
    path: str


REQUIRED = object()
MAPPING = Rule("mapping")
SECTION = Rule("mapping", optional=True)
NUMBER = Rule("number")
POSITIVE = Rule("number", 0.0, strict=True)
MU = Rule("number", MU_FLOOR)
TIME = Rule("number", 0.0)
TIMES = Rule("number", 0.0, many=True, optional=True)
SEPARATIONS = Rule("integer", 1, many=True)
CAP = Rule("integer", 1, 255)
TOTAL_CAP = Rule("integer", 0, optional=True)
EXPERIMENT_KINDS = ("bounds", "scan", "certify", "cluster", "selftest")
CONSTANTS = {"C1": 1.0, "C3": 1.0, "C4": 1.0, "C5": 1.0, "epsilon": 0.1}

# (path, rule, default); a row's enclosing section is a row above it
KEYS = {
    None: (
        ("model", MAPPING, REQUIRED),
        ("model.graph", MAPPING, REQUIRED),
        ("model.graph.kind", Rule("choice", options=("path", "cubic", "tree")), REQUIRED),
        ("model.hopping", Rule("schedule"), 1.0),
        ("model.interactions", Rule("mapping", many=True, optional=True), []),
        ("model.range", Rule("integer", 0), 0),
        ("ensemble", MAPPING, REQUIRED),
        ("ensemble.mu", MU, 1.0),
        ("ensemble.per_site_cap", CAP, 3),
        ("ensemble.total_cap", TOTAL_CAP, None),
        ("experiment", MAPPING, REQUIRED),
        ("experiment.kind", Rule("choice", options=EXPERIMENT_KINDS), REQUIRED),
        ("output", SECTION, {}),
        ("output.dir", Rule("text"), "out"),
        ("output.formats", Rule("choice", options=("csv", "json"), many=True), ["csv", "json"]),
        ("constants", SECTION, {}),
        *((f"constants.{name}", POSITIVE, value) for name, value in CONSTANTS.items()),
        ("seed", Rule("integer", 0), 0),
    ),
    "bounds": (("experiment.beta", Rule("integer", 1), 1),),
    "scan": (
        ("experiment.evolve", Rule("monomial"), {"zeta": {0: 1}}),
        ("experiment.probe", Rule("monomial"), {"eta": {0: 1}}),
        ("experiment.r_values", SEPARATIONS, [2, 3, 4]),
        ("experiment.t_values", TIMES, [0.0]),
        ("experiment.cone_fractions", TIMES, None),
        ("experiment.extra_times", TIMES, []),
    ),
    "certify": (
        ("experiment.time", TIME, 0.0),
        ("experiment.state", MAPPING, {}),
        ("experiment.state.kind", Rule("choice", options=("unit_filling", "fock")), "unit_filling"),
        ("experiment.state.occupations", Rule("integer", 0, many=True, optional=True), None),
        ("experiment.observable", MAPPING, {}),
        ("experiment.observable.kind", Rule("choice", options=("density",)), "density"),
        ("experiment.observable.site", Rule("integer"), 0),
        ("experiment.assumption", MAPPING, None),
        ("experiment.assumption.mu", MU, REQUIRED),
        ("experiment.assumption.theta", Rule("number", 1.0), REQUIRED),
        ("experiment.assumption.K0", Rule("number", 1.0), REQUIRED),
        ("experiment.window_radius", Rule("integer", 1, optional=True), None),
        ("experiment.per_site_cap", CAP, SameAs("ensemble.per_site_cap")),
        ("experiment.total_cap", TOTAL_CAP, SameAs("ensemble.total_cap")),
    ),
    "cluster": (
        ("experiment.r_values", SEPARATIONS, [1, 2, 3]),
        ("experiment.filling", Rule("integer", 1), 1),
        ("experiment.observables", Rule("choice", options=tuple(FAMILIES), many=True), ["density"]),
        ("experiment.gap_threshold", TIME, 1e-6),
    ),
    "selftest": (("experiment.samples", Rule("integer", 1), 20000),),
}

# graph kind -> (builder, rows of its arguments in order)
GRAPH_KEYS = {
    "path": (build_path, (("model.graph.length", Rule("integer", 1), REQUIRED),)),
    "cubic": (build_cubic, (("model.graph.dims", Rule("integer", 2, many=True), REQUIRED),)),
    "tree": (build_regular_tree, (("model.graph.branching", Rule("integer", 2), REQUIRED),
                                  ("model.graph.depth", Rule("integer", 0), REQUIRED))),
}


def check(rule: Rule, value, path: str):
    """``value`` checked against ``rule`` and converted; ConfigError(path) if it fails."""
    if rule.many:
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list, got {value!r}")
        item = replace(rule, many=False)
        return [check(item, v, f"{path}[{i}]") for i, v in enumerate(value)]
    if rule.kind == "integer":
        if isinstance(value, str) and value.isascii() and value.isdigit():
            value = int(value)
        if type(value) is not int or not rule.low <= value <= rule.high:
            span = (f" in {rule.low}..{rule.high}" if rule.high < math.inf
                    else f" >= {rule.low}" if rule.low > -math.inf else "")
            raise ConfigError(path, f"expected an integer{span}, got {value!r}")
        return value
    if rule.kind == "number":
        try:
            number = float(value) if type(value) in (int, float, str) else math.nan
        except (ValueError, OverflowError):
            number = math.nan
        if not (math.isfinite(number) and (number > rule.low if rule.strict
                                           else number >= rule.low)):
            bound = f" {'>' if rule.strict else '>='} {rule.low}" if rule.low > -math.inf else ""
            raise ConfigError(path, f"expected a finite number{bound}, got {value!r}")
        return number
    if rule.kind == "choice":
        if not (isinstance(value, str) and value in rule.options):
            raise ConfigError(path, f"expected one of {', '.join(rule.options)}, got {value!r}")
        return value
    if rule.kind == "schedule" and not isinstance(value, dict):
        return PiecewiseConstant.constant(complex(check(NUMBER, value, path)))
    if not isinstance(value, str if rule.kind == "text" else dict):
        raise ConfigError(path, f"expected {'text' if rule.kind == 'text' else 'a mapping'}, "
                                f"got {value!r}")
    if rule.kind == "schedule":
        if "segments" not in value:
            return PiecewiseConstant.constant(complex(_field(value, f"{path}.value", NUMBER)))
        path += ".segments"
        segs = check(Rule("mapping", many=True), value["segments"], path)
        if not segs:
            raise ConfigError(path, "need a non-empty list")
        values = tuple(complex(_field(s, f"{path}[{i}].value", NUMBER)) for i, s in enumerate(segs))
        breaks = tuple(_field(s, f"{path}[{i}].until", NUMBER) for i, s in enumerate(segs[:-1]))
        try:
            return PiecewiseConstant(breaks, values)
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    if rule.kind != "monomial":
        return value
    sites = {kind: check(MAPPING, value.get(kind) or {}, f"{path}.{kind}")
             for kind in ("eta", "zeta")}
    factors = {kind: {check(Rule("integer", 0), x, f"{path}.{kind}"):
                      check(Rule("integer", 1), k, f"{path}.{kind}.{x}")
                      for x, k in pairs.items()} for kind, pairs in sites.items()}
    if not factors["eta"] and not factors["zeta"]:
        raise ConfigError(path, "monomial needs at least one ladder factor")
    return MonomialOp.from_dicts(**factors)


def _field(section: dict, path: str, rule: Rule, default=REQUIRED):
    """``section``'s entry for the last part of ``path`` by ``rule``, else ``default``."""
    key = path.rpartition(".")[2]
    value = section.get(key)
    if value is None and (rule.optional or key not in section):
        if default is REQUIRED:
            raise ConfigError(path, "missing required field")
        return None if default is None else check(rule, default, path)
    return check(rule, value, path)


def _check_rows(raw: dict, rows, values: dict) -> None:
    """Check each (path, rule, default) row into ``values``, keyed by path."""
    for path, rule, default in rows:
        parent = path.rpartition(".")[0]
        section = values[parent] if parent else raw
        if isinstance(default, SameAs):
            default = values[default.path]
        values[path] = None if section is None else _field(section, path, rule, default)


@dataclass
class ExperimentConfig:
    raw: dict               # the parsed config, embedded in every output file
    model: ModelSpec
    mu: float
    per_site_cap: int
    total_cap: int | None
    kind: str
    experiment: dict        # the selected kind's keys, checked, without "experiment."
    output_dir: str
    formats: tuple[str, ...]
    constants: dict
    seed: int


def _build_interaction(term: dict, path: str, graph: Graph) -> list[Interaction]:
    kind = _field(term, f"{path}.kind", Rule("choice", options=("onsite", "explicit")), "onsite")
    if kind == "onsite":
        strength = _field(term, f"{path}.strength", NUMBER)
        return [onsite_density_interaction(v, strength) for v in graph.vertices()]
    site = Rule("integer", 0, graph.num_vertices - 1)
    support = tuple(_field(term, f"{path}.support", replace(site, many=True)))
    monos = []
    for j, mono in enumerate(_field(term, f"{path}.monomials", Rule("mapping", many=True))):
        mpath = f"{path}.monomials[{j}]"
        coeff = _field(mono, f"{mpath}.coeff", NUMBER)
        powers = _field(mono, f"{mpath}.powers", MAPPING)
        monos.append((coeff, tuple(sorted(
            (check(site, s, f"{mpath}.powers"), check(Rule("integer", 0), p, f"{mpath}.powers.{s}"))
            for s, p in powers.items()))))
    try:
        return [Interaction(support=support, monomials=tuple(monos))]
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_model(values: dict) -> ModelSpec:
    builder, rows = GRAPH_KEYS[values["model.graph.kind"]]
    try:
        graph = builder(*(values[path] for path, _, _ in rows))
    except ValueError as exc:
        raise ConfigError("model.graph", str(exc)) from exc
    sched = values["model.hopping"]
    if sched.max_abs() > 1.0:
        raise ConfigError("model.hopping", "|J| must stay <= 1 (unit normalization)")
    if values["model.range"] >= graph.num_vertices:  # wider than any support can be
        raise ConfigError("model.range", f"must stay below the {graph.num_vertices} vertices")
    interactions = [term for i, spec in enumerate(values["model.interactions"])
                    for term in _build_interaction(spec, f"model.interactions[{i}]", graph)]
    try:
        return ModelSpec(graph, {e: sched for e in graph.edges}, tuple(interactions),
                         values["model.range"])
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc


def _parse(text: str, path: str):
    """YAML ``text``; a syntax error is a ConfigError at ``path``."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(path, f"invalid YAML{where}: {problem}") from exc


def _require_json(node, path: str = "<root>") -> None:
    """ConfigError unless ``json.dumps`` with sorted keys, as every output embeds
    the config, takes ``node``: a YAML date, set or binary value is refused."""
    if isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _require_json(value, f"{path}[{i}]")
        return
    try:
        json.dumps(dict.fromkeys(node) if isinstance(node, dict) else node, sort_keys=True)
    except TypeError as exc:
        raise ConfigError(path, f"not JSON with sorted keys: {exc}") from None
    for key, value in node.items() if isinstance(node, dict) else ():
        _require_json(value, str(key) if path == "<root>" else f"{path}.{key}")


def load_config(path_or_text, is_text: bool = False,
                overrides: list[str] | tuple[str, ...] = ()) -> ExperimentConfig:
    """The checked config of a YAML file, or of YAML text with ``is_text``,
    with the ``--set`` ``overrides`` applied to the parsed document."""
    text = path_or_text if is_text else Path(path_or_text).read_text()
    raw = apply_overrides(check(MAPPING, _parse(text, "<root>"), "<root>"), overrides)
    _require_json(raw)
    values: dict = {}
    _check_rows(raw, KEYS[None], values)
    _check_rows(raw, GRAPH_KEYS[values["model.graph.kind"]][1], values)
    kind = values["experiment.kind"]
    _check_rows(raw, KEYS[kind], values)
    for key in values["constants"]:
        if key not in CONSTANTS:
            raise ConfigError(f"constants.{key}", "unknown constant")
    return ExperimentConfig(
        raw=raw, model=_build_model(values), mu=values["ensemble.mu"],
        per_site_cap=values["ensemble.per_site_cap"], total_cap=values["ensemble.total_cap"],
        kind=kind, experiment={path[len("experiment."):]: value for path, value in values.items()
                               if path.startswith("experiment.")},
        output_dir=values["output.dir"], formats=tuple(values["output.formats"]),
        constants={name: values[f"constants.{name}"] for name in CONSTANTS},
        seed=values["seed"])


def apply_overrides(data: dict, overrides: list[str] | tuple[str, ...]) -> dict:
    """``data``, a parsed config, with the --set key.path=value overrides
    applied in place: each value is read as YAML, and a missing or non-mapping
    section on the key's path becomes a new mapping."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = _parse(value, key)
    return data
