"""Experiment configuration: schema validation and model construction.

One YAML file drives every experiment; flags only override single keys.
Validation happens before any allocation and reports errors with the full
field path so misconfigurations are cheap to fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import yaml

from .fock import (Interaction, ModelSpec, PiecewiseConstant,
                   onsite_density_interaction)
from .lattice import Graph, build_cubic, build_path, build_regular_tree


class ConfigError(ValueError):
    """Schema violation, reported with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_MISSING = object()


def _need(mapping: dict, key: str, path: str, types, default=_MISSING):
    if key not in mapping:
        if default is not _MISSING:
            return default
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = mapping[key]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{path}.{key}",
                          f"expected {types}, got {type(value).__name__}")
    return value


def _positive(value, path):
    if not (isinstance(value, (int, float)) and value > 0):
        raise ConfigError(path, f"must be a positive number, got {value!r}")
    return value


EXPERIMENT_KINDS = ("bounds", "scan", "certify", "cluster", "selftest")


@dataclass
class ExperimentConfig:
    raw: dict
    model: ModelSpec
    mu: float
    per_site_cap: int
    total_cap: int | None
    kind: str
    experiment: dict
    output_dir: str
    formats: tuple[str, ...]
    constants: dict
    seed: int

    def resolved(self) -> dict:
        """The fully resolved config embedded in every output file."""
        return self.raw


def _build_graph(section: dict, path: str) -> Graph:
    kind = _need(section, "kind", path, str)
    if kind == "path":
        return build_path(int(_positive(_need(section, "length", path, int), f"{path}.length")))
    if kind == "cubic":
        dims = _need(section, "dims", path, list)
        if not dims or not all(isinstance(d, int) and d >= 2 for d in dims):
            raise ConfigError(f"{path}.dims", "need a list of integers >= 2")
        return build_cubic(dims)
    if kind == "tree":
        branching = _need(section, "branching", path, int)
        depth = _need(section, "depth", path, int)
        if branching < 2 or depth < 0:
            raise ConfigError(path, "tree needs branching >= 2 and depth >= 0")
        return build_regular_tree(branching, depth)
    raise ConfigError(f"{path}.kind", f"unknown graph kind {kind!r}")


def _build_schedule(spec: Any, path: str) -> PiecewiseConstant:
    if isinstance(spec, (int, float)):
        return PiecewiseConstant.constant(complex(spec))
    if isinstance(spec, dict) and "segments" in spec:
        segs = spec["segments"]
        if not isinstance(segs, list) or not segs:
            raise ConfigError(f"{path}.segments", "need a non-empty list")
        breaks = []
        values = []
        for i, seg in enumerate(segs):
            val = _need(seg, "value", f"{path}.segments[{i}]", (int, float))
            values.append(complex(val))
            if i < len(segs) - 1:
                breaks.append(float(_need(seg, "until", f"{path}.segments[{i}]", (int, float))))
        return PiecewiseConstant(tuple(breaks), tuple(values))
    if isinstance(spec, dict) and "value" in spec:
        return PiecewiseConstant.constant(complex(spec["value"]))
    raise ConfigError(path, "expected a number or {value: ...} or {segments: [...]}")


def _build_model(section: dict, path: str = "model") -> ModelSpec:
    graph = _build_graph(_need(section, "graph", path, dict), f"{path}.graph")
    hop_spec = _need(section, "hopping", path, (dict, int, float), default=1.0)
    sched = _build_schedule(hop_spec, f"{path}.hopping")
    if sched.max_abs() > 1.0:
        raise ConfigError(f"{path}.hopping", "|J| must stay <= 1 (unit normalization)")
    hopping = {e: sched for e in graph.edges}
    rng = int(section.get("range", 0))
    if rng < 0:
        raise ConfigError(f"{path}.range", "interaction range must be >= 0")
    interactions: list[Interaction] = []
    for i, term in enumerate(section.get("interactions", []) or []):
        tpath = f"{path}.interactions[{i}]"
        kind = _need(term, "kind", tpath, str, default="onsite")
        if kind == "onsite":
            strength = float(_need(term, "strength", tpath, (int, float)))
            for v in graph.vertices():
                interactions.append(onsite_density_interaction(v, strength))
        elif kind == "explicit":
            support = tuple(_need(term, "support", tpath, list))
            monos = []
            for j, mono in enumerate(_need(term, "monomials", tpath, list)):
                coeff = float(_need(mono, "coeff", f"{tpath}.monomials[{j}]", (int, float)))
                powers = _need(mono, "powers", f"{tpath}.monomials[{j}]", dict)
                monos.append((coeff, tuple(sorted((int(s), int(p)) for s, p in powers.items()))))
            interactions.append(Interaction(support=support, monomials=tuple(monos)))
        else:
            raise ConfigError(f"{tpath}.kind", f"unknown interaction kind {kind!r}")
    try:
        return ModelSpec(graph=graph, hopping=hopping, interactions=tuple(interactions),
                         interaction_range=rng)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def load_config(path_or_text, is_text: bool = False) -> ExperimentConfig:
    if is_text:
        raw = yaml.safe_load(path_or_text)
    else:
        with open(path_or_text) as fh:
            raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    model = _build_model(_need(raw, "model", "<root>", dict))
    ensemble = _need(raw, "ensemble", "<root>", dict)
    mu = float(_positive(_need(ensemble, "mu", "ensemble", (int, float), default=1.0),
                         "ensemble.mu"))
    cap = _need(ensemble, "per_site_cap", "ensemble", int, default=3)
    if not 1 <= cap <= 255:
        raise ConfigError("ensemble.per_site_cap", "must be in 1..255 (one byte per site)")
    total_cap = ensemble.get("total_cap")
    if total_cap is not None and (not isinstance(total_cap, int) or total_cap < 0):
        raise ConfigError("ensemble.total_cap", "must be a nonnegative integer or null")
    experiment = _need(raw, "experiment", "<root>", dict)
    kind = _need(experiment, "kind", "experiment", str)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment.kind",
                          f"unknown kind {kind!r}; pick one of {EXPERIMENT_KINDS}")
    output = raw.get("output", {}) or {}
    out_dir = output.get("dir", "out")
    formats = tuple(output.get("formats", ["csv", "json"]))
    for f in formats:
        if f not in ("csv", "json"):
            raise ConfigError("output.formats", f"unknown format {f!r}")
    constants = {"C1": 1.0, "C3": 1.0, "C4": 1.0, "C5": 1.0, "epsilon": 0.1}
    for key, val in (raw.get("constants", {}) or {}).items():
        if key not in constants:
            raise ConfigError(f"constants.{key}", "unknown constant")
        constants[key] = float(val)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError("seed", "must be an integer")
    return ExperimentConfig(raw=raw, model=model, mu=mu, per_site_cap=cap,
                            total_cap=total_cap, kind=kind, experiment=experiment,
                            output_dir=out_dir, formats=formats, constants=constants,
                            seed=seed)


def apply_overrides(raw_text: str, overrides: list[str]) -> str:
    """Apply --set key.path=value overrides to the YAML text."""
    if not overrides:
        return raw_text
    data = yaml.safe_load(raw_text)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = yaml.safe_load(value)
    return yaml.safe_dump(data)
