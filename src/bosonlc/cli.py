"""Config-driven experiment runner.

Subcommands: ``bounds``, ``scan``, ``certify``, ``cluster``, ``selftest``.
Exit codes: 0 success, 2 config error, 3 capacity error, 4 property
violation.  Outputs are byte-deterministic for a fixed config and seed: no
timestamps, sorted JSON keys, shortest-roundtrip float formatting, and the
resolved config embedded in every file.

``--threads`` is accepted and ignored: the library runs single-threaded
above BLAS, whose own thread count it leaves alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import certify as certify_mod
from . import cluster as cluster_mod
from .config import ConfigError, ExperimentConfig, apply_overrides, load_config
from .dynamics import lightcone_scan, probe_sites
from .fock import CapacityError, FockBasis
from .lattice import is_path
from .opspace import MonomialOp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(path: Path, text: str, verbose: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if verbose:
        print(f"wrote {path}")


def _csv_with_header(cfg: ExperimentConfig, body: str, provenance: dict) -> str:
    header = {
        "resolved_config": cfg.resolved(),
        "constants": cfg.constants,
        "provenance": provenance,
    }
    lines = ["# " + line for line in _json_dump(header).splitlines()]
    return "\n".join(lines) + "\n" + body


def _write_table(cfg: ExperimentConfig, out: Path, stem: str, result, provenance: dict,
                 verbose: bool) -> None:
    """``stem``.csv and ``stem``.json, each only if ``output.formats`` lists it."""
    if "csv" in cfg.formats:
        _write(out / f"{stem}.csv", _csv_with_header(cfg, result.to_csv(), provenance), verbose)
    if "json" in cfg.formats:
        payload = result.to_dict()
        payload["resolved_config"] = cfg.resolved()
        payload["constants_ledger"] = cfg.constants
        _write(out / f"{stem}.json", _json_dump(payload), verbose)


def _integer(value, path: str, least: int = 0) -> int:
    """A config integer >= least; digit strings pass, as JSON keys are strings."""
    if isinstance(value, str) and value.isdigit():
        value = int(value)
    if type(value) is not int or value < least:
        raise ConfigError(path, f"expected an integer >= {least}, got {value!r}")
    return value


def _number(value, path: str) -> float:
    """A finite config number >= 0.  Numeric strings pass: YAML 1.1 reads
    an exponent without a decimal point (1e-06, as JSON writes it) as text."""
    try:
        number = float(value) if type(value) in (int, float, str) else math.nan
    except ValueError:
        number = math.nan
    if not 0 <= number < math.inf:
        raise ConfigError(path, f"expected a finite number >= 0, got {value!r}")
    return number


def _mapping(exp: dict, key: str, default: dict) -> dict:
    """experiment.<key>, a mapping (default when absent)."""
    value = exp.get(key, default)
    if not isinstance(value, dict):
        raise ConfigError(f"experiment.{key}", f"expected a mapping, got {value!r}")
    return value


def _times(exp: dict, key: str, default: list) -> list[float]:
    """experiment.<key> (default when absent or null): finite numbers >= 0."""
    values = exp.get(key)
    values = default if values is None else values
    if not isinstance(values, list):
        raise ConfigError(f"experiment.{key}", f"expected a list of numbers, got {values!r}")
    return [_number(t, f"experiment.{key}") for t in values]


def _monomial_from_spec(spec, path: str) -> MonomialOp:
    if not isinstance(spec, dict):
        raise ConfigError(path, f"expected a mapping of eta/zeta factors, got {spec!r}")
    factors = {}
    for kind in ("eta", "zeta"):
        sites = spec.get(kind) or {}
        if not isinstance(sites, dict):
            raise ConfigError(f"{path}.{kind}", f"expected site: exponent pairs, got {sites!r}")
        factors[kind] = {_integer(x, f"{path}.{kind}"): _integer(k, f"{path}.{kind}", least=1)
                         for x, k in sites.items()}
    if not factors["eta"] and not factors["zeta"]:
        raise ConfigError(path, "monomial needs at least one ladder factor")
    return MonomialOp.from_dicts(**factors)


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_bounds(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    beta = _integer(exp.get("beta", 1), "experiment.beta", least=1)
    if cfg.model.graph.max_degree < 1:
        raise ConfigError("model.graph", "bounds need a graph with at least one edge")
    try:
        trace = bounds_mod.derivation_trace(cfg.mu, cfg.model.graph.max_degree,
                                            cfg.model.interaction_range, beta)
    except OverflowError as exc:
        raise ConfigError("experiment.beta", f"constants overflow a float: {exc}") from exc
    report = {
        "resolved_config": cfg.resolved(),
        "constants_ledger": cfg.constants,
        "trace": trace,
        "note": ("scale constants C1/C3/C4/C5 are configuration inputs with "
                 "default 1; the derivation leaves them unspecified"),
    }
    _write(out / "bounds.json", _json_dump(report), verbose)
    for entry in trace:
        note = f"   [{entry['note']}]" if "note" in entry else ""
        print(f"{entry['name']}: {entry['formula']} = {entry['value']!r}{note}")
    return EXIT_OK


def _run_scan(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    op = _monomial_from_spec(exp.get("evolve", {"zeta": {0: 1}}), "experiment.evolve")
    probe = _monomial_from_spec(exp.get("probe", {"eta": {0: 1}}), "experiment.probe")
    r_values = exp.get("r_values", [2, 3, 4])
    if not isinstance(r_values, list):
        raise ConfigError("experiment.r_values", f"expected a list, got {r_values!r}")
    r_values = [_integer(r, "experiment.r_values", least=1) for r in r_values]
    if not cfg.model.is_time_independent:
        raise ConfigError("model", "scan needs a time-independent model")
    if cfg.model.graph.max_degree < 1:
        raise ConfigError("model.graph", "scan needs a graph with at least one edge")
    if not all(0 <= x < cfg.model.graph.num_vertices for x in op.support):
        raise ConfigError("experiment.evolve", "site outside the graph")
    if len(probe.support) != 1:
        raise ConfigError("experiment.probe", "probe must be a single-site monomial")
    reachable = probe_sites(cfg.model.graph, op.support)
    for r in r_values:
        if r not in reachable:
            raise ConfigError("experiment.r_values",
                              f"no vertex at distance {r} from the evolved operator")
    basis = FockBasis(cfg.model.graph.num_vertices, per_site_cap=cfg.per_site_cap,
                      total_cap=cfg.total_cap)
    cells = None
    if "cone_fractions" in exp:
        k = cfg.model.graph.max_degree
        v = bounds_mod.velocity_bound(cfg.mu, k, cfg.model.interaction_range, probe.beta)
        fractions = _times(exp, "cone_fractions", [])
        cells = [(r, alpha * r / v) for r in r_values for alpha in fractions]
        for t_extra in _times(exp, "extra_times", []):
            cells.extend((r, t_extra) for r in r_values)
    t_values = _times(exp, "t_values", [0.0])
    result = lightcone_scan(cfg.model, op, probe, cfg.mu, r_values, t_values,
                            cells=cells, basis=basis,
                            eps=cfg.constants["epsilon"], c1=cfg.constants["C1"])
    provenance = {
        "r": "config:experiment.r_values", "t": "config:experiment grid",
        "exact": "measured:weighted commutator norm on the truncated basis",
        "bound_ensemble": "formula:grand-canonical cone bound",
        "bound_matrix_element": "formula:worst-case matrix-element cone bound",
        "ratio": "derived:exact/bound_ensemble",
        "tail_estimate": "formula:documented truncation-tail heuristic",
    }
    _write_table(cfg, out, "scan", result, provenance, verbose)
    violations = result.violations()
    if violations:
        print(f"light-cone soundness violated in {len(violations)} cells", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _run_certify(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    length = cfg.model.graph.num_vertices
    if not is_path(cfg.model.graph) or length % 2 == 0:
        raise ConfigError("model.graph", "certify needs a path graph of odd length: "
                                         "the window is labeled symmetrically about its center")
    state_spec = _mapping(exp, "state", {"kind": "unit_filling"})
    kind = state_spec.get("kind", "unit_filling")
    if kind == "unit_filling":
        occupations = [1] * length
    elif kind == "fock":
        occupations = state_spec.get("occupations")
        if (not isinstance(occupations, list) or len(occupations) != length
                or not all(type(n) is int and n >= 0 for n in occupations)):
            raise ConfigError("experiment.state.occupations",
                              f"need {length} nonnegative integers, one per site")
    else:
        raise ConfigError("experiment.state.kind", f"unknown state kind {kind!r}")
    obs_spec = _mapping(exp, "observable", {"kind": "density", "site": 0})
    if obs_spec.get("kind", "density") != "density":
        raise ConfigError("experiment.observable.kind", "only density is wired up")
    site = obs_spec.get("site", 0)
    if type(site) is not int:
        raise ConfigError("experiment.observable.site", f"expected an integer, got {site!r}")
    observable = MonomialOp.from_dicts(eta={site: 1}, zeta={site: 1})
    if "assumption" in exp:
        a = _mapping(exp, "assumption", {})
        values = {k: _number(a.get(k), f"experiment.assumption.{k}") for k in ("mu", "theta", "K0")}
        try:
            assumption = certify_mod.DensityAssumption(**values)
        except ValueError as exc:
            raise ConfigError("experiment.assumption", str(exc)) from exc
    else:
        assumption = certify_mod.fock_state_assumption(occupations)
    t = _number(exp.get("time", 0.0), "experiment.time")
    radius = exp.get("window_radius")
    if radius is not None:
        radius = _integer(radius, "experiment.window_radius", least=1)
    cap = _integer(exp.get("per_site_cap", cfg.per_site_cap), "experiment.per_site_cap", least=1)
    if cap > 255:
        raise ConfigError("experiment.per_site_cap", "must be in 1..255 (one byte per site)")
    total_cap = exp.get("total_cap")
    if total_cap is not None:
        total_cap = _integer(total_cap, "experiment.total_cap")
    try:
        value = certify_mod.certified_expectation(
            cfg.model, occupations, observable, t, assumption, radius=radius,
            per_site_cap=cap, total_cap=total_cap,
            c3=cfg.constants["C3"], c4=cfg.constants["C4"], eps=cfg.constants["epsilon"])
    except certify_mod.WindowError as exc:
        raise ConfigError("experiment.observable.site", str(exc)) from exc
    cert = value.to_dict()
    cert["resolved_config"] = cfg.resolved()
    cert["constants_ledger"] = cfg.constants
    _write(out / "certificate.json", _json_dump(cert), verbose)
    return EXIT_OK


def _run_cluster(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    length = cfg.model.graph.num_vertices
    if not is_path(cfg.model.graph):
        raise ConfigError("model.graph", "cluster needs a path graph: the clustering "
                                         "bound and its separations are chain forms")
    r_list = exp.get("r_values", [1, 2, 3])
    if not isinstance(r_list, list):
        raise ConfigError("experiment.r_values", f"expected a list, got {r_list!r}")
    r_list = [_integer(r, "experiment.r_values", least=1) for r in r_list]
    if any(r >= length for r in r_list):
        raise ConfigError("experiment.r_values", f"separations must stay below the "
                                                 f"chain length {length}")
    filling = _integer(exp.get("filling", 1), "experiment.filling", least=1)
    if filling > cfg.per_site_cap:
        raise ConfigError("experiment.filling", f"the N = {filling * length} sector is "
                                                f"empty under per_site_cap {cfg.per_site_cap}")
    observables = exp.get("observables", ["density"])
    if not (isinstance(observables, list)
            and all(isinstance(name, str) and name in cluster_mod.FAMILIES for name in observables)):
        raise ConfigError("experiment.observables", f"expected a list drawn from "
                                                    f"{sorted(cluster_mod.FAMILIES)}, got {observables!r}")
    try:
        report = cluster_mod.clustering_experiment(
            cfg.model, r_list, per_site_cap=cfg.per_site_cap, filling=filling,
            observables=tuple(observables),
            gap_threshold=_number(exp.get("gap_threshold", 1e-6), "experiment.gap_threshold"),
            c5=cfg.constants["C5"], eps=cfg.constants["epsilon"])
    except cluster_mod.GaplessError as exc:
        print(f"refusing to certify: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    provenance = {
        "exact": "measured:connected correlation of the sector ground state",
        "bound": "formula:gap-driven exponential clustering bound",
        "ratio": "derived:exact/bound",
    }
    _write_table(cfg, out, "cluster", report, provenance, verbose)
    return EXIT_OK


def _run_selftest(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    from .selftest import run_selftest
    exp = cfg.experiment
    report = run_selftest(seed=cfg.seed, samples=int(exp.get("samples", 20000)))
    payload = {"resolved_config": cfg.resolved(), "checks": report}
    _write(out / "selftest.json", _json_dump(payload), verbose)
    failed = [c for c in report if not c["passed"]]
    for check in report:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']} ({check['samples']} samples)")
    return EXIT_VIOLATION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def run(config_path: str, overrides: list[str] | None = None,
        out_dir: str | None = None, verbose: bool = False) -> int:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        text = apply_overrides(text, overrides or [])
        cfg = load_config(text, is_text=True)
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir) if out_dir else Path(cfg.output_dir)
    runner = {
        "bounds": _run_bounds, "scan": _run_scan, "certify": _run_certify,
        "cluster": _run_cluster, "selftest": _run_selftest,
    }[cfg.kind]
    try:
        return runner(cfg, out, verbose)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosonlc",
        description="Propagation bounds for number-conserving boson lattice "
                    "models, verified against exact truncated-space dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in [
            ("bounds", "print and save the analytic constant derivation trace"),
            ("scan", "light-cone scan: exact commutator norms vs bounds"),
            ("certify", "certified-truncation expectation value"),
            ("cluster", "ground-state clustering experiment"),
            ("selftest", "run the built-in property suite")]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to the YAML experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored")
        p.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    overrides = list(args.overrides) + [f"experiment.kind={args.command}"]
    return run(args.config, overrides=overrides, out_dir=args.out_dir,
               verbose=args.verbose)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
