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


def _monomial_from_spec(spec: dict, path: str) -> MonomialOp:
    eta = {int(k): int(v) for k, v in (spec.get("eta") or {}).items()}
    zeta = {int(k): int(v) for k, v in (spec.get("zeta") or {}).items()}
    if not eta and not zeta:
        raise ConfigError(path, "monomial needs at least one ladder factor")
    return MonomialOp.from_dicts(eta=eta, zeta=zeta)


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_bounds(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    beta = int(exp.get("beta", 1))
    trace = bounds_mod.derivation_trace(cfg.mu, cfg.model.graph.max_degree,
                                        cfg.model.interaction_range, beta)
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
    r_values = [int(r) for r in exp.get("r_values", [2, 3, 4])]
    if not cfg.model.is_time_independent:
        raise ConfigError("model", "scan needs a time-independent model")
    if not all(0 <= x < cfg.model.graph.num_vertices for x in op.support):
        raise ConfigError("experiment.evolve", "site outside the graph")
    if len(probe.support) != 1:
        raise ConfigError("experiment.probe", "probe must be a single-site monomial")
    reachable = probe_sites(cfg.model.graph, op.support)
    for r in r_values:
        if r < 1:
            raise ConfigError("experiment.r_values", f"separation {r} is below 1")
        if r not in reachable:
            raise ConfigError("experiment.r_values",
                              f"no vertex at distance {r} from the evolved operator")
    basis = FockBasis(cfg.model.graph.num_vertices, per_site_cap=cfg.per_site_cap,
                      total_cap=cfg.total_cap)
    cells = None
    if "cone_fractions" in exp:
        k = cfg.model.graph.max_degree
        v = bounds_mod.velocity_bound(cfg.mu, k, cfg.model.interaction_range, probe.beta)
        cells = [(r, alpha * r / v) for r in r_values for alpha in exp["cone_fractions"]]
        for t_extra in exp.get("extra_times", []) or []:
            cells.extend((r, float(t_extra)) for r in r_values)
    t_values = [float(t) for t in exp.get("t_values", [0.0])]
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
    state_spec = exp.get("state", {"kind": "unit_filling"})
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
    obs_spec = exp.get("observable", {"kind": "density", "site": 0})
    if obs_spec.get("kind", "density") != "density":
        raise ConfigError("experiment.observable.kind", "only density is wired up")
    site = obs_spec.get("site", 0)
    if type(site) is not int:
        raise ConfigError("experiment.observable.site", f"expected an integer, got {site!r}")
    observable = MonomialOp.from_dicts(eta={site: 1}, zeta={site: 1})
    if "assumption" in exp:
        a = exp["assumption"]
        assumption = certify_mod.DensityAssumption(
            mu=float(a["mu"]), theta=float(a["theta"]), K0=float(a["K0"]))
    else:
        assumption = certify_mod.fock_state_assumption(occupations)
    t = exp.get("time", 0.0)
    if type(t) not in (int, float) or not 0 <= t < math.inf:
        raise ConfigError("experiment.time", f"expected a finite time >= 0, got {t!r}")
    radius = exp.get("window_radius")
    if radius is not None and (type(radius) is not int or radius < 1):
        raise ConfigError("experiment.window_radius", f"expected an integer >= 1, got {radius!r}")
    try:
        value = certify_mod.certified_expectation(
            cfg.model, occupations, observable, float(t), assumption, radius=radius,
            per_site_cap=exp.get("per_site_cap", cfg.per_site_cap),
            total_cap=exp.get("total_cap"),
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
    r_list = [int(r) for r in exp.get("r_values", [1, 2, 3])]
    if not is_path(cfg.model.graph):
        raise ConfigError("model.graph", "cluster needs a path graph: the clustering "
                                         "bound and its separations are chain forms")
    try:
        report = cluster_mod.clustering_experiment(
            cfg.model, r_list, per_site_cap=cfg.per_site_cap,
            filling=int(exp.get("filling", 1)),
            observables=tuple(exp.get("observables", ["density"])),
            gap_threshold=float(exp.get("gap_threshold", 1e-6)),
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
