"""Config-driven experiment runner.

Subcommands: ``bounds``, ``scan``, ``certify``, ``cluster``, ``selftest``.
Each reads the typed values that ``config.load_config`` checked against the
key table ``config.KEYS``; a runner checks only what needs the built graph.
The output directory (``--out``, else ``output.dir``) is made before the
subcommand runs, and a run that ends without writing a file removes the
levels of it that it made.  Exit codes: 0 success, 2 config error
(``config error: <path>: ...``; bound constants that overflow a float name
every key they are made from, and an output directory that cannot be made
or written names ``--out`` or ``output.dir`` and the file), 3 capacity
error, 4 property violation.  Outputs are byte-deterministic for a fixed
config and seed: no timestamps, sorted JSON keys, shortest-roundtrip
float formatting, and the resolved config embedded in every file.  Results and
config hold JSON types only (``load_config`` refuses others), so ``json.dumps``
writes them as they are.

``--threads`` is accepted and ignored: the library runs single-threaded
above BLAS, whose own thread count it leaves alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

from . import bounds as bounds_mod
from . import certify as certify_mod
from . import cluster as cluster_mod
from .config import ConfigError, ExperimentConfig, load_config
from .dynamics import ScanCell, lightcone_scan, probe_sites
from .fock import CapacityError, FockBasis
from .lattice import is_path
from .opspace import MonomialOp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VIOLATION = 4


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str, verbose: bool) -> None:
    path.write_text(text)
    if verbose:
        print(f"wrote {path}")


def _write_table(cfg: ExperimentConfig, out: Path, stem: str, result, row_type, rows,
                 verbose: bool) -> None:
    """``stem``.csv and ``stem``.json, each only if ``output.formats`` lists it:
    a CSV column per field of ``row_type`` (``rows`` may be empty), each named
    with its provenance in the header, and ``result`` as JSON with the config."""
    if "csv" in cfg.formats:
        columns = fields(row_type)
        header = {"resolved_config": cfg.raw, "constants": cfg.constants,
                  "provenance": {f.name: f.metadata["provenance"] for f in columns}}
        lines = ["# " + line for line in _json_dump(header).splitlines()]
        lines.append(",".join(f.name for f in columns))
        lines.extend(",".join(str(getattr(row, f.name)) for f in columns) for row in rows)
        _write(out / f"{stem}.csv", "\n".join(lines) + "\n", verbose)
    if "json" in cfg.formats:
        payload = {**asdict(result), "resolved_config": cfg.raw,
                   "constants_ledger": cfg.constants}
        _write(out / f"{stem}.json", _json_dump(payload), verbose)


@contextmanager
def _constants_of(*keys: str):
    """An OverflowError inside becomes a ConfigError naming ``keys``, the
    config keys the constants computed inside are made from."""
    try:
        yield
    except OverflowError as exc:
        raise ConfigError(", ".join(keys), f"constants overflow a float: {exc}") from exc


def _run_bounds(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    if cfg.model.graph.max_degree < 1:
        raise ConfigError("model.graph", "bounds need a graph with at least one edge")
    with _constants_of("ensemble.mu", "model.graph", "model.range", "experiment.beta"):
        trace = bounds_mod.derivation_trace(cfg.mu, cfg.model.graph.max_degree,
                                            cfg.model.interaction_range, cfg.experiment["beta"])
    report = {"resolved_config": cfg.raw, "constants_ledger": cfg.constants,
              "trace": trace, "note": ("scale constants C1/C3/C4/C5 are configuration inputs "
                                       "with default 1; the derivation leaves them unspecified")}
    _write(out / "bounds.json", _json_dump(report), verbose)
    for entry in trace:
        note = f"   [{entry['note']}]" if "note" in entry else ""
        print(f"{entry['name']}: {entry['formula']} = {entry['value']!r}{note}")
    return EXIT_OK


def _run_scan(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    op, probe, r_values = exp["evolve"], exp["probe"], exp["r_values"]
    if not cfg.model.is_time_independent:
        raise ConfigError("model", "scan needs a time-independent model")
    if cfg.model.graph.max_degree < 1:
        raise ConfigError("model.graph", "scan needs a graph with at least one edge")
    if not all(0 <= x < cfg.model.graph.num_vertices for x in op.support):
        raise ConfigError("experiment.evolve", "site outside the graph")
    if len(probe.support) != 1:
        raise ConfigError("experiment.probe", "probe must be a single-site monomial")
    grid = exp["cone_fractions"] is None    # the r x t_values grid, else cone times
    unread = "extra_times" if grid else "t_values"
    if cfg.raw["experiment"].get(unread) is not None:
        raise ConfigError(f"experiment.{unread}", f"ignored with{'out' * grid} cone_fractions")
    reachable = probe_sites(cfg.model.graph, op.support)
    for r in r_values:
        if r not in reachable:
            raise ConfigError("experiment.r_values",
                              f"no vertex at distance {r} from the evolved operator")
    basis = FockBasis(cfg.model.graph.num_vertices, per_site_cap=cfg.per_site_cap,
                      total_cap=cfg.total_cap)
    with _constants_of("ensemble.mu", "ensemble.per_site_cap", "model.graph", "model.range",
                       "experiment.probe"):
        if grid:
            cells = [(r, t) for r in r_values for t in exp["t_values"]]
        else:
            v = bounds_mod.velocity_bound(cfg.mu, cfg.model.graph.max_degree,
                                          cfg.model.interaction_range, probe.beta)
            cells = [(r, alpha * r / v) for r in r_values for alpha in exp["cone_fractions"]]
            cells.extend((r, t) for t in exp["extra_times"] for r in r_values)
        result = lightcone_scan(cfg.model, op, probe, cfg.mu, cells, basis,
                                eps=cfg.constants["epsilon"], c1=cfg.constants["C1"])
    _write_table(cfg, out, "scan", result, ScanCell, result.cells, verbose)
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
    occupations = [1] * length if exp["state.kind"] == "unit_filling" else exp["state.occupations"]
    if occupations is None or len(occupations) != length:
        raise ConfigError("experiment.state.occupations",
                          f"need {length} nonnegative integers, one per site")
    site = exp["observable.site"]
    observable = MonomialOp.from_dicts(eta={site: 1}, zeta={site: 1})
    try:
        assumption = (certify_mod.fock_state_assumption(occupations) if exp["assumption"] is None
                      else certify_mod.DensityAssumption(*(exp[f"assumption.{k}"]
                                                           for k in ("mu", "theta", "K0"))))
    except ValueError as exc:   # a derived mu below the floor; the config checked the rest
        raise ConfigError("experiment.state.occupations", str(exc)) from exc
    try:
        with _constants_of("experiment.time", "experiment.state", "experiment.assumption",
                           "experiment.window_radius", "model.range", "constants.epsilon"):
            value = certify_mod.certified_expectation(
                cfg.model, occupations, observable, exp["time"], assumption,
                radius=exp["window_radius"], per_site_cap=exp["per_site_cap"],
                total_cap=exp["total_cap"], c3=cfg.constants["C3"], c4=cfg.constants["C4"],
                eps=cfg.constants["epsilon"])
    except certify_mod.WindowError as exc:
        raise ConfigError("experiment.observable.site", str(exc)) from exc
    cert = {**asdict(value), "value": {"re": value.value.real, "im": value.value.imag},
            "status": value.status, "resolved_config": cfg.raw,
            "constants_ledger": cfg.constants}
    _write(out / "certificate.json", _json_dump(cert), verbose)
    return EXIT_OK


def _run_cluster(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    exp = cfg.experiment
    length = cfg.model.graph.num_vertices
    if not cfg.model.is_time_independent:
        raise ConfigError("model", "cluster needs a time-independent model")
    if not is_path(cfg.model.graph):
        raise ConfigError("model.graph", "cluster needs a path graph: the clustering "
                                         "bound and its separations are chain forms")
    if any(r >= length for r in exp["r_values"]):
        raise ConfigError("experiment.r_values", f"separations must stay below the "
                                                 f"chain length {length}")
    if exp["filling"] > cfg.per_site_cap:
        raise ConfigError("experiment.filling", f"the N = {exp['filling'] * length} sector is "
                                                f"empty under per_site_cap {cfg.per_site_cap}")
    try:
        report = cluster_mod.clustering_experiment(
            cfg.model, exp["r_values"], per_site_cap=cfg.per_site_cap, filling=exp["filling"],
            observables=tuple(exp["observables"]), gap_threshold=exp["gap_threshold"],
            c5=cfg.constants["C5"], eps=cfg.constants["epsilon"])
    except cluster_mod.GaplessError as exc:
        print(f"refusing to certify: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    _write_table(cfg, out, "cluster", report, cluster_mod.ClusterRow, report.rows, verbose)
    return EXIT_OK


def _run_selftest(cfg: ExperimentConfig, out: Path, verbose: bool) -> int:
    from .selftest import run_selftest
    report = run_selftest(seed=cfg.seed, samples=cfg.experiment["samples"])
    payload = {"resolved_config": cfg.raw, "checks": report}
    _write(out / "selftest.json", _json_dump(payload), verbose)
    for check in report:
        print(f"[{'PASS' if check['passed'] else 'FAIL'}] {check['name']} "
              f"({check['samples']} samples)")
    return EXIT_OK if all(check["passed"] for check in report) else EXIT_VIOLATION


RUNNERS = {  # subcommand -> (runner, help)
    "bounds": (_run_bounds, "print and save the analytic constant derivation trace"),
    "scan": (_run_scan, "light-cone scan: exact commutator norms vs bounds"),
    "certify": (_run_certify, "certified-truncation expectation value"),
    "cluster": (_run_cluster, "ground-state clustering experiment"),
    "selftest": (_run_selftest, "run the built-in property suite"),
}


def run(config_path: str, overrides: list[str] | None = None,
        out_dir: str | None = None, verbose: bool = False) -> int:
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    made: list[Path] = []      # the output levels this run makes, deepest first
    try:
        cfg = load_config(text, is_text=True, overrides=overrides or [])
        out = Path(out_dir or cfg.output_dir)
        made = [level for level in (out, *out.parents) if not level.exists()]
        try:
            out.mkdir(parents=True, exist_ok=True)
            code = RUNNERS[cfg.kind][0](cfg, out, verbose)
        except OSError as exc:      # making the output directory, or writing into it
            raise ConfigError("--out" if out_dir else "output.dir",
                              f"cannot write {exc.filename or out}: {exc.strerror or exc}") from exc
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        code = EXIT_CAPACITY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    for level in made:      # while empty: a level holding a written file stays
        try:
            level.rmdir()
        except OSError:
            break
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bosonlc",
        description="Propagation bounds for number-conserving boson lattice "
                    "models, verified against exact truncated-space dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in RUNNERS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to the YAML experiment config")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--out", dest="out_dir", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="accepted and ignored")
        p.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    return run(args.config, overrides=args.overrides + [f"experiment.kind={args.command}"],
               out_dir=args.out_dir, verbose=args.verbose)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
