"""Benchmark of bosonlc: three seeded workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``./src``.
Every timed run is a fresh child process (``child.py``) started one at a
time, so no cache carries over between runs and ``ru_maxrss`` (read with
``os.wait4``) belongs to that run alone.  This process imports no numpy and
only waits while a child runs.

* ``--trace 0``: three set-up-only children, then workload children until
  ``--seconds`` have passed.  Reports the median ``wall_s``,
  ``items_per_s``, ``setup_s`` (over every child) and ``peak_rss_mb``.
* ``--trace 1``: pairs of one untraced and one traced child until half of
  ``--seconds`` has passed.  Reports the per-layer metrics of the traced
  children (median per metric) and ``trace.overhead_s``, the traced minus
  the untraced median wall time.

Every child's outputs are checked (see ``workloads.check_items``); the
reference comparison applies to seed 0.  ``failed`` counts items that
raised, exited non-zero or failed a check.  The environment record goes to
standard output before the result line, and the whole record, spans
included, to ``.perfbench_work/<workload>-seed<N>-trace<T>.json``.

``--update-reference`` reruns seed 0 once and rewrites the stored
reference outputs of the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_ONLY_RUNS = 3
DEADLINE_S = 170.0
WORK_DIR = ".perfbench_work"

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


PER_LAYER = (
    "fock.basis_s", "fock.basis_states", "fock.hamiltonian_s", "fock.hamiltonian_nnz",
    "fock.ladder_s", "fock.ladder_calls",
    "dynamics.eig_s", "dynamics.eig_max_dim",
    "dynamics.engine_init_s", "dynamics.evolved_blocks_s", "dynamics.evolved_blocks_calls",
    "dynamics.commutator_norm_s", "dynamics.commutator_norm_calls",
    "dynamics.lightcone_self_s", "bounds.cell_bounds_s",
    "dynamics.evolved_operator_s", "dynamics.evolved_operator_nnz",
    "opspace.f_beta_s", "opspace.f_beta_calls", "opspace.to_matrix_s", "opspace.norm_s",
    "bounds.integrate_envelope_s",
    "dynamics.engine_init_rss_mb", "dynamics.evolved_operator_rss_mb", "opspace.f_beta_rss_mb",
    "certify.self_s", "dynamics.ground_state_s", "dynamics.correlation_s", "cluster.self_s",
    "cli.config_s", "cli.write_s",
    "dynamics.checked_cell_frac", "dynamics.unresolved_cells",
    "trace.overhead_s", "trace.other_s",
)
PER_LAYER_UNITS = {name: _unit(name) for name in PER_LAYER}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result; exits non-zero, prints none."""


class Runner:
    """Starts children one at a time inside one run's work directory."""

    def __init__(self, root: Path, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(self, *, setup_only: bool = False, trace: bool = False) -> dict:
        """Run one child to completion; its result record plus exit and RSS."""
        self.count += 1
        result = self.workdir / f"child{self.count}.json"
        log = self.workdir / f"child{self.count}.log"
        flags = ["--setup-only"] * setup_only + ["--trace"] * trace
        with open(log, "wb") as fh:
            cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.workdir),
                   repr(time.perf_counter()), str(result)] + flags
            pid = os.posix_spawn(sys.executable, cmd, self.env,
                                 file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                                               (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)])
            status, rusage = self._wait(pid)
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not result.is_file():
            tail = log.read_text(errors="replace")[-2000:]
            return {"crashed": f"child exited with {code}: {tail}"}
        record = json.loads(result.read_text())
        record["peak_rss_mb"] = rusage.ru_maxrss / 1024.0
        return record

    def _wait(self, pid: int):
        while True:
            done, status, rusage = os.wait4(pid, os.WNOHANG)
            if done:
                return status, rusage
            if time.perf_counter() > self.deadline:
                os.kill(pid, signal.SIGKILL)
                os.wait4(pid, 0)
                raise BenchError(f"run exceeded {DEADLINE_S:.0f} s; child killed")
            time.sleep(0.02)


def check_child(workload: str, record: dict, reference: dict | None) -> list[str]:
    """Per-item failure reasons ("" = passed) for one workload child."""
    n_items = workloads.item_count(workload)
    if "crashed" in record:
        return [record["crashed"]] * n_items
    try:
        outputs = load_outputs(workload, record)
        return workloads.check_items(workload, outputs, reference)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"] * n_items


def load_outputs(workload: str, record: dict) -> dict:
    out = Path(record["out"])
    outputs = {"exit_codes": record["exit_codes"]}
    files = {"lightcone_scan": {"scan": "scan/scan.json"},
             "certify_cluster": {"certify": "certify/certificate.json",
                                 "cluster": "cluster/cluster.json"}}.get(workload, {})
    for role, name in files.items():
        if record["exit_codes"].get(role) == 0:
            outputs[role] = json.loads((out / name).read_text())
    if "growth" in record:
        outputs["growth"] = record["growth"]
    return outputs


def refuse_oversubscription(env: dict) -> None:
    """Workers times the most threads any loaded BLAS uses must fit in nproc."""
    blas = max(env["blas_threads"].values(), default=1)
    threads = env["workers"] * blas
    if threads > env["nproc"]:
        raise BenchError(f"{env['workers']} workers x {blas} BLAS threads = {threads} "
                         f"exceeds nproc {env['nproc']}")


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    setups = [runner.child(setup_only=True) for _ in range(SETUP_ONLY_RUNS)]
    crashed = [s["crashed"] for s in setups if "crashed" in s]
    if crashed:
        raise BenchError(f"set-up child failed: {crashed[0]}")
    env = setups[0]["environment"]
    refuse_oversubscription(env)
    plain, traced = [], []
    start = time.perf_counter()
    budget = seconds / 2.0 if trace else seconds
    while True:
        plain.append(runner.child())
        if trace:
            traced.append(runner.child(trace=True))
        crashed = "crashed" in plain[-1] or (trace and "crashed" in traced[-1])
        if crashed or time.perf_counter() - start >= budget:
            break
    return {"environment": env, "setups": setups, "plain": plain, "traced": traced}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, runs: dict) -> dict:
    ok = [r for r in runs["plain"] if "crashed" not in r]
    items = workloads.item_count(workload)
    setups = [r["setup_s"] for r in runs["setups"] + ok]
    values = {
        "wall_s": _median([r["wall_s"] for r in ok]),
        "items_per_s": _median([items / r["wall_s"] for r in ok]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
    }
    return values


def per_layer(workload: str, runs: dict) -> tuple[dict, list[str]]:
    traced = [r for r in runs["traced"] if "crashed" not in r]
    plain = [r for r in runs["plain"] if "crashed" not in r]
    values = {}
    for name in PER_LAYER:
        samples = [r["layers"][name] for r in traced if name in r["layers"]]
        values[name] = _median(samples)
    health = [workloads.cell_health(load_outputs(workload, r)) for r in traced
              if workload == "lightcone_scan"]
    values["dynamics.checked_cell_frac"] = _median([h[0] for h in health])
    values["dynamics.unresolved_cells"] = _median([h[1] for h in health])
    values["trace.overhead_s"] = (_median([r["wall_s"] for r in traced])
                                  - _median([r["wall_s"] for r in plain]))
    absent = sorted({name for r in traced for name in r.get("absent", [])})
    return values, absent


def layer_table(values: dict) -> list[str]:
    """Cost of each scan-pipeline layer, as a human-readable table."""
    def per_call(metric, calls):
        n = values[calls]
        return f"{values[metric] / n:.4f} s per call x {n:g}" if n else "not called"
    return [
        f"  basis enumeration     {values['fock.basis_s']:.4f} s "
        f"({values['fock.basis_states']:g} states)",
        f"  H assembly            {values['fock.hamiltonian_s']:.4f} s "
        f"({values['fock.hamiltonian_nnz']:g} nnz)",
        f"  sector eigensolves    {values['dynamics.eig_s']:.4f} s "
        f"(largest sector {values['dynamics.eig_max_dim']:g})",
        f"  operator rotation     {values['dynamics.engine_init_s']:.4f} s "
        "(engine init self time)",
        f"  evolution per time    {per_call('dynamics.evolved_blocks_s', 'dynamics.evolved_blocks_calls')}",
        f"  commutator per cell   {per_call('dynamics.commutator_norm_s', 'dynamics.commutator_norm_calls')}",
        f"  sparse re-assembly    {values['dynamics.evolved_operator_s']:.4f} s "
        f"({values['dynamics.evolved_operator_nnz']:g} nnz)",
        f"  growth functionals    {per_call('opspace.f_beta_s', 'opspace.f_beta_calls')}",
        f"  envelope integration  {values['bounds.integrate_envelope_s']:.4f} s",
    ]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.update_reference and args.seed != workloads.REFERENCE_SEED:
        parser.error(f"references are made with --seed {workloads.REFERENCE_SEED}")
    return args


def run(args, root: Path) -> dict:
    if not (root / "src" / "bosonlc" / "__init__.py").is_file():
        raise BenchError(f"no bosonlc sources under {root / 'src'}; run from a checkout root")
    workdir = root / WORK_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        for role, cfg in workloads.make_configs(args.workload, args.seed).items():
            (workdir / f"{role}.yaml").write_text(json.dumps(cfg, indent=1))
        runner = Runner(root, args.workload, workdir)
        if args.update_reference:
            record = runner.child()
            if "crashed" in record:
                raise BenchError(record["crashed"])
            summary = workloads.summarize(args.workload, load_outputs(args.workload, record))
            workloads.reference_path(args.workload).write_text(
                json.dumps(summary, indent=1, sort_keys=True) + "\n")
            return {}
        runs = measure(runner, args.seconds, bool(args.trace))
        reference = (workloads.load_reference(args.workload)
                     if args.seed == workloads.REFERENCE_SEED else None)
        failures = [reason for r in runs["plain"] + runs["traced"]
                    for reason in check_child(args.workload, r, reference)]
        runs["failures"] = [f for f in failures if f]
        runs["attempted"] = len(failures)
        if args.trace:
            runs["metrics"], runs["absent"] = per_layer(args.workload, runs)
        else:
            runs["metrics"] = end_to_end(args.workload, runs)
        return runs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, root: Path, runs: dict) -> dict:
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {name: {"value": runs["metrics"][name], "unit": unit} for name, unit in units.items()}
    failed = len(runs["failures"])
    attempted = runs["attempted"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, **runs}
    out = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print("environment " + json.dumps({**runs["environment"], "seed": args.seed},
                                      sort_keys=True))
    for reason in runs["failures"][:5]:
        print(f"FAILED: {reason}")
    runs_made = len(runs["plain"]) + len(runs["traced"])
    print(f"{args.workload}: {runs_made} runs, failed_frac {failed / attempted:.4g} "
          f"({failed}/{attempted} items)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.trace:
        if runs["absent"]:
            print("absent (reported as 0): " + ", ".join(runs["absent"]))
        print("layer table (traced run):")
        print("\n".join(layer_table(runs["metrics"])))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        runs = run(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.update_reference:
        print(f"wrote {workloads.reference_path(args.workload)}")
        return 0
    print(json.dumps(report(args, root, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
