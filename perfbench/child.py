"""One run of one workload, in a fresh process started by ``run.py``.

    python3 perfbench/child.py WORKLOAD WORKDIR LAUNCH RESULT [--setup-only] [--trace]

``LAUNCH`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is CLOCK_MONOTONIC, shared by every
process, so ``setup_s`` below spans interpreter start, imports and config
load.  ``wall_s`` covers the workload only.  The result (timings, exit
codes, growth records, environment, and with ``--trace`` the per-layer
metrics and spans) goes to the JSON file ``RESULT``; the CLI's own outputs
go under ``WORKDIR/out``.  The parent checks them after this process ends,
so no check runs inside the timed region.

Without ``--trace`` this process never imports the tracing module.  The
library runs with its default threading: one scan worker (``--threads 1``)
and OpenBLAS at its own default.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

WORKERS = 1


def growth_envelope(cfg) -> list[dict]:
    """Criterion-6 path: measured projected growth functionals vs envelope.

    Layers are reached through their modules, not bound names, so the
    wrappers installed by the tracer are the ones called.
    """
    from bosonlc import bounds, dynamics, fock, opspace
    from workloads import GROWTH_TIMES
    model, mu = cfg.model, cfg.mu
    g = model.graph
    basis = fock.FockBasis(g.num_vertices, per_site_cap=cfg.per_site_cap)
    op = opspace.MonomialOp.from_dicts(zeta={0: 1})
    engine = dynamics.HeisenbergScanEngine(model, basis, op)
    w = opspace.MuWeights(mu, basis)
    v = bounds.velocity_bound(mu, g.max_degree, model.interaction_range, 1)
    coup = bounds.m_matrix_bound(mu, 1, 0, g.max_degree)
    a0 = op.to_matrix(basis)
    seeds = {0: opspace.f_beta_expectation(a0, 0, 1, w, projected=False)}
    c0 = bounds.initial_envelope(seeds, [0], 0, mu, 1, g,
                                 norm_sq=opspace.weighted_norm_sq(a0, w))
    times = [fraction * r / v for fraction, r in GROWTH_TIMES]
    env = bounds.integrate_envelope(g, coup, c0, times, 0)
    tail = w.tail_estimate()
    records = []
    for t in times:
        a_t = engine.evolved_operator(t)
        for x in g.vertices():
            measured = opspace.f_beta_expectation(a_t, x, 1, w, projected=True)
            records.append({"t": t, "site": x, "measured": measured,
                            "envelope": env.at(x, t), "tail": tail})
        del a_t
    return records


def run_workload(workload: str, configs: dict, loaded: dict,
                 out: Path) -> tuple[dict, list | None]:
    from bosonlc import cli
    if workload == "growth_envelope":
        return {}, growth_envelope(loaded["scan"])
    threads = ["--threads", str(WORKERS)]
    if workload == "lightcone_scan":
        return {"scan": cli.main(["scan", str(configs["scan"]), "--out",
                                  str(out / "scan")] + threads)}, None
    codes = {}
    for role in ("certify", "cluster"):
        codes[role] = cli.main([role, str(configs[role]), "--out", str(out / role)] + threads)
    return codes, None


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded, by file name."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[Path(path).name] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    blas = {}
    for name, mod in (("numpy", numpy), ("scipy", scipy)):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[name] = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BOSONLC_THREADS")},
        "workers": WORKERS,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("workdir", type=Path)
    parser.add_argument("launch", type=float)
    parser.add_argument("result", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    from bosonlc import cli, config  # noqa: F401  (cli: its import is set-up cost too)
    configs = {p.stem: p for p in sorted(args.workdir.glob("*.yaml"))}
    loaded = {role: config.load_config(str(path)) for role, path in configs.items()}
    ready = time.perf_counter()
    result = {"setup_s": ready - args.launch}
    if not args.setup_only:
        out = args.workdir / "out" / args.result.stem
        codes, growth = run_workload(args.workload, configs, loaded, out)
        done = time.perf_counter()
        result.update(wall_s=done - ready, exit_codes=codes, out=str(out))
        if growth is not None:
            result["growth"] = growth
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(ready, done)
            result["absent"] = tracer.absent
            result["spans"] = tracer.spans
    result["environment"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
