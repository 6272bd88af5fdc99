"""Self-time arithmetic and absent-name handling of the tracer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_times_on_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.x", 2.0, 3.0, 1),
        span("b", 3.5, 6.0, 0),     # overlaps a by 0.5: counted once in root
        span("c", 9.0, 12.0, 0),    # runs past root's end: clipped to 1.0
        span("later", 20.0, 21.0, -1),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10.0 - (5.0 + 1.0), 2.0, 1.0, 2.5, 3.0, 1.0])


def test_covered_merges_and_clips():
    assert tracing.covered([], 0.0, 1.0) == 0.0
    assert tracing.covered([(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)], 0.0, 1.0) == pytest.approx(0.75)


def test_layer_metrics_add_up_to_wall():
    spans = [
        ["dynamics.lightcone_self_s", 1.0, 9.0, -1, 0],
        ["dynamics.evolved_blocks_s", 2.0, 5.0, 0, 2048],
        ["dynamics.commutator_norm_s", 5.0, 6.0, 0, 0],
        ["opspace.f_beta_s", 6.0, 7.0, 0, 1024],
    ]
    m = tracing.layer_metrics_from(spans, {"fock.basis_states": 7}, (0.0, 10.0))
    assert m["dynamics.lightcone_self_s"] == pytest.approx(3.0)
    assert m["dynamics.evolved_blocks_calls"] == 1
    assert m["opspace.f_beta_rss_mb"] == pytest.approx(1.0)
    assert m["fock.basis_states"] == 7
    assert m["trace.other_s"] == pytest.approx(2.0)
    time_metrics = {name for name, _, _ in tracing.LAYERS}
    assert sum(m[k] for k in time_metrics) + m["trace.other_s"] == pytest.approx(10.0)


def test_absent_names_mark_their_metrics_and_counters():
    present = {name for name, _, _ in tracing.LAYERS} - {"dynamics.evolved_operator_s",
                                                          "bounds.cell_bounds_s"}
    assert tracing.absent_metrics(present) == {
        "dynamics.evolved_operator_s", "dynamics.evolved_operator_nnz",
        "dynamics.evolved_operator_rss_mb", "bounds.cell_bounds_s"}


INSTALL_PROBE = """
import json
import tracing
tracing.LAYERS = (("opspace.f_beta_s", "opspace", "no_such_function"),
                  ("dynamics.ground_state_s", "dynamics", "ground_state"),
                  ("cluster.self_s", "no_such_module", "run"))
tracer = tracing.Tracer()
tracer.install()
import numpy as np, scipy.sparse as sp
from bosonlc import cluster, dynamics
assert cluster.ground_state is dynamics.ground_state  # rebound where imported
cluster.ground_state(sp.identity(2, format="csr") + sp.diags([0.0, 1.0]))
print(json.dumps({"absent": tracer.absent, "spans": [s[0] for s in tracer.spans]}))
"""


def test_install_wraps_every_binding_and_reports_missing_names():
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    out = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == {
        "absent": ["cluster.self_s", "opspace.f_beta_calls", "opspace.f_beta_rss_mb",
                   "opspace.f_beta_s"],
        "spans": ["dynamics.ground_state_s"]}


def test_every_layer_metric_is_declared_in_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    produced = set(tracing.layer_metrics_from([], {}, (0.0, 1.0)))
    derived = {"dynamics.checked_cell_frac", "dynamics.unresolved_cells", "trace.overhead_s"}
    assert produced | derived == set(declared)
