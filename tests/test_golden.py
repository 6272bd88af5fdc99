"""Golden outputs of the shipped configs and of one 5-site scan.

The reference JSON under ``tests/golden`` was written by the CLI before the
fixed-N sector bases landed.  Closed-form fields must match exactly.  The
certificate and the selftest report are compared whole: their measured
values came out byte-identical.  The certificate was rewritten twice.
When state propagation moved from Lanczos steps to one Chebyshev expansion,
its value moved by 6.8e-15, to the dense-expm value, and the evolution
fields and status replaced the old tolerance budget.  When the expansion's
Bessel coefficients moved to Miller's recurrence and its order to the
actual Bessel tail, the value moved by 1.1e-16 (to 6.9e-18 of the dense-expm
value) and the evolution terms and bound moved with the order.  The
cluster report is measured by a Lanczos recurrence that stops on ARPACK's
tolerance rule at 1e-12 (ARPACK itself wrote the golden), so its gap and
energy must agree to 1e-12 relative, its correlations to 1e-12 absolute and
1e-6 relative, and the quantities derived from them to the same relative
tolerance.  ``scan_chain7.json`` is the output of ``bosonlc scan
configs/scan_chain7.yaml``; the acceptance suite's ``big_scan`` fixture
computes the same 25 cells and checks them by ``assert_scan_matches``, so
the 7-site scan runs once per suite.  ``bounds_scan_chain7.json`` is the
output of ``bosonlc bounds configs/scan_chain7.yaml``, all closed forms, so it
must match exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from bosonlc.cli import main
from bosonlc.config import load_config
from bosonlc.fock import FockBasis, build_hamiltonian

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_config(name: str, kind: str, out: Path) -> dict:
    assert main([kind, str(ROOT / "configs" / f"{name}.yaml"), "--out", str(out)]) == 0
    filename = {"bounds": "bounds.json", "certify": "certificate.json",
                "cluster": "cluster.json", "selftest": "selftest.json"}[kind]
    return json.loads((out / filename).read_text())


def golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("name,kind", [("certify_chain11", "certify"),
                                       ("selftest", "selftest"), ("scan_chain7", "bounds")])
def test_golden_exact(name, kind, tmp_path):
    # scan_chain7.json is the scan's golden; its bounds trace has a file of its own
    ref = f"bounds_{name}" if kind == "bounds" else name
    assert run_config(name, kind, tmp_path) == golden(ref)


def test_golden_cluster_mott8(tmp_path):
    got = run_config("cluster_mott8", "cluster", tmp_path)
    ref = golden("cluster_mott8")
    measured = {"gap", "energy", "fit_rate", "rows"}
    assert {k: v for k, v in got.items() if k not in measured} == \
        {k: v for k, v in ref.items() if k not in measured}
    assert got["gap"] == pytest.approx(ref["gap"], rel=1e-12)
    assert got["energy"] == pytest.approx(ref["energy"], rel=1e-12)
    assert got["fit_rate"] == pytest.approx(ref["fit_rate"], rel=1e-6)
    assert len(got["rows"]) == len(ref["rows"])
    for row, want in zip(got["rows"], ref["rows"]):
        assert (row["observable"], row["r"]) == (want["observable"], want["r"])
        assert abs(row["exact"] - want["exact"]) <= 1e-12
        assert row["exact"] == pytest.approx(want["exact"], rel=1e-6)
        # the bound depends on the measured gap only
        assert row["bound"] == pytest.approx(want["bound"], rel=1e-12)
        for key in ("ratio", "minimal_c5"):
            assert row[key] == pytest.approx(want[key], rel=1e-6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: the uniform start vector is "
                                       "reflection-even, so the gap is the even states' gap")
def test_cluster_mott8_gap_is_the_sector_gap(tmp_path):
    # the reported gap is 35.1444; dense eigh of the sector gives 35.1271,
    # the gap to a reflection-odd state
    got = run_config("cluster_mott8", "cluster", tmp_path)
    cfg = load_config(ROOT / "configs" / "cluster_mott8.yaml")
    sites = cfg.model.graph.num_vertices
    basis = FockBasis(sites, cfg.per_site_cap, number=sites)
    evals = np.linalg.eigvalsh(build_hamiltonian(cfg.model, basis).toarray())
    assert got["gap"] == pytest.approx(evals[1] - evals[0], rel=1e-12)


def assert_scan_matches(got: dict, ref: dict) -> None:
    """A scan's cells and metadata against a golden ``scan.json``.

    Closed-form fields (bounds, times, tails, the metadata's constants, the
    series' orders and dense-routed cells) must match exactly; ``exact``
    (and ``ratio``, which is exact over a closed-form bound) to 1e-12
    relative, the summation-order round-off of the Gram matrix;
    ``max_remainder_ratio`` to 1e-9 relative.  Metadata keys added since the
    golden was written are not compared.
    """
    meta, ref_meta = got["metadata"], ref["metadata"]
    assert {k: meta[k] for k in ref_meta if k != "series"} == \
        {k: v for k, v in ref_meta.items() if k != "series"}
    series, ref_series = meta["series"], ref_meta["series"]
    for key in ("max_order", "order", "dense_cells"):
        assert series[key] == ref_series[key]
    assert series["max_remainder_ratio"] == pytest.approx(ref_series["max_remainder_ratio"],
                                                          rel=1e-9)
    assert len(got["cells"]) == len(ref["cells"])
    measured = {"exact", "ratio"}
    for cell, want in zip(got["cells"], ref["cells"]):
        assert {k: v for k, v in cell.items() if k not in measured} == \
            {k: v for k, v in want.items() if k not in measured}
        for key in measured:
            assert cell[key] == pytest.approx(want[key], rel=1e-12, abs=0.0)


def test_golden_scan_5site(tmp_path):
    """A 5-site cap-3 scan: 20 series cells and 4 dense-routed cells (t = 0.5).

    The reference was written by the CLI before the scatter-free Gram kernel;
    config and constants must match exactly, the rest by ``assert_scan_matches``.
    """
    assert main(["scan", str(GOLDEN / "scan_5site.yaml"), "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "scan.csv").exists()
    got = json.loads((tmp_path / "scan.json").read_text())
    ref = golden("scan_5site")
    for key in ("resolved_config", "constants_ledger"):
        assert got[key] == ref[key]
    assert len(got["cells"]) == 24
    assert_scan_matches(got, ref)
