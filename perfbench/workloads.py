"""Seeded inputs, item counts and correctness checks of the three workloads.

Pure Python on purpose: the driving process (``run.py``) imports this module
without numpy, so it holds no BLAS threads while the timed children run.

The seed moves only quantities that leave every basis size, sector
structure, cell count and gap condition unchanged, so the cost of a run does
not depend on it:

* the on-site interaction U0 of the 6-site scan model, in [0.8, 1.2]
  (cell times depend on the velocity bound, which U0 does not enter);
* the certify interaction, in [0.8, 1.2], and its initial Fock state: three
  bosons moved inside the 11-site window, keeping every site at most 2 and
  the window total at 11, so the N = 11 sector is the one evolved;
* the cluster interaction, in [18, 22]: deep in the Mott phase, gap > 10.

Seed 0 is the nominal model of the shipped configs (U0 = 1, U = 20, unit
filling) and is the seed the stored reference outputs were made with.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("lightcone_scan", "growth_envelope", "certify_cluster")
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MU = 1.0
SCAN_SITES = 6
SCAN_CAP = 3
SCAN_R = (2, 3, 4, 5)
CONE_FRACTIONS = (0.4, 0.6, 0.8, 0.95)
EXTRA_TIMES = (0.01,)
# growth_envelope times as (cone fraction, r): t = fraction * r / v
GROWTH_TIMES = ((0.4, 2), (0.95, 4), (0.95, 5))

CERTIFY_SITES = 13
CERTIFY_RADIUS = 5
CERTIFY_CAP = 3
CERTIFY_TIME = 1.0
CERTIFY_MOVES = 3

CLUSTER_SITES = 12
CLUSTER_CAP = 2
CLUSTER_R = (1, 2, 3, 4, 5, 6)
CLUSTER_GAP_THRESHOLD = 1e-6

# Round-off floor of the weighted squared commutator norm on the dense
# sector route: at tiny times it bottoms out near 1e-26 on the 6-site chain
# (4e-26 on the 7-site chain).  A scan value below it is noise and counts as
# unresolved; the reference comparison gives scan values an absolute slack
# of SCAN_ATOL, above that floor, so honest tiny values never fail it.
ROUNDOFF_FLOOR = 4e-26
SCAN_ATOL = 1e-25
# Relative tolerance on closed forms (bounds, time grid, envelope) and on
# measured values above their absolute slack.
CLOSED_FORM_RTOL = 1e-12
MEASURED_RTOL = 1e-6
# f_beta is raw - 2 cross + average, with O(1) terms, so its round-off sits
# near 1e-16 (measured: 2.2e-16 on a site the operator has not reached).
GROWTH_ATOL = 1e-13
# The cluster ground state comes from ARPACK at tol 1e-12 and the
# certificate from Krylov steps at residual 1e-10.
CLUSTER_ATOL = 1e-10
CERTIFY_ATOL = 1e-10


def _model(length: int, strength: float) -> dict:
    return {"graph": {"kind": "path", "length": length}, "hopping": 1.0,
            "interactions": [{"kind": "onsite", "strength": strength}], "range": 0}


def _uniform(rng: random.Random, seed: int, lo: float, hi: float, nominal: float) -> float:
    return nominal if seed == REFERENCE_SEED else rng.uniform(lo, hi)


def certify_occupations(rng: random.Random, seed: int) -> list[int]:
    """Unit filling with CERTIFY_MOVES bosons moved inside the window."""
    occ = [1] * CERTIFY_SITES
    if seed == REFERENCE_SEED:
        return occ
    center = CERTIFY_SITES // 2
    window = range(center - CERTIFY_RADIUS, center + CERTIFY_RADIUS + 1)
    for _ in range(CERTIFY_MOVES):
        src = rng.choice([x for x in window if occ[x] >= 1])
        dst = rng.choice([x for x in window if x != src and occ[x] <= 1])
        occ[src] -= 1
        occ[dst] += 1
    return occ


def make_configs(workload: str, seed: int) -> dict[str, dict]:
    """The config mappings one run of ``workload`` loads, keyed by role."""
    rng = random.Random(seed)
    scan_u = _uniform(rng, seed, 0.8, 1.2, 1.0)
    scan = {
        "model": _model(SCAN_SITES, scan_u),
        "ensemble": {"mu": MU, "per_site_cap": SCAN_CAP},
        "experiment": {"kind": "scan", "evolve": {"zeta": {"0": 1}},
                       "probe": {"eta": {"0": 1}}, "r_values": list(SCAN_R),
                       "cone_fractions": list(CONE_FRACTIONS),
                       "extra_times": list(EXTRA_TIMES)},
        "seed": seed,
    }
    if workload in ("lightcone_scan", "growth_envelope"):
        return {"scan": scan}
    if workload != "certify_cluster":
        raise ValueError(f"unknown workload {workload!r}")
    certify_u = _uniform(rng, seed, 0.8, 1.2, 1.0)
    occ = certify_occupations(rng, seed)
    cluster_u = _uniform(rng, seed, 18.0, 22.0, 20.0)
    return {
        "certify": {
            "model": _model(CERTIFY_SITES, certify_u),
            "ensemble": {"mu": MU, "per_site_cap": CERTIFY_CAP},
            "experiment": {"kind": "certify", "time": CERTIFY_TIME,
                           "state": {"kind": "fock", "occupations": occ},
                           "observable": {"kind": "density", "site": 0},
                           "window_radius": CERTIFY_RADIUS,
                           "per_site_cap": CERTIFY_CAP},
            "seed": seed,
        },
        "cluster": {
            "model": _model(CLUSTER_SITES, cluster_u),
            "ensemble": {"mu": MU, "per_site_cap": CLUSTER_CAP},
            "experiment": {"kind": "cluster", "r_values": list(CLUSTER_R), "filling": 1,
                           "gap_threshold": CLUSTER_GAP_THRESHOLD},
            "seed": seed,
        },
    }


def item_count(workload: str) -> int:
    """Units of user-visible result one run of ``workload`` produces."""
    if workload == "lightcone_scan":
        return len(SCAN_R) * (len(CONE_FRACTIONS) + len(EXTRA_TIMES))
    if workload == "growth_envelope":
        return len(GROWTH_TIMES) * SCAN_SITES
    return 1 + len(CLUSTER_R)


# ---------------------------------------------------------------------------
# correctness


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isinf(a) and math.isinf(b):
        return a == b
    return _finite(a, b) and abs(a - b) <= atol + rtol * abs(b)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text())


def summarize(workload: str, outputs: dict) -> dict:
    """The checked quantities of one run, in the layout of the reference file.

    ``outputs`` holds the child's exit codes plus the CLI's JSON documents
    (``scan``, ``certify``, ``cluster``) or the ``growth`` records.
    """
    if workload == "lightcone_scan":
        return {"cells": [{k: c[k] for k in ("r", "t", "exact", "bound_ensemble",
                                            "bound_matrix_element", "tail_estimate")}
                          for c in outputs["scan"]["cells"]]}
    if workload == "growth_envelope":
        return {"items": outputs["growth"]}
    return {"certificate": _certificate(outputs["certify"]),
            "cluster": _cluster(outputs["cluster"])}


def _certificate(cert: dict) -> dict:
    return {"re": cert["value"]["re"], "im": cert["value"]["im"],
            "restriction_error": cert["restriction_error"],
            "cutoff_error": cert["cutoff_error"]}


def _cluster(report: dict) -> dict:
    return {"gap": report["gap"], "energy": report["energy"],
            "gap_threshold": report["metadata"]["gap_threshold"],
            "rows": [{k: row[k] for k in ("r", "exact", "bound")} for row in report["rows"]]}


def cell_health(outputs: dict) -> tuple[float, int]:
    """(share of scan cells with a finite bound, cells below ROUNDOFF_FLOOR).

    Both are 0 for workloads without a scan.
    """
    cells = outputs.get("scan", {}).get("cells", [])
    if not cells:
        return 0.0, 0
    checked = sum(1 for c in cells if math.isfinite(c["bound_ensemble"]))
    unresolved = sum(1 for c in cells if c["exact"] < ROUNDOFF_FLOOR)
    return checked / len(cells), unresolved


def check_items(workload: str, outputs: dict, reference: dict | None) -> list[str]:
    """One entry per item; "" when the item passed, else the reason it failed.

    Seed-independent invariants apply to every seed; ``reference`` (the
    stored seed-0 outputs, or None) adds the comparison against it.
    """
    n_items = item_count(workload)
    codes = outputs.get("exit_codes", {})
    if workload == "certify_cluster":
        return _check_certify(outputs, codes, reference) + _check_cluster(outputs, codes, reference)
    if any(code != 0 for code in codes.values()):
        return [f"exit codes {codes}"] * n_items
    summary = summarize(workload, outputs)
    key = "cells" if workload == "lightcone_scan" else "items"
    got = summary[key]
    if len(got) != n_items:
        return [f"expected {n_items} {key}, got {len(got)}"] * n_items
    ref = reference[key] if reference else [None] * n_items
    check = _check_cell if workload == "lightcone_scan" else _check_growth
    return [check(item, want) for item, want in zip(got, ref)]


def _check_cell(cell: dict, want: dict | None) -> str:
    exact, bound, tail = cell["exact"], cell["bound_ensemble"], cell["tail_estimate"]
    if not _finite(exact) or exact < 0:
        return f"exact {exact!r} not a finite nonnegative number"
    if math.isfinite(bound) and exact + tail > bound:
        return f"light-cone violation at r={cell['r']} t={cell['t']}"
    if want is None:
        return ""
    for name in ("r", "t", "bound_ensemble", "bound_matrix_element", "tail_estimate"):
        if not _close(cell[name], want[name], CLOSED_FORM_RTOL):
            return f"{name} {cell[name]!r} != reference {want[name]!r}"
    if not _close(exact, want["exact"], MEASURED_RTOL, SCAN_ATOL):
        return f"exact {exact!r} != reference {want['exact']!r}"
    return ""


def _check_growth(item: dict, want: dict | None) -> str:
    measured, envelope, tail = item["measured"], item["envelope"], item["tail"]
    if not _finite(measured, envelope, tail) or measured < 0:
        return f"growth record {item} not finite"
    if measured > envelope + tail:
        return f"growth functional above envelope + tail at site {item['site']} t={item['t']}"
    if want is None:
        return ""
    for name in ("site", "t", "envelope", "tail"):
        if not _close(item[name], want[name], CLOSED_FORM_RTOL):
            return f"{name} {item[name]!r} != reference {want[name]!r}"
    if not _close(measured, want["measured"], MEASURED_RTOL, GROWTH_ATOL):
        return f"measured {measured!r} != reference {want['measured']!r}"
    return ""


def _check_certify(outputs: dict, codes: dict, reference: dict | None) -> list[str]:
    if codes.get("certify") != 0:
        return [f"certify exit code {codes.get('certify')}"]
    cert = _certificate(outputs["certify"])
    if not _finite(cert["re"], cert["im"]):
        return [f"certificate value {cert['re']!r}+{cert['im']!r}j not finite"]
    if reference:
        want = reference["certificate"]
        for name in ("re", "im"):
            if not _close(cert[name], want[name], MEASURED_RTOL, CERTIFY_ATOL):
                return [f"certificate {name} {cert[name]!r} != reference {want[name]!r}"]
        for name in ("restriction_error", "cutoff_error"):
            if not _close(cert[name], want[name], CLOSED_FORM_RTOL):
                return [f"certificate {name} {cert[name]!r} != reference {want[name]!r}"]
    return [""]


def _check_cluster(outputs: dict, codes: dict, reference: dict | None) -> list[str]:
    n_rows = len(CLUSTER_R)
    if codes.get("cluster") != 0:
        return [f"cluster exit code {codes.get('cluster')}"] * n_rows
    cluster = _cluster(outputs["cluster"])
    if not cluster["gap"] > cluster["gap_threshold"]:
        return [f"gap {cluster['gap']!r} not above {cluster['gap_threshold']!r}"] * n_rows
    rows = cluster["rows"]
    if len(rows) != n_rows:
        return [f"expected {n_rows} cluster rows, got {len(rows)}"] * n_rows
    if reference:
        want = reference["cluster"]
        for name in ("gap", "energy"):
            if not _close(cluster[name], want[name], MEASURED_RTOL):
                return [f"cluster {name} {cluster[name]!r} != reference {want[name]!r}"] * n_rows
    out = []
    for i, row in enumerate(rows):
        reason = ""
        if not _finite(row["exact"], row["bound"]) or not 0 < row["exact"] <= row["bound"]:
            reason = f"cluster row r={row['r']}: exact {row['exact']!r} vs bound {row['bound']!r}"
        elif reference:
            want = reference["cluster"]["rows"][i]
            if row["r"] != want["r"] or not _close(row["exact"], want["exact"],
                                                   MEASURED_RTOL, CLUSTER_ATOL):
                reason = f"cluster row r={row['r']}: exact {row['exact']!r} != reference"
            elif not _close(row["bound"], want["bound"], MEASURED_RTOL):
                reason = f"cluster row r={row['r']}: bound {row['bound']!r} != reference"
        out.append(reason)
    return out
