"""The correctness check passes stored outputs and flags perturbed ones."""

import copy
import math

import pytest

import workloads


def scan_outputs():
    ref = workloads.load_reference("lightcone_scan")
    return {"exit_codes": {"scan": 0}, "scan": {"cells": copy.deepcopy(ref["cells"])}}, ref


def certify_cluster_outputs():
    ref = workloads.load_reference("certify_cluster")
    cert, cl = ref["certificate"], ref["cluster"]
    outputs = {
        "exit_codes": {"certify": 0, "cluster": 0},
        "certify": {"value": {"re": cert["re"], "im": cert["im"]},
                    "restriction_error": cert["restriction_error"],
                    "cutoff_error": cert["cutoff_error"]},
        "cluster": {"gap": cl["gap"], "energy": cl["energy"],
                    "metadata": {"gap_threshold": cl["gap_threshold"]},
                    "rows": copy.deepcopy(cl["rows"])},
    }
    return outputs, ref


def test_reference_outputs_pass_with_and_without_reference():
    for workload in workloads.WORKLOADS:
        ref = workloads.load_reference(workload)
        if workload == "lightcone_scan":
            outputs, _ = scan_outputs()
        elif workload == "growth_envelope":
            outputs = {"exit_codes": {}, "growth": copy.deepcopy(ref["items"])}
        else:
            outputs, _ = certify_cluster_outputs()
        assert workloads.summarize(workload, outputs) == ref
        for reference in (ref, None):
            reasons = workloads.check_items(workload, outputs, reference)
            assert reasons == [""] * workloads.item_count(workload)


def test_scan_violation_is_flagged_for_any_seed():
    outputs, _ = scan_outputs()
    cell = next(c for c in outputs["scan"]["cells"] if math.isfinite(c["bound_ensemble"]))
    cell["exact"] = cell["bound_ensemble"]  # exact + tail now exceeds the bound
    reasons = workloads.check_items("lightcone_scan", outputs, None)
    assert sum(1 for r in reasons if "violation" in r) == 1


def test_scan_reference_drift_is_flagged():
    outputs, ref = scan_outputs()
    cells = outputs["scan"]["cells"]
    cells[0]["bound_ensemble"] *= 1 + 1e-9
    cells[1]["exact"] *= 1.01
    reasons = workloads.check_items("lightcone_scan", outputs, ref)
    assert "bound_ensemble" in reasons[0] and "exact" in reasons[1]
    assert all(r == "" for r in reasons[2:])


def test_scan_values_below_the_floor_are_not_failures():
    outputs, ref = scan_outputs()
    tiny = [c for c in outputs["scan"]["cells"] if c["exact"] < workloads.ROUNDOFF_FLOOR]
    assert tiny, "the reference has cells below the round-off floor"
    for c in tiny:
        c["exact"] = 0.5 * workloads.ROUNDOFF_FLOOR
    assert workloads.check_items("lightcone_scan", outputs, ref) == [""] * 20
    assert workloads.cell_health(outputs) == (pytest.approx(16 / 20), len(tiny))


def test_growth_above_envelope_is_flagged():
    ref = workloads.load_reference("growth_envelope")
    items = copy.deepcopy(ref["items"])
    items[3]["measured"] = items[3]["envelope"] + items[3]["tail"] * 1.5
    reasons = workloads.check_items("growth_envelope", {"growth": items}, None)
    assert "above envelope" in reasons[3]
    assert sum(1 for r in reasons if r) == 1


def test_certify_and_cluster_failures_are_flagged():
    outputs, ref = certify_cluster_outputs()
    outputs["certify"]["value"]["re"] = float("nan")
    reasons = workloads.check_items("certify_cluster", outputs, None)
    assert "not finite" in reasons[0] and reasons[1:] == [""] * 6

    outputs, ref = certify_cluster_outputs()
    outputs["cluster"]["gap"] = 1e-9
    reasons = workloads.check_items("certify_cluster", outputs, None)
    assert reasons[0] == "" and all("gap" in r for r in reasons[1:])

    outputs, ref = certify_cluster_outputs()
    outputs["cluster"]["rows"][2]["exact"] *= 1.001
    reasons = workloads.check_items("certify_cluster", outputs, ref)
    assert [bool(r) for r in reasons] == [False, False, False, True, False, False, False]

    outputs, _ = certify_cluster_outputs()
    outputs["exit_codes"]["cluster"] = 4
    reasons = workloads.check_items("certify_cluster", outputs, None)
    assert reasons[0] == "" and all("exit code" in r for r in reasons[1:])


def test_seeded_inputs_are_reproducible_and_keep_the_cost_structure():
    for seed in range(12):
        configs = workloads.make_configs("certify_cluster", seed)
        assert configs == workloads.make_configs("certify_cluster", seed)
        occ = configs["certify"]["experiment"]["state"]["occupations"]
        center, radius = workloads.CERTIFY_SITES // 2, workloads.CERTIFY_RADIUS
        window = occ[center - radius:center + radius + 1]
        assert sum(window) == 2 * radius + 1 and max(occ) <= 2
        assert occ[0] == occ[-1] == 1
        u_cluster = configs["cluster"]["model"]["interactions"][0]["strength"]
        assert 18.0 <= u_cluster <= 22.0
        scan = workloads.make_configs("lightcone_scan", seed)["scan"]
        assert 0.8 <= scan["model"]["interactions"][0]["strength"] <= 1.2
        assert scan["experiment"]["r_values"] == list(workloads.SCAN_R)
    nominal = workloads.make_configs("certify_cluster", workloads.REFERENCE_SEED)
    assert nominal["certify"]["experiment"]["state"]["occupations"] == [1] * 13
    assert nominal["cluster"]["model"]["interactions"][0]["strength"] == 20.0
