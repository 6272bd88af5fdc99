import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bosonlc import selftest
from bosonlc.cli import main
from bosonlc.config import GRAPH_KEYS, KEYS, ConfigError, apply_overrides, load_config

BASE_CONFIG = """
model:
  graph: {kind: path, length: 5}
  hopping: 1.0
  interactions:
    - {kind: onsite, strength: 1.0}
  range: 0
ensemble: {mu: 1.0, per_site_cap: 2}
experiment:
  kind: scan
  evolve: {zeta: {0: 1}}
  probe: {eta: {0: 1}}
  r_values: [2, 3, 4]
  cone_fractions: [0.5, 0.9]
  extra_times: [0.01]
output: {dir: OUTDIR}
seed: 11
"""


@pytest.fixture
def config_file(tmp_path):
    def write(kind=None, **tweaks):
        text = BASE_CONFIG.replace("OUTDIR", str(tmp_path / "out"))
        data = yaml.safe_load(text)
        if kind:
            data["experiment"]["kind"] = kind
        for key, value in tweaks.items():
            node = data
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(data))
        return path
    return write


# -- config validation -------------------------------------------------------------

def test_load_config_roundtrip(config_file):
    cfg = load_config(config_file())
    assert cfg.mu == 1.0
    assert cfg.kind == "scan"
    assert cfg.model.graph.num_vertices == 5
    assert cfg.constants["C3"] == 1.0


def test_config_error_paths():
    with pytest.raises(ConfigError, match="model.graph"):
        load_config("model: {graph: {kind: moebius}}\nensemble: {}\n"
                    "experiment: {kind: scan}", is_text=True)
    with pytest.raises(ConfigError, match="ensemble.mu"):
        load_config(BASE_CONFIG.replace("mu: 1.0", "mu: -3"), is_text=True)
    with pytest.raises(ConfigError, match="experiment.kind"):
        load_config(BASE_CONFIG.replace("kind: scan", "kind: dance"), is_text=True)
    with pytest.raises(ConfigError, match="hopping"):
        load_config(BASE_CONFIG.replace("hopping: 1.0", "hopping: 1.7"), is_text=True)
    with pytest.raises(ConfigError, match="constants"):
        load_config(BASE_CONFIG + "\nconstants: {C9: 1.0}\n", is_text=True)


def test_apply_overrides():
    text = apply_overrides(BASE_CONFIG, ["ensemble.mu=2.5", "experiment.kind=bounds"])
    cfg = load_config(text, is_text=True)
    assert cfg.mu == 2.5
    assert cfg.kind == "bounds"


def test_schedule_config_segments():
    text = BASE_CONFIG.replace(
        "hopping: 1.0",
        "hopping: {segments: [{until: 0.5, value: 1.0}, {value: 0.5}]}")
    cfg = load_config(text, is_text=True)
    sched = next(iter(cfg.model.hopping.values()))
    assert sched.at(0.2) == 1.0
    assert sched.at(0.7) == 0.5


# -- subcommands --------------------------------------------------------------------

def test_bounds_subcommand(config_file, tmp_path):
    rc = main(["bounds", str(config_file())])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "bounds.json").read_text())
    names = {e["name"]: e["value"] for e in report["trace"]}
    assert names["velocity"] == 880.0
    assert "resolved_config" in report


def test_scan_subcommand_and_outputs(config_file, tmp_path):
    rc = main(["scan", str(config_file())])
    assert rc == 0
    csv_text = (tmp_path / "out" / "scan.csv").read_text()
    header_lines = [l for l in csv_text.splitlines() if l.startswith("#")]
    assert header_lines, "resolved config must be embedded"
    embedded = json.loads("\n".join(l[2:] for l in header_lines))
    assert embedded["resolved_config"]["seed"] == 11
    assert "provenance" in embedded
    data = json.loads((tmp_path / "out" / "scan.json").read_text())
    assert len(data["cells"]) == 9  # 3 r * (2 fractions + 1 extra time)


def test_certify_subcommand(config_file, tmp_path):
    path = config_file(kind="certify", **{
        "model.graph.length": 9,
        "ensemble.per_site_cap": 3,
        "experiment.time": 0.3,
        "experiment.window_radius": 2,
    })
    rc = main(["certify", str(path)])
    assert rc == 0
    cert = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert cert["radius"] == 2
    assert cert["assumption_status"].startswith("validated")
    assert "constants_ledger" in cert


def test_cluster_subcommand(config_file, tmp_path):
    path = config_file(kind="cluster", **{
        "model.graph.length": 6,
        "model.interactions": [{"kind": "onsite", "strength": 15.0}],
        "experiment.r_values": [1, 2, 3],
    })
    rc = main(["cluster", str(path)])
    assert rc == 0
    csv_text = (tmp_path / "out" / "cluster.csv").read_text()
    assert "r,exact,bound,ratio,observable" in csv_text


def test_selftest_subcommand(config_file, tmp_path):
    path = config_file(kind="selftest", **{"experiment.samples": 2000})
    rc = main(["selftest", str(path)])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "selftest.json").read_text())
    assert all(c["passed"] for c in report["checks"])


# -- exit codes ------------------------------------------------------------------------

def test_exit_code_config_error(config_file):
    path = config_file()
    assert main(["scan", str(path), "--set", "ensemble.mu=-2"]) == 2


def test_exit_code_missing_file(tmp_path):
    assert main(["scan", str(tmp_path / "nope.yaml")]) == 2


def test_exit_code_capacity(config_file):
    path = config_file(**{"ensemble.per_site_cap": 40, "model.graph.length": 12})
    assert main(["scan", str(path)]) == 3


def test_certify_formula_window_over_budget_exits_capacity(config_file, capsys):
    # no window_radius: the formula window covers the whole 15-site chain,
    # whose N = 15 sector (22.6 M states at cap 3) exceeds the default budget
    path = config_file(kind="certify", **{"model.graph.length": 15,
                                          "ensemble.per_site_cap": 3,
                                          "experiment.time": 0.5})
    assert main(["certify", str(path)]) == 3
    assert "certifiable time" in capsys.readouterr().err


def test_cluster_on_non_path_graph_is_config_error(config_file, capsys):
    path = config_file(kind="cluster", **{
        "model.graph": {"kind": "cubic", "dims": [2, 4]},
        "model.interactions": [{"kind": "onsite", "strength": 20.0}],
        "experiment.r_values": [1, 2, 3, 4]})
    assert main(["cluster", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("site", [12, -6, 4])
def test_certify_observable_outside_window_is_config_error(config_file, capsys, site):
    # 11-site chain, window radius 3: sites -3..3 relative to the center
    path = config_file(kind="certify", **{
        "model.graph.length": 11, "ensemble.per_site_cap": 3,
        "experiment.time": 0.5, "experiment.window_radius": 3,
        "experiment.observable": {"kind": "density", "site": site}})
    assert main(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "experiment.observable.site" in err


def test_output_formats_select_files(config_file, tmp_path):
    out = tmp_path / "out"
    assert main(["scan", str(config_file(**{"output.formats": ["json"]}))]) == 0
    assert (out / "scan.json").exists() and not (out / "scan.csv").exists()
    path = config_file(kind="cluster", **{
        "model.graph.length": 6,
        "model.interactions": [{"kind": "onsite", "strength": 15.0}],
        "experiment.r_values": [1, 2], "output.formats": ["csv"]})
    assert main(["cluster", str(path)]) == 0
    assert (out / "cluster.csv").exists() and not (out / "cluster.json").exists()


def test_exit_code_gapless(config_file):
    path = config_file(kind="cluster", **{
        "model.graph.length": 6,
        "model.hopping": 0.0,
        "model.interactions": [],
    })
    assert main(["cluster", str(path)]) == 4


@pytest.mark.parametrize("tweaks", [
    {"model.graph.length": 6, "experiment.r_values": [9]},
    {"experiment.r_values": [0, 2]},
    {"experiment.evolve": {"zeta": {7: 1}}},
    {"experiment.probe": {"eta": {0: 1, 1: 1}}},
    {"model.hopping": {"segments": [{"until": 0.5, "value": 1.0}, {"value": 0.5}]}},
], ids=["r_beyond_graph", "r_below_one", "evolve_site_outside", "two_site_probe", "time_dependent"])
def test_scan_invalid_request_is_config_error(config_file, capsys, tweaks):
    assert main(["scan", str(config_file(**tweaks))]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    ["experiment.r_values=[a]"],
    ["experiment.t_values=[x]"],
    ["experiment.cone_fractions=5"],
    ["experiment.evolve={zeta: {a: 1}}"],
    ["experiment.evolve={zeta: {0: -1}}"],
    ["ensemble.per_site_cap=300"],
    ["model.graph.length=1", "experiment.r_values=[]"],
], ids=["r_text", "t_text", "fractions_scalar", "site_text", "exponent_negative",
        "cap_above_255", "single_site"])
def test_scan_bad_override_is_config_error(config_file, capsys, overrides):
    argv = ["scan", str(config_file())]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,override,path", [
    ("bounds", "model: [unclosed", None, "<root>"),
    ("bounds", None, "model.range=[unclosed", "model.range"),
    ("bounds", None, "constants=[1]", "constants"),
    ("bounds", None, "output=[1]", "output"),
    ("selftest", None, "experiment.samples=x", "experiment.samples"),
    ("selftest", None, "experiment.samples=-5", "experiment.samples"),
    ("selftest", None, "seed=-1", "seed"),
    ("bounds", None, "output.dir=5", "output.dir"),
    ("bounds", None, "ensemble.mu=1.0e-300", "ensemble.mu"),
    ("scan", None, "model.interactions=[{kind: explicit, support: [0], "
                   "monomials: [{coeff: 1.0, powers: {0: -1}}]}]",
     "model.interactions[0].monomials[0].powers.0"),
], ids=["yaml_file", "yaml_override", "constants_list", "output_list", "samples_text",
        "samples_negative", "seed_negative", "output_dir_number", "mu_below_rounding",
        "power_negative"])
def test_input_that_raised_is_config_error(config_file, capsys, command, text, override, path):
    config = config_file()
    if text is not None:
        config.write_text(text)
    argv = [command, str(config)] + (["--set", override] if override else [])
    assert main(argv) == 2
    assert f"config error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("override,path", [
    ("model.range=1.5", "model.range"),
    ("ensemble.per_site_cap=true", "ensemble.per_site_cap"),
    ("seed=true", "seed"),
    ("ensemble.mu=true", "ensemble.mu"),
    ("ensemble.mu=.inf", "ensemble.mu"),
    ("constants.epsilon=.nan", "constants.epsilon"),
    ("constants.epsilon=0", "constants.epsilon"),
    ("constants.C4=-1", "constants.C4"),
    ("output.formats=csv", "output.formats"),
    ("constants.C1=x", "constants.C1"),
    ("model.hopping={value: x}", "model.hopping.value"),
    ("model.hopping={segments: [1]}", "model.hopping.segments[0]"),
    ("model.interactions=[3]", "model.interactions[0]"),
    ("model.range=x", "model.range"),
    ("model.range=5", "model.range"),
])
def test_one_rule_per_value_kind_in_every_section(config_file, capsys, override, path):
    # these ran with a value nobody asked for, or failed without naming the key
    assert main(["bounds", str(config_file()), "--set", override]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err and "unknown format" not in err


def test_certify_total_cap_from_either_section(config_file, tmp_path):
    certs = {}
    for section in ("ensemble", "experiment", None):
        tweaks = {f"{section}.total_cap": 4} if section else {}
        path = config_file(kind="certify", **{
            "model.graph.length": 9, "ensemble.per_site_cap": 3, "experiment.time": 0.3,
            "experiment.window_radius": 2, **tweaks})
        assert main(["certify", str(path), "--out", str(tmp_path / str(section))]) == 0
        cert = json.loads((tmp_path / str(section) / "certificate.json").read_text())
        certs[section] = {k: v for k, v in cert.items() if k != "resolved_config"}
    assert certs["ensemble"] == certs["experiment"]
    assert certs["ensemble"]["boson_cap"] == 4 != certs[None]["boson_cap"]


def _flow(value) -> str:
    """A value as the YAML text of one --set override."""
    return yaml.safe_dump({"v": value}, default_flow_style=True, width=1 << 20).strip()[4:-1]


def _fuzz_exit_code(base, command: str, data: dict, overrides: dict) -> int:
    """Exit code of ``command`` on config ``data``, with one --set per override."""
    data["output"] = {"dir": str(base / "out")}
    path = base / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    argv = [command, str(path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={_flow(value)}"]
    return main(argv)


_INTS = st.one_of(st.integers(-2, 5), st.sampled_from(["a", "3", 1.5, None, True]))
_TIMES = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([math.inf, math.nan, "x", None]))
_MONOMIAL = st.one_of(_INTS, st.dictionaries(
    st.sampled_from(["eta", "zeta", "xi"]),
    st.one_of(_INTS, st.dictionaries(_INTS, _INTS, max_size=2)), max_size=2))
_SCAN_KEYS = {
    "experiment.r_values": st.one_of(_INTS, st.lists(_INTS, max_size=3)),
    "experiment.t_values": st.one_of(_TIMES, st.lists(_TIMES, max_size=3)),
    "experiment.cone_fractions": st.one_of(_TIMES, st.lists(_TIMES, max_size=3)),
    "experiment.extra_times": st.one_of(_TIMES, st.lists(_TIMES, max_size=2)),
    "experiment.evolve": _MONOMIAL,
    "experiment.probe": _MONOMIAL,
    "ensemble.per_site_cap": st.sampled_from([-1, 0, 1, 2, 255, 256, 300, "2", 2.5]),
    "model.graph.length": st.sampled_from([1, 2, 4]),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.fixed_dictionaries({}, optional=_SCAN_KEYS))
def test_scan_config_fuzz_exits_with_a_documented_code(tmp_path_factory, overrides):
    # any mix of valid and invalid values for these keys, on a 4-site cap-2
    # chain, runs or exits 2/3/4; nothing raises
    base = tmp_path_factory.getbasetemp() / "scan_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["model"]["graph"]["length"] = 4
    data["experiment"]["r_values"] = [1, 2, 3]
    assert _fuzz_exit_code(base, "scan", data, overrides) in (0, 2, 3, 4)


@pytest.mark.parametrize("command,override", [
    ("cluster", "experiment.r_values=[a]"),
    ("cluster", "experiment.filling=x"),
    ("cluster", "experiment.observables=[nope]"),
    ("certify", "experiment.per_site_cap=300"),
    ("bounds", "experiment.beta=x"),
], ids=["cluster_r_text", "cluster_filling_text", "cluster_unknown_observable",
        "certify_cap_above_255", "bounds_beta_text"])
def test_bad_override_is_config_error(config_file, capsys, command, override):
    assert main([command, str(config_file()), "--set", override]) == 2
    assert f"config error: {override.partition('=')[0]}" in capsys.readouterr().err


SCAN_CONSTANT_KEYS = ("ensemble.mu, ensemble.per_site_cap, model.graph, model.range, "
                      "experiment.probe")


@pytest.mark.parametrize("command,overrides,keys", [
    ("scan", ["ensemble.mu=1500"], SCAN_CONSTANT_KEYS),
    ("scan", ["ensemble.mu=1e300"], SCAN_CONSTANT_KEYS),
    ("scan", ["experiment.probe={eta: {0: 400}}"], SCAN_CONSTANT_KEYS),
    ("scan", ["experiment.probe={eta: {0: 400}}", "experiment.cone_fractions=null"],
     SCAN_CONSTANT_KEYS),
    ("certify", ["experiment.assumption={mu: 1, theta: 1e300, K0: 1}"],
     "experiment.time, experiment.state, experiment.assumption, experiment.window_radius, "
     "model.range, constants.epsilon"),
    ("bounds", ["model.graph.length=500", "model.range=400"],
     "ensemble.mu, model.graph, model.range, experiment.beta"),
], ids=["scan_mu_1500", "scan_mu_1e300", "scan_probe_power", "scan_probe_power_grid",
        "certify_theta", "bounds_range"])
def test_overflowing_constants_are_config_error(config_file, capsys, command, overrides, keys):
    # the bound constants overflow a float: exit 2 naming every key they are made from
    argv = [command, str(config_file())]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    assert f"config error: {keys}: constants overflow a float: " in capsys.readouterr().err


def test_json_written_config_runs(config_file, tmp_path):
    # JSON is YAML, but YAML 1.1 reads 1e-06 as a string: number keys accept it
    path = config_file(kind="cluster", **{
        "model.graph.length": 6, "model.interactions": [{"kind": "onsite", "strength": 15.0}],
        "experiment.r_values": [1, 2], "experiment.gap_threshold": 1e-6})
    path.write_text(json.dumps(yaml.safe_load(path.read_text())))
    assert "1e-06" in path.read_text()
    assert main(["cluster", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "cluster.json").read_text())["rows"]
    # exit 4: at t = 1e-5 the cap-2 truncation tail exceeds the cone bound
    assert main(["scan", str(config_file()), "--set", "experiment.extra_times=[1e-5]"]) in (0, 4)
    cells = json.loads((tmp_path / "out" / "scan.json").read_text())["cells"]
    assert {cell["t"] for cell in cells} >= {1e-5}


_CAPS = st.sampled_from([-1, 0, 1, 2, 255, 256, 300, "2", 2.5, None])
_CERTIFY_KEYS = {
    "experiment.time": st.one_of(_TIMES, st.sampled_from([0.0, 0.3])),
    "experiment.window_radius": _INTS,
    "experiment.per_site_cap": _CAPS,
    "experiment.total_cap": st.sampled_from([-1, 0, 3, 12, "x", 2.5, None]),
    "experiment.state": st.one_of(_INTS, st.fixed_dictionaries({
        "kind": st.sampled_from(["fock", "unit_filling", "nope"]),
        "occupations": st.one_of(_INTS, st.lists(st.integers(-1, 3), min_size=4, max_size=6))})),
    "experiment.observable": st.one_of(_INTS, st.fixed_dictionaries({
        "kind": st.sampled_from(["density", "nope"]), "site": _INTS})),
    "experiment.assumption": st.one_of(_INTS, st.dictionaries(
        st.sampled_from(["mu", "theta", "K0"]), st.one_of(_TIMES, st.floats(1.0, 5.0)),
        max_size=3)),
    "model.graph.length": st.sampled_from([1, 3, 4, 5]),
}
_CLUSTER_KEYS = {
    "experiment.r_values": st.one_of(_INTS, st.lists(_INTS, max_size=3)),
    "experiment.filling": _INTS,
    "experiment.observables": st.one_of(_INTS, st.lists(
        st.sampled_from(["density", "annihilation", "nope", 3]), max_size=2)),
    "experiment.gap_threshold": st.one_of(_TIMES, st.sampled_from([1e-6, 100.0])),
    "ensemble.per_site_cap": _CAPS,
    "model.graph.length": st.sampled_from([1, 2, 4]),
}
_BOUNDS_KEYS = {
    "experiment.beta": st.one_of(_INTS, st.sampled_from([200, 10 ** 5 + 0.5])),
    "model.graph.length": st.sampled_from([1, 2, 4]),
    "model.range": st.sampled_from([0, 1, 2]),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.fixed_dictionaries({}, optional=_CERTIFY_KEYS))
def test_certify_config_fuzz_exits_with_a_documented_code(tmp_path_factory, overrides):
    # a 5-site cap-2 chain; the sector is at most 5 sites holding up to 15 bosons
    base = tmp_path_factory.getbasetemp() / "certify_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["experiment"] = {"kind": "certify", "time": 0.3, "window_radius": 1}
    assert _fuzz_exit_code(base, "certify", data, overrides) in (0, 2, 3, 4)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.fixed_dictionaries({}, optional=_CLUSTER_KEYS))
def test_cluster_config_fuzz_exits_with_a_documented_code(tmp_path_factory, overrides):
    base = tmp_path_factory.getbasetemp() / "cluster_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["model"]["graph"]["length"] = 4
    data["model"]["interactions"] = [{"kind": "onsite", "strength": 15.0}]
    data["experiment"] = {"kind": "cluster", "r_values": [1, 2]}
    assert _fuzz_exit_code(base, "cluster", data, overrides) in (0, 2, 3, 4)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(overrides=st.fixed_dictionaries({}, optional=_BOUNDS_KEYS))
def test_bounds_config_fuzz_exits_with_a_documented_code(tmp_path_factory, overrides):
    base = tmp_path_factory.getbasetemp() / "bounds_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["experiment"] = {"kind": "bounds"}
    assert _fuzz_exit_code(base, "bounds", data, overrides) in (0, 2, 3, 4)


# model-section fuzz: graph kinds and sizes, hopping forms, interaction terms, range
_NUMS = st.one_of(st.floats(-1.5, 1.5),
                  st.sampled_from([math.nan, math.inf, "x", "0.5", None, True]))
_HOPPING = st.one_of(_NUMS, st.fixed_dictionaries({"value": _NUMS}), st.fixed_dictionaries(
    {"segments": st.one_of(_INTS, st.lists(st.one_of(_INTS, st.fixed_dictionaries(
        {}, optional={"until": _NUMS, "value": _NUMS})), max_size=3))}))
_GRAPH = st.one_of(
    st.fixed_dictionaries({"kind": st.just("path")}, optional={"length": _INTS}),
    st.fixed_dictionaries({"kind": st.just("cubic")}, optional={
        "dims": st.one_of(_INTS, st.lists(st.one_of(st.integers(1, 3), _INTS), max_size=2))}),
    st.fixed_dictionaries({"kind": st.just("tree")}, optional={
        "branching": st.one_of(st.integers(2, 3), _INTS),
        "depth": st.one_of(st.integers(0, 2), _INTS)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["moebius", 3, None])}))
_TERM = st.one_of(
    _INTS,
    st.fixed_dictionaries({}, optional={"kind": st.just("onsite"), "strength": _NUMS}),
    st.fixed_dictionaries({"kind": st.sampled_from(["explicit", "nope"])}, optional={
        "support": st.one_of(_INTS, st.lists(_INTS, max_size=3)),
        "monomials": st.one_of(_INTS, st.lists(st.one_of(_INTS, st.fixed_dictionaries({}, optional={
            "coeff": _NUMS,
            "powers": st.one_of(_INTS, st.dictionaries(_INTS, st.integers(-1, 3), max_size=2))})),
            max_size=2))}))
_MODEL_KEYS = {
    "model.graph": _GRAPH,
    "model.hopping": _HOPPING,
    "model.interactions": st.one_of(_INTS, st.lists(_TERM, max_size=2)),
    "model.range": st.one_of(_INTS, st.sampled_from([0, 1, 2])),
}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(["bounds", "scan"]),
       overrides=st.fixed_dictionaries({}, optional=_MODEL_KEYS))
def test_model_config_fuzz_exits_with_a_documented_code(tmp_path_factory, command, overrides):
    # every model key, on a scan of at most 10 sites at cap 1 or on the bounds
    base = tmp_path_factory.getbasetemp() / "model_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["ensemble"]["per_site_cap"] = 1
    data["experiment"] = {"kind": command, "r_values": [1], "t_values": [0.1]}
    assert _fuzz_exit_code(base, command, data, overrides) in (0, 2, 3, 4)


def _rule_values(rule):
    """Values for one key-table rule: some it accepts, some it refuses."""
    if rule.kind == "integer":
        low = max(rule.low, -1)
        big = rule.high + 1 if rule.high < math.inf else low + 1000
        item = st.one_of(st.integers(low, min(rule.high, low + 3)),
                         st.sampled_from([low - 1, big, 1.5, str(low)]))
    elif rule.kind == "number":
        low = max(rule.low, -1.0)
        item = st.one_of(st.floats(low, low + 2.0),
                         st.sampled_from([low - 1.0, math.nan, math.inf, "1e-06", str(low + 1)]))
    elif rule.kind == "choice":
        item = st.sampled_from(rule.options + ("nope",))
    else:
        item = {"monomial": _MONOMIAL, "schedule": _HOPPING, "text": st.just("fuzz_out"),
                "mapping": st.just({})}[rule.kind]
    values = st.one_of(item, st.lists(item, max_size=3)) if rule.many else item
    return st.one_of(values, st.sampled_from([None, True, "x", [1], {"a": 1}]))


_KIND_BASES = {
    "bounds": {},
    "scan": {"r_values": [1, 2, 3], "t_values": [0.1]},
    "certify": {"time": 0.3, "window_radius": 1},
    "cluster": {"r_values": [1, 2]},
    "selftest": {},
}


def _table_walk(kind):
    """``kind`` and overrides for up to three of its rows: shared, path graph, its own."""
    rows = KEYS[None] + GRAPH_KEYS["path"][1] + KEYS[kind]
    picks = st.lists(st.sampled_from(rows), max_size=3, unique_by=lambda row: row[0])
    return st.tuples(st.just(kind), picks.flatmap(lambda picked: st.fixed_dictionaries(
        {path: _rule_values(rule) for path, rule, _ in picked})))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(walk=st.sampled_from(sorted(_KIND_BASES)).flatmap(_table_walk))
def test_key_table_fuzz_exits_with_a_documented_code(tmp_path_factory, walk):
    # every row of the key table, for every kind, on a 4-site chain (5 for
    # certify); the property suite itself is stubbed to its typed arguments,
    # as a full run takes seconds whatever the sample count
    kind, overrides = walk
    base = tmp_path_factory.getbasetemp() / "table_fuzz"
    base.mkdir(exist_ok=True)
    data = yaml.safe_load(BASE_CONFIG)
    data["model"]["graph"]["length"] = 5 if kind == "certify" else 4
    data["model"]["interactions"] = [{"kind": "onsite", "strength": 15.0}]
    data["experiment"] = {"kind": kind, **_KIND_BASES[kind]}

    def suite(seed, samples):
        assert type(seed) is int and seed >= 0 and type(samples) is int and samples >= 1
        return []

    cwd = os.getcwd()
    os.chdir(base)  # output.dir may be drawn as a relative path
    try:
        with mock.patch.object(selftest, "run_selftest", suite):
            assert _fuzz_exit_code(base, kind, data, overrides) in (0, 2, 3, 4)
    finally:
        os.chdir(cwd)


FOCK = "experiment.state.occupations"


@pytest.mark.parametrize("field,tweak", [
    ("experiment.time", {"experiment.time": -0.5}),
    ("experiment.time", {"experiment.time": "abc"}),
    ("experiment.time", {"experiment.time": math.nan}),
    (FOCK, {"experiment.state": {"kind": "fock", "occupations": [1, 1, 1]}}),
    (FOCK, {"experiment.state": {"kind": "fock", "occupations": [1, 1, 1, -1] + [1] * 7}}),
    ("experiment.window_radius", {"experiment.window_radius": 0}),
    ("experiment.window_radius", {"experiment.window_radius": 2.5}),
    ("experiment.observable.site", {"experiment.observable": {"kind": "density", "site": "x"}}),
], ids=["time_negative", "time_text", "time_nan", "occupations_short",
        "occupation_negative", "radius_zero", "radius_fraction", "site_text"])
def test_certify_invalid_request_is_config_error(config_file, capsys, field, tweak):
    path = config_file(kind="certify", **{
        "model.graph.length": 11, "ensemble.per_site_cap": 3,
        "experiment.time": 0.5, "experiment.window_radius": 3, **tweak})
    assert main(["certify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and field in err


def test_scan_constants_move_only_matrix_element_bound(config_file, tmp_path):
    # The worst-case cone is so wide that only tiny times give finite bounds.
    # There the ensemble bound is far below the cap-2 truncation tail, so the
    # scan flags violations (exit 4) after writing its outputs.
    path = config_file(**{"experiment.t_values": [1e-9, 1e-8]})
    data = yaml.safe_load(path.read_text())
    del data["experiment"]["cone_fractions"], data["experiment"]["extra_times"]
    path.write_text(yaml.safe_dump(data))
    cells = {}
    for setting in ("constants.epsilon=0.1", "constants.epsilon=0.3", "constants.C1=2.0"):
        out = tmp_path / setting
        assert main(["scan", str(path), "--out", str(out), "--set", setting]) == 4
        cells[setting] = json.loads((out / "scan.json").read_text())["cells"]
    base = cells.pop("constants.epsilon=0.1")
    for other in cells.values():
        for cell, moved in zip(base, other):
            assert {k: v for k, v in cell.items() if k != "bound_matrix_element"} == \
                {k: v for k, v in moved.items() if k != "bound_matrix_element"}
            assert math.isfinite(cell["bound_matrix_element"])
            assert moved["bound_matrix_element"] != cell["bound_matrix_element"]


# -- determinism -------------------------------------------------------------------------

def test_byte_identical_reruns(config_file, tmp_path):
    path = config_file()
    main(["scan", str(path)])
    first_csv = (tmp_path / "out" / "scan.csv").read_bytes()
    first_json = (tmp_path / "out" / "scan.json").read_bytes()
    main(["scan", str(path)])
    assert (tmp_path / "out" / "scan.csv").read_bytes() == first_csv
    assert (tmp_path / "out" / "scan.json").read_bytes() == first_json


def test_threads_flag_is_accepted_and_ignored(tmp_path):
    config = Path(__file__).resolve().parent / "golden" / "scan_5site.yaml"
    assert main(["scan", str(config), "--out", str(tmp_path / "plain")]) == 0
    assert main(["scan", str(config), "--out", str(tmp_path / "threads"),
                 "--threads", "3"]) == 0
    assert (tmp_path / "threads" / "scan.json").read_bytes() == \
        (tmp_path / "plain" / "scan.json").read_bytes()


def test_module_invocation_smoke(config_file, tmp_path):
    """The CLI is reachable as python -m bosonlc.cli."""
    path = config_file(kind="bounds")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "bosonlc.cli", "bounds", str(path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_package_invocation_runs_the_cli(config_file, tmp_path):
    """python -m bosonlc is the same entry point, exit codes included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "bosonlc", "bounds", str(config_file(kind="bounds"))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out" / "bounds.json").read_text())["trace"]
    proc = subprocess.run(
        [sys.executable, "-m", "bosonlc", "bounds", str(config_file()),
         "--set", "experiment.beta=x"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and "config error: experiment.beta" in proc.stderr
