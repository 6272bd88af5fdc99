"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight fixture is the 7-site hard-core-truncated chain scan shared
by the light-cone soundness and envelope dominance criteria; everything else
runs in seconds.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.special import jv

import bosonlc.bounds as B
from bosonlc.certify import certified_expectation, fock_state_assumption
from bosonlc.cluster import clustering_experiment
from bosonlc.dynamics import HeisenbergScanEngine, lightcone_scan, single_particle_propagator
from bosonlc.fock import (FockBasis, bose_hubbard, build_hamiltonian,
                          random_model_spec, total_number_op,
                          check_number_conservation)
from bosonlc.lattice import build_cubic, build_path, build_regular_tree, distance
from bosonlc.opspace import (MonomialOp, MuWeights, apply_liouvillian, f_beta_expectation,
                             weighted_inner, weighted_norm_sq)
from test_golden import GOLDEN, assert_scan_matches

RNG = np.random.default_rng(874261)


def report(number, text):
    print(f"\n[ACCEPTANCE {number}] PASS: {text}")


# ---------------------------------------------------------------------------
# criterion 1: constant reproduction, exact arithmetic


def test_criterion_1_constant_reproduction():
    assert B.velocity_bound(math.inf, 2, 0, 1) == 496.0
    for mu in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 64.0):
        assert B.velocity_bound(mu, 2, 0, 1) == 496.0 + 384.0 / mu
    # composition identity, exact in floating point on this row
    for mu in (0.25, 1.0, 3.0, math.inf):
        assert B.velocity_bound(mu, 2, 0, 1) == B.velocity_from_coupling(mu, 2, 0, 1)
    # the mean-occupancy restatement is documented alongside, not conflated
    trace = {e["name"]: e for e in B.derivation_trace(1.0, 2, 0, 1)}
    assert trace["velocity"]["value"] == 880.0
    assert trace["headline_velocity_in_mean_occupancy"]["value"] == \
        pytest.approx(496.0 + 384.0 / (math.e - 1))
    assert "note" in trace["headline_velocity_in_mean_occupancy"]
    report(1, "velocity constants reproduced exactly (496, 496 + 384/mu)")


# ---------------------------------------------------------------------------
# the shared heavy scan: 1d chain, L = 7, cap 3, mu = 1


MU = 1.0
SCAN_R = (2, 3, 4, 5, 6)
CONE_FRACTIONS = (0.4, 0.6, 0.8, 0.95)


@pytest.fixture(scope="module")
def big_scan():
    model = bose_hubbard(build_path(7), 1.0, 1.0)
    basis = FockBasis(7, 3)
    op = MonomialOp.from_dicts(zeta={0: 1})
    probe = MonomialOp.from_dicts(eta={0: 1})
    v = B.velocity_bound(MU, 2, 0, 1)
    cells = [(r, alpha * r / v) for r in SCAN_R for alpha in CONE_FRACTIONS]
    cells += [(r, 0.01) for r in SCAN_R]
    result = lightcone_scan(model, op, probe, MU, cells, basis)
    # criterion 6 evolves op itself; the engine solves sectors on first need
    engine = HeisenbergScanEngine(model, basis, op)
    return {"model": model, "basis": basis, "engine": engine, "result": result,
            "velocity": v, "op": op}


def test_big_scan_matches_golden_scan_chain7(big_scan):
    # the fixture's cells and metadata are those of configs/scan_chain7.yaml
    got = json.loads(json.dumps(big_scan["result"].to_dict()))
    ref = json.loads((GOLDEN / "scan_chain7.json").read_text())
    assert len(ref["cells"]) == 25
    assert_scan_matches(got, ref)


def test_criterion_2_lightcone_soundness(big_scan):
    result = big_scan["result"]
    v = big_scan["velocity"]
    cells = result.cells
    assert len(cells) == len(SCAN_R) * (len(CONE_FRACTIONS) + 1)
    inside = [c for c in cells if v * c.t < c.r]
    assert len(inside) >= len(SCAN_R) * len(CONE_FRACTIONS)
    # stated precondition: the truncation tail sits below every probed bound
    finite_bounds = [c.bound_ensemble for c in inside if c.t > 0]
    assert min(finite_bounds) > cells[0].tail_estimate
    violations = result.violations()
    assert violations == [], f"{len(violations)} light-cone violations"
    report(2, f"exact + tail <= bound in all {len(inside)} in-cone cells "
              f"(min bound {min(finite_bounds):.3f}, tail {cells[0].tail_estimate:.3f})")


# ---------------------------------------------------------------------------
# criterion 3: free-boson oracle


def test_criterion_3_free_boson_oracle():
    # (a) propagator vs dense matrix exponential
    model = bose_hubbard(build_path(9), 1.0, 0.0)
    h = model.hopping_matrix(0.0)
    for t in (0.4, 1.1):
        assert np.max(np.abs(single_particle_propagator(model, t)
                             - expm(-1j * h * t))) < 1e-10
    # (b) large-window Bessel limit
    wide = bose_hubbard(build_path(41), 1.0, 0.0)
    t = 1.5
    g = single_particle_propagator(wide, t)
    for d in range(8):
        assert abs(abs(g[20 + d, 20]) - abs(jv(d, 2 * t))) < 1e-8
    # (c) many-body commutator matches the c-number prediction to 1e-8 on
    # every cap-protected matrix element and in the restricted weighted norm
    length = 7
    model = bose_hubbard(build_path(length), 1.0, 0.0)
    basis = FockBasis(length, 2, total_cap=2)
    w = MuWeights(MU, basis)
    t = 0.8
    g = single_particle_propagator(model, t)
    protected = basis.totals < basis.total_cap
    sww = np.sqrt(np.outer(w.w[protected], w.w[protected]))
    weight = float(np.sum(w.w[protected]))
    worst = 0.0
    for x in (2, 3, 5):
        bx = MonomialOp.from_dicts(zeta={x: 1}).to_matrix(basis)
        bxt = HeisenbergScanEngine(model, basis, bx).evolved_operator(t)
        bdag0 = MonomialOp.from_dicts(eta={0: 1}).to_matrix(basis)
        comm = (bxt.mat @ bdag0 - bdag0 @ bxt.mat).toarray()
        sub = comm[np.ix_(protected, protected)]
        worst = max(worst, float(np.max(np.abs(sub - g[x, 0] * np.eye(sub.shape[0])))))
        norm = float(np.sum(np.abs(sub) ** 2 * sww))
        assert norm == pytest.approx(abs(g[x, 0]) ** 2 * weight, abs=1e-8)
    assert worst < 1e-8
    report(3, f"free-model commutators match the propagator (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 4: structural identities


def test_criterion_4_structural_identities():
    # [N, H] = 0 for 100 random models, checked structurally
    for _ in range(100):
        model = random_model_spec(RNG)
        basis = FockBasis(model.graph.num_vertices, 3)
        h = build_hamiltonian(model, basis, t=float(RNG.uniform(0, 1)))
        assert check_number_conservation(h, total_number_op(basis))

    # generator anti-hermiticity on a number-cap-closed sector
    basis = FockBasis(3, 4, total_cap=4)
    model = random_model_spec(RNG, graph=build_path(3))
    h = build_hamiltonian(model, basis, 0.0)
    w = MuWeights(MU, basis)
    worst = 0.0
    for _ in range(25):
        a = sp.csr_matrix(RNG.normal(size=(basis.dim,) * 2)
                          + 1j * RNG.normal(size=(basis.dim,) * 2))
        b = sp.csr_matrix(RNG.normal(size=(basis.dim,) * 2)
                          + 1j * RNG.normal(size=(basis.dim,) * 2))
        scale = math.sqrt(weighted_norm_sq(a, w) * weighted_norm_sq(b, w))
        lhs = weighted_inner(a, apply_liouvillian(h, b), w)
        rhs = -np.conj(weighted_inner(b, apply_liouvillian(h, a), w))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-10

    # norm preservation over t <= 10 on a closed sector
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    basis = FockBasis(4, 3, total_cap=3)
    w = MuWeights(MU, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    engine = HeisenbergScanEngine(model, basis, b0)
    norm0 = weighted_norm_sq(b0, w)
    drift = 0.0
    for t in (1.0, 2.5, 5.0, 7.5, 10.0):
        bt = engine.evolved_operator(t)
        drift = max(drift, abs(weighted_norm_sq(bt, w) / norm0 - 1.0))
    assert drift <= 1e-9
    report(4, f"100 models number-conserving; anti-hermiticity {worst:.1e}; "
              f"norm drift {drift:.1e} over t <= 10")


# ---------------------------------------------------------------------------
# criterion 5: inequality fuzzing, >= 1e5 instances each


def test_criterion_5_projection_bounds_fuzz():
    cap, mu = 24, 0.7
    q = math.exp(-mu)
    z = 1 - q ** (cap + 1)
    ns = np.arange(cap + 1)
    ident = np.sqrt((1 - q) / z) * np.exp(-mu * ns / 2.0)   # (nn|I) coefficients
    total = 0
    batch = 5000
    while total < 100_000:
        c = RNG.normal(size=(batch, cap + 1, cap + 1)) \
            + 1j * RNG.normal(size=(batch, cap + 1, cap + 1))
        c /= np.linalg.norm(c.reshape(batch, -1), axis=1)[:, None, None]
        overlap = np.einsum("n,bnn->b", ident, c)
        assert np.all(np.abs(overlap) <= 1.0 + 1e-12)
        # |(nn|(1-P)|O)| <= (nn|I)
        lhs = np.abs(overlap)[:, None] * ident[None, :]
        assert np.all(lhs <= ident[None, :] * (1 + 1e-12))
        # |(nn|P|O)| <= |O_nn| + (nn|I)
        diag = np.einsum("bnn->bn", c)
        p_part = np.abs(diag - overlap[:, None] * ident[None, :] ** 2 / ident[None, :])
        assert np.all(p_part <= np.abs(diag) + ident[None, :] + 1e-12)
        total += batch
    # identity growth-functional bound across mu, beta
    for mu_i in np.linspace(0.25, 4.0, 16):
        for beta in (1, 2, 3):
            cap_i = max(40, int(20 / mu_i))
            js = np.arange(cap_i + 1, dtype=float)
            qi = math.exp(-mu_i)
            val = float(np.sum((1 - qi) * qi ** js * (js + beta) ** beta)
                        / (1 - qi ** (cap_i + 1)))
            assert val <= beta ** beta * (1 - qi) ** (-beta) * (1 + 1e-12)
    report(5, "projection coefficient bounds: 1e5 instances, zero violations")


def _batched_monomial_check(cap, mu, probes, batches, batch):
    """Vectorized single-site probe inequality check; returns instance count."""
    q = math.exp(-mu)
    head = max(p.beta for p in probes)
    w = np.array([(1 - q) * q ** n for n in range(cap + 1)])
    sw = np.sqrt(w)
    sww = np.outer(sw, sw)
    z = 1 - q ** (cap + 1)
    basis = FockBasis(1, cap)
    mats = [p.to_matrix(basis).toarray() for p in probes]
    ns = np.arange(cap + 1, dtype=float)
    count = 0
    for _ in range(batches):
        o = RNG.normal(size=(batch, cap + 1, cap + 1)) \
            + 1j * RNG.normal(size=(batch, cap + 1, cap + 1))
        o[:, cap + 1 - head:, :] = 0   # headroom: products stay exact
        o[:, :, cap + 1 - head:] = 0
        for probe, pm in zip(probes, mats):
            beta, gamma = probe.beta, probe.gamma
            comm = np.einsum("bij,jk->bik", o, pm) - np.einsum("ij,bjk->bik", pm, o)
            lhs = np.einsum("bij,ij->b", np.abs(comm) ** 2, sww)
            # projected growth functional of each instance
            avg = np.einsum("bnn,n->b", o, w) / z
            po = o - avg[:, None, None] * np.eye(cap + 1)[None]
            fw = (np.maximum(ns[:, None], ns[None, :]) + beta) ** beta
            fval = np.einsum("bij,ij->b", np.abs(po) ** 2, sww * fw)
            pref = (8.0 * beta ** beta * math.cosh(mu * gamma / 2)
                    * (1 + beta * (beta / (1 - q)) ** beta))
            assert np.all(lhs <= pref * fval * (1 + 1e-9) + 1e-12)
            count += batch
    return count


def test_criterion_5_monomial_commutator_fuzz():
    probes = [MonomialOp.from_dicts(eta={0: 1}),
              MonomialOp.from_dicts(zeta={0: 1}),
              MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1}),
              MonomialOp.from_dicts(eta={0: 2}),
              MonomialOp.from_dicts(zeta={0: 2})]
    count = _batched_monomial_check(cap=14, mu=0.9, probes=probes,
                                    batches=25, batch=1000)
    assert count >= 100_000
    # plus multi-site instances through the full machinery
    basis = FockBasis(2, 5)
    w = MuWeights(0.8, basis)
    from bosonlc.opspace import monomial_commutator_bound
    for _ in range(300):
        mat = RNG.normal(size=(basis.dim,) * 2) + 1j * RNG.normal(size=(basis.dim,) * 2)
        keep = basis.states.max(axis=1) <= 3
        mat[~keep, :] = 0
        mat[:, ~keep] = 0
        o = sp.csr_matrix(mat)
        probe = MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1})
        lhs, rhs = monomial_commutator_bound(o, probe, w)
        assert lhs <= rhs * (1 + 1e-10)
    report(5, f"monomial commutator bound: {count + 300} instances, zero violations")


def test_criterion_5_scalar_inequality_fuzz():
    total = 0
    for beta in (1, 2, 3):
        n = 400_000
        xi_u = 10.0 ** RNG.uniform(-8, 8, n)
        xi_v = 10.0 ** RNG.uniform(-8, 8, n)
        phi = 10.0 ** RNG.uniform(-6, 6, n)
        psi = 10.0 ** RNG.uniform(-6, 6, n)
        ok = B.check_scalar_inequality(xi_u, xi_v, phi, psi, beta)
        assert np.all(ok), f"beta={beta}: {int(np.sum(~ok))} violations"
        total += n
    assert total >= 1_000_000
    report(5, f"scalar product inequality: {total} instances, zero violations")


def test_criterion_5_covering_count_fuzz():
    graphs = [build_path(30), build_cubic([6, 6]), build_regular_tree(3, 4),
              build_regular_tree(4, 3)]
    total = 0
    for g in graphs:
        n = g.num_vertices
        k = g.max_degree
        dist = np.array([g.distances_from(v) for v in range(n)])
        edges = np.array(g.edges)
        for _ in range(25_000 // 1000):
            xs = RNG.integers(0, n, 1000)
            ys = RNG.integers(0, n, 1000)
            radii = RNG.integers(0, 3, 1000)
            # vectorized covering count over all edges at once
            du = np.minimum(dist[xs][:, edges[:, 0]], dist[xs][:, edges[:, 1]])
            dv = np.minimum(dist[ys][:, edges[:, 0]], dist[ys][:, edges[:, 1]])
            counts = np.sum((du <= radii[:, None]) & (dv <= radii[:, None]), axis=1)
            assert np.all(counts <= k ** (radii + 1))
            far = dist[xs, ys] > 2 * radii + 1
            assert np.all(counts[far] == 0)
            total += 1000
    assert total >= 100_000
    report(5, f"edge covering count: {total} instances, zero violations")


# ---------------------------------------------------------------------------
# criterion 6: envelope dominance


def test_criterion_6_envelope_dominance_graphs():
    checked = 0
    for g, seed_vertex in [(build_path(13), 6), (build_cubic([4, 4]), 5),
                           (build_regular_tree(3, 3), 0)]:
        k = g.max_degree
        coup = B.m_matrix_bound(MU, 1, 0, k)
        c0 = B.initial_envelope({seed_vertex: 2.0}, [seed_vertex], 0, MU, 1, g)
        v = 4 * k * coup.offdiag
        times = [0.1 / v, 0.4 / v, 0.9 / v]
        env = B.integrate_envelope(g, coup, c0, times, 0)
        g0 = float(c0.sum())
        for t in times:
            for x in g.vertices():
                r = distance(g, x, seed_vertex)
                if r == 0 or not math.isfinite(r):
                    continue
                closed = B.closed_form_envelope(int(r), t, coup.offdiag, k, 0, g0)
                assert env.at(x, t) <= closed * (1 + 1e-9)
                checked += 1
    report(6, f"integrated envelope below the closed form in {checked} cells")


def test_criterion_6_measured_below_envelope(big_scan):
    model, basis, engine = big_scan["model"], big_scan["basis"], big_scan["engine"]
    w = MuWeights(MU, basis)
    v = big_scan["velocity"]
    g = model.graph
    coup = B.m_matrix_bound(MU, 1, 0, g.max_degree)
    a0 = big_scan["op"].to_matrix(basis)
    seeds = {0: f_beta_expectation(a0, 0, 1, w, projected=False)}
    c0 = B.initial_envelope(seeds, [0], 0, MU, 1, g,
                            norm_sq=weighted_norm_sq(a0, w))
    times = [0.4 * 2 / v, 0.95 * 4 / v, 0.95 * 6 / v]
    env = B.integrate_envelope(g, coup, c0, times, 0)
    tail = w.tail_estimate()
    worst = -math.inf
    for t in times:
        a_t = engine.evolved_operator(t)
        for x in g.vertices():
            measured = f_beta_expectation(a_t, x, 1, w, projected=True)
            margin = env.at(x, t) + tail - measured
            assert margin >= 0
            worst = max(worst, measured - env.at(x, t))
    report(6, f"measured growth functionals below the integrated envelope "
              f"(worst excess over envelope alone {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 7: certified truncation at desk scale


def test_criterion_7_certified_truncation():
    length = 11
    model = bose_hubbard(build_path(length), 1.0, 1.0)
    occ = [1] * length
    assumption = fock_state_assumption(occ)
    density = MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1})
    t = 0.5
    errors = {}
    for r in (1, 2, 3):
        small = certified_expectation(model, occ, density, t, assumption,
                                      radius=r, per_site_cap=3)
        big = certified_expectation(model, occ, density, t, assumption,
                                    radius=r + 2, per_site_cap=5)
        observed = abs(small.value - big.value)
        budget = small.restriction_error + small.cutoff_error
        # with unit scale constants the budget must cover the observation.
        # At desk scale this is vacuous: radius r is far below the formula
        # radius (~1.4e5), so restriction_error is inf and the certificate
        # status reads "vacuous"
        assert small.status == "vacuous"
        assert observed <= budget
        errors[r] = observed
    rs = np.array(sorted(errors), dtype=float)
    ys = np.array([math.log(errors[r]) for r in sorted(errors)])
    slope = float(np.polyfit(rs, ys, 1)[0])
    assert slope <= -1.0 / (4 * 0 + 2) + 0.1
    report(7, f"certified vs reference errors {[f'{errors[r]:.2e}' for r in sorted(errors)]}, "
              f"log-slope {slope:.2f} <= -0.4")


# ---------------------------------------------------------------------------
# criterion 8: clustering shape


def test_criterion_8_clustering_shape(tmp_path):
    model = bose_hubbard(build_path(8), 1.0, 20.0)
    rep = clustering_experiment(model, [1, 2, 3, 4], per_site_cap=2, filling=1)
    vals = [row.exact for row in rep.rows]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:])), "not monotone"
    assert rep.gap > 1.0
    for row in rep.rows:
        assert row.exact <= row.bound

    # gapless configuration refused with exit code 4 through the CLI
    import yaml
    from bosonlc.cli import main
    cfg = {
        "model": {"graph": {"kind": "path", "length": 6}, "hopping": 0.0,
                  "interactions": [], "range": 0},
        "ensemble": {"mu": 1.0, "per_site_cap": 2},
        "experiment": {"kind": "cluster", "r_values": [1, 2]},
        "output": {"dir": str(tmp_path / "out")},
        "seed": 1,
    }
    path = tmp_path / "gapless.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["cluster", str(path)]) == 4
    report(8, f"Mott correlations decay monotonically {[f'{v:.1e}' for v in vals]}; "
              f"gapless model refused with exit code 4")


# ---------------------------------------------------------------------------
# criterion 9: determinism


def test_criterion_9_determinism(tmp_path):
    import yaml
    from bosonlc.cli import main
    cfg = {
        "model": {"graph": {"kind": "path", "length": 5}, "hopping": 1.0,
                  "interactions": [{"kind": "onsite", "strength": 1.0}], "range": 0},
        "ensemble": {"mu": 1.0, "per_site_cap": 2},
        "experiment": {"kind": "scan", "evolve": {"zeta": {0: 1}},
                       "probe": {"eta": {0: 1}}, "r_values": [2, 3, 4],
                       "cone_fractions": [0.5, 0.9], "extra_times": [0.01]},
        "output": {"dir": str(tmp_path / "out")},
        "seed": 123,
    }
    path = tmp_path / "scan.yaml"
    path.write_text(yaml.safe_dump(cfg))
    blobs = []
    for _ in range(2):
        assert main(["scan", str(path)]) == 0
        blobs.append(((tmp_path / "out" / "scan.csv").read_bytes(),
                      (tmp_path / "out" / "scan.json").read_bytes()))
        assert main(["bounds", str(path)]) == 0
        blobs[-1] += ((tmp_path / "out" / "bounds.json").read_bytes(),)
    assert blobs[0] == blobs[1]
    report(9, "byte-identical CSV/JSON across repeated runs")
