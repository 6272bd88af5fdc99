"""Built-in property suite: the analytic inequalities re-checked at runtime.

Each check runs a seeded randomized batch and reports pass/fail with the
worst margin seen.  The CLI ``selftest`` subcommand exits nonzero if any
inequality is violated.
"""

from __future__ import annotations

import math

import numpy as np

from . import bounds as bounds_mod
from .fock import (FockBasis, build_hamiltonian, check_number_conservation,
                   random_model_spec, total_number_op)
from .lattice import build_cubic, build_path, build_regular_tree, count_covering_edges, distance
from .opspace import (MonomialOp, MuWeights, OperatorMatrix, apply_liouvillian,
                      check_thermal_relation, identity_f_beta, monomial_commutator_bound,
                      weighted_inner, weighted_norm_sq)


def _check(name, samples, passed, detail=""):
    return {"name": name, "samples": int(samples), "passed": bool(passed),
            "detail": detail}


def _velocity_identities():
    ok = True
    for mu in (0.25, 0.5, 1.0, 2.0, 7.0, math.inf):
        for k in (1, 2, 3, 4, 6):
            ok &= (bounds_mod.velocity_bound(mu, k, 0, 1)
                   == bounds_mod.velocity_from_coupling(mu, k, 0, 1))
    ok &= bounds_mod.velocity_bound(math.inf, 2, 0, 1) == 496.0
    return _check("velocity coupling composition (exact)", 30, ok)


def _scalar_inequality(rng, samples):
    bad = 0
    for beta in (1, 2, 3):
        xi_u = rng.uniform(1e-6, 1e3, samples)
        xi_v = rng.uniform(1e-6, 1e3, samples)
        phi = rng.uniform(1e-6, 1e2, samples)
        psi = rng.uniform(1e-6, 1e2, samples)
        bad += int(np.sum(~bounds_mod.check_scalar_inequality(xi_u, xi_v, phi, psi, beta)))
    return _check("scalar product inequality", 3 * samples, bad == 0,
                  f"{bad} violations")


def _covering_bound(rng, samples):
    graphs = [build_path(24), build_cubic([5, 5]), build_regular_tree(3, 4)]
    bad = 0
    done = 0
    while done < samples:
        g = graphs[int(rng.integers(len(graphs)))]
        x = int(rng.integers(g.num_vertices))
        y = int(rng.integers(g.num_vertices))
        ell = int(rng.integers(0, 3))
        count = count_covering_edges(g, x, y, ell)
        k = g.max_degree
        if count > k ** (ell + 1):
            bad += 1
        if distance(g, x, y) > 2 * ell + 1 and count != 0:
            bad += 1
        done += 1
    return _check("edge covering count bound", samples, bad == 0, f"{bad} violations")


def _metric_properties(rng, samples):
    g = build_regular_tree(3, 4)
    bad = 0
    for _ in range(samples):
        u, v, w = (int(rng.integers(g.num_vertices)) for _ in range(3))
        duv = distance(g, u, v)
        if duv != distance(g, v, u):
            bad += 1
        if (duv == 0) != (u == v):
            bad += 1
        if duv > distance(g, u, w) + distance(g, w, v):
            bad += 1
    return _check("graph metric axioms", samples, bad == 0, f"{bad} violations")


def _single_site_projections(rng, samples, mu=0.7, cap=30):
    """Identity-projection coefficient bounds on a capped single site."""
    basis = FockBasis(1, per_site_cap=cap)
    w = MuWeights(mu, basis)
    q = w.q
    z = w.site_partition
    ns = np.arange(cap + 1)
    identity_coeff = np.sqrt((1 - q) / z) * np.exp(-mu * ns / 2.0)  # (nn|I), unit I
    bad = 0
    batch = max(1, samples // 50)
    done = 0
    while done < samples:
        m = min(batch, samples - done)
        coeffs = rng.normal(size=(m, cap + 1, cap + 1)) + 1j * rng.normal(size=(m, cap + 1, cap + 1))
        coeffs /= np.linalg.norm(coeffs.reshape(m, -1), axis=1)[:, None, None]
        overlap = np.einsum("n,mnn->m", identity_coeff, coeffs)
        # |(nn|(1-P)|O)| = (nn|I) |(I|O)| <= (nn|I)
        lhs = np.abs(overlap)[:, None] * identity_coeff[None, :]
        if np.any(lhs > identity_coeff[None, :] * (1 + 1e-12)):
            bad += int(np.sum(np.any(lhs > identity_coeff[None, :] * (1 + 1e-12), axis=1)))
        # |(nn|P|O)| <= |O_nn| + (nn|I)
        diag = np.abs(np.einsum("mnn->mn", coeffs))
        p_coeff = np.abs(np.einsum("mnn->mn", coeffs) - overlap[:, None] * identity_coeff[None, :])
        if np.any(p_coeff > diag + identity_coeff[None, :] + 1e-12):
            bad += int(np.sum(np.any(p_coeff > diag + identity_coeff[None, :] + 1e-12, axis=1)))
        done += m
    # identity growth functional bound, several mu and beta
    for mu_i in (0.3, 0.7, 1.0, 2.5):
        for beta in (1, 2, 3):
            cap_i = max(cap, int(8 / mu_i))
            val = identity_f_beta(mu_i, beta, cap_i)
            if val > beta ** beta * (1 - math.exp(-mu_i)) ** (-beta) * (1 + 1e-12):
                bad += 1
    return _check("single-site projection/growth bounds", samples, bad == 0,
                  f"{bad} violations")


def _monomial_bound(rng, samples):
    basis = FockBasis(2, per_site_cap=5)
    mu = 0.9
    w = MuWeights(mu, basis)
    bad = 0
    worst = 0.0
    for _ in range(samples):
        mat = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
        # keep occupancies <= 3 so products stay exact under the cap
        keep = (basis.states.max(axis=1) <= 3)
        mat[~keep] = 0
        mat[:, ~keep] = 0
        op = OperatorMatrix(mat, basis)
        choice = int(rng.integers(3))
        if choice == 0:
            probe = MonomialOp.from_dicts(eta={0: 1})
        elif choice == 1:
            probe = MonomialOp.from_dicts(zeta={1: 1})
        else:
            probe = MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1})
        lhs, rhs = monomial_commutator_bound(op, probe, w)
        if lhs > rhs * (1 + 1e-10):
            bad += 1
        worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
    return _check("monomial commutator bound", samples, bad == 0,
                  f"worst lhs/rhs = {worst:.3f}")


def _structural(rng, samples):
    bad = 0
    for _ in range(samples):
        model = random_model_spec(rng)
        basis = FockBasis(model.graph.num_vertices, per_site_cap=3)
        h = build_hamiltonian(model, basis, t=float(rng.uniform(0, 1)))
        n = total_number_op(basis)
        if not check_number_conservation(h, n):
            bad += 1
        if (h != h.conjugate().transpose()).nnz != 0:
            bad += 1
    return _check("number conservation + hermiticity", samples, bad == 0,
                  f"{bad} violations")


def _anti_hermiticity(rng, samples):
    basis = FockBasis(3, per_site_cap=4, total_cap=4)
    model = random_model_spec(rng, graph=build_path(3))
    h = build_hamiltonian(model, basis, 0.0)
    w = MuWeights(1.1, basis)
    worst = 0.0
    for _ in range(samples):
        a = OperatorMatrix(rng.normal(size=(basis.dim, basis.dim))
                           + 1j * rng.normal(size=(basis.dim, basis.dim)), basis)
        b = OperatorMatrix(rng.normal(size=(basis.dim, basis.dim))
                           + 1j * rng.normal(size=(basis.dim, basis.dim)), basis)
        lhs = weighted_inner(a, apply_liouvillian(h, b), w)
        rhs = -np.conj(weighted_inner(b, apply_liouvillian(h, a), w))
        scale = max(1.0, math.sqrt(weighted_norm_sq(a, w) * weighted_norm_sq(b, w)))
        worst = max(worst, abs(lhs - rhs) / scale)
    return _check("generator anti-hermiticity", samples, worst <= 1e-10,
                  f"worst residual {worst:.2e}")


def _thermal_relation():
    basis = FockBasis(1, per_site_cap=40)
    w = MuWeights(1.0, basis)
    allowance = w.tail_estimate() + 1e-12  # identity is exact; allow float noise
    b_op = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    res = check_thermal_relation(b_op, b_op, k=1, k_prime=0, w=w)
    ident = OperatorMatrix.identity(basis)
    res2 = check_thermal_relation(b_op, ident, k=0, k_prime=1, w=w)
    return _check("thermal inner-product relation", 2,
                  res <= allowance and res2 <= allowance,
                  f"residuals {res:.2e}, {res2:.2e}")


def _envelope_dominance():
    g = build_path(9)
    coupling = bounds_mod.m_matrix_bound(1.0, 1, 0, g.max_degree)
    seeds = {4: 2.0}
    c0 = bounds_mod.initial_envelope(seeds, [4], 0, 1.0, 1, g)
    times = [0.001, 0.002, 0.004]
    env = bounds_mod.integrate_envelope(g, coupling, c0, times, 0)
    g0 = float(c0.sum())
    bad = 0
    for t in times:
        for x in g.vertices():
            r = abs(x - 4)
            if r == 0:
                continue
            closed = bounds_mod.closed_form_envelope(r, t, coupling.offdiag,
                                                     g.max_degree, 0, g0)
            if env.at(x, t) > closed * (1 + 1e-9):
                bad += 1
    return _check("envelope closed form dominates integration", len(times) * 8,
                  bad == 0, f"{bad} violations")


def run_selftest(seed: int = 0, samples: int = 20000) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = [
        _velocity_identities(),
        _scalar_inequality(rng, samples),
        _covering_bound(rng, max(2000, samples // 10)),
        _metric_properties(rng, max(1000, samples // 20)),
        _single_site_projections(rng, max(2000, samples // 10)),
        _monomial_bound(rng, max(200, samples // 100)),
        _structural(rng, 25),
        _anti_hermiticity(rng, 20),
        _thermal_relation(),
        _envelope_dominance(),
    ]
    return checks
