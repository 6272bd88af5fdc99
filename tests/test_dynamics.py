import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sparse_linalg
from scipy.linalg import expm
from scipy.special import jv

from bosonlc import dynamics, opspace
from bosonlc.bounds import velocity_bound
from bosonlc.cli import main
from bosonlc.dynamics import (HeisenbergScanEngine, connected_correlation, evolve_state,
                              ground_state, lightcone_scan, single_particle_propagator)
from bosonlc.fock import (CapacityError, FockBasis, Interaction, ModelSpec, PiecewiseConstant,
                          bose_hubbard, build_hamiltonian, total_number_op)
from bosonlc.lattice import build_cubic, build_path
from bosonlc.opspace import (BlockOp, MonomialOp, MuWeights, commutator_weighted_norm, f_beta_expectation, sector_entries,
                             weighted_norm_sq)
from conftest import dense_f_beta, random_operator


# -- state evolution ------------------------------------------------------------

def test_evolve_state_zero_time():
    model = bose_hubbard(build_path(3), 1.0, 1.0)
    basis = FockBasis(3, 2)
    psi = np.zeros(basis.dim, complex)
    psi[3] = 1.0
    out, terms, bound = evolve_state(psi, model, basis, 0.0)
    assert np.array_equal(out, psi) and out is not psi
    assert (terms, bound) == (0, 0.0)


def test_evolve_state_diagonal_phases():
    model = bose_hubbard(build_path(3), 0.0, 1.3)
    basis = FockBasis(3, 2)
    h = build_hamiltonian(model, basis)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    out = evolve_state(psi, model, basis, 0.8)[0]
    expected = np.exp(-1j * h.diagonal() * 0.8) * psi
    assert np.max(np.abs(out - expected)) < 1e-10


def test_evolve_state_single_boson_matches_propagator():
    model = bose_hubbard(build_path(5), 1.0, 0.0)
    basis = FockBasis(5, 1, total_cap=1)
    psi = np.zeros(basis.dim, complex)
    psi[basis.index([0, 0, 1, 0, 0])] = 1.0
    out = evolve_state(psi, model, basis, 2.3)[0]
    g = single_particle_propagator(model, 2.3)
    for y in range(5):
        occ = [0] * 5
        occ[y] = 1
        assert out[basis.index(occ)] == pytest.approx(g[y, 2], abs=1e-9)


@pytest.mark.parametrize("start", ["real", "complex"])
@pytest.mark.parametrize("t", [1.1, -0.6, 4.0])
def test_evolve_state_matches_dense_expm(start, t):
    # a real start on a real H takes the float64 recursion, a complex one the
    # complex recursion; both against the dense exponential
    model = bose_hubbard(build_path(4), 1.0, 0.7)
    basis = FockBasis(4, 2)
    rng = np.random.default_rng(1)
    psi = rng.normal(size=basis.dim) + (1j * rng.normal(size=basis.dim) if start == "complex" else 0)
    psi /= np.linalg.norm(psi)
    out, terms, bound = evolve_state(psi, model, basis, t)
    dense = expm(-1j * t * build_hamiltonian(model, basis).toarray()) @ psi
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.linalg.norm(out - dense) <= bound + 1e-14
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    assert terms > 1 and 0.0 < bound <= 1e-14


def test_evolve_state_complex_phase_hopping_matches_dense_expm():
    g = build_path(4)
    model = ModelSpec(graph=g, hopping={e: PiecewiseConstant.constant(0.9 * np.exp(0.7j))
                                        for e in g.edges},
                      interactions=bose_hubbard(g, 1.0, 0.8).interactions, interaction_range=0)
    basis = FockBasis(4, 2)
    h = build_hamiltonian(model, basis)
    assert np.any(h.data.imag)
    psi = np.zeros(basis.dim, complex)
    psi[basis.index([2, 0, 1, 0])] = 1.0
    out, _, bound = evolve_state(psi, model, basis, 1.3)
    dense = expm(-1.3j * h.toarray()) @ psi
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.linalg.norm(out - dense) <= bound + 1e-14


@pytest.mark.parametrize("t,segments", [(1.0, [(0.0, 0.2), (0.2, 0.55), (0.55, 1.0)]),
                                        (-0.7, [(0.0, -0.3), (-0.3, -0.7)])],
                         ids=["forward", "backward"])
def test_evolve_state_piecewise_spans_match_dense_expm(t, segments):
    # forward across two breakpoints and backward across one, one dense
    # exponential per constant segment
    g = build_path(3)
    sched = PiecewiseConstant((-0.3, 0.2, 0.55), (0.7 + 0.2j, 1.0, 0.4 - 0.6j, -0.8))
    model = ModelSpec(graph=g, hopping={e: sched for e in g.edges},
                      interactions=bose_hubbard(g, 1.0, 1.2).interactions, interaction_range=0)
    basis = FockBasis(3, 3)
    rng = np.random.default_rng(5)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    out, terms, bound = evolve_state(psi, model, basis, t)
    dense = psi
    for a, b in segments:
        h = build_hamiltonian(model, basis, (a + b) / 2.0).toarray()
        dense = expm(-1j * (b - a) * h) @ dense
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.linalg.norm(out - dense) <= bound + 1e-14
    # each segment with its own expansion and bound
    assert dynamics._segments(model, t) == segments and terms > len(segments)


def test_chebyshev_zero_vector_stays_zero():
    h = build_hamiltonian(bose_hubbard(build_path(3), 1.0, 1.0), FockBasis(3, 2))
    out, terms, bound = dynamics._chebyshev_expv(h, np.zeros(h.shape[0], complex), 2.0)
    assert not np.any(out) and (terms, bound) == (0, 0.0)


def test_chebyshev_order_from_factorial_bound():
    # 2 sum_{k>K} (x/2)^k / k! <= tol at x = 32
    assert dynamics._chebyshev_terms(32.0, 1e-14)[0] == 67
    assert dynamics._chebyshev_terms(32.0, 1e-10)[0] == 61
    for x, tol in ((32.0, 1e-14), (3.0, 1e-6), (500.0, 1e-12)):
        order, bound = dynamics._chebyshev_terms(x, tol)
        tail = 2.0 * sum(math.exp(k * math.log(x / 2) - math.lgamma(k + 1))
                         for k in range(order + 1, order + 400))
        assert tail <= bound <= tol


def test_evolve_state_piecewise_schedule_and_subdivision():
    g = build_path(3)
    # constant J = 0.8 expressed twice: one segment vs artificially split
    plain = ModelSpec(graph=g, hopping={e: PiecewiseConstant.constant(0.8)
                                        for e in g.edges},
                      interactions=(), interaction_range=0)
    split = ModelSpec(graph=g, hopping={e: PiecewiseConstant((0.37, 0.61), (0.8, 0.8, 0.8))
                                        for e in g.edges},
                      interactions=(), interaction_range=0)
    basis = FockBasis(3, 2)
    rng = np.random.default_rng(2)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    a = evolve_state(psi, plain, basis, 1.0)[0]
    b = evolve_state(psi, split, basis, 1.0)[0]
    assert np.max(np.abs(a - b)) < 1e-10


def test_evolve_state_time_dependent_schedule():
    # J flips sign at t = 0.5: forward 1.0 then -1.0 refocuses the state
    g = build_path(4)
    model = ModelSpec(graph=g, hopping={e: PiecewiseConstant((0.5,), (1.0, -1.0))
                                        for e in g.edges},
                      interactions=(), interaction_range=0)
    basis = FockBasis(4, 1, total_cap=1)
    psi = np.zeros(basis.dim, complex)
    psi[basis.index([0, 1, 0, 0])] = 1.0
    out = evolve_state(psi, model, basis, 1.0)[0]
    assert np.max(np.abs(out - psi)) < 1e-9  # echo


# -- single particle propagator ----------------------------------------------------

def test_propagator_identity_unitarity():
    model = bose_hubbard(build_path(12), 1.0, 2.0)
    g0 = single_particle_propagator(model, 0.0)
    assert np.array_equal(g0, np.eye(12))
    g = single_particle_propagator(model, 1.7)
    assert np.max(np.abs(g.conj().T @ g - np.eye(12))) < 1e-12


def test_propagator_matches_dense_expm_oracle():
    model = bose_hubbard(build_path(9), 1.0, 0.0)
    h = model.hopping_matrix(0.0)
    for t in (0.3, 1.2):
        expected = expm(-1j * h * t)
        got = single_particle_propagator(model, t)
        assert np.max(np.abs(got - expected)) < 1e-10


def test_propagator_bessel_window():
    model = bose_hubbard(build_path(41), 1.0, 0.0)
    t = 1.5
    g = single_particle_propagator(model, t)
    center = 20
    for d in range(0, 8):
        assert abs(g[center + d, center]) == pytest.approx(abs(jv(d, 2 * t)), abs=1e-8)


# -- Heisenberg evolution ------------------------------------------------------------

def _dense_heisenberg(model, basis, op, t):
    """U^dag O U as a dense array, with U the product of dense expm over the
    schedule segments from 0 to t: an oracle independent of the eigensolves."""
    u = np.eye(basis.dim, dtype=np.complex128)
    for a, b in dynamics._segments(model, t):
        h = build_hamiltonian(model, basis, (a + b) / 2.0).toarray()
        u = expm(-1j * h * (b - a)) @ u
    return u.conj().T @ op.toarray() @ u


@pytest.fixture(scope="module")
def small_system():
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    basis = FockBasis(4, 3, total_cap=3)  # closed sectors
    return model, basis


def test_heisenberg_total_number_invariant(small_system):
    model, basis = small_system
    n_op = total_number_op(basis)
    n_t = HeisenbergScanEngine(model, basis, n_op).evolved_operator(0.9)
    assert np.max(np.abs((n_t.mat - n_op).toarray())) < 1e-10


def test_heisenberg_zero_time(small_system):
    model, basis = small_system
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bt = HeisenbergScanEngine(model, basis, b0).evolved_operator(0.0)
    assert np.max(np.abs((bt.mat - b0).toarray())) < 1e-14


def test_norm_preservation_long_time(small_system):
    model, basis = small_system
    w = MuWeights(1.0, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    norm0 = weighted_norm_sq(b0, w)
    engine = HeisenbergScanEngine(model, basis, b0)
    for t in (1.0, 5.0, 10.0):
        bt = engine.evolved_operator(t)
        ratio = weighted_norm_sq(bt, w) / norm0
        assert abs(ratio - 1.0) < 1e-9


def test_time_reversal(small_system):
    model, basis = small_system
    w = MuWeights(1.0, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bt = HeisenbergScanEngine(model, basis, b0).evolved_operator(1.3)
    back = HeisenbergScanEngine(model, basis, bt.mat).evolved_operator(-1.3)
    assert weighted_norm_sq(back.mat - b0, w) < 1e-16


def test_engine_evolves_an_operator_matrix(small_system):
    model, basis = small_system
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bt = HeisenbergScanEngine(model, basis, b0).evolved_operator(0.4)
    direct = _dense_heisenberg(model, basis, b0, 0.4)
    assert np.max(np.abs(bt.mat.toarray() - direct)) < 1e-13


def test_engine_refuses_a_time_dependent_model():
    """A schedule with breakpoints, complex or real, is refused before any
    operator is split or any H is built."""
    graph = build_path(4)
    basis = FockBasis(4, 2)
    for sched in (PiecewiseConstant((0.2, 0.55), (1.0, 0.4 - 0.6j, -0.8)),
                  PiecewiseConstant((0.2,), (1.0, 0.5))):
        model = ModelSpec(graph=graph, hopping={e: sched for e in graph.edges},
                          interactions=bose_hubbard(graph, 1.0, 1.0).interactions,
                          interaction_range=0)
        with pytest.raises(ValueError, match="time-independent"):
            HeisenbergScanEngine(model, basis, MonomialOp.from_dicts(zeta={0: 1}))


def test_engine_refuses_a_dense_block_over_the_state_budget():
    # 8 sites at cap 3 (65,536 states): b_0's largest sector pair joins 7,728
    # and 8,092 states, 62,534,976 dense entries; a scan holds 15 such blocks
    basis = FockBasis(8, 3)
    with pytest.raises(CapacityError, match="62534976 entries, budget is 5000000"):
        HeisenbergScanEngine(bose_hubbard(build_path(8), 1.0, 1.0), basis,
                             MonomialOp.from_dicts(zeta={0: 1}))


def test_hamiltonian_built_once_per_engine(monkeypatch):
    basis = FockBasis(4, 2)
    built = []
    real_build = dynamics.build_hamiltonian
    monkeypatch.setattr(dynamics, "build_hamiltonian",
                        lambda *a: built.append(a) or real_build(*a))
    engine = HeisenbergScanEngine(bose_hubbard(build_path(4), 1.0, 1.0), basis,
                                  MonomialOp.from_dicts(zeta={0: 1}))
    engine.evolved_blocks(0.0)
    assert built == []
    for t in (0.3, 0.5, 0.7):
        engine.evolved_blocks(t)
    assert len(built) == 1


def test_commutator_oracle_free_model():
    """With no interactions the evolved annihilation operator is c-number-
    related to the single particle propagator; matrix elements between
    cap-protected states reproduce G exactly."""
    length = 6
    model = bose_hubbard(build_path(length), 1.0, 0.0)
    basis = FockBasis(length, 2, total_cap=2)
    t = 0.9
    g = single_particle_propagator(model, t)
    for x in (2, 4):
        bx = MonomialOp.from_dicts(zeta={x: 1}).to_matrix(basis)
        bxt = HeisenbergScanEngine(model, basis, bx).evolved_operator(t)
        bdag0 = MonomialOp.from_dicts(eta={0: 1}).to_matrix(basis)
        comm = (bxt.mat @ bdag0 - bdag0 @ bxt.mat).toarray()
        # on states with total < total_cap the commutator is exactly G_x0 * I
        safe = basis.totals < basis.total_cap
        sub = comm[np.ix_(safe, safe)]
        expected = g[x, 0] * np.eye(int(safe.sum()))
        assert np.max(np.abs(sub - expected)) < 1e-8


def test_scan_engine_matches_dense_expm():
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    basis = FockBasis(4, 2)
    w = MuWeights(1.0, basis)
    op = MonomialOp.from_dicts(zeta={0: 1})
    engine = HeisenbergScanEngine(model, basis, op)
    t = 0.4
    a_t = engine.evolved_operator(t)
    a_t2 = sp.csr_matrix(_dense_heisenberg(model, basis, op.to_matrix(basis), t))
    assert weighted_norm_sq(a_t.mat - a_t2, w) < 1e-18
    probe = MonomialOp.from_dicts(eta={3: 1}).to_matrix(basis)
    direct = commutator_weighted_norm(a_t2, probe, w)
    fast = _dense_cell(engine, basis, w, 3, t)
    assert fast == pytest.approx(direct, rel=1e-10, abs=1e-18)


def test_evolved_operator_matches_dense_expm():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 2)
    w = MuWeights(1.0, basis)
    op = MonomialOp.from_dicts(zeta={0: 1})
    engine = HeisenbergScanEngine(model, basis, op)
    for t in (0.0, 0.3, 1.7):
        a_t = engine.evolved_operator(t)
        assert isinstance(a_t, BlockOp)
        assert sorted(a_t.blocks) == [(n - 1, n) for n in range(1, 11)]
        ref = sp.csr_matrix(_dense_heisenberg(model, basis, op.to_matrix(basis), t))
        assert weighted_norm_sq(a_t.mat - ref, w) < 1e-18
        assert weighted_norm_sq(a_t, w) == pytest.approx(weighted_norm_sq(ref, w), rel=1e-12)


def _complex_eig_evolved_blocks(model, basis, op, t):
    """O(t) blocks from complex Hermitian eigensolves, independent of the engine."""
    h = build_hamiltonian(model, basis).toarray().astype(np.complex128)
    eigs = {}
    for n, ix in enumerate(basis.sectors):
        eigs[n] = np.linalg.eigh(h[np.ix_(ix, ix)])
    out = {}
    for (n_row, n_col), dense in BlockOp.from_matrix(basis, op.to_matrix(basis)).blocks.items():
        (e_r, v_r), (e_c, v_c) = eigs[n_row], eigs[n_col]
        tilde = v_r.conj().T @ dense @ v_c
        phased = np.exp(1j * e_r * t)[:, None] * tilde * np.exp(-1j * e_c * t)[None, :]
        out[(n_row, n_col)] = v_r @ phased @ v_c.conj().T
    return out


def test_real_model_keeps_real_accumulators(monkeypatch):
    model = bose_hubbard(build_path(4), 1.0, 1.3)
    basis = FockBasis(4, 3)
    op = MonomialOp.from_dicts(zeta={1: 1})
    applied = []
    real_ad = dynamics._ad
    monkeypatch.setattr(dynamics, "_ad",
                        lambda *a, **kw: applied.append(a[2].dtype) or real_ad(*a, **kw))
    t = 0.8
    got = HeisenbergScanEngine(model, basis, op).evolved_blocks(t)
    assert applied and set(applied) == {np.dtype(np.float64)}
    want = _complex_eig_evolved_blocks(model, basis, op, t)
    assert got.keys() == want.keys()
    for pair, block in want.items():
        assert np.linalg.norm(got[pair] - block) <= 1e-12 * np.linalg.norm(block)


def test_long_span_matches_dense_expm_within_bound(rng):
    # complex hopping phases and a complex operator: one expansion per block
    # over t = 10; at loose tolerances the truncation error is visible and
    # stays below the a-priori bound, which scales with the block's norm
    g = build_path(4)
    model = ModelSpec(graph=g, hopping={e: PiecewiseConstant.constant(0.9 * np.exp(0.7j))
                                        for e in g.edges},
                      interactions=bose_hubbard(g, 1.0, 0.8).interactions, interaction_range=0)
    basis = FockBasis(4, 2)
    op = random_operator(rng, basis)
    t = 10.0
    dense = _dense_heisenberg(model, basis, op, t)
    engine = HeisenbergScanEngine(model, basis, op)
    assert np.max(np.abs(engine.evolved_operator(t).mat.toarray() - dense)) < 1e-12
    h, lo, hi, h_t = dynamics._split_hamiltonian(build_hamiltonian(model, basis), basis)
    for (n_row, n_col), block in BlockOp.from_matrix(basis, op).blocks.items():
        want = dense[np.ix_(basis.sectors[n_row], basis.sectors[n_col])]
        for tol in (1e-3, 1e-6, 1e-14):
            out, terms, bound = dynamics._chebyshev_expv(
                h[n_row], block.copy(), -t, tol, interval=(lo[n_row] - hi[n_col], hi[n_row] - lo[n_col]),
                h_col_t=h_t[n_col])
            assert np.linalg.norm(out - want) <= bound + 1e-12
            assert bound <= tol * np.linalg.norm(block)


def _allocating_expv(h, v, t, interval=None, h_col_t=None):
    """The Chebyshev recursion with fresh arrays at every step (reference): the
    products, sums and phase of ``_chebyshev_expv`` in the same order."""
    mats = [h] if h_col_t is None else [h, h_col_t]
    real = (not any(np.iscomplexobj(m.data) and np.any(m.data.imag) for m in mats)
            and not np.any(np.imag(v)))
    cur = np.array(np.real(v) if real else v, dtype=np.float64 if real else np.complex128)
    if interval is None:
        lower, upper = dynamics._gershgorin(h)
        interval = float(lower.min()), float(upper.max())
    lo, hi = interval
    c, a = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0
    order, _ = dynamics._chebyshev_terms(a * abs(t), 1e-14)
    coef = 2.0 * jv(np.arange(order + 1), a * abs(t))
    coef[0] /= 2.0
    coef[2::4] *= -1.0
    coef[3::4] *= -1.0
    h2 = [sp.csr_matrix(((m.data.real if real else m.data.astype(np.complex128)) * (2.0 / a),
                         m.indices, m.indptr), shape=m.shape) for m in mats]
    shift = 2.0 * c / a
    if h_col_t is None:
        def two_x(x):
            return h2[0] @ x - shift * x
    else:
        row = h2[0] - shift * sp.identity(h2[0].shape[0], format="csr")

        def two_x(x):
            return row @ x - (h2[1] @ np.ascontiguousarray(x.T)).T
    prev, cur = cur, 0.5 * two_x(cur)
    acc = [coef[0] * prev, coef[1] * cur]
    for k in range(2, order + 1):
        prev, cur = cur, two_x(cur) - prev
        acc[k % 2] = acc[k % 2] + coef[k] * cur
    return np.exp(-1j * c * t) * (acc[0] + acc[1] * (-1j if t > 0 else 1j))


def _chain4(hopping):
    g = build_path(4)
    model = ModelSpec(graph=g, hopping={e: PiecewiseConstant.constant(hopping) for e in g.edges},
                      interactions=bose_hubbard(g, 1.0, 1.3).interactions, interaction_range=0)
    basis = FockBasis(4, 3)
    return build_hamiltonian(model, basis), basis


@pytest.mark.parametrize("hopping", [0.9, 0.9 * np.exp(0.7j)])
@pytest.mark.parametrize("t", [0.7, -0.4])
@pytest.mark.parametrize("given", [False, True])
def test_chebyshev_buffers_equal_allocating_recursion(rng, hopping, t, given):
    # states and blocks (real, complex, Fortran-ordered) under real and
    # complex H: the recursion in owned buffers equals a fresh-array one
    h, basis = _chain4(hopping)
    lower, upper = dynamics._gershgorin(h)
    interval = (float(lower.min()) - 0.5, float(upper.max()) + 0.25) if given else None
    for psi in (rng.normal(size=basis.dim),
                rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)):
        got, terms, _ = dynamics._chebyshev_expv(h.copy(), psi, t, interval=interval)
        assert terms > 2 and np.all(got == _allocating_expv(h, psi, t, interval))
    blocks, lo, hi, h_t = dynamics._split_hamiltonian(h, basis)
    n_row, n_col = 5, 6
    shape = (basis.sectors[n_row].size, basis.sectors[n_col].size)
    real = rng.normal(size=shape)
    if not given:   # ad_H has no default interval
        with pytest.raises(ValueError, match="interval"):
            dynamics._chebyshev_expv(blocks[n_row], real, t, h_col_t=h_t[n_col])
        return
    ival = (lo[n_row] - hi[n_col], hi[n_row] - lo[n_col])
    for block in (real, real + 1j * rng.normal(size=shape), np.asfortranarray(real)):
        got = dynamics._chebyshev_expv(blocks[n_row], block.copy(order="K"), t, interval=ival,
                                       h_col_t=h_t[n_col])[0]
        want = _allocating_expv(blocks[n_row], block, t, ival, h_col_t=blocks[n_col].T.tocsr())
        assert np.all(got == want)


def test_ad_expansion_needs_the_pair_interval():
    # H's row-block interval does not enclose ad_H's spectrum: on this block
    # the expansion on it grows the norm about a hundredfold (a unitary map
    # keeps it) under a truncation bound near 1e-13, so the call is refused
    h, basis = _chain4(0.9)
    blocks, lo, hi, h_t = dynamics._split_hamiltonian(h, basis)
    n_row, n_col = 5, 6
    shape = (basis.sectors[n_row].size, basis.sectors[n_col].size)
    block = np.random.default_rng(0).normal(size=shape)
    t = 0.7
    with pytest.raises(ValueError, match="interval"):
        dynamics._chebyshev_expv(blocks[n_row], block, t, h_col_t=h_t[n_col])
    diverged = _allocating_expv(blocks[n_row], block, t, h_col_t=h_t[n_col])
    assert np.linalg.norm(diverged) > 10 * np.linalg.norm(block)
    out, _, bound = dynamics._chebyshev_expv(
        blocks[n_row], block.copy(), t, interval=(lo[n_row] - hi[n_col], hi[n_row] - lo[n_col]),
        h_col_t=h_t[n_col])
    assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(block), rel=1e-12)
    assert bound <= 1e-14 * np.linalg.norm(block)


@pytest.mark.parametrize("hopping", [0.9, 0.9 * np.exp(0.7j)])
def test_ad_writes_into_a_sequence_slot(rng, hopping):
    # one slot of a larger array takes H_row M - M H_col, equal to scipy's
    # products; the neighbouring slots stay untouched, and a strided output
    # is refused.  (1, 0) and (0, 1) have a single column on one side, the
    # matrix-vector route
    h, basis = _chain4(hopping)
    blocks, _, _, h_t = dynamics._split_hamiltonian(h, basis)
    for n_row, n_col in ((5, 6), (1, 0), (0, 1)):
        shape = (basis.sectors[n_row].size, basis.sectors[n_col].size)
        for m in (rng.normal(size=shape), rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            dtype = np.result_type(h.dtype, m.dtype)
            seq = np.zeros((3,) + shape, dtype)
            mt, tmp = np.empty(shape[::-1], dtype), np.empty(shape[::-1], dtype)
            got = dynamics._ad(blocks[n_row], h_t[n_col], m.astype(dtype), seq[1], mt, tmp)
            assert np.shares_memory(got, seq[1])
            assert np.all(seq[1] == blocks[n_row] @ m - (h_t[n_col] @ m.T).T)
            assert not np.any(seq[0]) and not np.any(seq[2])
            with pytest.raises(ValueError, match="C-contiguous"):   # a write would be lost
                dynamics._ad(blocks[n_row], h_t[n_col], m.astype(dtype),
                             np.empty((shape[0], 2 * shape[1]), dtype)[:, ::2], mt, tmp)


def test_ad_expansion_peak_memory():
    # b_0's largest block on the 6-site cap-3 chain, 546 x 580 float64: one
    # expansion (138 terms) starts its recursion in the given block and holds
    # two more recursion buffers, two transposed ones and the complex result,
    # 6 blocks, and allocates nothing per step (a copy of the block made 7)
    basis = FockBasis(6, 3)
    h, lo, hi, h_t = dynamics._split_hamiltonian(
        build_hamiltonian(bose_hubbard(build_path(6), 1.0, 1.0), basis), basis)
    op = BlockOp.from_matrix(basis, MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis))
    (n_row, n_col), block = max(op.blocks.items(), key=lambda kv: kv[1].size)
    assert block.shape == (546, 580)
    tracemalloc.start()
    try:
        dynamics._chebyshev_expv(h[n_row], block, 2.0, h_col_t=h_t[n_col],
                                 interval=(lo[n_row] - hi[n_col], hi[n_row] - lo[n_col]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * block.nbytes


@pytest.mark.parametrize("hopping", [1.0, np.exp(0.7j)])
def test_state_expansion_allocates_nothing_of_h_size(hopping):
    # after H is built, one expansion of a state holds vectors and one chunk
    # of |H| for the Gershgorin sums, about half of H's values on the 3 x 3
    # cap-2 lattice (19,683 states, 11.7 stored entries a row); an |H| or a
    # scaled copy of H's values (its size each) made it 1.6-1.7
    g = build_cubic([3, 3])
    model = ModelSpec(graph=g, hopping={e: PiecewiseConstant.constant(hopping) for e in g.edges},
                      interactions=bose_hubbard(g, 1.0, 1.0).interactions, interaction_range=0)
    basis = FockBasis(9, 2)
    h = build_hamiltonian(model, basis)
    psi = np.random.default_rng(3).normal(size=basis.dim) * hopping
    assert h.shape[0] > 4 * dynamics._GERSHGORIN_ROWS
    _, peak = _traced_peak(lambda: dynamics._chebyshev_expv(h, psi, 1.0))
    assert peak < h.data.nbytes


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("hopping", [0.9, 0.9 * np.exp(0.7j)])
def test_gershgorin_chunks_equal_scipy_row_sums(rng, monkeypatch, hopping, rows):
    # the row sums of |H|, taken a chunk of rows at a time, equal scipy's
    # sum(axis=1) bit for bit: random values, and rows with no stored entry
    # at both ends and as a whole chunk of 3
    if rows is not None:
        monkeypatch.setattr(dynamics, "_GERSHGORIN_ROWS", rows)
    h, _ = _chain4(hopping)
    keep = np.ones(h.shape[0])
    keep[[0, 6, 7, 8, -1]] = 0.0
    h = (sp.diags(keep) @ h).tocsr()
    data = rng.normal(size=h.nnz) + (1j * rng.normal(size=h.nnz) if h.dtype.kind == "c" else 0)
    h = dynamics._with_data(h, data)
    assert np.count_nonzero(np.diff(h.indptr) == 0) == 5
    diag = h.diagonal().real
    radius = np.asarray(dynamics._with_data(h, np.abs(h.data)).sum(axis=1)).ravel() - np.abs(diag)
    lower, upper = dynamics._gershgorin(h)
    assert lower.tobytes() == (diag - radius).tobytes()
    assert upper.tobytes() == (diag + radius).tobytes()


def _traced_peak(run):
    """(result, peak bytes traced by tracemalloc while ``run()`` ran)."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(5, 5), (40, 40), (27, 26)])
def test_operator_not_over_the_basis_is_refused(shape):
    # on the 27-state basis a 5 x 5 matrix gave a wrong evolved operator and a
    # 40 x 40 one an IndexError; every sector split now refuses both
    model = bose_hubbard(build_path(3), 1.0, 1.0)
    basis = FockBasis(3, 2)
    op = sp.eye(*shape, format="csr")
    for split in (lambda: sector_entries(op, basis), lambda: BlockOp.from_matrix(basis, op),
                  lambda: HeisenbergScanEngine(model, basis, op)):
        with pytest.raises(ValueError, match="is not over the 27-state basis"):
            split()


def test_series_refuses_an_operator_of_no_definite_number_change():
    # b + b+ maps each column sector to two row sectors: no gamma_A to scan by
    model = bose_hubbard(build_path(3), 1.0, 1.0)
    basis = FockBasis(3, 2)
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    engine = HeisenbergScanEngine(model, basis, (b + b.T).tocsr())
    maps = {2: sector_entries(MonomialOp.from_dicts(eta={2: 1}).to_matrix(basis), basis)}
    with pytest.raises(ValueError, match="definite number change"):
        dynamics.commutator_series(engine, maps, {2: 2}, MuWeights(1.0, basis))


def test_scan_builds_h_and_splits_each_operator_once(monkeypatch, tmp_path):
    # the golden 5-site scan, its dense t = 0.5 cells included: one H, one
    # split of H and one split of A serve both routes, the seeds and the norm
    a = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(FockBasis(5, 3))
    calls = dict.fromkeys(("build_hamiltonian", "_split_hamiltonian", "A"), 0)

    def counted(name):
        def call(*args):
            calls[name] += 1
            return original(*args)
        original = getattr(dynamics, name)
        return call

    def entries(mat, basis):
        calls["A"] += mat.shape == a.shape and (mat != a).nnz == 0
        return sector_entries(mat, basis)

    for name in ("build_hamiltonian", "_split_hamiltonian"):
        monkeypatch.setattr(dynamics, name, counted(name))
    for module in (dynamics, opspace):
        monkeypatch.setattr(module, "sector_entries", entries)
    config = Path(__file__).parent / "golden" / "scan_5site.yaml"
    assert main(["scan", str(config), "--out", str(tmp_path)]) == 0
    series = json.loads((tmp_path / "scan.json").read_text())["metadata"]["series"]
    assert series["dense_cells"] == [[r, 0.5] for r in (1, 2, 3, 4)]
    assert calls == {"build_hamiltonian": 1, "_split_hamiltonian": 1, "A": 1}


def test_engine_peak_memory_holds_one_initial_block():
    # b_0 on the 6-site cap-3 chain at t = 4.75/880: beside the complex
    # result, the engine holds H, one expansion's buffers and one dense block
    # of b_0 at a time, not all of them (then it was 8.5 real blocks over)
    model = bose_hubbard(build_path(6), 1.0, 1.0)
    basis = FockBasis(6, 3)
    blocks, peak = _traced_peak(lambda: HeisenbergScanEngine(
        model, basis, MonomialOp.from_dicts(zeta={0: 1})).evolved_blocks(4.75 / 880))
    result = sum(block.nbytes for block in blocks.values())
    largest_real = 8 * max(block.size for block in blocks.values())
    assert largest_real == 8 * 546 * 580
    assert peak <= result + 6 * largest_real


def test_lightcone_scan_peak_memory_holds_no_dense_operator():
    # the benchmark's scan (6-site cap-3 chain, 20 cells, all from the
    # series): two live sequences of 13 stored orders, one spare order and
    # two transposed buffers, 29 blocks of 546 x 580 doubles, with 2 to
    # spare (29.6 in all).  A dense copy of b_0 kept through the series
    # made it 34.7, and a block of b_0 scattered beside the sequence 30.6
    model = bose_hubbard(build_path(6), 1.0, 1.0)
    basis = FockBasis(6, 3)
    v = velocity_bound(1.0, 2, 0, 1)
    cells = [(r, f * r / v) for r in (2, 3, 4, 5) for f in (0.4, 0.6, 0.8, 0.95)]
    cells += [(r, 0.01) for r in (2, 3, 4, 5)]
    res, peak = _traced_peak(lambda: lightcone_scan(
        model, MonomialOp.from_dicts(zeta={0: 1}), MonomialOp.from_dicts(eta={0: 1}), 1.0,
        cells, basis))
    assert len(res.cells) == 20 and res.metadata["series"]["dense_cells"] == []
    assert peak <= 31 * 8 * 546 * 580


SPLIT_BASES = {"product": (4, 3, None, None), "total_cap": (5, 3, 6, None),
               "fixed_n": (5, 2, None, 5)}


@pytest.mark.parametrize("kind", sorted(SPLIT_BASES))
@pytest.mark.parametrize("hopping", [0.9, 0.9 * np.exp(0.7j)])
def test_split_hamiltonian_bytes_match_coo_grouping(kind, hopping):
    # each sector block and its transpose, bit for bit against a CSR built
    # from H's COO entries of that sector (empty sectors included); the
    # Gershgorin ends against the dense rows
    sites, cap, total_cap, number = SPLIT_BASES[kind]
    basis = FockBasis(sites, cap, total_cap=total_cap, number=number)
    h = build_hamiltonian(bose_hubbard(build_path(sites), hopping, 1.3), basis)
    blocks, lo, hi, h_t = dynamics._split_hamiltonian(h, basis)
    coo, dense = h.tocoo(), h.toarray()
    radius = np.abs(dense).sum(axis=1) - np.abs(dense.diagonal())
    assert sorted(blocks) == sorted(h_t) == list(range(len(basis.sectors)))
    for n, ix in enumerate(basis.sectors):
        local = np.full(basis.dim, -1)
        local[ix] = np.arange(ix.size)
        sel = (basis.totals[coo.row] == n) & (basis.totals[coo.col] == n)
        want = sp.csr_matrix((coo.data[sel], (local[coo.row[sel]], local[coo.col[sel]])),
                             shape=(ix.size, ix.size), dtype=h.dtype)
        # the transpose is a CSC view of the block's own arrays
        assert h_t[n].format == "csc"
        assert np.shares_memory(h_t[n].data, blocks[n].data) or not ix.size
        for got, ref in ((blocks[n], want), (h_t[n].tocsr(), want.T.tocsr())):
            assert got.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert (n in lo) == (n in hi) == bool(ix.size)
        if ix.size:
            diag = dense.diagonal().real[ix]
            assert lo[n] == pytest.approx(np.min(diag - radius[ix]), rel=1e-14, abs=1e-14)
            assert hi[n] == pytest.approx(np.max(diag + radius[ix]), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("kind", sorted(SPLIT_BASES))
@pytest.mark.parametrize("spec", [{"eta": {2: 1}}, {"zeta": {2: 1}},
                                  {"eta": {2: 1}, "zeta": {2: 1}}, {"eta": {2: 2}}],
                         ids=["create", "annihilate", "density", "create_squared"])
def test_probe_maps_are_row_major_sector_slices(kind, spec):
    # a probe's maps, sector_entries of its matrix: (rows, cols, amps) of each
    # sector pair are the nonzero entries of the dense slice in row-major
    # order, with no row or column repeated; pairs come in increasing order
    sites, cap, total_cap, number = SPLIT_BASES[kind]
    basis = FockBasis(sites, cap, total_cap=total_cap, number=number)
    probe = MonomialOp.from_dicts(**spec)
    full = probe.to_matrix(basis).toarray()
    sectors = basis.sectors
    slices = {(a, b): full[np.ix_(sectors[a], sectors[b])]
              for a in range(len(sectors)) for b in range(len(sectors))}
    want = {pair: sub for pair, sub in slices.items() if np.any(sub)}
    maps = sector_entries(probe.to_matrix(basis), basis)
    assert list(maps) == sorted(want)
    assert bool(maps) == (number is None or probe.gamma == 0)
    for pair, (rows, cols, amps) in maps.items():
        want_rows, want_cols = np.nonzero(want[pair])
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
        assert np.array_equal(amps, want[pair][want_rows, want_cols])
        assert np.unique(rows).size == rows.size and np.unique(cols).size == cols.size


def test_blockwise_f_beta_matches_sparse_formula():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 3)
    w = MuWeights(1.0, basis)
    engine = HeisenbergScanEngine(model, basis, MonomialOp.from_dicts(zeta={0: 1}))
    for t in (0.0, 0.02, 0.9):
        a_t = engine.evolved_operator(t)
        for site in range(5):
            for projected in (False, True):
                got = f_beta_expectation(a_t, site, 1, w, projected=projected)
                want = dense_f_beta(basis, w, a_t.mat.toarray(), site, 1, projected)
                assert abs(got - want) <= 1e-13


# -- scans -----------------------------------------------------------------------

def test_lightcone_scan_zero_time_column():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 2)
    op = MonomialOp.from_dicts(zeta={0: 1})
    probe = MonomialOp.from_dicts(eta={0: 1})
    res = lightcone_scan(model, op, probe, 1.0, [(r, 0.0) for r in (2, 3, 4)], basis)
    for cell in res.cells:
        assert cell.exact == 0.0


def test_lightcone_scan_free_bessel_column():
    """Free model: the commutator is G_x0(t) times the identity on every
    matrix element protected by the caps, so the weighted norm restricted to
    the protected states reproduces the single-particle prediction exactly."""
    length = 7
    model = bose_hubbard(build_path(length), 1.0, 0.0)
    basis = FockBasis(length, 2, total_cap=2)
    w = MuWeights(1.0, basis)
    engine = HeisenbergScanEngine(model, basis, MonomialOp.from_dicts(zeta={0: 1}))
    t = 0.35
    g = single_particle_propagator(model, t)
    protected = basis.totals < basis.total_cap
    weight = float(np.sum(w.w[protected]))
    for r in (2, 3, 4):
        probe = MonomialOp.from_dicts(eta={r: 1}).to_matrix(basis)
        a_t = engine.evolved_operator(t)
        comm = (a_t.mat @ probe - probe @ a_t.mat).toarray()
        sub = comm[np.ix_(protected, protected)]
        sww = np.sqrt(np.outer(w.w[protected], w.w[protected]))
        val = float(np.sum(np.abs(sub) ** 2 * sww))
        pred = abs(g[0, r]) ** 2 * weight
        assert val == pytest.approx(pred, abs=1e-8)


def _dense_cell(engine, basis, w, r, t):
    """The dense route's value of one cell: evolve, then the series' Gram
    kernel on the evolved blocks as a one-order sequence."""
    seqs = {pair: block[None] for pair, block in engine.evolved_blocks(t).items()}
    gram = {r: np.zeros((1, 1), complex)}
    probe = MonomialOp.from_dicts(eta={r: 1})
    maps = {r: sector_entries(probe.to_matrix(basis), basis)}
    dynamics._add_commutator_grams(gram, {r: 0}, maps, seqs, seqs.__getitem__, probe.gamma, w)
    return float(gram[r][0, 0].real)


def test_series_cells_match_dense_route():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 3)
    w = MuWeights(1.0, basis)
    op = MonomialOp.from_dicts(zeta={0: 1})
    probe = MonomialOp.from_dicts(eta={0: 1})
    cells = [(r, f * r / 880.0) for r in (1, 2, 3, 4) for f in (0.4, 0.95)]
    cells += [(r, t) for r in (1, 2, 3, 4) for t in (0.01, 0.02, 0.03, 0.05, 0.1)]
    res = lightcone_scan(model, op, probe, 1.0, cells, basis)
    series = res.metadata["series"]
    assert 0.0 < series["max_remainder_ratio"] <= 1e-10
    dense_routed = {tuple(cell) for cell in series["dense_cells"]}
    assert all(t >= 0.05 for _, t in dense_routed)
    engine = HeisenbergScanEngine(model, basis, op)
    compared = 0
    for cell in res.cells:
        dense = _dense_cell(engine, basis, w, cell.r, cell.t)
        if dense >= 1e-12 and (cell.r, cell.t) not in dense_routed:
            assert cell.exact == pytest.approx(dense, rel=1e-9)
            compared += 1
    assert compared >= 12


def test_series_deepest_cell_leading_order_closed_form():
    """To leading order only the r-hop path from 0 to r contributes:
    D_r = +-prod_{x<=r} [b_x, b+_x], so ||[A(t), B_r]||^2 ~ (t^r/r!)^2
    g^(r+1) s^(L-r-1) with g = <[b,b+]^2> and s = 1 - q^(cap+1) per site."""
    length, cap, mu = 6, 3, 1.0
    model = bose_hubbard(build_path(length), 1.0, 1.0)
    basis = FockBasis(length, cap)
    r = length - 1
    t = 0.4 * r / 880.0
    res = lightcone_scan(model, MonomialOp.from_dicts(zeta={0: 1}),
                         MonomialOp.from_dicts(eta={0: 1}), mu, [(r, t)], basis)
    q = math.exp(-mu)
    g = (1 - q) * (sum(q ** n for n in range(cap)) + cap ** 2 * q ** cap)
    s = 1 - q ** (cap + 1)
    predicted = (t ** r / math.factorial(r)) ** 2 * g ** (r + 1) * s ** (length - r - 1)
    # the next order is O(t^2) relative, about 2e-6 here
    assert res.cells[0].exact == pytest.approx(predicted, rel=1e-4)
    assert res.metadata["series"]["dense_cells"] == []


def test_series_zero_time_cells_are_exact_zeros():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 3)
    cells = [(r, 0.0) for r in (1, 2, 3, 4)]
    res = lightcone_scan(model, MonomialOp.from_dicts(zeta={0: 1}),
                         MonomialOp.from_dicts(eta={0: 1}), 1.0, cells, basis)
    assert res.metadata["series"]["dense_cells"] == []
    for cell in res.cells:
        assert cell.exact == 0.0 and math.copysign(1.0, cell.exact) == 1.0


@pytest.mark.parametrize("length,cap,mu", [(5, 3, 1.0), (4, 2, 0.7), (3, 1, 2.5)])
def test_scan_truncation_weight_closed_form(length, cap, mu):
    """On a product basis the kept weight is (1 - q^(cap+1))^L."""
    model = bose_hubbard(build_path(length), 1.0, 1.0)
    res = lightcone_scan(model, MonomialOp.from_dicts(zeta={0: 1}),
                         MonomialOp.from_dicts(eta={0: 1}), mu, [(1, 0.0)],
                         FockBasis(length, cap))
    q = math.exp(-mu)
    want = 1.0 - (1.0 - q ** (cap + 1)) ** length
    assert res.metadata["truncation_weight"] == pytest.approx(want, rel=1e-12)


def test_large_time_cell_takes_dense_route_bit_for_bit():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 3)
    w = MuWeights(1.0, basis)
    op = MonomialOp.from_dicts(zeta={0: 1})
    res = lightcone_scan(model, op, MonomialOp.from_dicts(eta={0: 1}), 1.0,
                         [(2, 0.5), (2, 0.001)], basis)
    assert res.metadata["series"]["dense_cells"] == [[2, 0.5]]
    dense = _dense_cell(HeisenbergScanEngine(model, basis, op), basis, w, 2, 0.5)
    got = {cell.t: cell.exact for cell in res.cells}
    assert got[0.5] == dense


def _injection(rng, n_from, n_to, size, dtype):
    """A random partial injection: column cols[i] -> row rows[i], amplitude amps[i]."""
    cols = rng.choice(n_from, size=size, replace=False)
    rows = rng.choice(n_to, size=size, replace=False)
    amps = rng.uniform(0.5, 2.0, size)
    if dtype == complex:
        amps = amps * np.exp(1j * rng.uniform(0, 2 * np.pi, size))
    return rows, cols, amps


def _injection_matrix(shape, injection):
    rows, cols, amps = injection
    mat = np.zeros(shape, dtype=amps.dtype)
    mat[rows, cols] = amps
    return mat


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("case", ["mb_only", "bm_only", "both", "empty_image", "full_image"])
@pytest.mark.parametrize("skip", [0, 2])
@pytest.mark.parametrize("chunk_bytes", [1, 3000, 512 << 10])
def test_add_target_gram_matches_explicit_commutators(rng, monkeypatch, dtype, case, skip,
                                                      chunk_bytes):
    """The region-wise Gram equals the Gram of explicitly formed
    D_k = M_k B - B M'_k, at every chunking (one row per chunk at 1 byte)."""
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", chunk_bytes)
    n_terms, n_rows, n_cols, n_right, n_left = 6, 9, 11, 8, 12

    def block(*shape):
        out = rng.normal(size=shape)
        return out + 1j * rng.normal(size=shape) if dtype == complex else out

    right = block(n_terms, n_rows, n_right)
    left = block(n_terms, n_left, n_cols)
    mb = _injection(rng, n_cols, n_right, 7, dtype) if case != "bm_only" else None
    image = {"mb_only": None, "bm_only": 5, "both": 5, "empty_image": 0, "full_image": n_rows}
    bm = _injection(rng, n_left, n_rows, image[case], dtype) if image[case] is not None else None
    d = np.zeros((n_terms - skip, n_rows, n_cols), dtype=dtype)
    if mb:
        d += right[skip:] @ _injection_matrix((n_right, n_cols), mb)
    if bm:
        d -= _injection_matrix((n_rows, n_left), bm) @ left[skip:]
    flat = d.reshape(n_terms - skip, -1)
    weight = 0.37
    want = weight * (flat.conj() @ flat.T)
    # one order below the stored ones, as when a sequence starts at order 1
    start = rng.normal(size=(n_terms + 1, n_terms + 1)).astype(dtype)
    got = start.copy()
    dynamics._add_target_gram(got, skip, weight, (n_rows, n_cols), right if mb else None, mb,
                              left if bm else None, bm)
    added = got[1 + skip:, 1 + skip:] - start[1 + skip:, 1 + skip:]
    assert np.abs(added - want).max() <= 1e-13 * np.abs(want).max()
    untouched = np.ones(got.shape, dtype=bool)
    untouched[1 + skip:, 1 + skip:] = False
    assert np.array_equal(got[untouched], start[untouched])


def test_chebyshev_route_follows_values_not_dtypes(rng):
    # zero imaginary parts select the float64 recursion whatever the dtypes;
    # the input vector is never written
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    basis = FockBasis(4, 3)
    h = build_hamiltonian(model, basis)
    assert h.dtype == np.float64
    h_c = h.astype(np.complex128)
    psi = rng.normal(size=basis.dim)
    psi_c = psi.astype(complex)
    for t in (0.1, -0.05):
        real = dynamics._chebyshev_expv(h.copy(), psi, t)
        typed = dynamics._chebyshev_expv(h_c.copy(), psi_c, t)
        assert np.array_equal(real[0], typed[0]) and real[1:] == typed[1:]
    assert np.array_equal(psi_c, psi)


def test_scan_result_violations_and_csv():
    model = bose_hubbard(build_path(5), 1.0, 1.0)
    basis = FockBasis(5, 2)
    op = MonomialOp.from_dicts(zeta={0: 1})
    probe = MonomialOp.from_dicts(eta={0: 1})
    cells = [(r, f * r / 880.0) for r in (2, 3, 4) for f in (0.5, 0.9)]
    res = lightcone_scan(model, op, probe, 1.0, cells, basis)
    assert res.violations() == []
    csv = res.to_csv()
    assert csv.splitlines()[0] == \
        "r,t,exact,bound_ensemble,bound_matrix_element,ratio,tail_estimate"
    assert len(csv.strip().splitlines()) == len(cells) + 1
    meta = res.metadata
    assert meta["velocity"] == 880.0
    assert meta["size_R"] == 1 and meta["size_R_ell"] == 1


# -- ground states -------------------------------------------------------------------

def test_ground_state_diagonal_model():
    model = bose_hubbard(build_path(3), 0.0, 2.0)
    basis = FockBasis(3, 2, total_cap=3)
    h = build_hamiltonian(model, basis)
    gs = ground_state(h)
    assert gs.energy == pytest.approx(0.0, abs=1e-12)


def test_ground_state_two_site_bonding():
    model = bose_hubbard(build_path(2), 1.0, 0.0)
    basis = FockBasis(2, 1, total_cap=1)
    h = build_hamiltonian(model, basis)
    gs = ground_state(h)
    assert gs.energy == pytest.approx(-1.0, abs=1e-10)
    assert gs.gap == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(h @ gs.vector - gs.energy * gs.vector) <= 1e-8


def test_ground_state_residual_contract():
    model = bose_hubbard(build_path(4), 1.0, 3.0)
    basis = FockBasis(4, 2, total_cap=4)
    h = build_hamiltonian(model, basis)
    gs = ground_state(h)
    assert np.linalg.norm(h @ gs.vector - gs.energy * gs.vector) <= 1e-8


@pytest.mark.parametrize("sites", [6, 8], ids=["dense", "arpack"])
def test_ground_state_real_and_complex_paths_agree(sites, monkeypatch):
    # the 6-site sector (141 states) goes to eigh, the 8-site one (1,107) to
    # ARPACK; a diagonal phase gauge gives the same spectrum with complex
    # entries.  The edge potential breaks the reflection symmetry, which the
    # uniform ARPACK start vector would otherwise keep (see ground_state).
    graph = build_path(sites)
    edge = Interaction(support=(0,), monomials=((0.3, ((0, 1),)),))
    model = ModelSpec(graph=graph, hopping=bose_hubbard(graph, 1.0, 0.0).hopping,
                      interactions=bose_hubbard(graph, 1.0, 4.0).interactions + (edge,),
                      interaction_range=0)
    basis = FockBasis(sites, 2, number=sites)
    h = build_hamiltonian(model, basis)
    dense = np.linalg.eigvalsh(h.toarray())
    phases = np.exp(1j * np.random.default_rng(3).uniform(0, 2 * np.pi, basis.dim))
    gauge = sp.diags(phases)
    h_complex = (gauge @ h @ gauge.conj()).tocsr()
    assert np.any(h_complex.data.imag)
    dtypes = []
    real_eigsh = sparse_linalg.eigsh

    def spy(mat, **kwargs):
        dtypes.append(mat.dtype)
        return real_eigsh(mat, **kwargs)

    # ground_state imports the solver when called, so it finds the spy
    monkeypatch.setattr(sparse_linalg, "eigsh", spy)
    real = ground_state(h)
    cplx = ground_state(h_complex)
    if sites == 8:
        assert dtypes == [np.float64, np.complex128]
    assert real.energy == pytest.approx(cplx.energy, rel=1e-12)
    assert real.gap == pytest.approx(cplx.gap, rel=1e-10)
    assert real.gap == pytest.approx(dense[1] - dense[0], rel=1e-10)
    overlap = abs(np.vdot(phases * real.vector, cplx.vector))
    assert overlap == pytest.approx(1.0, abs=1e-10)


# -- connected correlations ------------------------------------------------------------

def test_connected_correlation_identity_vanishes(rng):
    basis = FockBasis(3, 2)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi /= np.linalg.norm(psi)
    a = random_operator(rng, basis)
    ident = sp.identity(basis.dim, format="csr")
    assert abs(connected_correlation(psi, a, ident)) < 1e-10
    assert abs(connected_correlation(psi, ident, a)) < 1e-10


def test_connected_correlation_product_state():
    basis = FockBasis(4, 2)
    psi = np.zeros(basis.dim, complex)
    psi[basis.index([1, 0, 1, 0])] = 1.0
    n0 = MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1}).to_matrix(basis)
    n3 = MonomialOp.from_dicts(eta={3: 1}, zeta={3: 1}).to_matrix(basis)
    assert abs(connected_correlation(psi, n0, n3)) < 1e-14


def test_chebyshev_error_within_reported_bound(rng):
    # loose tolerances leave a visible truncation error; it stays below the
    # a-priori bound, which scales with ||v||
    model = bose_hubbard(build_path(3), 1.0, 1.0)
    basis = FockBasis(3, 3)
    h = build_hamiltonian(model, basis)
    psi = 3.0 * (rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim))
    dense = expm(10.0j * h.toarray()) @ psi
    orders = []
    for tol in (1e-2, 1e-5, 1e-8):    # truncation, not rounding, dominates
        out, terms, bound = dynamics._chebyshev_expv(h.copy(), psi, -10.0, tol)
        assert np.linalg.norm(out - dense) <= bound + 1e-14
        assert bound <= tol * np.linalg.norm(psi)
        assert dynamics._chebyshev_expv(h.copy(), 2.0 * psi, -10.0, tol)[2] == 2.0 * bound
        orders.append(terms)
    assert orders == sorted(orders) and orders[0] < orders[-1]


def test_chebyshev_long_span_in_small_sector_matches_dense_expm():
    # one expansion over t = 10 on the full capped basis, the state inside the
    # single-boson sector: no stepping, and the other sectors stay empty
    model = bose_hubbard(build_path(3), 1.0, 1.0)
    basis = FockBasis(3, 3)
    h = build_hamiltonian(model, basis)
    psi = np.zeros(basis.dim, complex)
    psi[1] = 1.0
    out, terms, bound = evolve_state(psi, model, basis, 10.0)
    dense = expm(-1j * h.toarray() * 10.0) @ psi
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.linalg.norm(out - dense) <= bound + 1e-14 and bound <= 1e-12
