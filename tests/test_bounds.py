import math

import mpmath
import numpy as np
import pytest

from bosonlc.bounds import (BoundParams, MMatrixBound, check_scalar_inequality,
                            closed_form_envelope, coupling_matrix,
                            derivation_trace, ensemble_commutator_bound,
                            finite_density_commutator_bound, initial_envelope,
                            integrate_envelope, m_matrix_bound,
                            matrix_element_bound, velocity_bound,
                            velocity_from_coupling, worst_case_velocities)
from bosonlc.lattice import Graph, build_path


# -- coupling constants ----------------------------------------------------------

def test_m_matrix_base_case():
    m = m_matrix_bound(1.0, 1, 0, 2)
    assert m.offdiag == 110.0          # 62 + 48
    assert m.diag == 220.0             # times K


def test_m_matrix_higher_ladder():
    m = m_matrix_bound(1.0, 2, 0, 1)
    assert m.offdiag == 23 * 4 ** 3 * 3 ** 3 == 39744


def test_m_matrix_finite_range_k_factor():
    m1 = m_matrix_bound(1.0, 1, 1, 2)
    m2 = m_matrix_bound(1.0, 1, 1, 4)
    assert m2.offdiag / m1.offdiag == pytest.approx((4 / 2) ** 2)  # K^(ell+1)
    assert m1.diag == m1.offdiag  # no extra K in the finite-range self rate


def test_velocity_base_values():
    assert velocity_bound(math.inf, 2, 0, 1) == 496.0
    assert velocity_bound(1.0, 2, 0, 1) == 880.0
    for mu in (0.25, 0.5, 1.0, 2.0, 8.0):
        assert velocity_bound(mu, 2, 0, 1) == 496.0 + 384.0 / mu


def test_velocity_composition_identity():
    # base row: exact equality including floating point, since
    # 8 K (31 + 24/mu) and 4 K (62 + 48/mu) differ only by power-of-two
    # regrouping
    for mu in (0.3, 0.7, 1.0, 3.0, math.inf):
        for k in (1, 2, 3, 4, 6):
            assert velocity_bound(mu, k, 0, 1) == velocity_from_coupling(mu, k, 0, 1)
    # other rows: same real number, different rounding chains
    for mu in (0.3, 1.0, 3.0):
        for k in (2, 3):
            for beta, ell in [(2, 0), (3, 0), (1, 1), (2, 1), (1, 2)]:
                assert velocity_bound(mu, k, ell, beta) == pytest.approx(
                    velocity_from_coupling(mu, k, ell, beta), rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        velocity_bound(-1.0, 2, 0, 1)
    with pytest.raises(ValueError):
        velocity_bound(1.0, 2, 0, 0)
    with pytest.raises(ValueError):
        m_matrix_bound(1.0, 1, -1, 2)


# -- envelopes --------------------------------------------------------------------

def test_initial_envelope_cases():
    g = build_path(9)
    seeds = {4: 1.5}
    c0 = initial_envelope(seeds, [4], 1, math.log(2), 1, g)
    # collar constant: 4 * 1 * (1 - 1/2)^-1 = 8
    assert c0[3] == 8.0 and c0[5] == 8.0
    # region value: 2 * (1/2)^-1 + 2 * seed
    assert c0[4] == 4.0 + 3.0
    # everything beyond the collar is zero
    assert c0[0] == 0.0 and c0[8] == 0.0


def test_initial_envelope_at_the_mu_floor():
    # eps = beta^beta (1 - e^-mu)^-beta with 1 - e^-mu from expm1: at
    # mu = 1e-15 the subtraction was 8.0e-4 off
    c0 = initial_envelope({1: 0.0}, [1], 1, 1e-15, 1, build_path(3))
    want = 4.0 / -math.expm1(-1e-15)
    assert abs(c0[0] - want) <= 1e-15 * want


def test_initial_envelope_missing_seed():
    g = build_path(3)
    with pytest.raises(ValueError):
        initial_envelope({}, [1], 0, 1.0, 1, g)


def test_integrate_envelope_zero_coupling():
    g = build_path(4)
    coup = MMatrixBound(0.0, 0.0)
    c0 = np.array([1.0, 2.0, 0.0, 0.5])
    env = integrate_envelope(g, coup, c0, [0.5, 1.0], 0)
    assert np.allclose(env.values[:, -1], c0)


def test_integrate_envelope_scalar_exponential():
    g = Graph(1, [])
    coup = MMatrixBound(0.0, 2.5)
    env = integrate_envelope(g, coup, np.array([3.0]), [0.4, 1.0], 0)
    for t in (0.4, 1.0):
        exact = 3.0 * math.exp(2.5 * t)
        val = env.at(0, t)
        assert val >= exact  # certified super-solution
        assert val == pytest.approx(exact, rel=1e-8)


def test_integrated_below_closed_form_on_paths():
    g = build_path(11)
    coup = m_matrix_bound(1.0, 1, 0, g.max_degree)
    c0 = initial_envelope({5: 2.0}, [5], 0, 1.0, 1, g)
    times = [0.0005, 0.001, 0.002]
    env = integrate_envelope(g, coup, c0, times, 0)
    g0 = float(c0.sum())
    for t in times:
        for x in g.vertices():
            r = abs(x - 5)
            if r == 0:
                continue
            closed = closed_form_envelope(r, t, coup.offdiag, g.max_degree, 0, g0)
            assert env.at(x, t) <= closed * (1 + 1e-9)


def test_envelope_nonnegative_nondecreasing():
    g = build_path(5)
    coup = m_matrix_bound(1.0, 1, 0, 2)
    c0 = initial_envelope({2: 1.0}, [2], 0, 1.0, 1, g)
    times = [0.001, 0.002, 0.004, 0.008]
    env = integrate_envelope(g, coup, c0, times, 0)
    assert np.all(env.values >= 0)
    assert np.all(np.diff(env.values, axis=1) >= -1e-14)


def test_closed_form_envelope_values():
    assert closed_form_envelope(5, 5 / 880.0, 110.0, 2, 0, 7.0) == math.inf  # vt = r
    v = 4 * 1 * 2 * 110.0
    r = 6
    t = r / (2 * v)
    assert closed_form_envelope(r, t, 110.0, 2, 0, 7.0) == pytest.approx(7.0 * 2.0 ** -r)
    with pytest.raises(ValueError):
        closed_form_envelope(0, 0.1, 110.0, 2, 0, 1.0)


def test_coupling_matrix_support():
    g = build_path(6)
    coup = m_matrix_bound(1.0, 1, 1, 2)
    m = coupling_matrix(g, coup, 1)
    # couplings only within distance 2*1+1 = 3
    assert m[0, 3] == coup.offdiag
    assert m[0, 4] == 0.0
    assert m[2, 2] == coup.diag


# -- cone bounds -------------------------------------------------------------------

def make_params(**over):
    base = dict(mu=1.0, K=2, ell=0, beta=1, gamma=1, seeds=(3.0,),
                size_R=1, size_R_ell=1, norm_sq=0.96)
    base.update(over)
    return BoundParams(**base)


def test_ensemble_bound_cosh_is_one_at_gamma_zero():
    p0 = make_params(gamma=0)
    p1 = make_params(gamma=2)
    r, t = 4, 4 / (2 * 880.0)
    assert ensemble_commutator_bound(r, t, p0) < ensemble_commutator_bound(r, t, p1)
    assert p0.prefactor() == pytest.approx(
        16 * (1 + 1 / (1 - math.exp(-1))), rel=1e-12)


def test_bound_params_at_the_mu_floor():
    # (beta / (1 - e^-mu))^beta with 1 - e^-mu from expm1, in the prefactor
    # and the identity term of the amplitude: at mu = 1e-15 the subtraction
    # was 8.0e-4 off
    p = make_params(mu=1e-15, beta=2, gamma=2, seeds=(0.5, 0.25), size_R=2, size_R_ell=4)
    with mpmath.workdps(50):
        mu = mpmath.mpf(p.mu)
        ident = (2 / -mpmath.expm1(-mu)) ** 2
        prefactor = 16 * 2 ** 2 * mpmath.cosh(mu) * (1 + 2 * ident)
        amplitude = prefactor * (mpmath.mpf(0.75) + ident * 6 * mpmath.mpf(p.norm_sq))
        assert abs(p.prefactor() - prefactor) <= 1e-14 * prefactor
        assert abs(p.amplitude() - amplitude) <= 1e-14 * amplitude


def test_ensemble_bound_doubling_r_squares_base():
    p = make_params()
    v = velocity_bound(1.0, 2, 0, 1)
    alpha = 0.5
    b1 = ensemble_commutator_bound(4, alpha * 4 / v, p)
    b2 = ensemble_commutator_bound(8, alpha * 8 / v, p)
    c = p.amplitude()
    assert math.log(b1 / c) * 2 == pytest.approx(math.log(b2 / c), rel=1e-10)


def test_ensemble_bound_outside_cone_sentinel():
    p = make_params()
    assert ensemble_commutator_bound(3, 1.0, p) == math.inf
    with pytest.raises(ValueError):
        ensemble_commutator_bound(0, 0.0, p)


def test_ensemble_bound_assembled_from_pieces():
    # independent assembly from the velocity and the measured seeds
    import bosonlc.opspace as ops
    from bosonlc.fock import FockBasis
    basis = FockBasis(1, 80)
    w = ops.MuWeights(1.0, basis)
    b = ops.MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    seed = ops.f_beta_expectation(b, 0, 1, w, projected=False)
    norm = ops.weighted_norm_sq(b, w)
    p = make_params(seeds=(seed,), norm_sq=norm)
    r, t = 6, 6 / (2 * 880.0)
    q = math.exp(-1.0)
    c_manual = (16 * math.cosh(0.5) * (1 + 1 / (1 - q))
                * (seed + (1 / (1 - q)) * 2 * norm))
    expected = c_manual * (880.0 * t / r) ** r
    assert ensemble_commutator_bound(r, t, p) == pytest.approx(expected, rel=1e-12)


def test_ensemble_bound_monotonicity_grid():
    p = make_params()
    v = velocity_bound(1.0, 2, 0, 1)
    # nondecreasing in t
    ts = np.linspace(0.0001, 0.9 * 4 / v, 12)
    vals = [ensemble_commutator_bound(4, t, p) for t in ts]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))
    # nonincreasing in r at fixed t
    t = 0.8 * 2 / v
    vals_r = [ensemble_commutator_bound(r, t, make_params()) for r in (2, 3, 4, 5, 6)]
    assert all(a >= b for a, b in zip(vals_r, vals_r[1:]))
    # nondecreasing in 1/mu (decreasing mu -> larger bound)
    for r in (3, 5):
        b_small_mu = ensemble_commutator_bound(r, 1e-4, make_params(mu=0.5))
        b_large_mu = ensemble_commutator_bound(r, 1e-4, make_params(mu=2.0))
        assert b_small_mu >= b_large_mu


def test_finite_density_bound_cone_edge():
    mu, theta, ell, eps = 1.0, 2.0, 0, 0.1
    vprime = (1 + eps) * velocity_bound(mu / 2, 2, ell, 1)
    cone_v = (2 * theta) ** 4 * vprime
    r = 10
    t_edge = r / cone_v
    # just inside the cone the bound approaches C1 * K0 (here K0 = 1)
    val = finite_density_commutator_bound(r, t_edge * (1 - 1e-9), mu, theta, 1.0, ell, eps)
    assert val == pytest.approx(1.0, rel=1e-6)
    assert finite_density_commutator_bound(r, t_edge, mu, theta, 1.0, ell, eps) == math.inf


def test_finite_density_bound_uses_half_mu():
    # same inputs but mu doubled must match a manual composition at mu/2
    mu, theta, ell, eps = 2.0, 3.0, 0, 0.05
    r, t = 8, 1e-7
    vprime = (1 + eps) * velocity_bound(mu / 2, 2, ell, 1)
    expected = 2.0 * ((2 * theta) ** 4 * vprime * t / r) ** r
    got = finite_density_commutator_bound(r, t, mu, theta, 2.0, ell, eps)
    assert got == pytest.approx(expected, rel=1e-12)


def test_matrix_element_bound_parameter_map():
    # mu = 1/m, theta = e (1 + m), K0 = 4 in the worst-case bound
    for r, t, m, ell in ((5, 1e-9, 1, 0), (5, 1e-9, 3, 0), (7, 1e-24, 2, 1)):
        assert matrix_element_bound(r, t, m, ell) == finite_density_commutator_bound(
            r, t, 1 / m, math.e * (1 + m), 4, ell)
    # the cone velocity v* grows with the occupancy bound m
    assert (worst_case_velocities(1 / 3, 4 * math.e, 0, 0.1)[1]
            > worst_case_velocities(1.0, 2 * math.e, 0, 0.1)[1])
    # below the cone edge: sentinel
    assert matrix_element_bound(2, 1.0, m=2, ell=0) == math.inf


# -- scalar inequality ----------------------------------------------------------

def test_scalar_inequality_equality_adjacent():
    assert check_scalar_inequality(2.0, 2.0, 1.5, 1.5, 1)
    assert check_scalar_inequality(1.0, 1.0, 1.0, 1.0, 2)


def test_scalar_inequality_tiny_factor():
    assert check_scalar_inequality(5.0, 3.0, 1e-300, 2.0, 1)


def test_scalar_inequality_fuzz(rng):
    for beta in (1, 2, 3):
        xi_u = 10.0 ** rng.uniform(-6, 6, 200_000)
        xi_v = 10.0 ** rng.uniform(-6, 6, 200_000)
        phi = 10.0 ** rng.uniform(-4, 4, 200_000)
        psi = 10.0 ** rng.uniform(-4, 4, 200_000)
        ok = check_scalar_inequality(xi_u, xi_v, phi, psi, beta)
        assert np.all(ok), f"beta={beta}: {np.sum(~ok)} violations"


# -- derivation trace -------------------------------------------------------------

def test_derivation_trace_contents():
    trace = derivation_trace(1.0, 2, 0, 1)
    by_name = {e["name"]: e for e in trace}
    assert by_name["velocity"]["value"] == 880.0
    assert by_name["velocity_composition"]["value"] == 880.0
    assert by_name["coupling_offdiag"]["value"] == 110.0
    assert "headline_velocity_in_mean_occupancy" in by_name
    assert "reference_velocity_nonrigorous" in by_name
    assert all("provenance" in e for e in trace)
