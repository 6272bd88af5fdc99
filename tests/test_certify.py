import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from bosonlc.certify import (DensityAssumption, boson_cutoff,
                             boson_cutoff_branches, certified_expectation,
                             chain_center, fock_state_assumption, restriction_error_bound,
                             total_error_bound, truncation_radius,
                             validate_fock_assumption, windowed_model)
from bosonlc.bounds import velocity_bound
from bosonlc.dynamics import evolve_state
from bosonlc.fock import (CapacityError, FockBasis, ModelSpec, PiecewiseConstant,
                          bose_hubbard, build_hamiltonian)
from bosonlc.lattice import build_path
from bosonlc.opspace import MonomialOp


# -- closed forms ------------------------------------------------------------------

def test_truncation_radius_values():
    assert truncation_radius(0.0, 2.0, 0, 100.0) == 0.0
    val = truncation_radius(1.0, 2.0, 0, 100.0)
    assert val == pytest.approx(math.e * 16 * 100, rel=1e-14)
    # linear in t
    assert truncation_radius(2.0, 2.0, 0, 100.0) == pytest.approx(2 * val, rel=1e-14)


def test_boson_cutoff_branches_mu_one():
    b = boson_cutoff_branches(1, 0, 1.0, 2 * math.e)
    assert b["flat"] == 4.0
    assert b["density"] == pytest.approx(1 / (math.exp(1 / 3) - 1), rel=1e-12)
    assert b["entropy"] == pytest.approx(
        2 * (1 + 8 * math.log(2) + math.log(2 * math.e * (1 - math.exp(-1)))), rel=1e-12)
    assert b["factor"] == pytest.approx(15.5593, abs=1e-3)
    for r in (1, 3, 10):
        assert boson_cutoff(r, 0, 1.0, 2 * math.e) == math.ceil((2 * r + 1) * b["factor"])


def test_boson_cutoff_density_branch_at_the_mu_floor():
    # 1/(e^(mu/3) - 1) from expm1: at mu/3 = 1e-15 the subtraction was 8.0e-4 off
    density = boson_cutoff_branches(1, 0, 3e-15, 2 * math.e)["density"]
    assert abs(density - 1.0 / math.expm1(1e-15)) <= 1e-15 / math.expm1(1e-15)


def test_boson_cutoff_entropy_branch_at_the_mu_floor():
    # log(theta (1 - e^-mu) / mu^4) with 1 - e^-mu from expm1: at mu = 1e-15
    # the subtraction was 8.0e-4 off
    entropy = boson_cutoff_branches(1, 0, 1e-15, 2 * math.e)["entropy"]
    with mpmath.workdps(50):
        mu = mpmath.mpf(1e-15)
        want = 2 / mu * (1 + 8 * mpmath.log(2)
                         + mpmath.log(2 * mpmath.e * -mpmath.expm1(-mu) / mu ** 4))
        assert abs(entropy - want) <= 1e-14 * want


def test_boson_cutoff_large_mu_flat_branch():
    # at large mu only the flat branch survives: N0 = 4 (2r + 2 ell + 1)
    assert boson_cutoff(5, 0, 50.0, 2.0) == 4 * 11
    assert boson_cutoff(5, 1, 50.0, 2.0) == 4 * 13


def test_boson_cutoff_monotonicity():
    vals_r = [boson_cutoff(r, 0, 1.0, 5.0) for r in (1, 2, 4, 8)]
    assert all(a <= b for a, b in zip(vals_r, vals_r[1:]))
    vals_theta = [boson_cutoff(4, 0, 1.0, th) for th in (2.0, 5.0, 20.0)]
    assert all(a <= b for a, b in zip(vals_theta, vals_theta[1:]))
    vals_mu = [boson_cutoff(4, 0, mu, 5.0) for mu in (0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(vals_mu, vals_mu[1:]))


def test_restriction_error_bound_shape():
    theta, ell, vprime = 2.0, 0, 10.0
    cone = (2 * theta) ** 2 * vprime  # * t
    t = 0.001
    r_edge = cone * t
    # near the cone edge the bound approaches C3 r t
    r = int(math.ceil(r_edge * (1 + 1e-9))) + 1
    val = restriction_error_bound(r, t, theta, ell, vprime, c3=2.0)
    assert val <= 2.0 * r * t
    assert restriction_error_bound(1, 10.0, theta, ell, vprime) == math.inf
    # exponent is r/(4 ell + 2): log-slope w.r.t. r at fixed base
    t = 1e-6
    v1 = restriction_error_bound(10, t, theta, ell, vprime)
    v2 = restriction_error_bound(20, t, theta, ell, vprime)
    base1 = cone * t / 10
    base2 = cone * t / 20
    assert math.log(v1 / (10 * t)) == pytest.approx(10 / 2 * math.log(base1), rel=1e-9)
    assert math.log(v2 / (20 * t)) == pytest.approx(20 / 2 * math.log(base2), rel=1e-9)


def test_total_error_bound_shape():
    # log-linear in r with slope -1/(4 ell + 2)
    for ell in (0, 1):
        slope = (math.log(total_error_bound(40, 1.0, ell) / 40 ** 2)
                 - math.log(total_error_bound(20, 1.0, ell) / 20 ** 2)) / 20
        assert slope == pytest.approx(-1 / (4 * ell + 2), rel=1e-12)
    assert total_error_bound(0.0) == 0.0
    # beyond r ~ 10 the exponential dominates the quadratic (ell = 0)
    vals = [total_error_bound(r) for r in (10, 14, 18, 22)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# -- assumptions --------------------------------------------------------------------

def test_fock_assumption_unit_filling():
    occ = [1] * 9
    a = fock_state_assumption(occ)
    assert a.mu == pytest.approx(1.0)
    assert a.theta == pytest.approx(math.e / (1 - math.exp(-1)), rel=1e-12)
    assert a.K0 == a.theta
    assert validate_fock_assumption(occ, a)


def test_fock_assumption_validation_rejects_overdense():
    occ = [0, 0, 0, 8, 0, 0, 0]
    a = DensityAssumption(mu=3.0, theta=1.5, K0=1.5)
    assert not validate_fock_assumption(occ, a)


def test_fock_assumption_validation_on_long_chains():
    # from x of about 250 on, theta^(2x) leaves the float range
    occ = [1] * 1001
    a = fock_state_assumption(occ)
    assert validate_fock_assumption(occ, a)
    # denser ends break only the outermost cut, x = 500
    assert not validate_fock_assumption([50] + [1] * 999 + [50], a)


def test_fock_assumption_time_is_linear_in_the_chain_length():
    # each cut adds two sites to a running sum: both functions on 50,001
    # sites take well under a second (re-summing every window took 13 s)
    occ = [1] * 50_001
    start = time.perf_counter()
    assert validate_fock_assumption(occ, fock_state_assumption(occ))
    assert time.perf_counter() - start < 1.0


def test_fock_assumption_validation_at_the_mu_floor():
    # the optimal assumption of a state meets its cut x = 0 with equality,
    # log(1 - e^-mu) = log(-expm1(-mu)) on both sides (log1p(-q) read q's
    # rounding, 8.0e-4 relative at mu = 1e-15, and refused the state); one
    # more part in 1e9 at the cut is refused
    occ = [1, 10**15, 1]
    a = fock_state_assumption(occ)
    assert a.mu == 1e-15
    with mpmath.workdps(50):
        mu = mpmath.mpf(a.mu)
        log_k0 = mpmath.log(mpmath.mpf(a.K0))
        margin = log_k0 - (-mpmath.log(-mpmath.expm1(-mu)) + mu * occ[1])
        assert abs(margin) <= 1e-14 * log_k0
    assert validate_fock_assumption(occ, a)
    assert not validate_fock_assumption([1, 10**15 + 10**6, 1], a)


def test_fock_assumption_theta_at_the_mu_floor():
    # theta = e / (1 - e^-mu) with 1 - e^-mu from expm1: at mu = 1e-15 the
    # subtraction was 8e-4 off
    a = fock_state_assumption([1, 10**15, 1])
    assert a.mu == 1e-15
    with mpmath.workdps(50):
        want = mpmath.e / -mpmath.expm1(-mpmath.mpf(a.mu))
        assert abs(a.theta - want) <= 1e-14 * want


def test_density_assumption_validation():
    with pytest.raises(ValueError):
        DensityAssumption(mu=-1.0, theta=2.0, K0=2.0)
    with pytest.raises(ValueError):
        DensityAssumption(mu=1.0, theta=0.5, K0=2.0)
    with pytest.raises(ValueError):
        DensityAssumption(mu=1.0, theta=2.0, K0=2.0, form="bogus")


# -- window construction ---------------------------------------------------------------

def test_windowed_model_matches_direct_build():
    # the restricted Hamiltonian equals the one built from the windowed model
    model = bose_hubbard(build_path(11), 1.0, 1.5)
    sub, lo = windowed_model(model, 2)
    assert sub.graph.num_vertices == 5
    assert lo == 3
    direct = bose_hubbard(build_path(5), 1.0, 1.5)
    basis = FockBasis(5, 2)
    h_sub = build_hamiltonian(sub, basis)
    h_direct = build_hamiltonian(direct, basis)
    assert (h_sub != h_direct).nnz == 0


def test_windowed_model_interaction_collar():
    # range-1 interactions survive on the collar, hopping stops at the radius
    from bosonlc.fock import Interaction, ModelSpec, PiecewiseConstant
    g = build_path(9)
    terms = tuple(Interaction(support=(i, i + 1),
                              monomials=((0.5, ((i, 1), (i + 1, 1))),))
                  for i in range(8))
    model = ModelSpec(graph=g,
                      hopping={e: PiecewiseConstant.constant(1.0) for e in g.edges},
                      interactions=terms, interaction_range=1)
    sub, lo = windowed_model(model, 1)
    # window spans positions -2..2 (sites 2..6), hopping only on -1..1
    assert sub.graph.num_vertices == 5
    assert lo == 2
    assert set(sub.hopping) == {(1, 2), (2, 3)}
    assert len(sub.interactions) == 4


def test_chain_center_requires_odd():
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    with pytest.raises(ValueError):
        chain_center(model)


# -- the certified pipeline --------------------------------------------------------------

@pytest.fixture(scope="module")
def chain_model():
    return bose_hubbard(build_path(9), 1.0, 1.0)


DENSITY = MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1})


def test_certified_zero_time_exact(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    cv = certified_expectation(chain_model, occ, DENSITY, 0.0, a,
                               radius=2, per_site_cap=3)
    assert cv.value == pytest.approx(1.0, abs=1e-14)
    assert cv.assumption_status.startswith("validated")
    assert cv.radius == 2
    assert cv.formula_radius >= 0
    assert (cv.evolution_terms, cv.evolution_error_bound) == (0, 0.0)


def test_certified_cross_check_against_larger_truncation(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    t = 0.4
    small = certified_expectation(chain_model, occ, DENSITY, t, a,
                                  radius=2, per_site_cap=2)
    big = certified_expectation(chain_model, occ, DENSITY, t, a,
                                radius=4, per_site_cap=4)
    observed = abs(small.value - big.value)
    budget = small.restriction_error + small.cutoff_error
    assert observed <= budget  # budget is inf at desk scale; recorded regardless
    assert observed < 0.05     # and the truncation is actually accurate


def test_certified_value_reports_errors_and_caps(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    cv = certified_expectation(chain_model, occ, DENSITY, 0.25, a,
                               radius=3, per_site_cap=3)
    assert cv.cutoff_error == pytest.approx(total_error_bound(3), rel=1e-12)
    assert cv.restriction_error == restriction_error_bound(
        3, 0.25, a.theta, 0, cv.vprime)
    assert cv.boson_cap == cv.formula_boson_cap
    d = cv.to_dict()
    assert d["assumption"]["mu"] == a.mu
    assert d["window_sites"] == (-3, 3)


def test_certified_capacity_error_reports_feasible_time(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    with pytest.raises(CapacityError) as err:
        certified_expectation(chain_model, occ, DENSITY, 1.0, a,
                              radius=4, per_site_cap=4, state_budget=50)
    assert str(err.value) == ("basis would hold 19855 states, budget is 50 (largest "
                              "certifiable time under this budget ~ 3.577e-06)")


def test_certified_formula_radius_clips_to_finite_chain(chain_model):
    # the formula radius far exceeds a 9-site chain; the window then covers
    # the whole chain and the value is the exact full-chain expectation
    occ = [1] * 9
    a = fock_state_assumption(occ)
    cv = certified_expectation(chain_model, occ, DENSITY, 0.05, a, per_site_cap=None)
    assert cv.window_sites == (-4, 4)
    assert cv.formula_radius > 1e4
    ref = certified_expectation(chain_model, occ, DENSITY, 0.05, a,
                                radius=4, per_site_cap=6)
    assert cv.value == pytest.approx(ref.value, abs=1e-9)


def test_certified_vprime_uses_half_mu(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    cv = certified_expectation(chain_model, occ, DENSITY, 0.1, a,
                               radius=1, per_site_cap=2, eps=0.25)
    assert cv.vprime == pytest.approx(1.25 * velocity_bound(a.mu / 2, 2, 0, 1), rel=1e-12)


def test_certified_refuses_radius_below_one(chain_model):
    occ = [1] * 9
    a = fock_state_assumption(occ)
    with pytest.raises(ValueError):
        certified_expectation(chain_model, occ, DENSITY, 0.1, a, radius=0)


def test_certified_capacity_walk_is_bounded_by_chain(chain_model):
    # the formula radius is ~1.4e5; a walk over every smaller radius with a
    # count at each step never ended, the window stops growing at the chain ends
    occ = [1] * 9
    a = fock_state_assumption(occ)
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        certified_expectation(chain_model, occ, DENSITY, 0.05, a, per_site_cap=None,
                              state_budget=1000)
    assert time.perf_counter() - start < 10.0
    assert "certifiable time" in str(err.value)
    assert err.value.requested == math.comb(17, 8)  # 9 bosons on 9 sites, cap 255


def test_certified_capacity_walk_stops_at_the_first_window_over_budget():
    # 601 sites: the walk down from the chain's center counted every window
    # (about 20 s on 2 cores); the walk up stops at the first window over budget
    occ = [1] * 601
    start = time.perf_counter()
    with pytest.raises(CapacityError) as err:
        certified_expectation(bose_hubbard(build_path(601), 1.0, 1.0), occ, DENSITY, 0.5,
                              fock_state_assumption(occ), per_site_cap=3)
    assert time.perf_counter() - start < 5.0
    assert str(err.value).endswith(
        "(largest certifiable time under this budget ~ 2.146e-05)")


def full_basis_value(model, occ, observable, t, radius, cap):
    """The expectation on the whole capped window basis, no sector."""
    sub, lo = windowed_model(model, radius)
    window_occ = occ[lo:lo + sub.graph.num_vertices]
    basis = FockBasis(sub.graph.num_vertices, cap, total_cap=sum(window_occ))
    psi = np.zeros(basis.dim, dtype=np.complex128)
    psi[basis.index(window_occ)] = 1.0
    psi = evolve_state(psi, sub, basis, t)[0]
    center = chain_center(model)
    obs = observable.translate(center - lo).to_matrix(basis)
    return complex(np.vdot(psi, obs @ psi))


@pytest.mark.parametrize("time_dependent", [False, True], ids=["constant", "piecewise"])
def test_certified_sector_route_matches_full_basis(time_dependent):
    graph = build_path(7)
    model = bose_hubbard(graph, 1.0, 0.7)
    if time_dependent:
        sched = PiecewiseConstant((0.15,), (1.0, 0.6 - 0.3j))
        model = ModelSpec(graph=graph, hopping={e: sched for e in graph.edges},
                          interactions=model.interactions, interaction_range=0)
    occ = [0, 1, 2, 1, 0, 2, 1]
    a = fock_state_assumption(occ)
    for observable in (DENSITY, MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1})):
        cv = certified_expectation(model, occ, observable, 0.4, a, radius=3, per_site_cap=3)
        ref = full_basis_value(model, occ, observable, 0.4, radius=3, cap=3)
        assert abs(cv.value - ref) <= 1e-13
    assert abs(cv.value) > 1e-3  # the hop expectation is not trivially zero


def test_certified_value_matches_dense_expm(chain_model):
    occ = [1, 0, 2, 1, 1, 0, 1, 2, 1]
    a = fock_state_assumption(occ)
    t = 0.5
    cv = certified_expectation(chain_model, occ, DENSITY, t, a, radius=2, per_site_cap=3)
    sub, lo = windowed_model(chain_model, 2)
    window_occ = occ[lo:lo + sub.graph.num_vertices]
    basis = FockBasis(sub.graph.num_vertices, 3, number=sum(window_occ))
    psi = np.zeros(basis.dim, dtype=np.complex128)
    psi[basis.index(window_occ)] = 1.0
    psi = expm(-1j * t * build_hamiltonian(sub, basis).toarray()) @ psi
    obs = DENSITY.translate(chain_center(chain_model) - lo).to_matrix(basis)
    assert abs(cv.value - np.vdot(psi, obs @ psi)) <= 1e-12
    assert cv.evolution_terms > 1 and 0.0 < cv.evolution_error_bound <= 1e-14


def test_certificate_status(chain_model):
    occ = [1] * 9
    cv = certified_expectation(chain_model, occ, DENSITY, 0.2, fock_state_assumption(occ),
                               radius=2, per_site_cap=3)
    # the formula radius is ~6e4, so the restriction error is infinite
    assert math.isinf(cv.restriction_error) and cv.status == "vacuous"
    assert cv.to_dict()["status"] == "vacuous"
    finite = replace(cv, restriction_error=0.1, formula_radius=1.5)
    assert finite.status == "informative"
    assert replace(finite, radius=1).status == "vacuous"
    assert replace(finite, cutoff_error=math.nan).status == "vacuous"
