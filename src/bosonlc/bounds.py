"""Analytic propagation constants: velocities, envelope couplings, cone bounds.

All closed forms are implemented exactly as derived, case-selected on the
probe degree ``beta`` and interaction range ``ell``.  The three coupling
rows compose with the cone-envelope argument as

    v = 4 (2 ell + 1) K^(2 ell + 1) * offdiag,

an identity of real numbers.  In floating point it holds bit for bit on the
single-ladder on-site row (ell = 0, beta = 1), as the tests check; on the
other rows the last bits may differ (the tests allow 1e-12 relative).  Scale factors
the derivation leaves unspecified (C1, C3, C4, C5) are configuration inputs
with default 1; reports carry a loud annotation and shape tests never pin
them.

Outside-cone queries return +inf (a sentinel, not an error) so scan code can
compare uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Graph, set_distance


# ---------------------------------------------------------------------------
# coupling constants and velocities


@dataclass(frozen=True)
class MMatrixBound:
    """Envelope coupling constants: off-diagonal rate and self rate."""

    offdiag: float
    diag: float


def _validate(mu: float, beta: int, ell: int, K: int) -> None:
    if not mu > 0:
        raise ValueError("mu must be positive")
    if beta < 1 or int(beta) != beta:
        raise ValueError("beta must be a positive integer")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if K < 1:
        raise ValueError("K must be >= 1")


def _power(base: int, exponent: int) -> int:
    """base ** exponent, exact; OverflowError at once if it would pass 2^1024."""
    if base > 1 and exponent * math.log2(base) > 1024:
        raise OverflowError(f"{base}**{exponent} exceeds the float range")
    return base ** exponent


def m_matrix_bound(mu: float, beta: int, ell: int, K: int) -> MMatrixBound:
    """Case-selected coupling constants of the envelope differential inequality.

    Couplings act between vertices at distance <= 2 ell + 1; these are the
    rate constants entering dC_u/dt <= sum M_uv C_v.
    """
    _validate(mu, beta, ell, K)
    if ell > 0:
        off = (2.0 ** (beta + 8) * _power(beta, 2 * beta) * (1.0 + 2.0 / mu) ** (2 * beta)
               * _power(K, ell + 1))
        return MMatrixBound(offdiag=off, diag=off)
    off = (62.0 + 48.0 / mu if beta == 1
           else 23.0 * _power(2 * beta, beta + 1) * (1.0 + 2.0 / mu) ** (beta + 1))
    return MMatrixBound(offdiag=off, diag=off * K)


def velocity_bound(mu: float, K: int, ell: int = 0, beta: int = 1) -> float:
    """Proven information velocity for the grand-canonical commutator bound."""
    _validate(mu, beta, ell, K)
    if ell == 0 and beta == 1:
        return 8.0 * K * (31.0 + 24.0 / mu)
    if ell == 0:
        return 92.0 * K * _power(2 * beta, beta + 1) * (1.0 + 2.0 / mu) ** (beta + 1)
    return (2.0 ** (beta + 10) * (2 * ell + 1) * _power(K, 3 * ell + 2)
            * _power(beta, 2 * beta) * (1.0 + 2.0 / mu) ** (2 * beta))


def velocity_from_coupling(mu: float, K: int, ell: int = 0, beta: int = 1) -> float:
    """The same velocity assembled from the cone-envelope composition.

    Equals velocity_bound as a real number, and bit for bit on the
    single-ladder on-site row (ell = 0, beta = 1), where the factors differ
    only by a power of two; elsewhere the last bits may differ.
    """
    b = m_matrix_bound(mu, beta, ell, K).offdiag
    return 4.0 * (2 * ell + 1) * K ** (2 * ell + 1) * b


def worst_case_velocities(mu: float, theta: float, ell: int,
                          eps: float) -> tuple[float, float]:
    """(v', v*) under a density assumption (mu, theta): v' = (1+eps) v_{mu/2}
    (K = 2, beta = 1) and the worst-case cone velocity v* = (2 theta)^(8l+4) v'."""
    vprime = (1.0 + eps) * velocity_bound(mu / 2.0, 2, ell, 1)
    return vprime, (2.0 * theta) ** (8 * ell + 4) * vprime


# ---------------------------------------------------------------------------
# envelopes


def initial_envelope(seeds: dict[int, float], region, ell: int, mu: float, beta: int,
                     graph: Graph, norm_sq: float = 1.0) -> np.ndarray:
    """Initial conditions C_x(0) dominating the interaction-only evolution.

    seeds are the raw site functionals of the initial operator for x in the
    support region; a collar of width ell around the region gets the
    identity-only constant, everything else starts at zero.
    """
    _validate(mu, beta, max(ell, 0), max(graph.max_degree, 1))
    region = sorted(set(region))
    missing = [x for x in region if x not in seeds]
    if missing:
        raise ValueError(f"missing seed values for region vertices {missing}")
    eps = beta ** beta * (1.0 - math.exp(-mu)) ** (-beta) * norm_sq
    c0 = np.zeros(graph.num_vertices)
    for x in graph.vertices():
        d = set_distance(graph, x, region)
        if d == 0:
            c0[x] = 2.0 * eps + 2.0 * seeds[x]
        elif d <= ell:
            c0[x] = 4.0 * eps
    return c0


@dataclass
class Envelope:
    """Per-vertex upper bounds C_x(t) on the site growth functionals."""

    times: np.ndarray
    values: np.ndarray  # shape (num_vertices, len(times))

    def at(self, vertex: int, t: float) -> float:
        j = int(np.searchsorted(self.times, t))
        if j >= self.times.size or not math.isclose(self.times[j], t, rel_tol=0, abs_tol=1e-12):
            raise KeyError(f"time {t} not on the envelope grid")
        return float(self.values[vertex, j])


def coupling_matrix(graph: Graph, coupling: MMatrixBound, ell: int) -> np.ndarray:
    """Dense nonnegative rate matrix; support dist(u, v) <= 2 ell + 1."""
    n = graph.num_vertices
    m = np.zeros((n, n))
    reach = 2 * ell + 1
    for u in graph.vertices():
        du = graph.distances_from(u)
        for v in graph.vertices():
            if u == v:
                m[u, u] = coupling.diag
            elif du[v] <= reach:
                m[u, v] = coupling.offdiag
    return m


ENVELOPE_ORDER = 8     # Taylor degree of each envelope step
ENVELOPE_STEP = 0.25   # envelope step size times the infinity norm of M


def integrate_envelope(graph: Graph, coupling: MMatrixBound, c0: np.ndarray,
                       times, ell: int) -> Envelope:
    """Certified super-solution of dC/dt <= M C by one-sided Taylor stepping.

    Each step of size h = ENVELOPE_STEP / |M| applies the degree-d Taylor
    polynomial of exp(h M), d = ENVELOPE_ORDER, and then adds the rigorous
    remainder bound

        (h |M|)^(d+1) / (d+1)! * e^(h |M|) * max C

    to every component, so the result dominates the exact solution at every
    grid time.  Nonnegativity of M and C makes the one-sided rounding valid
    elementwise.
    """
    times = np.asarray(sorted(set(float(t) for t in times)))
    if times.size == 0 or times[0] < 0:
        raise ValueError("need nonnegative output times")
    m = coupling_matrix(graph, coupling, ell)
    norm = float(np.abs(m).sum(axis=1).max())  # infinity norm
    c = np.asarray(c0, dtype=np.float64).copy()
    if np.any(c < 0):
        raise ValueError("initial envelope must be nonnegative")
    values = np.zeros((graph.num_vertices, times.size))
    now = 0.0
    for j, t_out in enumerate(times):
        while now < t_out - 1e-15:
            h = min(ENVELOPE_STEP / norm if norm > 0 else t_out - now, t_out - now)
            if h <= 0:
                raise FloatingPointError("envelope step size underflow")
            term = c.copy()
            new = c.copy()
            for k in range(1, ENVELOPE_ORDER + 1):
                term = (h / k) * (m @ term)
                new += term
            hn = h * norm
            remainder = (hn ** (ENVELOPE_ORDER + 1) / math.factorial(ENVELOPE_ORDER + 1)
                         * math.exp(hn) * float(c.max(initial=0.0)))
            new += remainder
            c = new
            now += h
        values[:, j] = c
    return Envelope(times=times, values=values)


def closed_form_envelope(r: int, t: float, B: float, K: int, ell: int, g0: float) -> float:
    """Closed-form cone envelope G0 (v t / r)^(r / (2 ell + 1)), v = 4(2l+1)K^(2l+1)B.

    Returns +inf outside the cone v|t| >= r.  Dominates the integrated
    envelope on the same data by construction.
    """
    if r < 1:
        raise ValueError("separation r must be >= 1")
    v = 4.0 * (2 * ell + 1) * K ** (2 * ell + 1) * B
    if v * abs(t) >= r:
        return math.inf
    return g0 * (v * abs(t) / r) ** (r / (2 * ell + 1))


# ---------------------------------------------------------------------------
# commutator bounds


@dataclass(frozen=True)
class BoundParams:
    """Everything the ensemble commutator bound needs.

    seeds are the raw site functionals of the unevolved operator over its
    support; size_R / size_R_ell count the support and its ell-fattening.
    """

    mu: float
    K: int
    ell: int
    beta: int
    gamma: int
    seeds: tuple[float, ...]
    size_R: int
    size_R_ell: int
    norm_sq: float = 1.0

    def __post_init__(self):
        _validate(self.mu, self.beta, self.ell, self.K)

    def prefactor(self) -> float:
        q = math.exp(-self.mu)
        return (16.0 * self.beta ** self.beta * math.cosh(self.mu * self.gamma / 2.0)
                * (1.0 + self.beta * (self.beta / (1.0 - q)) ** self.beta))

    def amplitude(self) -> float:
        q = math.exp(-self.mu)
        ident = (self.beta / (1.0 - q)) ** self.beta
        return self.prefactor() * (
            sum(self.seeds) + ident * (self.size_R + self.size_R_ell) * self.norm_sq)


def ensemble_commutator_bound(r: int, t: float, params: BoundParams) -> float:
    """Grand-canonical commutator bound C (v t / r)^(r/(2 ell + 1)); inf outside cone."""
    if r < 1:
        raise ValueError("separation r must be >= 1")
    v = velocity_bound(params.mu, params.K, params.ell, params.beta)
    if v * abs(t) >= r:
        return math.inf
    base = v * abs(t) / r
    return params.amplitude() * base ** (r / (2 * params.ell + 1))


def finite_density_commutator_bound(r: int, t: float, mu: float, theta: float,
                                    K0: float, ell: int, eps: float = 0.1,
                                    c1: float = 1.0) -> float:
    """Worst-case commutator bound under a finite-density state assumption.

    Value: c1 * K0 * ((2 theta)^(8l+4) v' t / r)^(r/(2l+1)) inside the cone
    r > (2 theta)^(8l+4) v' t, with v' = (1+eps) * velocity at chemical
    potential mu/2.  c1 is a configuration scale the derivation leaves
    unspecified (default 1); at the cone edge with K0 = 1 the value is c1.
    """
    if r < 1:
        raise ValueError("separation r must be >= 1")
    if theta <= 0 or K0 <= 0:
        raise ValueError("theta and K0 must be positive")
    cone = worst_case_velocities(mu, theta, ell, eps)[1] * abs(t)
    if cone >= r:
        return math.inf
    return c1 * K0 * (cone / r) ** (r / (2 * ell + 1))


def matrix_element_bound(r: int, t: float, m: int, ell: int, eps: float = 0.1,
                         c1: float = 1.0) -> float:
    """Bound on commutator matrix elements between states with <= m bosons/site.

    Parameter map: mu = 1/m, theta = e (1 + m), K0 = 4, then the worst-case
    bound above, whose cone velocity v* grows with m.
    """
    if m < 1:
        raise ValueError("per-site occupancy bound m must be >= 1")
    return finite_density_commutator_bound(r, t, 1.0 / m, math.e * (1.0 + m), 4.0, ell, eps, c1)


# ---------------------------------------------------------------------------
# scalar inequality (fuzz oracle)


def check_scalar_inequality(xi_u, xi_v, phi, psi, beta: int):
    """sqrt(xi_u xi_v) xi_u^(b-1) phi psi <= xi_u^b phi^2 + xi_v^b psi^2 [+ xi_u^b psi^2].

    The bracketed term enters only for beta > 1.  Vectorized; must hold for
    all positive inputs, so it doubles as a fuzz oracle.
    """
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    xi_u = np.asarray(xi_u, dtype=np.float64)
    xi_v = np.asarray(xi_v, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    lhs = np.sqrt(xi_u * xi_v) * xi_u ** (beta - 1) * phi * psi
    rhs = xi_u ** beta * phi ** 2 + xi_v ** beta * psi ** 2
    if beta > 1:
        rhs = rhs + xi_u ** beta * psi ** 2
    return lhs <= rhs


# ---------------------------------------------------------------------------
# derivation trace (for reports)


def derivation_trace(mu: float, K: int, ell: int, beta: int) -> list[dict]:
    """Human-auditable trace: each constant with its formula and substitution."""
    coupling = m_matrix_bound(mu, beta, ell, K)
    v = velocity_bound(mu, K, ell, beta)
    q = math.exp(-mu)
    nbar = q / (1.0 - q)
    if ell == 0 and beta == 1:
        off_formula = "62 + 48/mu"
        v_formula = "8*K*(31 + 24/mu)"
    elif ell == 0:
        off_formula = "23*(2*beta)**(beta+1)*(1 + 2/mu)**(beta+1)"
        v_formula = "92*K*(2*beta)**(beta+1)*(1 + 2/mu)**(beta+1)"
    else:
        off_formula = "2**(beta+8)*beta**(2*beta)*(1 + 2/mu)**(2*beta)*K**(ell+1)"
        v_formula = "2**(beta+10)*(2*ell+1)*K**(3*ell+2)*beta**(2*beta)*(1 + 2/mu)**(2*beta)"
    inputs = {"mu": mu, "K": K, "ell": ell, "beta": beta}
    trace = [
        {"name": "coupling_offdiag", "formula": off_formula, "inputs": inputs,
         "value": coupling.offdiag, "provenance": "formula"},
        {"name": "coupling_diag",
         "formula": f"({off_formula}) * K" if ell == 0 else off_formula,
         "inputs": inputs, "value": coupling.diag, "provenance": "formula"},
        {"name": "velocity", "formula": v_formula, "inputs": inputs, "value": v,
         "provenance": "formula"},
        {"name": "velocity_composition", "formula": "4*(2*ell+1)*K**(2*ell+1)*coupling_offdiag",
         "inputs": inputs, "value": velocity_from_coupling(mu, K, ell, beta),
         "provenance": "formula"},
        {"name": "mean_site_occupancy", "formula": "1/(exp(mu) - 1)", "inputs": {"mu": mu},
         "value": nbar, "provenance": "formula"},
    ]
    if K == 2 and ell == 0 and beta == 1:
        trace.append({
            "name": "headline_velocity_in_mean_occupancy",
            "formula": "496 + 384*nbar",
            "inputs": {"nbar": nbar}, "value": 496.0 + 384.0 * nbar,
            "provenance": "formula",
            "note": ("restatement with mean occupancy in place of 1/mu; since "
                     "nbar < 1/mu it differs from the proven form, which is the "
                     "one reported as 'velocity'")})
        trace.append({
            "name": "reference_velocity_nonrigorous",
            "formula": "(2 + 4*nbar)*J",
            "inputs": {"nbar": nbar, "J": 1.0}, "value": 2.0 + 4.0 * nbar,
            "provenance": "formula",
            "note": "empirical literature estimate, displayed for orientation only"})
    return trace
