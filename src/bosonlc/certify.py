"""Certified-truncation pipeline for one-dimensional chains.

Given a finite-density assumption on the initial state, the closed forms
below pick a spatial window radius and a total boson cutoff, the restricted
model is simulated exactly, and the result is reported together with the two
rigorous-form error components (window restriction and boson cutoff).

The formula radius is astronomically conservative at desk scale, so
``certified_expectation`` accepts explicit overrides for the radius and the
caps; the certificate always records both the formula values and what was
actually used.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dynamics import evolve_state
from .fock import CapacityError, FockBasis, ModelSpec, count_states
from .lattice import build_path
from .opspace import MU_FLOOR, MonomialOp


class WindowError(ValueError):
    """The observable does not lie inside the simulated window."""


@dataclass(frozen=True)
class DensityAssumption:
    """Finite-density hypothesis on the initial state.

    ``inner`` form bounds weighted inner products of local operators against
    the grand-canonical ones by K0 theta^(2x); ``partial-trace`` names the
    marginal form of the same bound.  The certificate records the form; no
    formula here reads it.
    """

    mu: float
    theta: float
    K0: float
    form: str = "inner"

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.theta < 1 or self.K0 < 1:
            raise ValueError("theta and K0 must be >= 1")
        if self.form not in ("inner", "partial-trace"):
            raise ValueError("form must be 'inner' or 'partial-trace'")


def fock_state_assumption(occupations) -> DensityAssumption:
    """Assumption parameters for a number eigenstate on a symmetric chain.

    With exactly N_x bosons on the 2x+1 central sites one may take
    mu = (2x+1)/N_x and theta = K0 = e/(1 - e^-mu); the binding cut (largest
    admissible density) fixes mu; a mu below MU_FLOOR raises ValueError.
    """
    occ = list(occupations)
    if len(occ) % 2 == 0:
        raise ValueError("chain must have odd length for the symmetric labeling")
    center = len(occ) // 2
    best_mu = math.inf
    for x in range(center + 1):
        n_window = sum(occ[center - x:center + x + 1])
        if n_window > 0:
            best_mu = min(best_mu, (2 * x + 1) / n_window)
    if not math.isfinite(best_mu):
        best_mu = 1.0  # empty state: any positive density parameter works
    if best_mu < MU_FLOOR:
        raise ValueError(f"the state's density gives mu = {best_mu:.3g}, below {MU_FLOOR:g}")
    theta = math.e / (1.0 - math.exp(-best_mu))
    return DensityAssumption(mu=best_mu, theta=theta, K0=theta, form="inner")


def validate_fock_assumption(occupations, assumption: DensityAssumption) -> bool:
    """Exact check of the inner-product form for a number eigenstate,
    its cuts centred on the middle site.

    For a Fock state the optimal constant at cut x is
    (1-e^-mu)^-(2x+1) e^(mu N_x); the assumption holds iff this never
    exceeds K0 theta^(2x).  Both sides are compared as logarithms, as their
    powers leave the float range from x of a few hundred on.
    """
    occ = list(occupations)
    center = len(occ) // 2
    q = math.exp(-assumption.mu)
    for x in range(0, min(center, len(occ) - 1 - center) + 1):
        n_window = sum(occ[center - x:center + x + 1])
        lhs = -(2 * x + 1) * math.log1p(-q) + assumption.mu * n_window
        rhs = math.log(assumption.K0) + 2 * x * math.log(assumption.theta)
        if lhs > rhs + 1e-12 * max(1.0, abs(rhs)):
            return False
    return True


# ---------------------------------------------------------------------------
# closed forms


def truncation_radius(t: float, theta: float, ell: int, vprime: float) -> float:
    """Window radius e (2 theta)^(4 ell + 2) v' t (real; ceil when building)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return math.e * (2.0 * theta) ** (4 * ell + 2) * vprime * t


def boson_cutoff_branches(r: float, ell: int, mu: float, theta: float) -> dict:
    q = math.exp(-mu)
    branch_flat = 4.0
    branch_density = 1.0 / (math.exp(mu / 3.0) - 1.0)
    branch_entropy = (2.0 / mu) * (1.0 + 8.0 * math.log(2.0)
                                   + math.log(theta * (1.0 - q) / mu ** 4))
    factor = max(branch_flat, branch_density, branch_entropy)
    return {"flat": branch_flat, "density": branch_density,
            "entropy": branch_entropy, "factor": factor,
            "sites": 2 * r + 2 * ell + 1}


def boson_cutoff(r: float, ell: int, mu: float, theta: float) -> int:
    """Total boson cutoff N0 = ceil((2r + 2 ell + 1) * max of three branches)."""
    if r < 1:
        raise ValueError("radius must be >= 1")
    b = boson_cutoff_branches(r, ell, mu, theta)
    return math.ceil(b["sites"] * b["factor"])


def restriction_error_bound(r: float, t: float, theta: float, ell: int,
                            vprime: float, c3: float = 1.0) -> float:
    """Window-restriction error C3 r t ((2 theta)^(4l+2) v' t / r)^(r/(4l+2)).

    +inf outside the regime r > (2 theta)^(4l+2) v' t.  C3 is a configured
    scale the derivation leaves unspecified (default 1).
    """
    if r < 1:
        return math.inf
    cone = (2.0 * theta) ** (4 * ell + 2) * vprime * abs(t)
    if cone >= r:
        return math.inf
    return c3 * r * abs(t) * (cone / r) ** (r / (4 * ell + 2))


def total_error_bound(r: float, c4: float = 1.0, ell: int = 0) -> float:
    """Combined window + cutoff error form C4 r^2 e^(-r/(4 ell + 2))."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return c4 * r * r * math.exp(-r / (4 * ell + 2))


# ---------------------------------------------------------------------------
# the certified run


@dataclass
class CertifiedValue:
    value: complex
    restriction_error: float
    cutoff_error: float
    radius: int
    boson_cap: int
    formula_radius: float
    formula_boson_cap: int | None
    window_sites: tuple[int, int]  # position range, inclusive
    assumption: DensityAssumption
    assumption_status: str
    vprime: float
    evolution_terms: int            # Chebyshev terms summed by the state propagation
    evolution_error_bound: float    # bound on ||psi(t) - exact||, from the truncated series
    constants: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def status(self) -> str:
        """"vacuous" if an error term is not finite or radius < formula_radius."""
        finite = math.isfinite(self.restriction_error) and math.isfinite(self.cutoff_error)
        return "informative" if finite and self.radius >= self.formula_radius else "vacuous"

    def to_dict(self) -> dict:
        out = asdict(self)   # the assumption becomes a dict too
        out.update(value={"re": self.value.real, "im": self.value.imag}, status=self.status,
                   window_sites=list(self.window_sites), notes=list(self.notes))
        return out


def chain_center(model: ModelSpec) -> int:
    length = model.graph.num_vertices
    if length % 2 == 0:
        raise ValueError("certified runs need an odd-length chain (symmetric labeling)")
    return length // 2


def windowed_model(model: ModelSpec, radius: int) -> tuple[ModelSpec, int]:
    """Restriction of a chain model to the window [-r-ell, r+ell].

    Hoppings are kept only between positions -r..r; interactions whose
    support fits in the window are kept.  Returns the sub-model and the
    offset mapping window site -> original site.
    """
    ell = model.interaction_range
    center = chain_center(model)
    length = model.graph.num_vertices
    lo = max(0, center - radius - ell)
    hi = min(length - 1, center + radius + ell)
    width = hi - lo + 1
    sub = build_path(width)
    hopping = {}
    for (x, y), sched in model.hopping.items():
        a, b = min(x, y), max(x, y)
        if lo <= a and b <= hi and (center - radius) <= a and b <= (center + radius):
            hopping[(a - lo, b - lo)] = sched
    interactions = []
    for term in model.interactions:
        lo_s, hi_s = min(term.support), max(term.support)
        if lo_s >= lo and hi_s <= hi and (center - radius - ell) <= lo_s <= (center + radius):
            shifted_support = tuple(s - lo for s in term.support)
            shifted_monos = tuple(
                (c, tuple((s - lo, p) for s, p in powers)) for c, powers in term.monomials)
            interactions.append(type(term)(support=shifted_support, monomials=shifted_monos))
    return (ModelSpec(graph=sub, hopping=hopping, interactions=tuple(interactions),
                      interaction_range=ell), lo)


def certified_expectation(model: ModelSpec, occupations, observable: MonomialOp,
                          t: float, assumption: DensityAssumption, *,
                          radius: int | None = None,
                          per_site_cap: int | None = None,
                          total_cap: int | None = None,
                          c3: float = 1.0, c4: float = 1.0, eps: float = 0.1,
                          state_budget: int = 5_000_000) -> CertifiedValue:
    """Expectation of a local observable at the chain center, with error budget.

    ``occupations`` is the initial number eigenstate over the full chain;
    ``observable`` is a monomial anchored in positions relative to the
    center.  The window radius and caps default to the closed forms; explicit
    overrides are recorded in the certificate.
    """
    from .bounds import worst_case_velocities

    ell = model.interaction_range
    center = chain_center(model)
    occ = list(occupations)
    if len(occ) != model.graph.num_vertices:
        raise ValueError("initial occupations must cover the whole chain")

    vprime = worst_case_velocities(assumption.mu, assumption.theta, ell, eps)[0]
    formula_radius = truncation_radius(t, assumption.theta, ell, vprime)
    r_used = radius if radius is not None else max(1, math.ceil(formula_radius))
    if r_used < 1:
        raise ValueError("refusing to certify a window of radius < 1")

    def window(r: int):
        """Offset, width, caps and sector size of the radius-r window, which
        is symmetric about the center and stops at the chain ends."""
        n0 = total_cap if total_cap is not None else boson_cutoff(
            r, ell, assumption.mu, assumption.theta)
        cap = per_site_cap if per_site_cap is not None else min(n0, 255)
        lo = max(0, center - r - ell)
        width = len(occ) - 2 * lo
        return lo, width, n0, cap, count_states(width, cap, n0, sum(occ[lo:lo + width]))

    formula_cap = boson_cutoff(r_used, ell, assumption.mu, assumption.theta)
    lo, width, n0_used, cap_used, requested = window(r_used)
    sites = (lo - center, lo + width - 1 - center)
    outside = sorted(x for x in observable.support if not sites[0] <= x <= sites[1])
    if outside:
        raise WindowError(f"observable site {outside[0]} (relative to the chain center) "
                          f"outside the window {sites[0]}..{sites[1]}")
    if requested > state_budget:
        # report the largest time whose window sector would fit the budget:
        # the radius below the first window over it, counting up from 1
        fit_r = 0
        while fit_r + 1 < min(r_used, center) and window(fit_r + 1)[-1] <= state_budget:
            fit_r += 1
        t_fit = max(fit_r, 1) / truncation_radius(1.0, assumption.theta, ell, vprime)
        raise CapacityError(requested, state_budget,
                            hint=f"largest certifiable time under this budget ~ {t_fit:.3e}")

    window_occ = occ[lo:lo + width]
    n_tot = sum(window_occ)
    inside = all(n <= cap_used for n in window_occ) and n_tot <= n0_used
    notes = []
    if not inside:
        notes.append("initial state truncated by the caps; projected without renormalization")

    status = "asserted, unverified"
    if validate_fock_assumption(occ, assumption):
        status = "validated exactly (number eigenstate)"
    else:
        notes.append("declared density assumption could not be verified for this state")

    # number conservation: the state evolves inside its own N sector, so only
    # that sector is enumerated; a state cut by the caps projects to zero
    value, terms, evolution_bound = 0j, 0, 0.0
    if inside:
        basis = FockBasis(width, per_site_cap=cap_used, total_cap=n0_used,
                          state_budget=state_budget, number=n_tot)
        psi = np.zeros(basis.dim, dtype=np.complex128)
        psi[basis.index(window_occ)] = 1.0
        psi, terms, evolution_bound = evolve_state(psi, windowed_model(model, r_used)[0],
                                                   basis, t)
        obs_mat = observable.translate(center - lo).to_matrix(basis)
        value = complex(np.vdot(psi, obs_mat @ psi))

    restriction = restriction_error_bound(r_used, t, assumption.theta, ell, vprime, c3)
    cutoff = total_error_bound(r_used, c4, ell)
    notes.append("error-scale constants are configuration inputs (default 1); "
                 "the derivation leaves them unspecified")
    return CertifiedValue(
        value=value, restriction_error=restriction, cutoff_error=cutoff,
        radius=r_used, boson_cap=n0_used,
        formula_radius=formula_radius, formula_boson_cap=formula_cap,
        window_sites=sites,
        assumption=assumption, assumption_status=status, vprime=vprime,
        evolution_terms=terms, evolution_error_bound=evolution_bound,
        constants={"C3": c3, "C4": c4, "eps": eps},
        notes=tuple(notes))

