"""Ground-state clustering: exponential-decay bound and the empirical check.

For a gapped, nondegenerate ground state of a time-independent chain model
satisfying a finite-density assumption, connected correlations decay at
least like exp(-gap * r / (2 v)) with v the worst-case cone velocity.  The
experiment computes exact correlators in a fixed-filling sector, attaches
the bound, and reports the fitted decay of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import worst_case_velocities
from .dynamics import connected_correlation, ground_state
from .fock import FockBasis, ModelSpec, build_hamiltonian
from .lattice import is_path
from .opspace import MonomialOp, site_monomial_norm_sq


class GaplessError(RuntimeError):
    """Ground state is degenerate (or gap below threshold); refusing to certify."""


def clustering_bound(r: int, gap: float, mu: float, theta: float,
                     ell: int, eps: float = 0.1, c5: float = 1.0) -> float:
    """C5 exp(-gap r / (2 v)) with v = (2 theta)^(8 ell + 4) (1+eps) v_{mu/2}."""
    if gap <= 0:
        raise GaplessError("spectral gap must be positive for the clustering bound")
    if r < 0:
        raise ValueError("separation must be nonnegative")
    v = worst_case_velocities(mu, theta, ell, eps)[1]
    return c5 * math.exp(-gap * r / (2.0 * v))


@dataclass
class ClusterRow:
    observable: str
    r: int
    exact: float            # |Cor| with unit-weighted-norm operators
    bound: float
    ratio: float
    minimal_c5: float       # smallest scale making bound >= exact


@dataclass
class ClusterReport:
    rows: list[ClusterRow]
    gap: float
    energy: float
    velocity: float
    fit_rate: float         # least-squares slope of log|Cor| vs r (density data)
    metadata: dict

    def to_csv(self) -> str:
        lines = ["r,exact,bound,ratio,observable"]
        for row in self.rows:
            lines.append(",".join([str(row.r), repr(row.exact), repr(row.bound),
                                   repr(row.ratio), row.observable]))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "gap": self.gap, "energy": self.energy, "velocity": self.velocity,
            "fit_rate": self.fit_rate, "metadata": self.metadata,
            "rows": [vars(r) for r in self.rows],
        }


FAMILIES = {
    "density": MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1}),
    "annihilation": MonomialOp.from_dicts(zeta={0: 1}),
}
# each row correlates the adjoint of the template at site 0 with the template
# at site r: <n_0 n_r> - <n_0><n_r> for density, <b+_0 b_r> for annihilation


def clustering_experiment(model: ModelSpec, r_list, *, per_site_cap: int,
                          filling: int = 1,
                          observables: tuple[str, ...] = ("density",),
                          gap_threshold: float = 1e-6,
                          c5: float = 1.0, eps: float = 0.1) -> ClusterReport:
    """Exact connected correlations vs the clustering bound, per separation.

    The eigensolve runs in the exact total-number sector ``filling *
    num_sites`` (number conservation makes that the relevant block); the gap
    is the in-sector gap.  Gapless or degenerate models raise GaplessError.
    Separations are probed from site 0; the finite-size policy is to keep
    r <= L/2, which the caller's r_list should respect.
    """
    length = model.graph.num_vertices
    if not is_path(model.graph):
        raise ValueError("clustering needs a path graph: separations are chain offsets")
    n_target = filling * length
    basis = FockBasis(length, per_site_cap=per_site_cap, number=n_target)
    if basis.dim == 0:
        raise ValueError("filling sector is empty under these caps")
    gs = ground_state(build_hamiltonian(model, basis, 0.0))
    if gs.gap < gap_threshold:
        raise GaplessError(
            f"in-sector gap {gs.gap:.3e} below threshold {gap_threshold:.1e}")

    # the finite-density assumption, mu = (2 floor(L/2) + 1) / N and theta
    # = K0 = e / (1 - e^-mu), serves the bound and the observables' weights
    mu = (2 * (length // 2) + 1) / n_target if n_target else 1.0
    theta = math.e / -math.expm1(-mu)
    ell = model.interaction_range
    velocity = worst_case_velocities(mu, theta, ell, eps)[1]

    rows: list[ClusterRow] = []
    density_log: list[tuple[int, float]] = []
    for name in observables:
        template = FAMILIES[name]
        # unit weighted norm on the grand-canonical capped basis (total cap
        # n_target); every site has the same norm
        norm = math.sqrt(site_monomial_norm_sq(template, mu, length,
                                               per_site_cap, n_target))
        left_op = template.adjoint()
        left = left_op.to_matrix(basis) / norm
        for r in sorted(set(int(x) for x in r_list)):
            if not (1 <= r < length):
                raise ValueError(f"separation {r} outside the chain")
            right_op = template.translate(r)
            if template.gamma == 0:
                right = right_op.to_matrix(basis) / norm
                cor = abs(connected_correlation(gs.vector, left, right))
            else:
                # A and B change N, so <A> = <B> = 0 in the number eigenstate,
                # and only their product, one N-conserving monomial, has
                # matrix elements on the fixed-N basis
                product = MonomialOp(tuple(sorted(left_op.eta + right_op.eta)),
                                     tuple(sorted(left_op.zeta + right_op.zeta)))
                psi = gs.vector
                cor = abs(complex(np.vdot(psi, product.to_matrix(basis) @ psi))) / norm ** 2
            bound = clustering_bound(r, gs.gap, mu, theta, ell, eps, c5)
            minimal = cor / (bound / c5) if bound > 0 else math.inf
            rows.append(ClusterRow(observable=name, r=r, exact=cor, bound=bound,
                                   ratio=cor / bound if bound > 0 else math.inf,
                                   minimal_c5=minimal))
            if name == "density" and cor > 0:
                density_log.append((r, math.log(cor)))

    fit_rate = math.nan
    if len(density_log) >= 2:
        rs = np.array([p[0] for p in density_log], dtype=float)
        ys = np.array([p[1] for p in density_log])
        slope = np.polyfit(rs, ys, 1)[0]
        fit_rate = float(-slope)

    meta = {
        "length": length, "per_site_cap": per_site_cap, "filling": filling,
        "sector_dim": basis.dim, "gap_threshold": gap_threshold,
        "assumption": {"mu": mu, "theta": theta, "K0": theta},
        "note": ("the bound scale C5 is a configuration input (default 1); "
                 "only the decay shape is asserted"),
    }
    return ClusterReport(rows=rows, gap=gs.gap, energy=gs.energy,
                         velocity=velocity, fit_rate=fit_rate, metadata=meta)
