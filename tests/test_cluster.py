import math

import pytest

from bosonlc.bounds import velocity_bound
from bosonlc.cluster import GaplessError, clustering_bound, clustering_experiment
from bosonlc.fock import bose_hubbard
from bosonlc.lattice import build_cubic, build_path


def test_bound_at_zero_separation_is_scale():
    assert clustering_bound(0, 1.0, 1.0, 4.3, 0, c5=2.5) == 2.5


def test_bound_decay_rate():
    # a gap large enough for an O(1) rate, so the log of a bound ratio keeps
    # its relative precision
    gap, mu, theta = 2e4, 1.0, 1.0

    def rate(r: int, g: float = gap) -> float:
        return -math.log(clustering_bound(r + 1, g, mu, theta, 0)
                         / clustering_bound(r, g, mu, theta, 0))

    vprime = 1.1 * velocity_bound(mu / 2.0, 2, 0, 1)
    assert rate(1) == pytest.approx(gap / (2.0 * (2.0 * theta) ** 4 * vprime), rel=1e-12)
    assert rate(6) == pytest.approx(rate(1), rel=1e-12)
    # doubling the gap halves the decay length
    assert rate(1, 2 * gap) == pytest.approx(2 * rate(1), rel=1e-12)


def test_bound_refuses_gapless():
    with pytest.raises(GaplessError):
        clustering_bound(2, 0.0, 1.0, 4.3, 0)
    with pytest.raises(GaplessError):
        clustering_bound(2, -1.0, 1.0, 4.3, 0)


def test_product_ground_state_zero_correlations():
    model = bose_hubbard(build_path(6), 0.0, 5.0)
    report = clustering_experiment(model, [1, 2, 3], per_site_cap=2, filling=1)
    for row in report.rows:
        assert row.exact <= 1e-12
    assert report.gap == pytest.approx(10.0, rel=1e-10)  # doublon-hole pair costs 2 U0


def test_mott_regime_decay_small():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    report = clustering_experiment(model, [1, 2, 3], per_site_cap=2, filling=1)
    vals = [row.exact for row in report.rows]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # monotone decay
    assert report.fit_rate > 0
    # log|Cor| vs r concave-or-linear decreasing away from the edges
    logs = [math.log(v) for v in vals]
    first_diffs = [b - a for a, b in zip(logs, logs[1:])]
    assert all(d < 0 for d in first_diffs)


def test_bound_column_positive_decreasing():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    report = clustering_experiment(model, [1, 2, 3], per_site_cap=2, filling=1)
    bounds = [row.bound for row in report.rows]
    assert all(b > 0 for b in bounds)
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_bound_dominates_with_unit_scale():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    report = clustering_experiment(model, [1, 2, 3], per_site_cap=2, filling=1)
    for row in report.rows:
        assert row.exact <= row.bound
        assert row.minimal_c5 <= 1.0


def test_gapless_configuration_refused():
    model = bose_hubbard(build_path(6), 0.0, 0.0)
    with pytest.raises(GaplessError):
        clustering_experiment(model, [1, 2], per_site_cap=2, filling=1)


def test_invalid_separation_rejected():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    with pytest.raises(ValueError):
        clustering_experiment(model, [0], per_site_cap=2, filling=1)
    with pytest.raises(ValueError):
        clustering_experiment(model, [6], per_site_cap=2, filling=1)


def test_non_path_graph_rejected():
    # separations are chain offsets: on a 2x4 lattice vertex 4 neighbours vertex 0
    model = bose_hubbard(build_cubic([2, 4]), 1.0, 20.0)
    with pytest.raises(ValueError, match="path graph"):
        clustering_experiment(model, [1, 4], per_site_cap=2, filling=1)


def test_sector_dim_is_filling_sector():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    report = clustering_experiment(model, [1], per_site_cap=2, filling=1)
    assert report.metadata["sector_dim"] == 141  # 6 bosons on 6 sites, cap 2


def test_report_serialization():
    model = bose_hubbard(build_path(6), 1.0, 15.0)
    report = clustering_experiment(model, [1, 2], per_site_cap=2, filling=1)
    csv = report.to_csv()
    assert csv.splitlines()[0] == "r,exact,bound,ratio,observable"
    d = report.to_dict()
    assert d["gap"] == report.gap
    assert len(d["rows"]) == 2
    assert "note" in d["metadata"]


def test_annihilation_family_matches_dense_oracle():
    """<b+_0 b_r> from the filling-sector solver against a dense solve on the
    full capped basis, both scaled by the enumerated unit norm."""
    import numpy as np
    from bosonlc.fock import FockBasis, build_hamiltonian, ladder_op
    from bosonlc.opspace import MonomialOp, MuWeights, weighted_norm_sq

    length, cap = 6, 2
    model = bose_hubbard(build_path(length), 1.0, 4.0)
    report = clustering_experiment(model, [1, 2, 3], per_site_cap=cap, filling=1,
                                   observables=("density", "annihilation"))
    full = FockBasis(length, cap)
    sector = np.flatnonzero(full.totals == length)
    h = build_hamiltonian(model, full).toarray()[np.ix_(sector, sector)]
    evals, evecs = np.linalg.eigh(h)
    psi = np.zeros(full.dim, complex)
    psi[sector] = evecs[:, 0]
    mu = report.metadata["assumption"]["mu"]
    grand = FockBasis(length, cap, total_cap=length)
    norm_sq = weighted_norm_sq(MonomialOp.from_dicts(zeta={0: 1}).to_matrix(grand),
                               MuWeights(mu, grand))
    rows = {row.r: row.exact for row in report.rows if row.observable == "annihilation"}
    assert sorted(rows) == [1, 2, 3]
    for r, got in rows.items():
        hop = ladder_op(full, 0, "create") @ ladder_op(full, r, "annihilate")
        want = abs(np.vdot(psi, hop @ psi)) / norm_sq
        assert want > 1e-4
        assert got == pytest.approx(want, rel=1e-9)
