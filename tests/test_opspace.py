import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlc.config import load_config
from bosonlc.dynamics import HeisenbergScanEngine
from bosonlc.fock import (FockBasis, build_hamiltonian, bose_hubbard, ladder_op,
                          random_model_spec, total_number_op)
from bosonlc.lattice import build_path
from bosonlc.opspace import (BlockOp, MonomialOp, MuWeights,
                             apply_liouvillian, check_thermal_relation,
                             commutator_weighted_norm,
                             f_beta_expectation, identity_f_beta,
                             monomial_commutator_bound, scatter_block, sector_entries,
                             site_monomial_norm_sq, thermal_expectation, weighted_inner,
                             weighted_norm_sq)
from conftest import (dense_f_beta, geometric_series_inner_bb, random_operator, sector_blocks,
                      series_b_f, series_identity_f)


def single_site(cap=50, mu=1.0):
    basis = FockBasis(1, cap)
    return basis, MuWeights(mu, basis)


# -- dtypes ----------------------------------------------------------------------

def test_matrices_are_real_by_construction():
    # real entries give float64 matrices; only a complex hopping amplitude
    # makes H complex
    config = Path(__file__).resolve().parents[1] / "configs" / "cluster_mott8.yaml"
    loaded = load_config(str(config)).model
    assert all(type(s.at(0.0)) is complex for s in loaded.hopping.values())
    for model in (bose_hubbard(build_path(4), 1.0, 1.0), loaded):
        basis = FockBasis(model.graph.num_vertices, 1)
        assert build_hamiltonian(model, basis).dtype == np.float64
    basis = FockBasis(3, 2)
    for kind in ("annihilate", "create", "number"):
        assert ladder_op(basis, 1, kind).dtype == np.float64
    assert total_number_op(basis).dtype == np.float64
    op = MonomialOp.from_dicts(eta={0: 2}, zeta={1: 1}).to_matrix(basis)
    assert op.dtype == np.float64
    blocks = sector_blocks(basis, op)
    assert blocks.blocks and all(b.dtype == np.float64 for b in blocks.blocks.values())
    assert blocks.mat.dtype == np.float64

    model = random_model_spec(np.random.default_rng(5), build_path(4))
    h = build_hamiltonian(model, FockBasis(4, 2))
    assert h.dtype == np.complex128 and np.any(h.data.imag)


# -- monomial matrices ----------------------------------------------------------

def ladder_product(op, basis):
    """The monomial as a product of ladder matrices, annihilations first."""
    mat = sp.identity(basis.dim, dtype=np.complex128, format="csr")
    for site, p in op.zeta:
        for _ in range(p):
            mat = ladder_op(basis, site, "annihilate") @ mat
    for site, p in op.eta:
        for _ in range(p):
            mat = ladder_op(basis, site, "create") @ mat
    return mat


def stored_entries(mat):
    coo = sp.coo_matrix(mat)
    keep = coo.data != 0
    return sorted(zip(coo.row[keep].tolist(), coo.col[keep].tolist(),
                      coo.data[keep].tolist()))


@st.composite
def basis_and_monomial(draw):
    sites = draw(st.integers(1, 4))
    cap = draw(st.integers(1, 4))
    total = draw(st.one_of(st.none(), st.integers(0, sites * cap)))
    powers = st.dictionaries(st.integers(0, sites - 1), st.integers(1, 3), max_size=sites)
    op = MonomialOp.from_dicts(eta=draw(powers), zeta=draw(powers))
    return FockBasis(sites, cap, total), op


@settings(max_examples=200, deadline=None)
@given(basis_and_monomial())
def test_to_matrix_bit_identical_to_ladder_products(case):
    basis, op = case
    assert stored_entries(op.to_matrix(basis)) == stored_entries(ladder_product(op, basis))


def test_to_matrix_on_fixed_number_basis():
    full = FockBasis(4, 3, total_cap=6)
    sector = FockBasis(4, 3, total_cap=6, number=5)
    rows = np.flatnonzero(full.totals == 5)
    for op in (MonomialOp.from_dicts(eta={1: 1}, zeta={1: 1}),
               MonomialOp.from_dicts(eta={0: 2}, zeta={0: 2}),
               MonomialOp.from_dicts(eta={0: 1}, zeta={3: 1})):
        want = op.to_matrix(full)[rows][:, rows]
        assert (op.to_matrix(sector) != want).nnz == 0
    # the ladder product would pass through N = 4 and lose the density
    density = MonomialOp.from_dicts(eta={2: 1}, zeta={2: 1}).to_matrix(sector)
    assert np.allclose(density.diagonal(), sector.states[:, 2], rtol=1e-15, atol=0)
    for op in (MonomialOp.from_dicts(zeta={0: 1}), MonomialOp.from_dicts(eta={0: 2, 1: 1})):
        assert op.to_matrix(sector).nnz == 0


def test_to_matrix_rejects_site_outside_basis():
    with pytest.raises(ValueError):
        MonomialOp.from_dicts(zeta={4: 1}).to_matrix(FockBasis(4, 2))


@pytest.mark.parametrize("sites,cap,total,mu", [
    (4, 2, 4, 1.0), (5, 3, None, 0.7), (6, 2, 6, 1.3), (3, 4, 5, 0.5), (8, 2, 8, 1.125)])
def test_site_monomial_norm_matches_enumeration(sites, cap, total, mu):
    basis = FockBasis(sites, cap, total)
    w = MuWeights(mu, basis)
    for template in (MonomialOp.from_dicts(eta={0: 1}, zeta={0: 1}),
                     MonomialOp.from_dicts(zeta={0: 1}),
                     MonomialOp.from_dicts(eta={0: 2}, zeta={0: 1})):
        closed = site_monomial_norm_sq(template, mu, sites, cap, total)
        for site in range(sites):
            enumerated = weighted_norm_sq(template.translate(site).to_matrix(basis), w)
            assert closed == pytest.approx(enumerated, rel=1e-14)


@pytest.mark.parametrize("total", [None, 4])
def test_site_monomial_norm_at_the_mu_floor(total):
    # (1 - e^-mu)^L from expm1: at mu = 1e-15 the subtraction was 8.0e-4 off
    # per site; the oracle sums the monomial's entries with mpmath weights
    mu, basis = 1e-15, FockBasis(3, 3, total)
    op = MonomialOp.from_dicts(eta={1: 1}, zeta={1: 2})
    coo = op.to_matrix(basis).tocoo()
    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        pre = (-mpmath.expm1(-m)) ** 3
        want = sum(mpmath.mpf(a) ** 2 * pre
                   * mpmath.exp(-m * (int(basis.totals[r]) + int(basis.totals[c])) / 2)
                   for r, c, a in zip(coo.row, coo.col, coo.data))
        assert abs(site_monomial_norm_sq(op, mu, 3, 3, total) - want) <= 1e-14 * want


def test_mu_weights_at_the_mu_floor():
    # (1 - e^-mu)^L, L (1 - e^-mu) e^(-mu cap) and 1 - e^(-mu (cap + 1)) from
    # expm1: at mu = 1e-15 the subtractions were 8.0e-4 off
    w = MuWeights(1e-15, FockBasis(3, 3))
    with mpmath.workdps(50):
        mu = mpmath.mpf(w.mu)
        for got, want in ((w.prefactor, (-mpmath.expm1(-mu)) ** 3),
                          (w.tail_estimate(), 3 * -mpmath.expm1(-mu) * mpmath.exp(-3 * mu)),
                          (w.site_partition, -mpmath.expm1(-4 * mu))):
            assert abs(got - want) <= 1e-14 * want


def test_site_monomial_norm_needs_one_site():
    with pytest.raises(ValueError):
        site_monomial_norm_sq(MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1}), 1.0, 3, 2, None)


# -- inner product ------------------------------------------------------------

def test_identity_normalized():
    basis, w = single_site(cap=45)
    ident = sp.identity(basis.dim, format="csr")
    assert weighted_inner(ident, ident, w).real == pytest.approx(1.0, abs=1e-15)


def test_bb_closed_form_mu_ln2():
    basis, w = single_site(cap=60, mu=math.log(2))
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    val = weighted_inner(b, b, w).real
    assert val == pytest.approx(math.sqrt(2), abs=1e-12)
    assert val == pytest.approx(geometric_series_inner_bb(math.log(2)), abs=1e-12)


def test_b_bdag_orthogonal():
    basis, w = single_site()
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bdag = MonomialOp.from_dicts(eta={0: 1}).to_matrix(basis)
    assert weighted_inner(b, bdag, w) == 0


def test_inner_product_axioms(rng):
    basis = FockBasis(2, 4)
    w = MuWeights(0.8, basis)
    for _ in range(25):
        a = random_operator(rng, basis)
        b = random_operator(rng, basis)
        c = random_operator(rng, basis)
        ab = weighted_inner(a, b, w)
        ba = weighted_inner(b, a, w)
        assert ab == pytest.approx(np.conj(ba), abs=1e-10)
        lam = complex(rng.normal(), rng.normal())
        lin = weighted_inner(a, lam * b + c, w)
        assert lin == pytest.approx(lam * ab + weighted_inner(a, c, w), rel=1e-10)
        norm = weighted_inner(a, a, w)
        assert norm.imag == pytest.approx(0.0, abs=1e-10)
        assert norm.real > 0
    zero = sp.csr_matrix((basis.dim, basis.dim))
    assert weighted_inner(zero, zero, w) == 0


@pytest.mark.parametrize("form", [
    lambda a, w: weighted_inner(a, a, w),
    weighted_norm_sq,
    lambda a, w: thermal_expectation(a, a, w),
    lambda a, w: check_thermal_relation(a, a, 0, 0, w),
    lambda a, w: f_beta_expectation(a, 0, 1, w),
    lambda a, w: commutator_weighted_norm(a, a, w),
    lambda a, w: monomial_commutator_bound(a, MonomialOp.from_dicts(zeta={0: 1}), w),
], ids=["inner", "norm", "thermal", "thermal_relation", "f_beta", "commutator", "monomial"])
def test_weighted_forms_reject_a_matrix_off_the_basis(form):
    # the weights carry the basis; a matrix of any other shape is refused
    # before an entry is weighted
    basis = FockBasis(2, 2)
    w = MuWeights(1.0, basis)
    for shape in ((basis.dim - 1,) * 2, (basis.dim + 1,) * 2, (basis.dim, basis.dim + 1)):
        with pytest.raises(ValueError, match="not over the"):
            form(sp.identity(max(shape), format="csr")[:shape[0], :shape[1]], w)


def test_weighted_forms_reject_blocks_over_another_basis():
    # a BlockOp over other caps has sectors of other sizes: it is refused,
    # neither weighted by the wrong sectors nor multiplied out of shape
    small, large = FockBasis(3, 2), FockBasis(3, 3)
    a = sector_blocks(small, MonomialOp.from_dicts(zeta={0: 1}).to_matrix(small))
    w = MuWeights(1.0, large)
    for form in (weighted_norm_sq, lambda a, w: f_beta_expectation(a, 0, 1, w)):
        with pytest.raises(ValueError, match="not over the"):
            form(a, w)


# -- thermal relation ---------------------------------------------------------

def test_thermal_relation_bb():
    basis, w = single_site(cap=40)
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    # (b|b) = e^(mu/2) nbar with nbar the mean site occupancy
    assert weighted_inner(b, b, w).real == pytest.approx(
        math.exp(w.mu / 2) * w.q / (1 - w.q), abs=1e-12)
    assert check_thermal_relation(b, b, k=1, k_prime=0, w=w) <= 1e-12


def test_thermal_relation_sector_mismatch_vanishes():
    basis, w = single_site(cap=30)
    b2 = MonomialOp.from_dicts(zeta={0: 2}).to_matrix(basis)
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    # [A, N] = 2A, [B, N] = B: k = 1, k' = 1 -> both sides vanish
    assert weighted_inner(b2, b, w) == 0
    assert check_thermal_relation(b2, b, k=1, k_prime=1, w=w) == 0


def test_thermal_relation_identity_trace():
    basis, w = single_site(cap=45)
    ident = sp.identity(basis.dim, format="csr")
    assert thermal_expectation(ident, ident, w).real == pytest.approx(1.0, abs=1e-14)
    assert check_thermal_relation(ident, ident, 0, 0, w) <= 1e-13


def test_thermal_relation_multisite(rng):
    basis = FockBasis(2, 12)
    w = MuWeights(1.3, basis)
    a = MonomialOp.from_dicts(zeta={0: 1, 1: 1}).to_matrix(basis)      # k+k' = 2
    b = MonomialOp.from_dicts(zeta={0: 2}).to_matrix(basis)            # k = 2
    assert check_thermal_relation(a, b, k=2, k_prime=0, w=w) <= w.tail_estimate() + 1e-12


# -- growth functionals --------------------------------------------------------

def test_identity_f_beta_series():
    for mu in (0.5, 1.0, 2.0):
        q = math.exp(-mu)
        basis = FockBasis(1, 80)
        w = MuWeights(mu, basis)
        ident = sp.identity(basis.dim, format="csr")
        val = f_beta_expectation(ident, 0, 1, w, projected=False)
        assert val == pytest.approx(1.0 / (1.0 - q), rel=1e-10)
        assert val == pytest.approx(series_identity_f(mu, 1), rel=1e-10)


def test_identity_f_beta_bound():
    for mu in (0.4, 1.0, 3.0):
        for beta in (1, 2, 3):
            q = math.exp(-mu)
            val = identity_f_beta(mu, beta, cap=max(60, int(20 / mu)))
            assert val <= beta ** beta * (1 - q) ** (-beta) * (1 + 1e-12)


@pytest.mark.parametrize("beta", [1, 3])
def test_identity_f_beta_at_the_mu_floor(beta):
    # (1 - q) / (1 - q^(cap+1)) from expm1 at both ends; the subtraction form
    # was also right here, as one rounded q made both errors and they cancel
    mu, cap = 1e-15, 5
    with mpmath.workdps(50):
        m = mpmath.mpf(mu)
        want = (-mpmath.expm1(-m) / -mpmath.expm1(-m * (cap + 1))
                * sum(mpmath.exp(-m * j) * (j + beta) ** beta for j in range(cap + 1)))
        assert abs(identity_f_beta(mu, beta, cap) - want) <= 1e-14 * want


def test_monomial_commutator_bound_at_the_mu_floor():
    # the right side is the ensemble prefactor's half times the projected
    # seeds; (beta / (1 - e^-mu))^beta from expm1 was 8.0e-4 off at mu = 1e-15
    basis = FockBasis(3, 2)
    w = MuWeights(1e-15, basis)
    o = MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1}).to_matrix(basis)
    probe = MonomialOp.from_dicts(eta={1: 2})
    _, rhs = monomial_commutator_bound(o, probe, w)
    seed = f_beta_expectation(o, 1, 2, w)
    assert seed > 0
    with mpmath.workdps(50):
        mu = mpmath.mpf(w.mu)
        prefactor = 8 * 2 ** 2 * mpmath.cosh(mu) * (1 + 2 * (2 / -mpmath.expm1(-mu)) ** 2)
        assert abs(rhs - prefactor * seed) <= 1e-14 * prefactor * seed


def test_b_f_beta_series_oracle():
    basis = FockBasis(1, 90)
    w = MuWeights(1.0, basis)
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    val = f_beta_expectation(b, 0, 1, w, projected=False)
    assert val == pytest.approx(series_b_f(1.0), rel=1e-12)
    # traceless operator: projection changes nothing
    assert f_beta_expectation(b, 0, 1, w, projected=True) == pytest.approx(val, rel=1e-12)


def test_f_beta_projected_dense_oracle(rng):
    """Block-wise projected functional vs a from-scratch dense computation."""
    basis = FockBasis(2, 4)
    w = MuWeights(0.9, basis)
    for _ in range(3):
        mat = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
        for site in (0, 1):
            for beta in (1, 2):
                fast = f_beta_expectation(sp.csr_matrix(mat), site, beta, w, projected=True)
                assert fast == pytest.approx(dense_f_beta(basis, w, mat, site, beta),
                                             rel=1e-10)


def test_f_beta_blockwise_raw_and_conserving_dense_oracle(rng):
    """Raw and projected functionals, number-conserving or not, as a
    sparse matrix or a BlockOp, against the dense oracle."""
    basis = FockBasis(3, 2)
    w = MuWeights(0.7, basis)
    same_sector = basis.totals[:, None] == basis.totals[None, :]
    for conserving in (True, False):
        mat = rng.normal(size=(basis.dim,) * 2) + 1j * rng.normal(size=(basis.dim,) * 2)
        if conserving:
            mat[~same_sector] = 0
        a = sp.csr_matrix(mat)
        blocks = sector_blocks(basis, a)
        if conserving:
            assert all(nr == nc for nr, nc in blocks.blocks)
        for site in (0, 2):
            for projected in (False, True):
                want = dense_f_beta(basis, w, mat, site, 2, projected=projected)
                for op in (a, blocks):
                    got = f_beta_expectation(op, site, 2, w, projected=projected)
                    assert got == pytest.approx(want, rel=1e-10)


def _f_beta_held(a, site, beta, w, projected=True):
    """f_beta_expectation as formed before the site-empty sums were streamed:
    every sum held to the end, |D|^2 and the sums formed out of place."""
    basis, q = w.basis, w.q
    levels = np.arange(basis.per_site_cap + 1)
    f = (levels + float(beta)) ** beta
    table = np.maximum.outer(f, f)
    occ = [basis.states[ix, site] for ix in basis.sectors]
    one_hot = [(o[:, None] == levels).astype(np.float64) for o in occ]
    at_level = [[np.flatnonzero(o == k) for k in levels] for o in occ]
    geom = (1.0 - q) / w.site_partition * q ** levels
    raw = 0.0
    avg, f_sum = {}, {}
    for (n_row, n_col), block in a.blocks.items():
        sq = block.real ** 2 + block.imag ** 2 if np.iscomplexobj(block) else block ** 2
        counts = one_hot[n_row].T @ sq @ one_hot[n_col]
        raw += w.pair_weight(n_row, n_col) * float(np.sum(counts * table))
        if not projected:
            continue
        for k in range(min(n_row, n_col, basis.per_site_cap) + 1):
            rows, cols = at_level[n_row][k], at_level[n_col][k]
            if rows.size == 0 or cols.size == 0:
                continue
            sub = block[np.ix_(rows, cols)]
            key = (n_row - k, n_col - k)
            avg[key] = avg.get(key, 0.0) + geom[k] * sub
            f_sum[key] = f_sum.get(key, 0.0) + q ** k * f[k] * sub
    if not projected:
        return raw
    s_f = float(np.sum(q ** levels * f))
    cross = avg_sq = 0.0
    for key, t_block in avg.items():
        weight = w.pair_weight(*key)
        cross += weight * float(np.vdot(f_sum[key].ravel(), t_block.ravel()).real)
        flat = t_block.ravel()
        avg_sq += weight * s_f * float(np.vdot(flat, flat).real)
    return max(raw - 2.0 * cross + avg_sq, 0.0)


@pytest.mark.parametrize("shuffled", [False, True])
def test_f_beta_streamed_sums_give_the_held_bits(rng, shuffled):
    # site-empty sums finished as soon as their last block is read, against
    # the formula that held them all to the end: the same bits, for real,
    # complex and mixed blocks with signed zeros among them (0.0 + -0.0 was
    # the held sum's first entry), in sector order and in a shuffled order
    # (a key's feeding blocks then come in any order)
    basis = FockBasis(4, 3)
    w = MuWeights(0.8, basis)
    b = sector_blocks(basis, MonomialOp.from_dicts(zeta={1: 1}).to_matrix(basis))
    evolved = HeisenbergScanEngine(bose_hubbard(build_path(4), 1.0, 1.0), basis,
                                   MonomialOp.from_dicts(zeta={1: 1})).evolved_operator(0.3)
    mixed = sector_blocks(basis, random_operator(rng, basis))
    for pair, block in mixed.blocks.items():
        block[rng.random(block.shape) < 0.2] = -0.0
        if sum(pair) % 3 == 0:
            mixed.blocks[pair] = block.real.copy()
    for op in (b, evolved, mixed):
        pairs = list(op.blocks)
        if shuffled:
            pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        op = BlockOp(basis, {pair: op.blocks[pair] for pair in pairs})
        for site in (0, 1, 3):
            for beta in (1, 2):
                for projected in (False, True):
                    got = f_beta_expectation(op, site, beta, w, projected=projected)
                    want = _f_beta_held(op, site, beta, w, projected=projected)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_block_op_real_blocks_and_assembly(rng):
    basis = FockBasis(3, 2)
    w = MuWeights(1.0, basis)
    b = MonomialOp.from_dicts(zeta={1: 1}).to_matrix(basis)
    blocks = sector_blocks(basis, b)
    assert sorted(blocks.blocks) == [(n - 1, n) for n in range(1, 7)]
    assert all(block.dtype == np.float64 for block in blocks.blocks.values())
    assert blocks.mat is blocks.mat  # assembled once, then cached
    assert abs(blocks.mat - b).max() == 0
    assert weighted_norm_sq(blocks, w) == pytest.approx(weighted_norm_sq(b, w), rel=1e-14)
    a = random_operator(rng, basis)
    assert weighted_norm_sq(sector_blocks(basis, a).mat - a, w) == 0
    assert weighted_norm_sq(sector_blocks(basis, a), w) == pytest.approx(
        weighted_norm_sq(a, w), rel=1e-13)


SPLIT_BASES = {"product": (3, 2, None, None), "total_cap": (4, 2, 3, None),
               "fixed_n": (4, 2, None, 3)}


@pytest.mark.parametrize("kind", sorted(SPLIT_BASES))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_block_op_from_matrix_matches_dense_slices(rng, kind, dtype):
    # every block that sector_entries and scatter_block make equals the dense
    # slice of its sector pair, bit for bit; a pair appears exactly when it
    # holds a stored entry (a stored zero too)
    sites, cap, total_cap, number = SPLIT_BASES[kind]
    basis = FockBasis(sites, cap, total_cap=total_cap, number=number)
    sectors, dim = basis.sectors, basis.dim

    def values(size):
        out = rng.normal(size=size)
        return out + 1j * rng.normal(size=size) if dtype == np.complex128 else out

    nonzero = np.flatnonzero(rng.random(dim * dim) < 0.2)
    rows, cols = np.divmod(nonzero, dim)
    keep = basis.totals[rows] != basis.totals[cols] + 1   # leave pairs (n + 1, n) empty
    rows, cols = rows[keep], cols[keep]
    top = len(sectors) - 1    # a stored zero alone in (top, top - 1); fixed N has one pair
    zero_at = (sectors[top][0], sectors[top - (number is None)][-1])
    rows, cols = np.append(rows, zero_at[0]), np.append(cols, zero_at[1])
    data = values(rows.size)
    data[-1] = 0
    random_mat = sp.csr_matrix((data, (rows, cols)), shape=(dim, dim))
    dup = sp.csr_matrix((values(3), [0, 0, 1], [0, 2, 2] + [3] * (dim - 2)), shape=(dim, dim))
    assert not dup.has_canonical_format
    zero_only = sp.csr_matrix((np.zeros(1, dtype), ([dim - 1], [dim - 1])), shape=(dim, dim))
    cases = [(random_mat, {tuple(int(basis.totals[i]) for i in zero_at)}),
             (dup, set()), (zero_only, {(int(basis.totals[-1]),) * 2}),
             (sp.csr_matrix((dim, dim), dtype=dtype), set())]
    for mat, zero_pairs in cases:
        full = mat.toarray()
        want = {(a, b): full[np.ix_(sectors[a], sectors[b])]
                for a in range(len(sectors)) for b in range(len(sectors))}
        want = {pair: block for pair, block in want.items()
                if np.any(block) or pair in zero_pairs}
        got = sector_blocks(basis, mat).blocks
        assert list(got) == sorted(want)
        for pair, block in got.items():
            assert block.dtype == dtype and np.array_equal(block, want[pair])


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_scatter_block_matches_add_at_bit_for_bit(rng, dtype):
    # canonical entries (written once) and repeated or unsorted ones (summed
    # in stored order) against np.add.at into zeros, byte for byte: a stored
    # -0.0 reads +0.0 there, and a pair holding only a stored zero is a block
    basis = FockBasis(4, 2)
    sectors = basis.sectors
    pair = (3, 2)
    shape = (sectors[3].size, sectors[2].size)

    def values(size):
        out = rng.normal(size=size)
        return out + 1j * rng.normal(size=size) if dtype == np.complex128 else out

    flat = np.sort(rng.choice(shape[0] * shape[1], size=40, replace=False))
    rows, cols = np.divmod(flat, shape[1])
    data = values(rows.size)
    data[:3] = -0.0
    repeat = np.r_[np.arange(rows.size), [5, 5, 5, 9, 0]]
    shuffled = rng.permutation(rows.size)
    cases = [(rows, cols, data), (rows[repeat], cols[repeat], values(repeat.size)),
             (rows[shuffled], cols[shuffled], data[shuffled]),
             (rows[:1], cols[:1], np.zeros(1, dtype))]
    for entries in cases:
        want = np.zeros(shape, dtype)
        np.add.at(want, entries[:2], entries[2])
        got = scatter_block(basis, pair, entries)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # over a used buffer, and widened to complex as a complex sum forms it
        want = np.zeros(shape, np.complex128)
        np.add.at(want, entries[:2], entries[2])
        out = np.full(shape, np.nan, np.complex128)
        assert scatter_block(basis, pair, entries, out=out) is out
        assert out.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        scatter_block(basis, pair, cases[0], out=np.empty(shape[::-1]).T)
    # and the entries sector_entries groups from a matrix with a duplicate
    dim = basis.dim
    mat = sp.csr_matrix((values(3), [0, 0, 1], [0, 2, 2] + [3] * (dim - 2)), shape=(dim, dim))
    for key, entries in sector_entries(mat, basis).items():
        want = np.zeros((sectors[key[0]].size, sectors[key[1]].size), dtype)
        np.add.at(want, entries[:2], entries[2])
        assert scatter_block(basis, key, entries).tobytes() == want.tobytes()


def test_sector_keys_hold_totals_past_255():
    # 300 bosons: the totals are narrow, a key N_row * sectors + N_col is not
    basis = FockBasis(2, 255, number=300)
    assert basis.totals.max() == 300
    mat = sp.identity(basis.dim, format="csr")
    [(pair, (rows, cols, data))] = sector_entries(mat, basis).items()
    assert pair == (300, 300)
    assert np.array_equal(rows, np.arange(basis.dim)) and np.array_equal(rows, cols)


def test_f_beta_projected_leq_plus_identity_part(rng):
    # projected functional of a random operator stays finite and nonnegative
    basis = FockBasis(2, 6)
    w = MuWeights(1.1, basis)
    for _ in range(10):
        a = random_operator(rng, basis)
        for site in (0, 1):
            val = f_beta_expectation(a, site, 2, w, projected=True)
            assert val >= 0
            # agrees with the dense evaluation
            direct = dense_f_beta(basis, w, a.toarray(), site, 2)
            assert val == pytest.approx(direct, rel=1e-9, abs=1e-9)


# -- commutators ---------------------------------------------------------------

def test_commutator_disjoint_supports_zero():
    basis = FockBasis(3, 3)
    w = MuWeights(1.0, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bdag2 = MonomialOp.from_dicts(eta={2: 1}).to_matrix(basis)
    assert commutator_weighted_norm(b0, bdag2, w) == 0


def test_commutator_canonical_pair():
    basis, w = single_site(cap=40)
    b = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    bdag = MonomialOp.from_dicts(eta={0: 1}).to_matrix(basis)
    ident = sp.identity(basis.dim, format="csr")
    val = commutator_weighted_norm(b, bdag, w)
    assert val == pytest.approx(weighted_inner(ident, ident, w).real, abs=1e-10)


def test_commutator_triangle_oracle(rng):
    basis = FockBasis(2, 5)
    w = MuWeights(0.8, basis)
    for _ in range(20):
        a = random_operator(rng, basis)
        b = random_operator(rng, basis)
        comm = commutator_weighted_norm(a, b, w)
        ab = weighted_norm_sq(a @ b, w)
        ba = weighted_norm_sq(b @ a, w)
        assert comm <= 2 * ab + 2 * ba + 1e-9 * (ab + ba)


# -- generator anti-hermiticity -------------------------------------------------

def test_liouvillian_anti_hermitian(rng):
    basis = FockBasis(3, 4, total_cap=4)  # closed sector: cap = total cap
    model = random_model_spec(rng, graph=build_path(3))
    h = build_hamiltonian(model, basis, 0.0)
    w = MuWeights(1.0, basis)
    for _ in range(15):
        a = random_operator(rng, basis)
        b = random_operator(rng, basis)
        na = math.sqrt(weighted_norm_sq(a, w))
        nb = math.sqrt(weighted_norm_sq(b, w))
        lhs = weighted_inner(a, apply_liouvillian(h, b), w)
        rhs = -np.conj(weighted_inner(b, apply_liouvillian(h, a), w))
        assert abs(lhs - rhs) / (na * nb) <= 1e-10


# -- monomial commutator bound ---------------------------------------------------

def test_monomial_bound_disjoint_zero_lhs(rng):
    basis = FockBasis(3, 4)
    w = MuWeights(1.0, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    probe = MonomialOp.from_dicts(eta={2: 1})
    lhs, rhs = monomial_commutator_bound(b0, probe, w)
    assert lhs == 0 and rhs >= 0


def test_monomial_bound_beta_gamma():
    probe = MonomialOp.from_dicts(eta={0: 2, 1: 1}, zeta={1: 1})
    assert probe.beta == 4
    assert probe.gamma == 2
    assert probe.support == {0, 1}


def test_monomial_bound_random(rng):
    basis = FockBasis(2, 5)
    w = MuWeights(0.9, basis)
    probes = [MonomialOp.from_dicts(eta={0: 1}),
              MonomialOp.from_dicts(zeta={1: 1}),
              MonomialOp.from_dicts(eta={0: 1}, zeta={1: 1}),
              MonomialOp.from_dicts(eta={1: 2})]
    for _ in range(40):
        o = random_operator(rng, basis, max_occ=3)  # headroom keeps products exact
        probe = probes[int(rng.integers(len(probes)))]
        lhs, rhs = monomial_commutator_bound(o, probe, w)
        assert lhs <= rhs * (1 + 1e-10)


def test_monomial_bound_evolved_operator(rng):
    # the inequality holds for Heisenberg-evolved operators across a time grid
    from bosonlc.dynamics import HeisenbergScanEngine
    model = bose_hubbard(build_path(4), 1.0, 1.0)
    basis = FockBasis(4, 4)
    w = MuWeights(1.0, basis)
    b0 = MonomialOp.from_dicts(zeta={0: 1}).to_matrix(basis)
    engine = HeisenbergScanEngine(model, basis, b0)
    probe = MonomialOp.from_dicts(eta={3: 1})
    for t in (0.0, 0.05, 0.2, 0.5):
        bt = engine.evolved_operator(t)
        lhs, rhs = monomial_commutator_bound(bt.mat, probe, w)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12
