import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonlc.fock import (CapacityError, FockBasis, Interaction, ModelSpec,
                          PiecewiseConstant, bose_hubbard, build_hamiltonian,
                          check_number_conservation, count_states, ladder_op,
                          random_model_spec, total_number_op)
from bosonlc.lattice import build_cubic, build_path, build_regular_tree
from conftest import recursive_state_count, traced_peak


# -- enumeration -------------------------------------------------------------

def test_counts_small():
    assert FockBasis(2, 1).dim == 4
    assert FockBasis(3, 2).dim == 27


def test_count_matches_recursive_oracle():
    for sites, cap, total in [(3, 2, None), (4, 3, 5), (2, 5, 3), (5, 1, None), (4, 2, 8)]:
        expected = recursive_state_count(sites, cap, total)
        assert count_states(sites, cap, total) == expected
        assert FockBasis(sites, cap, total).dim == expected


def test_total_cap_binomial():
    # cap >= total_cap: number of vectors with sum <= N is C(N+L, L)
    n, length = 3, 4
    basis = FockBasis(length, per_site_cap=n, total_cap=n)
    assert basis.dim == math.comb(n + length, length)


def test_enumeration_lexicographic_unique():
    basis = FockBasis(3, 2, total_cap=4)
    rows = [tuple(r) for r in basis.states]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert all(sum(r) <= 4 for r in rows)
    assert all(max(r) <= 2 for r in rows)


def test_index_roundtrip():
    basis = FockBasis(4, 3, total_cap=6)
    for i in (0, 5, basis.dim - 1):
        assert basis.index(basis.states[i]) == i
    with pytest.raises(KeyError):
        basis.index([3, 3, 3, 3])  # total 12 > 6


def test_fixed_number_basis_is_sector_of_capped_basis():
    for sites, cap, total in [(5, 2, None), (4, 3, 6), (3, 4, 3), (6, 1, None)]:
        full = FockBasis(sites, cap, total)
        for number in range(sites * cap + 2):
            sector = FockBasis(sites, cap, total, number=number)
            assert np.array_equal(sector.states, full.states[full.totals == number])
            assert sector.dim == count_states(sites, cap, total, number)
            assert np.all(sector.totals == number)
            for i in range(sector.dim):
                assert sector.index(sector.states[i]) == i


def test_totals_take_one_byte_per_state():
    basis = FockBasis(6, 3, number=9)
    assert basis.totals.nbytes == basis.dim
    assert np.array_equal(basis.totals, basis.states.sum(axis=1))


def test_count_states_number_matches_brute_force():
    for sites, cap, total in [(3, 2, None), (4, 3, 5), (2, 5, 3), (5, 1, None)]:
        sums = [sum(v) for v in itertools.product(range(cap + 1), repeat=sites)
                if total is None or sum(v) <= total]
        for number in range(-1, sites * cap + 2):
            assert count_states(sites, cap, total, number) == sums.count(number)


def test_fixed_number_index_misses_raise_key_error():
    basis = FockBasis(4, 2, number=3)
    assert basis.index([1, 0, 2, 0]) == basis.lookup_rows(np.array([[1, 0, 2, 0]]))[0]
    for miss in ([1, 1, 1, 1], [0, 0, 0, 0], [3, 0, 0, 0], [1, 2], [-1, 2, 2, 0]):
        with pytest.raises(KeyError):
            basis.index(miss)
    assert basis.lookup_rows(np.array([[1, 1, 1, 1]]))[0] == -1


@settings(max_examples=120, deadline=None)
@given(sites=st.integers(1, 6), cap=st.integers(1, 4),
       total=st.one_of(st.none(), st.integers(0, 12)),
       number=st.one_of(st.none(), st.integers(0, 12)), data=st.data())
def test_lookup_rows_is_the_basis_rank(sites, cap, total, number, data):
    basis = FockBasis(sites, cap, total, number=number)
    # the rows, independent of the rank table: the capped grid, filtered
    grid = np.array(list(itertools.product(range(cap + 1), repeat=sites)))
    sums = grid.sum(axis=1)
    keep = np.ones(sums.size, dtype=bool)
    if total is not None:
        keep &= sums <= total
    if number is not None:
        keep &= sums == number
    oracle = grid[keep].astype(np.uint8)
    assert basis.states.shape == oracle.shape and basis.states.tobytes() == oracle.tobytes()
    assert np.array_equal(basis.totals, oracle.sum(axis=1))
    assert np.array_equal(basis.lookup_rows(basis.states), np.arange(basis.dim))
    # every vector of the uncapped-total grid, and some with entries out of
    # 0..cap, against a dict of the oracle's rows
    row_of = {s: i for i, s in enumerate(map(tuple, oracle.tolist()))}
    wild = np.array(data.draw(st.lists(st.lists(st.integers(-2, cap + 2), min_size=sites,
                                                max_size=sites), min_size=1, max_size=20)))
    for vecs in (grid, wild):
        expected = [row_of.get(v, -1) for v in map(tuple, vecs.tolist())]
        assert basis.lookup_rows(vecs).tolist() == expected
    # a hop between any two sites, sites in between included, matches the lookup
    for src, dst in itertools.permutations(range(sites), 2):
        rows = np.flatnonzero((basis.states[:, src] >= 1) & (basis.states[:, dst] < cap))
        moved = basis.states[rows].astype(np.int64)
        moved[:, src] -= 1
        moved[:, dst] += 1
        assert np.array_equal(basis.hopped_rows(rows, src, dst), basis.lookup_rows(moved))


def test_capacity_error():
    with pytest.raises(CapacityError) as err:
        FockBasis(10, 20, state_budget=10_000)
    assert err.value.requested == 21 ** 10


@pytest.mark.parametrize("sites, words", [(29, "288230376151711744"), (30, "more than 10^18"),
                                          (8000, "more than 10^4816")])
def test_capacity_error_words_a_huge_count_by_its_power_of_ten(sites, words):
    # 4^8000 has 4,817 digits, past the 4,300 that str() of an int allows:
    # from 2^60 on the message gives the power of ten, the error the count
    with pytest.raises(CapacityError) as err:
        FockBasis(sites, 3)
    assert err.value.requested == 4 ** sites
    assert str(err.value) == (f"basis would hold {words} states, budget is 5000000 "
                              f"({sites} sites, cap 3, total None)")


# -- ladder operators ---------------------------------------------------------

def test_annihilate_vacuum_zero_column():
    basis = FockBasis(1, 4)
    b = ladder_op(basis, 0, "annihilate")
    assert abs(b[:, basis.index([0])]).sum() == 0


def test_create_then_annihilate_below_cap():
    basis = FockBasis(1, 5)
    b = ladder_op(basis, 0, "annihilate")
    bdag = ladder_op(basis, 0, "create")
    bbdag = (b @ bdag).toarray().real
    for n in range(5):  # below the cap
        assert bbdag[basis.index([n]), basis.index([n])] == pytest.approx(n + 1, rel=1e-14)


def test_commutator_identity_below_cap():
    basis = FockBasis(1, 6)
    b = ladder_op(basis, 0, "annihilate")
    bdag = ladder_op(basis, 0, "create")
    comm = (b @ bdag - bdag @ b).toarray().real
    sub = comm[:6, :6]  # states with n < cap
    assert np.allclose(sub, np.eye(6), atol=1e-12)


def test_number_equals_bdag_b():
    basis = FockBasis(2, 4)
    for site in (0, 1):
        n_op = ladder_op(basis, site, "number")
        prod = ladder_op(basis, site, "create") @ ladder_op(basis, site, "annihilate")
        assert np.allclose(prod.toarray(), n_op.toarray(), atol=1e-12)


def test_total_number_trace():
    basis = FockBasis(3, 2, total_cap=3)
    n = total_number_op(basis)
    assert n.diagonal().sum() == pytest.approx(basis.totals.sum())
    assert n[basis.index([0, 0, 0]), basis.index([0, 0, 0])] == 0
    basis2 = FockBasis(2, 1)
    n2 = total_number_op(basis2)
    assert n2[basis2.index([1, 1]), basis2.index([1, 1])] == 2


# -- Hamiltonians -------------------------------------------------------------

def test_two_site_hardcore_hopping():
    # 4x4 with exactly one off-diagonal pair of magnitude 1
    model = bose_hubbard(build_path(2), 1.0, 0.0)
    basis = FockBasis(2, 1)
    h = build_hamiltonian(model, basis).toarray()
    i01 = basis.index([0, 1])
    i10 = basis.index([1, 0])
    expected = np.zeros((4, 4))
    expected[i10, i01] = expected[i01, i10] = 1.0
    assert np.array_equal(h.real, expected)
    assert np.array_equal(h.imag, np.zeros((4, 4)))


def test_bose_hubbard_diagonal():
    model = bose_hubbard(build_path(3), 1.0, 2.5)
    basis = FockBasis(3, 3)
    h = build_hamiltonian(model, basis)
    for i in range(0, basis.dim, 7):
        occ = [int(n) for n in basis.states[i]]
        expected = sum(2.5 * n * (n - 1) for n in occ)
        assert h[i, i].real == pytest.approx(expected, abs=1e-12)


def test_zero_hopping_fully_diagonal():
    model = bose_hubbard(build_path(3), 0.0, 1.0)
    basis = FockBasis(3, 2)
    h = build_hamiltonian(model, basis)
    off = h - sp.diags(h.diagonal())
    assert abs(off).sum() == 0


def test_hermitian_exactly():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model = random_model_spec(rng)
        basis = FockBasis(model.graph.num_vertices, 3)
        h = build_hamiltonian(model, basis, t=0.37)
        assert (h != h.conjugate().transpose()).nnz == 0


def test_number_conservation_random_models():
    rng = np.random.default_rng(11)
    for _ in range(20):
        model = random_model_spec(rng)
        basis = FockBasis(model.graph.num_vertices, 3)
        h = build_hamiltonian(model, basis, t=float(rng.uniform(0, 1)))
        assert check_number_conservation(h, total_number_op(basis))


def test_pair_creation_breaks_conservation():
    basis = FockBasis(2, 2)
    model = bose_hubbard(build_path(2), 1.0, 1.0)
    h = build_hamiltonian(model, basis)
    bad = ladder_op(basis, 0, "create") @ ladder_op(basis, 1, "create")
    assert not check_number_conservation(h + bad + bad.conjugate().transpose(),
                                         total_number_op(basis))


def test_diagonal_conserves():
    basis = FockBasis(2, 2)
    diag = sp.diags(np.arange(basis.dim, dtype=np.complex128)).tocsr()
    assert check_number_conservation(diag, total_number_op(basis))


def test_truncation_drops_raising_transitions():
    # on the capped site, b+ b hopping into the capped state is absent
    model = bose_hubbard(build_path(2), 1.0, 0.0)
    basis = FockBasis(2, 2, total_cap=4)
    h = build_hamiltonian(model, basis)
    # state (2,2) can only hop to (3,1)/(1,3) which exceed the cap: row empty
    i22 = basis.index([2, 2])
    assert abs(h[i22]).sum() == 0


def _coo_hamiltonian(model, basis, t):
    """H(t) assembled as COO triplets with a dict row index, then tocsr."""
    row_of = {s: i for i, s in enumerate(map(tuple, basis.states.tolist()))}
    diag = np.zeros(basis.dim)
    occ_cols = {v: basis.states[:, v] for v in model.graph.vertices()}
    for term in model.interactions:
        diag += term.evaluate(occ_cols)
    idx = np.arange(basis.dim)
    rows, cols, vals = ([idx], [idx], [diag]) if np.any(diag != 0.0) else ([], [], [])
    hops = {edge: complex(sched.at(t)) for edge, sched in model.hopping.items()}
    if not any(j.imag for j in hops.values()):
        hops = {edge: j.real for edge, j in hops.items()}
    dtype = np.result_type(float, *hops.values())
    for (x, y), j in hops.items():
        occ = basis.states.astype(np.int64)
        c = np.flatnonzero((occ[:, y] >= 1) & (occ[:, x] < basis.per_site_cap))
        if j == 0 or c.size == 0:
            continue
        moved = occ[c]
        moved[:, y] -= 1
        moved[:, x] += 1
        r = np.array([row_of[v] for v in map(tuple, moved.tolist())])
        amp = np.sqrt(occ[c, y].astype(np.float64) * (occ[c, x] + 1.0))
        rows += [r, c]
        cols += [c, r]
        vals += [j * amp, np.conj(j) * amp]
    if not rows:
        return sp.csr_matrix((basis.dim, basis.dim), dtype=dtype)
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(basis.dim, basis.dim), dtype=dtype).tocsr()


def _hopping_models():
    rng = np.random.default_rng(29)
    path = build_path(4)
    both = {(0, 1): PiecewiseConstant.constant(0.5), (1, 0): PiecewiseConstant.constant(0.25j),
            (2, 1): PiecewiseConstant((0.5,), (0.3 - 0.4j, 0.7)),
            (2, 3): PiecewiseConstant.constant(0.0)}
    return [
        ("path_real", bose_hubbard(path, 0.8, 1.5), (0.0,)),
        ("path_both_orientations", ModelSpec(graph=path, hopping=both, interactions=(),
                                             interaction_range=0), (0.2, 0.9)),
        ("cubic_complex", bose_hubbard(build_cubic([2, 3]), 0.6 - 0.3j, -0.7), (0.0,)),
        ("cubic_piecewise", random_model_spec(rng, build_cubic([2, 2, 2])), (0.1, 0.9)),
        ("tree_piecewise", random_model_spec(rng, build_regular_tree(2, 2)), (0.1, 0.9)),
        ("tree_no_interaction", bose_hubbard(build_regular_tree(3, 1), 1.0, 0.0), (0.0,)),
    ]


@pytest.mark.parametrize("name,model,times", _hopping_models(),
                         ids=[m[0] for m in _hopping_models()])
@pytest.mark.parametrize("cap,total,number", [(2, None, None), (3, 4, None), (3, None, 4)])
def test_hamiltonian_is_bit_identical_to_coo_assembly(name, model, times, cap, total, number):
    # cubic and tree vertex labels make hops skip sites in basis order
    basis = FockBasis(model.graph.num_vertices, cap, total, number=number)
    for t in times:
        h = build_hamiltonian(model, basis, t)
        ref = _coo_hamiltonian(model, basis, t)
        assert h.dtype == ref.dtype and h.has_sorted_indices
        for got, want in ((h.indptr, ref.indptr), (h.indices, ref.indices), (h.data, ref.data)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_basis_peak_memory():
    # the certify sector, 11 sites, cap 3, N = 11: 154,518 states unranked
    # in place, with no discarded candidate rows
    basis, peak = traced_peak(lambda: FockBasis(11, 3, number=11))
    assert peak <= 8 * basis.states.nbytes


def test_hamiltonian_assembly_peak_memory():
    # 10 sites, cap 3, N = 10: 44,803 states, 476,335 stored entries
    basis = FockBasis(10, 3, number=10)
    model = bose_hubbard(build_path(10), 1.0, 1.0)
    h, peak = traced_peak(lambda: build_hamiltonian(model, basis))
    assert peak <= 1.5 * (h.data.nbytes + h.indices.nbytes + h.indptr.nbytes)


# -- schedules and model validation -------------------------------------------

def test_schedule_lookup():
    sched = PiecewiseConstant((1.0, 2.0), (1.0, 0.5j, 0.25))
    assert sched.at(0.5) == 1.0
    assert sched.at(1.0) == 0.5j
    assert sched.at(1.5) == 0.5j
    assert sched.at(3.0) == 0.25
    assert sched.max_abs() == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant((2.0, 1.0), (1, 2, 3))
    with pytest.raises(ValueError):
        PiecewiseConstant((1.0,), (1,))


def test_model_rejects_large_hopping():
    g = build_path(2)
    with pytest.raises(ValueError):
        ModelSpec(graph=g, hopping={(0, 1): PiecewiseConstant.constant(1.5)},
                  interactions=(), interaction_range=0)


def test_model_rejects_wide_interaction():
    g = build_path(4)
    term = Interaction(support=(0, 3), monomials=((1.0, ((0, 1), (3, 1))),))
    with pytest.raises(ValueError):
        ModelSpec(graph=g, hopping={}, interactions=(term,), interaction_range=1)


def test_interaction_requires_real_coefficients():
    with pytest.raises(ValueError):
        Interaction(support=(0,), monomials=((1j, ((0, 1),)),))


def test_hopping_matrix_hermitian():
    rng = np.random.default_rng(3)
    model = random_model_spec(rng)
    h = model.hopping_matrix(0.3)
    assert np.allclose(h, h.conj().T)


def test_hermiticity_of_schedule_orientation():
    # J stored on (x, y); reverse orientation must use the conjugate
    g = build_path(2)
    j = 0.3 + 0.4j
    model = ModelSpec(graph=g, hopping={(0, 1): PiecewiseConstant.constant(j)},
                      interactions=(), interaction_range=0)
    h = model.hopping_matrix(0.0)
    assert h[0, 1] == j and h[1, 0] == np.conj(j)
