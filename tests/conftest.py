"""Shared independent oracles for the test suite.

These deliberately re-derive quantities with different algorithms than the
library (plain-dict BFS, recursive enumeration, explicit series sums) so a
bug cannot cancel between implementation and check.
"""

import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp

from bosonlc.opspace import BlockOp, scatter_block, sector_entries


def bfs_distances(adjacency, source):
    """Dict-based BFS; independent of the library's implementation."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def recursive_state_count(num_sites, cap, total_cap):
    """Slow recursive count of capped occupation vectors."""
    if num_sites == 0:
        return 1
    total = 0
    for n in range(cap + 1):
        if total_cap is not None and n > total_cap:
            break
        remaining = None if total_cap is None else total_cap - n
        total += recursive_state_count(num_sites - 1, cap, remaining)
    return total


def geometric_series_inner_bb(mu, cap=None, nmax=400):
    """(b|b) from the ladder coefficients: sum n (1-q) q^((2n-1)/2)."""
    q = math.exp(-mu)
    top = nmax if cap is None else cap
    return sum(n * (1 - q) * q ** ((2 * n - 1) / 2.0) for n in range(1, top + 1))


def series_identity_f(mu, beta, nmax=600):
    """(I|F^beta|I) = (1-q) sum (n+beta)^beta q^n, summed explicitly."""
    q = math.exp(-mu)
    return sum((1 - q) * (n + beta) ** beta * q ** n for n in range(nmax))


def series_b_f(mu, nmax=400):
    """(b|F^1|b) = sum n (n+1) (1-q) q^((2n-1)/2)."""
    q = math.exp(-mu)
    return sum(n * (n + 1) * (1 - q) * q ** ((2 * n - 1) / 2.0) for n in range(1, nmax))


def traced_peak(run):
    """(result, peak bytes traced by tracemalloc while ``run()`` ran)."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


def sector_blocks(basis, mat):
    """A sparse matrix as a BlockOp: each sector pair holding a stored entry,
    scattered from its ``sector_entries``."""
    return BlockOp(basis, {pair: scatter_block(basis, pair, entries)
                           for pair, entries in sector_entries(mat, basis).items()})


def random_operator(rng, basis, max_occ=None):
    """Dense random operator, optionally supported on low occupancies only."""
    mat = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    if max_occ is not None:
        keep = basis.states.max(axis=1) <= max_occ
        mat[~keep, :] = 0
        mat[:, ~keep] = 0
    return sp.csr_matrix(mat)


def dense_f_beta(basis, w, mat, site, beta, projected=True):
    """(A|F_site^beta|A) from a dense matrix, summed over every entry.

    With ``projected`` the site's identity component is removed first: for
    states m, n with equal occupancy at the site it is the average over k,
    with weights (1-q) q^k / (1 - q^(cap+1)), of A between m and n each with
    k bosons at the site; for other pairs it is zero.  Needs a product basis.
    """
    cap, q = basis.per_site_cap, w.q
    occ = basis.states[:, site].astype(np.int64)
    pa = np.asarray(mat)
    if projected:
        avg = np.zeros(pa.shape, dtype=np.result_type(pa, float))
        for k in range(cap + 1):
            moved = basis.states.copy()
            moved[:, site] = k
            rows = basis.lookup_rows(moved)
            assert np.all(rows >= 0)
            avg += (1 - q) * q ** k / (1 - q ** (cap + 1)) * pa[np.ix_(rows, rows)]
        pa = pa - np.where(occ[:, None] == occ[None, :], avg, 0)
    f_max = (np.maximum.outer(occ, occ) + beta) ** beta
    return float(np.sum(np.abs(pa) ** 2 * np.outer(w.sqrt_w, w.sqrt_w) * f_max))
