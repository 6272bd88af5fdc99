"""Weighted operator inner products, commutator norms, and growth functionals.

Operators over a :class:`~bosonlc.fock.FockBasis` are scipy sparse matrices
or :class:`BlockOp` values; the basis comes with the grand-canonical weights
``w_m = prod_v (1 - e^-mu) e^(-mu n_v)`` (:class:`MuWeights`), which are
applied inside the inner product

    (A|B) = sum_{m,n} conj(A_mn) B_mn sqrt(w_m w_n),

which is the trace form tr(sqrt(rho) A^dag sqrt(rho) B) written over the
occupation basis.  The projected growth functional removes each site's
identity component; on a capped basis the single-site identity vector is
renormalized to unit length, so that removal is an exact orthogonal
projection, converging to the uncapped one with the documented geometric
tail.

Every Hamiltonian of the model class conserves the total boson number, so
evolved operators are stored as a :class:`BlockOp`: dense blocks between
total-number sectors, scattered from the entries ``sector_entries`` groups by
sector pair in one sort.  All states of a sector share one weight, so the
weighted norm and the growth functionals run block by block.

The projected functional requires a basis without a total cap (product
structure across sites); inner products work on any basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bounds import probe_prefactor
from .fock import FockBasis, counts_by_total

MU_FLOOR = 1e-15  # below about 1.1e-16, e^-mu rounds to 1 and 1/(1 - e^-mu) fails
_CHUNK_BYTES = 512 << 10    # scratch of one chunked step over a dense block


class MuWeights:
    """Chemical-potential weights over a basis, with square roots precomputed."""

    def __init__(self, mu: float, basis: FockBasis):
        if not mu > 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)
        self.basis = basis
        self.q = math.exp(-mu)
        self.prefactor = (-math.expm1(-mu)) ** basis.num_sites
        self.w = self.prefactor * self.q ** basis.totals.astype(np.float64)
        self.sqrt_w = np.sqrt(self.w)
        # per-site partition of a capped site; 1 - q^(cap+1)
        self.site_partition = -math.expm1(-mu * (basis.per_site_cap + 1))

    def total_weight(self) -> float:
        """Sum of state weights; 1 minus the truncation tail."""
        return float(self.w.sum())

    def tail_estimate(self) -> float:
        """Documented heuristic for weight lost to the caps: L (1-q) q^cap."""
        return self.basis.num_sites * -math.expm1(-self.mu) * self.q ** self.basis.per_site_cap

    def pair_weight(self, n_row: int, n_col: int) -> float:
        """sqrt(w_m w_n), shared by every state pair of sectors (n_row, n_col)."""
        return self.prefactor * self.q ** ((n_row + n_col) / 2.0)

    def require_over_basis(self, *ops: sp.spmatrix | BlockOp) -> None:
        """Raise unless each operator is over this basis: a matrix square over
        it, or a BlockOp over a basis of the same sites, caps and number."""
        def spec(basis: FockBasis) -> tuple:
            return basis.num_sites, basis.per_site_cap, basis.total_cap, basis.number
        for op in ops:
            if isinstance(op, BlockOp) and spec(op.basis) != spec(self.basis):
                raise ValueError(f"blocks over sites, caps and number {spec(op.basis)} are "
                                 f"not over the basis {spec(self.basis)} of the weights")
            if not isinstance(op, BlockOp) and op.shape != (self.basis.dim, self.basis.dim):
                raise ValueError(f"operator shape {op.shape} is not over "
                                 f"the {self.basis.dim}-state basis of the weights")

    def require_product_basis(self):
        if self.basis.total_cap is not None or self.basis.number is not None:
            raise ValueError("the projected functional needs a product basis: "
                             "no total cap, no fixed N")


def sector_entries(mat: sp.spmatrix, basis: FockBasis) -> dict[tuple[int, int], tuple]:
    """Stored entries of a matrix, grouped by the total-number sectors they join.

    ``out[(n_row, n_col)] = (rows, cols, data)`` in sector-local indices
    (positions in ``basis.sectors``); pairs come in increasing order, each
    pair's entries in stored order (row-major for a canonical CSR matrix).
    Only sector pairs holding a stored entry appear.  One sort groups every
    entry; no matrix is built per pair.
    """
    if mat.shape != (basis.dim, basis.dim):
        raise ValueError(f"operator shape {mat.shape} is not over the {basis.dim}-state basis")
    coo = mat.tocoo()
    sectors = basis.sectors
    local = np.empty(basis.dim, dtype=np.int64)
    for ix in sectors:
        local[ix] = np.arange(ix.size)
    # in int64: a product of the narrow totals would wrap
    keys = basis.totals[coo.row].astype(np.int64) * len(sectors) + basis.totals[coo.col]
    order = np.argsort(keys, kind="stable")
    uniq, starts = np.unique(keys[order], return_index=True)
    return {divmod(int(key), len(sectors)): (local[coo.row[sel]], local[coo.col[sel]],
                                             coo.data[sel])
            for key, sel in zip(uniq, np.split(order, starts[1:]))}


def scatter_block(basis: FockBasis, pair: tuple[int, int], entries: tuple,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The dense block of one sector pair from its ``sector_entries``, in a
    new array or written over ``out`` (C-contiguous, of the block's shape).

    Equal, bit for bit, to ``np.add.at`` of the entries into zeros of the
    output's dtype: duplicates summed in stored order, and a stored zero still
    makes its block.  The entries of a canonical matrix come in strictly
    increasing row-major order, and then each is written once.
    """
    rows, cols, data = entries
    shape = (basis.sectors[pair[0]].size, basis.sectors[pair[1]].size)
    if out is None:
        block = np.zeros(shape, data.dtype)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"output must be a C-contiguous {shape} array")
    else:
        block = out
        block.fill(0)
    flat = rows * block.shape[1] + cols
    if np.all(flat[1:] > flat[:-1]):
        block.reshape(-1)[flat] += data     # 0 + x, as np.add.at forms it
    else:
        np.add.at(block, (rows, cols), data)
    return block


class BlockOp:
    """An operator stored as dense blocks between total-number sectors.

    ``blocks[(n_row, n_col)]`` holds the entries between the rows of sector
    n_row and the columns of sector n_col (``basis.sectors``); absent pairs
    are zero.  Blocks split from a real operator are real.
    ``mat`` assembles the global sparse matrix on first access and caches it.
    """

    def __init__(self, basis: FockBasis, blocks: dict[tuple[int, int], np.ndarray]):
        self.basis = basis
        self.blocks = blocks
        self._mat: sp.csr_matrix | None = None

    @property
    def mat(self) -> sp.csr_matrix:
        if self._mat is None:
            sectors = self.basis.sectors
            rows, cols, data = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
            for (n_row, n_col), block in self.blocks.items():
                ix_r, ix_c = sectors[n_row], sectors[n_col]
                rows.append(np.repeat(ix_r, ix_c.size))
                cols.append(np.tile(ix_c, ix_r.size))
                data.append(block.ravel())
            self._mat = sp.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=(self.basis.dim, self.basis.dim)).tocsr()
        return self._mat


def _sq_sum(block: np.ndarray) -> float:
    """Sum of |entries|^2 of a dense block (C or Fortran order)."""
    flat = block.ravel(order="K")
    return float(np.vdot(flat, flat).real)


@dataclass(frozen=True)
class MonomialOp:
    """Normal-ordered ladder monomial prod_x (b+_x)^eta_x (b_x)^zeta_x."""

    eta: tuple[tuple[int, int], ...] = ()
    zeta: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dicts(cls, eta: dict[int, int] | None = None,
                   zeta: dict[int, int] | None = None) -> "MonomialOp":
        e = tuple(sorted((eta or {}).items()))
        z = tuple(sorted((zeta or {}).items()))
        return cls(e, z)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.eta) | frozenset(s for s, _ in self.zeta)

    @property
    def beta(self) -> int:
        """Total ladder degree, sum of all exponents."""
        return sum(p for _, p in self.eta) + sum(p for _, p in self.zeta)

    @property
    def gamma(self) -> int:
        """Net particle number raised by the monomial."""
        return sum(p for _, p in self.eta) - sum(p for _, p in self.zeta)

    def adjoint(self) -> "MonomialOp":
        """The Hermitian conjugate prod_x (b+_x)^zeta_x (b_x)^eta_x."""
        return MonomialOp(self.zeta, self.eta)

    def translate(self, offset: int) -> "MonomialOp":
        return MonomialOp(tuple((s + offset, p) for s, p in self.eta),
                          tuple((s + offset, p) for s, p in self.zeta))

    def to_matrix(self, basis: FockBasis) -> sp.csr_matrix:
        """Matrix over ``basis``, built by one vectorized lookup.

        Annihilations act first, then creations (normal order; sites
        commute), and each column's amplitude is the running product of the
        sqrt ladder factors in that order, so it equals the product of the
        ladder matrices bit for bit.  Targets outside the basis are dropped:
        above a cap, or off the sector of a fixed-N basis, where density
        monomials stay exact and N-changing ones give zero.
        """
        for site in sorted(self.support):
            if not (0 <= site < basis.num_sites):
                raise ValueError(f"site {site} out of range")
        occ = {site: basis.states[:, site].astype(np.int64) for site in self.support}
        amp = np.ones(basis.dim)
        alive = np.ones(basis.dim, dtype=bool)
        for site, p in self.zeta:
            for _ in range(p):
                alive &= occ[site] >= 1
                occ[site] = np.maximum(occ[site] - 1, 0)
                amp = np.sqrt(occ[site] + 1.0) * amp
        for site, p in self.eta:
            for _ in range(p):
                amp = np.sqrt(occ[site] + 1.0) * amp
                occ[site] = occ[site] + 1
        # creations only raise occupations: checking the caps at the end suffices
        for site in self.support:
            alive &= occ[site] <= basis.per_site_cap
        cols = np.flatnonzero(alive)
        eta, zeta = dict(self.eta), dict(self.zeta)
        moved = [site for site in self.support if eta.get(site, 0) != zeta.get(site, 0)]
        rows = cols
        if moved:
            target = basis.states[cols]
            for site in moved:
                target[:, site] = occ[site][cols]
            rows = basis.lookup_rows(target)
        hit = rows >= 0
        return sp.csr_matrix((amp[cols[hit]], (rows[hit], cols[hit])),
                             shape=(basis.dim, basis.dim))


def site_monomial_norm_sq(op: MonomialOp, mu: float, num_sites: int, per_site_cap: int,
                          total_cap: int | None) -> float:
    """(A|A) for a one-site monomial on the capped grand-canonical basis.

    Closed form, no enumeration: the site marginal sum_k |a_k|^2 q^((k+k')/2)
    for the transition k -> k' of the monomial, times the weighted count
    sum_S ways(S) q^S of the other L-1 sites, whose total S must leave both
    states under the total cap.  Every site gives the same value.
    """
    if len(op.support) != 1:
        raise ValueError("closed-form norm needs a single-site monomial")
    e, z = sum(p for _, p in op.eta), sum(p for _, p in op.zeta)
    q = math.exp(-mu)
    most = (num_sites - 1) * per_site_cap
    ways = counts_by_total(num_sites - 1, per_site_cap, most if total_cap is None else total_cap)
    rest = np.cumsum([w * q ** s for s, w in enumerate(ways)])  # rest[M]: S <= M
    total = 0.0
    for k in range(z, per_site_cap + 1):
        k_new = k - z + e
        room = most if total_cap is None else total_cap - max(k, k_new)
        if k_new > per_site_cap or room < 0:
            continue
        amp_sq = 1.0
        for j in range(z):
            amp_sq *= k - j
        for j in range(e):
            amp_sq *= k - z + j + 1
        total += amp_sq * q ** ((k + k_new) / 2.0) * rest[min(room, most)]
    return (-math.expm1(-mu)) ** num_sites * total


# ---------------------------------------------------------------------------
# inner products


def weighted_inner(a: sp.spmatrix, b: sp.spmatrix, w: MuWeights) -> complex:
    """(A|B) = sum conj(A_mn) B_mn sqrt(w_m w_n); conjugate symmetric, positive."""
    w.require_over_basis(a, b)
    prod = sp.coo_matrix(a.conjugate().multiply(b))
    if prod.nnz == 0:
        return 0.0 + 0.0j
    return complex(np.sum(prod.data * w.sqrt_w[prod.row] * w.sqrt_w[prod.col]))


def weighted_norm_sq(a: sp.spmatrix | BlockOp, w: MuWeights) -> float:
    """(A|A); block by block for a BlockOp, over stored entries otherwise."""
    w.require_over_basis(a)
    if isinstance(a, BlockOp):
        return float(sum(w.pair_weight(n_row, n_col) * _sq_sum(block)
                         for (n_row, n_col), block in a.blocks.items()))
    coo = sp.coo_matrix(a)
    if coo.nnz == 0:
        return 0.0
    return float(np.sum(np.abs(coo.data) ** 2 * w.sqrt_w[coo.row] * w.sqrt_w[coo.col]))


def thermal_expectation(a: sp.spmatrix, b: sp.spmatrix, w: MuWeights) -> complex:
    """tr(rho A^dag B) over the capped basis (column-weighted entry sum)."""
    w.require_over_basis(a, b)
    prod = sp.coo_matrix(a.conjugate().multiply(b))
    if prod.nnz == 0:
        return 0.0 + 0.0j
    return complex(np.sum(prod.data * w.w[prod.col]))


def check_thermal_relation(a: sp.spmatrix, b: sp.spmatrix, k: int, k_prime: int,
                           w: MuWeights) -> float:
    """Residual of (A|B) = delta_{k',0} e^{mu k/2} tr(rho A^dag B).

    Assumes [A, N] = (k + k') A and [B, N] = k B structurally; the identity
    then holds term by term even on a capped basis, so the residual is float
    noise plus truncation tail.
    """
    lhs = weighted_inner(a, b, w)
    rhs = 0.0 + 0.0j
    if k_prime == 0:
        rhs = math.exp(w.mu * k / 2.0) * thermal_expectation(a, b, w)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# growth functionals


def f_beta_expectation(a: sp.spmatrix | BlockOp, site: int, beta: int, w: MuWeights,
                       projected: bool = True) -> float:
    """Quadratic form weighting site occupancies, (A| F_site^beta |A).

    Each matrix element picks up (max(n_site, n'_site) + beta)^beta.  With
    ``projected`` the sitewise identity component is removed first (the
    functional used in the growth bounds); without it the raw form is
    returned (the seed values entering the envelope initial conditions).

    Runs block by block over sector pairs, each with one weight; a sparse
    matrix's blocks are scattered from its ``sector_entries`` one at a time,
    each freed before the next is made.
    The raw term contracts the occupancy-resolved block sums R^T |D|^2 C (R, C
    one-hot in the site occupancy of the row and column states) with the
    (max(k, k') + beta)^beta table; |D|^2 and its sums are formed one row
    panel of the block at a time, in a _CHUNK_BYTES buffer
    (``_occupancy_sums``).  The identity component averages, over k, the
    sub-blocks whose rows and columns hold k bosons at the site;
    such a sub-block of sector pair (n_r, n_c) maps row for row onto the
    site-empty states of (n_r - k, n_c - k), so the average lives on those
    site-empty pairs.  Each site-empty pair's sums are finished, and dropped,
    once the last block that feeds them is read; their terms are summed in the
    order the pairs were first fed.
    """
    if beta < 1:
        raise ValueError("beta must be a positive integer")
    if projected:
        w.require_product_basis()
    basis, q = w.basis, w.q
    w.require_over_basis(a)
    pairs = a.blocks if isinstance(a, BlockOp) else sector_entries(a, basis)
    blocks = (a.blocks.items() if isinstance(a, BlockOp) else
              ((pair, scatter_block(basis, pair, entries)) for pair, entries in pairs.items()))
    levels = np.arange(basis.per_site_cap + 1)
    f = (levels + float(beta)) ** beta
    table = np.maximum.outer(f, f)
    occ = [basis.states[ix, site] for ix in basis.sectors]
    one_hot = [(o[:, None] == levels).astype(np.float64) for o in occ]
    at_level = [[np.flatnonzero(o == k) for k in levels] for o in occ]
    geom = -math.expm1(-w.mu) / w.site_partition * q ** levels
    # the levels k at which each block feeds site-empty pair (n_row - k, n_col - k),
    # and the last block feeding each such pair, the pairs in first-fed order
    feeds = {(n_row, n_col): [k for k in range(min(n_row, n_col, basis.per_site_cap) + 1)
                              if at_level[n_row][k].size and at_level[n_col][k].size]
             for n_row, n_col in pairs} if projected else {}
    last = {(n_row - k, n_col - k): (n_row, n_col) for (n_row, n_col), ks in feeds.items()
            for k in ks}
    # cross term (A|F|avg) and (avg|F|avg) per site-empty pair; the site sum
    # of the latter is geometric with the F weights
    terms: dict[tuple[int, int], tuple[float, float]] = {}
    s_f = float(np.sum(q ** levels * f))
    raw = 0.0
    avg: dict[tuple[int, int], np.ndarray] = {}      # identity component
    f_sum: dict[tuple[int, int], np.ndarray] = {}    # sum_k q^k f_k sub-block
    for (n_row, n_col), block in blocks:
        counts = _occupancy_sums(block, one_hot[n_row], one_hot[n_col])
        raw += w.pair_weight(n_row, n_col) * float(np.sum(counts * table))
        for k in feeds.get((n_row, n_col), ()):
            sub = block[np.ix_(at_level[n_row][k], at_level[n_col][k])]
            key = (n_row - k, n_col - k)
            _accumulate(avg, key, geom[k] * sub)
            _accumulate(f_sum, key, np.multiply(q ** k * f[k], sub, out=sub))
            if last[key] == (n_row, n_col):
                t_block, weight = avg.pop(key), w.pair_weight(*key)
                terms[key] = (weight * float(np.vdot(f_sum.pop(key).ravel(),
                                                     t_block.ravel()).real),
                              weight * s_f * _sq_sum(t_block))
        del block   # a scattered block is freed before the next is made
    cross = avg_sq = 0.0
    for key in last:    # none unless projected
        cross += terms[key][0]
        avg_sq += terms[key][1]
    return max(raw - 2.0 * cross + avg_sq, 0.0)


def _occupancy_sums(block: np.ndarray, rows_hot: np.ndarray, cols_hot: np.ndarray) -> np.ndarray:
    """R^T |D|^2 C of one block D, |D|^2 formed a row panel at a time in one
    _CHUNK_BYTES buffer (or one row), its halves the squares of D's real and
    imaginary parts."""
    height = max(1, _CHUNK_BYTES // (16 * max(1, block.shape[1])))
    panel = np.empty((1 + np.iscomplexobj(block), min(height, block.shape[0]), block.shape[1]))
    sums = np.zeros((rows_hot.shape[1], cols_hot.shape[1]))
    for lo in range(0, block.shape[0], height):
        part = block[lo:lo + height]
        sq = np.square(part.real, out=panel[0, :len(part)])
        if np.iscomplexobj(part):
            sq += np.square(part.imag, out=panel[1, :len(part)])
        sums += rows_hot[lo:lo + height].T @ sq @ cols_hot
    return sums


def _accumulate(sums: dict, key: tuple[int, int], term: np.ndarray) -> None:
    """sums[key] += term, in place unless term's dtype is wider; a new key
    takes term's own array."""
    old = sums.get(key)
    sums[key] = term if old is None else np.add(
        old, term, out=old if old.dtype == np.result_type(old, term) else None)


def identity_f_beta(mu: float, beta: int, cap: int) -> float:
    """(I|F^beta|I) for a single site truncated at ``cap`` bosons."""
    q = math.exp(-mu)
    js = np.arange(cap + 1, dtype=np.float64)
    z = -math.expm1(-mu * (cap + 1))
    return float(np.sum(-math.expm1(-mu) * q ** js * (js + beta) ** beta) / z)


def commutator_weighted_norm(a: sp.spmatrix, b: sp.spmatrix, w: MuWeights) -> float:
    """([A,B] | [A,B]) under the weighted inner product."""
    w.require_over_basis(a, b)
    return weighted_norm_sq(a @ b - b @ a, w)


def apply_liouvillian(h: sp.spmatrix, a: sp.spmatrix) -> sp.spmatrix:
    """i [H, A], the generator of Heisenberg evolution."""
    return 1j * (h @ a - a @ h)


def monomial_commutator_bound(o: sp.spmatrix, probe: MonomialOp,
                              w: MuWeights) -> tuple[float, float]:
    """Both sides of the monomial-probe commutator inequality.

    lhs is the exact weighted norm of [O, probe]; rhs is

        8 beta^beta cosh(mu gamma / 2) (1 + beta (beta/(1-q))^beta)
            * sum_{x in supp(probe)} (O| projected F_x^beta |O)

    Tests assert lhs <= rhs.
    """
    beta, gamma = probe.beta, probe.gamma
    lhs = commutator_weighted_norm(o, probe.to_matrix(w.basis), w)
    seed_sum = sum(f_beta_expectation(o, x, beta, w, projected=True) for x in probe.support)
    return lhs, probe_prefactor(w.mu, beta, gamma) * seed_sum
