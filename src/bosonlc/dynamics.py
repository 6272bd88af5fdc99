"""Exact time evolution on truncated Fock spaces, light-cone scans, and ground states.

One propagator serves states and operators: a Chebyshev expansion on a
Gershgorin interval, truncated where an a-priori bound on the dropped terms
meets the tolerance (``_chebyshev_expv``).  ``evolve_state`` expands
e^{-iHt}; ``HeisenbergScanEngine`` expands e^{it ad_H} on each (row sector,
column sector) block of an operator, which ad_H = [H, .] maps to itself as
every Hamiltonian of the model class conserves total boson number.

Light-cone scan cells come from the nested-commutator series of
``commutator_series``, exact to a stated remainder in the cone; the
Heisenberg engine evolves A for the large times.  One Gram kernel,
``_add_commutator_grams``, computes every cell, a dense cell being the series
of one order.  Both routes read one engine: A's sector entries, split once,
and H's sector blocks, built once by ``_split_hamiltonian``, with their
transposes, CSC views of the same arrays.  Both apply ad_H to them by one
step, ``_ad``.  No step allocates: products go into buffers each expansion
owns, by scipy's own routine for ``h @ x``.

Operators enter as monomials or scipy sparse matrices, and evolved ones
are :class:`~bosonlc.opspace.BlockOp` values: one dense block per sector
pair, never a global sparse matrix unless a caller reads ``.mat``.
``build_hamiltonian`` returns a real H when every hopping amplitude is real;
on a real state or block the recursion then runs in float64.

A state evolves under piecewise-constant hopping schedules by one expansion
per constant segment, so no expansion straddles a schedule discontinuity.
The Heisenberg engine, and with it the scan, takes time-independent models
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from . import bounds as bounds_mod
from .fock import DEFAULT_STATE_BUDGET, CapacityError, FockBasis, ModelSpec, build_hamiltonian
from .lattice import Graph, fatten, set_distance
from .opspace import (BlockOp, MonomialOp, MuWeights, f_beta_expectation, scatter_block,
                      sector_entries, weighted_norm_sq)


class EvolutionError(RuntimeError):
    """A ground-state eigensolve failed or missed its residual target."""


def _segments(model: ModelSpec, t: float) -> list[tuple[float, float]]:
    """Constant-Hamiltonian spans (a, b) from 0 to t, in the order they run:
    backwards, each with b < a, for a negative t."""
    if t == 0.0:
        return []
    lo, hi = min(t, 0.0), max(t, 0.0)
    cuts = [lo] + [b for b in model.breakpoints() if lo < b < hi] + [hi]
    spans = list(zip(cuts[:-1], cuts[1:]))
    return spans if t > 0 else [(b, a) for a, b in reversed(spans)]


def _with_data(m: sp.csr_matrix | sp.csc_matrix,
               data: np.ndarray) -> sp.csr_matrix | sp.csc_matrix:
    """A matrix of m's format and sparsity pattern with new values: the index
    arrays are shared, not copied (on the certify sector they are 7 MB)."""
    return type(m)((data, m.indices, m.indptr), shape=m.shape)


def _gershgorin(h: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Gershgorin interval ends (lower, upper) of a Hermitian matrix:
    the spectrum of any principal block lies in the union over its rows.
    The sums of |H| over rows are the reduceat of scipy's ``sum(axis=1)``,
    taken _GERSHGORIN_ROWS rows at a time: no |H| array of H's size is made."""
    diag = h.diagonal().real
    radius = np.zeros(h.shape[0])      # a row with no stored entry sums to 0
    for first in range(0, h.shape[0], _GERSHGORIN_ROWS):
        ptr = h.indptr[first:first + _GERSHGORIN_ROWS + 1]
        rows = np.flatnonzero(np.diff(ptr))
        if rows.size:
            radius[first + rows] = np.add.reduceat(np.abs(h.data[ptr[0]:ptr[-1]]),
                                                   ptr[rows] - ptr[0])
    radius -= np.abs(diag)
    return diag - radius, diag + radius


def _chebyshev_terms(x: float, tol: float) -> tuple[int, float]:
    """Smallest order K >= 1 with 2 sum_{k>K} (x/2)^k / k! <= tol, and that bound.

    (x/2)^k / k! bounds |J_k(x)|.  For K >= x/2 - 1 the terms past K shrink by
    at least the ratio x / (2K + 4): their sum is at most the first / (1 - ratio).
    As K starts there, an x with x/2 - 1 >= CHEBYSHEV_MAX_TERMS is refused
    before any term is counted (CapacityError).
    """
    if not x / 2.0 - 1.0 < CHEBYSHEV_MAX_TERMS:     # an infinite x too
        raise CapacityError(x / 2.0 - 1.0, CHEBYSHEV_MAX_TERMS,
                            hint=f"time times spectral half-width a|t| = {x:.3g}; "
                                 "evolve to a shorter time",
                            needs="a Chebyshev expansion would sum at least {:.3g} terms")
    order = max(1, math.floor(x / 2.0) - 1)
    while True:
        log_bound = (math.log(2.0 / (1.0 - x / (2.0 * order + 4.0)))
                     + (order + 1) * math.log(x / 2.0) - math.lgamma(order + 2))
        if log_bound <= math.log(tol):
            return order, math.exp(log_bound)
        order += 1


def _split_hamiltonian(h: sp.csr_matrix, basis: FockBasis):
    """H's diagonal sector blocks {n: csr block}, one for every sector (empty
    ones too), the Gershgorin ends lo[n], hi[n] of every nonempty sector, and
    the transposed blocks: CSC views that share each block's arrays."""
    blocks = {n: h[ix][:, ix] for n, ix in enumerate(basis.sectors)}
    lower, upper = _gershgorin(h)
    lo = {n: float(np.min(lower[ix])) for n, ix in enumerate(basis.sectors) if ix.size}
    hi = {n: float(np.max(upper[ix])) for n, ix in enumerate(basis.sectors) if ix.size}
    return blocks, lo, hi, {n: blk.T for n, blk in blocks.items()}


def _matmul_into(h: sp.csr_matrix | sp.csc_matrix, x: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """h @ x into a C-contiguous ``out``, by the routine scipy's ``h @ x`` runs
    for h's format (CSR or CSC)."""
    if not out.flags.c_contiguous:      # out.ravel() would be a copy, the product lost
        raise ValueError("output buffer must be C-contiguous")
    out.fill(0)     # scipy's result starts zeroed too
    vecs = () if x.ndim == 1 or x.shape[1] == 1 else (x.shape[1],)
    getattr(_sparsetools, f"{h.format}_matvec" + ("s" if vecs else ""))(
        *h.shape, *vecs, h.indptr, h.indices, h.data, x.ravel(), out.ravel())
    return out


def _ad(h_row: sp.csr_matrix, h_col_t: sp.csc_matrix, m: np.ndarray, out: np.ndarray,
        mt: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """ad_H(M) = H_row M - M H_col on one sector pair, written into ``out``.

    ``h_col_t`` is the transpose of the column sector's block of H (a CSC
    view of the block's arrays, or CSR), so M H = (H^T M^T)^T runs as a
    sparse-times-dense product.  M^T and H^T M^T go to the caller's buffers
    ``mt`` and ``tmp``, so a step allocates nothing.
    """
    np.copyto(mt, m.T)
    return np.subtract(_matmul_into(h_row, m, out), _matmul_into(h_col_t, mt, tmp).T, out=out)


def _chebyshev_expv(h: sp.csr_matrix, v: np.ndarray, t: float, tol: float = 1e-14,
                    interval: tuple[float, float] | None = None,
                    h_col_t: sp.csc_matrix | None = None) -> tuple[np.ndarray, int, float]:
    """e^{-iLt} v: (result, terms summed, error bound).

    L is the Hermitian CSR matrix H, or with ``h_col_t`` the map ad_H of ``_ad``
    on one sector pair (v a dense block), self-adjoint in the Frobenius inner
    product.  Its spectrum lies in ``interval`` = [c - a, c + a], by default
    H's Gershgorin interval; ad_H must be given its own, as H's does not
    enclose ad_H's spectrum (the expansion would diverge under a tiny bound).
    With X = (L - c) / a and x = a|t|, e^{-iLt} = e^{-ict} (J_0(x) + 2 sum_k
    (-i sgn t)^k J_k(x) T_k(X)) (Tal-Ezer & Kosloff 1984).  As ||T_k(X)|| <= 1,
    the orders past K add at most 2 sum_{k>K} |J_k(x)| ||v||, which
    ``_chebyshev_terms`` bounds by tol ||v||.  With L and v real, every
    T_k(X) v is real: the recursion runs in float64, the even orders summed
    into the result's real part, the odd ones (with imaginary coefficients)
    into its imaginary part.  No step allocates.

    The state path consumes H (its values are scaled by 2/a in place; the
    caller builds a fresh H for each expansion) and never writes v.  The
    block path scales copies of the H blocks the engine reuses, and consumes
    v: the recursion starts in v itself when v is writable, C-contiguous and
    of the recursion's dtype, as the engine's freshly scattered blocks are.
    """
    from scipy.special import jv   # not at module top: it adds ~55 ms to every import

    if h_col_t is not None and interval is None:
        raise ValueError("ad_H needs the sector pair's interval")
    mats = [h] if h_col_t is None else [h, h_col_t]
    real = (not any(np.iscomplexobj(m.data) and np.any(m.data.imag) for m in mats)
            and not (np.iscomplexobj(v) and np.any(v.imag)))
    dtype = np.float64 if real else np.complex128
    prev = (v if h_col_t is not None and v.dtype == dtype and v.flags.c_contiguous
            and v.flags.writeable else np.array(np.real(v) if real else v, dtype, order="C"))
    norm = float(np.linalg.norm(prev))
    if t == 0.0 or norm == 0.0:
        return np.array(v, dtype=np.complex128), 0, 0.0
    if interval is None:
        lower, upper = _gershgorin(h)
        interval = float(lower.min()), float(upper.max())
        del lower, upper
    lo, hi = interval
    c, a = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0    # any a > 0 encloses L = c
    order, tail = _chebyshev_terms(a * abs(t), tol)
    coef = 2.0 * jv(np.arange(order + 1), a * abs(t))
    coef[0] /= 2.0
    coef[2::4] *= -1.0      # (-i)^k = (-1)^(k/2) on even k, -i (-1)^((k-1)/2) on odd k
    coef[3::4] *= -1.0
    if real and t > 0:      # the odd orders' factor -i sgn t, as their imaginary part
        coef[1::2] *= -1.0
    if h_col_t is None and h.dtype == dtype:
        h2 = [_with_data(h, np.multiply(h.data, 2.0 / a, out=h.data))]   # h consumed
    else:
        h2 = [_with_data(m, (m.data.real if real else m.data.astype(np.complex128, copy=False))
                         * (2.0 / a)) for m in mats]
    shift = 2.0 * c / a     # 2X = 2L / a - shift
    cur, spare = np.empty((2,) + prev.shape, prev.dtype)     # T_k rotates through prev, cur, spare
    if h_col_t is None:
        def two_x(x, out, scaled=np.empty(prev.shape, prev.dtype)):
            _matmul_into(h2[0], x, out)
            out -= np.multiply(shift, x, out=scaled)
            return out
    else:   # ad_{H - s} = ad_H - s: the shift sits on the row block's diagonal
        row = h2[0] - shift * sp.identity(h2[0].shape[0], format="csr")
        mt, tmp = np.empty((2,) + prev.shape[::-1], prev.dtype)
        two_x = partial(_ad, row, h2[1], mt=mt, tmp=tmp)
    np.multiply(0.5, two_x(prev, cur), out=cur)     # T_0 v and T_1 v = X v
    out = np.empty(prev.shape, np.complex128)
    acc = [out.real, out.imag] if real else [out, np.empty(prev.shape, np.complex128)]
    np.multiply(coef[0], prev, out=acc[0])
    np.multiply(coef[1], cur, out=acc[1])
    for k in range(2, order + 1):     # T_k = 2X T_{k-1} - T_{k-2}
        nxt = two_x(cur, spare)
        nxt -= prev
        prev, cur, spare = cur, nxt, prev
        acc[k % 2] += np.multiply(coef[k], cur, out=spare)
    if not real:
        np.add(out, np.multiply(acc[1], -1j if t > 0 else 1j, out=acc[1]), out=out)
    return np.multiply(np.exp(-1j * c * t), out, out=out), order + 1, tail * norm


def evolve_state(psi: np.ndarray, model: ModelSpec, basis: FockBasis,
                 t: float) -> tuple[np.ndarray, int, float]:
    """Propagate a state vector from 0 to t under the (piecewise) Hamiltonian.

    Returns (state, Chebyshev terms summed, error bound).  Each constant
    segment takes one expansion; the bound on ||state - exact state|| is the
    sum of the segments' truncation bounds, as every propagator is unitary.
    """
    out, terms, bound = psi, 0, 0.0    # the first expansion copies psi
    for a, b in _segments(model, t):
        h = build_hamiltonian(model, basis, (min(a, b) + max(a, b)) / 2.0)
        out, k, err = _chebyshev_expv(h, out, b - a)
        terms += k
        bound += err
    return (np.array(psi, np.complex128) if out is psi else out), terms, bound


def single_particle_propagator(model: ModelSpec, t: float) -> np.ndarray:
    """G(t) with [b_x(t), b+_y] = G_xy(t) for the pure hopping part.

    G(t) is the time-ordered exponential of -i * h(s) composed across
    schedule segments, with h the Hermitian hopping matrix; the unitary
    free-field oracle against which many-body results are checked.
    """
    from scipy.linalg import eigh   # not at module top, as in ground_state

    n = model.graph.num_vertices
    g = np.eye(n, dtype=np.complex128)
    for a, b in _segments(model, t):
        h = model.hopping_matrix((a + b) / 2.0)
        evals, evecs = eigh(h)
        phase = np.exp(-1j * evals * (b - a))
        g = (evecs * phase) @ evecs.conj().T @ g
    return g


# ---------------------------------------------------------------------------
# Heisenberg evolution, sector by sector


class HeisenbergScanEngine:
    """Heisenberg evolution O(t) = e^{iHt} O e^{-iHt} of one operator under a
    time-independent H, block by block.

    Number conservation makes H block diagonal over total-occupation sectors,
    so each sector-pair block B of O evolves alone: B <- e^{iH_row t} B
    e^{-iH_col t} = e^{it ad_H} B.  All entries of a block carry the same
    mu-weight, so there ad_H is self-adjoint in the Frobenius inner product,
    with its spectrum in [lo_row - hi_col, hi_row - lo_col] (Gershgorin ends
    per sector): a block takes one Chebyshev expansion, as a state does.

    ``op`` is a monomial or a scipy sparse matrix over ``basis``, kept as
    its ``entries`` by sector pair (``sector_entries``); H's sector blocks
    (``hamiltonian``) are built once, when a nonzero time first needs them.
    Both scan routes read the two from here.  A dense block is scattered
    only when its expansion starts, so at most one dense block of the
    operator at t = 0 exists beside the evolved ones.  A model with schedule
    breakpoints is refused (ValueError), and so is an operator with a dense
    block of more entries than the default state budget (CapacityError).
    """

    def __init__(self, model: ModelSpec, basis: FockBasis, op: MonomialOp | sp.spmatrix):
        if not model.is_time_independent:
            raise ValueError("the Heisenberg engine expects a time-independent model")
        self.model = model
        self.basis = basis
        mat = op.to_matrix(basis) if isinstance(op, MonomialOp) else op
        self.entries = sector_entries(mat, basis)
        sizes = [ix.size for ix in basis.sectors]
        block = max((sizes[a] * sizes[b] for a, b in self.entries), default=0)
        if block > DEFAULT_STATE_BUDGET:
            raise CapacityError(block, DEFAULT_STATE_BUDGET, hint=f"{basis.dim}-state basis",
                                needs="a dense sector block of the operator would hold {} entries")
        self._h: tuple | None = None

    def hamiltonian(self) -> tuple:
        """``_split_hamiltonian`` of H, built on first call."""
        if self._h is None:
            self._h = _split_hamiltonian(build_hamiltonian(self.model, self.basis), self.basis)
        return self._h

    def evolved_block(self, pair: tuple[int, int], t: float) -> np.ndarray:
        """The dense block of O(t) on one sector pair (n_row, n_col): e^{it
        ad_H} of O's block by one expansion, none at t = 0.  H is at hand
        before the block is scattered."""
        if t == 0.0:
            return scatter_block(self.basis, pair, self.entries[pair])
        h, lo, hi, h_t = self.hamiltonian()
        n_row, n_col = pair
        return _chebyshev_expv(
            h[n_row], scatter_block(self.basis, pair, self.entries[pair]), -t,
            interval=(lo[n_row] - hi[n_col], hi[n_row] - lo[n_col]), h_col_t=h_t[n_col])[0]

    def evolved_blocks(self, t: float) -> dict[tuple[int, int], np.ndarray]:
        """Sector blocks {(n_row, n_col): dense block} of O(t), one after another."""
        return {pair: self.evolved_block(pair, t) for pair in self.entries}

    def evolved_operator(self, t: float) -> BlockOp:
        return BlockOp(self.basis, self.evolved_blocks(t))


# ---------------------------------------------------------------------------
# scan cells from the nested-commutator series


SERIES_RTOL = 1e-10
SERIES_MAX_ORDER = 14
CHEBYSHEV_MAX_TERMS = 100_000     # far above any expansion of a shipped config
_CHUNK_BYTES = 512 << 10
_GERSHGORIN_ROWS = 1 << 12


def _nested_commutators(h_row: sp.csr_matrix, h_col_t: sp.csc_matrix, scatter, dtype,
                        lowest: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """M_k = ad_H^k(A) on one sector pair for k = lowest..order, and every
    ||M_k||_F^2 for k = 0..order.

    ``h_col_t`` is the transpose of the column sector's block of H.  M_k
    goes into its slot, or below ``lowest`` into two spare buffers in turn.
    ``scatter(out)`` writes A's block into ``out``: order 0's slot, or else
    the last slot, which only the final step writes (for order >= 2; a
    buffer of its own otherwise).  So A's block, read by step 0 alone,
    takes no memory beside the sequence.
    """
    shape = (h_row.shape[0], h_col_t.shape[1])
    seq = np.empty((order + 1 - lowest,) + shape, dtype=dtype)
    norms_sq = np.empty(order + 1)
    below = [np.empty(shape, dtype) for _ in range(min(lowest - 1, 2))]
    mt, tmp = np.empty((2,) + shape[::-1], dtype)
    m = scatter(seq[0] if lowest == 0 else seq[-1] if order > 1 else np.empty(shape, dtype))
    for k in range(order + 1):
        norms_sq[k] = np.vdot(m, m).real
        if k < order:
            out = seq[k + 1 - lowest] if k + 1 >= lowest else below[k % 2]
            m = _ad(h_row, h_col_t, m, out, mt, tmp)
    return seq, norms_sq


def _add_target_gram(gram: np.ndarray, skip: int, weight: float, shape: tuple[int, int],
                     right: np.ndarray | None, mb, left: np.ndarray | None, bm) -> None:
    """Add weight * (D_k | D_l) of one target sector block to the Gram matrix.

    D_k = M_k B - B M'_k with ``right``/``left`` the stored sequences of M
    and M' (first ``skip`` orders unused) and ``mb``/``bm`` the probe's
    index maps (rows, cols, amps) for the two products; either may be None.
    A map is a partial injection, column cols[i] to row rows[i] with amplitude
    amps[i], in row-major order: the order in which rows are summed here.
    D is never scattered into a zeroed block: its Gram is summed over two
    row sets, each read from the sequences by gathers only.

    * Rows outside the image U of B (the rows ``bm`` writes) hold M B
      alone, so the rows of M with each column x scaled by B's amplitude on
      x (zero off B's domain) carry the same nonzero entries: a row gather
      and a broadcast product.
    * A row u in U holds a M[u, x(c)] - a' M'[u', c] on the columns c that
      M B writes and -a' M'[u', c] on the others.  One gather reads
      M[u, x(c)] for every c (column 0 where M B does not write c) and
      scales it by a (zero there), so every entry is formed as in D itself.

    Temporaries hold at most _CHUNK_BYTES (or one row).
    """
    if mb is None and bm is None:
        return
    seq = right if mb is not None else left
    terms = seq.shape[0] - skip
    n_rows, n_cols = shape
    block = gram[-terms:, -terms:]

    def add(piece: np.ndarray) -> None:
        flat = piece.reshape(terms, -1)
        # a real product of flat with its own transpose runs as syrk
        block[...] += weight * ((flat.conj() if flat.dtype.kind == "c" else flat) @ flat.T)

    def chunks(rows: np.ndarray, width: int):
        step = max(1, _CHUNK_BYTES // (seq.itemsize * terms * width))
        return (rows[lo:lo + step] for lo in range(0, rows.size, step))

    if mb is not None:
        m_rows, q, amps = mb
        width = right.shape[2]
        scale = np.zeros(width, dtype=amps.dtype)
        scale[m_rows] = amps
        outside = np.ones(n_rows, dtype=bool)
        if bm is not None:
            outside[bm[0]] = False
        for rows in chunks(np.flatnonzero(outside), width):
            piece = np.take(right[skip:], rows, axis=1)
            piece *= scale
            add(piece)
    if bm is None:
        return
    u, src, amps_b = bm
    if mb is not None:
        # column c of M B reads column x(c) of M, scaled by B's amplitude
        x_of = np.zeros(n_cols, dtype=np.intp)
        x_of[q] = m_rows
        col_scale = np.zeros(n_cols, dtype=amps.dtype)
        col_scale[q] = amps
        flat_right = right[skip:].reshape(terms, -1)
    for sel in chunks(np.arange(u.size), n_cols):
        piece = np.take(left[skip:], src[sel], axis=1)
        piece *= amps_b[sel][:, None]
        if mb is not None:
            mb_part = np.take(flat_right, (u[sel][:, None] * width + x_of).ravel(), axis=1)
            mb_part = mb_part.reshape(piece.shape)
            mb_part *= col_scale
            piece = np.subtract(mb_part, piece, out=mb_part)
        add(piece)


def _add_commutator_grams(grams: dict[int, np.ndarray], skips: dict[int, int], maps: dict,
                          pairs, sequence, gamma_b: int, w: MuWeights) -> None:
    """Add (D_k | D_l)_w of D_k = [M_k, B_r] to ``grams[r]`` for every r in ``maps``.

    ``sequence(pair)`` gives M_k, k stacked, on each sector pair (n_row,
    n_col) of ``pairs``; every pair must change the number by one gamma_a
    (ValueError otherwise), and B_r changes it by gamma_b.  grams[r] skips
    its first ``skips[r]`` orders.  The target block with column j takes M_k
    on column j + gamma_b (then B) and on column j (after B), through the
    probe's index maps.  Sequences are made in increasing column order and
    dropped once no later target needs them, so at most |gamma_b| + 1 are live.
    """
    gammas = {n_row - n_col for n_row, n_col in pairs}
    if len(gammas) > 1:
        raise ValueError("scan needs an operator of definite number change")
    gamma_a = next(iter(gammas), 0)
    columns = {n_col for _, n_col in pairs}
    sizes = [ix.size for ix in w.basis.sectors]
    live: dict[int, np.ndarray] = {}

    def get(n_col: int) -> np.ndarray | None:
        if n_col in columns and n_col not in live:
            live[n_col] = sequence((n_col + gamma_a, n_col))
        return live.get(n_col)

    for j in sorted({n - gamma_b for n in columns} | set(columns)):
        i = j + gamma_a + gamma_b
        right = get(j + gamma_b)      # M on (i, j + gamma_b), then B
        left = get(j)                 # B after M on (j + gamma_a, j)
        if 0 <= i < len(sizes) and 0 <= j < len(sizes):
            for r, probe_map in maps.items():
                mb = probe_map.get((j + gamma_b, j)) if right is not None else None
                bm = probe_map.get((i, j + gamma_a)) if left is not None else None
                _add_target_gram(grams[r], skips[r], w.pair_weight(i, j),
                                 (sizes[i], sizes[j]), right, mb, left, bm)
        right = left = None
        for n_col in [n for n in live if n < j + 1 + min(0, gamma_b)]:
            del live[n_col]


@dataclass
class CommutatorSeries:
    """Gram matrices of D_k = [ad_H^k(A), B_r] for every probe placement.

    ``grams[r][k, l] = (D_k | D_l)_w`` for k, l = 0..order, zero where k or
    l is below ``first[r]`` (there D_k vanishes because the support of
    ad_H^k(A) does not reach the probe).  ``m_norms[k] = ||ad_H^k(A)||_w``.
    ``spread`` bounds the spectral spread of H between any two sectors A
    connects (Gershgorin), hence ||ad_H||; ``probe_factor`` is
    2 cosh(mu gamma_B / 4) ||B||, which bounds ||[M, B]||_w / ||M||_w.
    """

    order: int
    grams: dict[int, np.ndarray]
    first: dict[int, int]
    m_norms: np.ndarray
    spread: float
    probe_factor: float

    def cell(self, r: int, t: float) -> tuple[float, float, int] | None:
        """(value, remainder bound, order) of ||[A(t), B_r]||_w^2, or None.

        The value is the quadratic form c^dag G c with c_k = (it)^k / k!,
        truncated at the smallest order K whose remainder bound is at most
        SERIES_RTOL times the value.  The remainder bounds the dropped
        terms, ||sum_{k>K} c_k D_k||_w <= probe_factor ||M_K||_w
        sum_{j>=1} |t|^(K+j) spread^j / (K+j)!, entering the squared norm as
        2 sqrt(value) e + e^2, plus the rounding of the quadratic form.
        None when no order up to ``order`` meets the tolerance.
        """
        gram, k0 = self.grams[r], self.first[r]
        if t == 0.0:
            return float(gram[0, 0].real), 0.0, k0
        x = abs(t) * self.spread
        if x >= self.order + 2:     # no order converges; the powers of t might overflow
            return None
        ks = np.arange(self.order + 1)
        coef = np.array([(1j * t) ** k / math.factorial(k) for k in ks])
        for order in range(k0, self.order + 1):
            if x >= order + 2:
                continue
            c = coef[: order + 1]
            g = gram[: order + 1, : order + 1]
            value = float(np.real(np.vdot(c, g @ c)))
            tail = (self.probe_factor * self.m_norms[order] * abs(t) ** order
                    * x / math.factorial(order + 1) / (1.0 - x / (order + 2)))
            scale = float(np.sum(np.abs(c) * np.sqrt(np.abs(np.diag(g))))) ** 2
            remainder = (2.0 * math.sqrt(max(value, 0.0)) * tail + tail ** 2
                         + 4.0 * (order + 1) * np.finfo(float).eps * scale)
            if remainder <= SERIES_RTOL * value:
                return value, remainder, order
        return None


def commutator_series(engine: HeisenbergScanEngine, maps: dict[int, dict],
                      first: dict[int, int], w: MuWeights) -> CommutatorSeries:
    """Stream the nested commutators of the engine's A through every probe's Gram matrix.

    H's sector blocks and A's entries come from ``engine``, ``maps[r]`` is
    ``sector_entries`` of the probe B_r at separation r.  Orders run up to
    SERIES_MAX_ORDER: enough for every in-cone cell of the 6- and 7-site
    cap-3 chains (the deepest, r = 6 at t = 0.01, needs 14).  A pair's M_k =
    ad_H^k(A) is made when ``_add_commutator_grams`` first needs it; A's
    dense block on that pair is scattered then, into a slot of the sequence.
    """
    order = SERIES_MAX_ORDER
    h_blocks, lo, hi, h_t = engine.hamiltonian()
    # B's number change, read off its sector pairs (any value if B = 0 here)
    gamma_b = next((n_row - n_col for m in maps.values() for n_row, n_col in m), 0)
    dtype = np.result_type(h_blocks[0].data, *(data for _, _, data in engine.entries.values()))

    # spectral spread between the sectors A connects; Gershgorin per sector
    spread = max((max(hi[a] - lo[b], hi[b] - lo[a]) for a, b in engine.entries), default=0.0)
    # a one-site monomial repeats no row or column: its norm is max |amps|
    b_norm = max((float(np.max(np.abs(amps))) for m in maps.values()
                  for _, _, amps in m.values() if amps.size), default=0.0)
    probe_factor = 2.0 * math.cosh(w.mu * gamma_b / 4.0) * b_norm

    grams = {r: np.zeros((order + 1, order + 1), dtype=dtype) for r in maps}
    m_norms_sq = np.zeros(order + 1)
    lowest = min(min(first.values()), order)

    def sequence(pair: tuple[int, int]) -> np.ndarray:
        seq, norms_sq = _nested_commutators(
            h_blocks[pair[0]], h_t[pair[1]],
            partial(scatter_block, engine.basis, pair, engine.entries[pair]), dtype, lowest, order)
        m_norms_sq[:] += w.pair_weight(*pair) * norms_sq
        return seq

    _add_commutator_grams(grams, {r: first[r] - lowest for r in maps},
                          {r: m for r, m in maps.items() if first[r] <= order},
                          engine.entries, sequence, gamma_b, w)
    return CommutatorSeries(order=order, grams=grams, first=first,
                            m_norms=np.sqrt(m_norms_sq), spread=spread,
                            probe_factor=probe_factor)


# ---------------------------------------------------------------------------
# scan results


@dataclass
class ScanCell:
    r: int
    t: float
    exact: float
    bound_ensemble: float
    bound_matrix_element: float
    ratio: float
    tail_estimate: float


@dataclass
class ScanResult:
    """Grid of exact commutator norms with the analytic bounds attached."""

    cells: list[ScanCell]
    metadata: dict

    def violations(self) -> list[ScanCell]:
        """Cells inside the cone where exact + tail exceeds the bound.

        At t = 0 disjoint supports commute structurally, so the tail does not
        apply there: the cell is sound iff the exact value is zero.
        """
        bad = []
        for cell in self.cells:
            if not math.isfinite(cell.bound_ensemble):
                continue
            if cell.t == 0.0:
                if cell.exact > 0.0:
                    bad.append(cell)
                continue
            if cell.exact + cell.tail_estimate > cell.bound_ensemble:
                bad.append(cell)
        return bad

    def to_csv(self) -> str:
        lines = ["r,t,exact,bound_ensemble,bound_matrix_element,ratio,tail_estimate"]
        for c in self.cells:
            lines.append(",".join([
                str(c.r), repr(c.t), repr(c.exact), repr(c.bound_ensemble),
                repr(c.bound_matrix_element), repr(c.ratio), repr(c.tail_estimate)]))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "cells": [vars(c) for c in self.cells],
        }


def probe_sites(graph: Graph, support) -> dict[int, int]:
    """Smallest-id vertex at each finite graph distance r from ``support``."""
    sites: dict[int, int] = {}
    for v in graph.vertices():
        d = set_distance(graph, v, support)
        if math.isfinite(d):
            sites.setdefault(int(d), v)
    return sites


def lightcone_scan(model: ModelSpec, op: MonomialOp, probe: MonomialOp, mu: float,
                   cells: list[tuple[int, float]], basis: FockBasis,
                   eps: float = 0.1, c1: float = 1.0) -> ScanResult:
    """Exact weighted commutator norms against the analytic cone bounds.

    ``op`` is evolved; ``probe`` is a single-site monomial template placed,
    for each separation r of the (r, t) ``cells``, on the smallest-id vertex
    at distance r from the support of ``op``.  ``eps`` and ``c1`` enter the
    worst-case matrix-element bound.

    One ``HeisenbergScanEngine`` gives both routes A's sector entries and
    H's sector blocks; A's blocks at t = 0 give the seeds and the norm.  A
    cell comes from the nested-commutator series (``commutator_series``)
    when some order up to SERIES_MAX_ORDER meets its remainder tolerance.
    The others (large t) take the dense route: the Gram kernel reads A(t) as
    one-order sequences, the engine evolving each block when the kernel
    first needs it, so the cell is its single Gram entry.
    """
    w = MuWeights(mu, basis)
    graph = model.graph
    support = sorted(op.support)
    if not support:
        raise ValueError("traveling operator must have nonempty support")
    if len(probe.support) != 1:
        raise ValueError("probe template must be a single-site monomial")

    beta, gamma = probe.beta, probe.gamma
    k = graph.max_degree
    ell = model.interaction_range
    velocity = bounds_mod.velocity_bound(mu, k, ell, beta)
    engine = HeisenbergScanEngine(model, basis, op)    # builds H on first need
    dense = BlockOp(basis, engine.evolved_blocks(0.0))   # A's blocks: the seeds, the norm
    seeds = {x: f_beta_expectation(dense, x, beta, w, projected=False) for x in support}
    norm_sq = weighted_norm_sq(dense, w)
    del dense
    r_ell = len(fatten(graph, support, ell))
    params = bounds_mod.BoundParams(
        mu=mu, K=k, ell=ell, beta=beta, gamma=gamma,
        seeds=tuple(seeds.values()), size_R=len(support), size_R_ell=r_ell,
        norm_sq=norm_sq)
    tail = w.tail_estimate()

    probe_anchor = next(iter(probe.support))
    sites = probe_sites(graph, support)
    missing = sorted({r for r, _ in cells} - set(sites))
    if missing:
        raise ValueError(f"no vertex at distance {missing[0]} from {support}")
    maps = {r: sector_entries(probe.translate(sites[r] - probe_anchor).to_matrix(basis), basis)
            for r in dict.fromkeys(r for r, _ in cells)}

    # ad_H grows a support by one hop or one interaction range per order; on
    # a product basis an operator commutes with a probe its support misses,
    # so the series at distance r starts at order ceil(r / max(1, ell))
    product = basis.total_cap is None and basis.number is None
    first = {r: math.ceil(r / max(1, ell)) if product else 0 for r in maps}

    def make_cell(r: int, t: float, exact: float) -> ScanCell:
        bound = bounds_mod.ensemble_commutator_bound(r, t, params)
        bound_me = bounds_mod.matrix_element_bound(
            r, t, m=basis.per_site_cap, ell=ell, eps=eps, c1=c1)
        ratio = exact / bound if math.isfinite(bound) and bound > 0 else 0.0
        return ScanCell(r=r, t=t, exact=exact, bound_ensemble=bound,
                        bound_matrix_element=bound_me, ratio=ratio, tail_estimate=tail)

    out_cells: dict[tuple[int, float], ScanCell] = {}
    orders, worst = [], 0.0
    series = commutator_series(engine, maps, first, w) if maps else None
    for r, t in sorted(set(cells)):
        got = series.cell(r, t)
        if got is None:
            continue
        value, remainder, order = got
        orders.append(order)
        if value > 0.0:
            worst = max(worst, float(remainder / value))
        out_cells[(r, t)] = make_cell(r, t, value)

    # the remaining cells: dense route, grouped by time so evolution is shared
    by_time: dict[float, list[int]] = {}
    for r, t in sorted(set(cells) - set(out_cells)):
        by_time.setdefault(t, []).append(r)
    times = sorted(by_time)
    for t in times:
        grams = {r: np.zeros((1, 1), np.complex128) for r in by_time[t]}
        _add_commutator_grams(grams, dict.fromkeys(grams, 0), {r: maps[r] for r in grams},
                              engine.entries, lambda pair: engine.evolved_block(pair, t)[None],
                              gamma, w)
        for r in by_time[t]:
            out_cells[(r, t)] = make_cell(r, t, float(grams[r][0, 0].real))
    ordered = [out_cells[(r, t)] for (r, t) in sorted(out_cells)]
    meta = {
        "mu": mu, "per_site_cap": basis.per_site_cap, "total_cap": basis.total_cap,
        "interaction_range": ell, "max_degree": k, "beta": beta, "gamma": gamma,
        "velocity": velocity, "seeds": seeds, "norm_sq": norm_sq,
        "size_R": len(support), "size_R_ell": r_ell,
        "truncation_weight": 1.0 - w.total_weight(),
        "series": {"max_order": SERIES_MAX_ORDER, "order": max(orders, default=0),
                   "max_remainder_ratio": worst,
                   "dense_cells": [[r, t] for t in times for r in by_time[t]]},
    }
    return ScanResult(cells=ordered, metadata=meta)


# ---------------------------------------------------------------------------
# ground states, correlations


@dataclass
class GroundState:
    energy: float
    vector: np.ndarray
    gap: float


def ground_state(h: sp.spmatrix) -> GroundState:
    """Two lowest eigenpairs of a Hermitian sparse matrix; gap = E1 - E0.

    A real matrix (``build_hamiltonian`` with every hopping amplitude real)
    goes to the real-symmetric solvers, faster than the complex ones: 2.0 ->
    1.2 s for ARPACK on the 73,789-state sector of a 12-site chain, 2 cores.
    The ARPACK start vector is uniform, so when a symmetry of H fixes it (the
    reflection of a uniform chain), the excited states odd under that
    symmetry are missed and the gap is the gap to the lowest even state.
    The solvers are imported here, on first use: at module top every
    subcommand would load scipy.linalg and scipy.sparse.linalg, and only
    ground states need them.
    """
    from scipy.linalg import eigh
    from scipy.sparse.linalg import eigsh

    dim = h.shape[0]
    if dim <= 600:
        evals, evecs = eigh(h.toarray())
        e0 = float(evals[0])
        gap = float(evals[1] - evals[0]) if dim > 1 else math.inf
        vec = evecs[:, 0]
    else:
        v0 = np.ones(dim) / math.sqrt(dim)
        try:
            evals, evecs = eigsh(h, k=2, which="SA", v0=v0, tol=1e-12,
                                 maxiter=max(5000, 40 * dim))
        except Exception as exc:  # ARPACK can fail on trivial spectra
            if dim > 4000:
                raise EvolutionError(f"sparse eigensolver failed: {exc}") from exc
            evals, evecs = eigh(h.toarray())
        order = np.argsort(evals)
        e0 = float(evals[order[0]])
        gap = float(evals[order[1]] - evals[order[0]])
        vec = evecs[:, order[0]]
    vec = vec / np.linalg.norm(vec)
    residual = np.linalg.norm(h @ vec - e0 * vec)
    if residual > 1e-8 * max(1.0, abs(e0)):
        raise EvolutionError(f"eigensolver residual {residual:.2e} too large")
    return GroundState(energy=e0, vector=vec.astype(np.complex128), gap=gap)


def connected_correlation(psi0: np.ndarray, a: sp.spmatrix, b: sp.spmatrix) -> complex:
    """<psi|A B|psi> - <psi|A|psi><psi|B|psi>."""
    b_psi = b @ psi0
    exp_ab = complex(np.vdot(psi0, a @ b_psi))
    exp_a = complex(np.vdot(psi0, a @ psi0))
    exp_b = complex(np.vdot(psi0, b_psi))
    return exp_ab - exp_a * exp_b
