"""Exact time evolution on truncated Fock spaces, light-cone scans, and OTOCs.

Two propagation routes are provided:

* state evolution by one Chebyshev expansion of e^{-iHt} per schedule
  segment, on H's Gershgorin interval, truncated where an a-priori bound on
  the dropped terms meets the tolerance (``evolve_state``);
* Heisenberg evolution by one engine, ``HeisenbergScanEngine``.  Every
  Hamiltonian in the model class conserves total boson number, so U(t) is
  block diagonal over sectors; each block is diagonalized once per schedule
  piece, when a time first needs it, and reused for every later time.

Light-cone scan cells come from a third route, the nested-commutator series
of ``commutator_series``: no eigensolve, exact to a stated remainder in the
cone, with the Heisenberg engine as the fallback for large times.

Evolved operators are :class:`~bosonlc.opspace.BlockOp` values: one dense
block per (row sector, column sector) pair, never a global sparse matrix
unless a caller reads ``.mat``.  ``build_hamiltonian`` returns a real H when
every hopping amplitude is real; its sector blocks then go to the
real-symmetric solver and keep real eigenvectors, and the products of real
eigenvectors with complex blocks run as real matrix products.

Piecewise-constant schedules are handled by composing per-segment
propagators, so no expansion ever straddles a schedule discontinuity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh

from . import bounds as bounds_mod
from .fock import FockBasis, ModelSpec, build_hamiltonian
from .lattice import Graph, fatten, set_distance
from .opspace import (BlockOp, MonomialOp, MuWeights, OperatorMatrix, f_beta_expectation,
                      sector_blocks, weighted_norm_sq)


class EvolutionError(RuntimeError):
    """An eigensolve failed or missed its residual target."""


def _segments(model: ModelSpec, t0: float, t1: float):
    """Constant-Hamiltonian intervals covering [t0, t1] (either direction)."""
    if t1 == t0:
        return
    lo, hi = (t0, t1) if t1 > t0 else (t1, t0)
    cuts = [lo] + [b for b in model.breakpoints() if lo < b < hi] + [hi]
    spans = list(zip(cuts[:-1], cuts[1:]))
    if t1 < t0:
        spans = [(b, a) for a, b in reversed(spans)]
    yield from spans


def _gershgorin(h: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per-row Gershgorin interval ends (lower, upper) of a Hermitian matrix:
    the spectrum of any principal block lies in the union over its rows."""
    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    return diag - radius, diag + radius


def _chebyshev_terms(x: float, tol: float) -> tuple[int, float]:
    """Smallest order K >= 1 with 2 sum_{k>K} (x/2)^k / k! <= tol, and that bound.

    (x/2)^k / k! bounds |J_k(x)|.  For K >= x/2 - 1 the terms past K shrink by
    at least the ratio x / (2K + 4): their sum is at most the first / (1 - ratio).
    """
    order = max(1, math.floor(x / 2.0) - 1)
    while True:
        log_bound = (math.log(2.0 / (1.0 - x / (2.0 * order + 4.0)))
                     + (order + 1) * math.log(x / 2.0) - math.lgamma(order + 2))
        if log_bound <= math.log(tol):
            return order, math.exp(log_bound)
        order += 1


def _chebyshev_expv(h: sp.spmatrix, v: np.ndarray, t: float,
                    tol: float = 1e-14) -> tuple[np.ndarray, int, float]:
    """e^{-iHt} v for Hermitian sparse H: (result, terms summed, error bound).

    With H's Gershgorin interval [c - a, c + a], X = (H - c) / a and x = a|t|,
    e^{-iHt} = e^{-ict} (J_0(x) + 2 sum_k (-i sgn t)^k J_k(x) T_k(X)) (Tal-Ezer
    & Kosloff 1984).  As ||T_k(X)|| <= 1, the orders past K add at most
    2 sum_{k>K} |J_k(x)| ||v||, which ``_chebyshev_terms`` bounds by tol ||v||.
    With H and v real, every T_k(X) v is real: the recursion runs in float64,
    summing the even orders (real coefficients) and odd ones (imaginary) apart.
    """
    from scipy.special import jv   # not at module top: it adds ~55 ms to every import

    real = not np.any(h.data.imag) and not np.any(np.imag(v))
    cur = np.array(np.real(v) if real else v, dtype=np.float64 if real else np.complex128)
    norm = float(np.linalg.norm(cur))
    if t == 0.0 or norm == 0.0:
        return np.array(v, dtype=np.complex128), 0, 0.0
    lower, upper = _gershgorin(h)
    lo, hi = float(lower.min()), float(upper.max())
    c, a = (hi + lo) / 2.0, (hi - lo) / 2.0 or 1.0    # any a > 0 encloses H = c
    order, tail = _chebyshev_terms(a * abs(t), tol)
    coef = 2.0 * jv(np.arange(order + 1), a * abs(t))
    coef[0] /= 2.0
    coef[2::4] *= -1.0      # (-i)^k = (-1)^(k/2) on even k, -i (-1)^((k-1)/2) on odd k
    coef[3::4] *= -1.0
    h2 = (h.real if real else h.astype(np.complex128, copy=False)) * (2.0 / a)
    shift = 2.0 * c / a     # 2X = h2 - shift
    prev, cur = cur, 0.5 * (h2 @ cur - shift * cur)     # T_0 v and T_1 v = X v
    acc = [coef[0] * prev, coef[1] * cur]
    for k in range(2, order + 1):     # T_k = 2X T_{k-1} - T_{k-2}
        nxt = h2 @ cur
        nxt -= shift * cur
        nxt -= prev
        prev, cur = cur, nxt
        acc[k % 2] += coef[k] * cur
    odd = acc[1] * (-1j if t > 0 else 1j)
    return np.exp(-1j * c * t) * (acc[0] + odd), order + 1, tail * norm


def evolve_state(psi: np.ndarray, model: ModelSpec, basis: FockBasis, t: float,
                 t0: float = 0.0) -> tuple[np.ndarray, int, float]:
    """Propagate a state vector from t0 to t under the (piecewise) Hamiltonian.

    Returns (state, Chebyshev terms summed, error bound).  Each constant
    segment takes one expansion; the bound on ||state - exact state|| is the
    sum of the segments' truncation bounds, as every propagator is unitary.
    """
    out = np.array(psi, dtype=np.complex128)
    terms, bound = 0, 0.0
    for a, b in _segments(model, t0, t):
        h = build_hamiltonian(model, basis, (min(a, b) + max(a, b)) / 2.0)
        out, k, err = _chebyshev_expv(h, out, b - a)
        terms += k
        bound += err
    return out, terms, bound


def single_particle_propagator(model: ModelSpec, t: float) -> np.ndarray:
    """G(t) with [b_x(t), b+_y] = G_xy(t) for the pure hopping part.

    G(t) is the time-ordered exponential of -i * h(s) composed across
    schedule segments, with h the Hermitian hopping matrix; the unitary
    free-field oracle against which many-body results are checked.
    """
    n = model.graph.num_vertices
    g = np.eye(n, dtype=np.complex128)
    for a, b in _segments(model, 0.0, t):
        h = model.hopping_matrix((a + b) / 2.0)
        evals, evecs = eigh(h)
        phase = np.exp(-1j * evals * (b - a))
        g = (evecs * phase) @ evecs.conj().T @ g
    return g


# ---------------------------------------------------------------------------
# Heisenberg evolution, sector by sector


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a product of a real and a complex matrix runs as a real product.

    The complex factor is read as a real matrix with its real and imaginary
    parts interleaved, so numpy neither upcasts the real factor nor runs a
    complex product at twice the flops.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if np.iscomplexobj(a):
        return _mm(b.T, a.T).T
    return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)


class HeisenbergScanEngine:
    """Heisenberg evolution O(t) = U(t)^dag O U(t) of one operator, block by block.

    Number conservation makes H block diagonal over total-occupation sectors.
    Each sector block of each schedule piece is diagonalized on first need
    and reused for every later time; the operator rotated into the eigenbases
    of a piece is cached too, so on a constant model a new time costs two
    dense products per block (plus phase scalings).  ``initial`` is the
    operator at t = 0.  Construction runs no eigensolve.
    """

    def __init__(self, model: ModelSpec, basis: FockBasis,
                 op: MonomialOp | OperatorMatrix | BlockOp):
        self.model = model
        self.basis = basis
        self.initial = BlockOp.from_matrix(
            op.to_matrix(basis) if isinstance(op, MonomialOp) else op)
        self._breaks = model.breakpoints()
        self._h: dict[int, sp.csr_matrix] = {}
        self._eigs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._rotated: dict[int, dict[tuple[int, int], np.ndarray]] = {}

    def eig(self, t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the sector-n block of H on the schedule piece holding
        t; real eigenvectors when H is real.

        The divide-and-conquer driver is faster than scipy's default on
        these block sizes (all real sectors of the 6-site cap-3 chain: 0.18 s
        against 0.28 s on 2 cores), and its residuals and loss of
        orthogonality are ~2e-14 instead of ~5e-13.
        """
        piece = bisect_right(self._breaks, t)   # the piece holding t, as in .at(t)
        if (piece, n) not in self._eigs:
            if piece not in self._h:
                self._h[piece] = build_hamiltonian(self.model, self.basis, t)
            ix = self.basis.sectors[n]
            block = self._h[piece][ix][:, ix].toarray()
            self._eigs[(piece, n)] = eigh(block, driver="evd")
        return self._eigs[(piece, n)]

    def _to_eigenbasis(self, t: float, blocks: dict) -> dict[tuple[int, int], np.ndarray]:
        """V_row^dag B V_col for every block, in the eigenbases of t's piece."""
        out = {}
        for (n_row, n_col), dense in blocks.items():
            _, v_row = self.eig(t, n_row)
            _, v_col = self.eig(t, n_col)
            out[(n_row, n_col)] = _mm(_mm(v_row.conj().T, dense), v_col)
        return out

    def evolved_blocks(self, t: float) -> dict[tuple[int, int], np.ndarray]:
        """Sector blocks {(n_row, n_col): dense block} of O(t).

        With U(t) = U_k ... U_1 over the spans of ``_segments``, O(t) =
        U_1^dag ... U_k^dag O U_k ... U_1: the last span acts first, each as
        B <- V (e^{iE_row dt} * V^dag B V * e^{-iE_col dt}) V^dag.  Every
        eigensolve the spans need runs before the first product: interleaved
        with the threaded BLAS products, the eigensolves ran 2x slower
        (OpenBLAS, 2 cores, 6-site chain).
        """
        spans = list(_segments(self.model, 0.0, t))
        sectors = sorted({n for pair in self.initial.blocks for n in pair})
        for a, b in spans:
            for n in sectors:
                self.eig((a + b) / 2.0, n)
        blocks = dict(self.initial.blocks)   # t = 0: exact zeros stay zero
        for step, (a, b) in enumerate(reversed(spans)):
            mid, dt = (a + b) / 2.0, b - a
            if step == 0:   # still O itself: its rotation is cached per piece
                piece = bisect_right(self._breaks, mid)
                if piece not in self._rotated:
                    self._rotated[piece] = self._to_eigenbasis(mid, blocks)
                tildes = self._rotated[piece]
            else:
                tildes = self._to_eigenbasis(mid, blocks)
            blocks = {}
            for (n_row, n_col), tilde in tildes.items():
                e_row, v_row = self.eig(mid, n_row)
                e_col, v_col = self.eig(mid, n_col)
                phased = (np.exp(1j * e_row * dt)[:, None] * tilde) * np.exp(-1j * e_col * dt)[None, :]
                blocks[(n_row, n_col)] = _mm(_mm(v_row, phased), v_col.conj().T)
        return blocks

    def evolved_operator(self, t: float) -> BlockOp:
        return BlockOp(self.basis, self.evolved_blocks(t))

    def commutator_norm(self, t: float, probe_mat: sp.spmatrix, w: MuWeights,
                        evolved=None) -> float:
        """([O(t), probe] | [O(t), probe]) via sector blocks.

        The probe stays sparse; commutator pieces are accumulated per sector
        pair, so the full matrix is never materialized.  ``evolved`` takes
        precomputed ``evolved_blocks(t)``.
        """
        evolved = evolved if evolved is not None else self.evolved_blocks(t)
        probe_blocks = sector_blocks(probe_mat, self.basis)
        pieces: dict[tuple[int, int], np.ndarray] = {}
        for (nr, nc), dense in evolved.items():
            for (mr, mc), b_block in probe_blocks.items():
                if mr == nc:  # A(t) B
                    acc = pieces.setdefault((nr, mc), np.zeros(
                        (dense.shape[0], b_block.shape[1]), np.complex128))
                    acc += dense @ b_block
                if mc == nr:  # - B A(t)
                    acc = pieces.setdefault((mr, nc), np.zeros(
                        (b_block.shape[0], dense.shape[1]), np.complex128))
                    acc -= b_block @ dense
        return weighted_norm_sq(BlockOp(self.basis, pieces), w)


def evolve_operator(op: OperatorMatrix | BlockOp, model: ModelSpec, t: float) -> BlockOp:
    """O(t) = U(t)^dag O U(t), exact per schedule piece: no step control."""
    return HeisenbergScanEngine(model, op.basis, op).evolved_operator(t)


# ---------------------------------------------------------------------------
# scan cells from the nested-commutator series


SERIES_RTOL = 1e-10
SERIES_MAX_ORDER = 14
_CHUNK_BYTES = 512 << 10


def _probe_maps(probe: MonomialOp, basis: FockBasis) -> dict:
    """Sector blocks of a one-site monomial as partial injections.

    ``maps[(n_row, n_col)] = (rows, cols, amps)`` in sector-local indices:
    column ``cols[i]`` goes to row ``rows[i]`` with amplitude ``amps[i]``.
    No row or column repeats, so the operator norm is ``max |amps|``.
    """
    out = {}
    for pair, block in sector_blocks(probe.to_matrix(basis).mat, basis).items():
        coo = block.tocoo()
        out[pair] = (coo.row, coo.col, coo.data)
    return out


def _nested_commutators(h_row: sp.csr_matrix, h_col_t: sp.csr_matrix, block: np.ndarray,
                        lowest: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """M_k = ad_H^k(A) on one sector pair for k = lowest..order, and every
    ||M_k||_F^2 for k = 0..order.

    ``h_col_t`` is the transpose of the column sector's block of H, so
    M H = (H^T M^T)^T runs as a sparse-times-dense product.
    """
    seq = np.empty((order + 1 - lowest,) + block.shape, dtype=block.dtype)
    norms_sq = np.empty(order + 1)
    if lowest == 0:
        seq[0] = block
    m = block
    for k in range(order + 1):
        norms_sq[k] = np.vdot(m, m).real
        if k < order:
            # M_{k+1} goes straight into its slot once it is kept
            out = seq[k + 1 - lowest] if k + 1 >= lowest else None
            m = np.subtract(h_row @ m, (h_col_t @ np.ascontiguousarray(m.T)).T, out=out)
    return seq, norms_sq


def _add_target_gram(gram: np.ndarray, skip: int, weight: float, shape: tuple[int, int],
                     right: np.ndarray | None, mb, left: np.ndarray | None, bm) -> None:
    """Add weight * (D_k | D_l) of one target sector block to the Gram matrix.

    D_k = M_k B - B M'_k with ``right``/``left`` the stored sequences of M
    and M' (first ``skip`` orders unused) and ``mb``/``bm`` the probe's
    index maps (rows, cols, amps) for the two products; either may be None.

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
        ks = np.arange(self.order + 1)
        coef = np.array([(1j * t) ** k / math.factorial(k) for k in ks])
        x = abs(t) * self.spread
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


def commutator_series(model: ModelSpec, basis: FockBasis, a0: BlockOp,
                      probes: dict[int, MonomialOp], first: dict[int, int],
                      mu: float) -> CommutatorSeries:
    """Stream the nested commutators of ``a0`` through every probe's Gram matrix.

    Orders run up to SERIES_MAX_ORDER: enough for every in-cone cell of the
    6- and 7-site cap-3 chains (the deepest, r = 6 at t = 0.01, needs 14).

    Works sector pair by sector pair: for each column sector j the target
    block of D_k = M_k B - B M_k takes M_k on the pair with column j + gamma_B
    (times B) and M_k on the pair with column j (B times it), both read
    through the probe's index maps.  ``_add_target_gram`` adds the block's
    Gram matrix without assembling it, from row and column gathers in row
    chunks of at most _CHUNK_BYTES.  Sequences are made in increasing column
    order and dropped once no later target needs them, so at most
    |gamma_B| + 1 pairs' sequences are live.  H is used in its sparse sector
    blocks, real when every hopping amplitude is.
    """
    order = SERIES_MAX_ORDER
    h = build_hamiltonian(model, basis)
    h_blocks = {n: blk.tocsr() for (n, m), blk in sector_blocks(h, basis).items() if n == m}
    sizes = [ix.size for ix in basis.sectors]

    def h_block(n: int) -> sp.csr_matrix:
        return h_blocks.get(n, sp.csr_matrix((sizes[n], sizes[n]), dtype=h.dtype))

    pairs = {n_col: (n_row, block) for (n_row, n_col), block in a0.blocks.items()}
    if len(pairs) != len(a0.blocks):
        raise ValueError("series route needs an operator of definite number change")
    if not pairs:   # A = 0 on this basis: every commutator vanishes
        return CommutatorSeries(order, {r: np.zeros((order + 1, order + 1)) for r in probes},
                                first, np.zeros(order + 1), 0.0, 0.0)
    maps = {r: _probe_maps(p, basis) for r, p in probes.items()}
    gamma_b = next(iter(probes.values())).gamma
    dtype = np.result_type(h.dtype, *(b.dtype for b in a0.blocks.values()))
    w = MuWeights(mu, basis)

    # spectral spread between the sectors A connects; Gershgorin per sector
    lower, upper = _gershgorin(h)
    lo = {n: float(np.min(lower[ix])) for n, ix in enumerate(basis.sectors) if ix.size}
    hi = {n: float(np.max(upper[ix])) for n, ix in enumerate(basis.sectors) if ix.size}
    spread = max(max(hi[a] - lo[b], hi[b] - lo[a]) for b, (a, _) in pairs.items())
    b_norm = max((float(np.max(np.abs(amps))) for m in maps.values()
                  for _, _, amps in m.values() if amps.size), default=0.0)
    probe_factor = 2.0 * math.cosh(mu * gamma_b / 4.0) * b_norm

    grams = {r: np.zeros((order + 1, order + 1), dtype=dtype) for r in probes}
    m_norms_sq = np.zeros(order + 1)
    live: dict[int, np.ndarray] = {}    # column sector -> M_k, k = lowest..order
    lowest = min(min(first.values()), order)

    def sequence(n_col: int) -> np.ndarray | None:
        if n_col not in pairs:
            return None
        if n_col not in live:
            n_row, block = pairs[n_col]
            live[n_col], norms_sq = _nested_commutators(
                h_block(n_row), h_block(n_col).T.tocsr(), block.astype(dtype, copy=False),
                lowest, order)
            m_norms_sq[:] += w.pair_weight(n_row, n_col) * norms_sq
        return live[n_col]

    gamma_a = next(iter(a0.blocks))[0] - next(iter(a0.blocks))[1]
    for j in sorted({n - gamma_b for n in pairs} | set(pairs)):
        i = j + gamma_a + gamma_b
        right = sequence(j + gamma_b)      # M on (i, j + gamma_b), then B
        left = sequence(j)                 # B after M on (j + gamma_a, j)
        if 0 <= i < len(sizes) and 0 <= j < len(sizes):
            for r, probe_map in maps.items():
                if first[r] <= order:
                    mb = probe_map.get((j + gamma_b, j)) if right is not None else None
                    bm = probe_map.get((i, j + gamma_a)) if left is not None else None
                    _add_target_gram(grams[r], first[r] - lowest, w.pair_weight(i, j),
                                     (sizes[i], sizes[j]), right, mb, left, bm)
        right = left = None
        for n_col in [n for n in live if n < j + 1 + min(0, gamma_b)]:
            del live[n_col]
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

    def violations(self, include_tail: bool = True) -> list[ScanCell]:
        """Cells inside the cone where exact (+ tail) exceeds the bound.

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
            lhs = cell.exact + (cell.tail_estimate if include_tail else 0.0)
            if lhs > cell.bound_ensemble:
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
                   r_list, t_list, cells: list[tuple[int, float]] | None = None,
                   basis: FockBasis | None = None,
                   eps: float = 0.1, c1: float = 1.0) -> ScanResult:
    """Exact weighted commutator norms against the analytic cone bounds.

    ``op`` is evolved; ``probe`` is a single-site monomial template placed,
    for each requested separation r, on the smallest-id vertex at distance r
    from the support of ``op``.  ``cells`` overrides the rectangular
    r x t grid when given.  ``eps`` and ``c1`` enter the worst-case
    matrix-element bound.

    Each cell comes from the nested-commutator series (``commutator_series``)
    when some order up to SERIES_MAX_ORDER meets its remainder tolerance;
    the others (large t) take the dense route of ``HeisenbergScanEngine``,
    which solves sectors only when such a cell exists.
    """
    if not model.is_time_independent:
        raise ValueError("scan expects a time-independent model")
    if basis is None:
        basis = FockBasis(model.graph.num_vertices, per_site_cap=3)
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
    a0 = BlockOp.from_matrix(op.to_matrix(basis))
    seeds = {x: f_beta_expectation(a0, x, beta, w, projected=False) for x in support}
    norm_sq = weighted_norm_sq(a0, w)
    r_ell = len(fatten(graph, support, ell))
    params = bounds_mod.BoundParams(
        mu=mu, K=k, ell=ell, beta=beta, gamma=gamma,
        seeds=tuple(seeds.values()), size_R=len(support), size_R_ell=r_ell,
        norm_sq=norm_sq)
    tail = w.tail_estimate()

    if cells is None:
        cells = [(int(r), float(t)) for r in r_list for t in t_list]
    probe_anchor = next(iter(probe.support))
    sites = probe_sites(graph, support)
    missing = sorted({r for r, _ in cells} - set(sites))
    if missing:
        raise ValueError(f"no vertex at distance {missing[0]} from {support}")
    placed = {r: probe.translate(sites[r] - probe_anchor) for r, _ in cells}

    # ad_H grows a support by one hop or one interaction range per order; on
    # a product basis an operator commutes with a probe its support misses
    growth = max(1, ell)
    first = {}
    for r in placed:
        order = 0
        if basis.total_cap is None and basis.number is None:
            while sites[r] not in fatten(graph, support, order * growth):
                order += 1
        first[r] = order

    def make_cell(r: int, t: float, exact: float) -> ScanCell:
        bound = bounds_mod.ensemble_commutator_bound(r, t, params)
        bound_me = bounds_mod.matrix_element_bound(
            r, t, m=basis.per_site_cap, ell=ell, eps=eps, c1=c1).value
        ratio = exact / bound if math.isfinite(bound) and bound > 0 else 0.0
        return ScanCell(r=r, t=t, exact=exact, bound_ensemble=bound,
                        bound_matrix_element=bound_me, ratio=ratio, tail_estimate=tail)

    out_cells: dict[tuple[int, float], ScanCell] = {}
    orders, worst = [], 0.0
    series = commutator_series(model, basis, a0, placed, first, mu) if placed else None
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
    engine = HeisenbergScanEngine(model, basis, a0)   # solves sectors on first need
    times = sorted(by_time)
    for t in times:
        evolved = engine.evolved_blocks(t)
        for r in by_time[t]:
            out_cells[(r, t)] = make_cell(r, t, engine.commutator_norm(
                t, placed[r].to_matrix(basis).mat, w, evolved=evolved))
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
# OTOCs, ground states, correlations


@dataclass
class OtocResult:
    squared_norm: float        # tr(sqrt(rho) [A(t),B]^dag sqrt(rho) [A(t),B])
    thermal_commutator: complex  # tr(rho [A(t), B])


def otoc(model: ModelSpec, a: OperatorMatrix, b: OperatorMatrix, mu: float,
         t: float) -> OtocResult:
    """Weighted squared commutator of the evolved and static operators."""
    w = MuWeights(mu, a.basis)
    a_t = evolve_operator(a, model, t)
    comm = OperatorMatrix(a_t.mat @ b.mat - b.mat @ a_t.mat, a.basis, None)
    sq = weighted_norm_sq(comm, w)
    coo = sp.coo_matrix(comm.mat)
    thermal = complex(np.sum(coo.data * w.w[coo.col])) if coo.nnz else 0.0 + 0.0j
    return OtocResult(squared_norm=sq, thermal_commutator=thermal)


@dataclass
class GroundState:
    energy: float
    vector: np.ndarray
    gap: float
    degenerate: bool


def ground_state(h: sp.spmatrix, degeneracy_threshold: float = 1e-6) -> GroundState:
    """Two lowest eigenpairs of a Hermitian sparse matrix; gap = E1 - E0.

    A real matrix (``build_hamiltonian`` with every hopping amplitude real)
    goes to the real-symmetric solvers, faster than the complex ones: 2.0 ->
    1.2 s for ARPACK on the 73,789-state sector of a 12-site chain, 2 cores.
    The ARPACK start vector is uniform, so when a symmetry of H fixes it (the
    reflection of a uniform chain), the excited states odd under that
    symmetry are missed and the gap is the gap to the lowest even state.
    """
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
    return GroundState(energy=e0, vector=vec.astype(np.complex128), gap=gap,
                       degenerate=gap < degeneracy_threshold)


def connected_correlation(psi0: np.ndarray, a: OperatorMatrix, b: OperatorMatrix) -> complex:
    """<psi|A B|psi> - <psi|A|psi><psi|B|psi>."""
    b_psi = b.mat @ psi0
    exp_ab = complex(np.vdot(psi0, a.mat @ b_psi))
    exp_a = complex(np.vdot(psi0, a.mat @ psi0))
    exp_b = complex(np.vdot(psi0, b_psi))
    return exp_ab - exp_a * exp_b
