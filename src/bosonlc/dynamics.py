"""Exact time evolution on truncated Fock spaces, light-cone scans, and OTOCs.

Two propagation routes are provided:

* state evolution via Krylov (Lanczos) exponential action with a per-step
  residual target, or scipy's scaled-Taylor ``expm_multiply`` fallback;
* Heisenberg evolution via per-number-sector eigendecomposition.  Every
  Hamiltonian in the model class conserves total boson number, so U(t) is
  block diagonal over sectors and each block is diagonalized once; this is
  what makes the commutator scans exact and fast.

Evolved operators are :class:`~bosonlc.opspace.BlockOp` values: one dense
block per (row sector, column sector) pair, never a global sparse matrix
unless a caller reads ``.mat``.  A sector block of H whose imaginary part is
exactly zero (every hopping amplitude real) is diagonalized by the
real-symmetric solver and keeps real eigenvectors; the products of real
eigenvectors with complex blocks then run as real matrix products.  The
choice follows from the Hamiltonian's entries alone.

Piecewise-constant schedules are handled by composing per-segment
propagators, so no step ever straddles a schedule discontinuity.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh, expm_multiply

from . import bounds as bounds_mod
from .fock import FockBasis, ModelSpec, build_hamiltonian
from .lattice import Graph, fatten, set_distance
from .opspace import (BlockOp, MonomialOp, MuWeights, OperatorMatrix, f_beta_expectation,
                      real_if_exact, sector_blocks, weighted_norm_sq)


class EvolutionError(RuntimeError):
    """Krylov step failed to reach the requested residual."""


@dataclass
class EvolutionConfig:
    integrator: str = "krylov-expv"  # or "scaled-taylor"
    tolerance: float = 1e-10
    max_step: float = 0.1
    dense_threshold: int = 4096
    krylov_dim: int = 30

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.integrator not in ("krylov-expv", "scaled-taylor"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


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


def _lanczos_expv(h: sp.spmatrix, v: np.ndarray, tau: complex, tol: float,
                  m_max: int) -> tuple[np.ndarray, float]:
    """exp(tau * H) v for Hermitian H via a Lanczos subspace; returns residual."""
    norm = np.linalg.norm(v)
    if norm == 0:
        return v.copy(), 0.0
    basis_vecs = np.empty((m_max + 1, v.size), dtype=np.complex128)
    basis_vecs[0] = v / norm
    alphas: list[float] = []
    betas: list[float] = []
    for m in range(m_max):
        wvec = h @ basis_vecs[m]
        if m > 0:
            wvec -= betas[-1] * basis_vecs[m - 1]
        alpha = float(np.vdot(basis_vecs[m], wvec).real)
        wvec -= alpha * basis_vecs[m]
        # full reorthogonalization; subspaces stay small.  V^* w is formed as
        # conj(V conj(w)), which conjugates one vector instead of copying V
        coeffs = (basis_vecs[: m + 1] @ wvec.conj()).conj()
        wvec -= basis_vecs[: m + 1].T @ coeffs
        alphas.append(alpha)
        beta = float(np.linalg.norm(wvec))
        tmat = np.diag(alphas).astype(np.complex128)
        if m > 0:
            off = np.array(betas)
            tmat += np.diag(off, 1) + np.diag(off, -1)
        evals, evecs = eigh(tmat)
        small = evecs @ (np.exp(tau * evals) * evecs[0].conj()).T
        err = abs(tau) * beta * abs(small[-1])
        if beta < 1e-14 or err <= tol:
            return norm * (basis_vecs[: m + 1].T @ small), err
        betas.append(beta)
        basis_vecs[m + 1] = wvec / beta
    raise EvolutionError(f"Krylov step did not converge: residual {err:.3e} > {tol:.3e}")


def evolve_state(psi: np.ndarray, model: ModelSpec, basis: FockBasis, t: float,
                 cfg: EvolutionConfig | None = None, t0: float = 0.0) -> np.ndarray:
    """Propagate a state vector from t0 to t under the (piecewise) Hamiltonian."""
    cfg = cfg or EvolutionConfig()
    out = np.asarray(psi, dtype=np.complex128).copy()
    for a, b in _segments(model, t0, t):
        h = build_hamiltonian(model, basis, (min(a, b) + max(a, b)) / 2.0)
        span = b - a
        if cfg.integrator == "scaled-taylor":
            out = expm_multiply(-1j * span * h, out)
            continue
        direction = 1.0 if span >= 0 else -1.0
        remaining = abs(span)
        step = min(cfg.max_step, remaining) if remaining > 0 else 0.0
        substeps = 0
        while remaining > 1e-15:
            dt = min(step, remaining)
            try:
                out, _ = _lanczos_expv(h, out, -1j * direction * dt,
                                       cfg.tolerance, cfg.krylov_dim)
            except EvolutionError:
                if dt < 1e-12:
                    raise
                step = dt / 2.0
                continue
            remaining -= dt
            substeps += 1
            if substeps > 2_000_000:
                raise EvolutionError("step size collapsed; raise the tolerance "
                                     "or the Krylov dimension")
    return out


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
# sector-resolved Heisenberg evolution


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


class SectorEvolution:
    """Per-number-sector eigendecompositions of a (piecewise constant) model.

    Number conservation makes H block diagonal over total-occupation sectors;
    each block is Hermitian-diagonalized once per schedule segment and reused
    for every time and every operator.
    """

    def __init__(self, model: ModelSpec, basis: FockBasis):
        self.model = model
        self.basis = basis
        self._eigs: dict[tuple[float, int], tuple[np.ndarray, np.ndarray]] = {}
        self._h_cache: dict[float, sp.csr_matrix] = {}

    def _h_at(self, t_mid: float) -> sp.csr_matrix:
        if t_mid not in self._h_cache:
            self._h_cache[t_mid] = build_hamiltonian(self.model, self.basis, t_mid)
        return self._h_cache[t_mid]

    def eig(self, t_mid: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of the sector-n block of H(t_mid); real eigenvectors
        when the block's imaginary part is exactly zero.

        The divide-and-conquer driver is faster than scipy's default on
        these block sizes (all real sectors of the 6-site cap-3 chain: 0.18 s
        against 0.28 s on 2 cores), and its residuals and loss of
        orthogonality are ~2e-14 instead of ~5e-13.
        """
        key = (t_mid, n)
        if key not in self._eigs:
            ix = self.basis.sectors[n]
            block = real_if_exact(self._h_at(t_mid)[ix][:, ix].toarray())
            self._eigs[key] = eigh(block, driver="evd")
        return self._eigs[key]

    def sector_propagator(self, n: int, t: float, t0: float = 0.0) -> np.ndarray:
        """Dense unitary for sector n from t0 to t (segment-composed)."""
        u = np.eye(self.basis.sectors[n].size, dtype=np.complex128)
        for a, b in _segments(self.model, t0, t):
            evals, evecs = self.eig((min(a, b) + max(a, b)) / 2.0, n)
            u = _mm(evecs * np.exp(-1j * evals * (b - a)), evecs.conj().T) @ u
        return u

    def solve(self, sectors, t_mids) -> None:
        """Eigendecompose the given sectors at each segment midpoint.

        Run before any product: interleaved with the threaded BLAS products,
        the eigensolves ran 2x slower (OpenBLAS, 2 cores, 6-site chain).
        """
        for t_mid in t_mids:
            for n in sorted(sectors):
                self.eig(t_mid, n)

    def heisenberg(self, op: OperatorMatrix | BlockOp, t: float) -> BlockOp:
        """O(t) = U(t)^dag O U(t), block by block."""
        blocks = BlockOp.from_matrix(op).blocks
        sectors = {n for pair in blocks for n in pair}
        self.solve(sectors, [(min(a, b) + max(a, b)) / 2.0
                             for a, b in _segments(self.model, 0.0, t)])
        u = {n: self.sector_propagator(n, t) for n in sorted(sectors)}
        return BlockOp(op.basis, {
            (n_row, n_col): _mm(u[n_row].conj().T, dense) @ u[n_col]
            for (n_row, n_col), dense in blocks.items()})


def evolve_operator(op: OperatorMatrix | BlockOp, model: ModelSpec, t: float,
                    cfg: EvolutionConfig | None = None,
                    engine: SectorEvolution | None = None) -> BlockOp:
    """Heisenberg-evolve an operator matrix; spectrum is unitarily preserved.

    ``cfg`` is accepted for interface symmetry with evolve_state; the sector
    route is exact per segment so no step control is needed.
    """
    if engine is None:
        engine = SectorEvolution(model, op.basis)
    return engine.heisenberg(op, t)


# ---------------------------------------------------------------------------
# scan engine: constant models, streamed blocks


class HeisenbergScanEngine:
    """Evolution engine for commutator scans of one traveling operator.

    For time-independent models each sector is diagonalized once and the
    rotated operator blocks are cached, so a new time costs two dense
    multiplications per block (plus phase scalings).  ``initial`` is the
    operator at t = 0.
    """

    def __init__(self, model: ModelSpec, basis: FockBasis, op: MonomialOp):
        if not model.is_time_independent:
            raise ValueError("scan engine expects a time-independent model")
        self.model = model
        self.basis = basis
        self.op = op
        self.evolution = SectorEvolution(model, basis)
        self.initial = BlockOp.from_matrix(op.to_matrix(basis))
        self.evolution.solve({n for pair in self.initial.blocks for n in pair}, [0.0])
        self._rotated = {}
        for (n_row, n_col), dense in self.initial.blocks.items():
            _, v_row = self.evolution.eig(0.0, n_row)
            _, v_col = self.evolution.eig(0.0, n_col)
            self._rotated[(n_row, n_col)] = _mm(_mm(v_row.conj().T, dense), v_col)

    def evolved_blocks(self, t: float) -> dict[tuple[int, int], np.ndarray]:
        """Sector blocks {(n_row, n_col): dense block} of O(t)."""
        if t == 0.0:
            # skip the eigenbasis round trip: exact zeros stay zero
            return dict(self.initial.blocks)
        out = {}
        for (n_row, n_col), tilde in self._rotated.items():
            e_row, v_row = self.evolution.eig(0.0, n_row)
            e_col, v_col = self.evolution.eig(0.0, n_col)
            phased = (np.exp(1j * e_row * t)[:, None] * tilde) * np.exp(-1j * e_col * t)[None, :]
            out[(n_row, n_col)] = _mm(_mm(v_row, phased), v_col.conj().T)
        return out

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
                   r_list, t_list, cfg: EvolutionConfig | None = None,
                   cells: list[tuple[int, float]] | None = None,
                   basis: FockBasis | None = None,
                   engine: HeisenbergScanEngine | None = None,
                   workers: int = 1, eps: float = 0.1, c1: float = 1.0) -> ScanResult:
    """Exact weighted commutator norms against the analytic cone bounds.

    ``op`` is evolved; ``probe`` is a single-site monomial template placed,
    for each requested separation r, on the smallest-id vertex at distance r
    from the support of ``op``.  ``cells`` overrides the rectangular
    r x t grid when given.  ``workers`` parallelizes over time groups; cell
    order in the result is independent of the worker count.  ``eps`` and
    ``c1`` enter the worst-case matrix-element bound.
    """
    if basis is None:
        basis = FockBasis(model.graph.num_vertices, per_site_cap=3)
    if engine is None:
        engine = HeisenbergScanEngine(model, basis, op)
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
    a0 = engine.initial
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

    # deterministic evaluation order; group by time so evolution is shared
    by_time: dict[float, list[int]] = {}
    for r, t in cells:
        by_time.setdefault(t, []).append(r)

    def eval_time_group(t: float) -> list[ScanCell]:
        evolved = engine.evolved_blocks(t)
        group = []
        for r in sorted(set(by_time[t])):
            placed = probe.translate(sites[r] - probe_anchor)
            probe_mat = placed.to_matrix(basis).mat
            exact = engine.commutator_norm(t, probe_mat, w, evolved=evolved)
            bound = bounds_mod.ensemble_commutator_bound(r, t, params)
            bound_me = bounds_mod.matrix_element_bound(
                r, t, m=basis.per_site_cap, ell=ell, eps=eps, c1=c1).value
            ratio = exact / bound if math.isfinite(bound) and bound > 0 else 0.0
            group.append(ScanCell(r=r, t=t, exact=exact, bound_ensemble=bound,
                                  bound_matrix_element=bound_me, ratio=ratio,
                                  tail_estimate=tail))
        return group

    times = sorted(by_time)
    out_cells: dict[tuple[int, float], ScanCell] = {}
    if workers > 1 and len(times) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(eval_time_group, times))
    else:
        groups = [eval_time_group(t) for t in times]
    for group in groups:
        for cell in group:
            out_cells[(cell.r, cell.t)] = cell
    ordered = [out_cells[(r, t)] for (r, t) in sorted(out_cells)]
    meta = {
        "mu": mu, "per_site_cap": basis.per_site_cap, "total_cap": basis.total_cap,
        "interaction_range": ell, "max_degree": k, "beta": beta, "gamma": gamma,
        "velocity": velocity, "seeds": seeds, "norm_sq": norm_sq,
        "size_R": len(support), "size_R_ell": r_ell,
    }
    return ScanResult(cells=ordered, metadata=meta)


# ---------------------------------------------------------------------------
# OTOCs, ground states, correlations


@dataclass
class OtocResult:
    squared_norm: float        # tr(sqrt(rho) [A(t),B]^dag sqrt(rho) [A(t),B])
    thermal_commutator: complex  # tr(rho [A(t), B])


def otoc(model: ModelSpec, a: OperatorMatrix, b: OperatorMatrix, mu: float, t: float,
         cfg: EvolutionConfig | None = None,
         engine: SectorEvolution | None = None) -> OtocResult:
    """Weighted squared commutator of the evolved and static operators."""
    engine = engine or SectorEvolution(model, a.basis)
    w = MuWeights(mu, a.basis)
    a_t = engine.heisenberg(a, t)
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

    A matrix whose imaginary part is exactly zero goes to the real-symmetric
    solvers (every hopping amplitude real): 2.0 -> 1.2 s for ARPACK on the
    73,789-state sector of a 12-site chain, 2 cores.  The ARPACK start vector is uniform, so
    when a symmetry of H fixes it (the reflection of a uniform chain), the
    excited states odd under that symmetry are missed and the gap is the
    gap to the lowest even state.
    """
    dim = h.shape[0]
    if np.iscomplexobj(h.data) and not np.any(h.data.imag):
        h = h.real
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
