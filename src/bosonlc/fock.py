"""Truncated bosonic Fock spaces, ladder operators, and Hamiltonian assembly.

Conventions fixed here and used everywhere else:

* units: hbar = 1 and hopping amplitudes normalized to |J| <= 1;
* truncation: raising transitions that would exceed the per-site cap or the
  total cap are dropped (projector-truncated Hamiltonian P H P), which keeps
  every assembled operator exactly Hermitian and number conserving;
* basis order: occupation vectors are ranked lexicographically, with site 0
  the most significant digit; one table of completion counts
  (``FockBasis._ranks``) gives both a vector's row and, unranked, the rows.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .lattice import Graph, distance

DEFAULT_STATE_BUDGET = 5_000_000


class CapacityError(MemoryError):
    """A basis would exceed the state budget, or an expansion its term budget.

    ``needs`` words the request; it is formatted with ``requested``.
    """

    def __init__(self, requested: int, budget: int, hint: str = "",
                 needs: str = "basis would hold {} states"):
        self.requested = requested
        self.budget = budget
        msg = f"{needs.format(requested)}, budget is {budget}"
        if hint:
            msg += f" ({hint})"
        super().__init__(msg)


def counts_by_total(num_sites: int, per_site_cap: int, limit: int) -> list[int]:
    """ways[k] = number of capped occupation vectors with sum k, k <= limit."""
    ways = [0] * (limit + 1)
    ways[0] = 1
    for _ in range(num_sites):
        new = [0] * (limit + 1)
        for k, w in enumerate(ways):
            if w == 0:
                continue
            for n in range(min(per_site_cap, limit - k) + 1):
                new[k + n] += w
        ways = new
    return ways


def count_states(num_sites: int, per_site_cap: int, total_cap: int | None,
                 number: int | None = None) -> int:
    """Number of occupation vectors allowed by the caps (exact, no allocation).

    With ``number`` only vectors holding exactly that many bosons count.
    """
    if number is not None:
        if number < 0 or number > num_sites * per_site_cap or (
                total_cap is not None and number > total_cap):
            return 0
        return counts_by_total(num_sites, per_site_cap, number)[number]
    if total_cap is None:
        return (per_site_cap + 1) ** num_sites
    return sum(counts_by_total(num_sites, per_site_cap, total_cap))


class FockBasis:
    """Exhaustive, duplicate-free basis of capped occupation vectors.

    ``states`` is a read-only (dim, num_sites) uint8 array in lexicographic
    order; ``index`` maps an occupation vector back to its row.  The row is
    the vector's lexicographic rank, computed rather than searched: each
    site adds, for every smaller digit it could have held, the number of
    completions of the later sites that the caps allow (``_rank_table``,
    from ``counts_by_total``).  The same table is the only encoding of the
    basis: ``states`` holds rows 0..dim-1 unranked from it, and ``totals``
    the bosons that pass placed.  With ``number`` the basis holds only the
    vectors with exactly that many bosons: the N-sector rows of the capped
    basis, in the same order.  Every Hamiltonian of the model class
    conserves N, so a number eigenstate evolves inside that sector.
    """

    def __init__(self, num_sites: int, per_site_cap: int, total_cap: int | None = None,
                 state_budget: int = DEFAULT_STATE_BUDGET, number: int | None = None):
        if num_sites < 1:
            raise ValueError("num_sites must be >= 1")
        if per_site_cap < 1:
            raise ValueError("per_site_cap must be >= 1")
        if per_site_cap > 255:
            raise ValueError("per_site_cap above 255 not representable (states are uint8)")
        if total_cap is not None and total_cap < 0:
            raise ValueError("total_cap must be >= 0 when given")
        if number is not None and number < 0:
            raise ValueError("number must be >= 0 when given")
        size = count_states(num_sites, per_site_cap, total_cap, number)
        if size > state_budget:
            hint = f"{num_sites} sites, cap {per_site_cap}, total {total_cap}"
            if number is not None:
                hint += f", number {number}"
            raise CapacityError(size, state_budget, hint=hint)
        self.num_sites = num_sites
        self.per_site_cap = per_site_cap
        self.total_cap = total_cap
        self.number = number
        self.dim = size
        # bosons a vector holds in all: exactly N, or at most the total cap
        limit = number if number is not None else total_cap
        self._budget = num_sites * per_site_cap if limit is None else min(
            limit, num_sites * per_site_cap)
        self._rank_table = self._ranks(num_sites, per_site_cap, self._budget,
                                       exact=number is not None, clip=size)
        # unrank rows 0..dim-1: at each site the digit is the largest whose
        # table entry does not pass the rank still left (entries grow with it)
        width = per_site_cap + 1
        digits = np.zeros((num_sites, size), dtype=np.uint8)
        placed = np.zeros(size, dtype=np.int64)      # bosons placed so far
        left = np.arange(size, dtype=np.int64)
        for digit, table in zip(digits, self._rank_table):
            for n in range(1, width):
                digit += np.take(table[:, n], placed) <= left
            left -= np.take(table.ravel(), placed * width + digit)
            placed += digit
        del left    # first, so the narrow copy below adds nothing to the peak
        # the smallest unsigned type that holds the budget: uint8 up to 255
        self.totals = placed.astype(np.min_scalar_type(self._budget))
        self.states = np.ascontiguousarray(digits.T)
        self.states.setflags(write=False)

    @staticmethod
    def _ranks(num_sites: int, cap: int, budget: int, exact: bool, clip: int) -> np.ndarray:
        """table[i, s, n]: rows a vector passes over by holding n at site i
        after s bosons on the earlier sites.  It is the sum over digits d < n
        of the completions of sites i+1.. with budget - s - d bosons left
        (exactly that many with ``exact``, at most that many otherwise).
        Entries are clipped to ``clip``: a vector inside the basis never
        reads one larger than its own row."""
        table = np.zeros((num_sites, budget + 1, cap + 1), dtype=np.int64)
        left = np.maximum(budget - np.arange(budget + 1)[:, None] - np.arange(cap), -1)  # (s, d)
        for i in range(num_sites):
            ways = counts_by_total(num_sites - 1 - i, cap, budget)
            if not exact:
                ways = list(itertools.accumulate(ways))
            completions = np.array([min(w, clip) for w in ways] + [0], dtype=np.int64)
            # left = -1 reads the trailing 0: the digit overshoots the budget
            np.cumsum(completions[left], axis=1, out=table[i, :, 1:])
        return table

    # -- lookups ---------------------------------------------------------

    def index(self, occupations) -> int:
        """Row of one occupation vector; KeyError if outside the basis."""
        occ = np.asarray(occupations)
        if (occ.shape != (self.num_sites,) or occ.min() < 0
                or occ.max() > self.per_site_cap):
            raise KeyError(tuple(occ.tolist()))
        row = int(self.lookup_rows(occ[None, :])[0])
        if row < 0:
            raise KeyError(tuple(occ.tolist()))
        return row

    def lookup_rows(self, occ: np.ndarray) -> np.ndarray:
        """Vectorized index lookup; -1 marks vectors outside the basis."""
        occ = np.asarray(occ)
        cap, budget = self.per_site_cap, self._budget
        rows = np.zeros(occ.shape[0], dtype=np.int64)
        inside = np.full(occ.shape[0], self.dim > 0)
        placed = np.zeros(occ.shape[0], dtype=np.int64)
        for i in range(self.num_sites):
            n = occ[:, i].astype(np.int64)
            inside &= (n >= 0) & (n <= cap)
            # the clips only keep the reads of vectors already outside in the table
            rows += self._rank_table[i].ravel()[np.clip(placed, 0, budget) * (cap + 1)
                                                 + np.clip(n, 0, cap)]
            placed += n
        inside &= (placed == budget) if self.number is not None else (placed <= budget)
        return np.where(inside, rows, -1)

    def hopped_rows(self, rows: np.ndarray, src: int, dst: int) -> np.ndarray:
        """Rows of the given states with one boson moved from ``src`` to
        ``dst``, for states where the move stays in the basis (n_src >= 1,
        n_dst < cap).  Only the rank terms of the sites from min(src, dst)
        to max(src, dst) change, so only those are looked up again."""
        lo, hi = sorted((src, dst))
        occ = self.states[rows]
        placed = occ[:, :lo].sum(axis=1, dtype=np.int64)
        shift = 1 if dst == lo else -1      # the boson enters or leaves the later prefixes
        out = rows.astype(np.int64)
        width = self.per_site_cap + 1
        for i in range(lo, hi + 1):
            n = occ[:, i].astype(np.int64)
            table = self._rank_table[i].ravel()
            out -= table[placed * width + n]
            out += table[(placed + shift * (i > lo)) * width + n + (i == dst) - (i == src)]
            placed += n
        return out

    @cached_property
    def sectors(self) -> list[np.ndarray]:
        """Rows of each total-occupation sector N = 0..max, in basis order."""
        order = np.argsort(self.totals, kind="stable")
        return np.split(order, np.cumsum(np.bincount(self.totals))[:-1])

    def __repr__(self) -> str:  # pragma: no cover
        return (f"FockBasis(sites={self.num_sites}, cap={self.per_site_cap}, "
                f"total={self.total_cap}, number={self.number}, dim={self.dim})")


# ---------------------------------------------------------------------------
# schedules and model specification


@dataclass(frozen=True)
class PiecewiseConstant:
    """Piecewise-constant time profile: values[i] on [breakpoints[i-1], breakpoints[i])."""

    breakpoints: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.values) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more value than breakpoints")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @classmethod
    def constant(cls, value) -> "PiecewiseConstant":
        return cls((), (value,))

    def at(self, t: float):
        return self.values[bisect_right(self.breakpoints, t)]

    def max_abs(self) -> float:
        return max(abs(v) for v in self.values)


@dataclass(frozen=True)
class Interaction:
    """Density polynomial on a support set, constant in time.

    ``monomials`` is a tuple of (coefficient, powers) with powers a tuple of
    (site, exponent) pairs; the polynomial is sum_i c_i * prod_v n_v**p_v.
    Coefficients are real so the term is Hermitian.
    """

    support: tuple[int, ...]
    monomials: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        for coeff, powers in self.monomials:
            if abs(complex(coeff).imag) > 0:
                raise ValueError("interaction coefficients must be real")
            for site, _ in powers:
                if site not in self.support:
                    raise ValueError(f"monomial touches site {site} outside support {self.support}")

    def evaluate(self, occ_columns: dict[int, np.ndarray]) -> np.ndarray:
        """Diagonal values over basis states, given per-site occupancy columns."""
        first = next(iter(occ_columns.values()))
        out = np.zeros(first.shape[0], dtype=np.float64)
        for coeff, powers in self.monomials:
            term = np.full(first.shape[0], float(coeff))
            for site, p in powers:
                term *= occ_columns[site].astype(np.float64) ** p
            out += term
        return out


def onsite_density_interaction(site: int, strength: float) -> Interaction:
    """strength * n (n - 1) on one site, the canonical two-body repulsion."""
    return Interaction(support=(site,),
                       monomials=((strength, ((site, 2),)), (-strength, ((site, 1),))))


@dataclass(frozen=True)
class ModelSpec:
    """Hopping schedule plus density interactions on a bounded-degree graph.

    Hermiticity convention: ``hopping[(x, y)]`` with x < y stores J_xy(t); the
    reverse orientation uses the complex conjugate.  |J| <= 1 is enforced.
    """

    graph: Graph
    hopping: dict[tuple[int, int], PiecewiseConstant]
    interactions: tuple[Interaction, ...]
    interaction_range: int

    def __post_init__(self):
        edge_set = set(self.graph.edges)
        for (x, y), sched in self.hopping.items():
            if (min(x, y), max(x, y)) not in edge_set:
                raise ValueError(f"hopping on non-edge ({x},{y})")
            if sched.max_abs() > 1.0 + 1e-12:
                raise ValueError(f"|J| > 1 on edge ({x},{y}) breaks the normalization")
        for term in self.interactions:
            for u in term.support:
                for v in term.support:
                    if distance(self.graph, u, v) > self.interaction_range:
                        raise ValueError(
                            f"interaction support {term.support} has diameter "
                            f"> range {self.interaction_range}")

    # -- time structure ---------------------------------------------------

    def breakpoints(self) -> tuple[float, ...]:
        """Every breakpoint of the hopping schedules: H(t) changes nowhere else."""
        return tuple(sorted({b for sched in self.hopping.values() for b in sched.breakpoints}))

    @property
    def is_time_independent(self) -> bool:
        return not self.breakpoints()

    def hopping_matrix(self, t: float) -> np.ndarray:
        """Hermitian single-particle hopping matrix h with h[x, y] = J_xy(t)."""
        n = self.graph.num_vertices
        h = np.zeros((n, n), dtype=np.complex128)
        for (x, y), sched in self.hopping.items():
            val = complex(sched.at(t))
            h[x, y] += val
            h[y, x] += val.conjugate()
        return h


def bose_hubbard(graph: Graph, j: complex = 1.0, u0: float = 1.0) -> ModelSpec:
    """Uniform hopping J plus U0 n(n-1) on every site."""
    sched = PiecewiseConstant.constant(j)
    hopping = {e: sched for e in graph.edges}
    terms = tuple(onsite_density_interaction(v, u0) for v in graph.vertices()) if u0 != 0 else ()
    return ModelSpec(graph=graph, hopping=hopping, interactions=terms, interaction_range=0)


def random_model_spec(rng: np.random.Generator, graph: Graph | None = None) -> ModelSpec:
    """Seeded random model inside the allowed class, for structural fuzzing:
    on-site and nearest-neighbour terms, interaction range 1."""
    if graph is None:
        length = int(rng.integers(3, 7))
        graph = Graph(length, [(i, i + 1) for i in range(length - 1)])
    hopping = {}
    for e in graph.edges:
        mag = rng.uniform(0.1, 1.0)
        phase = rng.uniform(0, 2 * math.pi)
        if rng.random() < 0.5:
            sched = PiecewiseConstant.constant(mag * complex(math.cos(phase), math.sin(phase)))
        else:
            t1 = rng.uniform(0.2, 0.8)
            v2 = rng.uniform(0.1, 1.0) * complex(math.cos(phase + 1), math.sin(phase + 1))
            sched = PiecewiseConstant((t1,), (mag * complex(math.cos(phase), math.sin(phase)), v2))
        hopping[e] = sched
    terms = []
    for v in graph.vertices():
        if rng.random() < 0.7:
            terms.append(onsite_density_interaction(v, float(rng.uniform(-2, 2))))
    for u, v in graph.edges:
        if rng.random() < 0.4:
            terms.append(Interaction(
                support=(u, v), monomials=((float(rng.uniform(-1, 1)), ((u, 1), (v, 1))),)))
    return ModelSpec(graph=graph, hopping=hopping, interactions=tuple(terms),
                     interaction_range=1)


# ---------------------------------------------------------------------------
# operators over a basis (SparseOp = scipy CSR; float64 unless an entry is complex)


def ladder_op(basis: FockBasis, site: int, kind: str) -> sp.csr_matrix:
    """Matrix of b_site (annihilate), b_site^dagger (create), or n_site (number).

    Raising transitions leaving the truncated basis are dropped, matching the
    projector-truncated Hamiltonian convention.
    """
    if not (0 <= site < basis.num_sites):
        raise ValueError(f"site {site} out of range")
    occ = basis.states[:, site].astype(np.int64)
    if kind == "number":
        return sp.csr_matrix(
            (occ.astype(np.float64), (np.arange(basis.dim), np.arange(basis.dim))),
            shape=(basis.dim, basis.dim))
    if kind == "annihilate":
        cols = np.where(occ >= 1)[0]
        step = -1
        amp = np.sqrt(occ[cols].astype(np.float64))
    elif kind == "create":
        cols = np.where(occ < basis.per_site_cap)[0]
        step = 1
        if basis.total_cap is not None:
            cols = cols[basis.totals[cols] < basis.total_cap]
        amp = np.sqrt(occ[cols].astype(np.float64) + 1.0)
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    shifted = basis.states[cols].astype(np.int64)
    shifted[:, site] += step
    rows = basis.lookup_rows(shifted)
    good = rows >= 0
    return sp.csr_matrix(
        (amp[good], (rows[good], cols[good])),
        shape=(basis.dim, basis.dim))


def total_number_op(basis: FockBasis) -> sp.csr_matrix:
    idx = np.arange(basis.dim)
    return sp.csr_matrix((basis.totals.astype(np.float64), (idx, idx)),
                         shape=(basis.dim, basis.dim))


def build_hamiltonian(model: ModelSpec, basis: FockBasis, t: float = 0.0) -> sp.csr_matrix:
    """Assemble H(t) = sum_edges J_xy(t) b+_x b_y + h.c. + sum_S U_S(n): t
    enters through the hopping alone.

    The forward and reverse hopping entries are emitted from the same float
    amplitude, so the matrix is Hermitian to the bit.  It is float64 when
    every hopping amplitude at t is real (then H is real symmetric), and
    complex128 otherwise.  H is written straight into CSR: the entries of
    each row are counted first, then filled edge by edge.  The diagonal is
    stored in full, zeros included, unless it vanishes everywhere.
    """
    if basis.num_sites != model.graph.num_vertices:
        raise ValueError("basis sites must match graph vertices")
    dim = basis.dim
    diag = np.zeros(dim, dtype=np.float64)
    occ_cols = {v: basis.states[:, v] for v in model.graph.vertices()}
    for term in model.interactions:
        diag += term.evaluate(occ_cols)
    has_diag = bool(np.any(diag != 0.0))

    hops = {edge: complex(sched.at(t)) for edge, sched in model.hopping.items()}
    if not any(j.imag for j in hops.values()):
        hops = {edge: j.real for edge, j in hops.items()}
    dtype = np.result_type(float, *hops.values())
    hops = {edge: j for edge, j in hops.items() if j != 0}
    cap = basis.per_site_cap

    def movable(src: int, dst: int) -> np.ndarray:
        """States from which a boson can hop src -> dst; it stays in the
        basis, as the hop keeps the total and dst stays within its cap."""
        return (basis.states[:, src] >= 1) & (basis.states[:, dst] < cap)

    # row r holds the diagonal, a reverse entry for each hop out of r and a
    # forward entry for each hop into it
    counts = np.full(dim, int(has_diag), dtype=np.int64)
    for x, y in hops:
        counts += movable(y, x)
        counts += movable(x, y)
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, dim) < 2 ** 31 else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    del counts
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=dtype)
    fill = indptr[:-1].copy()       # next free slot of each row
    if has_diag:
        indices[fill] = np.arange(dim, dtype=index)
        data[fill] = diag
        fill += 1
    del diag
    for (x, y), j in hops.items():
        # term j * b+_x b_y maps |n> -> sqrt(n_y (n_x + 1)) |n - e_y + e_x>
        cols = np.flatnonzero(movable(y, x))
        amp = np.sqrt(basis.states[cols, y] * (basis.states[cols, x] + 1.0))
        rows = basis.hopped_rows(cols, y, x)
        # each hop maps distinct states to distinct states, so neither
        # scatter writes one row twice
        for r, c, coeff in ((rows, cols, j), (cols, rows, np.conj(j))):
            slot = fill[r]
            indices[slot] = c
            data[slot] = coeff * amp
            fill[r] = slot + 1
        del cols, amp, rows, r, c, slot     # before the next edge allocates its own
    mat = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    mat.sum_duplicates()    # sorts each row; sums an edge given in both orientations
    return mat


def check_number_conservation(h: sp.spmatrix, n_op: sp.spmatrix) -> bool:
    """True iff H N - N H vanishes identically.

    Because N is diagonal with integer entries, the commutator entry at
    (m, n) is H_mn (N_n - N_m): it is exactly zero precisely when every
    stored hopping entry connects states of equal total occupation, so the
    check is structural rather than a float comparison.
    """
    if h.shape != n_op.shape:
        raise ValueError("operator shapes differ")
    diag = n_op.diagonal()
    coo = sp.coo_matrix(h)
    if coo.nnz == 0:
        return True
    active = coo.data != 0
    return not np.any(diag[coo.row[active]] != diag[coo.col[active]])
