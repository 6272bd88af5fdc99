"""Per-layer spans, recorded from outside the library.

``Tracer.install`` wraps public functions and methods of ``bosonlc`` in
place: every module attribute bound to the wrapped object is replaced, so a
function imported by name into other modules (``build_hamiltonian`` lives
in ``fock`` and is imported into ``dynamics``, ``certify`` and ``cluster``)
is traced wherever it is called.  A name that no longer exists is recorded
as absent and its metrics read 0.

Spans are kept in memory as ``[name, start, end, parent, rss_rise_kb]``
and written out by the caller when the run ends.  Every ``*_s`` layer
metric is self time: the span's duration minus the part of it its child
spans cover, summed over the spans of that layer.  Self times of all layers
plus ``trace.other_s`` add up to the traced wall time.

The span stack is a plain list: the benchmark runs the library with one
worker thread.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
import time

# (time metric, module, attribute path); several entries may share a metric
LAYERS = (
    ("fock.basis_s", "fock", "FockBasis.__init__"),
    ("fock.hamiltonian_s", "fock", "build_hamiltonian"),
    ("fock.ladder_s", "fock", "ladder_op"),
    ("dynamics.eig_s", "dynamics", "SectorEvolution.eig"),
    ("dynamics.engine_init_s", "dynamics", "HeisenbergScanEngine.__init__"),
    ("dynamics.evolved_blocks_s", "dynamics", "HeisenbergScanEngine.evolved_blocks"),
    ("dynamics.commutator_norm_s", "dynamics", "HeisenbergScanEngine.commutator_norm"),
    ("dynamics.evolved_operator_s", "dynamics", "HeisenbergScanEngine.evolved_operator"),
    ("dynamics.lightcone_self_s", "dynamics", "lightcone_scan"),
    ("dynamics.ground_state_s", "dynamics", "ground_state"),
    ("dynamics.correlation_s", "dynamics", "connected_correlation"),
    ("bounds.cell_bounds_s", "bounds", "ensemble_commutator_bound"),
    ("bounds.cell_bounds_s", "bounds", "matrix_element_bound"),
    ("bounds.integrate_envelope_s", "bounds", "integrate_envelope"),
    ("opspace.f_beta_s", "opspace", "f_beta_expectation"),
    ("opspace.to_matrix_s", "opspace", "MonomialOp.to_matrix"),
    ("opspace.norm_s", "opspace", "weighted_norm_sq"),
    ("certify.self_s", "certify", "certified_expectation"),
    ("cluster.self_s", "cluster", "clustering_experiment"),
    ("cli.config_s", "config", "load_config"),
    ("cli.config_s", "config", "apply_overrides"),
    ("cli.write_s", "cli", "_json_dump"),
    ("cli.write_s", "cli", "_write"),
)

# call counters and RSS rises: metric -> the time metric whose spans feed it
CALL_COUNTS = {
    "fock.ladder_calls": "fock.ladder_s",
    "dynamics.evolved_blocks_calls": "dynamics.evolved_blocks_s",
    "dynamics.commutator_norm_calls": "dynamics.commutator_norm_s",
    "opspace.f_beta_calls": "opspace.f_beta_s",
}
RSS_RISES = {
    "dynamics.engine_init_rss_mb": "dynamics.engine_init_s",
    "dynamics.evolved_operator_rss_mb": "dynamics.evolved_operator_s",
    "opspace.f_beta_rss_mb": "opspace.f_beta_s",
}


# counters read from each call: time metric -> (counter, combine, value of call)
RESULT_COUNTS = {
    "fock.basis_s": ("fock.basis_states", sum, lambda args, _: args[0].dim),
    "fock.hamiltonian_s": ("fock.hamiltonian_nnz", sum, lambda _, h: h.nnz),
    "dynamics.eig_s": ("dynamics.eig_max_dim", max, lambda _, eig: len(eig[0])),
    "dynamics.evolved_operator_s": ("dynamics.evolved_operator_nnz", sum,
                                    lambda _, op: op.mat.nnz),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its direct children's intervals.

    ``spans`` holds ``(name, start, end, parent, ...)`` records; ``parent``
    is the index of the enclosing span or -1.  Child intervals are clipped
    to the parent's, and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        out.append((end - start) - covered(children.get(i, []), start, end))
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics_from(spans, counts: dict, window: tuple[float, float]) -> dict:
    """All per-layer metrics of one traced run (counts and RSS included).

    A layer with no spans, because it was not called or its name is absent,
    reads 0.
    """
    metrics = {name: 0.0 for name, _, _ in LAYERS}
    metrics.update({name: 0 for name in CALL_COUNTS})
    metrics.update({name: 0.0 for name in RSS_RISES})
    metrics.update({name: 0 for name, _, _ in RESULT_COUNTS.values()})
    calls_of = {v: k for k, v in CALL_COUNTS.items()}
    rss_of = {v: k for k, v in RSS_RISES.items()}
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        metrics[name] += own
        if name in calls_of:
            metrics[calls_of[name]] += 1
        if name in rss_of:
            metrics[rss_of[name]] += span[4] / 1024.0
    metrics.update(counts)
    lo, hi = window
    top = [(s[1], s[2]) for s in spans if s[3] < 0]
    metrics["trace.other_s"] = (hi - lo) - covered(top, lo, hi)
    return metrics


class Tracer:
    """Wraps the library's layers and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, metric: str, fn):
        count = RESULT_COUNTS.get(metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [metric, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss = _maxrss_kb()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[4] = _maxrss_kb() - rss
                self._stack.pop()
            if count is not None:
                counter, combine, value_of = count
                self.counts[counter] = combine((self.counts.get(counter, 0),
                                                value_of(args, result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer in LAYERS wherever the library binds it."""
        importlib.import_module("bosonlc.cli")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bosonlc" or name.startswith("bosonlc."))]
        present = set()
        for metric, module_name, path in LAYERS:
            owner = sys.modules.get(f"bosonlc.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            present.add(metric)
            traced = self.wrap(metric, fn)
            if outer:
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, traced)
        self.absent = sorted(absent_metrics(present))

    def layer_metrics(self, ready: float, done: float) -> dict:
        return layer_metrics_from(self.spans, self.counts, (ready, done))


def absent_metrics(present) -> set[str]:
    """Metrics none of whose wrapped names exist, with the counters they feed."""
    missing = {metric for metric, _, _ in LAYERS} - set(present)
    derived = {**CALL_COUNTS, **RSS_RISES,
               **{counter: time_metric for time_metric, (counter, _, _)
                  in RESULT_COUNTS.items()}}
    return missing | {name for name, source in derived.items() if source in missing}
