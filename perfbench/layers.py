"""Per-layer timing of ``repro`` from outside its source.

A :class:`LayerTracer` replaces public entry points of the library —
module functions and class methods, including the names
``core/framework.py`` and ``core/streaming.py`` import directly — with
wrappers that open a :class:`repro.obs.span` named after the layer.
Using the program's own span primitive puts the wrappers on the same
per-thread span stack as the spans the program already records
(``fit.*``, ``extend.*``), so every wrapper knows the span it runs
inside.  On exit a wrapper adds its wall time to
``bench_child_seconds_total{span=<enclosing span>}``; the *self* time of
any span is then its ``repro_span_seconds_total`` minus that child
total.  Self times of different layers never overlap, which is what
lets a workload's layer seconds add up to its end-to-end time.

Everything is recorded into the default metrics registry, resolved at
call time: a traced window wraps its operations in
:func:`repro.obs.capture_metrics`, and process-pool workers (which fork
with the wrappers installed) ship their records home through the
pool's snapshot/merge protocol.

Wrappers do nothing but call through while ``enabled`` is false, so a
run can alternate traced and untraced operations on one warm process.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import obs

def _count_shortlists(args, result) -> dict[str, float]:
    indptr, clusters = result
    lengths = np.diff(indptr)
    return {
        "rows_queried": float(len(lengths)),
        "empty_rows": float(np.count_nonzero(lengths == 0)),
        "shortlisted": float(len(clusters)),
    }


def _count_scored(args, result) -> dict[str, float]:
    # best_shortlisted_centroids(model, block, candidates, sizes, centroids)
    return {"candidates_scored": float(len(args[2]))}


def _count_fallback(args, result) -> dict[str, float]:
    # best_centroids_full_scan(model, X, centroids)
    return {"fallback_rows": float(len(args[1]))}


def entry_points() -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, layer, counter)`` for every wrapped name.

    One layer may be wrapped at several import sites; each site that
    still exists is patched, so a call is timed whichever name it goes
    through.
    """
    from repro import kernels
    from repro.core import framework, mh_kmodes, shortlist, streaming
    from repro.core.framework import BaseLSHAcceleratedClustering
    from repro.core.streaming import ClusterModeTracker, StreamingMHKModes
    from repro.engine import parallel
    from repro.lsh.index import BaseClusteredIndex
    from repro.resilience.queue import AdmissionQueue
    from repro.serve import service
    from repro.serve.server import ModelServer

    return [
        (kernels, "minhash_signatures", "kernels.minhash", None),
        (kernels, "count_update", "kernels.count_update", None),
        (BaseClusteredIndex, "shortlists_for_signatures", "lsh.shortlist",
         _count_shortlists),
        (BaseClusteredIndex, "insert_batch", "lsh.insert", None),
        (parallel, "best_shortlisted_centroids", "engine.score", _count_scored),
        (framework, "best_shortlisted_centroids", "engine.score", _count_scored),
        (streaming, "best_shortlisted_centroids", "engine.score", _count_scored),
        (shortlist, "best_centroids_full_scan", "core.fallback", _count_fallback),
        (framework, "best_centroids_full_scan", "core.fallback", _count_fallback),
        (streaming, "best_centroids_full_scan", "core.fallback", _count_fallback),
        (mh_kmodes, "compute_modes", "core.modes", None),
        (mh_kmodes, "clustering_cost", "core.cost", None),
        (ClusterModeTracker, "add_batch", "core.tracker", None),
        (StreamingMHKModes, "refresh_modes", "core.refresh", None),
        (BaseLSHAcceleratedClustering, "predict", "core.predict", None),
        (ModelServer, "from_path", "api.load", None),
        (ModelServer, "predict", "serve.predict", None),
        (ModelServer, "extend", "serve.extend", None),
        (service, "handle_request", "serve.handle", None),
        (AdmissionQueue, "submit", "resilience.submit", None),
    ]


class LayerTracer:
    """Installs, toggles and removes the layer wrappers."""

    def __init__(self) -> None:
        self.enabled = False
        self.missing: list[str] = []
        #: The index object the last traced ``lsh.*`` call ran on, so
        #: bucket statistics come from whatever index the program uses.
        self.last_index = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attribute, layer, counter in entry_points():
            raw = (
                owner.__dict__.get(attribute)
                if isinstance(owner, type)
                else getattr(owner, attribute, None)
            )
            if raw is None:
                # The name moved; the zero-call check of the layer
                # decides whether the workload lost coverage.
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, layer, counter))
            else:
                wrapped = self._wrap(raw, layer, counter)
            setattr(owner, attribute, wrapped)
            self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        for owner, attribute, raw in reversed(self._patches):
            setattr(owner, attribute, raw)
        self._patches.clear()

    def _wrap(self, fn, layer: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with obs.span(layer) as active:
                result = fn(*args, **kwargs)
            if layer.startswith("lsh."):
                tracer.last_index = args[0]
            registry = obs.metrics()
            if active.parent is not None:
                registry.counter(
                    "bench_child_seconds_total",
                    labels={"span": active.parent.name},
                ).inc(active.wall_s)
            if counter is not None:
                for name, value in counter(args, result).items():
                    registry.counter(
                        "bench_count_total", labels={"count": name}
                    ).inc(value)
            return result

        return wrapper


class LayerReading:
    """Read-side helpers over one traced window's registry."""

    def __init__(self, registry: obs.MetricsRegistry) -> None:
        self.registry = registry

    def total(self, span: str) -> float:
        return self.registry.value("repro_span_seconds_total", {"span": span}) or 0.0

    def calls(self, span: str) -> int:
        return int(self.registry.value("repro_span_calls_total", {"span": span}) or 0)

    def self_time(self, span: str) -> float:
        child = self.registry.value("bench_child_seconds_total", {"span": span}) or 0.0
        return self.total(span) - child

    def count(self, name: str) -> float:
        return self.registry.value("bench_count_total", {"count": name}) or 0.0
