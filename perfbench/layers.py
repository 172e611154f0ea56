"""Wrap the program's public layer entry points with tracer spans.

:class:`Instrumentation` replaces each entry point at every place the
program reaches it — a class attribute for methods, and every loaded
``repro`` module that holds a module-level function under its name —
and restores the originals on :meth:`Instrumentation.remove`.  The
wrappers only time and count; arguments and return values pass through
untouched, so results are identical with tracing on and off.

Span names are ``<layer>.<part>`` with the layer named after the
``repro`` package that owns the code (``campaigns``, ``experiments``,
``dna``, ``chip``, ``engine``, ``neuro``, ``wafer``, ``service``,
``inference``).
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Callable, Iterator, Optional

from .tracing import Tracer

#: Span-name prefixes that count as a named layer of the program.
LAYERS = (
    "campaigns",
    "experiments",
    "dna",
    "chip",
    "engine",
    "neuro",
    "wafer",
    "service",
    "inference",
)


def is_layer_span(name: str) -> bool:
    return name.split(".", 1)[0] in LAYERS


def _timed_iter(tracer: Tracer, name: str, iterator: Iterator) -> Iterator:
    """Yield from ``iterator``, timing each step as one span."""
    while True:
        with tracer.span(name):
            try:
                item = next(iterator)
            except StopIteration:
                return
        yield item


class Instrumentation:
    """Installs and removes the benchmark's wrappers around ``repro``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Patching primitives
    # ------------------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _timed(
        self, name: str, func: Callable, after: Optional[Callable] = None
    ) -> Callable:
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = func(*args, **kwargs)
            if after is not None and tracer.enabled:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def method(
        self, cls: type, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        self._set(cls, attr, self._timed(name, cls.__dict__[attr], after))

    def function(
        self, module: Any, attr: str, name: str, after: Optional[Callable] = None
    ) -> None:
        """Wrap ``module.attr`` and every ``repro`` module that imported it."""
        original = getattr(module, attr)
        wrapper = self._timed(name, original, after)
        for module_name, loaded in list(sys.modules.items()):
            if not module_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, wrapper)

    def iterator_method(self, cls: type, attr: str, name: str) -> None:
        """Wrap a method returning an iterator: each step is one span
        (argument validation in the call itself stays untimed)."""
        original = cls.__dict__[attr]
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator:
            return _timed_iter(tracer, name, original(*args, **kwargs))

        self._set(cls, attr, wrapper)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # The layer map
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.campaigns import store
        from repro.campaigns.batched import BATCH_COMPILERS, BatchedExecutor
        from repro.campaigns.executors import SerialExecutor
        from repro.campaigns.spec import CampaignSpec
        from repro.chip import readout
        from repro.chip.dna_chip import DnaMicroarrayChip
        from repro.dna.assay import MicroarrayAssay
        from repro.engine import kernels, neuro_kernels
        from repro.engine.vchip import VectorizedDnaChip
        from repro.engine.vneuro import VectorizedNeuroChip
        from repro.experiments import workloads
        from repro.experiments.runner import Runner
        from repro.service import keys
        from repro.service.cache import ResultCache
        from repro.service.jobs import JobManager
        from repro.wafer import evaluate

        tracer = self.tracer
        count = tracer.count

        # campaigns: plan, executors, batch compilers, stores
        self.method(CampaignSpec, "compile", "campaigns.plan.compile")
        self.iterator_method(SerialExecutor, "run", "campaigns.executor")
        self.iterator_method(BatchedExecutor, "run", "campaigns.executor")
        for kind, compiler in list(BATCH_COMPILERS.items()):
            self._set(BATCH_COMPILERS, kind, self._batch_compiler(compiler))
        for cls in (store.MemoryResultStore, store.JsonlResultStore):
            self.method(cls, "add", "campaigns.store.add")

        def store_bytes(result: Any, sink: Any, manifest: Any) -> None:
            for name in (sink.RESULTS_NAME, sink.MANIFEST_NAME):
                count("campaigns.store.bytes", os.path.getsize(sink.root / name))

        self.method(store.JsonlResultStore, "finalize", "campaigns.store.finalize", store_bytes)

        # experiments: the Runner and substrate provisioning
        self.method(Runner, "run", "experiments.run")
        self._set(Runner, "_provision", self._provision(Runner.__dict__["_provision"]))

        # dna: hybridization chemistry
        self.method(
            MicroarrayAssay,
            "run",
            "dna.assay",
            lambda result, *a, **k: count("dna.assay.sites", len(result.sites)),
        )

        # chip: object and vectorized chip models, serial readout
        for cls in (DnaMicroarrayChip, VectorizedDnaChip):
            self.method(cls, "auto_calibrate", "chip.calibrate")
            self.method(cls, "measure_assay", "chip.measure")

        def readout_counts(outcome: Any, *args: Any, **kwargs: Any) -> None:
            count("chip.readout.retries", outcome.retries)
            count("chip.readout.frames_corrupted", outcome.frames_corrupted)

        self.function(readout, "read_counters_resilient", "chip.readout", readout_counts)

        # engine: ADC kernels, HH integration, frame synthesis
        self.function(
            kernels,
            "count_in_frame",
            "engine.adc",
            lambda counts, *a, **k: count("engine.adc.sites", int(counts.size)),
        )
        self.function(
            neuro_kernels,
            "hh_batch",
            "engine.hh",
            lambda hh, *a, **k: count("engine.hh.neuron_steps", int(hh.membrane_v.size)),
        )
        for attr in ("movie_from_tables", "output_movie"):
            self.method(VectorizedNeuroChip, attr, "engine.frames")

        # neuro: spike detection and scoring
        self.function(workloads, "neural_records_and_metrics", "neuro.detect")

        # wafer: tiled wafer evaluation
        self.function(evaluate, "wafer_records_and_metrics", "wafer.evaluate")
        tiles = evaluate._tiles

        def counted_tiles(*args: Any, **kwargs: Any) -> Iterator:
            for tile in tiles(*args, **kwargs):
                count("wafer.tiles")
                yield tile

        self._set(evaluate, "_tiles", counted_tiles)

        # service: content keys, the result cache, the job worker
        self.function(keys, "point_key", "service.keys")
        self._set(ResultCache, "get", self._cache_get(ResultCache.__dict__["get"]))

        def cache_bytes(result: Any, cache: Any, key: str, *args: Any, **kwargs: Any) -> None:
            if cache.root is not None:
                count("service.cache.bytes_written", os.path.getsize(cache._entry_path(key)))

        self.method(ResultCache, "put", "service.cache.put", cache_bytes)
        self.method(JobManager, "_execute", "service.jobs.execute")

        # inference: campaign analyses
        self.method(store.CampaignResult, "analyze", "inference.analyze")

    def _batch_compiler(self, compiler: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(compiler)
        def wrapper(points: list, backend: str) -> Iterator[list]:
            for chunk in _timed_iter(tracer, "campaigns.batched", compiler(points, backend)):
                tracer.count("campaigns.batched.points", len(chunk))
                yield chunk

        return wrapper

    def _provision(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(runner: Any, cache_name: str, key: str, factory: Callable,
                    cacheable: bool = True, counter: str = "chips") -> Any:
            def build() -> Any:
                with tracer.span("experiments.provision"):
                    built = factory()
                if counter == "chips":
                    tracer.count("experiments.provision.chips_built")
                return built

            return original(runner, cache_name, key, build, cacheable, counter)

        return wrapper

    def _cache_get(self, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(cache: Any, key: str) -> Any:
            corrupt = cache.stats.corrupt
            with tracer.span("service.cache.get"):
                result = original(cache, key)
            tracer.count("service.cache.hits" if result is not None else "service.cache.misses")
            tracer.count("service.cache.verify_failures", cache.stats.corrupt - corrupt)
            return result

        return wrapper
