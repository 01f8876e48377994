"""Per-layer tracing installed from outside the library.

:class:`Tracer` wraps the public functions each layer exposes, at the
module attribute the *calling* module looks them up through, and restores
the originals when its context exits.  Nothing under ``src/`` is edited:
an untraced run executes the library exactly as users do.

Spans record ``perf_counter`` intervals per layer; nested spans (a DEM
build inside a synthesis estimate) are kept apart so that ``api.glue_s``
is the traced wall time minus the outermost spans.  Counters are taken at
the same boundaries.  The tracer's own bookkeeping (deduplicating
syndromes to report ``unique_ratio``, for instance) is subtracted from
every span it runs inside and from the glue time.

``trace.overhead_s`` (traced minus untraced pass) is what the traced run
costs end to end, but with one pass per side it mostly shows how the
machine's speed changed between the two passes.  ``trace.self_s`` is the
tracer's own cost measured directly: its bookkeeping time plus its wrapper
calls times the cost of one wrapped call, calibrated once per run.

The tracer also keeps the inputs of the first DEM build and the first
decode call of its pass.  :meth:`Tracer.python_calls` replays each once,
after the pass, under a C-level profiler and counts the Python function
calls it makes.  Those counts repeat exactly for a given input.  Replaying
after the pass keeps the profiler out of the timed spans; replaying only
the first call keeps its cost (about four times the call's own time) to
one DEM build, which is what keeps a traced ``bb72_bposd`` run inside the
benchmark's time limit.
"""

from __future__ import annotations

import cProfile
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

import repro.api.pipeline
import repro.core.evaluator
import repro.parallel
import repro.sim.estimator
from repro.api import registries
from repro.sim.bitops import pack_rows, popcount

__all__ = ["Tracer"]

#: MWPM matches defect sets up to this size by enumeration and larger ones
#: with networkx blossom (``repro.decoders.matching._ENUM_MAX_DEFECTS``).
BLOSSOM_ABOVE = 8


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.outer_seconds = 0.0
        self.bookkeeping_seconds = 0.0
        #: Calls into the tracer's wrappers.
        self.calls = 0
        self._depth = 0
        self._in_evaluate_many = 0
        #: counter name -> (function, args) of the first call, for replay.
        self._first_calls: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Time one layer call."""
        self.calls += 1
        self._depth += 1
        bookkept = self.bookkeeping_seconds
        start = time.perf_counter()
        try:
            yield
        finally:
            # Bookkeeping done inside a nested wrapper is the tracer's, not the layer's.
            elapsed = time.perf_counter() - start - (self.bookkeeping_seconds - bookkept)
            self._depth -= 1
            self.seconds[name] += elapsed
            if self._depth == 0:
                self.outer_seconds += elapsed

    @contextmanager
    def bookkeeping(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.bookkeeping_seconds += time.perf_counter() - start

    def python_calls(self, counter: str) -> int:
        """Replay the first call recorded for ``counter``; count its Python calls."""
        if counter not in self._first_calls:
            return 0
        function, args = self._first_calls[counter]
        profiler = cProfile.Profile(builtins=False)
        profiler.runcall(function, *args)
        return sum(entry.callcount for entry in profiler.getstats())

    # ------------------------------------------------------------------
    # Wrappers, one per layer boundary
    # ------------------------------------------------------------------
    def _schedulers_build(self, original):
        def build(spec, **extra):
            with self.span("core.synthesis"):
                return original(spec, **extra)

        return build

    def _estimate(self, original):
        def estimate_logical_error_rates(*args, **kwargs):
            self.counts["core.estimates"] += 1
            with self.span("core.estimate"):
                return original(*args, **kwargs)

        return estimate_logical_error_rates

    def _evaluate_many(self, original):
        tracer = self

        def evaluate_many(self, schedules):
            tracer.calls += 1
            tracer.counts["core.rollouts"] += len(schedules)
            tracer.counts["core.lookups"] += len(schedules)
            tracer._in_evaluate_many += 1
            try:
                return original(self, schedules)
            finally:
                tracer._in_evaluate_many -= 1

        return evaluate_many

    def _evaluate(self, original):
        tracer = self

        def evaluate(self, schedule):
            # evaluate_many only forwards cache misses; its lookups are
            # counted there.
            tracer.calls += 1
            if not tracer._in_evaluate_many:
                tracer.counts["core.lookups"] += 1
            return original(self, schedule)

        return evaluate

    def _build_circuit(self, original):
        def build_memory_experiment(*args, **kwargs):
            with self.span("circuits.build"):
                experiment = original(*args, **kwargs)
            self.counts["circuits.builds"] += 1
            self.counts["circuits.instructions"] += len(experiment.circuit.instructions)
            return experiment

        return build_memory_experiment

    def _build_dem(self, original):
        def build_detector_error_model(circuit):
            self._first_calls.setdefault("sim.dem_py_calls", (original, (circuit,)))
            with self.span("sim.dem_build"):
                dem = original(circuit)
            self.counts["sim.dem_builds"] += 1
            self.counts["sim.dem_mechanisms"] += dem.num_mechanisms
            return dem

        return build_detector_error_model

    def _sample(self, original, *, chunked: bool):
        def sample_detector_error_model(dem, shots, *args, **kwargs):
            with self.span("sim.sample"):
                batch = original(dem, shots, *args, **kwargs)
            self.counts["sim.sampled_shots"] += batch.num_shots
            if chunked:
                self.counts["parallel.chunks"] += 1
            return batch

        return sample_detector_error_model

    def _decoder_build(self, original):
        def build(spec, **extra):
            self.calls += 1
            factory = original(spec, **extra)

            def traced_factory(dem):
                self.counts["decoders.constructs"] += 1
                with self.span("decoders.construct"):
                    return factory(dem)

            return traced_factory

        return build

    def _decode(self, original):
        def decode_predictions(decoder, batch):
            with self.bookkeeping():
                packed = batch.packed_detectors
                if packed is None:
                    packed = pack_rows(batch.detectors)
                unique = np.unique(packed, axis=0) if packed.shape[0] else packed
                defects = popcount(unique).sum(axis=1, dtype=np.int64)
                self.counts["decoders.decoded_shots"] += batch.num_shots
                self.counts["decoders.unique_syndromes"] += unique.shape[0]
                self.counts["decoders.defects"] += int(defects.sum())
                self.counts["decoders.over8_syndromes"] += int(
                    np.count_nonzero(defects > BLOSSOM_ABOVE)
                )
            self._first_calls.setdefault("decoders.py_calls", (original, (decoder, batch)))
            with self.span("decoders.decode"):
                return original(decoder, batch)

        return decode_predictions

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        patches = [
            (registries.schedulers, "build", self._schedulers_build),
            (registries.decoders, "build", self._decoder_build),
            (repro.core.evaluator, "estimate_logical_error_rates", self._estimate),
            (repro.core.evaluator.ScheduleEvaluator, "evaluate_many", self._evaluate_many),
            (repro.core.evaluator.ScheduleEvaluator, "evaluate", self._evaluate),
            (repro.sim.estimator, "build_memory_experiment", self._build_circuit),
            (repro.api.pipeline, "build_memory_experiment", self._build_circuit),
            (repro.sim.estimator, "build_detector_error_model", self._build_dem),
            (repro.api.pipeline, "build_detector_error_model", self._build_dem),
            (repro.sim.estimator, "sample_detector_error_model",
             lambda original: self._sample(original, chunked=False)),
            (repro.parallel, "sample_detector_error_model",
             lambda original: self._sample(original, chunked=True)),
            (repro.sim.estimator, "decode_predictions", self._decode),
            (repro.parallel, "decode_predictions", self._decode),
        ]
        with ExitStack() as stack:
            for owner, attribute, wrap in patches:
                stack.enter_context(_patched(owner, attribute, wrap))
            yield self

    # ------------------------------------------------------------------
    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        seconds, counts = self.seconds, self.counts
        lookups = counts["core.lookups"]
        unique = counts["decoders.unique_syndromes"]
        decode_s = seconds["decoders.decode"]
        return {
            "core.synthesis_s": (seconds["core.synthesis"], "s"),
            "core.mcts_self_s": (seconds["core.synthesis"] - seconds["core.estimate"], "s"),
            "core.rollouts": (counts["core.rollouts"], "count"),
            "core.estimates": (counts["core.estimates"], "count"),
            "core.cache_hit_ratio": (
                (lookups - counts["core.estimates"]) / lookups if lookups else 0.0,
                "fraction",
            ),
            "circuits.build_s": (seconds["circuits.build"], "s"),
            "circuits.builds": (counts["circuits.builds"], "count"),
            "circuits.instructions": (counts["circuits.instructions"], "count"),
            "sim.dem_build_s": (seconds["sim.dem_build"], "s"),
            "sim.dem_builds": (counts["sim.dem_builds"], "count"),
            "sim.dem_mechanisms": (counts["sim.dem_mechanisms"], "count"),
            "sim.sample_s": (seconds["sim.sample"], "s"),
            "sim.sampled_shots": (counts["sim.sampled_shots"], "count"),
            "decoders.construct_s": (seconds["decoders.construct"], "s"),
            "decoders.constructs": (counts["decoders.constructs"], "count"),
            "decoders.decode_s": (decode_s, "s"),
            "decoders.decoded_shots": (counts["decoders.decoded_shots"], "count"),
            "decoders.shots_per_s": (
                counts["decoders.decoded_shots"] / decode_s if decode_s else 0.0,
                "1/s",
            ),
            "decoders.unique_ratio": (
                unique / counts["decoders.decoded_shots"] if unique else 0.0,
                "fraction",
            ),
            "decoders.defects_mean": (
                counts["decoders.defects"] / unique if unique else 0.0,
                "count",
            ),
            "decoders.over8_syndromes": (counts["decoders.over8_syndromes"], "count"),
            "parallel.chunks": (counts["parallel.chunks"], "count"),
            "api.glue_s": (
                traced_wall - self.outer_seconds - self.bookkeeping_seconds,
                "s",
            ),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.self_s": (
                self.bookkeeping_seconds + self.calls * wrapped_call_seconds(),
                "s",
            ),
        }


def wrapped_call_seconds(calls: int = 100_000) -> float:
    """Measured cost of one wrapped call: an extra frame, a counter and a span."""
    probe = Tracer()

    def wrapped():
        probe.counts["calibration"] += 1
        with probe.span("calibration"):
            return None

    started = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - started) / calls


@contextmanager
def _patched(owner, attribute: str, wrap):
    """Replace ``owner.attribute`` by ``wrap(original)`` for the block."""
    had_own = attribute in vars(owner)
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrap(original))
    try:
        yield
    finally:
        if had_own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)
