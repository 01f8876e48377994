"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload memory_d5 --seed 3 --seconds 20 --trace 0

A run makes its inputs from ``--seed`` (:mod:`workloads`), then repeats
*rounds* for about ``--seconds``, at least two.  A round is one timed pass
(a full synthesis or a full ``Pipeline.run()``) plus, on ``memory_d5`` and
``bb72_bposd``, the single-fault sweep.  After the rounds it runs the
output checks (:mod:`checks`) on the last pass and compares the passes
with each other.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 8430, "failed": 390, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``peak_rss_mb`` (peak resident memory once the passes are done)
and ``setup_s`` (the median time from start to inputs ready of fresh
interpreters, three started before each round and three after the last).
``--trace 1`` runs exactly two rounds -- an untraced pass, then a traced
pass -- and reports the per-layer metrics of :class:`tracing.Tracer`.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# workloads goes first: it puts the checkout's src/ on sys.path.
from workloads import WORKLOADS, prepare, registries, run_pass

import checks
from repro.circuits.memory import build_memory_experiment
from repro.scheduling.baselines import lowest_depth_schedule
from repro.seeding import stage_seed
from repro.sim.dem import build_detector_error_model
from repro.sim.estimator import estimate_logical_error_rates
from tracing import Tracer

HERE = Path(__file__).resolve().parent

#: Fresh interpreters started before each round, and after the last, to
#: time set-up.  Spreading them over the run makes their median follow the
#: machine's average speed rather than its speed at one moment.
SETUP_PROBES = 3
#: Seconds a set-up probe may take before it counts as hung.
SETUP_TIMEOUT = 120
#: Fewest timed passes per run; check (e) compares them.
MIN_PASSES = 2


@dataclass
class Round:
    """One round's outcome: its pass's output signature, time and counted work."""

    signature: tuple
    seconds: float
    attempted: int
    failed: int


def setup_seconds(workload: str, seed: int) -> "list[float]":
    """Times from interpreter start to inputs ready of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT,
            check=True,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]) - started)
    return samples


def pass_signature(pipeline) -> tuple:
    """Everything a pass outputs that must repeat exactly (check e)."""
    synthesis = pipeline.synthesis
    rates = synthesis.rates if synthesis is not None else pipeline.rates
    signature = (
        rates.error_x,
        rates.error_z,
        rates.depth,
        tuple(sorted((c.stabilizer, c.data_qubit, c.pauli, t)
                     for c, t in pipeline.schedule.assignment.items())),
    )
    if synthesis is not None:
        signature += (
            synthesis.baseline_rates.error_x,
            synthesis.baseline_rates.error_z,
            synthesis.evaluations,
        )
    return signature


def run_round(workload, spec, tracer=None):
    """Run one timed pass (optionally traced), then the round's counted work.

    Returns the :class:`Round` and the pass's pipeline.
    """
    gc.collect()
    if tracer is None:
        started = time.perf_counter()
        pipeline = run_pass(spec)
        seconds = time.perf_counter() - started
    else:
        with tracer.installed():
            started = time.perf_counter()
            pipeline = run_pass(spec)
            seconds = time.perf_counter() - started
    attempted, failed = 1, 0
    if workload.sweep_stride:
        factory = registries.decoders.build(spec.decoder)
        for dem in pipeline.dem.values():
            decodes, wrong = checks.single_fault_failures(dem, factory(dem), workload.sweep_stride)
            attempted += decodes
            failed += wrong
    return Round(pass_signature(pipeline), seconds, attempted, failed), pipeline


def run_checks(workload, spec, pipeline, rounds) -> "list[tuple[str, str | None]]":
    """Checks (a)-(e) on the last pass and the rounds: ``[(name, failure or None)]``."""
    code, noise, seed = pipeline.code, pipeline.noise, spec.seed
    synthesis = pipeline.synthesis
    if synthesis is not None:
        schedules = {
            "synthesized": synthesis.schedule,
            "depth-optimal": lowest_depth_schedule(code, partitions=synthesis.partitions),
        }
        circuits = {
            basis: build_memory_experiment(code, synthesis.schedule, noise, basis=basis).circuit
            for basis in ("Z", "X")
        }
        dems = {basis: build_detector_error_model(circuit) for basis, circuit in circuits.items()}
        rates, rate_shots = synthesis.rates, spec.budget.synthesis_shots
    else:
        schedules = {spec.scheduler: pipeline.schedule}
        circuits, dems = pipeline.circuit, pipeline.dem
        rates, rate_shots = pipeline.rates, spec.budget.shots

    results = []
    for name, schedule in schedules.items():
        results.append((f"(a) noiseless {name}", checks.noiseless_circuit_check(
            code, schedule, rounds=spec.rounds, seed=seed)))
    # Check streams are children of (seed, tag): apart from the run's own streams.
    marginal_streams = np.random.SeedSequence([seed, 0xB]).spawn(2)
    for basis, stream in zip(("Z", "X"), marginal_streams):
        results.append((f"(b) detector marginals basis {basis}", checks.detector_marginal_check(
            circuits[basis], dems[basis], seed=stream)))
    basis_rates = {"Z": rates.error_x, "X": rates.error_z}
    wilson_streams = np.random.SeedSequence([seed, 0xC]).spawn(2)
    for basis, stream in zip(("Z", "X"), wilson_streams):
        errors, shots = checks.reference_error_rate(
            spec.decoder, circuits[basis], dems[basis], shots=workload.check_shots, seed=stream)
        results.append((f"(c) Wilson agreement basis {basis}", checks.wilson_agreement_check(
            basis_rates[basis], rate_shots, errors, shots)))
    for name, schedule in schedules.items():
        results.append((f"(d) structure {name}", checks.schedule_structure_check(code, schedule)))
    if synthesis is not None:
        fresh = estimate_logical_error_rates(
            code, synthesis.schedule, noise, registries.decoders.build(spec.decoder),
            shots=spec.budget.synthesis_shots, seed=stage_seed(seed, "synthesis"),
        )
        same = (fresh.error_x, fresh.error_z) == (rates.error_x, rates.error_z)
        results.append(("(d) rates re-estimated",
                        None if same else f"fresh estimate {fresh} != synthesis {rates}"))
    distinct = len({done.signature for done in rounds})
    results.append(("(e) passes identical", None if distinct == 1
                    else f"{distinct} different outputs over {len(rounds)} passes"))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = prepare(args.workload, args.seed)
    workload = WORKLOADS[args.workload]

    metrics: dict[str, tuple[float, str]] = {}
    rounds: list[Round] = []
    if args.trace:
        tracer = Tracer()
        for active in (None, tracer):
            pipeline = None  # free the previous pass before the next one
            done, pipeline = run_round(workload, spec, active)
            rounds.append(done)
        metrics.update(tracer.metrics(rounds[1].seconds, rounds[0].seconds))
        for counter in ("sim.dem_py_calls", "decoders.py_calls"):
            metrics[counter] = (tracer.python_calls(counter), "count")
    else:
        setup: list[float] = []
        started = time.perf_counter()
        # Stop before a pass that would likely end past --seconds.
        while len(rounds) < MIN_PASSES or (
            time.perf_counter() - started + statistics.median(r.seconds for r in rounds)
            <= args.seconds
        ):
            setup += setup_seconds(args.workload, args.seed)
            pipeline = None  # free the previous pass before the next one
            done, pipeline = run_round(workload, spec)
            rounds.append(done)
        setup += setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["wall_s"] = (statistics.median(r.seconds for r in rounds), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")

    results = run_checks(workload, spec, pipeline, rounds)
    for index, done in enumerate(rounds):
        print(f"pass {index}: {done.seconds:.3f} s, {done.failed}/{done.attempted} operations failed")
    if pipeline.synthesis is not None:
        print(f"synthesized: {pipeline.synthesis.rates}; "
              f"depth-optimal: {pipeline.synthesis.baseline_rates}")
    else:
        print(f"rates: {pipeline.rates}")
    for name, failure in results:
        print(f"{'FAIL' if failure else 'ok  '} {name}" + (f": {failure}" if failure else ""))
    print(json.dumps({
        "correct": all(failure is None for _, failure in results),
        "attempted": sum(done.attempted for done in rounds),
        "failed": sum(done.failed for done in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
