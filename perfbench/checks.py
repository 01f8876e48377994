"""Output checks of the benchmark.

Each check compares the program's output with a computation done here,
apart from the code under test, or with a property the method must have.
None compares against a stored copy of earlier output.  A check returns
``None`` when it passes and a one-line reason when it fails.

(a) :func:`noiseless_circuit_check` -- with noise off, every detector and
    observable of a circuit reads 0 in the packed tableau simulator.
(b) :func:`detector_marginal_check` -- each detector's firing probability,
    computed here from the DEM's mechanisms, matches circuit-level
    ``frames`` samples.
(c) :func:`wilson_agreement_check` -- a per-basis logical error rate agrees
    with the same decoder on independently ``frames``-sampled shots.
(d) :func:`schedule_structure_check` -- a schedule holds every check of
    ``code.checks()`` exactly once, with no qubit used twice in one tick.
(e) the run compares the outputs of its repeated passes for equality.

:func:`single_fault_failures` is not a check but counted work: decoding
the syndrome of single faults of a DEM.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api import registries
from repro.circuits.memory import build_memory_experiment
from repro.sim.frames import FrameSampler
from repro.sim.tableau import simulate_circuit

__all__ = [
    "DETECTOR_Z_BOUND",
    "WILSON_Z",
    "detector_marginal_check",
    "detector_probabilities",
    "noiseless_circuit_check",
    "reference_error_rate",
    "schedule_structure_check",
    "single_fault_failures",
    "wilson_agreement_check",
    "wilson_interval",
]

#: Largest |z| allowed between a detector's DEM probability and its
#: frames-sampled frequency.  Over the few hundred detectors of a run a
#: correct program stays below 4 (3.3 is the largest seen on memory_d5 at
#: 20k shots); a bound of 6 keeps false alarms below one in a million runs
#: while any single mechanism off by 0.05 still reads |z| > 10.
DETECTOR_Z_BOUND = 6.0
#: Frames-sampled shots per basis for check (b).
MARGINAL_SHOTS = 20_000
#: Half-width, in standard scores, of each Wilson interval in check (c).
#: Two intervals of this width fail to overlap by chance less than once in
#: 40 000 comparisons.
WILSON_Z = 3.0
#: Tableau seeds per noiseless circuit in check (a): a broken measurement
#: gives a random outcome, so each extra seed halves the chance it hides.
NOISELESS_SEEDS = 4


def noiseless_circuit_check(code, schedule, *, rounds: int = 1, seed: int = 0) -> "str | None":
    """(a) Build both basis circuits with noise off and simulate them.

    The circuits are rebuilt here with ``scaled:p=0`` noise, so every
    detector compares two error-free measurements of one stabilizer and
    every observable two error-free readouts of one logical operator: all
    must read 0.  A schedule that does not measure its stabilizers leaves
    some of them random.
    """
    noiseless = registries.noise.build("scaled:p=0", code=code)
    for basis in ("Z", "X"):
        circuit = build_memory_experiment(
            code, schedule, noiseless, basis=basis, noisy_rounds=rounds
        ).circuit
        for offset in range(NOISELESS_SEEDS):
            _, detectors, observables = simulate_circuit(
                circuit, seed=seed * NOISELESS_SEEDS + offset, mode="packed"
            )
            fired = [index for index, value in enumerate(detectors) if value]
            flipped = [index for index, value in observables.items() if value]
            if fired or flipped:
                return (
                    f"noiseless basis-{basis} circuit: detectors {fired[:8]} "
                    f"and observables {flipped[:8]} read 1"
                )
    return None


def detector_probabilities(dem) -> np.ndarray:
    """Each detector's firing probability from the DEM's mechanism list.

    Independent mechanisms each flip their detectors with probability p;
    a detector fires when an odd number of its mechanisms do, which has
    probability ``(1 - prod(1 - 2p)) / 2``.
    """
    products = np.ones(dem.num_detectors)
    for mechanism in dem.mechanisms:
        for detector in mechanism.detectors:
            products[detector] *= 1.0 - 2.0 * mechanism.probability
    return (1.0 - products) / 2.0


def detector_marginal_check(circuit, dem, *, seed, shots: int = MARGINAL_SHOTS) -> "str | None":
    """(b) DEM detector probabilities vs circuit-level frames frequencies."""
    expected = detector_probabilities(dem)
    batch = FrameSampler(circuit).sample(shots, seed=seed)
    if batch.detectors.shape[1] != expected.size:
        return (
            f"circuit has {batch.detectors.shape[1]} detectors, "
            f"DEM has {expected.size}"
        )
    observed = batch.detectors.mean(axis=0)
    sigma = np.sqrt(expected * (1.0 - expected) / shots)
    silent = sigma == 0
    if np.any(observed[silent] != expected[silent]):
        return "a detector the DEM never fires fired in the frames samples"
    z = np.abs(observed[~silent] - expected[~silent]) / sigma[~silent]
    worst = float(z.max(initial=0.0))
    if worst > DETECTOR_Z_BOUND:
        return f"detector frequency off its DEM probability by |z|={worst:.1f}"
    return None


def wilson_interval(errors: int, shots: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval of a binomial rate."""
    if shots <= 0:
        return 0.0, 1.0
    rate = errors / shots
    denominator = 1.0 + z * z / shots
    centre = (rate + z * z / (2 * shots)) / denominator
    half = z * math.sqrt(rate * (1 - rate) / shots + z * z / (4 * shots * shots)) / denominator
    return centre - half, centre + half


def reference_error_rate(decoder_spec: str, circuit, dem, *, shots: int, seed) -> tuple[int, int]:
    """(errors, shots) of a freshly built decoder on frames-sampled shots."""
    decoder = registries.decoders.build(decoder_spec)(dem)
    batch = FrameSampler(circuit).sample(shots, seed=seed)
    predictions = decoder.decode_batch(batch.detectors)
    errors = int(np.count_nonzero((predictions != batch.observables).any(axis=1)))
    return errors, shots


def wilson_agreement_check(
    rate: float, shots: int, reference_errors: int, reference_shots: int
) -> "str | None":
    """(c) The program's rate and the reference rate have overlapping Wilson intervals."""
    low, high = wilson_interval(round(rate * shots), shots)
    ref_low, ref_high = wilson_interval(reference_errors, reference_shots)
    if high < ref_low or ref_high < low:
        return (
            f"rate {rate:.4f} over {shots} shots disagrees with "
            f"{reference_errors}/{reference_shots} on frames-sampled shots"
        )
    return None


def schedule_structure_check(code, schedule) -> "str | None":
    """(d) Every check of ``code.checks()`` once; no qubit twice in a tick.

    Reads the schedule's raw ``(check, tick)`` assignment and rebuilds the
    expected check list straight from the code, without the schedule's own
    validation.
    """
    expected = sorted(
        (stabilizer, qubit, letter)
        for stabilizer, checks in enumerate(code.checks())
        for qubit, letter in checks
    )
    scheduled = sorted(
        (check.stabilizer, check.data_qubit, check.pauli) for check in schedule.assignment
    )
    if scheduled != expected:
        return f"schedule holds {len(scheduled)} checks, code has {len(expected)} (or they differ)"
    busy: set[tuple[int, str, int]] = set()
    for check, tick in schedule.assignment.items():
        if tick < 1:
            return f"check {check} has tick {tick}"
        for key in ((tick, "data", check.data_qubit), (tick, "ancilla", check.stabilizer)):
            if key in busy:
                return f"{key[1]} qubit {key[2]} used twice in tick {tick}"
            busy.add(key)
    return None


def single_fault_failures(dem, decoder, stride: int = 1) -> tuple[int, int]:
    """Decode single-fault syndromes; count wrong observable predictions.

    A decoder given the syndrome of exactly one fault should predict that
    fault's observable flips.  Decodes the syndrome of every ``stride``-th
    mechanism and returns ``(decodes, wrong)``.
    """
    mechanisms = dem.mechanisms[::stride]
    syndromes = np.zeros((len(mechanisms), dem.num_detectors), dtype=np.uint8)
    expected = np.zeros((len(mechanisms), dem.num_observables), dtype=np.uint8)
    for row, mechanism in enumerate(mechanisms):
        syndromes[row, list(mechanism.detectors)] = 1
        expected[row, list(mechanism.observables)] = 1
    predictions = decoder.decode_batch(syndromes)
    return len(mechanisms), int(np.count_nonzero((predictions != expected).any(axis=1)))
