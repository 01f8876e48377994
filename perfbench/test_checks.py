"""The benchmark's output checks fail on broken outputs.

Each check is run on a correct output (it must pass) and on a deliberately
broken one (it must fail), on small surface-code inputs so the file runs
in seconds:

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from repro.api import registries  # noqa: E402
from repro.circuits.memory import build_memory_experiment  # noqa: E402
from repro.decoders.lookup import LookupDecoder  # noqa: E402
from repro.scheduling.schedule import PauliCheck, Schedule  # noqa: E402
from repro.sim.dem import build_detector_error_model  # noqa: E402
from repro.sim.estimator import fraction_wrong  # noqa: E402
from repro.sim.sampler import sample_detector_error_model  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def surface():
    code = registries.codes.build("surface:d=3")
    noise = registries.noise.build("brisbane", code=code)
    schedule = registries.schedulers.build("lowest_depth", code=code)
    circuit = build_memory_experiment(code, schedule, noise, basis="Z").circuit
    return code, schedule, circuit, build_detector_error_model(circuit)


def sequential_schedule(code) -> Schedule:
    """Each stabilizer measured alone, one after another: always valid."""
    schedule = Schedule(code)
    tick = 0
    for stabilizer, stabilizer_checks in enumerate(code.checks()):
        for qubit, letter in stabilizer_checks:
            tick += 1
            schedule.assignment[PauliCheck(stabilizer, qubit, letter)] = tick
    return schedule


def crossed_schedule(code) -> Schedule:
    """A sequential schedule with one CNOT moved so two stabilizers cross.

    Stabilizers ``a`` and ``b`` anticommute qubit-wise on two shared
    qubits.  Moving ``a``'s check on the second of them after all of
    ``b`` makes ``a`` precede ``b`` on one qubit and follow it on the
    other: an odd crossing, so neither stabilizer is measured.
    """
    schedule = sequential_schedule(code)
    letters = [dict(stabilizer_checks) for stabilizer_checks in code.checks()]
    for a, first in enumerate(letters):
        for b in range(a + 1, len(letters)):
            crossing = sorted(q for q in first if q in letters[b] and first[q] != letters[b][q])
            if len(crossing) == 2:
                moved = PauliCheck(a, crossing[1], first[crossing[1]])
                schedule.assignment[moved] = schedule.depth + 1
                return schedule
    raise AssertionError("no anticommuting stabilizer pair found")


class FlippedDecoder:
    """The exact lookup decoder with every prediction of observable 0 inverted."""

    def __init__(self, dem) -> None:
        self.exact = LookupDecoder(dem)

    def decode_batch(self, syndromes):
        predictions = self.exact.decode_batch(syndromes).copy()
        predictions[:, 0] ^= 1
        return predictions


def test_noiseless_check_passes_valid_and_fails_crossed_schedule(surface):
    code = surface[0]
    assert checks.noiseless_circuit_check(code, sequential_schedule(code)) is None
    assert checks.noiseless_circuit_check(code, surface[1], rounds=2) is None
    assert checks.noiseless_circuit_check(code, crossed_schedule(code)) is not None


def test_structure_check_fails_missing_and_double_booked_checks(surface):
    code, schedule = surface[0], surface[1]
    assert checks.schedule_structure_check(code, schedule) is None
    missing = schedule.copy()
    missing.assignment.pop(next(iter(missing.assignment)))
    assert checks.schedule_structure_check(code, missing) is not None
    clash = schedule.copy()
    first, second = [c for c in clash.assignment if c.stabilizer == 0][:2]
    clash.assignment[second] = clash.assignment[first]
    assert "used twice" in checks.schedule_structure_check(code, clash)


def test_marginal_check_fails_one_changed_mechanism(surface):
    circuit, dem = surface[2], surface[3]
    assert checks.detector_marginal_check(circuit, dem, seed=1) is None
    mechanisms = list(dem.mechanisms)
    mechanisms[7] = dataclasses.replace(mechanisms[7], probability=mechanisms[7].probability + 0.05)
    changed = dataclasses.replace(dem, mechanisms=mechanisms)
    assert checks.detector_marginal_check(circuit, changed, seed=1) is not None


def test_detector_probabilities_match_exact_parity_of_two_mechanisms():
    from repro.sim.dem import DetectorErrorModel, ErrorMechanism

    dem = DetectorErrorModel(2, 0, [ErrorMechanism(0.1, frozenset({0, 1}), frozenset()),
                                    ErrorMechanism(0.2, frozenset({1}), frozenset())])
    assert np.allclose(checks.detector_probabilities(dem), [0.1, 0.1 * 0.8 + 0.9 * 0.2])


@pytest.mark.parametrize("workload", ["memory_d5", "bb72_bposd"])
def test_wrong_decoder_fails_sweep_at_workload_stride(surface, workload):
    dem = surface[3]
    stride = WORKLOADS[workload].sweep_stride
    decodes = len(range(0, dem.num_mechanisms, stride))
    assert checks.single_fault_failures(dem, LookupDecoder(dem), stride) == (decodes, 0)
    assert checks.single_fault_failures(dem, FlippedDecoder(dem), stride) == (decodes, decodes)


def test_wrong_decoder_fails_wilson_agreement(surface):
    circuit, dem = surface[2], surface[3]
    shots = 2000
    batch = sample_detector_error_model(dem, shots, seed=3)
    reference = checks.reference_error_rate("lookup", circuit, dem, shots=shots, seed=4)
    for decoder, agrees in ((LookupDecoder(dem), True), (FlippedDecoder(dem), False)):
        rate = fraction_wrong(decoder.decode_batch(batch.detectors), batch)
        failure = checks.wilson_agreement_check(rate, shots, *reference)
        assert (failure is None) == agrees


def test_wilson_interval_contains_rate_and_narrows_with_shots():
    low, high = checks.wilson_interval(30, 1000)
    assert low < 0.03 < high
    narrow = checks.wilson_interval(300, 10000)
    assert narrow[1] - narrow[0] < high - low
    assert checks.wilson_interval(0, 10)[0] == pytest.approx(0.0, abs=1e-12)
