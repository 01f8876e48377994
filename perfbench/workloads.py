"""Workload definitions: the inputs each benchmark run makes from its seed.

A workload is a :class:`repro.api.RunSpec` built from the run's ``--seed``
plus the timed work done with it.  Every workload runs in one process with
``workers=1``: the timed numbers then measure the library's own code, not
process-pool start-up on a small machine.

* ``synth_surface_d3`` times one full AlphaSyndrome synthesis (the paper's
  own traffic: hundreds of small one-round DEM builds, small decode
  batches full of repeated syndromes).
* ``memory_d5`` times one full ``Pipeline.run()`` of a 5-round d=5 memory
  experiment (evaluation at paper scale: nearly every syndrome is unique
  and many fall back to blossom matching).
* ``bb72_bposd`` times one full ``Pipeline.run()`` on ``bb_72_12_6``
  (the hyperedge-heavy DEM and the only BP+OSD traffic).

Each round of ``memory_d5`` and ``bb72_bposd`` also decodes single-fault
syndromes (counted operations, see ``checks.single_fault_failures``):
every mechanism of ``memory_d5``'s DEMs, and every 54th of
``bb72_bposd``'s (50 of 2676 per basis; the full sweep would take about
two minutes per round).  The DEMs do not depend on the seed, so neither
does the set of faults decoded.

Importing this module imports the library, so it is the set-up the
``setup_s`` metric times (see ``setup_probe.py``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no library sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from repro.api import Budget, Pipeline, RunSpec, parse_spec, registries  # noqa: E402

__all__ = ["WORKLOADS", "Workload", "prepare", "run_pass"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the spec template and its check budgets."""

    name: str
    spec: RunSpec
    #: Frames-sampled shots per basis for the Wilson agreement check (c).
    check_shots: int
    #: Each round also decodes the syndrome of every ``sweep_stride``-th
    #: mechanism of each DEM; 0 means no sweep.
    sweep_stride: int = 0


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="synth_surface_d3",
            spec=RunSpec(
                code="surface:d=3",
                noise="brisbane",
                scheduler="alphasyndrome",
                decoder="mwpm",
                budget=Budget(shots=300, synthesis_shots=300, iterations_per_step=8),
            ),
            check_shots=2000,
        ),
        Workload(
            name="memory_d5",
            spec=RunSpec(
                code="surface:d=5",
                noise="brisbane",
                scheduler="google",
                decoder="mwpm",
                rounds=5,
                budget=Budget(shots=2048),
            ),
            check_shots=512,
            sweep_stride=1,
        ),
        Workload(
            name="bb72_bposd",
            spec=RunSpec(
                code="bb_72_12_6",
                noise="brisbane",
                scheduler="ibm_bb",
                decoder="bposd",
                rounds=1,
                budget=Budget(shots=16),
            ),
            check_shots=16,
            sweep_stride=54,
        ),
    )
}


def prepare(name: str, seed: int) -> RunSpec:
    """Make the workload's inputs: its :class:`RunSpec` at ``seed``.

    The component spec strings are resolved through the registries once
    here, so a typo fails in set-up rather than inside the timed work.
    """
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = workload.spec.replace(seed=seed, workers=1)
    code = registries.codes.build(spec.code)
    registries.noise.build(spec.noise, code=code)
    registries.decoders.build(spec.decoder)
    registries.schedulers.entry(parse_spec(spec.scheduler)[0])
    return spec


def run_pass(spec: RunSpec) -> Pipeline:
    """The timed work: a full synthesis, or a full ``Pipeline.run()``."""
    pipeline = Pipeline(spec)
    if spec.scheduler == "alphasyndrome":
        pipeline.synthesis
    else:
        pipeline.run()
    return pipeline
