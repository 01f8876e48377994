"""Run each workload repeatedly and report how much its metrics spread.

    python3 perfbench/steadiness.py                  # seeds 1-10 on every workload
    python3 perfbench/steadiness.py --first-seed 11  # seeds 11-20

Each workload runs ten times, each run a separate ``perfbench/run.py``
process with its own seed (the run length comes from ``BENCHMARK.json``).  For every end-to-end metric the
table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median`` next to the metric's bound.  A spread below a third of the bound
is ``steady``; up to the bound it is ``wide``; beyond it, ``unsteady``.
The share of failed operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run may take this long before it counts as hung.
RUN_TIMEOUT = 180
#: Runs per workload: enough for quartiles, and what a regression is judged on.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its JSON result line."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=RUN_TIMEOUT, check=True, cwd=ROOT,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarise(values: "list[float]", bound: float) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    verdict = "steady" if spread < bound / 3 else "wide" if spread <= bound else "unsteady"
    return (f"median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
            f"spread {spread:6.3f}  bound {bound:.2f}  {verdict}")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    for workload in [w["name"] for w in config["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            results.append(run_once(workload, seed, config["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={entry['value']:.4f}" for name, entry in results[-1]["metrics"].items()
            ), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        share_values = {failed / attempted for failed, attempted in shares}
        print(f"== {workload}: {RUNS} runs, correct in "
              f"{sum(r['correct'] for r in results)}, failed/attempted "
              f"{sorted(shares)} -> {'identical share' if len(share_values) == 1 else 'SHARE DIFFERS'}")
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            print(f"   {metric['name']:12s} {summarise(values, metric['bound'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
