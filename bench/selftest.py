"""Self-test of the per-layer tracing.

    python3 bench/selftest.py [--seed N]

Runs two traced samples of every workload and checks that

* each span fires on the workload it is meant to load, and stays silent
  where the workload never reaches that layer;
* every per-layer metric is non-zero on at least one workload, so no
  wrapper is dead (a name imported by value and left unwrapped shows up
  here);
* the work counts (``calls``, ``cells``, ``hit_frac``, ``accept_frac``)
  repeat exactly between the two traced runs;
* every traced report still matches its reference.

Exit code 0 when all checks pass, 1 otherwise.  Takes about three minutes
on a 2-core AMD EPYC.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import LAYER_METRICS, RUN_LIMIT_S, WORK, layer_metrics, run_sample
from workloads import DEFAULT_SEED, WORKLOADS

FIRES = {
    "betti-m2m2": [
        "homology.bar_complex.self_s",
        "homology.ChainComplex.self_s",
        "homology.betti_numbers.total_s",
        "homology.dim_homology.total_s",
        "modules.dim_image.calls",
        "modules.ModuleMap.compose.calls",
        "algebra.TracialAlgebra.inverse_coords.calls",
        "linalg.solve_linear.calls",
        "cli.main.total_s",
    ],
    "dim-mult": [
        "homology.dim_multiplicativity_check.total_s",
        "modules.generalized_inverse.calls",
        "algebra.TracialAlgebra.validate.self_s",
        "algebra.tensor_algebra.total_s",
        "algebra.enveloping_algebra.total_s",
        "algebra.FlipIsomorphism.from_enveloping.total_s",
        "linalg.solve_linear.calls",
        "rand.total_s",
        "cli.main.total_s",
    ],
    "small-inputs": [
        "homology.bar_complex.self_s",
        "homology.tensor_complex.self_s",
        "homology.induced_homology_map.total_s",
        "modules.generalized_inverse.calls",
        "modules.PresentedMap.self_s",
        "modules.hom_space.total_s",
        "modules.algebraic_closure.total_s",
        "modules.dim_image_l2.total_s",
        "linalg.kernel_data.calls",
        "linalg.ScalarSpan.insert.calls",
        "linalg.ScalarSpan.contains.calls",
        "catalog.betti_of.total_s",
        "rand.total_s",
        "cli.main.total_s",
    ],
}

SILENT = {
    "betti-m2m2": ["modules.generalized_inverse.calls", "rand.total_s"],
    "dim-mult": ["homology.bar_complex.self_s", "homology.betti_numbers.total_s"],
    "small-inputs": ["homology.dim_multiplicativity_check.total_s"],
}

COUNT_SUFFIXES = (".calls", ".cells", ".hit_frac", ".accept_frac")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    inputs = WORK / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    fired: set[str] = set()
    for workload, build in WORKLOADS.items():
        jobs = build(args.seed, inputs)
        runs = []
        for _ in range(2):
            sample = run_sample(jobs, "trace", time.monotonic() + RUN_LIMIT_S)
            problems += [f"{workload}: {p.label}: {p.why}" for p in sample.processes if not p.ok]
            runs.append({name: value for name, (value, *_) in layer_metrics(sample.processes).items()})
        first, second = runs
        fired.update(name for name, value in first.items() if value)
        for name in FIRES[workload]:
            if not first[name] > 0:
                problems.append(f"{workload}: {name} = {first[name]}, expected > 0")
        for name in SILENT[workload]:
            if first[name] != 0:
                problems.append(f"{workload}: {name} = {first[name]}, expected 0")
        for name in first:
            if name.endswith(COUNT_SUFFIXES) and first[name] != second[name]:
                problems.append(f"{workload}: {name} differs between runs: {first[name]} vs {second[name]}")
        print(f"{workload}: traced twice, {len(problems)} problem(s) so far")
    for name in LAYER_METRICS:
        if name not in fired:
            problems.append(f"{name} is zero on every workload")
    for problem in problems:
        print(f"FAIL {problem}")
    print("span self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
