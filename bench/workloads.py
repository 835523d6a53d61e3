"""Benchmark workloads: the CLI processes one sample runs, built from a seed.

Each workload maps a benchmark seed to a list of jobs ``(label, argv)``;
one job is one ``l2betti`` process and its label names its reference
report in ``references.json``.  Input files are written to the given
directory; the program receives only these files and arguments.

Seeds: ``betti-m2m2`` has one fixed input.  The random suites take a CLI
``--seed`` from a pool of seeds whose reports were recorded at the
baseline commit; a benchmark seed in the pool is used as is, any other
seed ``s`` maps to ``pool[s % len(pool)]``.  The pools and the reasons for them are
in README.md.
"""

from __future__ import annotations

import json
from itertools import permutations
from pathlib import Path

DEFAULT_SEED = 42

# Ceiling for betti-m2m2.  At the CLI default (2,000,000) the run computes
# every value and then exits 3, because the stabilization rebuild at depth
# 4 needs 16^6 = 16,777,216 entries (README.md, known defects).
M2M2_CEILING = 16_777_216

# dim-mult keeps trials 0..79 of seed 42, which hold its slow tail
# (trials 25, 47, 59, 63, 79).  Other seeds cost 60-70 s at 80 trials,
# more than one run may take, so seed 42 is the only pooled seed.
DIM_MULT_TRIALS = 80
DIM_MULT_POOL = (42,)

# Seeds whose lemmas + kuenneth-chain CPU time lies within 4 % of seed
# 42's at the baseline commit, so runs on different seeds carry equal work.
SMALL_POOL = (42, 24, 62, 68)


def pick_seed(seed: int, pool: tuple[int, ...]) -> int:
    return seed if seed in pool else pool[seed % len(pool)]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _matrix_block(n: int, weight: str) -> dict:
    return {"kind": "multi_matrix", "blocks": [n], "weights": [weight]}


def _symmetric_cayley(n: int) -> list[list[int]]:
    """S_n with permutations in lexicographic order, (p*q)(x) = p(q(x))."""
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def betti_m2m2(seed: int, inputs: Path) -> list[tuple[str, list[str]]]:
    algebra = {
        "kind": "tensor",
        "left": _matrix_block(2, "1/2"),
        "right": _matrix_block(2, "1/2"),
    }
    path = _write(inputs / "m2m2.json", algebra)
    argv = ["betti", path, "--max-degree", "2", "--ceiling", str(M2M2_CEILING)]
    return [("betti-m2m2/betti", argv)]


def dim_mult(seed: int, inputs: Path) -> list[tuple[str, list[str]]]:
    s = pick_seed(seed, DIM_MULT_POOL)
    argv = ["verify", "dim-mult", "--seed", str(s), "--trials", str(DIM_MULT_TRIALS)]
    return [(f"dim-mult/dim-mult/s{s}", argv)]


def small_inputs(seed: int, inputs: Path) -> list[tuple[str, list[str]]]:
    s = pick_seed(seed, SMALL_POOL)
    descriptor = {
        "kind": "product",
        "left": {"kind": "cocommutative_finite", "cayley": _symmetric_cayley(3)},
        "right": {"kind": "free_group_dual", "k": 3},
    }
    path = _write(inputs / "s3-x-free3.json", descriptor)
    jobs = [
        (f"small-inputs/{suite}/s{s}", ["verify", suite, "--seed", str(s)])
        for suite in ("lemmas", "kuenneth-chain", "kuenneth-betti")
    ]
    jobs.append(("small-inputs/catalog", ["catalog", path]))
    return jobs


WORKLOADS = {
    "betti-m2m2": betti_m2m2,
    "dim-mult": dim_mult,
    "small-inputs": small_inputs,
}

# every CLI seed a workload can run, for recording references
POOLS = {
    "betti-m2m2": (DEFAULT_SEED,),
    "dim-mult": DIM_MULT_POOL,
    "small-inputs": SMALL_POOL,
}
