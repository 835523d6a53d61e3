#!/usr/bin/env python3
"""Print a table of Betti numbers for a family of built-in algebras.

Covers the single matrix blocks M_1..M_3, small cyclic and symmetric
group algebras, a weighted two-block sum, and optionally tensor products
of the above. Every value is exact; the stabilized column reports whether
beta_0 matches the dimension of the algebra as a bimodule over itself.
"""

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from l2betti.algebra import group_algebra, multi_matrix_algebra, tensor_algebra
from l2betti.groups import cyclic_cayley, symmetric_cayley
from l2betti.homology import DEFAULT_CEILING, DepthTooLarge, betti_numbers


def built_in_family(include_tensors: bool):
    family = []
    for n in (1, 2, 3):
        family.append((f"M_{n}", multi_matrix_algebra([n], [Fraction(1, n)])))
    for n in (2, 3, 4):
        family.append((f"C[Z/{n}]", group_algebra(cyclic_cayley(n))))
    family.append(("C[S_3]", group_algebra(symmetric_cayley(3))))
    family.append(
        (
            "M_2 (+) C, weights (1/4, 1/2)",
            multi_matrix_algebra([2, 1], [Fraction(1, 4), Fraction(1, 2)]),
        )
    )
    if include_tensors:
        z2 = group_algebra(cyclic_cayley(2))
        m2 = multi_matrix_algebra([2], [Fraction(1, 2)])
        family.append(("C[Z/2] (x) C[Z/3]", tensor_algebra(z2, group_algebra(cyclic_cayley(3)))))
        family.append(("C[Z/2] (x) M_2", tensor_algebra(z2, m2)))
    return family


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-degree", type=int, default=2)
    parser.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    parser.add_argument(
        "--include-tensors",
        action="store_true",
        help="also compute tensor-product algebras (slower)",
    )
    args = parser.parse_args(argv)

    rows = []
    for label, algebra in built_in_family(args.include_tensors):
        started = time.perf_counter()
        try:
            result = betti_numbers(algebra, args.max_degree, ceiling=args.ceiling)
        except DepthTooLarge as exc:
            rows.append((label, algebra.dim, ["-"] * (args.max_degree + 1), f"ceiling ({exc.needed})", 0.0))
            continue
        elapsed = time.perf_counter() - started
        values = [str(result.values[n]) for n in range(args.max_degree + 1)]
        rows.append((label, algebra.dim, values, "yes" if result.stabilized else "NO", elapsed))

    header = ["algebra", "dim"] + [f"beta_{n}" for n in range(args.max_degree + 1)]
    header += ["stabilized", "seconds"]
    table = [header]
    for label, dim, values, stab, elapsed in rows:
        table.append([label, str(dim)] + values + [stab, f"{elapsed:.2f}"])
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    for i, row in enumerate(table):
        print("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        if i == 0:
            print("  ".join("-" * widths[c] for c in range(len(header))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
