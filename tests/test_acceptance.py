"""End-to-end acceptance checks, one test per criterion.

Each test prints the computed values it compared so a verbose run shows
the evidence alongside the pass/fail line.  Everything here is exact
rational arithmetic except the explicitly float-tagged comparisons,
which must agree with the exact route within 1e-6.

Expected values, derived from first principles:

  * beta_0 of a multi-matrix algebra with trace weights t_b on the
    diagonal matrix units is sum_b t_b^2 (the trace of the separability
    idempotent), and higher Betti numbers vanish: M_2 with tau = Tr/2
    gives (1/2)^2 = 1/4, and a group algebra C[G] gives 1/|G|.
  * Betti sequences multiply degreewise under tensor products (Cauchy
    product), so C[Z/2] x M_2 has beta_0 = 1/2 * 1/4 = 1/8 and
    M_2 x M_2 has beta_0 = 1/16.
  * the dual of the free group F_k carries beta_1 = k - 1, so the
    product with an N-dimensional finite quantum group has
    beta_1 = (k - 1)/N concentrated in degree one.
"""

import random
import time
from fractions import Fraction

from l2betti.algebra import group_algebra, multi_matrix_algebra
from l2betti.catalog import (
    CoamenableInfinite,
    CocommutativeFinite,
    ExtendedReal,
    FiniteQG,
    FreeGroupDual,
    Product,
    betti_of,
    fixed_point_classify,
    rational_first_betti,
)
from l2betti.cli import run_suite
from l2betti.config import RunConfig
from l2betti.groups import cyclic_cayley, symmetric_cayley
from l2betti.homology import (
    betti_numbers,
    kuenneth_betti_check,
    kuenneth_chain_check,
    tensor_complex,
)
from l2betti.rand import random_algebra, random_chain_complex

M2_BLOCKS = ([2], [Fraction(1, 2)])


def m2():
    return multi_matrix_algebra(*M2_BLOCKS)


def test_criterion_1_matrix_algebra_betti_under_30s():
    started = time.perf_counter()
    result = betti_numbers(m2(), 2)
    elapsed = time.perf_counter() - started
    assert result.values == {0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(0)}
    assert all(isinstance(v, Fraction) for v in result.values.values())
    assert elapsed < 30.0
    print(
        f"criterion 1 PASS: beta(M_2) = ({result.values[0]}, {result.values[1]}, "
        f"{result.values[2]}) in {elapsed:.2f}s"
    )


def test_criterion_2_group_algebra_betti_vs_catalog():
    groups = [
        ("Z/2", cyclic_cayley(2)),
        ("Z/3", cyclic_cayley(3)),
        ("Z/4", cyclic_cayley(4)),
        ("S_3", symmetric_cayley(3)),
    ]
    lines = []
    for label, cayley in groups:
        order = len(cayley)
        result = betti_numbers(group_algebra(cayley), 1)
        assert result.values[0] == Fraction(1, order)
        assert result.values[1] == Fraction(0)
        catalog_value = betti_of(CocommutativeFinite(cayley))[0]
        assert catalog_value == ExtendedReal(Fraction(1, order))
        lines.append(f"{label}: beta_0 = {result.values[0]}, beta_1 = 0")
    print("criterion 2 PASS: " + "; ".join(lines))


def test_criterion_3_kuenneth_on_fixed_pairs():
    z2 = group_algebra(cyclic_cayley(2))
    z3 = group_algebra(cyclic_cayley(3))
    cases = [
        ("Z/2 x M_2", z2, m2(), 2_000_000, Fraction(1, 8)),
        ("Z/2 x Z/3", z2, z3, 2_000_000, Fraction(1, 6)),
        ("M_2 x M_2", m2(), m2(), 20_000_000, Fraction(1, 16)),
    ]
    lines = []
    for label, a, b, ceiling, beta0 in cases:
        rep = kuenneth_betti_check(a, b, 2, ceiling=ceiling)
        assert rep["all_equal"]
        for n in (0, 1, 2):
            entry = rep["per_degree"][n]
            assert entry["direct"] == entry["convolved"]
            assert entry["direct"] == (beta0 if n == 0 else Fraction(0))
        lines.append(f"{label}: direct = convolved = ({beta0}, 0, 0)")
    print("criterion 3 PASS: " + "; ".join(lines))


def test_criterion_4_chain_level_kuenneth_on_100_random_pairs():
    rng = random.Random(42)
    pairs = 0
    for _ in range(100):
        a = random_algebra(rng, max_dim=4)
        b = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, a, max_length=3, max_rank=3)
        g = random_chain_complex(rng, b, max_length=3, max_rank=3)
        rep = kuenneth_chain_check(f, g)
        assert rep["all_equal"], f"Kuenneth mismatch at pair {pairs}: {rep}"
        product = tensor_complex(f, g)
        for n in range(2, product.top_degree + 1):
            square = product.differential(n - 1).compose(product.differential(n))
            assert square.is_zero()
        pairs += 1
    assert pairs == 100
    print(f"criterion 4 PASS: {pairs} random complex pairs, all degrees equal, e*e = 0")


def test_criterion_5_dimension_suites_exact_and_float():
    exact = run_suite("lemmas", RunConfig(seed=42, trials=100))
    exact_failures = [c for c in exact if c["status"] != "pass"]
    assert exact_failures == []
    assert len(exact) == 300

    approx = run_suite("lemmas", RunConfig(seed=42, trials=100, backend="float"))
    float_failures = [c for c in approx if c["status"] != "pass"]
    assert float_failures == []
    float_checks = [c for c in approx if c["name"].startswith("image-dim-gns-float")]
    assert len(float_checks) == 100
    print(
        "criterion 5 PASS: 100 maps dim_image == dim_image_l2, 100 projective "
        "descents, 100 induced-map triples, 100 float agreements within 1e-6"
    )


def test_criterion_6_dim_multiplicativity_and_flip():
    checks = run_suite("dim-mult", RunConfig(seed=42, trials=100))
    failures = [c for c in checks if c["status"] != "pass"]
    assert failures == []
    by_kind = {}
    for c in checks:
        by_kind.setdefault(c["name"].split("[")[0], []).append(c)
    assert len(by_kind["dim-mult"]) == 100
    assert len(by_kind["flip-trace"]) == 100
    assert len(by_kind["flip-mult"]) == 100
    print(
        "criterion 6 PASS: 100 module pairs dim(X (x) Y) = dim X * dim Y; flip "
        "trace-preserving and multiplicative on 100 element pairs"
    )


def test_criterion_7_catalog_reproduction():
    for n in (2, 8, 12):
        seq = betti_of(Product(FiniteQG(n), FreeGroupDual(2)))
        assert seq[1] == ExtendedReal(Fraction(1, n))
        assert seq.support() == [1]

    rng = random.Random(42)
    hits = []
    for _ in range(10):
        target = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        seq = betti_of(rational_first_betti(target))
        assert seq[1] == ExtendedReal(target)
        assert seq[0] == ExtendedReal(0)
        hits.append(str(target))

    classified = fixed_point_classify(Fraction(1, 4))
    assert classified == {ExtendedReal(0), ExtendedReal.infinity()}

    for descriptor in (
        Product(CoamenableInfinite(), FreeGroupDual(3)),
        Product(FiniteQG(5), CoamenableInfinite()),
        Product(CoamenableInfinite(), Product(FiniteQG(2), FreeGroupDual(4))),
    ):
        assert betti_of(descriptor).is_zero()
    print(
        "criterion 7 PASS: beta_1 = 1/N for N in (2, 8, 12); 10 random targets "
        f"hit ({', '.join(hits)}); fixed points {{0, inf}}; coamenable products vanish"
    )


def test_criterion_8_stabilization_under_deeper_truncation():
    algebras = [
        ("M_2", m2()),
        ("Z/2", group_algebra(cyclic_cayley(2))),
        ("Z/3", group_algebra(cyclic_cayley(3))),
        ("Z/4", group_algebra(cyclic_cayley(4))),
        ("S_3", group_algebra(symmetric_cayley(3))),
        (
            "M_2 + C weighted",
            multi_matrix_algebra([2, 1], [Fraction(1, 4), Fraction(1, 2)]),
        ),
    ]
    for label, algebra in algebras:
        result = betti_numbers(algebra, 2)
        assert result.stabilized, f"{label}: beta_0 differs from the self-bimodule dimension"

    rng = random.Random(42)
    for _ in range(10):
        algebra = random_algebra(rng, max_dim=4)
        result = betti_numbers(algebra, 1)
        assert result.stabilized
    print(
        "criterion 8 PASS: beta_0 equals the bar-free self-bimodule dimension "
        "for 6 named algebras (degrees 0..2) and 10 random algebras (degrees 0..1)"
    )
