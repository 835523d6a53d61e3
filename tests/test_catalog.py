"""Extended-real arithmetic, Betti sequences, and the symbolic catalog.

Reference values: a finite shape of dimension N contributes 1/N at degree
0; a free-group dual on k generators contributes k - 1 at degree 1; the
Cauchy product therefore sends (1/N at 0, k - 1 at 1) to (k - 1)/N at
degree 1, which for k = 2 is the 1/N family.  The cocommutative arm is
recomputed from the group algebra by the homology engine, so its values
can be cross-checked against both the 1/|G| rule and an algebra file
evaluated through the same engine.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti.algebra import algebra_to_dict, group_algebra, multi_matrix_algebra
from l2betti.catalog import (
    BettiSequence,
    CatalogError,
    CoamenableInfinite,
    CocommutativeFinite,
    ExtendedReal,
    FiniteDimAlgebra,
    FiniteQG,
    FreeGroupDual,
    Product,
    betti_of,
    convolve,
    descriptor_from_dict,
    descriptor_to_dict,
    fixed_point_classify,
    rational_first_betti,
)
from l2betti.groups import cyclic_cayley, symmetric_cayley
from l2betti.homology import betti_numbers

seeds = st.integers(min_value=0, max_value=10**9)

INF = ExtendedReal.infinity()


def random_extended(rng):
    roll = rng.random()
    if roll < 0.15:
        return INF
    if roll < 0.35:
        return ExtendedReal(0)
    return ExtendedReal(Fraction(rng.randint(1, 6), rng.randint(1, 4)))


def random_sequence(rng, max_degree=3):
    return BettiSequence(
        {n: random_extended(rng) for n in range(rng.randint(0, max_degree + 1))}
    )


class TestExtendedReal:
    def test_arithmetic_conventions(self):
        two = ExtendedReal(2)
        zero = ExtendedReal(0)
        assert zero * INF == zero
        assert INF * zero == zero
        assert two * INF == INF
        assert INF * INF == INF
        assert two + INF == INF
        assert INF + INF == INF
        assert two * ExtendedReal(Fraction(1, 2)) == ExtendedReal(1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ExtendedReal(Fraction(-1, 2))

    def test_string_forms(self):
        assert str(INF) == "inf"
        assert str(ExtendedReal(Fraction(3, 6))) == "1/2"
        assert ExtendedReal("inf") == INF
        assert ExtendedReal("3/4") == ExtendedReal(Fraction(3, 4))

    def test_equality_and_hash(self):
        assert ExtendedReal(Fraction(1, 2)) == Fraction(1, 2)
        assert ExtendedReal(1) != INF
        assert len({INF, ExtendedReal.infinity(), ExtendedReal(0)}) == 2

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_commutativity(self, seed):
        rng = random.Random(seed)
        x, y = random_extended(rng), random_extended(rng)
        assert x + y == y + x
        assert x * y == y * x


class TestBettiSequence:
    def test_zero_values_dropped(self):
        s = BettiSequence({0: Fraction(1, 2), 1: 0, 5: ExtendedReal(0)})
        assert s.support() == [0]
        assert s[1] == ExtendedReal(0)
        assert s[17] == ExtendedReal(0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            BettiSequence({-1: 1})

    def test_serialization_shows_support_only(self):
        s = BettiSequence({1: Fraction(1, 8), 3: INF})
        assert s.to_strings() == {"1": "1/8", "3": "inf"}
        assert BettiSequence.zero().to_strings() == {}


class TestConvolve:
    def test_unit(self):
        unit = BettiSequence.delta(0, 1)
        s = BettiSequence({0: Fraction(1, 3), 2: INF})
        assert convolve(unit, s) == s
        assert convolve(s, unit) == s

    def test_shifted_product(self):
        s = BettiSequence.delta(0, Fraction(1, 8))
        t = BettiSequence.delta(1, 1)
        assert convolve(s, t) == BettiSequence.delta(1, Fraction(1, 8))

    def test_infinity_times_zero_sequence(self):
        s = BettiSequence.delta(1, INF)
        assert convolve(s, BettiSequence.zero()).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_commutative_associative(self, seed):
        rng = random.Random(seed)
        a, b, c = (random_sequence(rng) for _ in range(3))
        assert convolve(a, b) == convolve(b, a)
        assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


class TestBettiOf:
    def test_finite_shape(self):
        assert betti_of(FiniteQG(8)) == BettiSequence.delta(0, Fraction(1, 8))
        with pytest.raises(CatalogError):
            FiniteQG(0)

    def test_free_group_dual(self):
        assert betti_of(FreeGroupDual(2)) == BettiSequence.delta(1, 1)
        assert betti_of(FreeGroupDual(5)) == BettiSequence.delta(1, 4)
        with pytest.raises(CatalogError):
            FreeGroupDual(1)

    def test_question_answer_product(self):
        seq = betti_of(Product(FiniteQG(8), FreeGroupDual(2)))
        assert seq == BettiSequence.delta(1, Fraction(1, 8))

    def test_cocommutative_recomputed(self):
        seq = betti_of(CocommutativeFinite(tuple(map(tuple, cyclic_cayley(4)))))
        assert seq == BettiSequence.delta(0, Fraction(1, 4))
        s3 = betti_of(CocommutativeFinite(tuple(map(tuple, symmetric_cayley(3)))))
        assert s3 == BettiSequence.delta(0, Fraction(1, 6))

    def test_algebra_file_matches_cocommutative(self, tmp_path):
        cayley = cyclic_cayley(4)
        path = tmp_path / "z4.json"
        path.write_text(json.dumps(algebra_to_dict(group_algebra(cayley))))
        via_file = betti_of(FiniteDimAlgebra(str(path)), max_degree=1)
        via_table = betti_of(CocommutativeFinite(tuple(map(tuple, cayley))))
        assert via_file == via_table

    def test_algebra_file_matches_direct_homology(self, tmp_path):
        algebra = multi_matrix_algebra([2], [Fraction(1, 2)])
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(algebra_to_dict(algebra)))
        seq = betti_of(FiniteDimAlgebra(str(path)), max_degree=2)
        direct = betti_numbers(algebra, 2)
        assert seq == BettiSequence(direct.values)
        assert seq == BettiSequence.delta(0, Fraction(1, 4))

    def test_bad_algebra_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(CatalogError):
            betti_of(FiniteDimAlgebra(str(missing)))
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(CatalogError):
            betti_of(FiniteDimAlgebra(str(broken)))

    def test_coamenable_vanishes_in_products(self):
        for other in (FiniteQG(3), FreeGroupDual(4), CoamenableInfinite()):
            seq = betti_of(Product(CoamenableInfinite(), other))
            assert seq.is_zero()


class TestFixedPointClassify:
    def test_classification(self):
        result = fixed_point_classify(Fraction(1, 4))
        assert result == {ExtendedReal(0), ExtendedReal.infinity()}

    def test_members_are_fixed_and_nothing_else_is(self):
        c = ExtendedReal(Fraction(1, 4))
        for x in fixed_point_classify(Fraction(1, 4)):
            assert c * x == x
        for bad in (ExtendedReal(1), ExtendedReal(Fraction(2, 3))):
            assert c * bad != bad

    def test_domain_validation(self):
        for c in (Fraction(0), Fraction(1), Fraction(5, 4), Fraction(-1, 2)):
            with pytest.raises(ValueError):
                fixed_point_classify(c)


class TestRationalFirstBetti:
    def test_examples(self):
        d = rational_first_betti(Fraction(1, 8))
        assert d == Product(FiniteQG(8), FreeGroupDual(2))
        assert betti_of(d) == BettiSequence.delta(1, Fraction(1, 8))
        d = rational_first_betti("3/5")
        assert d == Product(FiniteQG(5), FreeGroupDual(4))
        assert betti_of(d) == BettiSequence.delta(1, Fraction(3, 5))
        d = rational_first_betti(1)
        assert betti_of(d) == BettiSequence.delta(1, 1)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_hits_target_exactly(self, seed):
        rng = random.Random(seed)
        target = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        seq = betti_of(rational_first_betti(target))
        assert seq == BettiSequence.delta(1, target)
        assert seq[0] == ExtendedReal(0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rational_first_betti(0)
        with pytest.raises(ValueError):
            rational_first_betti(Fraction(-1, 2))


class TestDescriptorSerialization:
    def test_round_trip_all_kinds(self):
        examples = [
            FiniteQG(12),
            CocommutativeFinite(tuple(map(tuple, cyclic_cayley(3)))),
            FreeGroupDual(3),
            FiniteDimAlgebra("algebras/m2.json"),
            Product(FiniteQG(2), Product(FreeGroupDual(2), CoamenableInfinite())),
            CoamenableInfinite(),
        ]
        for d in examples:
            doc = descriptor_to_dict(d)
            assert json.loads(json.dumps(doc)) == doc
            assert descriptor_from_dict(doc) == d

    def test_base_dir_resolves_relative_algebra_paths(self, tmp_path):
        base = str(tmp_path)
        nested = {
            "kind": "product",
            "left": {"kind": "finite_dim_algebra", "path": "algebras/m2.json"},
            "right": {"kind": "finite_dim_algebra", "path": "/abs/z3.json"},
        }
        assert descriptor_from_dict(nested, base_dir=base) == Product(
            FiniteDimAlgebra(str(tmp_path / "algebras" / "m2.json")),
            FiniteDimAlgebra("/abs/z3.json"),
        )

    def test_product_document_shape(self):
        doc = descriptor_to_dict(Product(FiniteQG(8), FreeGroupDual(2)))
        assert doc == {
            "kind": "product",
            "left": {"kind": "finite_qg", "dim": 8},
            "right": {"kind": "free_group_dual", "k": 2},
        }

    def test_bad_documents(self):
        with pytest.raises(CatalogError):
            descriptor_from_dict({"kind": "martian"})
        with pytest.raises(CatalogError):
            descriptor_from_dict({"dim": 8})
        with pytest.raises(CatalogError):
            descriptor_from_dict({"kind": "finite_qg"})
