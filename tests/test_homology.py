"""Chain complexes, bar resolutions, Betti numbers, and product formulas.

Reference values are computed by hand from first principles:

  * over the one-dimensional algebra the bar differentials alternate
    between 0 and an isomorphism, so the image dimensions alternate 0, 1
    and the Betti sequence is (1, 0, 0, ...);
  * for a matrix block M_n with tau = Tr/n the zeroth Betti number is the
    dimension of M_n as a module over M_n (x) M_n^op, which is 1/n^2; for
    a weighted sum of blocks with trace weights t_b it is sum_b t_b^2, so
    the (1/4, 1/2)-weighted sum of a 2x2 and a 1x1 block gives 5/16;
  * for a group algebra C[G] the zeroth Betti number is 1/|G| (the module
    C[G] over C[G]^ev is generated by one element whose support projection
    has trace 1/|G|), and higher Betti numbers vanish;
  * the image dimensions of the M_2 bar differentials d_1, d_2, d_3 are
    3/4, 13/4, 51/4: rank-nullity down the complex from beta_0 = 1/4 and
    interior acyclicity (dim im d_1 = 1 - 1/4, dim im d_{n+1} =
    4^n - 4^(n-1) + dim im d_n for n's with vanishing homology).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from l2betti import homology
from l2betti.algebra import (
    enveloping_algebra,
    group_algebra,
    multi_matrix_algebra,
    tensor_algebra,
)
from l2betti.groups import cyclic_cayley, symmetric_cayley
from l2betti.homology import (
    BettiResult,
    ChainComplex,
    ChainMap,
    DepthTooLarge,
    algebra_self_bimodule,
    bar_complex,
    betti_numbers,
    dim_homology,
    dim_multiplicativity_check,
    homology_presentation,
    induced_homology_map,
    kuenneth_betti_check,
    kuenneth_chain_check,
    tensor_complex,
)
from l2betti.modules import ModuleMap, dim_image, dim_module
from l2betti.rand import (
    random_algebra,
    random_chain_complex,
    random_chain_map,
    random_presented_module,
)
from l2betti.scalars import ONE, Scalar, sc

seeds = st.integers(min_value=0, max_value=10**9)


@pytest.fixture(scope="module")
def m2():
    return multi_matrix_algebra([2], [Fraction(1, 2)])


@pytest.fixture(scope="module")
def z2():
    return group_algebra(cyclic_cayley(2))


@pytest.fixture(scope="module")
def z3():
    return group_algebra(cyclic_cayley(3))


@pytest.fixture(scope="module")
def one_dim():
    return group_algebra(cyclic_cayley(1))


@pytest.fixture(scope="module")
def lopsided():
    return multi_matrix_algebra([2, 1], [Fraction(1, 4), Fraction(1, 2)])


def right_mult_map(algebra, coords):
    return ModuleMap(algebra, 1, 1, {(0, 0): dict(coords)})


class TestChainComplexMechanics:
    def test_rank_and_differential_accessors(self, z2):
        d1 = right_mult_map(z2, {0: ONE, 1: ONE})
        cx = ChainComplex(z2, [1, 1], {1: d1})
        assert cx.top_degree == 1
        assert cx.rank(0) == 1 and cx.rank(1) == 1
        assert cx.rank(-1) == 0 and cx.rank(5) == 0
        assert cx.differential(1) == d1
        assert cx.differential(2).is_zero()
        assert cx.differential(2).domain_rank == 0

    def test_differential_squared_must_vanish(self, z2):
        both = {0: ONE, 1: ONE}
        d1 = right_mult_map(z2, both)
        with pytest.raises(ValueError, match="squared"):
            ChainComplex(z2, [1, 1, 1], {1: d1, 2: right_mult_map(z2, both)})
        # 1 - g annihilates 1 + g, so this one is a complex
        diff = {0: ONE, 1: -ONE}
        cx = ChainComplex(z2, [1, 1, 1], {1: d1, 2: right_mult_map(z2, diff)})
        assert dim_homology(cx, 1) == 0

    def test_shape_validation(self, z2, z3):
        d1 = right_mult_map(z2, {0: ONE})
        with pytest.raises(ValueError, match="ranks"):
            ChainComplex(z2, [1, -1], {})
        with pytest.raises(ValueError, match="outside"):
            ChainComplex(z2, [1, 1], {2: d1})
        with pytest.raises(ValueError, match="shape"):
            ChainComplex(z2, [2, 1], {1: d1})
        with pytest.raises(ValueError, match="algebra"):
            ChainComplex(z3, [1, 1], {1: d1})
        with pytest.raises(ValueError, match="degree 0"):
            ChainComplex(z2, [], {})

    def test_homology_out_of_range_is_zero(self, z2):
        cx = ChainComplex(z2, [1], {})
        assert dim_homology(cx, -1) == 0
        assert dim_homology(cx, 1) == 0
        assert dim_homology(cx, 0) == 1


class TestBarComplex:
    def test_one_dimensional_algebra(self, one_dim):
        bar = bar_complex(one_dim, 4)
        assert bar.ranks == [1, 1, 1, 1, 1]
        dims = [dim_image(bar.differential(n)) for n in range(1, 5)]
        assert dims == [Fraction(0), Fraction(1), Fraction(0), Fraction(1)]

    def test_m2_ranks_and_image_dimensions(self, m2):
        bar = bar_complex(m2, 3)
        assert bar.ranks == [1, 4, 16, 64]
        assert dim_image(bar.differential(1)) == Fraction(3, 4)
        assert dim_image(bar.differential(2)) == Fraction(13, 4)
        assert dim_image(bar.differential(3)) == Fraction(51, 4)

    def test_differential_squares_to_zero(self, m2):
        bar = bar_complex(m2, 3)
        for n in range(2, 4):
            assert bar.differential(n - 1).compose(bar.differential(n)).is_zero()

    def test_lives_over_enveloping_algebra(self, m2):
        bar = bar_complex(m2, 1)
        assert bar.algebra is enveloping_algebra(m2)
        assert bar.algebra.dim == m2.dim ** 2

    def test_interior_acyclicity_is_discovered(self, z3):
        # homology of the truncated resolution in degrees 1..depth-1 comes
        # out zero from the generic three-term computation
        bar = bar_complex(z3, 3)
        for n in range(1, 3):
            assert dim_homology(bar, n) == 0

    def test_depth_validation(self, m2):
        with pytest.raises(ValueError):
            bar_complex(m2, 0)

    def test_ceiling(self, m2):
        with pytest.raises(DepthTooLarge) as exc:
            bar_complex(m2, 12)
        assert exc.value.needed == 4 ** 14
        assert exc.value.needed > exc.value.ceiling
        # a generous ceiling admits the same depth request
        bar_complex(m2, 3, ceiling=10**9)


class TestBettiNumbers:
    def test_m2(self, m2):
        r = betti_numbers(m2, 2)
        assert r.values == {0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(0)}
        assert r.depth == 3
        assert r.stabilized
        assert r.algebra_description == m2.description

    def test_group_algebras(self):
        for cayley, order in [
            (cyclic_cayley(2), 2),
            (cyclic_cayley(3), 3),
            (cyclic_cayley(4), 4),
            (symmetric_cayley(3), 6),
        ]:
            r = betti_numbers(group_algebra(cayley), 1)
            assert r.values[0] == Fraction(1, order)
            assert r.values[1] == 0
            assert r.stabilized

    def test_one_dimensional_algebra(self, one_dim):
        r = betti_numbers(one_dim, 2)
        assert r.values == {0: Fraction(1), 1: Fraction(0), 2: Fraction(0)}
        assert r.stabilized

    def test_weighted_blocks(self, lopsided):
        # sum of squared trace weights: (1/4)^2 + (1/2)^2 over blocks of
        # sizes 2 and 1 contributes 4*(1/16) + 1*(1/4)... the block count
        # of matrix units cancels to t_b^2 * n_b^2 / n_b^2; value 5/16
        r = betti_numbers(lopsided, 1)
        assert r.values[0] == Fraction(5, 16)
        assert r.values[1] == 0

    def test_matches_self_bimodule_dimension(self, m2, z3, lopsided):
        for algebra in (m2, z3, lopsided):
            direct = dim_module(algebra_self_bimodule(algebra))
            assert direct == betti_numbers(algebra, 0).values[0]

    def test_negative_degree_rejected(self, m2):
        with pytest.raises(ValueError):
            betti_numbers(m2, -1)

    def test_ceiling_propagates(self, m2):
        # degree 2 reads the depth-3 complex only, which needs exactly
        # 4^5 = 1024 entries; one entry less, or one degree more, must fail
        r = betti_numbers(m2, 2, ceiling=1024)
        assert r.values == {0: Fraction(1, 4), 1: Fraction(0), 2: Fraction(0)}
        with pytest.raises(DepthTooLarge) as exc:
            betti_numbers(m2, 2, ceiling=1023)
        assert exc.value.needed == 4**5
        with pytest.raises(DepthTooLarge):
            betti_numbers(m2, 3, ceiling=1024)
        with pytest.raises(DepthTooLarge):
            betti_numbers(m2, 2, ceiling=100)

    def test_builds_one_bar_complex(self, m2, monkeypatch):
        depths = []
        real = homology.bar_complex

        def counting(algebra, depth, *args, **kwargs):
            depths.append(depth)
            return real(algebra, depth, *args, **kwargs)

        monkeypatch.setattr(homology, "bar_complex", counting)
        betti_numbers(m2, 2)
        assert depths == [3]

    def test_stabilized_can_fail(self, m2, monkeypatch):
        # stabilized compares beta_0 with the bar-free self-bimodule
        # dimension; a wrong dimension on that route must show
        real = homology.dim_module
        monkeypatch.setattr(homology, "dim_module", lambda x: real(x) + 1)
        r = betti_numbers(m2, 1)
        assert r.values[0] == Fraction(1, 4)
        assert r.stabilized is False

    def test_result_is_dataclass_with_rationals(self, z2):
        r = betti_numbers(z2, 1)
        assert isinstance(r, BettiResult)
        assert all(isinstance(v, Fraction) for v in r.values.values())


class TestHomologyPresentation:
    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_presentation_dimension_matches_formula(self, seed):
        rng = random.Random(seed)
        algebra = random_algebra(rng, max_dim=6)
        cx = random_chain_complex(rng, algebra, max_length=3, max_rank=3)
        for n in range(cx.top_degree + 1):
            assert dim_module(homology_presentation(cx, n)) == dim_homology(cx, n)

    def test_bar_homology_presentation(self, z2):
        bar = bar_complex(z2, 2)
        pres = homology_presentation(bar, 0)
        assert dim_module(pres) == Fraction(1, 2)


class TestTensorComplex:
    def test_tensor_with_point_preserves_homology(self, z3, one_dim):
        rng = random.Random(5)
        f = random_chain_complex(rng, z3, max_length=3, max_rank=3)
        point = ChainComplex(one_dim, [1], {})
        e = tensor_complex(f, point)
        assert e.ranks == f.ranks
        for n in range(f.top_degree + 1):
            assert dim_homology(e, n) == dim_homology(f, n)

    def test_block_ranks(self, z2, z3):
        rng = random.Random(9)
        f = random_chain_complex(rng, z2, max_length=2, max_rank=3)
        g = random_chain_complex(rng, z3, max_length=2, max_rank=3)
        e = tensor_complex(f, g)
        assert e.top_degree == f.top_degree + g.top_degree
        for n in range(e.top_degree + 1):
            assert e.rank(n) == sum(
                f.rank(k) * g.rank(n - k) for k in range(n + 1)
            )

    def test_enveloping_factors_land_in_flip_target(self, z2, z3):
        f = bar_complex(z2, 2)
        g = bar_complex(z3, 2)
        e = tensor_complex(f, g)
        mixed = e.algebra
        assert mixed.env_of is not None
        assert mixed.dim == (z2.dim * z3.dim) ** 2

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_differential_squares_to_zero(self, seed):
        # construction re-validates d o d = 0; reaching ChainComplex at all
        # is the assertion, the signs make it nontrivial
        rng = random.Random(seed)
        a = random_algebra(rng, max_dim=4)
        b = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, a, max_length=3, max_rank=3)
        g = random_chain_complex(rng, b, max_length=3, max_rank=3)
        e = tensor_complex(f, g)
        for n in range(2, e.top_degree + 1):
            assert e.differential(n - 1).compose(e.differential(n)).is_zero()


class TestTruncationIndependence:
    """beta_n reads only d_n and d_{n+1}, so a bar complex one degree
    deeper must reproduce every differential and homology below its top."""

    @pytest.mark.parametrize("name", ["m2", "z3", "lopsided"])
    def test_one_degree_deeper(self, name, request):
        algebra = request.getfixturevalue(name)
        k = 2
        short = bar_complex(algebra, k)
        deep = bar_complex(algebra, k + 1)
        for n in range(1, k + 1):
            assert short.differential(n) == deep.differential(n)
        for n in range(k):
            assert dim_homology(short, n) == dim_homology(deep, n)


class TestKuennethChain:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_random_pairs(self, seed):
        rng = random.Random(seed)
        a = random_algebra(rng, max_dim=4)
        b = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, a, max_length=3, max_rank=3)
        g = random_chain_complex(rng, b, max_length=3, max_rank=3)
        report = kuenneth_chain_check(f, g)
        assert report["all_equal"], report

    def test_bar_complex_pair(self, z2, z3):
        report = kuenneth_chain_check(bar_complex(z2, 2), bar_complex(z3, 2))
        assert report["all_equal"]
        assert report["per_degree"][0]["direct"] == Fraction(1, 6)


class TestKuennethBetti:
    def test_z2_z3(self, z2, z3):
        report = kuenneth_betti_check(z2, z3, 1)
        assert report["all_equal"]
        assert report["stabilized"]
        assert report["per_degree"][0]["direct"] == Fraction(1, 6)
        assert report["per_degree"][1]["direct"] == 0

    def test_z2_m2(self, z2, m2):
        report = kuenneth_betti_check(z2, m2, 1)
        assert report["all_equal"]
        assert report["per_degree"][0]["direct"] == Fraction(1, 8)


class TestDimMultiplicativity:
    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_random_modules(self, seed):
        rng = random.Random(seed)
        a = random_algebra(rng, max_dim=4)
        b = random_algebra(rng, max_dim=4)
        x = random_presented_module(rng, enveloping_algebra(a), max_rank=2)
        y = random_presented_module(rng, enveloping_algebra(b), max_rank=2)
        report = dim_multiplicativity_check(x, y)
        assert report["equal"], report
        assert report["tensor"] == dim_module(x) * dim_module(y)

    def test_requires_enveloping_algebras(self, z2, z3):
        x = random_presented_module(random.Random(1), z2, max_rank=2)
        y = random_presented_module(random.Random(2), z3, max_rank=2)
        with pytest.raises(ValueError):
            dim_multiplicativity_check(x, y)


class TestChainMaps:
    def test_identity_map_and_component_accessor(self, z2):
        bar = bar_complex(z2, 2)
        components = {
            n: ModuleMap.identity(bar.algebra, bar.rank(n)) for n in range(3)
        }
        phi = ChainMap(bar, bar, components)
        assert phi.component(0).domain_rank == 1
        assert phi.component(7).is_zero()

    def test_non_commuting_rejected(self, z2):
        d1 = right_mult_map(z2, {0: ONE, 1: ONE})
        cx = ChainComplex(z2, [1, 1], {1: d1})
        # scaling only one degree breaks commutation with d
        components = {
            0: ModuleMap.identity(z2, 1),
            1: ModuleMap.identity(z2, 1).scale(sc(2)),
        }
        with pytest.raises(ValueError, match="commute"):
            ChainMap(cx, cx, components)

    def test_algebra_and_rank_validation(self, z2, z3):
        cx2 = ChainComplex(z2, [1], {})
        cx3 = ChainComplex(z3, [1], {})
        with pytest.raises(ValueError, match="algebras"):
            ChainMap(cx2, cx3, {})
        with pytest.raises(ValueError, match="rank"):
            ChainMap(cx2, cx2, {0: ModuleMap.identity(z2, 2)})
        with pytest.raises(ValueError, match="out of range"):
            ChainMap(cx2, cx2, {3: ModuleMap.identity(z2, 1)})

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_random_maps_commute(self, seed):
        rng = random.Random(seed)
        algebra = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, algebra, max_length=2, max_rank=2)
        g = random_chain_complex(rng, algebra, max_length=2, max_rank=2)
        phi = random_chain_map(rng, f, g)
        for n in range(1, max(f.top_degree, g.top_degree) + 1):
            lhs = phi.target.differential(n).compose(phi.component(n))
            rhs = phi.component(n - 1).compose(phi.source.differential(n))
            assert lhs == rhs


class TestInducedHomologyMaps:
    def test_identity_induces_full_image(self, m2):
        bar = bar_complex(m2, 2)
        components = {
            n: ModuleMap.identity(bar.algebra, bar.rank(n)) for n in range(3)
        }
        phi = ChainMap(bar, bar, components)
        report = induced_homology_map(phi, 0)
        assert report["equal"], report
        assert report["plain"] == Fraction(1, 4)

    def test_zero_map_induces_zero(self, z3):
        rng = random.Random(21)
        cx = random_chain_complex(rng, z3, max_length=2, max_rank=2)
        phi = ChainMap(
            cx,
            cx,
            {
                n: ModuleMap.zero(z3, cx.rank(n), cx.rank(n))
                for n in range(cx.top_degree + 1)
            },
        )
        for n in range(cx.top_degree + 1):
            report = induced_homology_map(phi, n)
            assert report["equal"]
            assert report["plain"] == 0

    def test_scaled_identity_induces_full_image(self, z2):
        bar = bar_complex(z2, 2)
        components = {
            n: ModuleMap.identity(bar.algebra, bar.rank(n)).scale(Scalar(0, 1))
            for n in range(3)
        }
        phi = ChainMap(bar, bar, components)
        report = induced_homology_map(phi, 0)
        assert report["equal"]
        assert report["plain"] == betti_numbers(z2, 0).values[0]

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_three_routes_agree(self, seed):
        rng = random.Random(seed)
        algebra = random_algebra(rng, max_dim=4)
        f = random_chain_complex(rng, algebra, max_length=2, max_rank=2)
        g = random_chain_complex(rng, algebra, max_length=2, max_rank=2)
        phi = random_chain_map(rng, f, g if rng.random() < 0.5 else None)
        for n in range(phi.source.top_degree + 1):
            report = induced_homology_map(phi, n)
            assert report["equal"], (n, report)

    def test_image_dim_bounded_by_homology(self, z2):
        rng = random.Random(33)
        for _ in range(10):
            f = random_chain_complex(rng, z2, max_length=2, max_rank=2)
            phi = random_chain_map(rng, f)
            for n in range(f.top_degree + 1):
                report = induced_homology_map(phi, n)
                assert report["plain"] <= dim_homology(f, n)
