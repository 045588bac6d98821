import pytest

from qstrata import (
    CurveFunctional,
    InvalidSpec,
    curve_functional,
    delta0_class,
    lambda_class,
    oracle,
    pair,
    valid_specs,
)
from qstrata.testcurves import TestCurveSpec as CurveSpec
from qstrata.testcurves import validate_spec


def test_curve_a_values():
    f = curve_functional(CurveSpec("A", 3, 1, 3))
    assert f.boundary_coeff(1, {1, 2, 3}) == -3
    assert f.psi_coeff(4) == 1
    assert f.boundary_coeff(1, {1, 2, 3, 4}) == 1
    assert f.lam == 0 and f.delta0 == 0


def test_curve_a_self_intersection_identity():
    # the node-class value equals (2 - 2(g-i)) - (2g-2-s), the blow-up count
    for g, i, s in ((3, 1, 1), (3, 0, 2), (4, 2, 3), (5, 3, 2)):
        f = curve_functional(CurveSpec("A", g, i, s))
        assert f.boundary_coeff(i, range(1, s + 1)) == (2 - 2 * (g - i)) - (2 * g - 2 - s)


def test_curve_b_values():
    f = curve_functional(CurveSpec("B", 3, 1, 0))
    assert f.boundary_coeff(1, ()) == 1  # canonical form of the empty side
    assert f.psi_coeff(1) == 1
    f = curve_functional(CurveSpec("B", 3, 2, 2))
    assert f.boundary_coeff(2, {1, 2}) == 1
    assert f.boundary_coeff(2, {1, 2, 3}) == -1
    assert f.psi_coeff(3) == 5
    assert f.boundary_coeff(0, {1, 3}) == 1
    assert f.boundary_coeff(0, {2, 3}) == 1


def test_curve_b_range_check():
    # at g=2 (n=2) family B stops at s = 1
    with pytest.raises(InvalidSpec):
        curve_functional(CurveSpec("B", 2, 0, 2))
    with pytest.raises(InvalidSpec):
        curve_functional(CurveSpec("B", 2, 1, 2))
    curve_functional(CurveSpec("B", 2, 1, 1))
    curve_functional(CurveSpec("B", 2, 1, 0))


def test_curve_c_values():
    f = curve_functional(CurveSpec("C", 3, 1, 1))
    assert f.boundary_coeff(0, {2, 3}) == 1
    assert f.boundary_coeff(1, {1}) == -1
    assert f.lam == 0 and f.delta0 == 0
    assert f.psi_coeff(2) == 1
    assert f.psi_coeff(3) == 1


def test_all_functionals_blind_to_lambda_and_delta0():
    for g in (2, 3, 4):
        lam, d0 = lambda_class(g, 2 * g - 2), delta0_class(g, 2 * g - 2)
        for spec in valid_specs(g):
            f = curve_functional(spec)
            assert pair(f, lam) == 0
            assert pair(f, d0) == 0


def test_coincidence_c01_is_b02():
    # needs 1 <= 2g-4, so the smallest genus carrying both curves is 3
    for g in (3, 4, 5):
        c01 = curve_functional(CurveSpec("C", g, 0, 1))
        assert c01 == curve_functional(CurveSpec("B", g, 0, 2))


def test_degenerate_a_rejected():
    with pytest.raises(InvalidSpec):
        curve_functional(CurveSpec("A", 3, 0, 1))
    with pytest.raises(InvalidSpec):
        curve_functional(CurveSpec("A", 3, 3, 2))  # i = g needs s <= 2g-5


def test_contracted_corner_constructible():
    # moving point on a one-component curve: psi value (2i-1+s) - 1
    g = 3
    f = curve_functional(CurveSpec("B", g, g, 2 * g - 3))
    assert f.psi_coeff(2 * g - 2) == 4 * g - 5
    # the formally-listed full-set class names no divisor and is dropped
    assert isinstance(f, CurveFunctional)
    f = curve_functional(CurveSpec("C", g, g, 2 * g - 5))
    assert f.lam == 0


def test_oracle_a_values():
    assert oracle(CurveSpec("A", 3, 1, 1)) == 32
    assert oracle(CurveSpec("A", 3, 1, 4)) == 144
    assert oracle(CurveSpec("A", 3, 2, 4)) == 0
    assert oracle(CurveSpec("A", 3, 0, 2)) == 192


def test_oracle_a_even_in_s_minus_2i():
    # 4^{g-1}(s-2i)^2(g-i) only sees (s-2i)^2
    for g in (3, 4):
        for i in range(0, g):
            for s in range(1, 2 * g - 2):
                try:
                    left = oracle(CurveSpec("A", g, i, s))
                except InvalidSpec:
                    continue
                assert left == 4 ** (g - 1) * (s - 2 * i) ** 2 * (g - i)


def test_oracle_b_values():
    assert oracle(CurveSpec("B", 3, 1, 0)) == 0
    assert oracle(CurveSpec("B", 3, 2, 1)) == 32
    assert oracle(CurveSpec("B", 2, 1, 1)) == 4


def test_oracle_c_values():
    assert oracle(CurveSpec("C", 3, 1, 1)) == 0
    assert oracle(CurveSpec("C", 3, 1, 0)) == 16
    assert oracle(CurveSpec("C", 3, 1, 2)) == 8


def test_valid_specs_deterministic():
    first = list(valid_specs(3))
    assert first == list(valid_specs(3))
    assert len(first) == len(set(first))


def test_valid_specs_is_the_filtered_grid():
    # every (family, i, s) of the 3(g+1)(2g-1) grid that validate_spec
    # accepts, in grid order
    for g in range(0, 13):
        grid = []
        for family in ("A", "B", "C"):
            for i in range(g + 1):
                for s in range(2 * g - 1):
                    try:
                        validate_spec(family, g, i, s)
                    except InvalidSpec:
                        continue
                    grid.append((family, g, i, s))
        assert [(x.family, x.g, x.i, x.s) for x in valid_specs(g)] == grid, g


def test_valid_specs_are_the_validated_specs():
    # valid_specs builds its specs with _make, past TestCurveSpec's check
    for g in range(2, 41):
        got = list(valid_specs(g))
        assert got == [CurveSpec(*spec) for spec in got], g
        assert all(isinstance(spec, CurveSpec) for spec in got), g
