"""Coefficient-ring arithmetic: grading, valuation, graded commutativity,
derivations, truncation, and the textual grammar."""

import math
from fractions import Fraction

import pytest

from hochcyc.scalars import (
    INFINITY,
    TRIVIAL_CONTEXT,
    Cap,
    Context,
    FormalVarSpec,
    PiGroup,
    Scalar,
    ScalarParseError,
    parse_scalar,
    scalar_mul,
    scalar_to_str,
)


@pytest.fixture
def ctx():
    # rank-2 group, one even and two odd formal variables
    return Context(
        PiGroup(2, (Fraction(1), Fraction(1, 2)), (2, 0)),
        FormalVarSpec((0, 1, 1)),
    )


def test_zero_scalar_has_infinite_valuation(ctx):
    assert Scalar.zero(ctx).valuation() == INFINITY
    assert Scalar.zero(ctx).valuation() == math.inf


def test_valuation_is_area_plus_variable_total(ctx):
    s = Scalar.monomial(ctx, 1, (1, 2), (3, 0, 0))
    assert s.valuation() == Fraction(1) + Fraction(1) + 3


def test_degree_combines_maslov_and_variable_degrees(ctx):
    s = Scalar.monomial(ctx, 1, (2, 1), (5, 1, 0))
    # maslov: 2*2 + 1*0 = 4; variables: 5*0 + 1*1 = 1
    assert s.degree() == 5
    assert s.degree_parity() == 1


def test_valuation_of_sum_is_min(ctx):
    a = Scalar.monomial(ctx, 1, (1, 0))
    b = Scalar.monomial(ctx, 1, (0, 1))
    assert (a + b).valuation() == Fraction(1, 2)


def test_negative_area_rejected(ctx):
    with pytest.raises(ValueError, match="omega"):
        Scalar.monomial(ctx, 1, (-1, 0))


def test_odd_variable_square_rejected_and_annihilated(ctx):
    with pytest.raises(ValueError):
        Scalar.monomial(ctx, 1, (0, 0), (0, 2, 0))
    t1 = Scalar.monomial(ctx, 1, None, (0, 1, 0))
    assert scalar_mul(t1, t1).is_zero()


def test_odd_variables_anticommute(ctx):
    t1 = Scalar.monomial(ctx, 1, None, (0, 1, 0))
    t2 = Scalar.monomial(ctx, 1, None, (0, 0, 1))
    assert t1 * t2 == -(t2 * t1)
    assert (t1 * t2).terms == {(ctx.zero_beta, (0, 1, 1)): Fraction(1)}


def test_mono_mul_koszul_sign(ctx):
    # merging t2 into a monomial already containing t1 crosses one odd var
    m1 = ((0, 0), (0, 0, 1))
    m2 = ((0, 0), (0, 1, 0))
    mono, sign = ctx.mono_mul(m1, m2)
    assert mono == ((0, 0), (0, 1, 1))
    assert sign == 1


def test_even_variable_commutes_freely(ctx):
    t0 = Scalar.monomial(ctx, 1, None, (1, 0, 0))
    t1 = Scalar.monomial(ctx, 1, None, (0, 1, 0))
    assert t0 * t1 == t1 * t0


def test_partial_t_power_rule(ctx):
    s = Scalar.monomial(ctx, 1, None, (3, 0, 0))
    assert s.partial_t(0) == Scalar.monomial(ctx, 3, None, (2, 0, 0))


def test_partial_t_graded_leibniz_sign(ctx):
    # d/dt2 of t1*t2 passes one odd variable: -t1
    s = Scalar.monomial(ctx, 1, None, (0, 1, 1))
    assert s.partial_t(2) == Scalar.monomial(ctx, -1, None, (0, 1, 0))
    assert s.partial_t(1) == Scalar.monomial(ctx, 1, None, (0, 0, 1))


def test_partial_t_squares_to_zero_on_odd_vars(ctx):
    s = Scalar.monomial(ctx, 1, None, (2, 1, 1))
    assert s.partial_t(1).partial_t(1).is_zero()


def test_truncate_drops_by_energy_and_var_total(ctx):
    cap = Cap(energy=2, weight=3, var_total=1)
    s = (Scalar.monomial(ctx, 1, (1, 0))              # valuation 1
         + Scalar.monomial(ctx, 1, (3, 0))            # valuation 3
         + Scalar.monomial(ctx, 1, None, (2, 0, 0)))  # var total 2
    t = s.truncate(cap)
    assert t == Scalar.monomial(ctx, 1, (1, 0))


def test_trivial_context_scalars_are_rationals():
    half = Scalar.rational(TRIVIAL_CONTEXT, Fraction(1, 2))
    assert (half + half) == Scalar.one(TRIVIAL_CONTEXT)
    assert half.degree() == 0
    assert half.valuation() == 0


def test_parse_round_trip(ctx):
    s = (Scalar.monomial(ctx, Fraction(-3, 2), (1, 2), (2, 0, 0))
         + Scalar.monomial(ctx, 5, None, (0, 1, 1))
         + Scalar.rational(ctx, 7))
    assert parse_scalar(ctx, scalar_to_str(s)) == s


def test_parse_examples(ctx):
    assert parse_scalar(ctx, "0").is_zero()
    assert parse_scalar(ctx, "1/3 * T^[1,0] * t0^2") == Scalar.monomial(
        ctx, Fraction(1, 3), (1, 0), (2, 0, 0))
    assert parse_scalar(ctx, "t1 - t2") == (
        Scalar.monomial(ctx, 1, None, (0, 1, 0))
        - Scalar.monomial(ctx, 1, None, (0, 0, 1)))
    assert parse_scalar(ctx, "-2") == Scalar.rational(ctx, -2)


def test_parse_errors(ctx):
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "t9")
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "q * t0")
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "T^[1] * t0")  # wrong beta length


def test_maslov_must_be_even():
    with pytest.raises(ValueError, match="even"):
        PiGroup(1, (Fraction(1),), (1,))
