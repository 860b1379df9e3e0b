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
from hochcyc.graded import GradedModule
from hochcyc.homology import Truncation


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
    # one sign may lead the first term, as ``scalar_to_str`` writes -1
    assert parse_scalar(ctx, "-T^[1,0]") == Scalar.monomial(ctx, -1, (1, 0))
    assert parse_scalar(ctx, "-t0") == Scalar.monomial(
        ctx, -1, None, (1, 0, 0))
    assert parse_scalar(ctx, "+3") == Scalar.rational(ctx, 3)
    assert parse_scalar(ctx, "- 3") == Scalar.rational(ctx, -3)


def test_parse_errors(ctx):
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "t9")
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "q * t0")
    with pytest.raises(ScalarParseError):
        parse_scalar(ctx, "T^[1] * t0")  # wrong beta length
    # a sign leads a term, never a factor, and a term has one sign
    for text in ("2*-t0", "t0 - -t1", "-", "--3", "2*-3", "2 * -3",
                 "1/2*-1", "3*-1/2"):
        with pytest.raises(ScalarParseError):
            parse_scalar(ctx, text)


def test_maslov_must_be_even():
    with pytest.raises(ValueError, match="even"):
        PiGroup(1, (Fraction(1),), (1,))


_CTX_REPR = ("Context(pi=PiGroup(rank=0, omega=(), maslov=()), "
             "tvars=FormalVarSpec(degrees=()))")

# (positional construction, keyword construction, repr) of each value type
VALUE_TYPES = [
    (lambda: Cap(1, 2, 3),
     lambda: Cap(energy=Fraction(1), weight=2, var_total=3),
     "Cap(energy=Fraction(1, 1), weight=2, var_total=3)"),
    (lambda: PiGroup(1, (1,), (2,)),
     lambda: PiGroup(rank=1, omega=(Fraction(1),), maslov=(2,)),
     "PiGroup(rank=1, omega=(Fraction(1, 1),), maslov=(2,))"),
    (lambda: FormalVarSpec((0, 1)),
     lambda: FormalVarSpec(degrees=(0, 1)),
     "FormalVarSpec(degrees=(0, 1))"),
    (lambda: GradedModule("m", ("x",), (1,), TRIVIAL_CONTEXT),
     lambda: GradedModule(name="m", basis=("x",), degrees=(1,),
                          ctx=Context(PiGroup(0, (), ()), FormalVarSpec(()))),
     f"GradedModule(name='m', basis=('x',), degrees=(1,), ctx={_CTX_REPR})"),
    (lambda: Truncation(Cap("1/2", 2, 0), -1, 2),
     lambda: Truncation(cap=Cap(Fraction(1, 2), 2, 0), d_min=-1, d_max=2),
     "Truncation(cap=Cap(energy=Fraction(1, 2), weight=2, var_total=0), "
     "d_min=-1, d_max=2)"),
]


@pytest.mark.parametrize("positional, keyword, text", VALUE_TYPES,
                         ids=[text.split("(")[0] for *_, text in VALUE_TYPES])
def test_value_types_compare_hash_and_print_by_value(positional, keyword,
                                                     text):
    """Equal values, built positionally or by keyword, compare and hash
    equal, print as ``Name(field=value, ...)`` and cannot be assigned to."""
    a, b = positional(), keyword()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == text
    field = text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        a.extra = 0


def test_value_types_normalise_to_fractions_and_validate():
    assert type(Cap(2, 0, 0).energy) is Fraction
    assert Cap("1/2", 1, 0) == Cap(Fraction(1, 2), 1, 0)
    assert all(type(w) is Fraction for w in PiGroup(2, (1, 0.5), (0, 2)).omega)
    for args in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="cap components must be "
                                             "nonnegative"):
            Cap(*args)
    with pytest.raises(ValueError, match="maslov values must be even"):
        PiGroup(1, (1,), (3,))
    with pytest.raises(ValueError, match="one value per generator"):
        PiGroup(2, (1,), (0, 0))
    with pytest.raises(ValueError, match="generator names must be unique"):
        GradedModule("m", ("x", "x"), (0, 0), TRIVIAL_CONTEXT)
    with pytest.raises(ValueError, match="one degree per generator"):
        GradedModule("m", ("x", "y"), (0,), TRIVIAL_CONTEXT)
    with pytest.raises(ValueError, match="empty degree window"):
        Truncation(Cap(1, 1, 0), 2, 1)


def test_context_memos_take_no_part_in_equality(ctx):
    """Contexts compare and hash by (pi, tvars) alone: filling one's
    memos of valuation, parity and product changes neither."""
    other = Context(ctx.pi, ctx.tvars)
    m = ((1, 0), (1, 1, 0))
    ctx.mono_valuation(m)
    ctx.mono_parity(m)
    ctx.mono_mul(m, m)
    assert ctx._vcache and ctx._pcache and ctx._mcache
    assert not other._vcache and not other._mcache
    assert ctx == other and hash(ctx) == hash(other)
    assert ctx != Context(ctx.pi, FormalVarSpec((0, 1)))
    assert len({ctx, other}) == 1
