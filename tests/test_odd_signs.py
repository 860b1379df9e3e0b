"""Property tests over a coefficient ring with odd variables: the grading
involution ``Scalar.twist``, and the differential of a target complex and
the evaluation of an operation family, which pass coefficients with it, on
coefficients that mix degree parities."""

from fractions import Fraction

from hypothesis import given, strategies as st

from hochcyc.scalars import Cap, Context, FormalVarSpec, PiGroup, Scalar
from hochcyc.graded import ChainComplex, Element, GradedModule, Word
from hochcyc.ainfty import OCFamily

# Pi = Z (area 1/2, Maslov 2), two odd variables t0, t1 and an even t2
CTX = Context(PiGroup(1, (Fraction(1, 2),), (2,)), FormalVarSpec((1, 1, 2)))


def _scalars(parity=None):
    """Scalars with up to four monomials; with ``parity`` given, only
    monomials of that degree parity, and at least one."""
    monos = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1),
                      st.integers(0, 2))
    if parity is not None:  # t1 fixed by t0 and the parity
        monos = monos.map(lambda m: (m[0], m[1], (m[1] + parity) % 2, m[3]))
    coeffs = st.builds(Fraction, st.integers(-4, 4).filter(bool),
                       st.integers(1, 3))
    return st.dictionaries(monos.map(lambda m: ((m[0],), m[1:])), coeffs,
                           min_size=0 if parity is None else 1,
                           max_size=4).map(lambda d: Scalar(CTX, d))


SCALARS = _scalars()
EVEN = _scalars(0)
ODD = _scalars(1)


def _mono(c, t0=0, t1=0):
    return Scalar.monomial(CTX, c, (0,), (t0, t1, 0))


ONE = _mono(1)
TMOD = GradedModule("target", ("u", "v", "w"), (0, 1, 2), CTX)
# every image has a term with an odd coefficient; d^2 = 0 is not needed here
COMPLEX = ChainComplex(TMOD, {
    "u": Element(TMOD, {"v": ONE, "u": _mono(1, t0=1)}),
    "v": Element(TMOD, {"w": _mono(2), "v": _mono(-1, t1=1)}),
    "w": Element(TMOD, {"w": _mono(3, t0=1)}),
})
BMOD = GradedModule("boundary", ("x", "y"), (1, 2), CTX)
OPS = {
    (("x", "y"), ()): Element(TMOD, {"u": ONE, "v": _mono(1, t1=1)}),
    (("y",), ()): Element(TMOD, {"w": _mono(2, t0=1)}),
    (("x",), ("v",)): Element(TMOD, {"w": ONE}),
    (("x",), ("v", "w")): Element(TMOD, {"u": _mono(1, t0=1, t1=1)}),
    (("x",), ("w", "v")): Element(TMOD, {"v": _mono(2, t0=1)}),
}
CAP = Cap(energy=2, weight=4, var_total=3)


@given(SCALARS, SCALARS)
def test_twist_is_an_involution_respecting_sums_and_products(a, b):
    assert a.twist().twist() == a
    assert (a + b).twist() == a.twist() + b.twist()
    assert (a * b).twist() == a.twist() * b.twist()


@given(EVEN, ODD)
def test_twist_fixes_the_even_part_and_negates_the_odd_part(e, o):
    assert e.twist() is e
    assert o.twist() == -o
    assert (e + o).twist() == e - o


@given(EVEN, ODD, st.sampled_from(TMOD.basis))
def test_differential_is_additive_over_the_parity_parts(e, o, g):
    d = COMPLEX.d
    even, odd = d(Element(TMOD, {g: e})), d(Element(TMOD, {g: o}))
    assert d(Element(TMOD, {g: e + o})) == even + odd
    # an odd operator passes an odd coefficient with a sign
    assert even == COMPLEX.diff[g].scalar_left(e)
    assert odd == -COMPLEX.diff[g].scalar_left(o)


@given(EVEN, ODD, st.sampled_from([0, 1]), st.sampled_from([None, CAP]))
def test_eval_word_is_additive_over_boundary_parity_parts(e, o, n, cap):
    p = OCFamily(BMOD, COMPLEX, n, OPS)
    gammas = ([], [Element.generator(TMOD, "v")],
              [Element.generator(TMOD, "v"), Element(TMOD, {"w": e})])
    for btup in (("x", "y"), ("y",), ("x",)):
        for gamma in gammas:
            def ev(c):
                return p.eval_word(Word(BMOD, {btup: c}), gamma, cap)
            assert ev(e + o) == ev(e) + ev(o), (btup, len(gamma))


@given(EVEN, ODD, SCALARS, st.sampled_from([0, 1]))
def test_eval_word_is_additive_over_interior_parity_parts(e, o, c, n):
    p = OCFamily(BMOD, COMPLEX, n, OPS)
    word = Word(BMOD, {("x",): c})
    w = Element.generator(TMOD, "w")
    for slot in range(2):
        def ev(s):
            gamma = [Element(TMOD, {"v": s}), w]
            return p.eval_word(word, gamma[slot:] + gamma[:slot], CAP)
        assert ev(e + o) == ev(e) + ev(o), slot
