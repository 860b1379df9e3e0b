"""Curved A-infinity structures: validation, the hat extension, the
structure-relation residual, units, and the q-family deformation sums."""

import itertools
from fractions import Fraction

import pytest

from hochcyc.scalars import (
    TRIVIAL_CONTEXT,
    Cap,
    Context,
    FormalVarSpec,
    PiGroup,
    Scalar,
    mono_degree,
    scalar_mul,
)
from hochcyc.graded import (
    ChainComplex,
    Element,
    GradedModule,
    Word,
    word_from_factors,
)
from hochcyc.ainfty import (
    AInfty,
    BUILTIN_NAMES,
    DeformedQ,
    OCFamily,
    _insertion_patterns,
    ainfty_residual,
    ainfty_to_qfamily,
    builtin_algebras,
    hat_basis,
    hat_extension,
    unit_check,
)

CAP = Cap(energy=4, weight=4, var_total=4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_structure_relations(name):
    A = builtin_algebras(name)
    rep = ainfty_residual(A, CAP)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == sum(len(A.module.basis) ** w for w in range(5))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_strict_unit(name):
    A = builtin_algebras(name)
    rep = unit_check(A)
    assert rep.ok, rep.failures[:3]


def test_exterior_sizes():
    A = builtin_algebras("exterior(3)")
    assert len(A.module.basis) == 8
    assert sorted(A.module.degrees) == [0, 1, 1, 1, 2, 2, 2, 3]
    assert ainfty_residual(A, Cap(energy=0, weight=3, var_total=0)).ok


def test_curved_matrix_curvature():
    A = builtin_algebras("curved_matrix")
    mu0 = A.mu0()
    assert list(mu0.terms) == ["I"]
    assert mu0.terms["I"].valuation() == 1
    assert mu0.terms["I"].degree() == 2


def test_degree_law_enforced():
    mod = GradedModule("m", ("e", "x"), (0, 1), TRIVIAL_CONTEXT)
    bad = {("x", "x"): Element.generator(mod, "e")}
    with pytest.raises(ValueError, match="homogeneous"):
        AInfty(mod, bad)


def test_curvature_needs_positive_valuation():
    mod = GradedModule("m", ("e", "x"), (0, 2), TRIVIAL_CONTEXT)
    with pytest.raises(ValueError, match="positive valuation"):
        AInfty(mod, {(): Element.generator(mod, "x")})


def test_hat_extension_is_coderivation_shape():
    A = builtin_algebras("dual_numbers")
    w = Word.basis_word(A.module, ("eps", "eps", "eps"))
    out = hat_extension(A, w)
    # only mu_2 acts; three adjacent pairs, eps*eps = 0, plus unit pairs: all
    # products vanish, so the extension is zero on this word
    assert out.is_zero()
    w = Word.basis_word(A.module, ("eps", "e"))
    out = hat_extension(A, w)
    # mu_2(eps, e) = (-1)^{|eps|} eps * e = -eps
    assert out == Word.basis_word(A.module, ("eps",), -1)


def test_hat_extension_respects_front_coefficient_sign():
    A = builtin_algebras("dual_numbers")
    from hochcyc.scalars import Context, FormalVarSpec, PiGroup

    # same algebra over a ring with an odd variable
    ctx = Context(PiGroup(0, (), ()), FormalVarSpec((1,)))
    mod = GradedModule("dn", ("e", "eps"), (0, 1), ctx)
    e = Element.generator(mod, "e")
    eps = Element.generator(mod, "eps")
    prod = {("e", "e"): e, ("e", "eps"): eps, ("eps", "e"): -eps}
    A2 = AInfty(mod, prod, unit="e")
    t = Scalar.monomial(ctx, 1, (), (1,))
    w = Word(mod, {("eps", "e"): t})
    plain = hat_extension(A2, Word.basis_word(mod, ("eps", "e")))
    scaled = hat_extension(A2, w)
    assert not plain.is_zero()
    # odd operator past odd coefficient: one global minus sign
    assert scaled == Word(mod, {tup: -(t * s) for tup, s in plain.items()})


def _odd_variable_algebra(nvars):
    """A curved structure over Pi = Z (area 1/2, Maslov 0) and ``nvars`` odd
    variables, with thirds and halves in its structure constants, and a word
    to apply it to.  The structure constants use t0 and the word's
    coefficients the last variable, so with two variables merging monomials
    gives Koszul signs.  Only the degree law is needed here, not the
    A-infinity relations."""
    ctx = Context(PiGroup(1, (Fraction(1, 2),), (0,)),
                  FormalVarSpec((1,) * nvars))
    mod = GradedModule("odd_t", ("e", "x", "y"), (0, 1, 2), ctx)

    def sc(*terms, var=0):
        return Scalar(ctx, {((b,), tuple(e if i == var else 0
                                          for i in range(nvars))): c
                            for c, b, e in terms})

    def el(**coeffs):
        return Element(mod, coeffs)

    ops = {
        (): el(y=sc((Fraction(1, 2), 1, 0), (Fraction(-2, 3), 2, 0)),
               x=sc((Fraction(1, 3), 0, 1))),
        ("e",): el(x=sc((Fraction(1, 3), 1, 0)),
                   e=sc((Fraction(2, 3), 0, 1), (Fraction(-1, 2), 1, 1))),
        ("x",): el(y=sc((Fraction(1, 3), 0, 0), (1, 1, 0)),
                   x=sc((Fraction(3, 2), 1, 1))),
        ("e", "e"): el(e=sc((1, 0, 0))),
        ("e", "x"): el(x=sc((1, 0, 0))),
        ("x", "e"): el(x=sc((-1, 0, 0))),
        ("x", "x"): el(y=sc((Fraction(1, 2), 0, 0), (Fraction(-3, 2), 2, 0)),
                       x=sc((Fraction(5, 3), 0, 1))),
    }
    A = AInfty(mod, ops)
    last = nvars - 1
    # a third before the first half, in the word and in the images: a
    # common denominator found by anything short of the least common
    # multiple goes wrong here
    w = Word(mod, {
        (): sc((Fraction(1, 3), 3, 0)),
        ("x",): sc((Fraction(2, 3), 0, 0), (Fraction(-1, 2), 1, 0)),
        ("x", "e"): sc((Fraction(1, 2), 1, 0), (Fraction(5, 3), 2, 0)),
        ("y", "x"): sc((Fraction(-7, 2), 0, 1), var=last),
        ("e", "x", "x"): sc((Fraction(1, 3), 0, 1), (Fraction(-3, 2), 1, 1),
                            var=last),
    })
    return A, w


@pytest.mark.parametrize("nvars", [1, 2])
@pytest.mark.parametrize("cap", [
    None,
    Cap(energy=Fraction(3, 2), weight=4, var_total=1),
    Cap(energy=Fraction(3, 2), weight=4, var_total=0),
])
def test_hat_extension_is_exact_against_termwise_sum(cap, nvars):
    """The shared operator kernel agrees with a sum of capped scalar
    products, each carrying (-1)^{|c|} for passing the front coefficient c:
    signs from odd coefficients and from merging odd variables, denominators
    2, 3 and 6, and terms dropped at the energy and variable caps."""
    A, w = _odd_variable_algebra(nvars)
    mod = A.module
    expect = Word.zero(mod)
    for tup, c in w.items():
        sign = -1 if c.degree_parity() else 1
        for otup, s in hat_basis(A, tup):
            prod = scalar_mul(c, s, cap).scale(sign)
            expect = expect + Word(mod, {otup: prod})
    got = hat_extension(A, w, cap)
    assert got == expect
    coeffs = [q for s in got.terms.values() for q in s.terms.values()]
    assert all(type(q) is Fraction for q in coeffs)
    assert any(q.denominator % 3 == 0 for q in coeffs)
    ctx = mod.ctx
    monos = {m for s in got.terms.values() for m in s.terms}
    odd_kept = any(mono_degree(ctx, m) % 2 for m in monos)
    assert odd_kept == (cap is None or cap.var_total > 0)
    if cap is not None:
        full = hat_extension(A, w)
        dropped = {m for s in full.terms.values() for m in s.terms} - monos
        assert any(ctx.mono_valuation(m) > cap.energy
                   and sum(m[1]) <= cap.var_total for m in dropped)
        # the energy boundary is inclusive
        assert any(ctx.mono_valuation(m) == cap.energy for m in monos)
        if cap.var_total == 0:
            assert any(sum(m[1]) > 0 and ctx.mono_valuation(m) <= cap.energy
                       for m in dropped)


def test_insertion_patterns_are_weak_compositions():
    pats = list(_insertion_patterns(2, 3))
    assert len(pats) == 10  # C(3 + 2, 2)
    assert all(sum(p) == 3 and len(p) == 3 for p in pats)
    assert list(_insertion_patterns(0, 0)) == [(0,)]


def test_deformed_q_reduces_to_q_at_b_zero():
    A = builtin_algebras("curved_matrix")
    Q = ainfty_to_qfamily(A)
    cap = Cap(energy=3, weight=6, var_total=0)
    D = DeformedQ(Q, Element.zero(A.module), Element.zero(A.module), cap)
    for tup in [("K",), ("K", "F"), ("F", "G", "K")]:
        assert D.apply(tup) == A.mu(tup).truncate(cap)


def test_deformed_q_inserts_b_in_every_gap():
    from hochcyc.graded import word_from_factors

    A = builtin_algebras("curved_matrix")
    Q = ainfty_to_qfamily(A)
    # b has valuation 1, so at energy cap 1 only single insertions survive
    cap = Cap(energy=1, weight=6, var_total=0)
    T = Scalar.monomial(A.module.ctx, 1, (1,), ())
    b = Element(A.module, {"G": T})  # degree 2 - 1 = 1, valuation 1
    D = DeformedQ(Q, b, Element.zero(A.module), cap)
    # q^b_1(K) = mu_1(K) + mu_2(b, K) + mu_2(K, b) at this cap
    expect = A.mu(("K",)).truncate(cap)
    for factors in [(b, "K"), ("K", b)]:
        w = word_from_factors(A.module, list(factors), cap=cap)
        for tup, c in w.items():
            expect = expect + A.mu(tup).scalar_left(c, cap)
    assert D.apply(("K",)) == expect.truncate(cap)


def test_q_eval_expands_interior_inputs_with_koszul_signs():
    """q on interior Elements is q on the basis tuples of their unshifted
    tensor expansion, coefficients multiplied from the left.  An odd scalar
    passing an odd interior generator changes sign.  DeformedQ with b and
    gamma zero evaluates the same way."""
    ctx = Context(PiGroup(0, (), ()), FormalVarSpec((1,)))
    mod = GradedModule("qb", ("x", "y"), (1, 2), ctx)
    imod = GradedModule("qi", ("u", "v"), (1, 2), ctx)
    t = Scalar.monomial(ctx, 1, (), (1,))

    def gen(g, c=1):
        return Element.generator(mod, g, c)

    Q = OCFamily(mod, ChainComplex(mod, {}), 0, {
        (("x",), ()): gen("y"),
        (("x",), ("u",)): gen("x", 3),
        (("x",), ("v",)): Element(mod, {"y": t}),
        (("x",), ("u", "v")): gen("x", Fraction(1, 2)),
        (("x",), ("v", "u")): gen("y", -1),
    })
    u = Element.generator(imod, "u")
    cap = Cap(energy=2, weight=4, var_total=2)
    cases = [
        [],
        [Element(imod, {"u": Scalar.one(ctx), "v": t})],
        [u, Element(imod, {"v": t})],
        [Element(imod, {"v": t}), u],
    ]
    for interior in cases:
        want = Element.zero(mod)
        for itup, c in word_from_factors(imod, interior,
                                         shifted=False).items():
            want = want + Q.p(("x",), itup).scalar_left(c, cap)
        assert Q.eval_tuple(("x",), interior, cap) == want
        D = DeformedQ(Q, Element.zero(mod), Element.zero(imod), cap)
        assert D.apply(("x",), interior) == want.truncate(cap)
    # the odd scalar t passes the odd generator u: -(1/2) t x
    got = Q.eval_tuple(("x",), [u, Element(imod, {"v": t})], cap)
    assert got == Element(mod, {"x": t.scale(Fraction(-1, 2))})


def test_boundary_slice_round_trip():
    A = builtin_algebras("exterior(2)")
    Q = ainfty_to_qfamily(A)
    assert {b: el for (b, i), el in Q.ops.items() if not i} == A.ops


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_q_family_without_interior_inputs_is_mu(name):
    # eval_tuple with no interior inputs is the table lookup, truncated
    A = builtin_algebras(name)
    Q = ainfty_to_qfamily(A)
    cap = Cap(energy=0, weight=3, var_total=0)
    for w in range(4):
        for tup in itertools.product(A.module.basis, repeat=w):
            assert Q.eval_tuple(tup, (), cap) == A.mu(tup).truncate(cap)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_algebras("no_such_algebra")
