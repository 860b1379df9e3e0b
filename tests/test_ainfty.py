"""Curved A-infinity structures: validation, the hat extension, the
structure-relation residual, units, and the q-family deformation sums."""

import itertools
import random
from fractions import Fraction
from functools import partial

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
from hochcyc.complexes import (UNIT_KILLING_VARIANTS, Variant, canonical_form,
                               dsquare_sweep, hoch_diff_word, random_word,
                               variant_images)
from hochcyc.ainfty import (
    AInfty,
    BUILTIN_NAMES,
    DeformedQ,
    OCFamily,
    _insertion_patterns,
    ainfty_residual,
    apply_images,
    builtin_algebras,
    diff_basis,
    hat_basis,
    hat_extension,
    image_counts,
    int_word_to_word,
    unit_check,
)

CAP = Cap(energy=4, weight=4, var_total=4)

# (nvars, mu3) arguments of _odd_variable_algebra
ODD_CASES = [pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
             pytest.param(2, True, id="2-mu3")]


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


def test_unit_check_reports_each_broken_axiom():
    """Perturbed copies of dual_numbers: no unit raises; unit eps breaks the
    degree and both unit laws; mu_2(eps, e) = +eps breaks the right unit
    law only; mu_3(e, eps, eps) = eps breaks the vanishing of the other
    arities on the unit."""
    A = builtin_algebras("dual_numbers")
    mod = A.module
    with pytest.raises(ValueError, match="no unit"):
        unit_check(AInfty(mod, A.ops))

    def axioms(ops, unit="e"):
        rep = unit_check(AInfty(mod, ops, unit=unit))
        return sorted((f["axiom"], f.get("x") or f.get("tuple") or f["got"])
                      for f in rep.failures)

    assert axioms(A.ops, unit="eps") == [
        ("mu2(e,x)=x", "e"), ("mu2(e,x)=x", "eps"),
        ("mu2(x,e)=(-1)^{|x|}x", "e"), ("mu2(x,e)=(-1)^{|x|}x", "eps"),
        ("unit-degree", 1)]
    right = dict(A.ops)
    right[("eps", "e")] = Element.generator(mod, "eps")
    assert axioms(right) == [("mu2(x,e)=(-1)^{|x|}x", "eps")]
    mu3 = dict(A.ops)
    mu3[("e", "eps", "eps")] = Element.generator(mod, "eps")
    rep = unit_check(AInfty(mod, mu3, unit="e"))
    assert rep.checked == 1 + 2 * 2 + (2 ** 3 - 1)
    assert rep.failures == [{"axiom": "mu_3 vanishes on unit",
                             "tuple": ("e", "eps", "eps")}]


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


def _odd_variable_algebra(nvars, mu3=False):
    """A curved structure over Pi = Z (area 1/2, Maslov 0) and ``nvars`` odd
    variables, with thirds and halves in its structure constants, and a word
    to apply it to.  The structure constants use t0 and the word's
    coefficients the last variable, so with two variables merging monomials
    gives Koszul signs.  With ``mu3`` there are two ternary operations as
    well, one with an odd coefficient.  Only the degree law is needed here,
    not the A-infinity relations."""
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
    if mu3:
        ops[("x", "x", "e")] = el(x=sc((Fraction(2, 3), 1, 0)))
        ops[("x", "e", "y")] = el(x=sc((Fraction(1, 2), 0, 1)))
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
    if mu3:
        # each ternary operation inserted after an odd shifted prefix
        w = w + Word(mod, {
            ("e", "x", "x", "e"): sc((Fraction(1, 3), 1, 0)),
            ("y", "x", "e", "y"): sc((Fraction(-1, 2), 0, 1), var=last),
        })
    return A, w


def _hat_reference(A, tup):
    """mu-hat on one basis tuple as {output tuple: Scalar}, summed with
    Fractions straight from ``A.ops``: over every splitting
    tup = l1 o l2 o l3, (-1)^{||l1|| (1 + |c|)} c l1 (x) g (x) l3 for each
    term c g of mu(l2)."""
    mod = A.module
    out = {}
    for i in range(len(tup) + 1):
        shifted = sum(mod.degree(g) + 1 for g in tup[:i]) % 2
        for j in range(i, len(tup) + 1):
            for g, s in A.mu(tup[i:j]).items():
                otup = tup[:i] + (g,) + tup[j:]
                part = -s if shifted * (1 + s.degree_parity()) % 2 else s
                out[otup] = out.get(otup, Scalar.zero(mod.ctx)) + part
    return {t: s for t, s in out.items() if s}


def _diff_reference(A, tup):
    """The Hochschild differential on one basis tuple x (x) l of weight at
    least one, as {output tuple: Scalar} summed with Fractions from
    ``A.ops``: x (x) ``_hat_reference(l)``, each term c passing the shifted
    x with (-1)^{||x|| (1 + |c|)}, plus over every splitting
    l = l1 o l2 o l3 the wrap-around term
    (-1)^{||l3|| (||x|| + ||l1|| + ||l2||)} mu(l3 (x) x (x) l1) (x) l2."""
    mod = A.module

    def shifted(t):
        return sum(mod.degree(g) + 1 for g in t) % 2

    out = {}

    def add(otup, s, sign):
        out[otup] = out.get(otup, Scalar.zero(mod.ctx)) + (-s if sign else s)

    x, l = tup[0], tup[1:]
    for t, s in _hat_reference(A, l).items():
        add((x,) + t, s, shifted((x,)) * (1 + s.degree_parity()) % 2)
    for a in range(len(l) + 1):
        for b in range(a, len(l) + 1):
            l1, l2, l3 = l[:a], l[a:b], l[b:]
            for g, s in A.mu(l3 + (x,) + l1).items():
                add((g,) + l2, s, shifted(l3) * shifted((x,) + l[:b]))
    return {t: s for t, s in out.items() if s}


@pytest.mark.parametrize("nvars,mu3", ODD_CASES)
@pytest.mark.parametrize("cap", [
    None,
    Cap(energy=Fraction(3, 2), weight=4, var_total=1),
    Cap(energy=Fraction(3, 2), weight=4, var_total=0),
])
def test_hat_extension_is_exact_against_termwise_sum(cap, nvars, mu3):
    """The shared operator kernel agrees with a sum of capped scalar
    products of Fraction images built from ``A.ops``, each carrying
    (-1)^{|c|} for passing the front coefficient c: signs from odd
    coefficients and from merging odd variables, denominators 2, 3 and 6,
    and terms dropped at the energy and variable caps."""
    A, w = _odd_variable_algebra(nvars, mu3)
    mod = A.module
    expect = Word.zero(mod)
    for tup, c in w.items():
        sign = -1 if c.degree_parity() else 1
        for otup, s in _hat_reference(A, tup).items():
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


def _image_terms(image):
    """A cached image, a flat tuple of (output tuple, monomial, numerator)
    triples, as {output tuple: {monomial: numerator}}; no (output tuple,
    monomial) pair may be named twice."""
    out = {}
    it = iter(image)
    for t, m, n in zip(it, it, it):
        bucket = out.setdefault(t, {})
        assert m not in bucket, (t, m)
        bucket[m] = n
    return out


@pytest.mark.parametrize("nvars,mu3", ODD_CASES)
def test_cached_images_are_integers_over_den(nvars, mu3):
    """The compiled table and every cached operator image hold only nonzero
    int numerators, and they are the Fraction values times ``A.den``: the
    table's are ``A.ops``, mu-hat's the Fraction reference, and the
    Hochschild differential's the reference with x (x) mu-hat(l) and the
    wrap-around terms merged per output tuple."""
    A, w = _odd_variable_algebra(nvars, mu3)
    assert A.den == 6
    hat_extension(A, w)
    hoch_diff_word(A, w)
    hats, diffs = A._image_cache["hat"], A._image_cache["diff"]
    assert hats and diffs
    for cache in (A.table, hats, diffs):
        for image in cache.values():
            assert len(image) % 3 == 0
            assert all(type(n) is int and n for n in image[2::3])
    assert A.table.keys() == A.ops.keys()
    for tup, image in A.table.items():
        want = {(g,): {m: q * A.den for m, q in s.terms.items()}
                for g, s in A.ops[tup].items()}
        assert _image_terms(image) == want, tup
    for tup, image in hats.items():
        want = {t: {m: q * A.den for m, q in s.terms.items()}
                for t, s in _hat_reference(A, tup).items()}
        assert _image_terms(image) == want
    for tup, image in diffs.items():
        want = {t: {m: q * A.den for m, q in s.terms.items()}
                for t, s in _diff_reference(A, tup).items()}
        assert _image_terms(image) == want, tup


def _termwise(A, word, reference, cap, rule=None):
    """The odd operator on a Word summed term by term with Fractions: each
    front monomial c of ``word`` at tuple tup, times each term s of
    ``reference(A, tup)``, passing with (-1)^{|c|}, the product capped;
    with ``rule`` each output tuple goes through it first."""
    mod = A.module
    out = Word.zero(mod)
    for tup, coeff in word.items():
        for m, q in coeff.terms.items():
            front = Scalar(mod.ctx, {m: q})
            sign = -1 if mod.ctx.mono_parity(m) else 1
            for otup, s in reference(A, tup).items():
                if rule is not None:
                    can = rule(A, otup)
                    if can is None:
                        continue
                    otup, s = can[0], -s if can[1] else s
                prod = scalar_mul(front, s, cap).scale(sign)
                out = out + Word(mod, {otup: prod})
    return out


def _kernel_case(name):
    """An algebra, a cap, (tuple, monomial, numerator) triples of an
    integer word over 6, and the tuple every product of whose terms the
    cap drops.  The words carry several monomials per tuple and an
    explicit zero numerator beside a nonzero one at the same monomial."""
    if name == "curved_matrix":
        A = builtin_algebras(name)

        def T(k):
            return ((k,), ())
        triples = [(("K", "F"), T(0), 3), (("K", "F"), T(1), -2),
                   (("G",), T(1), 5), (("F", "G", "K"), T(1), 0),
                   (("F", "G", "K"), T(2), 1), (("I", "G"), T(3), 7)]
        return A, Cap(2, 4, 0), triples, ("I", "G")
    A = _odd_variable_algebra(2, mu3=True)[0]

    def m(b, *e):
        return ((b,), e)
    # ("x", "e") carries monomials of both parities; ("e", "x", "x") only
    # t0 t1, whose variable total the cap drops
    triples = [(("x", "e"), m(0, 0, 0), 2), (("x", "e"), m(1, 0, 1), -3),
               (("y",), m(1, 0, 0), 0), (("e", "x"), m(1, 0, 0), 1),
               (("x", "x", "e"), m(0, 1, 0), 4), (("e",), m(2, 0, 0), -1),
               (("e", "x", "x"), m(0, 1, 1), 5)]
    return A, Cap(Fraction(3, 2), 4, 1), triples, ("e", "x", "x")


@pytest.mark.parametrize("name", ["curved_matrix", "odd2-mu3"])
def test_kernel_on_integer_words_is_exact_against_termwise_sums(name):
    """``apply_images`` on a monomial-major integer word equals the
    termwise Fraction sums of ``_hat_reference`` (applied twice) and of
    ``_diff_reference``, through the Hochschild and the cyclic quotient,
    capped and uncapped: T-powers on ``curved_matrix``, Koszul signs of odd
    front monomials and odd variables on the odd algebra.  A zero numerator
    adds nothing and reads no image, each image is read once per call, and
    a tuple whose products the cap all drops adds nothing under the cap."""
    A, capped, triples, dropped = _kernel_case(name)
    mod = A.module
    iword: dict = {}
    fractions: dict = {}
    for tup, mono, n in triples:
        iword.setdefault(mono, {})[tup] = n
        fractions.setdefault(tup, {})[mono] = Fraction(n, 6)
    assert any(0 in b.values() and any(b.values()) for b in iword.values())
    assert name == "curved_matrix" or {
        mod.ctx.mono_parity(mono) for mono in fractions[triples[1][0]]
    } == {0, 1}
    word = Word(mod, {t: Scalar(mod.ctx, c) for t, c in fractions.items()})

    for cap in (None, capped):
        once = apply_images(A, iword, hat_basis, cap)
        twice = apply_images(A, once, hat_basis, cap)
        ref_once = _termwise(A, word, _hat_reference, cap)
        assert int_word_to_word(mod, once, 6 * A.den) == ref_once
        assert ref_once and _termwise(A, ref_once, _hat_reference, cap) \
            == int_word_to_word(mod, twice, 6 * A.den * A.den)
        for variant in (Variant.HOCHSCHILD, Variant.CONNES):
            got = apply_images(A, iword, variant_images(variant), cap)
            want = _termwise(A, word, _diff_reference, cap,
                             partial(canonical_form, variant=variant))
            assert want and int_word_to_word(mod, got, 6 * A.den) == want
    # each image is read once per call, however many front monomials its
    # tuple carries
    fetched = []

    def counted(A, tup, store):
        fetched.append(tup)
        return hat_basis(A, tup, store=store)
    apply_images(A, iword, counted, capped)
    assert len(fetched) == len(set(fetched)) < len(triples)
    lone = Word(mod, {dropped: word.terms[dropped]})
    assert _termwise(A, lone, _hat_reference, None)
    assert not _termwise(A, lone, _hat_reference, capped)
    assert not any(any(b.values()) for b in apply_images(
        A, {m: {dropped: 1} for m in word.terms[dropped].terms},
        hat_basis, capped).values())
    # a zero numerator is skipped before its tuple's image is read
    B = _kernel_case(name)[0]
    before = image_counts(B)
    assert apply_images(B, {triples[0][1]: {triples[0][0]: 0}}, hat_basis,
                        capped) == {}
    assert image_counts(B) == before


def test_wrap_around_terms_with_colliding_signs():
    """With |y| = 0, |z| = -1 and mu_3(y, y, y) = z, three wrap-around terms
    of b(y (x) y (x) y (x) y) land on z (x) y: the rotations by 0 and 2 with
    sign + and the rotation by 3 with sign -.  They merge into one cached
    term, +z (x) y, beside -y (x) z from y (x) mu-hat(y (x) y (x) y), as in
    the Fraction reference."""
    mod = GradedModule("wrap", ("y", "z"), (0, -1), TRIVIAL_CONTEXT)
    A = AInfty(mod, {("y", "y", "y"): Element.generator(mod, "z")})
    tup = ("y",) * 4
    one = (mod.ctx.zero_beta, mod.ctx.zero_exps)
    hoch_diff_word(A, Word.basis_word(mod, tup))
    assert A._image_cache["diff"][tup] == (("y", "z"), one, -1,
                                           ("z", "y"), one, 1)
    got = _image_terms(diff_basis(A, tup))
    assert got == {("z", "y"): {one: 1}, ("y", "z"): {one: -1}}
    assert _diff_reference(A, tup) == {("z", "y"): Scalar.one(mod.ctx),
                                       ("y", "z"): -Scalar.one(mod.ctx)}


def test_equal_tuples_in_the_caches_are_one_object():
    """Every tuple held by an image cache, key or output, is the one copy
    in the algebra's intern table: after mu-hat o mu-hat, d o d on every
    variant and a few words through b, equal tuples are the same object."""
    A = builtin_algebras("curved_matrix")
    cap = Cap(energy=3, weight=3, var_total=0)
    ainfty_residual(A, cap)
    for variant in Variant:
        dsquare_sweep(A, variant, cap)
    rng = random.Random(5)
    for _ in range(10):
        hoch_diff_word(A, random_word(A, rng, 3))
    caches = list(A._image_cache.values())
    assert all(caches) and len(caches) == 2 + len(Variant) - 1
    held = [t for cache in caches for tup, image in cache.items()
            for t in (tup, *image[0::3])]
    held += [t for classes in A._class_cache.values()
             for tup, can in classes.items()
             for t in (tup, *(can[:1] if can else ()))]
    first = {}
    for t in held:
        assert first.setdefault(t, t) is t, t
        assert A._tuples[t] is t
    assert len(first) == len(A._tuples)


@pytest.mark.parametrize("make,cap", [
    (lambda: builtin_algebras("curved_matrix"), Cap(3, 3, 0)),
    (lambda: _odd_variable_algebra(2, mu3=True)[0], Cap(3, 3, 2)),
], ids=["curved_matrix", "odd2-mu3"])
def test_capped_sweeps_cache_no_image_above_the_weight_cap(make, cap):
    """The curvature makes mu-hat and b raise the weight by one, so the
    second application of each sweep reads images of words one longer
    than the cap; they are built and dropped, and no image cache keeps a
    tuple above the cap.  (The odd algebra obeys only the degree law, so
    its residuals need not vanish.)"""
    A = make()
    assert A.mu0()
    ainfty_residual(A, cap)
    variants = _variants(A)
    for variant in variants:
        dsquare_sweep(A, variant, cap)
    assert len(A._image_cache) == 1 + len(variants)
    for key, cache in A._image_cache.items():
        assert cache, key
        assert max(map(len, cache)) == cap.weight, key


def test_cached_hat_images_of_a_curved_residual_sweep():
    """The footprint of the image cache after crit 01's sweep at weight 5 is
    pinned, so that a change to the kernel cannot change what is
    cached."""
    A = builtin_algebras("curved_matrix")
    assert not ainfty_residual(A, Cap(6, 5, 0)).failures
    assert image_counts(A)["hat"] == {"tuples": 1365, "terms": 14489}


def _variants(A):
    """The variants the algebra admits: the unit-killing ones need a
    unit."""
    return [v for v in Variant
            if A.unit is not None or v not in UNIT_KILLING_VARIANTS]


def _store_case(name):
    if name.startswith("odd"):
        return _odd_variable_algebra(int(name[3]), mu3=name.endswith("mu3"))[0]
    return builtin_algebras(name)


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "odd1", "odd2", "odd2-mu3"])
def test_an_image_built_without_store_equals_the_stored_one(name):
    """For every tuple up to weight 4, mu-hat, b and each variant's image
    built with ``store=False``, on an algebra that holds the images of
    every shorter tuple, equal the images that a second algebra stores,
    and leave every cache as it was: ``image_counts`` does not change."""
    A, B = _store_case(name), _store_case(name)
    operators = [hat_basis, *map(variant_images, _variants(A))]
    assert diff_basis in operators
    for w in range(5):
        tuples = list(itertools.product(A.module.basis, repeat=w))
        for tup in tuples:
            before = image_counts(A)
            built = [image_of(A, tup, store=False) for image_of in operators]
            assert image_counts(A) == before, tup
            assert built == [image_of(B, tup) for image_of in operators], tup
        for tup in tuples:
            for image_of in operators:
                image_of(A, tup)
    assert image_counts(A) == image_counts(B)


def test_residual_reports_a_perturbed_algebra():
    """A copy of dual_numbers with mu_2(e, eps) doubled breaks the
    structure relations; the report names the failing words and carries
    the nonzero residual."""
    A = builtin_algebras("dual_numbers")
    mod = A.module
    ops = dict(A.ops)
    ops[("e", "eps")] = Element.generator(mod, "eps", 2)
    B = AInfty(mod, ops, unit="e")
    cap = Cap(energy=0, weight=3, var_total=0)
    rep = ainfty_residual(B, cap)
    assert rep.checked == 1 + 2 + 4 + 8
    assert rep.failures
    words = [f["word"] for f in rep.failures]
    assert ("e", "eps") not in words and ("e", "e", "eps") in words
    for f in rep.failures:
        word = Word.basis_word(mod, f["word"])
        res = hat_extension(B, hat_extension(B, word, cap), cap)
        assert not res.is_zero()
        assert f["residual"] == repr(res)


def test_insertion_patterns_are_weak_compositions():
    pats = list(_insertion_patterns(2, 3))
    assert len(pats) == 10  # C(3 + 2, 2)
    assert all(sum(p) == 3 and len(p) == 3 for p in pats)
    assert list(_insertion_patterns(0, 0)) == [(0,)]


def test_deformed_q_reduces_to_q_at_b_zero():
    A = builtin_algebras("curved_matrix")
    Q = A.qfamily
    cap = Cap(energy=3, weight=6, var_total=0)
    D = DeformedQ(Q, Element.zero(A.module), Element.zero(A.module), cap)
    for tup in [("K",), ("K", "F"), ("F", "G", "K")]:
        assert D.apply(tup) == A.mu(tup).truncate(cap)


def test_deformed_q_inserts_b_in_every_gap():
    from hochcyc.graded import word_from_factors

    A = builtin_algebras("curved_matrix")
    Q = A.qfamily
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


@pytest.mark.parametrize("coeff", ["t1", "T"])
def test_deformed_curvature_is_weight_one_part_of_mu_hat_exp_b(coeff):
    """q^b_0 = sum_s mu_s(b, ..., b), the weight-one part of mu-hat(e^b):
    with the odd coefficient t1 each front coefficient passes mu_s with
    (-1)^{|c|}, as in the hat extension."""
    A, _ = _odd_variable_algebra(2)
    mod, ctx = A.module, A.module.ctx
    cap = Cap(2, 4, 2)
    if coeff == "t1":
        b = Element(mod, {"e": Scalar.monomial(ctx, 1, (0,), (0, 1))})
    else:
        b = Element(mod, {"x": Scalar.monomial(ctx, 1, (1,), (0, 0))})
    D = DeformedQ(A.qfamily, b, Element.zero(mod), cap)
    exp_b = Word.zero(mod)
    for s in range(int(Fraction(cap.energy) / b.valuation()) + 1):
        exp_b = exp_b + word_from_factors(mod, [b] * s, cap=cap)
    image = hat_extension(A, exp_b, cap)
    want = Element(mod, {t[0]: c for t, c in image.items() if len(t) == 1})
    assert not want.is_zero()
    assert D.apply(()) == want


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
    Q = A.qfamily
    assert {b: el for (b, i), el in Q.ops.items() if not i} == A.ops


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_q_family_without_interior_inputs_is_mu(name):
    # eval_tuple with no interior inputs is the table lookup, truncated
    A = builtin_algebras(name)
    Q = A.qfamily
    cap = Cap(energy=0, weight=3, var_total=0)
    for w in range(4):
        for tup in itertools.product(A.module.basis, repeat=w):
            assert Q.eval_tuple(tup, (), cap) == A.mu(tup).truncate(cap)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_algebras("no_such_algebra")
