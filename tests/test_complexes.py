"""The Hochschild differential, the rotation operator, canonical quotient
representatives, and the six chain-complex variants."""

import itertools
from fractions import Fraction

import pytest

from hochcyc.scalars import TRIVIAL_CONTEXT, Cap, Scalar
from hochcyc.graded import Element, GradedModule, Word, rotate
from hochcyc.ainfty import (
    BUILTIN_NAMES,
    AInfty,
    builtin_algebras,
    hat_extension,
)
from hochcyc.complexes import (
    _canonical_rotation,
    CYCLIC_VARIANTS,
    EXTENDED_VARIANTS,
    UNIT_KILLING_VARIANTS,
    ChainElt,
    Variant,
    canonical_form,
    canonical_tuples,
    connes_canonical,
    connes_preimage,
    dsquare_sweep,
    extended_dsquare_raw,
    hoch_diff,
    hoch_diff_word,
    is_canonical_tuple,
    is_degenerate,
    project,
    random_word,
    t_lemma_check,
    t_word,
    variant_images,
)

from test_ainfty import _odd_variable_algebra

CAP = Cap(energy=4, weight=3, var_total=4)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("variant", list(Variant))
def test_dsquare_all_variants(name, variant):
    A = builtin_algebras(name)
    rep = dsquare_sweep(A, variant, CAP)
    assert rep.ok, rep.failures[:3]
    # the reduced cyclic complex of the ground field is empty: every tuple
    # contains the unit
    if not (name == "ground_field" and variant is Variant.REDUCED_CONNES):
        assert rep.checked > 0


def _algebra_and_word(name):
    """A builtin with a word on every basis tuple up to weight 3, weight 0
    included, or ``odd<nvars>[-mu3]``, ``_odd_variable_algebra`` with its
    word, whose coefficients hold odd variables."""
    if name.startswith("odd"):
        return _odd_variable_algebra(int(name[3]), mu3=name.endswith("mu3"))
    A = builtin_algebras(name)
    coeffs = itertools.cycle((Fraction(-2), Fraction(1), Fraction(3, 2)))
    w = Word(A.module, {tup: Scalar.rational(A.module.ctx, next(coeffs))
                        for k in range(4)
                        for tup in itertools.product(A.module.basis,
                                                     repeat=k)})
    return A, w


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("odd1", "odd2",
                                                  "odd1-mu3", "odd2-mu3"))
def test_variant_differential_is_the_projected_hochschild_differential(name):
    """``hoch_diff``, the kernel on the canonicalised per-tuple images
    ``variant_images``, equals ``project`` of the raw Hochschild
    differential on every variant the algebra admits, with and without
    caps; the extended variants keep the weight-0 term of the word."""
    A, w = _algebra_and_word(name)
    compared = 0
    for variant in Variant:
        if variant in UNIT_KILLING_VARIANTS and A.unit is None:
            continue
        wv = w if variant in EXTENDED_VARIANTS else Word(
            A.module, {t: c for t, c in w.items() if t})
        for cap in (None, Cap(2, 5, 1), Cap(3, 5, 0)):
            got = hoch_diff(A, ChainElt(wv, variant), cap)
            assert got.variant is variant
            assert got.word == project(A, hoch_diff_word(A, wv, cap),
                                       variant), (variant, cap)
            compared += bool(got.word)
    assert compared, "every differential vanished"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cached_variant_images_are_merged_projections(name):
    """On every canonical chain of every variant up to weight 3, the
    variant's image is the one cached on the algebra (b's own on Hochschild
    chains), names each representative once, holds no zero numerator, and
    equals ``project`` of the raw Hochschild differential."""
    A = builtin_algebras(name)
    nonzero = {}
    for variant in Variant:
        image_of = variant_images(variant)
        for tup in canonical_tuples(A, variant, 3):
            image = image_of(A, tup)
            cache = A._image_cache["diff" if variant is Variant.HOCHSCHILD
                                   else variant.value]
            assert cache[tup] is image
            reps = image[0::3]
            assert len(set(reps)) == len(reps), (variant, tup)
            assert all(type(n) is int and n for n in image[2::3])
            got = {t: {m: Fraction(n, A.den)}
                   for t, m, n in zip(reps, image[1::3], image[2::3])}
            want = project(A, hoch_diff_word(A, Word.basis_word(A.module,
                                                                tup)),
                           variant)
            assert got == {t: s.terms for t, s in want.items()}, (variant,
                                                                  tup)
            nonzero[variant] = nonzero.get(variant, 0) + bool(image)
    # only b itself is nonzero on the ground field's chains
    assert nonzero.pop(Variant.HOCHSCHILD)
    assert any(nonzero.values()) == (name != "ground_field")


def test_dsquare_sweep_reports_a_perturbed_algebra():
    """dual_numbers with mu_2(e, eps) doubled: d o d fails on three
    Hochschild chains and on one chain of each cyclic variant that keeps the
    unit, and each residual is the ``repr`` of project o b applied twice."""
    A = builtin_algebras("dual_numbers")
    ops = dict(A.ops)
    ops[("e", "eps")] = Element.generator(A.module, "eps", 2)
    B = AInfty(A.module, ops, unit="e")
    cap = Cap(energy=0, weight=3, var_total=0)
    want = {Variant.HOCHSCHILD: 3, Variant.CONNES: 1,
            Variant.EXTENDED_CONNES: 1}
    for variant in Variant:
        rep = dsquare_sweep(B, variant, cap)
        assert len(rep.failures) == want.get(variant, 0), variant
        for f in rep.failures:
            w = Word.basis_word(B.module, f["tuple"])
            for _ in range(2):
                w = project(B, hoch_diff_word(B, w, cap), variant)
            assert not w.is_zero()
            assert f["residual"] == repr(w)


def test_canonical_rotation_matches_the_signed_orbit():
    """The orbit-free canonical rotation agrees with the least rotation by
    basis index read off the full signed orbit, including periodic tuples
    of both total parities, whose class is zero when the minimum is reached
    with both signs.  The basis order differs from the name order."""
    mod = GradedModule("m", ("c", "a", "b"), (1, 0, 2), TRIVIAL_CONTEXT)
    seen_zero = 0
    for k in range(6):
        for tup in itertools.product(mod.basis, repeat=k):
            degs = [mod.degree(g) for g in tup]
            orbit = [rotate(tup, degs, j)[::2] for j in range(max(k, 1))]
            idx = [mod.index(g) for g in tup]
            j = min(range(len(orbit)), key=lambda j: idx[j:] + idx[:j])
            best, sign = orbit[j]
            want = (None if any(r == best and s1 != sign for r, s1 in orbit)
                    else (best, sign))
            assert _canonical_rotation(mod, tup) == want, tup
            seen_zero += want is None
    assert seen_zero > 0


def test_t_has_order_k():
    A = builtin_algebras("exterior(2)")
    for tup in itertools.product(A.module.basis, repeat=3):
        w = Word.basis_word(A.module, tup)
        cur = w
        for _ in range(3):
            cur = t_word(cur)
        assert cur == w


def test_t_is_identity_on_low_weights():
    A = builtin_algebras("dual_numbers")
    for tup in [(), ("eps",)]:
        w = Word.basis_word(A.module, tup)
        assert t_word(w) == w


def test_t_sign_on_even_shifted_pair():
    A = builtin_algebras("dual_numbers")
    # eps has shifted parity 0, e has shifted parity 1
    w = Word.basis_word(A.module, ("eps", "eps"))
    assert t_word(w) == w
    w = Word.basis_word(A.module, ("e", "e"))
    assert t_word(w) == -w


def test_connes_canonical_collapses_orbits():
    A = builtin_algebras("exterior(2)")
    import random

    rng = random.Random(3)
    for _ in range(100):
        w = random_word(A, rng, 4)
        assert connes_canonical(w) == connes_canonical(t_word(w))


def test_connes_canonical_kills_minus_classes():
    A = builtin_algebras("dual_numbers")
    # (e, e) rotates to itself with sign -1: the class is zero
    assert connes_canonical(Word.basis_word(A.module, ("e", "e"))).is_zero()


def test_connes_preimage_witnesses_the_quotient():
    import random

    A = builtin_algebras("exterior(2)")
    rng = random.Random(11)
    for _ in range(100):
        w = random_word(A, rng, 4)
        u = connes_preimage(w)
        assert connes_canonical(w) - w == u - t_word(u)


def test_unit_killing_projection():
    A = builtin_algebras("dual_numbers")
    w = Word.basis_word(A.module, ("eps", "e", "eps"))
    assert project(A, w, Variant.NORMALIZED_HOCHSCHILD).is_zero()
    assert project(A, w, Variant.HOCHSCHILD) == w
    w = Word.basis_word(A.module, ("e", "eps", "eps"))
    assert project(A, w, Variant.NORMALIZED_HOCHSCHILD) == w
    assert project(A, w, Variant.REDUCED_CONNES).is_zero()


def _project_both_sides(A, w, variant):
    """The variant projection with the cyclic canonicalisation applied both
    before and after the degenerate terms are dropped."""
    if variant in CYCLIC_VARIANTS:
        w = connes_canonical(w)
    if variant in UNIT_KILLING_VARIANTS:
        w = Word(A.module, {tup: c for tup, c in w.items()
                            if not is_degenerate(A, tup, variant)})
    if variant in CYCLIC_VARIANTS:
        w = connes_canonical(w)
    return w


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_canonical_tuples_are_fixed_by_the_projection(name):
    """A tuple is canonical exactly when projecting its basis word gives the
    word back, one cyclic pass projects like two, and a basis word projects
    to its signed ``canonical_form``, or to zero."""
    A = builtin_algebras(name)
    for variant in Variant:
        for k in range(1, 5):
            for tup in itertools.product(A.module.basis, repeat=k):
                w = Word.basis_word(A.module, tup)
                twice = _project_both_sides(A, w, variant)
                assert project(A, w, variant) == twice
                can = canonical_form(A, tup, variant)
                assert twice == (Word.zero(A.module) if can is None else
                                 Word.basis_word(A.module, can[0],
                                                 -1 if can[1] else 1))
                assert is_canonical_tuple(A, tup, variant) == \
                    (twice.terms == w.terms), (variant, tup)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_is_canonical_tuple_agrees_with_the_canonical_rotation(name):
    """The least-index test that lets ``is_canonical_tuple`` skip
    ``_canonical_rotation`` decides nothing by itself: on every tuple of
    weight 1 to 5 the answer is still ``_canonical_rotation(mod, tup) ==
    (tup, 0)`` (and not degenerate, in the unit-killing variants)."""
    A = builtin_algebras(name)
    mod = A.module
    for variant in CYCLIC_VARIANTS:
        for k in range(1, 6):
            for tup in itertools.product(mod.basis, repeat=k):
                want = _canonical_rotation(mod, tup) == (tup, 0)
                if variant in UNIT_KILLING_VARIANTS:
                    want = want and not is_degenerate(A, tup, variant)
                assert is_canonical_tuple(A, tup, variant) == want, \
                    (variant, tup)


def test_unit_killing_variants_need_a_unit():
    mod = GradedModule("m", ("x",), (1,), TRIVIAL_CONTEXT)
    A = AInfty(mod, {})
    for variant in UNIT_KILLING_VARIANTS:
        with pytest.raises(ValueError, match="unital"):
            is_canonical_tuple(A, ("x",), variant)
    assert is_canonical_tuple(A, ("x",), Variant.CONNES)


def test_weight_zero_only_in_extended_variants():
    A = builtin_algebras("curved_matrix")
    for v in Variant:
        expected = v in {Variant.EXTENDED_CONNES,
                         Variant.EXTENDED_REDUCED_CONNES}
        assert is_canonical_tuple(A, (), v) is expected
        if not expected:
            chain = ChainElt(Word.basis_word(A.module, ()), v)
            with pytest.raises(ValueError, match="weight-0"):
                hoch_diff(A, chain, CAP)


def test_extended_generator_bounds_the_curvature():
    A = builtin_algebras("curved_matrix")
    one = Word.basis_word(A.module, ())
    d_one = hoch_diff_word(A, one, CAP)
    assert d_one == Word(A.module, {("I",): Scalar.monomial(
        A.module.ctx, 1, (1,), ())})


def test_extended_dsquare_raw_is_minus_curvature_tensor_square():
    A = builtin_algebras("curved_matrix")
    raw = extended_dsquare_raw(A, CAP)
    T2 = Scalar.monomial(A.module.ctx, -1, (2,), ())
    assert raw == Word(A.module, {("I", "I"): T2})
    # ... and the cyclic quotient kills it (I (x) I rotates to itself with -1)
    assert connes_canonical(raw).is_zero()
    chain = ChainElt(Word.basis_word(A.module, ()), Variant.EXTENDED_CONNES)
    assert hoch_diff(A, hoch_diff(A, chain, CAP), CAP).is_zero()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_t_lemma(name):
    A = builtin_algebras(name)
    rep = t_lemma_check(A, CAP, trials=100, seed=5)
    assert rep.ok, rep.failures[:3]
    assert rep.checked == 100


def test_degenerate_subcomplex_is_stable():
    # the non-degenerate part of d of a degenerate chain vanishes
    for name in ("dual_numbers", "exterior(2)"):
        A = builtin_algebras(name)
        e = A.unit
        for variant in UNIT_KILLING_VARIANTS:
            for w in range(1, 4):
                for tup in itertools.product(A.module.basis, repeat=w):
                    killed = (e in tup[1:]
                              if variant is Variant.NORMALIZED_HOCHSCHILD
                              else e in tup)
                    if not killed:
                        continue
                    img = hoch_diff_word(
                        A, Word.basis_word(A.module, tup), CAP)
                    assert project(A, img, variant).is_zero(), (variant, tup)


def test_energy_filtration_is_stable():
    A = builtin_algebras("curved_matrix")
    for w in range(1, 4):
        for tup in itertools.product(A.module.basis, repeat=w):
            img = hoch_diff_word(A, Word.basis_word(A.module, tup))
            vals = [s.valuation() for _, s in img.items()]
            assert all(v >= 0 for v in vals)
    # a chain at energy level 2 stays at level >= 2
    T2 = Scalar.monomial(A.module.ctx, 1, (2,), ())
    w = Word(A.module, {("K", "F"): T2})
    img = hoch_diff_word(A, w)
    assert all(s.valuation() >= 2 for _, s in img.items())
