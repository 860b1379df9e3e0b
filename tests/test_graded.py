"""Graded modules, tensor words, Koszul bookkeeping, rotation/splitting
combinatorics, and the sign-exponent identities."""

import itertools
from fractions import Fraction

import pytest

from hochcyc.scalars import (
    TRIVIAL_CONTEXT,
    Context,
    FormalVarSpec,
    PiGroup,
    Scalar,
)
from hochcyc.graded import (
    ChainComplex,
    Element,
    GradedModule,
    Word,
    eps,
    eps_p,
    eps_prime,
    lemma_sign_suite,
    map_on_generators,
    rotate,
    rotation_perm,
    rotations,
    s_perm,
    shuffle_sign,
    word_from_factors,
)
from hochcyc.ainfty import builtin_algebras


@pytest.fixture
def mod():
    return GradedModule("m", ("a", "b", "c"), (0, 1, 2), TRIVIAL_CONTEXT)


@pytest.fixture
def odd_ctx():
    return Context(PiGroup(0, (), ()), FormalVarSpec((1,)))


def test_element_degree_and_arithmetic(mod):
    x = Element.generator(mod, "b", 2)
    y = Element.generator(mod, "b", -2)
    assert x.degree() == 1
    assert (x + y).is_zero()
    with pytest.raises(ValueError):
        (x + Element.generator(mod, "a")).degree()


def test_element_truncate_without_cap_is_identity(mod):
    x = Element.generator(mod, "b", 2)
    assert x.truncate(None) is x


def test_elements_and_words_do_not_mix(mod):
    # same module and the same generator, but an Element is keyed by a name
    # and a Word by a tuple: no sum, and never equal
    x = Element.generator(mod, "a")
    w = Word.basis_word(mod, ("a",))
    with pytest.raises(ValueError, match="cannot add Word to Element"):
        x + w
    with pytest.raises(ValueError, match="cannot add Element to Word"):
        w + x
    with pytest.raises(ValueError):
        w - x
    assert x != w and w != x
    assert (x + x).terms == {"a": Scalar.rational(TRIVIAL_CONTEXT, 2)}


def test_words_reject_unknown_generators_and_strings():
    A = builtin_algebras("dual_numbers")
    one = Scalar.one(A.module.ctx)
    for make in (lambda: Word.basis_word(A.module, ("zz", "e")),
                 lambda: Word(A.module, {("e", "zz"): one})):
        with pytest.raises(ValueError, match="unknown generator 'zz'"):
            make()
    # a string would otherwise split into the one-letter names e, p, s
    for make in (lambda: Word.basis_word(A.module, "eps"),
                 lambda: Word(A.module, {"eps": one})):
        with pytest.raises(ValueError, match="got .eps."):
            make()
    assert Word.basis_word(A.module, ["eps", "e"]) == \
        Word(A.module, {("eps", "e"): one})
    assert Word.basis_word(A.module, (), 0).is_zero()


def test_map_on_generators_even_and_odd(odd_ctx):
    mod = GradedModule("m", ("x", "y"), (1, 2), odd_ctx)
    t = Scalar.monomial(odd_ctx, 1, (), (1,))  # odd scalar
    images = {"x": Element.generator(mod, "y", 3)}
    el = Element(mod, {"x": t, "y": Scalar.one(odd_ctx)})
    even = map_on_generators(images, el, mod, odd=False)
    assert even == Element(mod, {"y": t.scale(3)})
    assert map_on_generators(images, el, mod, odd=True) == -even


def test_word_from_factors_moves_odd_scalar_with_shifted_sign(odd_ctx):
    mod = GradedModule("m", ("x", "y"), (1, 2), odd_ctx)
    t = Scalar.monomial(odd_ctx, 1, (), (1,))  # odd scalar
    scaled = Element(mod, {"y": t})
    # x has shifted parity 0, so t crosses nothing in shifted mode
    w = word_from_factors(mod, ["x", scaled])
    assert w == Word(mod, {("x", "y"): t})
    # in unshifted mode t crosses |x| = 1
    w = word_from_factors(mod, ["x", scaled], shifted=False)
    assert w == Word(mod, {("x", "y"): -t})


def test_word_from_factors_single_crossing(odd_ctx):
    mod = GradedModule("m", ("x", "y"), (2, 2), odd_ctx)
    t = Scalar.monomial(odd_ctx, 1, (), (1,))
    scaled = Element(mod, {"y": t})
    # shifted parity of x is odd for |x| = 2
    w = word_from_factors(mod, ["x", scaled, "x"])
    assert w == Word(mod, {("x", "y", "x"): -t})


def test_chain_complex_degree_validation(mod):
    ChainComplex(mod, {"b": Element.generator(mod, "c")})
    with pytest.raises(ValueError, match="degree"):
        ChainComplex(mod, {"a": Element.generator(mod, "c")})


def test_chain_complex_differential_is_odd(mod, odd_ctx):
    omod = GradedModule("m", ("x", "y"), (1, 2), odd_ctx)
    cx = ChainComplex(omod, {"x": Element.generator(omod, "y")})
    t = Scalar.monomial(odd_ctx, 1, (), (1,))
    el = Element(omod, {"x": t})
    assert cx.d(el) == Element(omod, {"y": -t})


def test_rotation_perm_and_signs():
    degs = [1, 2, 3, 4]
    rot, s, s1 = rotate(("p", "q", "r", "s"), degs, 1)
    assert rot == ("q", "r", "s", "p")
    # moving p (odd) past q, r, s: crossings 2*1 + 3*1 + 4*1 = 9 -> odd
    assert s == 1
    # shifted parities 0,1,0,1: crossings of p~even: 0
    assert s1 == 0


def test_rotate_composes_stepwise():
    degs = [0, 1, 1, 2, 3]
    tup = ("a", "b", "c", "d", "e")
    cur = tup
    total = total1 = 0
    for j in range(1, 6):
        cur, s, s1 = rotate(cur, [degs[tup.index(g)] for g in cur], 1)
        total = (total + s) % 2
        total1 = (total1 + s1) % 2
        direct, ds, ds1 = rotate(tup, degs, j % 5)
        assert cur == direct
        assert (total, total1) == (ds, ds1)
    assert cur == tup


def test_rotate_signs_match_the_permutation_sign():
    """The closed-form rotation signs agree with s_perm on the rotation
    permutation, for every parity vector up to length 8 and every j, and the
    one-pass orbit ``rotations`` agrees with ``rotate`` at every j."""
    cases = 0
    for k in range(9):
        for degs in itertools.product((0, 1), repeat=k):
            orbit = rotations(tuple(range(k)), list(degs))
            assert len(orbit) == max(k, 1)
            for j in range(max(k, 1)):
                perm = rotation_perm(k, j)
                rot, s, s1 = rotate(tuple(range(k)), list(degs), j)
                assert s == s_perm(list(degs), perm)
                assert s1 == s_perm([d + 1 for d in degs], perm)
                assert orbit[j] == (rot, s1)
                cases += 1
    assert cases == 3587


def test_shuffle_sign_partition_validation():
    with pytest.raises(ValueError):
        shuffle_sign([1, 1], [0], [0, 1])
    assert shuffle_sign([1, 1], [1], [0]) == 1
    assert shuffle_sign([1, 1], [0], [1]) == 0


def test_s_perm_matches_plain_sign_for_odd_degrees():
    # with all degrees odd the weighted sign is the permutation sign
    for perm in itertools.permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4)
            if perm[i] > perm[j])
        assert s_perm([1, 1, 1, 1], list(perm)) == inversions % 2


def test_eps_closed_forms():
    assert eps_prime(1) == 0
    assert eps_prime(2) == 0
    assert eps_prime(3) == 1
    assert eps([0]) == 0
    assert eps_p([0], 0) == 1
    assert eps_p([0], 1) == 0


def test_sign_lemma_suite_small_exhaustive():
    for n in (0, 1):
        rep = lemma_sign_suite(4, n, trials=50, seed=7)
        assert rep.ok, rep.failures[:3]
        assert rep.checked > 0


def test_duplicate_basis_rejected():
    with pytest.raises(ValueError):
        GradedModule("m", ("a", "a"), (0, 0), TRIVIAL_CONTEXT)
