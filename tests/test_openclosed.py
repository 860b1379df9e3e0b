"""Open-closed families: evaluation signs, cyclic symmetrization, the
rotation rewrite of p o d, the structure equation, chain-map residuals on the
toy instantiations, the weight-zero extension, and the axiom suite."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from hochcyc.scalars import TRIVIAL_CONTEXT, Cap, Scalar, scalar_mul
from hochcyc.graded import (
    ChainComplex,
    Element,
    GradedModule,
    Word,
    rotate,
    rotations,
    shuffle_sign,
    word_from_factors,
)
from hochcyc.ainfty import BUILTIN_NAMES, builtin_algebras
from hochcyc.complexes import Variant, hoch_diff_word, random_word
from hochcyc.openclosed import (
    _linearity_fixture,
    ExtendedOC,
    OCFamily,
    SphereTermProvider,
    ToyGeometry,
    axiom_suite,
    build_divisor_family,
    chain_map_residual,
    divisor_check,
    extended_P,
    exterior_geometry,
    is_exact,
    random_cyclic_p,
    random_target,
    reduce_mod,
    structure_residual,
    structure_rhs,
    structure_terms,
    theorem1_rewrite_check,
    theorem5_toy,
    theorem_rhs_rotations,
    toy_zero_energy,
)
from test_ainfty import _odd_variable_algebra

CAP = Cap(energy=4, weight=4, var_total=4)


# -- rotation rewrite --------------------------------------------------------


@pytest.mark.parametrize("name", ["dual_numbers", "exterior(2)",
                                  "curved_matrix"])
@pytest.mark.parametrize("n", [0, 1])
def test_rewrite_identity_for_cyclic_families(name, n):
    A = builtin_algebras(name)
    target = random_target(A.module.ctx, seed=1)
    rng = random.Random(42)
    for trial in range(20):
        p = random_cyclic_p(A, target, n, max_weight=4, seed=trial)
        w = random_word(A, rng, 4)
        res = theorem1_rewrite_check(p, A, w, CAP)
        assert res.is_zero(), (name, n, trial)


@pytest.mark.parametrize("n", [0, 1])
def test_rewrite_identity_with_mixed_parity_coefficients(n):
    """Over a ring with odd variables d_hoch of a word with rational
    coefficients mixes degree parities at one output tuple; p passes such a
    coefficient part by part, and the identity holds."""
    A, _ = _odd_variable_algebra(2)
    parity = A.module.ctx.mono_parity
    target = random_target(A.module.ctx, 1)
    mixed = 0
    for seed in range(3):
        p = random_cyclic_p(A, target, n, 4, seed=seed)
        rng = random.Random(0)
        for _ in range(10):
            w = random_word(A, rng, 3)
            mixed += any(len(set(map(parity, c.terms))) > 1 for c in
                         hoch_diff_word(A, w, CAP).terms.values())
            assert theorem1_rewrite_check(p, A, w, CAP).is_zero(), (seed, w)
    assert mixed >= 6, mixed


def test_rewrite_identity_fails_without_symmetry():
    A = builtin_algebras("exterior(2)")
    target = random_target(A.module.ctx, seed=1)
    rng = random.Random(0)
    found = False
    for trial in range(40):
        p = random_cyclic_p(A, target, 0, max_weight=4, seed=trial,
                            symmetrize=False)
        w = random_word(A, rng, 4)
        if not theorem1_rewrite_check(p, A, w, CAP).is_zero():
            found = True
            break
    assert found, "no counterexample among unsymmetrized families"


@pytest.mark.parametrize("n", [0, 1])
def test_rotation_rewrite_is_linear_over_odd_scalars(n):
    """theorem_rhs_rotations(c alpha) = (-1)^{|c| n} c theorem_rhs_rotations(
    alpha) for the odd scalar c = t0, on words with odd and even
    coefficients."""
    A, w = _odd_variable_algebra(2)
    ctx = A.module.ctx
    c = Scalar.monomial(ctx, 1, (0,), (1, 0))
    alpha = Word(A.module, {t: s for t, s in w.items() if t})
    c_alpha = Word(A.module, {t: scalar_mul(c, s) for t, s in alpha.items()})
    assert any(s.degree_parity() for _, s in alpha.items())
    cap = Cap(2, 4, 2)
    target = random_target(ctx, seed=5)
    for seed in range(4):
        p = random_cyclic_p(A, target, n, max_weight=3, seed=seed)
        want = theorem_rhs_rotations(p, A, alpha, cap).scalar_left(c, cap)
        assert not want.is_zero()
        got = theorem_rhs_rotations(p, A, c_alpha, cap)
        assert got == (-want if n else want), (n, seed)


def _draws_reference(A, target, max_weight, seed):
    """The unsymmetrized table drawn term by term with ``Element`` sums, in
    the order of the random stream that ``random_cyclic_p`` must keep."""
    rng = random.Random(seed)
    tmod = target.module
    ops = {}
    for k in range(1, max_weight + 1):
        for _ in range(3):
            btup = tuple(rng.choice(A.module.basis) for _ in range(k))
            el = Element.generator(tmod, rng.choice(tmod.basis),
                                   Fraction(rng.randint(-3, 3)))
            ops[(btup, ())] = ops.get((btup, ()), Element.zero(tmod)) + el
    return {key: el for key, el in ops.items() if el}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_random_cyclic_p_keeps_its_random_stream(name):
    """The bench's negative-control witness depends on the order of the
    draws, so the table path must consume the stream as the reference."""
    A = builtin_algebras(name)
    target = random_target(A.module.ctx, seed=2)
    for seed in range(20):
        raw = random_cyclic_p(A, target, seed % 2, max_weight=5, seed=seed,
                              symmetrize=False)
        want = _draws_reference(A, target, 5, seed)
        assert raw.ops == want, seed
        assert list(raw.ops) == list(want), seed


def test_symmetrized_family_is_cyclic():
    A = builtin_algebras("exterior(2)")
    target = random_target(A.module.ctx, seed=4)
    raw = random_cyclic_p(A, target, 1, max_weight=3, seed=9,
                          symmetrize=False)
    assert not raw.is_cyclic()
    assert raw.symmetrized().is_cyclic()


def _orbit_average_reference(p):
    """The rotation average computed key by key: for every key of the
    rotation-closed table, a full walk of its orbit (k walks per orbit)."""
    mod = p.module
    keys = {(rotate(b, [mod.degree(g) for g in b], j)[0], i)
            for b, i in p.ops for j in range(max(len(b), 1))}
    out = {}
    for b, i in keys:
        degs = [mod.degree(g) for g in b]
        acc = Element.zero(p.target.module)
        for j in range(max(len(b), 1)):
            rot, _, s1 = rotate(b, degs, j)
            val = p.p(rot, i)
            acc = acc + (-val if s1 else val)
        avg = acc.scale(Fraction(1, max(len(b), 1)))
        if avg:
            out[(b, i)] = avg
    return out


@pytest.mark.parametrize("name", ["exterior(2)", "dual_numbers", "odd_t"])
def test_symmetrized_matches_per_key_orbit_average(name):
    """On ``odd_t`` (the algebra of ``_odd_variable_algebra``) the values
    carry energy monomials and odd formal variables, also on orbits whose
    stabiliser acts by -1.  In every case two values of one orbit cancel
    in part: the whole u1 coefficient on the builtins, one monomial of it
    on ``odd_t``."""
    A = (_odd_variable_algebra(2)[0] if name == "odd_t"
         else builtin_algebras(name))
    ctx = A.module.ctx
    target = random_target(ctx, seed=3)
    tmod = target.module
    g = A.module.basis[1]  # of degree 1
    if name == "odd_t":
        unit = Scalar(ctx, {((1,), (1, 0)): Fraction(1, 3),
                            ((2,), (0, 1)): -2})
        cancel = Scalar(ctx, {((1,), (1, 0)): Fraction(1, 3),
                              ((1,), (0, 1)): Fraction(1, 2)})
    else:
        unit = cancel = Scalar.one(ctx)

    def gen(t, c=1):
        return Element(tmod, {t: unit.scale(c)})

    ops = {
        ((), ()): gen("u0"),
        (("e", "e"), ()): gen("u1"),       # stabiliser acts by -1
        ((g, g), ()): gen("u2", 2),        # stabiliser acts by +1
        ((g, "e", g, "e"), ()): gen("u0", -3),  # stabiliser acts by -1
        ((g, "e", "e"), ()): gen("u1"),
        (("e", "e", g), ()): gen("u2", 5),  # same orbit as the key above
        # rotation 2 of (g, e, e), with sign -1
        (("e", g, "e"), ()): Element(tmod, {"u1": cancel}),
        ((g, "e"), ("u1",)): gen("u0"),
    }
    fams = [OCFamily(A.module, target, n, ops) for n in (0, 1)]
    fams += [random_cyclic_p(A, target, trial % 2, max_weight=5, seed=trial,
                             symmetrize=False) for trial in range(6)]
    for p in fams:
        sym = p.symmetrized()
        assert sym.ops == _orbit_average_reference(p)
        assert sym.is_cyclic()
        assert sym.symmetrized().ops == sym.ops
    # classes whose stabiliser acts by -1 average to zero
    sym = fams[0].symmetrized().ops
    assert (("e", "e"), ()) not in sym
    assert ((g, "e", g, "e"), ()) not in sym
    assert sym[((g, g), ())] == gen("u2", 2)
    avg = sym[((g, "e", "e"), ())].terms
    want = (unit - cancel).scale(Fraction(1, 3))
    assert avg.get("u1", Scalar.zero(ctx)) == want
    assert ("u1" in avg) == (name == "odd_t")


def test_families_store_integer_images_only():
    """A symmetrized random family keeps no Element, Scalar or Fraction:
    each image is a flat tuple of ((g,), monomial, int) triples over an int
    denominator.  q of an algebra holds the algebra's compiled images
    themselves."""
    A = builtin_algebras("curved_matrix")
    target = random_target(A.module.ctx, seed=1)
    p = random_cyclic_p(A, target, 1, max_weight=5, seed=3)
    assert set(vars(p)) == {"module", "target", "n", "images", "den"}
    assert type(p.den) is int and p.den > 1 and p.images
    for key, image in p.images.items():
        assert type(image) is tuple and image and len(image) % 3 == 0, key
        it = iter(image)
        for out, (beta, exps), n in zip(it, it, it):
            assert type(out) is tuple and out[0] in target.module.basis
            assert len(out) == 1 and type(n) is int and n
            assert all(type(x) is int for x in beta + exps)
    Q = A.qfamily
    assert Q.images.keys() == {(t, ()) for t in A.table}
    assert all(Q.images[(t, ())] is image for t, image in A.table.items())
    assert Q.den == A.den


# -- structure equation and chain maps on the zero-energy toy ----------------


@pytest.mark.parametrize("n", [0, 1])
def test_zero_energy_structure_equation(n):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    for w in range(1, 4):
        for tup in itertools.product(A.module.basis, repeat=w):
            res = structure_residual(Q, p, sphere, tup, (), CAP)
            assert res.is_zero(), (n, tup)


def test_structure_equation_with_interior_inputs():
    # interior inputs are expanded in their own module; the toy family has no
    # interior operations, so both sides vanish
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    gamma = Element.generator(geom.X.module, "Xa12")
    for alpha, interior in [(("e",), [gamma]), (("e", "a1"), [gamma, gamma])]:
        res = structure_residual(Q, p, sphere, alpha, interior, CAP)
        assert res.is_zero(), (alpha, len(interior))
        k, l = len(alpha), len(interior)
        _, count = structure_rhs(Q, p, sphere, alpha, interior, CAP)
        assert count == k * (k + 1) * 2 ** l + 1


def test_structure_equation_at_weight_zero_with_interior_input():
    # k = 0 brings in the sphere operation on two interior inputs, which the
    # zero-energy toy has no table for: it reads as zero
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    gamma = [Element.generator(geom.X.module, "Xa12")]
    cap = Cap(4, 4, 4)
    assert structure_residual(Q, p, sphere, (), gamma, cap).is_zero()
    assert structure_rhs(Q, p, sphere, (), gamma, cap)[1] == 4


def _parity(el):
    """Degree parity of a homogeneous Element; zero counts as even."""
    pars = {(el.module.degree(g) + s.degree_parity()) % 2
            for g, s in el.items()}
    assert len(pars) <= 1, el
    return pars.pop() if pars else 0


def test_family_contexts_must_agree():
    """The kernel multiplies boundary and target monomials, so a family
    over two coefficient contexts is refused."""
    A = builtin_algebras("curved_matrix")
    with pytest.raises(ValueError, match="contexts differ"):
        OCFamily(A.module, random_target(TRIVIAL_CONTEXT, seed=1), 0, {})


def _eval_reference(p, w, interior=(), cap=None):
    """The family on a boundary word and a list of interior Elements, summed
    term by term with Scalars from its decoded values, independently of the
    integer kernel.  The interior inputs expand by ``word_from_factors``
    (unshifted) in their own module; with bc the boundary and ic the
    expansion coefficient of interior tuple itup, the value at (boundary
    tuple, itup) is multiplied by ic . twist^{n+1+|itup|}(bc), each product
    capped."""
    out = Element.zero(p.target.module)
    # (interior tuple, parity of n + 1 + its degree, coefficient); with no
    # interior inputs one term without a coefficient
    iterms = [((), (p.n + 1) % 2, None)]
    if interior:
        imod = interior[0].module
        iword = word_from_factors(imod, interior, shifted=False, cap=cap)
        iterms = [(t, (p.n + 1 + sum(map(imod.degree, t))) % 2, c)
                  for t, c in iword.items()]
    for btup, bc in w.items():
        for itup, odd, ic in iterms:
            el = p.p(btup, itup)
            if not el:
                continue
            coeff = bc.twist() if odd else bc
            if ic is not None:
                coeff = scalar_mul(ic, coeff, cap)
            out = out + el.scalar_left(coeff, cap)
    return out


def _interior_differential_term(p, alpha, gamma, cap=None):
    """The term p(alpha; d gamma) of the structure equation: d on each
    homogeneous interior input, with the sign of passing the ones before."""
    out = Element.zero(p.target.module)
    for j, g in enumerate(gamma):
        dg = p.target.d(g)
        if dg:
            part = _eval_reference(p, Word.basis_word(p.module, alpha),
                                   gamma[:j] + [dg] + gamma[j + 1:], cap)
            out = out + (-part if sum(map(_parity, gamma[:j])) % 2 else part)
    return out


def _structure_rhs_reference(Q, p, sphere, alpha, gamma=(), cap=None):
    """The structure equation's right-hand side summed term by term: each
    composite term's q value capped, tensored with the rest of the rotation
    by ``word_from_factors`` and passed through p on its own.  The interior
    inputs must be homogeneous."""
    mod = p.module
    alpha, gamma = tuple(alpha), list(gamma)
    k, l = len(alpha), len(gamma)
    gpars = [_parity(g) for g in gamma]
    gtotal = sum(gpars) % 2
    out = _interior_differential_term(p, alpha, gamma, cap)
    count = 1
    orbit = rotations(alpha, [mod.degree(g) for g in alpha])
    for j, k2, J in structure_terms(k, l):
        count += 1
        rot, s1 = orbit[j]
        q_el = _eval_reference(Q, Word.basis_word(mod, rot[:k2]),
                               [gamma[i] for i in J], cap)
        if q_el.is_zero():
            continue
        I = [i for i in range(l) if i not in J]
        gJpar = sum(gpars[i] for i in J) % 2
        sgn = (s1 + gtotal + shuffle_sign(gpars, I, list(J))
               + (p.n + 1) * (gJpar + 1)) % 2
        word = word_from_factors(mod, [q_el] + list(rot[k2:]), cap=cap)
        part = _eval_reference(p, word, [gamma[i] for i in I], cap)
        out = out + (-part if sgn else part)
    if k == 0:
        count += 1
        q = sphere.family
        part = _eval_reference(q, Word.basis_word(q.module, ()),
                               gamma + [sphere.zeta], cap)
        out = out + (-part if gtotal else part)
    return out, count


REFERENCE_CAPS = [Cap(2, 4, 2), Cap(4, 6, 0), Cap(3, 3, 0), Cap(4, 4, 4),
                  None]


def _homogeneous(rng, mod, parity=None):
    """A random rational combination of two generators of one degree, of
    the given parity if one is given."""
    d = mod.degree(rng.choice([g for g in mod.basis if parity is None
                               or mod.degree(g) % 2 == parity]))
    gens = [g for g in mod.basis if mod.degree(g) == d]
    return (Element.generator(mod, rng.choice(gens), rng.choice((-2, 1)))
            + Element.generator(mod, rng.choice(gens), rng.choice((1, 3))))


def _with_random_interior_ops(rng, A, Q, p):
    """Q and p with 30 random operations each added, their interior inputs
    drawn from the basis of p's target."""
    X = p.target.module
    qops, pops = dict(Q.ops), dict(p.ops)

    def btup(most):
        return tuple(rng.choice(A.module.basis)
                     for _ in range(rng.randint(0, most)))

    for _ in range(30):
        qops[(btup(2), tuple(rng.sample(X.basis, rng.randint(1, 2))))] = \
            _homogeneous(rng, A.module)
        pops[(btup(3), tuple(rng.sample(X.basis, rng.randint(0, 2))))] = \
            _homogeneous(rng, X)
    return (OCFamily(A.module, Q.target, 0, qops),
            OCFamily(A.module, p.target, p.n, pops))


def _interior_toy(n):
    """The zero-energy toy with random interior operations added to q and
    p, a nonzero sphere operation, and interior inputs of both parities."""
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    X = geom.X.module
    rng = random.Random(100 + n)
    Qi, pi = _with_random_interior_ops(rng, A, Q, p)
    sphere = SphereTermProvider(geom.X, {g: _homogeneous(rng, X)
                                         for g in X.basis}, sphere.zeta)
    gammas = [[_homogeneous(rng, X, par) for par in pars]
              for pars in ((), (0,), (1,), (1, 0), (1, 1))]
    return A, Qi, pi, sphere, gammas


def _differential_interior_toy(n):
    """``theorem5_toy`` with random interior operations added to q and p.
    Its target has dH = -Z and dN = M, so interior inputs that are not
    cycles reach the term p(alpha; d gamma)."""
    A, p, sphere = theorem5_toy(n)
    rng = random.Random(200 + n)
    Qi, pi = _with_random_interior_ops(rng, A, A.qfamily, p)
    gammas = [[_homogeneous(rng, p.target.module, par) for par in pars]
              for pars in ((0,), (1,), (1, 0), (0, 1))]
    return A, Qi, pi, sphere, gammas


def _reference_cases():
    """(Q, p, sphere, alpha, gamma) over the toys with 0-2 interior inputs
    (k = 0 included), ``theorem5_toy`` with its extension and with interior
    operations over its target, whose differential is nonzero, and
    symmetrized and unsymmetrized random families on the builtins and on
    ``odd_t``."""
    for n in (0, 1):
        A, Qi, pi, sph_i, gammas = _interior_toy(n)
        _, geom = exterior_geometry(n)
        p, Q, sphere = toy_zero_energy(geom, A)
        for w in range(3):
            for alpha in itertools.product(A.module.basis, repeat=w):
                yield Q, p, sphere, alpha, gammas[w]
                for gamma in gammas:
                    yield Qi, pi, sph_i, alpha, gamma
        A, p, sphere = theorem5_toy(n)
        for w in range(3):
            for alpha in itertools.product(A.module.basis, repeat=w):
                for fam in (p, extended_P(p, sphere)):
                    yield A.qfamily, fam, sphere, alpha, ()
        A, Qi, pi, sphere, gammas = _differential_interior_toy(n)
        for w in range(3):
            for alpha in itertools.product(A.module.basis, repeat=w):
                for gamma in gammas:
                    yield Qi, pi, sphere, alpha, gamma
    algebras = [builtin_algebras(name) for name in BUILTIN_NAMES]
    algebras += [_odd_variable_algebra(v)[0] for v in (1, 2)]
    rng = random.Random(7)
    for A in algebras:
        target = random_target(A.module.ctx, seed=7)
        for trial in range(4):
            p = random_cyclic_p(A, target, trial % 2, max_weight=4,
                                seed=trial, symmetrize=trial < 2)
            for _ in range(4):
                alpha = tuple(rng.choice(A.module.basis)
                              for _ in range(rng.randint(1, 4)))
                yield A.qfamily, p, None, alpha, ()


@pytest.mark.parametrize("cap", REFERENCE_CAPS, ids=str)
def test_structure_rhs_matches_the_per_term_reference(cap):
    """One word per interior subset J, one evaluation of p per J, and q
    read uncapped without interior inputs give the per-term sum."""
    nonzero = interior = dgamma = 0
    for Q, p, sphere, alpha, gamma in _reference_cases():
        got = structure_rhs(Q, p, sphere, alpha, gamma, cap)
        assert got == _structure_rhs_reference(Q, p, sphere, alpha, gamma,
                                               cap), (alpha, len(gamma))
        nonzero += bool(got[0])
        interior += bool(got[0]) and bool(gamma)
        dgamma += bool(_interior_differential_term(p, alpha, gamma, cap))
    assert nonzero > 50 and interior > 20 and dgamma > 0, (
        nonzero, interior, dgamma)


def test_structure_rhs_sums_the_parity_parts_of_an_interior_input():
    """The right-hand side is multilinear in gamma: on an interior input of
    mixed degree parity (v and t0 odd, so v is odd and t0 v even) it is the
    sum of the per-term reference over the two homogeneous parts.  With
    q = p the terms vanish; a q with q((); v) = y gives p(y, x) = v."""
    ctx, mod, target, ops = _linearity_fixture()
    p = OCFamily(mod, target, 0, ops)
    q = OCFamily(mod, ChainComplex(mod, {}), 0,
                 {((), ("v",)): Element.generator(mod, "y")})
    tmod = target.module
    one, t0 = Scalar.one(ctx), Scalar.monomial(ctx, 1, (), (1,))
    for Q in (p, q):
        parts = [_structure_rhs_reference(Q, p, None, ("x",),
                                          [Element(tmod, {"v": s})])
                 for s in (one, t0)]
        got, count = structure_rhs(Q, p, None, ("x",),
                                   [Element(tmod, {"v": one + t0})])
        assert got == parts[0][0] + parts[1][0]
        assert count == parts[0][1] == parts[1][1]
        assert bool(parts[0][0] and parts[1][0]) is (Q is q)


@pytest.mark.parametrize("n", [0, 1])
def test_structure_rhs_is_multilinear_in_two_mixed_parity_inputs(n):
    """Both interior inputs carry the mixed-parity coefficient one + t0, so
    the right-hand side is the sum of the per-term reference over the four
    combinations of homogeneous parts.  Every term is bilinear in the two
    coefficients, so the part of t0 and t0 vanishes (t0^2 = 0) and the
    other three do not.  The even w comes first, so the expanded
    coefficient (1 + t0)^2 = 1 + 2 t0 keeps an odd part."""
    ctx, mod, target, ops = _linearity_fixture()
    tmod = target.module
    p = OCFamily(mod, target, n, {
        **ops, (("y", "x"), ("v",)): Element.generator(tmod, "w"),
        (("y", "x"), ("w",)): Element.generator(tmod, "u", 3)})
    Q = OCFamily(mod, ChainComplex(mod, {}), 0, {
        ((), ("v",)): Element.generator(mod, "y"),
        ((), ("w",)): Element.generator(mod, "y", -2),
        ((), ("w", "v")): Element.generator(mod, "y")})
    one, t0 = Scalar.one(ctx), Scalar.monomial(ctx, 1, (), (1,))
    parts = [_structure_rhs_reference(Q, p, None, ("x",), [
                 Element(tmod, {"w": a}), Element(tmod, {"v": b})])
             for a, b in itertools.product((one, t0), repeat=2)]
    got, count = structure_rhs(Q, p, None, ("x",), [
        Element(tmod, {"w": one + t0}), Element(tmod, {"v": one + t0})])
    assert got == sum((part for part, _ in parts), Element.zero(tmod))
    assert {c for _, c in parts} == {count}
    assert [bool(part) for part, _ in parts] == [True, True, True, False]


def _random_scalar(rng, ctx):
    """One to three monomials T^b t^e with b <= 2 and each formal variable
    of exponent 0 or 1, and rational coefficients."""
    return Scalar(ctx, {((rng.randint(0, 2),), tuple(
        rng.randint(0, 1) for _ in range(ctx.tvars.count))):
        Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
        for _ in range(rng.randint(1, 3))})


def _random_element(rng, mod, size=2):
    return Element(mod, {rng.choice(mod.basis): _random_scalar(rng, mod.ctx)
                         for _ in range(size)})


@pytest.mark.parametrize("name", ["curved_matrix", "odd_t"])
@pytest.mark.parametrize("n", [0, 1])
def test_eval_word_matches_the_termwise_reference(name, n):
    """The kernel evaluation equals the termwise reference on random
    families, raw and symmetrized, with values and coefficients carrying
    T-powers (``curved_matrix``) or odd formal variables (``odd_t``), on
    interior inputs of even, odd and mixed parity, under every reference
    cap and uncapped."""
    A = (_odd_variable_algebra(2)[0] if name == "odd_t"
         else builtin_algebras(name))
    mod, ctx = A.module, A.module.ctx
    tmod = GradedModule("eval_target", ("u", "v", "w"), (0, 1, 2), ctx)
    target = ChainComplex(tmod, {})
    rng = random.Random(17 + n)

    def btup():
        return tuple(rng.choice(mod.basis) for _ in range(rng.randint(0, 3)))

    gammas = [[], [Element(tmod, {"u": _random_scalar(rng, ctx)})],
              [Element(tmod, {"v": _random_scalar(rng, ctx)})],
              [_random_element(rng, tmod), _random_element(rng, tmod)]]
    nonzero = interior = 0
    for trial in range(4):
        raw = OCFamily(mod, target, n, {
            (btup(), tuple(rng.choice(tmod.basis)
                           for _ in range(rng.randint(0, 2)))):
            _random_element(rng, tmod) for _ in range(40)})
        for p in (raw, raw.symmetrized()):
            keys = [b for b, _ in p.images]
            for cap in REFERENCE_CAPS:
                w = Word(mod, {rng.choice(keys): _random_scalar(rng, ctx)
                               for _ in range(4)})
                w = w + Word(mod, {btup(): _random_scalar(rng, ctx)})
                for gamma in gammas:
                    got = p.eval_word(w, gamma, cap)
                    assert got == _eval_reference(p, w, gamma, cap), (
                        trial, cap, len(gamma))
                    tup = rng.choice(keys)
                    assert p.eval_tuple(tup, gamma, cap) == _eval_reference(
                        p, Word.basis_word(mod, tup), gamma, cap)
                    nonzero += bool(got)
                    interior += bool(got) and bool(gamma)
    assert nonzero > 40 and interior > 15, (nonzero, interior)


def test_structure_rhs_expands_its_interior_inputs_once(monkeypatch):
    """p and q are read on interior generator tuples from their images, so
    a ``structure_rhs`` call on the interior toy at k = 3, l = 2 expands
    the caller's interior Elements once, counted wherever the package
    imports ``word_from_factors``; the result is the per-term reference."""
    from hochcyc import graded

    modules = [m for name, m in sys.modules.items()
               if name.startswith("hochcyc") and m is not None
               and hasattr(m, "word_from_factors")]
    assert graded in modules and len(modules) >= 3
    calls = []
    real = graded.word_from_factors

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    cap = Cap(4, 4, 4)
    nonzero = 0
    for n in (0, 1):
        A, Qi, pi, sphere, gammas = _interior_toy(n)
        for alpha in itertools.product(A.module.basis, repeat=3):
            for gamma in gammas[3:]:
                want = _structure_rhs_reference(Qi, pi, sphere, alpha, gamma,
                                                cap)
                with monkeypatch.context() as mp:
                    for m in modules:
                        mp.setattr(m, "word_from_factors", counted)
                    calls.clear()
                    got = structure_rhs(Qi, pi, sphere, alpha, gamma, cap)
                assert got == want, (n, alpha)
                assert len(calls) == 1, (n, alpha, len(calls))
                nonzero += bool(got[0])
    assert nonzero >= 6, nonzero


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("odd_t",))
def test_rotation_rewrite_matches_the_per_term_reference(name):
    """On unsymmetrized families the rewrite's right-hand side is mostly
    nonzero; it equals the sum built from the per-term reference.  The words
    hold every basis tuple of weight 3, and on ``odd_t`` odd coefficients."""
    if name == "odd_t":
        A, odd_word = _odd_variable_algebra(2)
        odd_word = Word(A.module, {t: s for t, s in odd_word.items() if t})
    else:
        A = builtin_algebras(name)
    target = random_target(A.module.ctx, seed=1)
    rng = random.Random(3)
    nonzero = 0
    for trial in range(6):
        p = random_cyclic_p(A, target, trial % 2, max_weight=4, seed=trial,
                            symmetrize=False)
        w = odd_word if name == "odd_t" else random_word(A, rng, 2)
        for tup in itertools.product(A.module.basis, repeat=3):
            if tup not in w.terms:  # keeps the odd coefficients homogeneous
                w = w + Word.basis_word(A.module, tup, rng.choice((-1, 2)))
        cap = REFERENCE_CAPS[trial % len(REFERENCE_CAPS)]
        want = Element.zero(target.module)
        for tup, c in w.items():
            part = _structure_rhs_reference(A.qfamily, p, None, tup, (),
                                            cap)[0].scalar_left(c, cap)
            sgn = (c.degree_parity() * p.n + p.n + 1) % 2
            want = want + (-part if sgn else part)
        assert theorem_rhs_rotations(p, A, w, cap) == want, trial
        nonzero += bool(want)
    assert nonzero >= 4, nonzero


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("variant", [Variant.HOCHSCHILD,
                                     Variant.NORMALIZED_HOCHSCHILD,
                                     Variant.CONNES])
def test_zero_energy_chain_map(n, variant):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    rep = chain_map_residual(p, A, variant, Cap(4, 3, 4), Q=Q)
    assert rep.ok, rep.failures[:3]


def test_chain_map_residual_stops_at_a_broken_structure_equation():
    """An unsymmetrized random family breaks the structure equation on
    basis tuples, so the sweep reports stage "structure" failures after its
    84 tuples of weight 1 to 3 and never reaches the chain-map law; the
    symmetrized family passes both stages."""
    A = builtin_algebras("exterior(2)")
    target = random_target(A.module.ctx, seed=7)
    cap = Cap(0, 3, 0)
    raw = random_cyclic_p(A, target, 0, max_weight=3, seed=0,
                          symmetrize=False)
    rep = chain_map_residual(raw, A, Variant.HOCHSCHILD, cap)
    assert rep.checked == 4 + 16 + 64
    assert [f["stage"] for f in rep.failures] == ["structure"] * 6
    sym = random_cyclic_p(A, target, 0, max_weight=3, seed=0)
    rep = chain_map_residual(sym, A, Variant.HOCHSCHILD, cap)
    assert rep.ok and rep.checked == 2 * (4 + 16 + 64)


@pytest.mark.parametrize("n", [0, 1])
def test_zero_energy_reduced_needs_zeta_quotient(n):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    cap = Cap(4, 3, 4)
    # on the reduced complex p only descends after killing the span of zeta
    rep = chain_map_residual(p, A, Variant.REDUCED_CONNES, cap, Q=Q,
                             quotient_zeta=sphere.zeta)
    assert rep.ok, rep.failures[:3]
    bare = chain_map_residual(p, A, Variant.REDUCED_CONNES, cap, Q=Q)
    assert not bare.ok


@pytest.mark.parametrize("n", [0, 1])
def test_zero_energy_unit_value(n):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    val = p.eval_tuple((A.unit,))
    want = sphere.zeta if (n + 1) % 2 == 0 else -sphere.zeta
    assert val == want


# -- the curved weight-zero extension ----------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_theorem5_extension(n):
    A, p, sphere = theorem5_toy(n)
    P = extended_P(p, sphere)
    # P(1) = p_0(1) + q(eta) = -H2 + H2 = 0
    assert P.value_at_one.is_zero()
    rep = chain_map_residual(P, A, Variant.EXTENDED_CONNES, Cap(4, 3, 4),
                             sphere=sphere)
    assert rep.ok, rep.failures[:3]


@pytest.mark.parametrize("n", [0, 1])
def test_theorem5_needs_the_extension(n):
    """Without the eta-extension p satisfies the structure equation but is
    no chain map on the extended cyclic complex: the chain-map law fails on
    the weight-zero generator, and only there."""
    A, p, sphere = theorem5_toy(n)
    rep = chain_map_residual(p, A, Variant.EXTENDED_CONNES, Cap(4, 3, 4),
                             sphere=sphere)
    assert [(f["stage"], f["tuple"]) for f in rep.failures] == [
        ("chain-map", ())]


@pytest.mark.parametrize("n", [0, 1])
def test_theorem5_eta_independence_is_exact(n):
    A, p, sphere = theorem5_toy(n)
    tmod = sphere.target.module
    P = extended_P(p, sphere)
    # replace eta by eta + d(N): still a primitive of -zeta
    eta2 = sphere.eta + sphere.target.d(Element.generator(tmod, "N"))
    sphere2 = type(sphere)(sphere.target, sphere.q1, sphere.zeta, eta=eta2)
    P2 = extended_P(p, sphere2)
    diff = P2.value_at_one - P.value_at_one
    assert not diff.is_zero()
    witness = is_exact(sphere.target, diff)
    assert witness is not None
    assert sphere.target.d(witness) == diff


@pytest.mark.parametrize("n", [0, 1])
def test_extension_splits_weight_zero_from_the_rest(n):
    A, p, sphere = theorem5_toy(n)
    tmod = sphere.target.module
    ctx = A.module.ctx
    base = OCFamily(A.module, p.target, n, {
        ((), ()): Element.generator(tmod, "N2"),
        (("F",), ()): Element.generator(tmod, "Z2"),
        (("K", "G"), ()): Element.generator(tmod, "M", 3),
    })
    P = extended_P(base, sphere)
    assert P.base is base
    c = Scalar.monomial(ctx, Fraction(-2, 3), (1,))
    rest = (Word.basis_word(A.module, ("F",), 2)
            + Word.basis_word(A.module, ("K", "G"), -1)
            + Word.basis_word(A.module, ("I", "I", "F")))
    w = Word(A.module, {(): c}) + rest
    zero_part = P.value_at_one.scalar_left(c)
    if (n + 1) * c.degree_parity() % 2:
        zero_part = -zero_part
    assert not zero_part.is_zero()
    assert not base.eval_word(rest, cap=CAP).is_zero()
    assert P.eval_word(w, cap=CAP) == zero_part + base.eval_word(rest, cap=CAP)


def test_extension_requires_a_primitive():
    A, p, sphere = theorem5_toy(0)
    bad = type(sphere)(sphere.target, sphere.q1, sphere.zeta, eta=None)
    with pytest.raises(ValueError, match="primitive"):
        ExtendedOC(p, bad)


def test_sphere_operations_are_one_family():
    # q_{empty,1} is q1 on generators, coefficients in front and truncated;
    # with two interior inputs there is no table entry and q_{empty,2} = 0
    A, p, sphere = theorem5_toy(0)
    tmod = sphere.target.module
    ctx = A.module.ctx
    T = Scalar.monomial(ctx, 1, (1,), ())
    T2 = Scalar.monomial(ctx, Fraction(1, 2), (2,), ())
    x = Element(tmod, {"Z": T, "N": T2})
    cap = Cap(energy=1, weight=2, var_total=0)
    want = Element.zero(tmod)
    for g, s in x.items():
        want = want + sphere.q1[g].scalar_left(s)
    want = want.truncate(cap)
    assert want == Element(tmod, {"Z2": T})
    assert sphere.q_empty([x], cap) == want
    assert sphere.q_empty([x], None) == (Element(tmod, {"Z2": T})
                                         + Element(tmod, {"N2": T2}))
    assert sphere.q_empty([x, x], cap).is_zero()


# -- quotient and exactness helpers ------------------------------------------


def test_reduce_mod_eliminates_zeta_direction():
    A, p, sphere = theorem5_toy(0)
    tmod = sphere.target.module
    z = sphere.zeta
    el = z.scale(3) + Element.generator(tmod, "M")
    red = reduce_mod(el, z)
    assert red == Element.generator(tmod, "M")
    assert reduce_mod(z, z).is_zero()


def test_is_exact_detects_nonexact():
    A, p, sphere = theorem5_toy(0)
    tmod = sphere.target.module
    # H2 has no primitive in this target
    assert is_exact(sphere.target, Element.generator(tmod, "H2")) is None
    z2 = Element.generator(tmod, "Z2")
    w = is_exact(sphere.target, z2)
    assert w is not None and sphere.target.d(w) == z2


def test_is_exact_clears_denominators_and_divides_by_non_unit_pivots():
    # d(x) = u/2 + v and d(y) = 3v: u = d(2x - 2y/3), so the system has a
    # non-integer row and a pivot 3, and the witness a coefficient -2/3
    mod = GradedModule("pivots", ("x", "y", "u", "v", "w"), (0, 0, 1, 1, 1),
                       TRIVIAL_CONTEXT)
    gen = Element.generator
    cx = ChainComplex(mod, {"x": gen(mod, "u", Fraction(1, 2)) + gen(mod, "v"),
                            "y": gen(mod, "v", 3)})
    u = gen(mod, "u")
    assert is_exact(cx, u) == gen(mod, "x", 2) + gen(mod, "y",
                                                       Fraction(-2, 3))
    assert is_exact(cx, gen(mod, "v", Fraction(3, 4))) == gen(
        mod, "y", Fraction(1, 4))
    assert is_exact(cx, u + gen(mod, "w")) is None


def test_is_exact_rejects_non_rational_coefficients():
    # T Z = d(-T H) is exact, but only rational systems are solved
    A, p, sphere = theorem5_toy(0)
    T = Scalar.monomial(A.module.ctx, 1, (1,), ())
    tz = Element(sphere.target.module, {"Z": T})
    assert sphere.target.d(Element(sphere.target.module, {"H": -T})) == tz
    with pytest.raises(ValueError, match="rational coefficients only"):
        is_exact(sphere.target, tz)


# -- axioms ------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1])
def test_axiom_suite_passes_on_zero_energy_toy(n):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    res = axiom_suite(p, A, geom=geom, zeta=sphere.zeta)
    bad = {k: v for k, v in res.items() if k != "ok" and not v["ok"]}
    assert res["ok"], bad


def test_divisor_family_pass_and_fail():
    _, good = build_divisor_family(good=True)
    ok, failures = divisor_check(good, lambda m: Fraction(m), jmax=4)
    assert ok, failures
    _, bad = build_divisor_family(good=False)
    ok, failures = divisor_check(bad, lambda m: Fraction(m), jmax=4)
    assert not ok
    assert failures  # the corrupted family is detected with witnesses


def test_axiom_suite_flags_broken_cyclicity():
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    # corrupt one structure constant
    tmod = p.target.module
    broken = OCFamily(p.module, p.target, p.n, {
        **p.ops, (("a1", "a2"), ()): Element.generator(tmod, "Xe")})
    res = axiom_suite(broken, A, geom=geom, zeta=sphere.zeta)
    assert not res["cyclic_symmetry"]["ok"]


@pytest.mark.parametrize("koszul", [True, False])
def test_axiom_suite_checks_interior_symmetry(koszul):
    """Two odd interior inputs commute with the sign -1: with it the pair of
    keys passes, with the wrong sign both keys are reported."""
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    val = Element.generator(p.target.module, "Xa12")
    key, swapped = (("a1",), ("Xa1", "Xa2")), (("a1",), ("Xa2", "Xa1"))
    fam = OCFamily(p.module, p.target, p.n, {
        **p.ops, key: val, swapped: -val if koszul else val})
    res = axiom_suite(fam, A, geom=geom, zeta=sphere.zeta)
    # each of the two keys is compared under both permutations
    if koszul:
        assert res["interior_symmetry"] == {"ok": True, "failures": [],
                                            "checked": 4}
    else:
        assert res["interior_symmetry"] == {"ok": False, "failures": [
            {"key": key, "perm": (1, 0)}, {"key": swapped, "perm": (1, 0)}],
            "checked": 4}


def test_axiom_suite_flags_a_broken_unit_law():
    """A weight-1 unit value that is not +-zeta and a nonzero weight-2 unit
    value both fail the unit law."""
    A, geom = exterior_geometry(0)
    p, Q, sphere = toy_zero_energy(geom, A)
    assert p.p(("e",)) == -sphere.zeta
    broken = OCFamily(p.module, p.target, p.n, {
        **p.ops, (("e",), ()): p.p(("e",)).scale(2),
        (("e", "a1"), ()): Element.generator(p.target.module, "Xe")})
    res = axiom_suite(broken, A, geom=geom, zeta=sphere.zeta)
    assert not res["unit"]["ok"]
    assert [f["tuple"] for f in res["unit"]["failures"]] == [("e",),
                                                             ("e", "a1")]


def _odd_variable_geometry(n):
    """``odd_t`` (one odd variable t0, no unit) with its degree-n shifted
    copy as the ambient complex and the shift as the push-forward."""
    A, _ = _odd_variable_algebra(1)
    L = ChainComplex(A.module, {})
    Xmod = GradedModule("shifted_odd_t",
                        tuple("X" + g for g in A.module.basis),
                        tuple(d + n for d in A.module.degrees), A.module.ctx)
    push = {g: Element.generator(Xmod, "X" + g) for g in A.module.basis}
    return A, ToyGeometry(L, ChainComplex(Xmod, {}), push, n)


@pytest.mark.parametrize("n", [0, 1])
def test_axiom_suite_checks_the_fundamental_class_over_a_formal_variable(n):
    """Over a ring with a formal variable the zero-energy family does not
    depend on t0, checked on every (key, generator) value of p; a value
    with a t0 term is reported at its key."""
    A, geom = _odd_variable_geometry(n)
    assert A.module.ctx.tvars.count == 1
    p, _, sphere = toy_zero_energy(geom, A)
    res = axiom_suite(p, A, geom=geom, zeta=sphere.zeta)
    values = sum(len(el.terms) for el in p.ops.values())
    assert values > 0
    assert res["fundamental_class"] == {"ok": True, "failures": [],
                                        "checked": values}
    t0 = Scalar.monomial(A.module.ctx, 1, (0,), (1,))
    key = (("e", "e"), ())
    broken = OCFamily(p.module, p.target, n, {
        **p.ops, key: Element(p.target.module, {"Xe": t0})})
    res = axiom_suite(broken, A, geom=geom, zeta=sphere.zeta)
    assert res["fundamental_class"] == {"ok": False, "failures": [
        {"key": key, "generator": "Xe"}], "checked": values + 1}


def test_sphere_operation_must_be_a_chain_map():
    """dH = -Z, but q1 sends H to H2 and Z to zero: d q1(H) = -Z2 while
    q1(dH) = 0."""
    _, p, _ = theorem5_toy(0)
    H2 = Element.generator(p.target.module, "H2")
    with pytest.raises(ValueError, match="^q1 is not a chain map at 'H'$"):
        SphereTermProvider(p.target, {"H": H2}, zeta=H2)


def test_push_forward_must_raise_degrees_by_n():
    _, geom = exterior_geometry(1)
    Xe = Element.generator(geom.X.module, "Xe")
    with pytest.raises(ValueError,
                       match="^push does not have degree 1 at 'a1'$"):
        ToyGeometry(geom.L, geom.X, {**geom.push, "a1": Xe}, 1)
