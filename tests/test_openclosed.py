"""Open-closed families: evaluation signs, cyclic symmetrization, the
rotation rewrite of p o d, the structure equation, chain-map residuals on the
toy instantiations, the weight-zero extension, and the axiom suite."""

import random
from fractions import Fraction

import pytest

from hochcyc.scalars import Cap, Scalar
from hochcyc.graded import ChainComplex, Element, GradedModule, Word, rotate
from hochcyc.ainfty import builtin_algebras
from hochcyc.complexes import Variant, random_word
from hochcyc.openclosed import (
    ExtendedOC,
    OCFamily,
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
    theorem1_rewrite_check,
    theorem5_toy,
    toy_zero_energy,
)

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


@pytest.mark.parametrize("name", ["exterior(2)", "dual_numbers"])
def test_symmetrized_matches_per_key_orbit_average(name):
    A = builtin_algebras(name)
    target = random_target(A.module.ctx, seed=3)
    tmod = target.module
    g = A.module.basis[1]  # of degree 1

    def gen(t, c=1):
        return Element.generator(tmod, t, c)

    ops = {
        ((), ()): gen("u0"),
        (("e", "e"), ()): gen("u1"),       # stabiliser acts by -1
        ((g, g), ()): gen("u2", 2),        # stabiliser acts by +1
        ((g, "e", g, "e"), ()): gen("u0", -3),  # stabiliser acts by -1
        ((g, "e", "e"), ()): gen("u1"),
        (("e", "e", g), ()): gen("u2", 5),  # same orbit as the key above
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


# -- structure equation and chain maps on the zero-energy toy ----------------


@pytest.mark.parametrize("n", [0, 1])
def test_zero_energy_structure_equation(n):
    import itertools

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


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("variant", [Variant.HOCHSCHILD,
                                     Variant.NORMALIZED_HOCHSCHILD,
                                     Variant.CONNES])
def test_zero_energy_chain_map(n, variant):
    A, geom = exterior_geometry(n)
    p, Q, sphere = toy_zero_energy(geom, A)
    rep = chain_map_residual(p, A, variant, Cap(4, 3, 4), Q=Q)
    assert rep.ok, rep.failures[:3]


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
