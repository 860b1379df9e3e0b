"""Acceptance gate: the ten release criteria, each with its wall-clock
budget.  Every test prints one summary line (visible with ``pytest -s`` or on
failure) and asserts both exactness and the time bound."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from hochcyc.scalars import Cap, Scalar
from hochcyc.graded import Element, Word, lemma_sign_suite
from hochcyc.ainfty import (
    BUILTIN_NAMES,
    ainfty_residual,
    builtin_algebras,
)
from hochcyc.complexes import (
    CYCLIC_VARIANTS,
    UNIT_KILLING_VARIANTS,
    ChainElt,
    Variant,
    connes_canonical,
    dsquare_sweep,
    extended_dsquare_raw,
    hoch_diff,
    hoch_diff_word,
    project,
    random_word,
    t_lemma_check,
    t_word,
)
from hochcyc.homology import Truncation, homology, naive_oracle
from hochcyc.openclosed import (
    axiom_suite,
    build_divisor_family,
    chain_map_residual,
    divisor_check,
    extended_P,
    exterior_geometry,
    is_exact,
    random_cyclic_p,
    random_target,
    theorem1_rewrite_check,
    theorem5_toy,
    toy_zero_energy,
)

SEED = 20260824


def _line(num, desc, ok, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {desc}  "
          f"({elapsed:.1f}s / limit {bound:.0f}s)", flush=True)


def test_criterion_01_coderivation_squares_to_zero():
    """mu-hat o mu-hat = 0 on all basis words of weight <= 6, each builtin
    algebra, under 10 s each."""
    cap = Cap(energy=6, weight=6, var_total=0)
    desc = "coderivation squared vanishes, weight <= 6, 4 algebras"
    ok = True
    worst = 0.0
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        t0 = time.perf_counter()
        rep = ainfty_residual(A, cap)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        ok = ok and rep.ok and dt < 10.0
        assert rep.ok, (name, rep.failures[:3])
        assert rep.checked == sum(
            len(A.module.basis) ** w for w in range(7))
        if dt >= 10.0:
            _line(1, f"{desc} ({name})", False, dt, 10)
        assert dt < 10.0, (name, dt)
    _line(1, desc, ok, worst, 10)


def test_criterion_02_dsquare_all_variants():
    """d^2 = 0 on all six variants at weight <= 5 for every builtin,
    including the weight-zero generator of the extended variants, plus the
    negative control: without the cyclic quotient d^2(1) is the nonzero word
    -mu0 (x) mu0.  Under 30 s."""
    cap = Cap(energy=5, weight=5, var_total=0)
    t0 = time.perf_counter()
    ok = True
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        for v in Variant:
            rep = dsquare_sweep(A, v, cap)
            ok = ok and rep.ok
            assert rep.ok, (name, v, rep.failures[:3])
    # extended generator for the curved algebra, raw vs quotient
    A = builtin_algebras("curved_matrix")
    raw = extended_dsquare_raw(A, cap)
    want = Word(A.module, {("I", "I"): Scalar.monomial(
        A.module.ctx, -1, (2,), ())})
    assert raw == want                       # negative control: nonzero
    assert connes_canonical(raw).is_zero()   # killed by the quotient
    chain = ChainElt(Word.basis_word(A.module, ()), Variant.EXTENDED_CONNES)
    assert hoch_diff(A, hoch_diff(A, chain, cap), cap).is_zero()
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _line(2, "d^2 = 0, six variants, weight <= 5, + extended controls",
          ok, dt, 30)
    assert dt < 30.0, dt


def test_criterion_03_intertwining_lemma():
    """d_hoch o (1 - t) = (1 - t) o mu-hat on 1000 seeded random words of
    weight <= 5 per algebra.  Under 30 s."""
    cap = Cap(energy=5, weight=5, var_total=0)
    t0 = time.perf_counter()
    ok = True
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        rep = t_lemma_check(A, cap, trials=1000, seed=SEED)
        ok = ok and rep.ok and rep.checked == 1000
        assert rep.ok, (name, rep.failures[:3])
        assert rep.checked == 1000
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    _line(3, "intertwining with 1 - t, 1000 random words x 4 algebras",
          ok, dt, 30)
    assert dt < 30.0, dt


def test_criterion_04_degenerate_and_energy_filtrations():
    """The differential preserves the degenerate subspaces (unit in a
    quotient-killed slot) and the energy filtration, exhaustively at
    weight <= 4 for the unital builtins."""
    cap = Cap(energy=6, weight=4, var_total=0)
    t0 = time.perf_counter()
    checked = 0
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        e = A.unit
        for variant in UNIT_KILLING_VARIANTS:
            for wgt in range(1, 5):
                for tup in itertools.product(A.module.basis, repeat=wgt):
                    killed = (e in tup[1:]
                              if variant is Variant.NORMALIZED_HOCHSCHILD
                              else e in tup)
                    if not killed:
                        continue
                    img = hoch_diff_word(A, Word.basis_word(A.module, tup),
                                         cap)
                    assert project(A, img, variant).is_zero(), (name, variant,
                                                                tup)
                    checked += 1
        # cyclic variants additionally quotient by the image of 1 - t
        for wgt in range(1, 5):
            for tup in itertools.product(A.module.basis, repeat=wgt):
                w = Word.basis_word(A.module, tup)
                img = hoch_diff_word(A, w - t_word(w), cap)
                assert connes_canonical(img).is_zero(), (name, tup)
                checked += 1
    # energy filtration: every output valuation dominates the input level
    A = builtin_algebras("curved_matrix")
    for wgt in range(1, 5):
        for tup in itertools.product(A.module.basis, repeat=wgt):
            img = hoch_diff_word(A, Word.basis_word(A.module, tup))
            assert all(s.valuation() >= 0 for _, s in img.items())
            lifted = Word(A.module, {tup: Scalar.monomial(
                A.module.ctx, 1, (2,), ())})
            img2 = hoch_diff_word(A, lifted)
            assert all(s.valuation() >= 2 for _, s in img2.items())
            checked += 1
    dt = time.perf_counter() - t0
    _line(4, f"degenerate/cyclic/energy filtrations stable "
             f"({checked} chains)", True, dt, 60)


def test_criterion_05_sign_lemma_suite():
    """Rotation identity exhaustive over parity vectors to k <= 6 and the
    splitting congruences exhaustive to k <= 8, both parities of n, zero
    counterexamples, under 60 s.  (The suite at k = 8 covers both ranges.)"""
    t0 = time.perf_counter()
    total = 0
    ok = True
    for n in (0, 1):
        rep = lemma_sign_suite(8, n, trials=200, seed=SEED)
        ok = ok and rep.ok
        assert rep.ok, rep.failures[:3]
        total += rep.checked
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _line(5, f"sign-lemma suite, k <= 8, both n parities ({total} checks)",
          ok, dt, 60)
    assert dt < 60.0, dt


def test_criterion_06_rotation_rewrite_identity():
    """p o d_hoch equals the rotation/splitting expansion for 200 seeded
    random cyclically symmetric families per algebra on words of weight <= 6,
    and an unsymmetrized family produces a nonzero witness.  Under 2 min."""
    cap = Cap(energy=6, weight=6, var_total=0)
    t0 = time.perf_counter()
    ok = True
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        target = random_target(A.module.ctx, seed=7)
        rng = random.Random(SEED)
        for trial in range(200):
            p = random_cyclic_p(A, target, trial % 2, max_weight=6,
                                seed=trial)
            w = random_word(A, rng, 6)
            res = theorem1_rewrite_check(p, A, w, cap)
            ok = ok and res.is_zero()
            assert res.is_zero(), (name, trial)
    # negative control: without symmetrization the identity must fail
    A = builtin_algebras("exterior(2)")
    target = random_target(A.module.ctx, seed=7)
    rng = random.Random(SEED)
    witness = False
    for trial in range(50):
        p = random_cyclic_p(A, target, 0, max_weight=4, seed=trial,
                            symmetrize=False)
        w = random_word(A, rng, 4)
        if not theorem1_rewrite_check(p, A, w, cap).is_zero():
            witness = True
            break
    ok = ok and witness
    assert witness, "no unsymmetrized counterexample found"
    dt = time.perf_counter() - t0
    ok = ok and dt < 120.0
    _line(6, "rotation rewrite, 200 random cyclic families x 4 algebras "
             "+ negative control", ok, dt, 120)
    assert dt < 120.0, dt


def test_criterion_07_zero_energy_chain_maps():
    """The classical push-forward family is a chain map on the Hochschild,
    normalized and cyclic complexes over the 4-generator geometry, both n
    parities; and on the reduced cyclic complex with the target taken modulo
    the distinguished class, including the unit chain."""
    cap = Cap(energy=4, weight=4, var_total=0)
    t0 = time.perf_counter()
    ok = True
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        assert len(A.module.basis) == 4
        p, Q, sphere = toy_zero_energy(geom, A)
        for v in (Variant.HOCHSCHILD, Variant.NORMALIZED_HOCHSCHILD,
                  Variant.CONNES):
            rep = chain_map_residual(p, A, v, cap, Q=Q)
            ok = ok and rep.ok
            assert rep.ok, (n, v, rep.failures[:3])
        # reduced cyclic complex: p only descends modulo the span of zeta,
        # because the unit chain maps to +-zeta rather than zero
        unit_val = p.eval_tuple((A.unit,))
        want = sphere.zeta if (n + 1) % 2 == 0 else -sphere.zeta
        assert unit_val == want
        rep = chain_map_residual(p, A, Variant.REDUCED_CONNES, cap, Q=Q,
                                 quotient_zeta=sphere.zeta)
        ok = ok and rep.ok
        assert rep.ok, (n, rep.failures[:3])
    dt = time.perf_counter() - t0
    _line(7, "zero-energy chain maps, 3 variants + reduced mod zeta, "
             "both n", ok, dt, 60)


def test_criterion_08_extended_family_on_curved_model():
    """The weight-zero extension is a chain map on the extended cyclic
    complex of a curved algebra (nonzero mu_0) with an exact distinguished
    class; changing the primitive changes the extension by an exact
    boundary."""
    cap = Cap(energy=4, weight=4, var_total=0)
    t0 = time.perf_counter()
    ok = True
    for n in (0, 1):
        A, p, sphere = theorem5_toy(n)
        assert not A.mu0().is_zero()
        zeta_primitive = is_exact(sphere.target, sphere.zeta)
        assert zeta_primitive is not None  # zeta is exact in the target
        P = extended_P(p, sphere)
        rep = chain_map_residual(P, A, Variant.EXTENDED_CONNES, cap,
                                 sphere=sphere)
        ok = ok and rep.ok
        assert rep.ok, (n, rep.failures[:3])
        # eta-independence: a second primitive shifts P(1) by a boundary
        tmod = sphere.target.module
        eta2 = sphere.eta + sphere.target.d(Element.generator(tmod, "N"))
        sphere2 = type(sphere)(sphere.target, sphere.q1, sphere.zeta,
                               eta=eta2)
        P2 = extended_P(p, sphere2)
        diff = P2.value_at_one - P.value_at_one
        assert not diff.is_zero()
        witness = is_exact(sphere.target, diff)
        ok = ok and witness is not None
        assert witness is not None
        assert sphere.target.d(witness) == diff
    dt = time.perf_counter() - t0
    _line(8, "extended family on the curved model + exact eta-independence",
          ok, dt, 60)


def test_criterion_09_homology_matches_oracle():
    """homology() and naive_oracle() agree on dimensions, ranks and Betti
    numbers for every builtin algebra and every variant, weight <= 4, degree
    window [-2, 3].  Under 5 min total."""
    t0 = time.perf_counter()
    ok = True
    compared = 0
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        energy = Fraction(1, 2) if name == "curved_matrix" else Fraction(0)
        trunc = Truncation(Cap(energy=energy, weight=4, var_total=0), -2, 3)
        for v in Variant:
            h = homology(A, v, trunc)
            o = naive_oracle(A, v, trunc)
            agree = (h.dims == o.dims and h.betti == o.betti
                     and h.ranks == o.ranks)
            ok = ok and agree
            assert agree, (name, v, h.summary(), o.summary())
            compared += 1
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _line(9, f"engine homology == oracle on {compared} algebra/variant "
             f"pairs, window [-2, 3]", ok, dt, 300)
    assert dt < 300.0, dt


def test_criterion_10_axiom_suite():
    """The full axiom suite on the zero-energy family (symmetries, degree,
    unit both branches, energy-zero, fundamental class, linearity signs with
    odd scalars) plus the synthetic divisor pass/fail pair."""
    t0 = time.perf_counter()
    ok = True
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        p, Q, sphere = toy_zero_energy(geom, A)
        res = axiom_suite(p, A, geom=geom, zeta=sphere.zeta)
        bad = {k: v for k, v in res.items()
               if k != "ok" and not v["ok"]}
        ok = ok and res["ok"]
        assert res["ok"], (n, bad)
        for required in ("cyclic_symmetry", "interior_symmetry", "degree",
                         "unit", "energy_zero", "fundamental_class",
                         "boundary_linearity", "interior_linearity",
                         "divisor_pass", "divisor_fail_control"):
            assert required in res
    # the divisor pair, standalone: the corrupted family must be caught
    _, good = build_divisor_family(good=True)
    passed, _ = divisor_check(good, lambda m: Fraction(m), jmax=4)
    _, bad_fam = build_divisor_family(good=False)
    failed, witnesses = divisor_check(bad_fam, lambda m: Fraction(m), jmax=4)
    ok = ok and passed and not failed and bool(witnesses)
    assert passed and not failed and witnesses
    dt = time.perf_counter() - t0
    _line(10, "axiom suite + divisor pass/fail pair, both n", ok, dt, 60)
