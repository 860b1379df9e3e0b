"""The benchmark workloads.

A workload runs two of the four parts below.  Each part is a function
``(seed, workdir, known) -> list[Check]``.  Everything it does before
returning is set-up (algebras, instance files, random families); running the
returned checks is the verdict phase.  Every
check is one verdict and compares the program's answer with the known
answers in ``known_answers.json``.  Workloads whose inputs are exhaustive
(every basis word up to a cap) take nothing from the seed.

The caps are smaller than the acceptance criteria's, so that a pass takes a
few seconds and a run's median covers many passes; the constants below say
where each cap differs from its criterion.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from hochcyc import cli
from hochcyc.ainfty import BUILTIN_NAMES, ainfty_residual, builtin_algebras
from hochcyc.complexes import (
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
from hochcyc.graded import Element, Word
from hochcyc.openclosed import (
    axiom_suite,
    build_divisor_family,
    chain_map_residual,
    divisor_check,
    exterior_geometry,
    extended_P,
    is_exact,
    random_cyclic_p,
    random_target,
    theorem1_rewrite_check,
    theorem5_toy,
    toy_zero_energy,
)
from hochcyc.scalars import Cap, Scalar, scalar_to_str

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")

# Fixed inputs of the unsymmetrized negative control, so that its witness is a
# known answer whatever the workload seed.
NEGATIVE_CONTROL_SEED = 20260824
NEGATIVE_CONTROL_TARGET_SEED = 7

# Caps of the acceptance criteria these replace: criterion 01 weight <= 6
# (weight 6 alone is most of its time), criterion 02 weight <= 5, criterion
# 03 1000 words, criterion 09 weight 4 on every variant (here only the
# Hochschild complex of exterior(2), where the dense d^2 guard dominates,
# keeps weight 4), criterion 06 200 families per builtin, criteria 07 and 08
# energy and weight 4.
CODERIVATION_CAP = Cap(energy=6, weight=5, var_total=0)
DSQUARE_CAP = Cap(energy=5, weight=4, var_total=0)
T_LEMMA_CAP = Cap(energy=5, weight=5, var_total=0)
T_LEMMA_TRIALS = 250
# (builtin, --variant, --weight, --dmin, --dmax) of each homology command.
HOMOLOGY_INPUTS = ([(name, "all", 3, -2, 3) for name in BUILTIN_NAMES]
                   + [("exterior(2)", "hochschild", 4, 1, 2)])
REWRITE_CAP = Cap(energy=6, weight=6, var_total=0)
REWRITE_FAMILIES = 100
CHAIN_MAP_CAP = Cap(energy=3, weight=3, var_total=0)

AXIOMS = ("cyclic_symmetry", "interior_symmetry", "degree", "unit",
          "energy_zero", "fundamental_class", "boundary_linearity",
          "interior_linearity", "divisor_pass", "divisor_fail_control")


class Check(NamedTuple):
    """One verdict: ``run()`` returns None when the answer matches, else a
    description of the mismatch."""

    label: str
    run: Callable[[], str | None]


def load_known() -> dict:
    return json.loads(KNOWN_ANSWERS.read_text(encoding="utf-8"))


def terms_of(x: Word | Element) -> dict:
    """A word or element as {term: coefficient string}, the form the known
    answers are stored in."""
    return {(" ".join(k) if isinstance(k, tuple) else k): scalar_to_str(s)
            for k, s in sorted(x.items())}


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# coderivation: criterion 01
# ---------------------------------------------------------------------------

def _residual_vanishes(A, cap: Cap, want_checked: int) -> str | None:
    rep = ainfty_residual(A, cap)
    if rep.failures:
        return f"{len(rep.failures)} nonzero residuals, first {rep.failures[0]['word']}"
    return _mismatch("words checked", rep.checked, want_checked)


def coderivation(seed: int, workdir: Path, known: dict) -> list[Check]:
    want = known["coderivation"]["checked"]
    return [Check(f"coderivation:{name}",
                  partial(_residual_vanishes, builtin_algebras(name),
                          CODERIVATION_CAP,
                          want[name]))
            for name in BUILTIN_NAMES]


# ---------------------------------------------------------------------------
# complexes_sweep: criteria 02, 03 and 04
# ---------------------------------------------------------------------------

def _dsquare_vanishes(A, variant: Variant, cap: Cap,
                      want_checked: int) -> str | None:
    rep = dsquare_sweep(A, variant, cap)
    if rep.failures:
        return f"{len(rep.failures)} nonzero d^2, first {rep.failures[0]['tuple']}"
    return _mismatch("chains checked", rep.checked, want_checked)


def _extended_controls(A, cap: Cap, want_raw: dict) -> str | None:
    raw = extended_dsquare_raw(A, cap)
    if terms_of(raw) != want_raw:
        return _mismatch("raw extended d^2", terms_of(raw), want_raw)
    if not connes_canonical(raw).is_zero():
        return "raw extended d^2 survives the cyclic quotient"
    chain = ChainElt(Word.basis_word(A.module, ()), Variant.EXTENDED_CONNES)
    if not hoch_diff(A, hoch_diff(A, chain, cap), cap).is_zero():
        return "d^2 of the weight-0 generator is nonzero in the quotient"
    return None


def _t_lemma_holds(A, cap: Cap, trials: int, seed: int) -> str | None:
    rep = t_lemma_check(A, cap, trials=trials, seed=seed)
    if rep.failures:
        return f"{len(rep.failures)} words break the identity, first {rep.failures[0]['word']}"
    return _mismatch("words checked", rep.checked, trials)


def _degenerate_stable(A, cap: Cap, want_checked: int) -> str | None:
    """Criterion 04 for one algebra: unit-containing chains map into the
    degenerate subspace, and d(1 - t) vanishes in the cyclic quotient."""
    checked = 0
    e = A.unit
    for variant in sorted(UNIT_KILLING_VARIANTS, key=lambda v: v.value):
        for wgt in range(1, 5):
            for tup in itertools.product(A.module.basis, repeat=wgt):
                killed = (e in tup[1:]
                          if variant is Variant.NORMALIZED_HOCHSCHILD
                          else e in tup)
                if not killed:
                    continue
                img = hoch_diff_word(A, Word.basis_word(A.module, tup), cap)
                if not project(A, img, variant).is_zero():
                    return f"degenerate chain {tup} escapes in {variant.value}"
                checked += 1
    for wgt in range(1, 5):
        for tup in itertools.product(A.module.basis, repeat=wgt):
            w = Word.basis_word(A.module, tup)
            if not connes_canonical(hoch_diff_word(A, w - t_word(w), cap)).is_zero():
                return f"d(1 - t){tup} survives the cyclic quotient"
            checked += 1
    return _mismatch("chains checked", checked, want_checked)


def _energy_filtration(A, want_checked: int) -> str | None:
    lift = Scalar.monomial(A.module.ctx, 1, (2,), ())
    checked = 0
    for wgt in range(1, 5):
        for tup in itertools.product(A.module.basis, repeat=wgt):
            img = hoch_diff_word(A, Word.basis_word(A.module, tup))
            if any(s.valuation() < 0 for _, s in img.items()):
                return f"d{tup} has negative valuation"
            img2 = hoch_diff_word(A, Word(A.module, {tup: lift}))
            if any(s.valuation() < 2 for _, s in img2.items()):
                return f"d(T^2 {tup}) drops below valuation 2"
            checked += 1
    return _mismatch("chains checked", checked, want_checked)


def complexes_sweep(seed: int, workdir: Path, known: dict) -> list[Check]:
    k = known["complexes_sweep"]
    cap4 = Cap(energy=6, weight=4, var_total=0)
    checks = []
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        checks += [Check(f"dsquare:{name}:{v.value}",
                         partial(_dsquare_vanishes, A, v, DSQUARE_CAP,
                                 k["dsquare_checked"][name][v.value]))
                   for v in Variant]
    checks.append(Check("dsquare:curved_matrix:extended_raw",
                        partial(_extended_controls,
                                builtin_algebras("curved_matrix"),
                                DSQUARE_CAP,
                                k["extended_raw"])))
    checks += [Check(f"t_lemma:{name}",
                     partial(_t_lemma_holds, builtin_algebras(name),
                             T_LEMMA_CAP, T_LEMMA_TRIALS, seed))
               for name in BUILTIN_NAMES]
    checks += [Check(f"degenerate:{name}",
                     partial(_degenerate_stable, builtin_algebras(name), cap4,
                             k["degenerate_checked"][name]))
               for name in BUILTIN_NAMES]
    checks.append(Check("energy_filtration:curved_matrix",
                        partial(_energy_filtration,
                                builtin_algebras("curved_matrix"),
                                k["energy_filtration_checked"])))
    return checks


# ---------------------------------------------------------------------------
# homology_cli: criterion 09 through the command line
# ---------------------------------------------------------------------------

def homology_energy(name: str) -> str:
    return "1/2" if name == "curved_matrix" else "0"


def homology_key(name: str, variant: str, weight: int, dmin: int,
                 dmax: int) -> str:
    return f"{name}/{variant}/w{weight}/{dmin}..{dmax}"


def _homology_argv(path: Path, output: Path, name: str, variant: str,
                   weight: int, dmin: int, dmax: int) -> list[str]:
    return ["homology", str(path), "--variant", variant, "--oracle",
            "--weight", str(weight), "--dmin", str(dmin), "--dmax", str(dmax),
            "--vars", "0", "--energy", homology_energy(name),
            "--output", str(output)]


def _cli_homology_matches(argv: list[str], output: Path,
                          want: dict) -> str | None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return f"exit code {code}"
    report = json.loads(output.read_text(encoding="utf-8"))["betti"]
    for variant, tables in want.items():
        got = report[variant]
        for key, table in (("dims", tables["dims"]),
                           ("betti", tables["betti"]),
                           ("oracle_betti", tables["betti"])):
            bad = _mismatch(f"{variant} {key}", got[key], table)
            if bad:
                return bad
    return None


def homology_cli(seed: int, workdir: Path, known: dict) -> list[Check]:
    checks = []
    for i, inputs in enumerate(HOMOLOGY_INPUTS):
        path = workdir / f"algebra{i}.inst"
        path.write_text(cli.serialize_instance(builtin_algebras(inputs[0])),
                        encoding="utf-8")
        output = workdir / f"algebra{i}.json"
        key = homology_key(*inputs)
        checks.append(Check(f"homology:{key}",
                            partial(_cli_homology_matches,
                                    _homology_argv(path, output, *inputs),
                                    output, known["homology_cli"][key])))
    return checks


# ---------------------------------------------------------------------------
# openclosed: criteria 06, 07, 08 and 10
# ---------------------------------------------------------------------------

def _rewrite_vanishes(p, A, w: Word, cap: Cap) -> str | None:
    res = theorem1_rewrite_check(p, A, w, cap)
    return None if res.is_zero() else f"nonzero residual {terms_of(res)}"


def negative_control_cases():
    """Unsymmetrized families on exterior(2), from fixed seeds."""
    A = builtin_algebras("exterior(2)")
    target = random_target(A.module.ctx, seed=NEGATIVE_CONTROL_TARGET_SEED)
    rng = random.Random(NEGATIVE_CONTROL_SEED)
    cases = [(random_cyclic_p(A, target, 0, max_weight=4, seed=trial,
                              symmetrize=False),
              random_word(A, rng, 4))
             for trial in range(50)]
    return A, cases


def unsymmetrized_witness(A, cases, cap: Cap) -> dict | None:
    """The first family whose rewrite residual is nonzero, or None."""
    for trial, (p, w) in enumerate(cases):
        res = theorem1_rewrite_check(p, A, w, cap)
        if not res.is_zero():
            return {"trial": trial, "residual": terms_of(res)}
    return None


def _unsymmetrized_control(A, cases, cap: Cap, want: dict) -> str | None:
    got = unsymmetrized_witness(A, cases, cap)
    if got is None:
        return "no unsymmetrized family breaks the identity"
    return _mismatch("first witness", got, want)


def _zero_energy_chain_map(p, A, variant: Variant, cap: Cap, Q) -> str | None:
    rep = chain_map_residual(p, A, variant, cap, Q=Q)
    return None if rep.ok else f"residual at {rep.failures[0]}"


def _reduced_chain_map(p, A, n: int, cap: Cap, Q, zeta) -> str | None:
    want = zeta if (n + 1) % 2 == 0 else -zeta
    if p.eval_tuple((A.unit,)) != want:
        return "unit chain does not map to +-zeta"
    rep = chain_map_residual(p, A, Variant.REDUCED_CONNES, cap, Q=Q,
                             quotient_zeta=zeta)
    return None if rep.ok else f"residual at {rep.failures[0]}"


def _extended_chain_map(A, p, sphere, cap: Cap) -> str | None:
    if A.mu0().is_zero():
        return "the curved model has no curvature"
    if is_exact(sphere.target, sphere.zeta) is None:
        return "zeta is not exact"
    rep = chain_map_residual(extended_P(p, sphere), A,
                             Variant.EXTENDED_CONNES, cap, sphere=sphere)
    return None if rep.ok else f"residual at {rep.failures[0]}"


def eta_witness(p, sphere) -> dict | None:
    """How the weight-zero value moves when the primitive eta changes by a
    boundary, with a primitive of that move; None when it is not exact."""
    tmod = sphere.target.module
    eta2 = sphere.eta + sphere.target.d(Element.generator(tmod, "N"))
    sphere2 = type(sphere)(sphere.target, sphere.q1, sphere.zeta, eta=eta2)
    diff = extended_P(p, sphere2).value_at_one - extended_P(p, sphere).value_at_one
    witness = is_exact(sphere.target, diff)
    if diff.is_zero() or witness is None or sphere.target.d(witness) != diff:
        return None
    return {"diff": terms_of(diff), "witness": terms_of(witness)}


def _eta_independence(p, sphere, want: dict) -> str | None:
    got = eta_witness(p, sphere)
    if got is None:
        return "the change of primitive is zero or not exact"
    return _mismatch("eta witness", got, want)


def _axioms_hold(p, A, geom, zeta) -> str | None:
    res = axiom_suite(p, A, geom=geom, zeta=zeta)
    bad = sorted(k for k, v in res.items() if k != "ok" and not v["ok"])
    missing = sorted(set(AXIOMS) - set(res))
    if bad or missing or not res["ok"]:
        return f"failed {bad}, missing {missing}"
    return None


def _divisor_pair() -> str | None:
    _, good = build_divisor_family(good=True)
    passed, _ = divisor_check(good, Fraction, jmax=4)
    _, bad = build_divisor_family(good=False)
    failed, witnesses = divisor_check(bad, Fraction, jmax=4)
    if not passed or failed or not witnesses:
        return f"divisor pair: good passed {passed}, bad passed {failed}"
    return None


def openclosed(seed: int, workdir: Path, known: dict) -> list[Check]:
    k = known["openclosed"]
    rng = random.Random(seed)
    checks = []
    for name in BUILTIN_NAMES:
        A = builtin_algebras(name)
        target = random_target(A.module.ctx, seed=rng.randrange(2**32))
        for trial in range(REWRITE_FAMILIES):
            p = random_cyclic_p(A, target, trial % 2, max_weight=6,
                                seed=rng.randrange(2**32))
            checks.append(Check(f"rewrite:{name}:{trial}",
                                partial(_rewrite_vanishes, p, A,
                                        random_word(A, rng, 6), REWRITE_CAP)))
    A, cases = negative_control_cases()
    checks.append(Check("rewrite:unsymmetrized_control",
                        partial(_unsymmetrized_control, A, cases, REWRITE_CAP,
                                k["unsymmetrized_witness"])))
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        p, Q, sphere = toy_zero_energy(geom, A)
        for v in (Variant.HOCHSCHILD, Variant.NORMALIZED_HOCHSCHILD,
                  Variant.CONNES):
            checks.append(Check(f"zero_energy:{n}:{v.value}",
                                partial(_zero_energy_chain_map, p, A, v,
                                        CHAIN_MAP_CAP, Q)))
        checks.append(Check(f"zero_energy:{n}:reduced_mod_zeta",
                            partial(_reduced_chain_map, p, A, n,
                                    CHAIN_MAP_CAP, Q,
                                    sphere.zeta)))
    for n in (0, 1):
        A, p, sphere = theorem5_toy(n)
        checks.append(Check(f"extended:{n}",
                            partial(_extended_chain_map, A, p, sphere,
                                    CHAIN_MAP_CAP)))
        checks.append(Check(f"extended:{n}:eta",
                            partial(_eta_independence, p, sphere,
                                    k["eta_witness"][str(n)])))
    for n in (0, 1):
        A, geom = exterior_geometry(n)
        p, _, sphere = toy_zero_energy(geom, A)
        checks.append(Check(f"axioms:{n}",
                            partial(_axioms_hold, p, A, geom, sphere.zeta)))
    checks.append(Check("axioms:divisor_pair", _divisor_pair))
    return checks


PARTS = {
    "coderivation": coderivation,
    "complexes_sweep": complexes_sweep,
    "homology_cli": homology_cli,
    "openclosed": openclosed,
}

# Two parts per workload, so that a run of the length the benchmark can
# afford averages over more of the host's slow and fast spells.
WORKLOADS = {
    "coderivation_complexes": ("coderivation", "complexes_sweep"),
    "homology_openclosed": ("homology_cli", "openclosed"),
}


def workload_checks(workload: str, seed: int, workdir: Path,
                    known: dict) -> list[Check]:
    return [check for part in WORKLOADS[workload]
            for check in PARTS[part](seed, workdir, known)]


def run_checks(checks: list[Check]) -> list[tuple[str, str | None]]:
    """Run every check; an exception is a failed verdict, not a crash."""
    verdicts = []
    for check in checks:
        try:
            verdicts.append((check.label, check.run()))
        except Exception as exc:  # a verdict that raises counts as failed
            verdicts.append((check.label, f"raised {exc!r}"))
    return verdicts
