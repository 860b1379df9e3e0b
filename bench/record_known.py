"""Write ``known_answers.json``: the answers every benchmark verdict is
compared with.

Usage, from the repository root::

    PYTHONPATH=src python3 bench/record_known.py

Where an answer can be worked out without the engine it is: word counts are
combinatorial, the raw extended d^2 is the closed form -T^2 (I (x) I), and the
homology tables come from the independent ``naive_oracle``.  The d^2 sweep
counts and the two witnesses are the engine's output at the commit that
recorded them; the ``sources`` entry says which is which.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from hochcyc.ainfty import BUILTIN_NAMES, builtin_algebras
from hochcyc.complexes import (
    UNIT_KILLING_VARIANTS,
    Variant,
    dsquare_sweep,
)
from hochcyc.graded import Word
from hochcyc.homology import Truncation, naive_oracle
from hochcyc.openclosed import theorem5_toy
from hochcyc.scalars import Cap, Scalar

import workloads


def words_up_to(n_basis: int, lo: int, hi: int) -> int:
    return sum(n_basis ** w for w in range(lo, hi + 1))


def degenerate_count(A) -> int:
    """Chains criterion 04 visits: unit-containing tuples per unit-killing
    variant, then every tuple once more for the cyclic quotient."""
    count = 0
    for variant in UNIT_KILLING_VARIANTS:
        for wgt in range(1, 5):
            for tup in itertools.product(A.module.basis, repeat=wgt):
                slots = tup[1:] if variant is Variant.NORMALIZED_HOCHSCHILD else tup
                count += A.unit in slots
    return count + words_up_to(len(A.module.basis), 1, 4)


def main() -> None:
    algebras = {name: builtin_algebras(name) for name in BUILTIN_NAMES}
    dsquare = {}
    for name in BUILTIN_NAMES:
        dsquare[name] = {}
        for v in Variant:
            rep = dsquare_sweep(builtin_algebras(name), v,
                                workloads.DSQUARE_CAP)
            if not rep.ok:
                raise RuntimeError(f"d^2 != 0 on {name} {v.value}")
            dsquare[name][v.value] = rep.checked

    curved = algebras["curved_matrix"]
    raw = Word(curved.module, {("I", "I"): Scalar.monomial(
        curved.module.ctx, -1, (2,), ())})

    homology = {}
    for name, variant, weight, dmin, dmax in workloads.HOMOLOGY_INPUTS:
        cap = Cap(energy=Fraction(workloads.homology_energy(name)),
                  weight=weight, var_total=0)
        variants = list(Variant) if variant == "all" else [Variant(variant)]
        tables = {}
        for v in variants:
            summary = naive_oracle(algebras[name], v,
                                   Truncation(cap, dmin, dmax)).summary()
            tables[v.value] = {"dims": summary["dims"],
                               "betti": summary["betti"]}
        homology[workloads.homology_key(name, variant, weight, dmin,
                                        dmax)] = tables

    A, cases = workloads.negative_control_cases()
    unsym = workloads.unsymmetrized_witness(
        A, cases, workloads.REWRITE_CAP)
    eta = {}
    for n in (0, 1):
        _, p, sphere = theorem5_toy(n)
        eta[str(n)] = workloads.eta_witness(p, sphere)
    if unsym is None or not all(eta.values()):
        raise RuntimeError("a negative-control witness is missing")

    known = {
        "sources": {
            "coderivation.checked": "sum of |basis|^w for w <= "
                                    f"{workloads.CODERIVATION_CAP.weight}",
            "complexes_sweep.dsquare_checked": "engine at the recording commit",
            "complexes_sweep.extended_raw": "closed form -T^2 (I (x) I)",
            "complexes_sweep.degenerate_checked": "tuple count",
            "complexes_sweep.energy_filtration_checked": "tuple count",
            "homology_cli": "naive_oracle",
            "openclosed": "engine at the recording commit",
        },
        "coderivation": {"checked": {
            name: words_up_to(len(A.module.basis), 0,
                              workloads.CODERIVATION_CAP.weight)
            for name, A in algebras.items()}},
        "complexes_sweep": {
            "dsquare_checked": dsquare,
            "extended_raw": workloads.terms_of(raw),
            "degenerate_checked": {name: degenerate_count(A)
                                   for name, A in algebras.items()},
            "energy_filtration_checked": words_up_to(
                len(curved.module.basis), 1, 4),
        },
        "homology_cli": homology,
        "openclosed": {"unsymmetrized_witness": unsym, "eta_witness": eta},
    }
    workloads.KNOWN_ANSWERS.write_text(json.dumps(known, indent=1) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    main()
