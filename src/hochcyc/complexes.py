"""Hochschild differential, cyclic rotation operator, and the six chain
complex variants (Hochschild, normalized Hochschild, cyclic quotient, reduced
cyclic, and the two extended variants with a weight-zero generator).

One per-tuple rule, ``canonical_form``, gives the chains of a variant and
their signed representatives: the weight-zero generator exists only in the
extended variants, the unit-killing variants drop tuples with the unit in a
quotiented slot, and a cyclic class is its signed least rotation, zero when
its stabilizer acts by -1.  The variant differential is b followed by this
rule on each output tuple (``variant_images``), run by the integer kernel;
each variant's image of a tuple, and each tuple's representative, is
computed once per algebra and cached by ``ainfty``.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .scalars import Cap, accumulate
from .graded import GradedModule, ResidualReport, Word, rotations
from .ainfty import (AInfty, combine_basis_images, diff_basis, hat_extension,
                     quotient_basis, squares_to_zero, tuple_class)


class Variant(enum.Enum):
    HOCHSCHILD = "hochschild"
    NORMALIZED_HOCHSCHILD = "normalized_hochschild"
    CONNES = "connes"
    REDUCED_CONNES = "reduced_connes"
    EXTENDED_CONNES = "extended_connes"
    EXTENDED_REDUCED_CONNES = "extended_reduced_connes"


CYCLIC_VARIANTS = frozenset({
    Variant.CONNES, Variant.REDUCED_CONNES,
    Variant.EXTENDED_CONNES, Variant.EXTENDED_REDUCED_CONNES,
})
EXTENDED_VARIANTS = frozenset({
    Variant.EXTENDED_CONNES, Variant.EXTENDED_REDUCED_CONNES,
})
UNIT_KILLING_VARIANTS = frozenset({
    Variant.NORMALIZED_HOCHSCHILD, Variant.REDUCED_CONNES,
    Variant.EXTENDED_REDUCED_CONNES,
})


@dataclass
class ChainElt:
    """A chain: an underlying word plus the variant it lives in.  For
    quotient variants the word is kept in canonical form.  The weight-zero
    generator of the extended variants is the empty tuple."""

    word: Word
    variant: Variant

    def is_zero(self):
        return self.word.is_zero()


# ---------------------------------------------------------------------------
# cyclic operator and canonical representatives
# ---------------------------------------------------------------------------


def t_word(w: Word) -> Word:
    """The cyclic rotation moving the last tensor factor to the front, with
    the Koszul sign on shifted degrees: each tuple goes to the last entry
    of its signed orbit ``rotations``, so weights 0 and 1 stay fixed."""
    mod = w.module
    return _canonical_terms(
        w, lambda tup: rotations(tup, [mod.degree(g) for g in tup])[-1])


def _canonical_rotation(module: GradedModule, tup):
    """Signed-lex-minimal rotation of a basis tuple, compared by basis index.

    Returns ``(rotated_tuple, sign_exponent)`` or ``None`` when the minimal
    tuple is reached by rotations of both signs (the class is then zero).
    The least entry of the signed orbit ``rotations`` of the basis-index
    tuple gives both the rotation and its sign s_sigma^[1]."""
    idx = tuple(map(module.index, tup))
    orbit = rotations(idx, [module.degrees[i] for i in idx])
    best = min(orbit)
    if (best[0], 1 - best[1]) in orbit:
        return None
    j = orbit.index(best)
    return tup[j:] + tup[:j], best[1]


def _canonical_terms(w: Word, rule) -> Word:
    """Each term of ``w`` sent through the per-tuple ``rule``, which returns
    ``(representative tuple, sign exponent)`` or ``None`` for zero."""
    pairs = []
    for tup, c in w.items():
        can = rule(tup)
        if can is not None:
            rot, sgn = can
            pairs.append((rot, -c if sgn else c))
    return Word._raw(w.module, accumulate({}, pairs))


def connes_canonical(w: Word) -> Word:
    """Canonical representative of the class of ``w`` modulo the image of
    1 - t: each term is rotated to its signed-lex-minimal position; terms
    fixed (up to rotation) with sign -1 are zero."""
    mod = w.module
    return _canonical_terms(w, lambda tup: _canonical_rotation(mod, tup))


def connes_preimage(w: Word) -> Word:
    """A word u with connes_canonical(w) - w = (1 - t)(u), witnessing the
    quotient relation term by term.

    For a term reaching its canonical rotation at t^m the telescoping
    t^m(u) - u = -(1 - t)(u + t(u) + ... + t^{m-1}(u)) applies; for a
    class-zero term, with t^N(u) = -u, one has
    -u = -(1 - t)((u + ... + t^{N-1}(u)) / 2).  t^i is the rotation by -i
    of the signed orbit ``rotations``."""
    mod = w.module
    pairs = []
    for tup, c in w.items():
        stop = _canonical_rotation(mod, tup)
        if stop is None:
            stop, c = (tup, 1), c.scale(Fraction(1, 2))
        orbit = rotations(tup, [mod.degree(g) for g in tup])
        for i in range(len(orbit)):
            rot, sgn = orbit[-i]
            if (rot, sgn) == stop:
                break
            pairs.append((rot, c if sgn else -c))
    return Word._raw(mod, accumulate({}, pairs))


def is_degenerate(A: AInfty, tup, variant: Variant) -> bool:
    """Whether a basis tuple has the unit in a slot that the unit-killing
    ``variant`` quotients out: slots >= 2 for the normalized Hochschild
    complex, any slot for reduced cyclic variants."""
    if A.unit is None:
        raise ValueError(f"variant {variant.value} requires a unital algebra")
    if variant is Variant.NORMALIZED_HOCHSCHILD:
        tup = tup[1:]
    return A.unit in tup


def canonical_form(A: AInfty, tup, variant: Variant):
    """The variant's ``(representative tuple, sign exponent)`` of a basis
    tuple, or ``None`` when it is no chain of the variant or zero in its
    quotient: the weight-zero generator exists only in the extended
    variants, then the unit rule ``is_degenerate`` is composed with the
    cyclic ``_canonical_rotation``."""
    if not tup:
        return (tup, 0) if variant in EXTENDED_VARIANTS else None
    if variant in UNIT_KILLING_VARIANTS and is_degenerate(A, tup, variant):
        return None
    if variant in CYCLIC_VARIANTS:
        return _canonical_rotation(A.module, tup)
    return tup, 0


def project(A: AInfty, w: Word, variant: Variant) -> Word:
    """Full canonicalization for the variant: every term through
    ``variant_class``, the cached ``canonical_form``."""
    return _canonical_terms(w, lambda tup: variant_class(A, tup, variant))


def variant_class(A: AInfty, tup, variant: Variant, store: bool = True):
    """``canonical_form`` of a basis tuple, cached per algebra, variant
    and tuple by ``ainfty.tuple_class``; without ``store`` a class not yet
    cached is computed and not stored."""
    return tuple_class(A, tup, variant.value,
                       partial(canonical_form, variant=variant), store)


def is_canonical_tuple(A: AInfty, tup, variant: Variant) -> bool:
    """Whether a basis tuple is its own ``canonical_form`` with sign +1."""
    index = A.module.index
    if (tup and variant in CYCLIC_VARIANTS
            and min(map(index, tup)) != index(tup[0])):
        return False
    return variant_class(A, tup, variant) == (tup, 0)


def canonical_tuples(A: AInfty, variant: Variant, max_weight: int):
    """The variant's canonical basis tuples of weight <= ``max_weight``, by
    weight and then in ``itertools.product`` order of the basis."""
    for w in range(max_weight + 1):
        for tup in itertools.product(A.module.basis, repeat=w):
            if is_canonical_tuple(A, tup, variant):
                yield tup


# ---------------------------------------------------------------------------
# the Hochschild differential
# ---------------------------------------------------------------------------


def hoch_diff_word(A: AInfty, w: Word, cap: Cap | None = None) -> Word:
    """Raw Hochschild differential, the per-tuple images ``diff_basis`` of
    ``ainfty`` applied to a word, prior to any variant projection; the
    operator passes a front coefficient of degree |c| with (-1)^{|c|}, and
    the weight-0 generator maps to the curvature."""
    return combine_basis_images(A, w, diff_basis, cap)


def variant_images(variant: Variant):
    """The per-tuple images of the variant differential for ``apply_images``:
    ``diff_basis`` with each output tuple sent through ``canonical_form``,
    which acts on tuples only and so commutes with the front sign.  On
    Hochschild chains that is b itself; every other variant's image is
    built once per tuple from b by ``ainfty.quotient_basis`` and cached on
    the algebra."""
    if variant is Variant.HOCHSCHILD:
        return diff_basis
    return partial(quotient_basis, key=variant.value,
                   rule=partial(variant_class, variant=variant))


def hoch_diff(A: AInfty, c: ChainElt, cap: Cap | None = None) -> ChainElt:
    """The variant differential: the kernel with ``variant_images``."""
    if () in c.word.terms and c.variant not in EXTENDED_VARIANTS:
        raise ValueError("weight-0 chain in a non-extended variant")
    return ChainElt(combine_basis_images(A, c.word, variant_images(c.variant),
                                         cap), c.variant)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def dsquare_sweep(A: AInfty, variant: Variant, cap: Cap) -> ResidualReport:
    """d-squared on every canonical basis chain up to the weight cap, by
    ``squares_to_zero``; outputs are energy-capped but never weight-capped,
    so the vanishing is exact, not an artifact of truncation."""
    return squares_to_zero(A, canonical_tuples(A, variant, cap.weight),
                           variant_images(variant), cap, "tuple")


def random_word(A: AInfty, rng: random.Random, max_weight: int) -> Word:
    """A random combination of two basis words of weight 1 to
    ``max_weight``, for property sweeps."""
    out = Word.zero(A.module)
    for _ in range(2):
        k = rng.randint(1, max_weight)
        tup = tuple(rng.choice(A.module.basis) for _ in range(k))
        coeff = rng.choice((-2, -1, 1, 2, 3))
        out = out + Word.basis_word(A.module, tup, coeff)
    return out


def t_lemma_check(A: AInfty, cap: Cap, trials: int,
                  seed: int = 0) -> ResidualReport:
    """The intertwining identity d_hoch o (1 - t) = (1 - t) o mu-hat on
    random words of weight >= 1."""
    rng = random.Random(seed)
    report = ResidualReport()
    for _ in range(trials):
        w = random_word(A, rng, cap.weight)
        lhs = hoch_diff_word(A, w - t_word(w), cap)
        mh = hat_extension(A, w, cap)
        rhs = mh - t_word(mh)
        report.checked += 1
        if lhs != rhs:
            report.failures.append({"word": repr(w)})
    return report


def extended_dsquare_raw(A: AInfty, cap: Cap | None = None) -> Word:
    """d-squared on the weight-0 generator without the cyclic quotient:
    d(mu_0(1)), which equals -mu_0(1) (x) mu_0(1) and is nonzero for curved
    algebras — the reason the extension lives in the cyclic complex."""
    one = Word.basis_word(A.module, ())
    return hoch_diff_word(A, hoch_diff_word(A, one, cap), cap)
