"""Hochschild differential, cyclic rotation operator, and the six chain
complex variants (Hochschild, normalized Hochschild, cyclic quotient, reduced
cyclic, and the two extended variants with a weight-zero generator).

Quotients are realized by canonicalization, one basis tuple at a time
(``canonical_form``): every cyclic class is stored via its signed
lexicographically-minimal rotation, and classes whose stabilizer acts by -1
are zero over the rationals.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .scalars import Cap, accumulate
from .graded import GradedModule, ResidualReport, Word, rotate
from .ainfty import (
    AInfty,
    add_image,
    combine_basis_images,
    hat_extension,
    insertion_sum,
    int_images,
)


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

    def __eq__(self, other):
        return (isinstance(other, ChainElt) and self.variant == other.variant
                and self.word == other.word)


# ---------------------------------------------------------------------------
# cyclic operator and canonical representatives
# ---------------------------------------------------------------------------


def t_word(w: Word) -> Word:
    """The cyclic rotation moving the last tensor factor to the front, with
    the Koszul sign on shifted degrees; identity on weights 0 and 1."""
    mod = w.module
    out = {}
    # rotation is a bijection on tuples, so no two terms collide
    for tup, c in w.items():
        k = len(tup)
        if k <= 1:
            out[tup] = c
            continue
        rot, _, s1 = rotate(tup, [mod.degree(g) for g in tup], k - 1)
        out[rot] = -c if s1 else c
    return Word._raw(mod, out)


def _canonical_rotation(module: GradedModule, tup):
    """Signed-lex-minimal rotation of a basis tuple, compared by basis index.

    Returns ``(rotated_tuple, sign_exponent)`` or ``None`` when the minimal
    tuple is reached by rotations of both signs (the class is then zero).

    The signed orbit is never built.  With sp[j] the shifted parity of the
    first j slots, the sign s_sigma^[1] of the rotation by j is
    sp[j] (sp[k] - sp[j]) = sp[j] (sp[k] + 1) mod 2, and it is only read at
    the positions j that reach the minimum."""
    k = len(tup)
    if k == 0:
        return tup, 0
    idx = [module.index(g) for g in tup]
    sp = [0]
    for i in idx:
        sp.append(sp[-1] ^ ((module.degrees[i] + 1) & 1))
    even = 1 - sp[k]
    keys = [idx[j:] + idx[:j] for j in range(k)]
    best = min(keys)
    signs = {sp[j] & even for j in range(k) if keys[j] == best}
    if len(signs) > 1:
        return None
    j = keys.index(best)
    return tup[j:] + tup[:j], signs.pop()


def connes_canonical(w: Word) -> Word:
    """Canonical representative of the class of ``w`` modulo the image of
    1 - t: each term is rotated to its signed-lex-minimal position; terms
    fixed (up to rotation) with sign -1 are zero."""
    mod = w.module
    pairs = []
    for tup, c in w.items():
        can = _canonical_rotation(mod, tup)
        if can is not None:
            rot, sgn = can
            pairs.append((rot, -c if sgn else c))
    return Word._raw(mod, accumulate({}, pairs))


def connes_preimage(w: Word) -> Word:
    """A word u with connes_canonical(w) - w = (1 - t)(u), witnessing the
    quotient relation term by term.

    For a term reaching its canonical rotation after m steps the telescoping
    t^m(u) - u = -(1 - t)(u + t(u) + ... + t^{m-1}(u)) applies; for a
    class-zero term (t^N(u) = -u for some N) one has
    -u = -(1 - t)((u + ... + t^{N-1}(u)) / 2)."""
    mod = w.module
    acc = Word.zero(mod)
    for tup, c in w.items():
        term = Word(mod, {tup: c})
        k = len(tup)
        partial = Word.zero(mod)
        cur = term
        for _ in range(2 * max(k, 1)):
            can = _canonical_rotation(mod, next(iter(cur.terms)))
            if can is not None and can[0] == next(iter(cur.terms)):
                acc = acc - partial
                break
            if cur == -term:
                acc = acc - partial.scale(Fraction(1, 2))
                break
            partial = partial + cur
            cur = t_word(cur)
        else:
            raise AssertionError("rotation orbit did not close")
    return acc


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
    tuple, or ``None`` when it is zero in the quotient: the unit rule
    ``is_degenerate`` composed with the cyclic ``_canonical_rotation``."""
    if variant in UNIT_KILLING_VARIANTS and is_degenerate(A, tup, variant):
        return None
    if variant in CYCLIC_VARIANTS:
        return _canonical_rotation(A.module, tup)
    return tup, 0


def project(A: AInfty, w: Word, variant: Variant) -> Word:
    """Full canonicalization for the variant.  One pass of
    ``connes_canonical`` suffices: it is idempotent, and dropping degenerate
    terms keeps the remaining terms canonical."""
    if variant in CYCLIC_VARIANTS:
        w = connes_canonical(w)
    if variant in UNIT_KILLING_VARIANTS:
        w = Word._raw(w.module, {tup: c for tup, c in w.items()
                                 if not is_degenerate(A, tup, variant)})
    return w


def is_canonical_tuple(A: AInfty, tup, variant: Variant) -> bool:
    """Whether a basis tuple is its own ``canonical_form`` with sign +1
    (weight-0 only in extended variants)."""
    if len(tup) == 0:
        return variant in EXTENDED_VARIANTS
    index = A.module.index
    if variant in CYCLIC_VARIANTS and min(map(index, tup)) != index(tup[0]):
        return False
    return canonical_form(A, tup, variant) == (tup, 0)


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


def diff_basis(A: AInfty, tup) -> list:
    """Raw Hochschild differential on one basis tuple, as (output tuple,
    ((monomial, numerator), ...)) pairs with integer numerators over
    ``A.den``, read from ``A.table``.  Cached on the algebra.

    On x (x) l it is (-1)^{||x||} x (x) mu-hat(l), which is
    ``insertion_sum`` with the first slot kept in front, plus the
    wrap-around sum over 3-splittings of l:
    (-1)^{||l3||(||x|| + ||l1|| + ||l2||)} mu(l3 (x) x (x) l1) (x) l2.
    On the weight-0 generator it is the curvature.  mu-hat(l) is summed
    afresh rather than read from ``hat_basis``, so the Hochschild sweeps do
    not fill the coderivation cache."""
    cached = A._diff_cache.get(tup)
    if cached is not None:
        return cached
    acc: dict[tuple, dict] = {}
    k = len(tup)
    if k == 0:
        for g, _, nums in A.table.get((), ()):
            add_image(acc, (g,), nums, 0)
    else:
        sp = insertion_sum(A, tup, 1, acc)
        for b in range(1, k + 1):        # wrap: mu(l3 (x) x (x) l1) (x) l2
            for a in range(1, b + 1):    # l1 = tup[1:a], l2 = tup[a:b]
                if k - b + a not in A.arities:
                    continue
                img = A.table.get(tup[b:] + tup[:a])
                if img is None:
                    continue
                n3 = (sp[k] + sp[b]) % 2
                sgn = (n3 * sp[b]) % 2
                for g, _, nums in img:
                    add_image(acc, (g,) + tup[a:b], nums, sgn)
    out = A._diff_cache[tup] = int_images(acc)
    return out


def hoch_diff_word(A: AInfty, w: Word, cap: Cap | None = None,
                   extended: bool = False) -> Word:
    """Raw Hochschild differential, prior to any variant projection; the
    operator passes a front coefficient of degree |c| with (-1)^{|c|}."""
    for tup in w.terms:
        if len(tup) == 0 and not extended:
            raise ValueError("weight-0 chain in a non-extended variant")
    return combine_basis_images(A, w, diff_basis, cap)


def hoch_diff(A: AInfty, c: ChainElt, cap: Cap | None = None) -> ChainElt:
    """Variant differential: raw differential followed by the variant's
    canonical projection."""
    raw = hoch_diff_word(A, c.word, cap,
                         extended=c.variant in EXTENDED_VARIANTS)
    return ChainElt(project(A, raw, c.variant), c.variant)


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


def dsquare_sweep(A: AInfty, variant: Variant, cap: Cap) -> ResidualReport:
    """d-squared on every canonical basis chain up to the weight cap;
    outputs are energy-capped but never weight-capped, so the vanishing is
    exact, not an artifact of truncation."""
    report = ResidualReport()
    for tup in canonical_tuples(A, variant, cap.weight):
        chain = ChainElt(Word.basis_word(A.module, tup), variant)
        res = hoch_diff(A, hoch_diff(A, chain, cap), cap)
        report.checked += 1
        if not res.is_zero():
            report.failures.append({"tuple": tup,
                                    "residual": repr(res.word)})
    return report


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
    return hoch_diff_word(A, hoch_diff_word(A, one, cap, extended=True), cap)
