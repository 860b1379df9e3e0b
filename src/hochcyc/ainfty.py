"""Curved A-infinity structures as sparse multilinear families.

Provides the coderivation (hat) extension of the operations to the tensor
coalgebra, the structure-relation residual mu-hat o mu-hat, strict-unit
validation, and a small library of built-in algebras.  This module is the
one operator core: it alone reads the compiled table of an algebra and its
caches.  An operator image on a basis tuple is one flat tuple of (output
tuple, monomial, numerator) triples, exact integers over the algebra's one
denominator; the compiled table holds mu in the same form, and every term
enters an image through one routine, ``add_term``.  Each algebra keeps one
image cache keyed by operator, one class cache keyed by quotient, and the
intern table from which every tuple they hold comes.  The image cache is
bounded by the weight cap of the call that needs an image: ``apply_images``
stores a newly built image only of a tuple within its cap.  The image of a
longer tuple, an output of a curvature insertion, is built from the cached
images of shorter ones, applied once and dropped, and neither its tuples nor
the classes it looks up are stored.  mu-hat (``hat_basis``) and the
Hochschild differential b (``diff_basis``) share x (x) mu-hat(l) on x (x) l,
read from the cached mu-hat(l), and one rule, ``front_insertions``, for
their other terms: b's wrap-around terms are the front insertions of the
signed rotations of the tuple.  Each quotient of the Hochschild complex has
its own cached image per tuple, b merged through the quotient rule once
(``quotient_basis``).  ``apply_images`` is the one integer kernel that
applies per-tuple images to a word; it reads and writes integer words over
one denominator, monomial-major, ``{monomial: {tuple: numerator}}``.
``squares_to_zero`` applies the images twice, for mu-hat o mu-hat and
d o d.  ``OCFamily`` is the one table class and evaluator for every
operation family with boundary and interior inputs: the q_{k,l}
(``AInfty.qfamily`` and ``DeformedQ``), the open-closed p_{k,l} and the
closed-sector q_{empty,l} of ``openclosed``.  A family holds its values as
compiled images, keyed by (boundary tuple, interior tuple), and runs on the
same kernel: ``apply_images`` takes the operator's parity, odd for mu-hat
and b, n + 1 + |interior tuple| for a family.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from types import MappingProxyType

from .scalars import (
    INFINITY,
    Cap,
    Context,
    FormalVarSpec,
    PiGroup,
    Scalar,
    TRIVIAL_CONTEXT,
)
from .graded import (
    ChainComplex,
    Element,
    GradedModule,
    ResidualReport,
    Word,
    rotations,
    word_from_factors,
)


class AInfty:
    """A curved A-infinity algebra given by sparse structure constants.

    ``ops`` maps generator tuples to nonzero Elements: a length-k tuple keys
    a value of mu_k, and the empty tuple keys the curvature.  Operations not
    listed are zero; ``arities`` holds the key lengths.  Each mu_k raises the
    total shifted degree by one, equivalently the unshifted degree by
    ``2 - k``.

    The operations are compiled once, at construction, into exact integers
    over one denominator ``den`` (``compile_table``): ``table`` maps each
    key of ``ops`` to its image in the form of every cached image.  The
    operator images
    (``hat_basis``, ``diff_basis``) are built from ``table``, which
    ``front_insertions`` alone reads, and cached in ``_image_cache`` under
    ``"hat"``, ``"diff"`` and each quotient key, whose image is b through
    the quotient (``quotient_basis``); per quotient key, ``_class_cache``
    holds each tuple's representative (``tuple_class``).  ``_tuples``
    interns every tuple the caches hold, so equal tuples are stored once;
    ``image_counts`` reports the sizes.  An image or class is stored only
    when the caller's ``store`` flag is set, which ``apply_images`` sets
    for tuples within its weight cap, so a capped sweep caches no image
    above its cap; a stored entry is read whatever the flag says.  No
    other module reads the table, the caches or the intern table.  Since
    they derive from ``ops``, ``ops`` is never mutated after construction.
    ``qfamily`` is the family q with q_{k,0} = mu_k and no interior
    operations, holding the images of ``table``.
    """

    def __init__(self, module: GradedModule, ops, unit: str | None = None):
        self.module = module
        self.ops: dict[tuple, Element] = {tuple(t): el for t, el in ops.items()
                                          if el}
        self.arities = frozenset(map(len, self.ops))
        self.unit = unit
        self.validate()
        table, self.den = compile_table(self.ops)
        self.table: dict[tuple, tuple] = table
        self.qfamily = OCFamily.from_images(
            module, ChainComplex(module, {}), 0,
            {(t, ()): image for t, image in table.items()}, self.den)
        # per-instance caches on basis tuples, filled only within the weight
        # cap of the call that needs them: images by operator name and
        # classes by quotient key; ``_tuples`` interns every tuple they hold
        self._tuples: dict[tuple, tuple] = {}
        self._image_cache: dict[str, dict] = {"hat": {}, "diff": {}}
        self._class_cache: dict[str, dict] = {}

    # -- structure lookup ----------------------------------------------------

    def mu(self, tup) -> Element:
        """mu_k on a basis tuple (k = len(tup))."""
        return self.ops.get(tuple(tup)) or Element.zero(self.module)

    def mu0(self) -> Element:
        """The curvature mu_0(1)."""
        return self.mu(())

    # -- validation ----------------------------------------------------------

    def validate(self):
        """``check_operation`` on every operation; the unit is a generator."""
        for tup, el in self.ops.items():
            check_operation(self.module, tup, el)
        if self.unit is not None and self.unit not in self.module.basis:
            raise ValueError(f"unit {self.unit!r} is not a generator")


def compile_table(ops: dict) -> tuple[dict, int]:
    """``(table, den)``: ``den`` the least common multiple of the
    denominators of the Element values, and ``table`` the key of each
    nonzero value mapped to one flat tuple of (output, monomial, numerator)
    triples, the output the 1-tuple ``(g,)`` of a generator."""
    ops = {key: el for key, el in ops.items() if el}
    den = math.lcm(*(q.denominator for el in ops.values()
                     for s in el.terms.values() for q in s.terms.values()))
    return {key: tuple(x for g, s in el.items() for m, q in s.terms.items()
                       for x in ((g,), m, q.numerator * (den // q.denominator)))
            for key, el in ops.items()}, den


class OperationError(ValueError):
    """An operation that ``check_operation`` rejects; ``key`` is its input
    tuple."""

    def __init__(self, key: tuple, message: str):
        super().__init__(message)
        self.key = key


def check_operation(module: GradedModule, tup, el: Element) -> None:
    """Raise ``OperationError`` unless ``el`` = mu_k(tup) obeys the degree
    law (+1 on shifted degrees) and has no negative valuation, and a
    curvature (k = 0) has positive valuation."""
    k = len(tup)
    want = sum(module.degree(g) for g in tup) + 2 - k
    try:
        degrees = [module.degree(g) + s.degree() for g, s in el.items()]
    except ValueError as exc:  # a non-homogeneous coefficient
        raise OperationError(tup, str(exc)) from None
    if any(d != want for d in degrees):
        raise OperationError(
            tup, f"mu_{k}{tup!r} is not homogeneous of degree {want}")
    if el.valuation() < 0:
        raise OperationError(tup, f"mu_{k}{tup!r} has negative valuation")
    if k == 0 and el.valuation() <= 0:
        raise OperationError(tup, "curvature must have positive valuation")


# ---------------------------------------------------------------------------
# the hat extension and the structure residual
# ---------------------------------------------------------------------------


def add_term(acc: dict, otup, m, n) -> None:
    """Add the numerator n at monomial m of the output tuple otup into
    ``acc``, the one way a term enters an image under construction.
    Buckets may keep zeros; ``cache_image`` drops them."""
    bucket = acc.get(otup)
    if bucket is None:
        acc[otup] = {m: n}
    else:
        bucket[m] = bucket.get(m, 0) + n


def cache_image(A: AInfty, key: str, tup, acc: dict,
                store: bool = True) -> tuple:
    """The image of ``tup`` from the nonzero terms of ``acc``: one flat
    tuple of (output tuple, monomial, numerator) triples.  With ``store``
    it is stored in the algebra's image cache under the operator's
    ``key``, the key tuple and each output tuple taken from the intern
    table ``A._tuples``; without, it is only returned and nothing is
    interned."""
    intern = A._tuples.setdefault
    out = []
    for t, b in acc.items():
        if any(b.values()):
            if store:
                t = intern(t, t)
            for m, n in b.items():
                if n:
                    out += (t, m, n)
    image = tuple(out)
    if store:
        A._image_cache.setdefault(key, {})[intern(tup, tup)] = image
    return image


def prefix_images(A: AInfty, acc: dict, x, l) -> None:
    """Add x (x) mu-hat(l), the term that mu-hat and the Hochschild
    differential share on x (x) l, into ``acc``, read from the cached
    ``hat_basis(A, l)``.  On top of its sign in mu-hat(l), each monomial m
    passes the shifted x with (-1)^{||x|| (1 + |m|)}."""
    head = (x,)
    flip = not A.module.degree(x) % 2      # ||x|| odd
    parity = A.module.ctx.mono_parity
    it = iter(hat_basis(A, l))
    for t, m, n in zip(it, it, it):
        add_term(acc, head + t, m, -n if flip and not parity(m) else n)


def front_insertions(A: AInfty, acc: dict, rot, least: int, sign) -> None:
    """Add (-1)^sign mu(rot[:m]) (x) rot[m:] into ``acc`` for each arity m
    with least <= m <= len(rot): the one rule, and the one reader of
    ``A.table``, for the terms of mu-hat and b that put an operation in
    front."""
    for m in A.arities:
        if least <= m <= len(rot):
            tail = rot[m:]
            it = iter(A.table.get(rot[:m], ()))
            for out, mono, n in zip(it, it, it):
                add_term(acc, out + tail, mono, -n if sign else n)


def hat_basis(A: AInfty, tup, store: bool = True) -> tuple:
    """The coderivation mu-hat (b' in Loday's notation) on one basis tuple,
    as a flat tuple of (output tuple, monomial, numerator) triples with
    integer numerators over ``A.den``, each (output tuple, monomial) named
    once.  Read from the algebra's cache under ``"hat"``, or built and,
    with ``store``, cached there (``cache_image``).

    On x (x) l it is every ``front_insertions`` of the tuple, the curvature
    included, plus ``prefix_images`` x (x) mu-hat(l); on the empty tuple it
    is the curvature."""
    image = A._image_cache["hat"].get(tup)
    if image is None:
        acc: dict[tuple, dict] = {}
        front_insertions(A, acc, tup, 0, 0)
        if tup:
            prefix_images(A, acc, tup[0], tup[1:])
        image = cache_image(A, "hat", tup, acc, store)
    return image


def diff_basis(A: AInfty, tup, store: bool = True) -> tuple:
    """The Hochschild differential b on one basis tuple, in the form and
    with the ``store`` flag of ``hat_basis``, cached under ``"diff"``.

    On x (x) l it is x (x) mu-hat(l), from ``prefix_images``, plus the
    wrap-around terms: the ``front_insertions`` of each signed rotation of
    the tuple in the orbit ``rotations``, with the sign s_sigma^[1] of the
    rotation.  The rotation by j moves the k - j factors of tup[j:] in
    front of x, and an insertion must reach past them to x; with j = 0 every
    insertion of positive arity counts.  Both parts are merged into one
    image, each (output tuple, monomial) named once.  On the weight-0
    generator b is the curvature, ``hat_basis(A, ())``."""
    if not tup:
        return hat_basis(A, (), store)
    image = A._image_cache["diff"].get(tup)
    if image is None:
        k = len(tup)
        acc: dict[tuple, dict] = {}
        prefix_images(A, acc, tup[0], tup[1:])
        orbit = rotations(tup, [A.module.degree(g) for g in tup])
        for j, (rot, s1) in enumerate(orbit):
            front_insertions(A, acc, rot, (k - j) % k + 1, s1)
        image = cache_image(A, "diff", tup, acc, store)
    return image


def tuple_class(A: AInfty, tup, key: str, rule, store: bool = True):
    """``rule(A, tup)``, the ``(representative tuple, sign exponent)`` of a
    basis tuple in the quotient named ``key``, or ``None`` where it is zero
    there; read from the class cache, or computed and, with ``store``,
    cached there once per algebra, quotient and tuple, its tuples
    interned."""
    classes = A._class_cache.get(key, ())
    if tup in classes:
        return classes[tup]
    if not store:
        return rule(A, tup)
    intern = A._tuples.setdefault
    tup = intern(tup, tup)
    can = rule(A, tup)
    if can is not None:
        can = intern(can[0], can[0]), can[1]
    A._class_cache.setdefault(key, {})[tup] = can
    return can


def quotient_basis(A: AInfty, tup, key: str, rule,
                   store: bool = True) -> tuple:
    """b on one basis tuple followed by a per-tuple quotient rule on each
    output tuple, in the form of ``hat_basis``.  ``rule(A, otup, store=)``
    gives otup's ``(representative tuple, sign exponent)``, where exponent
    1 negates the numerator, or ``None``, which drops the term.  Cached on
    the algebra under the quotient's ``key``, so each quotient has one
    merged, canonical image per tuple; ``store`` goes to b, to the rule and
    to the image."""
    image = A._image_cache.get(key, {}).get(tup)
    if image is None:
        acc: dict[tuple, dict] = {}
        it = iter(diff_basis(A, tup, store))
        for otup, m, n in zip(it, it, it):
            can = rule(A, otup, store=store)
            if can is not None:
                add_term(acc, can[0], m, -n if can[1] else n)
        image = cache_image(A, key, tup, acc, store)
    return image


def image_counts(A: AInfty) -> dict:
    """The size of each image cache of the algebra, ``{"tuples": cached
    tuples, "terms": image triples}``, under ``hat`` and ``diff``, then the
    key of each quotient; under ``classes`` the number of tuples whose
    class is cached, per quotient key; and the number of interned
    tuples."""
    def count(cache):
        return {"tuples": len(cache),
                "terms": sum(len(image) for image in cache.values()) // 3}
    caches = A._image_cache
    keys = ["hat", "diff", *sorted(caches.keys() - {"hat", "diff"})]
    out = {key: count(caches[key]) for key in keys}
    out["classes"] = {key: len(classes) for key, classes
                      in sorted(A._class_cache.items())}
    out["interned_tuples"] = len(A._tuples)
    return out


def apply_images(A, iword: dict, image_of, cap: Cap | None,
                 odd: bool = True) -> dict:
    """The operator kernel: the operator of parity ``odd`` with per-tuple
    integer images ``image_of(A, tup, store=...)`` (over ``A.den``), flat
    tuples of (output tuple, monomial, numerator) triples, applied to an
    integer word, as an integer word over the input's denominator times
    ``A.den``.  An integer word is monomial-major, ``{monomial: {tuple:
    numerator}}``, in and out; output numerators may be zero.  ``A`` is an
    algebra or an ``OCFamily``.

    ``store`` is set when ``cap`` admits the input tuple's weight (always
    without a cap): a new image of a longer tuple, which a curvature
    insertion makes from one within the cap, is built, applied here once
    and dropped, so the caches stay within the cap.  Each image is fetched
    once per call, however many front monomials its tuple carries.

    A front monomial m passes an odd operator with (-1)^{|m|}, the sign
    (-1)^{|c|} of a front coefficient c extended linearly, and an even one
    unsigned.  This is the one place where front coefficients and images
    multiply and where the cap filters: each pair of monomials is
    multiplied and tested against ``cap`` once per call, and the verdict
    names the output dict of the product monomial, so an image term costs
    one dict update."""
    ctx = A.module.ctx
    mul = ctx.mono_mul
    parity = ctx.mono_parity
    images: dict = {}
    acc: dict = {}
    for m1, terms in iword.items():
        # m2 -> (output dict of m1 * m2, sign exponent), or False where the
        # product vanishes or the cap drops it
        row: dict = {}
        flip = odd and parity(m1)
        for tup, n1 in terms.items():
            if not n1:
                continue
            image = images.get(tup)
            if image is None:
                image = images[tup] = image_of(
                    A, tup, store=cap is None or len(tup) <= cap.weight)
            pos, neg = (-n1, n1) if flip else (n1, -n1)
            it = iter(image)
            for otup, m2, n2 in zip(it, it, it):
                hit = row.get(m2)
                if hit is None:
                    hit = mul(m1, m2)
                    if hit is not None and (cap is None
                                            or cap.admits(ctx, hit[0])):
                        hit = acc.setdefault(hit[0], {}), hit[1]
                    else:
                        hit = False
                    row[m2] = hit
                if hit:
                    out, sign = hit
                    out[otup] = out.get(otup, 0) + (neg if sign else pos) * n2
    return acc


def int_word_to_word(module: GradedModule, acc: dict, den: int) -> Word:
    """A monomial-major integer word ``{monomial: {tuple: numerator}}`` over
    ``den`` as a Word: one reduced Fraction per nonzero term."""
    out: dict = {}
    for m, b in acc.items():
        for t, n in b.items():
            if n:
                out.setdefault(t, {})[m] = Fraction(n, den)
    ctx = module.ctx
    return Word._raw(module, {t: Scalar._raw(ctx, c) for t, c in out.items()})


def integer_word(terms: dict) -> tuple[dict, int]:
    """The terms ``{tuple: Scalar}`` of a word as an integer word
    ``(iword, den)``: the coefficients scaled to integers over their one
    common denominator ``den`` and regrouped monomial-major,
    ``{monomial: {tuple: numerator}}``."""
    den = 1
    for c in terms.values():
        for q in c.terms.values():
            d = q.denominator
            if den % d:
                den = math.lcm(den, d)
    iword: dict = {}
    for tup, c in terms.items():
        for m, q in c.terms.items():
            iword.setdefault(m, {})[tup] = q.numerator * (den // q.denominator)
    return iword, den


def combine_basis_images(A: AInfty, w: Word, image_of,
                         cap: Cap | None) -> Word:
    """Apply an odd operator given by per-tuple integer images to a word.

    The Word -> integer -> Word wrapper of ``apply_images``: the word
    becomes an ``integer_word``, the kernel runs on integers, and each
    surviving output term becomes one reduced ``Fraction``."""
    iword, den = integer_word(w.terms)
    return int_word_to_word(A.module, apply_images(A, iword, image_of, cap),
                            den * A.den)


def hat_extension(A: AInfty, w: Word, cap: Cap | None = None) -> Word:
    """Extend the operations to an odd coderivation of the tensor coalgebra,
    with (-1)^{|c|} for passing the operator over a front coefficient of
    degree |c|."""
    return combine_basis_images(A, w, hat_basis, cap)


def squares_to_zero(A: AInfty, tuples, image_of, cap: Cap,
                    key: str) -> ResidualReport:
    """The odd operator with per-tuple images ``image_of`` applied twice to
    each basis tuple of ``tuples`` and tested for zero on integers: the
    kernel starts from the monomial-major word ``{1: {tup: 1}}`` and runs
    twice on integer words.  Only a failure builds its Word residual,
    reported under ``key``.  With
    ``tuples`` within the weight cap, every image of the first application
    is cached; in the second, those of the outputs of weight cap + 1, which
    curvature insertions make, are built and dropped (``apply_images``)."""
    report = ResidualReport()
    one = (A.module.ctx.zero_beta, A.module.ctx.zero_exps)
    for tup in tuples:
        res = apply_images(A, apply_images(A, {one: {tup: 1}}, image_of, cap),
                           image_of, cap)
        report.checked += 1
        if any(any(b.values()) for b in res.values()):
            word = int_word_to_word(A.module, res, A.den * A.den)
            report.failures.append({key: tup, "residual": repr(word)})
    return report


def ainfty_residual(A: AInfty, cap: Cap) -> ResidualReport:
    """mu-hat o mu-hat on every basis word up to the weight cap."""
    words = (tup for w in range(cap.weight + 1)
             for tup in itertools.product(A.module.basis, repeat=w))
    return squares_to_zero(A, words, hat_basis, cap, "word")


def unit_check(A: AInfty) -> ResidualReport:
    """Strict-unit axioms: the unit has degree 0 (shifted degree -1), the two
    binary unit laws hold for every generator, and every operation of arity
    other than 2 vanishes on tuples containing the unit (scanned over all
    tuples in arities where structure constants exist)."""
    if A.unit is None:
        raise ValueError("no unit designated")
    report = ResidualReport()
    mod = A.module
    e = A.unit

    report.checked += 1
    if mod.degree(e) != 0:
        report.failures.append({"axiom": "unit-degree", "got": mod.degree(e)})

    one = Scalar.one(mod.ctx)
    for x in mod.basis:
        report.checked += 2
        left = A.mu((e, x))
        if left != Element(mod, {x: one}):
            report.failures.append({"axiom": "mu2(e,x)=x", "x": x,
                                    "got": repr(left)})
        right = A.mu((x, e))
        want = Element(mod, {x: one if mod.degree(x) % 2 == 0 else -one})
        if right != want:
            report.failures.append({"axiom": "mu2(x,e)=(-1)^{|x|}x", "x": x,
                                    "got": repr(right)})

    for k in sorted(A.arities):
        if k == 2 or k == 0:
            continue
        for tup in itertools.product(mod.basis, repeat=k):
            if e not in tup:
                continue
            report.checked += 1
            if not A.mu(tup).is_zero():
                report.failures.append({"axiom": f"mu_{k} vanishes on unit",
                                        "tuple": tup})
    return report


# ---------------------------------------------------------------------------
# operation families
# ---------------------------------------------------------------------------


class OCFamily:
    """Sparse family of operations with k boundary and l interior inputs,
    valued in a target chain complex: the q_{k,l} (target the boundary
    module, n = 0), the open-closed p_{k,l}, and the closed-sector
    q_{empty,l}.

    ``ops`` maps pairs (boundary tuple, interior tuple) of basis tuples to
    target Elements; k and l are the two tuples' lengths.  They are
    compiled once (``compile_table``) and not kept: ``images`` maps each
    key of a nonzero value to its flat (output, monomial, numerator)
    triples over ``den``, the form of an algebra's ``table``, and
    ``from_images`` takes such images as they are.  ``ops``, a read-only
    view, and ``p`` decode them.  Boundary and target share one
    coefficient context, as the kernel multiplies the monomials of both.
    ``n`` is the ambient-dimension parameter entering all signs.  A front
    scalar coefficient c passes the operator as twist^{n+1+|interior|}(c),
    the sign (-1)^{|c| (n+1+|interior|)} extended linearly, so that together
    with the tensor-slot Koszul moves the boundary-linearity sign comes out
    as (-1)^{|a| (n+1 + ||alpha_(<i)|| + |gamma|)}: on an interior tuple the
    family is a kernel operator of parity n + 1 + its degree."""

    def __init__(self, module: GradedModule, target: ChainComplex, n: int,
                 ops):
        if module.ctx != target.module.ctx:
            raise ValueError("boundary and target contexts differ")
        self.module, self.target, self.n = module, target, n
        self.images, self.den = compile_table(
            {(tuple(b), tuple(i)): el for (b, i), el in ops.items()})

    @classmethod
    def from_images(cls, module: GradedModule, target: ChainComplex, n: int,
                    images: dict, den: int) -> "OCFamily":
        fam = cls(module, target, n, {})
        fam.images, fam.den = images, den
        return fam

    @property
    def ops(self):
        return MappingProxyType({key: self.p(*key) for key in self.images})

    def p(self, btup, itup=()) -> Element:
        it = iter(self.images.get((tuple(btup), tuple(itup)), ()))
        acc: dict = {}
        for t, m, n in zip(it, it, it):
            acc.setdefault(m, {})[t] = n
        return self.element(acc, self.den)

    def element(self, acc: dict, den: int) -> Element:
        """A kernel output of the family over ``den`` as a target Element."""
        tmod = self.target.module
        word = int_word_to_word(tmod, acc, den)
        return Element._raw(tmod, {t[0]: c for t, c in word.terms.items()})

    # -- evaluation ----------------------------------------------------------

    def apply(self, iword: dict, itup: tuple, odd: bool,
              cap: Cap | None) -> dict:
        """The kernel on an integer boundary word with the images at
        (boundary tuple, interior tuple ``itup``), ``odd`` the parity
        n + 1 + |itup|."""
        def image_of(F, tup, store):
            return F.images.get((tup, itup), ())
        return apply_images(self, iword, image_of, cap, odd)

    def eval_word(self, w: Word, interior=(), cap: Cap | None = None) -> Element:
        """The family on a boundary word and a list of interior Elements: the
        one place where a coefficient passes the family.  The interior inputs
        expand once, by ``word_from_factors`` (unshifted) in their own module
        (``eval_expanded``); with bc the boundary and ic the expansion
        coefficient of interior tuple itup, the value is multiplied by
        ic . twist^{n+1+|itup|}(bc).  The kernel caps each product, so the
        sum is capped, as energies only add."""
        if interior:
            imod = interior[0].module
            return self.eval_expanded(w, word_from_factors(
                imod, interior, shifted=False, cap=cap).terms, imod, cap)
        iword, den = integer_word(w.terms)
        return self.element(self.apply(iword, (), (self.n + 1) % 2, cap),
                            den * self.den)

    def eval_expanded(self, w: Word, interior: dict, imod: GradedModule,
                      cap: Cap | None) -> Element:
        """The family on a boundary word and an expanded interior word
        ``{tuple over imod: coefficient}``: one ``apply`` per interior tuple
        gives that tuple's image, and one even kernel call multiplies the
        interior coefficients in front."""
        iword, den = integer_word(w.terms)

        def image_of(F, itup, store):
            acc = F.apply(iword, itup,
                          (F.n + 1 + sum(map(imod.degree, itup))) % 2, cap)
            return tuple(x for m, row in acc.items() for t, c in row.items()
                         if c for x in (t, m, c))
        gword, gden = integer_word(interior)
        return self.element(apply_images(self, gword, image_of, cap, False),
                            den * self.den * gden)

    def eval_tuple(self, btup, interior=(), cap: Cap | None = None) -> Element:
        """The family on a basis boundary tuple."""
        if not interior:
            return self.p(btup).truncate(cap)
        return self.eval_word(Word.basis_word(self.module, btup), interior, cap)

    # -- cyclic symmetry -----------------------------------------------------

    def is_cyclic(self) -> bool:
        """Whether p(rot_j alpha; gamma) = (-1)^{s_sigma^[1]} p(alpha; gamma)
        for every rotation; exactly when averaging leaves the values (not
        the numerators, whose denominator it changes) as they are."""
        return self.symmetrized().ops == self.ops

    def symmetrized(self) -> "OCFamily":
        """Group average over rotations of the boundary tuple, with the cyclic
        signs; exact, and the result is cyclic.

        Each orbit is walked once: its signed numerators are summed, and the
        sum or its negation stored at every key.  The orbit lengths fold into
        the denominator, ``den`` times their least common multiple L, so an
        orbit of length r contributes its sum times L / r, with no
        division."""
        degs = dict(zip(self.module.basis, self.module.degrees))
        images = self.images
        fold = math.lcm(*(max(len(b), 1) for b, _ in images))
        out: dict = {}
        for btup, itup in images:
            if (btup, itup) in out:
                continue
            orbit = rotations(btup, [degs[g] for g in btup])
            sums: dict = {}
            for rot, s1 in orbit:
                it = iter(images.get((rot, itup), ()))
                for o, m, n in zip(it, it, it):
                    add_term(sums, o, m, -n if s1 else n)
            f = fold // len(orbit)
            terms = [(o, m, n * f) for o, row in sums.items()
                     for m, n in row.items() if n]
            if terms:
                avg = tuple(x for t in terms for x in t)
                neg = tuple(x for o, m, n in terms for x in (o, m, -n))
                for rot, s1 in orbit:
                    out[(rot, itup)] = neg if s1 else avg
        return OCFamily.from_images(self.module, self.target, self.n, out,
                                    self.den * fold)


def _insertion_patterns(k: int, s: int):
    """Weak compositions of s over the k+1 gaps around k boundary slots."""
    for cuts in itertools.combinations(range(s + k), k):
        counts = []
        prev = -1
        for c in cuts:
            counts.append(c - prev - 1)
            prev = c
        counts.append(s + k - 1 - prev)
        yield tuple(counts)


class DeformedQ:
    """The deformed family q^{b,gamma}: b (odd boundary element of positive
    valuation) inserted into all gaps between boundary inputs, interior slots
    padded with copies of gamma weighted by 1/(t-l)!.

    b (|b| = 1) and gamma (degree 2) add no slot signs.  Each inserted word
    goes through ``OCFamily.eval_word``, so its front coefficients pass q
    with their signs: for q = ``A.qfamily``, q^b_0 is the
    weight-one part of mu-hat(sum_s b^{(x) s}).
    """

    def __init__(self, Q: OCFamily, b: Element, gamma: Element, cap: Cap):
        for name, el, deg in (("b", b, 1), ("gamma", gamma, 2)):
            if el and el.degree() != deg:
                raise ValueError(f"{name} must have degree {deg}")
            if el and el.valuation() <= 0:
                raise ValueError(f"{name} must have positive valuation")
        self.Q = Q
        self.b = b
        self.gamma = gamma
        self.cap = cap

    def _max_insert(self, el: Element) -> int:
        """The most copies of ``el`` whose product the energy cap admits."""
        val = el.valuation()
        return 0 if val == INFINITY else math.floor(self.cap.energy / val)

    def apply(self, btup, itups=()) -> Element:
        """Evaluate q^{b,gamma}_{k,l} on basis boundary inputs and Element
        interior inputs."""
        btup = tuple(btup)
        k = len(btup)
        cap = self.cap
        out = Element.zero(self.Q.target.module)
        s_max = self._max_insert(self.b)
        t_extra_max = self._max_insert(self.gamma)
        for s in range(0, s_max + 1):
            for pattern in _insertion_patterns(k, s):
                factors = [self.b] * pattern[0]
                for g, m in zip(btup, pattern[1:]):
                    factors += [g] + [self.b] * m
                bword = word_from_factors(self.Q.module, factors,
                                          shifted=True, cap=cap)
                for extra in range(0, t_extra_max + 1):
                    interior = list(itups) + [self.gamma] * extra
                    part = self.Q.eval_word(bword, interior, cap)
                    out = out + part.scale(Fraction(1, math.factorial(extra)))
        return out


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------


def _mu2_from_products(module: GradedModule, products) -> dict:
    """Binary operation mu_2(x, y) = (-1)^{|x|} x . y from an associative
    product table mapping generator pairs to Elements."""
    return {(x, y): -el if module.degree(x) % 2 else el
            for (x, y), el in products.items()}


def _ground_field() -> AInfty:
    mod = GradedModule("ground_field", ("e",), (0,), TRIVIAL_CONTEXT)
    e = Element.generator(mod, "e")
    return AInfty(mod, _mu2_from_products(mod, {("e", "e"): e}), unit="e")


def _dual_numbers() -> AInfty:
    mod = GradedModule("dual_numbers", ("e", "eps"), (0, 1), TRIVIAL_CONTEXT)
    e = Element.generator(mod, "e")
    eps = Element.generator(mod, "eps")
    prod = {
        ("e", "e"): e, ("e", "eps"): eps, ("eps", "e"): eps,
        ("eps", "eps"): Element.zero(mod),
    }
    return AInfty(mod, _mu2_from_products(mod, prod), unit="e")


def _exterior(r: int) -> AInfty:
    """Exterior algebra on r degree-1 generators; basis indexed by subsets."""
    names = {}
    degs = []
    basis = []
    for size in range(r + 1):
        for subset in itertools.combinations(range(r), size):
            nm = "e" if not subset else "a" + "".join(str(i + 1) for i in subset)
            names[subset] = nm
            basis.append(nm)
            degs.append(size)
    mod = GradedModule(f"exterior_{r}", tuple(basis), tuple(degs),
                       TRIVIAL_CONTEXT)
    prod = {}
    for s1, n1 in names.items():
        for s2, n2 in names.items():
            if set(s1) & set(s2):
                prod[(n1, n2)] = Element.zero(mod)
                continue
            merged = tuple(sorted(s1 + s2))
            # sign of sorting the concatenation of two increasing runs of
            # odd generators
            inv = sum(1 for a in s1 for b in s2 if a > b)
            prod[(n1, n2)] = Element.generator(mod, names[merged],
                                               -1 if inv % 2 else 1)
    return AInfty(mod, _mu2_from_products(mod, prod), unit="e")


def _curved_matrix() -> AInfty:
    """Curved differential graded algebra of 2x2 matrices: I, K diagonal in
    degree 0, F (degree 1) and G (degree -1) off-diagonal, differential the
    commutator with x = F + T G, curvature x^2 = T I."""
    ctx = Context(PiGroup(1, (Fraction(1),), (2,)), FormalVarSpec(()))
    mod = GradedModule("curved_matrix", ("I", "K", "F", "G"), (0, 0, 1, -1),
                       ctx)
    one = Scalar.one(ctx)
    T = Scalar.monomial(ctx, 1, (1,), ())
    half = Scalar.rational(ctx, Fraction(1, 2))

    def el(pairs):
        return Element(mod, dict(pairs))

    zero = Element.zero(mod)
    prod = {
        ("I", "I"): el([("I", one)]), ("I", "K"): el([("K", one)]),
        ("I", "F"): el([("F", one)]), ("I", "G"): el([("G", one)]),
        ("K", "I"): el([("K", one)]), ("F", "I"): el([("F", one)]),
        ("G", "I"): el([("G", one)]),
        ("K", "K"): el([("I", one)]),
        ("K", "F"): el([("F", one)]), ("F", "K"): el([("F", -one)]),
        ("K", "G"): el([("G", -one)]), ("G", "K"): el([("G", one)]),
        ("F", "G"): el([("I", half), ("K", half)]),
        ("G", "F"): el([("I", half), ("K", -half)]),
        ("F", "F"): zero, ("G", "G"): zero,
    }
    mu1 = {
        ("K",): el([("F", -one - one), ("G", T + T)]),
        ("F",): el([("I", T)]),
        ("G",): el([("I", one)]),
    }
    ops = {(): el([("I", T)]), **mu1, **_mu2_from_products(mod, prod)}
    return AInfty(mod, ops, unit="I")


_EXTERIOR_RE = re.compile(r"exterior\((\d+)\)")

BUILTIN_NAMES = ("ground_field", "dual_numbers", "exterior(2)",
                 "curved_matrix")


def builtin_algebras(name: str) -> AInfty:
    if name == "ground_field":
        return _ground_field()
    if name == "dual_numbers":
        return _dual_numbers()
    if name == "curved_matrix":
        return _curved_matrix()
    m = _EXTERIOR_RE.fullmatch(name)
    if m:
        return _exterior(int(m.group(1)))
    raise ValueError(f"unknown builtin algebra {name!r}")
