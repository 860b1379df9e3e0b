"""Curved A-infinity structures as sparse multilinear families.

Provides the coderivation (hat) extension of the operations to the tensor
coalgebra, the structure-relation residual mu-hat o mu-hat, strict-unit
validation, and a small library of built-in algebras.  Operator images on
basis tuples are exact integers over the algebra's one denominator, and
``apply_images`` is the one integer kernel that applies them, for mu-hat
here and for the Hochschild differential of ``complexes``.  ``OCFamily`` is
the one table class and evaluator for every operation family with boundary
and interior inputs: the q_{k,l} (``AInfty.qfamily`` and the deformation sums
of ``DeformedQ``), the open-closed p_{k,l} and the closed-sector q_{empty,l}
of ``openclosed``.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .scalars import (
    INFINITY,
    Cap,
    Context,
    FormalVarSpec,
    PiGroup,
    Scalar,
    TRIVIAL_CONTEXT,
    accumulate,
    scalar_mul,
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

    The operations are compiled once, at construction, into exact integers:
    ``den`` is the least common multiple of the denominators of every
    coefficient, and ``table`` maps each key of ``ops`` to a list of
    ``(output generator, coefficient parity, ((monomial, numerator), ...))``
    with the coefficient equal to numerator / ``den``.  The operator images
    (``hat_basis``, ``complexes.diff_basis``) are built from ``table`` and
    cached as integers over ``den``; since both derive from ``ops``, it is
    never mutated after construction.  ``qfamily`` is the family q with
    q_{k,0} = mu_k and no interior operations, also built once.
    """

    def __init__(self, module: GradedModule, ops, unit: str | None = None):
        self.module = module
        self.ops: dict[tuple, Element] = {tuple(t): el for t, el in ops.items()
                                          if el}
        self.arities = frozenset(map(len, self.ops))
        self.unit = unit
        self.validate()
        self.den = den = math.lcm(*(q.denominator for el in self.ops.values()
                                    for s in el.terms.values()
                                    for q in s.terms.values()))
        self.table: dict[tuple, list] = {
            tup: [(g, s.degree_parity(),
                   tuple((m, q.numerator * (den // q.denominator))
                         for m, q in s.terms.items()))
                  for g, s in el.items()]
            for tup, el in self.ops.items()}
        self.qfamily = OCFamily(module, ChainComplex(module, {}), 0,
                                {(t, ()): el for t, el in self.ops.items()})
        # per-instance caches of the integer images of the coderivation and
        # the Hochschild differential on basis tuples (uncapped; truncation
        # happens in the kernel)
        self._hat_cache: dict[tuple, list] = {}
        self._diff_cache: dict[tuple, list] = {}

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


def add_image(acc: dict, otup, nums, sign) -> None:
    """Add (-1)^sign times the integer coefficient ``nums``, pairs
    (monomial, numerator), into the monomial bucket of the output tuple
    otup.  Buckets may keep zeros; ``int_images`` drops them."""
    bucket = acc.get(otup)
    if bucket is None:
        acc[otup] = {m: -n for m, n in nums} if sign else dict(nums)
    elif sign:
        for m, n in nums:
            bucket[m] = bucket.get(m, 0) - n
    else:
        for m, n in nums:
            bucket[m] = bucket.get(m, 0) + n


def insertion_sum(A: AInfty, tup, start: int, acc: dict) -> list:
    """Add the insertions of the operations into one basis tuple to ``acc``.

    Sums, over all splittings tup = l1 o l2 o l3 with l1 at least ``start``
    long, (-1)^{||l1||} l1 (x) mu(l2) (x) l3, with the coefficient of
    mu(l2) commuted to the front past l1.  Together the two signs are
    sp[i] * (1 + |c|), where i = len(l1) and c is the coefficient.  ``acc``
    maps output tuples to monomial buckets of numerators over ``A.den``
    (see ``add_image``), read from ``A.table``.  Returns the prefix
    parities sp, sp[i] = ||tup[:i]|| mod 2.

    With ``start`` 0 this is the coderivation mu-hat (b' in Loday's
    notation); with ``start`` 1 it is the part of the Hochschild
    differential b that keeps the first slot in front."""
    mod = A.module
    table, arities = A.table, sorted(A.arities)
    sp = [0]
    for g in tup:
        sp.append((sp[-1] + mod.degree(g) + 1) % 2)
    k = len(tup)
    for i in range(start, k + 1):
        head, flip = tup[:i], sp[i]
        for arity in arities:
            j = i + arity
            if j > k:
                break
            img = table.get(tup[i:j])
            if img is None:
                continue
            tail = tup[j:]
            for g, par, nums in img:
                add_image(acc, head + (g,) + tail, nums, flip and not par)
    return sp


def int_images(acc: dict) -> list:
    """The nonzero terms of ``acc`` as (output tuple, ((monomial,
    numerator), ...)) pairs: the cached form of an operator image."""
    out = []
    for t, b in acc.items():
        if 0 in b.values():
            b = {m: n for m, n in b.items() if n}
        if b:
            out.append((t, tuple(b.items())))
    return out


def hat_basis(A: AInfty, tup) -> list:
    """The coderivation on one basis tuple: ``insertion_sum`` over all
    3-splittings, as (output tuple, ((monomial, numerator), ...)) pairs
    with integer numerators over ``A.den``.  Cached on the algebra."""
    cached = A._hat_cache.get(tup)
    if cached is None:
        acc: dict[tuple, dict] = {}
        insertion_sum(A, tup, 0, acc)
        cached = A._hat_cache[tup] = int_images(acc)
    return cached


def apply_images(A: AInfty, iword: dict, image_of, cap: Cap | None) -> dict:
    """The operator kernel: the odd operator with per-tuple integer images
    ``image_of(A, tup)`` (over ``A.den``) applied to an integer word
    ``{tup: {monomial: numerator}}``, as an integer word over the input's
    denominator times ``A.den``.  Output buckets may hold zeros.

    A front monomial m passes the operator with (-1)^{|m|}, the sign
    (-1)^{|c|} of a front coefficient c extended linearly.  This is the one
    place where front coefficients and images multiply and where the cap
    filters; each pair of monomials is multiplied and tested against
    ``cap`` once per call."""
    ctx = A.module.ctx
    mul = ctx.mono_mul
    parity = ctx.mono_parity
    # per front monomial m1: {m2: (product monomial, sign exponent)}, or
    # False where the product vanishes or the cap drops it
    rows: dict = {}
    acc: dict[tuple, dict] = {}
    for tup, terms in iword.items():
        cterms = []
        for m1, n1 in terms.items():
            if n1:
                row = rows.get(m1)
                if row is None:
                    row = rows[m1] = {}
                cterms.append((m1, row, -n1 if parity(m1) else n1))
        if not cterms:
            continue
        for otup, nums in image_of(A, tup):
            bucket = acc.get(otup)
            if bucket is None:
                bucket = acc[otup] = {}
            for m2, n2 in nums:
                for m1, row, n1 in cterms:
                    hit = row.get(m2)
                    if hit is None:
                        hit = mul(m1, m2)
                        if hit is None or not (cap is None
                                               or cap.admits(ctx, hit[0])):
                            hit = False
                        row[m2] = hit
                    if not hit:
                        continue
                    mono, sign = hit
                    v = -n1 * n2 if sign else n1 * n2
                    bucket[mono] = bucket.get(mono, 0) + v
    return acc


def int_word_to_word(module: GradedModule, acc: dict, den: int) -> Word:
    """An integer word over ``den`` as a Word: one reduced Fraction per
    nonzero output term."""
    ctx = module.ctx
    out = {}
    for t, b in acc.items():
        b = {m: Fraction(n, den) for m, n in b.items() if n}
        if b:
            out[t] = Scalar._raw(ctx, b)
    return Word._raw(module, out)


def combine_basis_images(A: AInfty, w: Word, image_of,
                         cap: Cap | None) -> Word:
    """Apply an odd operator given by per-tuple integer images to a word.

    The Word -> integer -> Word wrapper of ``apply_images``: the word's
    coefficients are scaled to integers over one common denominator, the
    kernel runs on integers, and each surviving output term becomes one
    reduced ``Fraction``."""
    den = 1
    for c in w.terms.values():
        for q in c.terms.values():
            d = q.denominator
            if den % d:
                den = math.lcm(den, d)
    iword = {tup: {m: q.numerator * (den // q.denominator)
                   for m, q in c.terms.items()}
             for tup, c in w.terms.items()}
    return int_word_to_word(A.module, apply_images(A, iword, image_of, cap),
                            den * A.den)


def hat_extension(A: AInfty, w: Word, cap: Cap | None = None) -> Word:
    """Extend the operations to an odd coderivation of the tensor coalgebra,
    with (-1)^{|c|} for passing the operator over a front coefficient of
    degree |c|."""
    return combine_basis_images(A, w, hat_basis, cap)


def ainfty_residual(A: AInfty, cap: Cap) -> ResidualReport:
    """mu-hat o mu-hat on every basis word up to the weight cap, composed
    and tested for zero on integers; the Word residual is built only for a
    failing word."""
    report = ResidualReport()
    ctx = A.module.ctx
    one = {(ctx.zero_beta, ctx.zero_exps): 1}
    for w in range(0, cap.weight + 1):
        for tup in itertools.product(A.module.basis, repeat=w):
            once = apply_images(A, {tup: one}, hat_basis, cap)
            res = apply_images(A, once, hat_basis, cap)
            report.checked += 1
            for b in res.values():
                if any(b.values()):
                    word = int_word_to_word(A.module, res, A.den * A.den)
                    report.failures.append({"word": tup,
                                            "residual": repr(word)})
                    break
    return report


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
    nonzero target Elements; k and l are the two tuples' lengths.  ``n`` is
    the ambient-dimension parameter entering all signs.  A front scalar
    coefficient c passes the operator as twist^{n+1+|interior|}(c), the
    sign (-1)^{|c| (n+1+|interior|)} extended linearly, so that together with
    the tensor-slot Koszul moves the boundary-linearity sign comes out as
    (-1)^{|a| (n+1 + ||alpha_(<i)|| + |gamma|)}."""

    def __init__(self, module: GradedModule, target: ChainComplex, n: int,
                 ops):
        self.module = module
        self.target = target
        self.n = n
        self.ops: dict[tuple, Element] = {
            (tuple(b), tuple(i)): el for (b, i), el in ops.items() if el}

    def p(self, btup, itup=()) -> Element:
        return (self.ops.get((tuple(btup), tuple(itup)))
                or Element.zero(self.target.module))

    # -- evaluation ----------------------------------------------------------

    def eval_word(self, w: Word, interior=(), cap: Cap | None = None) -> Element:
        """The family on a boundary word and a list of interior Elements: the
        one place where a coefficient passes the family.  The interior inputs
        expand by ``word_from_factors`` (unshifted) in their own module.  With
        bc the boundary and ic the expansion coefficient of interior tuple
        itup, the table value is multiplied by ic . twist^{n+1+|itup|}(bc)."""
        out = Element.zero(self.target.module)
        # (interior tuple, parity of n + 1 + its degree, coefficient); with
        # no interior inputs one term without a coefficient, so the boundary
        # coefficient is used as it is rather than multiplied by one
        iterms = [((), (self.n + 1) % 2, None)]
        if interior:
            imod = interior[0].module
            iword = word_from_factors(imod, interior, shifted=False, cap=cap)
            iterms = [(t, (self.n + 1 + sum(map(imod.degree, t))) % 2, c)
                      for t, c in iword.items()]
        for btup, bc in w.items():
            for itup, odd, ic in iterms:
                el = self.ops.get((btup, itup))
                if el is None:
                    continue
                coeff = bc.twist() if odd else bc
                if ic is not None:
                    coeff = scalar_mul(ic, coeff, cap)
                # each product is capped, so their sum is
                out = out + el.scalar_left(coeff, cap)
        return out

    def eval_tuple(self, btup, interior=(), cap: Cap | None = None) -> Element:
        """The family on a basis boundary tuple; without interior inputs a
        table lookup."""
        if not interior:
            return self.p(btup).truncate(cap)
        return self.eval_word(Word.basis_word(self.module, btup), interior, cap)

    # -- cyclic symmetry -----------------------------------------------------

    def is_cyclic(self) -> bool:
        """Whether p(rot_j alpha; gamma) = (-1)^{s_sigma^[1]} p(alpha; gamma)
        for every rotation; exactly when averaging leaves the table as it is."""
        return self.symmetrized().ops == self.ops

    def symmetrized(self) -> "OCFamily":
        """Group average over rotations of the boundary tuple, with the cyclic
        signs; exact over the rationals, and the result is cyclic.

        Each orbit is walked once: its signed values are summed on one
        ``{generator: {monomial: Fraction}}`` table, divided by the orbit
        length once, and the average or its negation stored at every key."""
        degs = dict(zip(self.module.basis, self.module.degrees))
        tmod = self.target.module
        new_ops = {}
        for btup, itup in self.ops:
            if (btup, itup) in new_ops:
                continue
            orbit = rotations(btup, [degs[g] for g in btup])
            table: dict = {}
            for rot, s1 in orbit:
                val = self.ops.get((rot, itup))
                for g, s in (val.terms.items() if val is not None else ()):
                    accumulate(table.setdefault(g, {}), (
                        (m, -c if s1 else c) for m, c in s.terms.items()))
            avg = Element._raw(tmod, {g: Scalar._raw(tmod.ctx, {
                m: c / len(orbit) for m, c in t.items()})
                for g, t in table.items() if t})
            neg = -avg if any(s1 for _, s1 in orbit) else None
            for rot, s1 in orbit:
                new_ops[(rot, itup)] = neg if s1 else avg
        return OCFamily(self.module, self.target, self.n, new_ops)


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
