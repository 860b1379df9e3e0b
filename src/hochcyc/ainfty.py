"""Curved A-infinity structures as sparse multilinear families.

Provides the coderivation (hat) extension of the operations to the tensor
coalgebra, the structure-relation residual mu-hat o mu-hat, strict-unit
validation, and a small library of built-in algebras.  ``OCFamily`` is the
one table class and evaluator for every operation family with boundary and
interior inputs: the q_{k,l} (``ainfty_to_qfamily`` and the deformation sums
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
    interior_word,
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
    """

    def __init__(self, module: GradedModule, ops, unit: str | None = None):
        self.module = module
        self.ops: dict[tuple, Element] = {tuple(t): el for t, el in ops.items()
                                          if el}
        self.arities = frozenset(map(len, self.ops))
        self.unit = unit
        # per-instance caches of the coderivation and Hochschild differential
        # on basis tuples (uncapped; truncation happens on combination)
        self._hat_cache: dict[tuple, list] = {}
        self._diff_cache: dict[tuple, list] = {}
        self.validate()

    # -- structure lookup ----------------------------------------------------

    def mu(self, tup) -> Element:
        """mu_k on a basis tuple (k = len(tup))."""
        return self.ops.get(tuple(tup)) or Element.zero(self.module)

    def mu0(self) -> Element:
        """The curvature mu_0(1)."""
        return self.mu(())

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Degree law (+1 on shifted degrees) and valuation guards."""
        mod = self.module
        for tup, el in self.ops.items():
            k = len(tup)
            want = sum(mod.degree(g) for g in tup) + 2 - k
            if any(mod.degree(g) + s.degree() != want for g, s in el.items()):
                raise ValueError(
                    f"mu_{k}{tup!r} is not homogeneous of degree {want}")
            if el.valuation() < 0:
                raise ValueError(f"mu_{k}{tup!r} has negative valuation")
        if self.mu0().valuation() <= 0:
            raise ValueError("curvature must have positive valuation")
        if self.unit is not None and self.unit not in mod.basis:
            raise ValueError(f"unit {self.unit!r} is not a generator")


# ---------------------------------------------------------------------------
# the hat extension and the structure residual
# ---------------------------------------------------------------------------


def add_image(acc: dict, otup, s: Scalar, sign: int) -> None:
    """Add (-1)^sign s into the monomial bucket of the output tuple otup."""
    terms = s.terms.items()
    if sign:
        terms = [(m, -c) for m, c in terms]
    accumulate(acc.setdefault(otup, {}), terms)


def insertion_sum(A: AInfty, tup, start: int, acc: dict) -> list:
    """Add the insertions of the operations into one basis tuple to ``acc``.

    Sums, over all splittings tup = l1 o l2 o l3 with l1 at least ``start``
    long, (-1)^{||l1||} l1 (x) mu(l2) (x) l3, with the coefficient of
    mu(l2) commuted to the front past l1.  Together the two signs are
    sp[i] * (1 + |c|), where i = len(l1) and c is the coefficient.  ``acc``
    maps output tuples to monomial buckets (see ``add_image``).  Returns the
    prefix parities sp, sp[i] = ||tup[:i]|| mod 2.

    With ``start`` 0 this is the coderivation mu-hat (b' in Loday's
    notation); with ``start`` 1 it is the part of the Hochschild
    differential b that keeps the first slot in front."""
    mod = A.module
    ops, arities = A.ops, A.arities
    sp = [0]
    for g in tup:
        sp.append((sp[-1] + mod.degree(g) + 1) % 2)
    k = len(tup)
    for i in range(start, k + 1):
        for j in range(i, k + 1):
            if j - i not in arities:
                continue
            img = ops.get(tup[i:j])
            if img is None:
                continue
            head, tail = tup[:i], tup[j:]
            for g, s in img.items():
                add_image(acc, head + (g,) + tail, s,
                          (sp[i] * (1 + s.degree_parity())) % 2)
    return sp


def bucket_images(ctx: Context, acc: dict) -> list:
    """The nonzero buckets of ``acc`` as (output tuple, Scalar) pairs."""
    return [(t, Scalar._raw(ctx, b)) for t, b in acc.items() if b]


def hat_basis(A: AInfty, tup) -> list:
    """The coderivation on one basis tuple, as (output tuple, scalar) pairs:
    ``insertion_sum`` over all 3-splittings.  Cached on the algebra."""
    cached = A._hat_cache.get(tup)
    if cached is None:
        acc: dict[tuple, dict] = {}
        insertion_sum(A, tup, 0, acc)
        cached = A._hat_cache[tup] = bucket_images(A.module.ctx, acc)
    return cached


def combine_basis_images(module, w: Word, image_of, cap: Cap | None) -> Word:
    """Apply an odd operator given by per-tuple images to a word: multiply
    front coefficients, pass the operator with (-1)^{|c|}, cap-filter.

    Exact and fraction-free: the word's coefficients are scaled to integers
    over one common denominator and the images' coefficients over another, so
    products and sums are plain integer arithmetic.  Each surviving output
    term becomes one reduced ``Fraction`` at the end.  Whether ``cap``
    admits a product monomial is decided once per distinct monomial."""
    ctx = module.ctx
    mul = ctx.mono_mul
    gathered = []
    den_in = den_img = 1
    for tup, c in w.items():
        # (-1)^{|c|} for passing the operator is folded into the numerators
        sgn = -1 if c.degree_parity() else 1
        images = image_of(tup)
        if not images:
            continue
        for q in c.terms.values():
            d = q.denominator
            if den_in % d:
                den_in = math.lcm(den_in, d)
        for _, s in images:
            for q in s.terms.values():
                d = q.denominator
                if den_img % d:
                    den_img = math.lcm(den_img, d)
        gathered.append((c, sgn, images))
    admitted: dict = {}
    acc: dict[tuple, dict] = {}
    for c, sgn, images in gathered:
        cterms = [(m1, sgn * q.numerator * (den_in // q.denominator))
                  for m1, q in c.terms.items()]
        for otup, s in images:
            bucket = acc.get(otup)
            if bucket is None:
                bucket = acc[otup] = {}
            for m2, q2 in s.terms.items():
                n2 = q2.numerator * (den_img // q2.denominator)
                for m1, n1 in cterms:
                    hit = mul(m1, m2)
                    if hit is None:
                        continue
                    mono, sign = hit
                    keep = admitted.get(mono)
                    if keep is None:
                        keep = admitted[mono] = (cap is None
                                                 or cap.admits(ctx, mono))
                    if not keep:
                        continue
                    v = n1 * n2
                    if sign:
                        v = -v
                    old = bucket.get(mono)
                    bucket[mono] = v if old is None else old + v
    den = den_in * den_img
    out = {}
    for t, b in acc.items():
        b = {m: Fraction(n, den) for m, n in b.items() if n}
        if b:
            out[t] = Scalar._raw(ctx, b)
    return Word._raw(module, out)


def hat_extension(A: AInfty, w: Word, cap: Cap | None = None) -> Word:
    """Extend the operations to an odd coderivation of the tensor coalgebra,
    with (-1)^{|c|} for passing the operator over a front coefficient of
    degree |c|."""
    return combine_basis_images(A.module, w, lambda tup: hat_basis(A, tup),
                                cap)


def ainfty_residual(A: AInfty, cap: Cap) -> ResidualReport:
    """mu-hat o mu-hat on every basis word up to the weight cap."""
    report = ResidualReport()
    for w in range(0, cap.weight + 1):
        for tup in itertools.product(A.module.basis, repeat=w):
            word = Word.basis_word(A.module, tup)
            res = hat_extension(A, hat_extension(A, word, cap), cap)
            report.checked += 1
            if not res.is_zero():
                report.failures.append({"word": tup, "residual": repr(res)})
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
    coefficient of degree |c| passes the operator with the sign
    (-1)^{|c| (n+1+|interior|)}, so that together with the tensor-slot
    Koszul moves the boundary-linearity sign comes out as
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
        """The family on a boundary word and a list of interior Elements.
        The interior inputs expand into basis tuples by ``interior_word`` in
        their own module; each expansion coefficient multiplies the boundary
        coefficient from the right and the table value from the left."""
        out = Element.zero(self.target.module)
        # (interior tuple, its total degree parity, coefficient); with no
        # interior inputs one term without a coefficient, so the boundary
        # coefficient is used as it is rather than multiplied by one
        iterms = [((), 0, None)]
        if interior:
            imod = interior[0].module
            iterms = [(t, sum(map(imod.degree, t)) + c.degree_parity(), c)
                      for t, c in interior_word(imod, interior, cap).items()]
        for btup, bc in w.items():
            bpar = bc.degree_parity()
            for itup, gpar, ic in iterms:
                el = self.ops.get((btup, itup))
                if el is None:
                    continue
                coeff = bc if ic is None else scalar_mul(bc, ic, cap)
                sgn = (bpar * (self.n + 1 + gpar)) % 2
                part = el.scalar_left(coeff, cap)
                out = out + (-part if sgn else part)
        return out.truncate(cap)

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

        Each orbit is walked once: the signed average over the orbit of a
        stored key is written, with the sign s_sigma^[1] of rotation j, at
        every rotation j.  On a periodic tuple whose stabiliser acts by -1
        the average is zero, and the constructor drops it."""
        new_ops = {}
        for btup, itup in self.ops:
            if (btup, itup) in new_ops:
                continue
            orbit = rotations(self.module, btup)
            acc = Element.zero(self.target.module)
            for rot, s1 in orbit:
                val = self.p(rot, itup)
                acc = acc + (-val if s1 else val)
            avg = acc.scale(Fraction(1, len(orbit)))
            for rot, s1 in orbit:
                new_ops[(rot, itup)] = -avg if s1 else avg
        return OCFamily(self.module, self.target, self.n, new_ops)


def ainfty_to_qfamily(A: AInfty) -> OCFamily:
    """The family q with q_{k,0} = mu_k and no interior operations."""
    return OCFamily(A.module, ChainComplex(A.module, {}), 0,
                    {(tup, ()): el for tup, el in A.ops.items()})


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

    Since |b| = 1 its shifted degree is even and no insertion signs occur;
    gamma has even degree so interior padding is sign-free as well.
    """

    def __init__(self, Q: OCFamily, b: Element, gamma: Element, cap: Cap):
        if not b.is_zero():
            if b.degree() != 1:
                raise ValueError("deformation element b must have degree 1")
            if b.valuation() <= 0:
                raise ValueError("b must have positive valuation")
        if not gamma.is_zero():
            if gamma.degree() != 2:
                raise ValueError("interior deformation must have degree 2")
            if gamma.valuation() <= 0:
                raise ValueError("gamma must have positive valuation")
        self.Q = Q
        self.b = b
        self.gamma = gamma
        self.cap = cap
        self.b_val = b.valuation()
        self.g_val = gamma.valuation()

    def _max_insert(self, val) -> int:
        if val == INFINITY:
            return 0
        return int(math.floor(Fraction(self.cap.energy) / val))

    def apply(self, btup, itups=()) -> Element:
        """Evaluate q^{b,gamma}_{k,l} on basis boundary inputs and Element
        interior inputs."""
        btup = tuple(btup)
        k = len(btup)
        l = len(itups)
        cap = self.cap
        out = Element.zero(self.Q.module)
        s_max = self._max_insert(self.b_val)
        t_extra_max = self._max_insert(self.g_val)
        for s in range(0, s_max + 1):
            if s and self.b.is_zero():
                break
            for pattern in _insertion_patterns(k, s):
                factors = []
                for i in range(k):
                    factors.extend([self.b] * pattern[i])
                    factors.append(btup[i])
                factors.extend([self.b] * pattern[k])
                bword = word_from_factors(self.Q.module, factors,
                                          shifted=True, cap=cap)
                for extra in range(0, t_extra_max + 1):
                    if extra and self.gamma.is_zero():
                        break
                    coeff = Fraction(1, math.factorial(extra))
                    interior = list(itups) + [self.gamma] * extra
                    for bt, bc in bword.items():
                        part = self.Q.eval_tuple(bt, interior, cap)
                        out = out + part.scalar_left(bc.scale(coeff), cap)
        return out.truncate(cap)


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
