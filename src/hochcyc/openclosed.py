"""Open-closed operator families: maps p_{k,l} from k boundary inputs
(algebra elements) and l interior inputs (target-complex elements) to a
target cochain complex.  The p_{k,l}, the q_{k,l} and the closed-sector
q_{empty,l} of ``SphereTermProvider`` are all ``OCFamily`` tables (the one
class, defined in ``ainfty``): compiled integer images over one
denominator, one row per interior tuple, evaluated on the operator kernel
by ``eval_word`` and ``eval_tuple``.  This module adds

* random families written straight into a row of integer images,
* the structure-equation right-hand side expander, on generator tuples
  with one integer word of q's images and one kernel call of p per
  interior subset J,
* the combinatorial rewrite identity expressing p o d_hoch through rotations,
* chain-map residual sweeps over the complex variants (including the
  zeta-quotient target and the weight-zero extension),
* a zero-energy (classical push-forward) instantiation and a curved model
  with a nonzero weight-zero part,
* the axiom suite (symmetries, degree, unit, energy zero, fundamental class,
  divisor, linearity).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .scalars import Cap, Context, FormalVarSpec, PiGroup, Scalar, accumulate
from .graded import (
    ChainComplex,
    Element,
    GradedModule,
    ResidualReport,
    Word,
    map_on_generators,
    rotations,
    s_perm,
    shuffle_sign,
    word_from_factors,
)
from .ainfty import AInfty, OCFamily, builtin_algebras
from .complexes import (
    EXTENDED_VARIANTS,
    UNIT_KILLING_VARIANTS,
    ChainElt,
    Variant,
    canonical_tuples,
    hoch_diff,
    hoch_diff_word,
    is_degenerate,
)
from .homology import row_reduce


def _check_chain_map(name: str, images: dict, src: ChainComplex,
                     dst: ChainComplex, shift: int | None = None) -> None:
    """Raise ValueError unless the map sending each generator g of ``src`` to
    ``images[g]`` commutes with the differentials and, when ``shift`` is
    given, raises degrees by ``shift``."""
    for g in src.module.basis:
        img = images.get(g, Element.zero(dst.module))
        if (shift is not None and img
                and img.degree() != src.module.degree(g) + shift):
            raise ValueError(f"{name} does not have degree {shift} at {g!r}")
        d_g = src.d(Element.generator(src.module, g))
        if dst.d(img) != map_on_generators(images, d_g, dst.module,
                                           odd=False):
            raise ValueError(f"{name} is not a chain map at {g!r}")


# ---------------------------------------------------------------------------
# random p-families
# ---------------------------------------------------------------------------


def random_target(ctx: Context, seed: int = 0) -> ChainComplex:
    """A small target complex with zero differential, for combinatorial
    identities that hold for arbitrary families."""
    rng = random.Random(seed)
    degs = tuple(rng.randint(-2, 4) for _ in range(3))
    mod = GradedModule("rand_target", ("u0", "u1", "u2"), degs, ctx)
    return ChainComplex(mod, {})


def random_cyclic_p(A: AInfty, target: ChainComplex, n: int,
                    max_weight: int, seed: int = 0,
                    symmetrize: bool = True) -> OCFamily:
    """Three random integer terms per weight, summed on a plain ``{boundary
    tuple: {generator: int}}`` table and written straight into the family's
    one row of images, at the empty interior tuple, as integer numerators
    over denominator 1, then rotation-averaged with signs
    (``OCFamily.symmetrized``)."""
    rng = random.Random(seed)
    rows: dict = {}
    basis, tmod = A.module.basis, target.module
    for k in range(1, max_weight + 1):
        for _ in range(3):
            btup = tuple([rng.choice(basis) for _ in range(k)])
            accumulate(rows.setdefault(btup, {}),
                       [(rng.choice(tmod.basis), rng.randint(-3, 3))])
    one = (tmod.ctx.zero_beta, tmod.ctx.zero_exps)
    outs = {g: (g,) for g in tmod.basis}
    raw = OCFamily.from_images(A.module, target, n, {(): {
        btup: tuple(x for g, c in row.items() for x in (outs[g], one, c))
        for btup, row in rows.items() if row}}, 1)
    return raw.symmetrized() if symmetrize else raw


# ---------------------------------------------------------------------------
# the rewrite identity: p o d_hoch through rotations
# ---------------------------------------------------------------------------


def theorem_rhs_rotations(p: OCFamily, A: AInfty, w: Word,
                          cap: Cap | None = None) -> Element:
    """Sum over rotations sigma and 2-splittings of
    (-1)^{s_sigma^[1](alpha)} p(mu(alpha^sigma_(1)) (x) alpha^sigma_(2)), a
    front coefficient c of ``w`` passing p as twist^n(c).  Read from the
    structure equation: on a basis tuple alpha of weight >= 1 the sum is
    (-1)^{n+1} times ``structure_rhs(A.qfamily, p, None, alpha)``,
    which has only composite terms there, all in the one word of J empty."""
    Q = A.qfamily
    out = Element.zero(p.target.module)
    for tup, c in w.items():
        if not tup:
            raise ValueError("rewrite identity needs weight >= 1")
        part = _generator_rhs(Q, p, None, tup, (), cap).scalar_left(
            c.twist() if p.n % 2 else c, cap)
        out = out + (-part if (p.n + 1) % 2 else part)
    return out


def theorem1_rewrite_check(p: OCFamily, A: AInfty, w: Word,
                           cap: Cap | None = None) -> Element:
    """Residual of p(d_hoch alpha) minus the rotation expansion; vanishes
    identically for every cyclically symmetric p."""
    lhs = p.eval_word(hoch_diff_word(A, w, cap), cap=cap)
    return lhs - theorem_rhs_rotations(p, A, w, cap)


# ---------------------------------------------------------------------------
# sphere terms
# ---------------------------------------------------------------------------


class SphereTermProvider:
    """The closed-sector operations q_{empty,l} on the target complex, the
    distinguished class zeta (the push-forward of the unit), and optionally a
    primitive eta with d(eta) = -zeta.  q_{empty,1} is given by its values
    ``q1`` on generators and held as the ``OCFamily`` ``family`` with no
    boundary inputs; q_{empty,l} is zero for every other l."""

    def __init__(self, target: ChainComplex, q1: dict, zeta: Element,
                 eta: Element | None = None):
        self.target, self.q1, self.zeta, self.eta = target, q1, zeta, eta
        for g in self.q1:
            if g not in self.target.module.basis:
                raise ValueError(f"unknown generator {g!r} in q1")
        _check_chain_map("q1", self.q1, self.target, self.target)
        self.family = OCFamily(self.target.module, self.target, 0,
                               {((), (g,)): el for g, el in self.q1.items()})

    def q_empty(self, interior, cap: Cap | None = None) -> Element:
        """q_{empty,l} on a list of interior Elements."""
        return self.family.eval_tuple((), interior, cap)


# ---------------------------------------------------------------------------
# the structure-equation right-hand side
# ---------------------------------------------------------------------------


def structure_terms(k: int, l: int):
    """The composite terms of the structure equation for p_{k,l}: triples
    (rotation j, boundary arity k2 of q, interior index set J of q), in the
    order ``structure_rhs`` reads them.  At k = 0 the trivial rotation j = 0
    is the only one."""
    subsets = [J for size in range(l + 1)
               for J in itertools.combinations(range(l), size)]
    return itertools.product(range(max(k, 1)), range(k + 1), subsets)


def structure_rhs(Q: OCFamily, p: OCFamily, sphere: SphereTermProvider | None,
                  alpha, gamma=(), cap: Cap | None = None):
    """Right-hand side of the structure equation for d p_{k,l}(alpha; gamma):

    p(alpha; d gamma)
    + sum over rotations sigma, 2-splittings, interior partitions I u J of
      (-1)^{s_sigma^[1](alpha) + |gamma| + s_shuffle(gamma) + (n+1)(|gamma_J|+1)}
      p_{k1,|I|}( q_{k2,|J|}((alpha^sigma)_(1); gamma_J) (x) (alpha^sigma)_(2);
                  gamma_I )
    + [k=0] (-1)^{|gamma|} q_{empty,l+1}(gamma (x) zeta).

    It is evaluated on generator tuples, whose parities are generator
    degrees, and extended by multilinearity: gamma expands once into tuples
    itup with front coefficients c, and as p(alpha; c itup) = c p(alpha;
    itup) while d(c x) = twist(c) d(x), each adds twist(c) times the
    right-hand side on itup.  Returns (Element, term_count)."""
    alpha = tuple(alpha)
    k, l = len(alpha), len(gamma)
    if k == 0 and sphere is None:
        raise ValueError("k = 0 requires a sphere-term provider")
    out = Element.zero(p.target.module)
    for itup, c in word_from_factors(p.target.module, gamma, shifted=False,
                                     cap=cap).items():
        part = _generator_rhs(Q, p, sphere, alpha, itup, cap)
        out = out + part.scalar_left(c.twist(), cap)
    return out, 1 + max(k, 1) * (k + 1) * 2 ** l + (k == 0)


def _slot_terms(terms: dict, prefix, el: Element, suffix, par: int) -> None:
    """Add (-1)^par prefix (x) el (x) suffix into ``terms`` ``{interior
    tuple: Scalar}``, the generators of ``prefix`` of degree parity
    ``par``: el's coefficient c at h goes to prefix + (h,) + suffix as
    (-1)^par twist^par(c)."""
    for h, c in el.items():
        accumulate(terms, [(prefix + (h,) + suffix, -c.twist() if par else c)])


def _generator_rhs(Q: OCFamily, p: OCFamily,
                   sphere: SphereTermProvider | None, alpha, itup,
                   cap: Cap | None) -> Element:
    """``structure_rhs`` on the interior generator tuple ``itup``, read from
    the images of q and p with no interior expansion: per interior subset J
    one signed integer word from ``Q.images``, passed through p in one
    kernel call, and d gamma or zeta in an interior slot as an interior
    word for ``eval_expanded``."""
    mod, tmod = p.module, p.target.module
    k, l = len(alpha), len(itup)
    gpars = [tmod.degree(g) % 2 for g in itup]
    gtotal = sum(gpars) % 2
    out = Element.zero(tmod)

    # composite terms; q is read uncapped, as the kernel caps every product
    # and energies only add.  J -> (q's images at gamma_J, sign, word)
    orbit = rotations(alpha, [mod.degree(g) for g in alpha])
    words: dict = {}
    for j, k2, J in structure_terms(k, l):
        if J not in words:
            I = [i for i in range(l) if i not in J]
            words[J] = (Q.images.get(tuple(itup[i] for i in J), {}), (
                gtotal + shuffle_sign(gpars, I, list(J))
                + (p.n + 1) * (sum(gpars[i] for i in J) + 1)) % 2, {})
        qrow, sgn, word = words[J]
        rot, s1 = orbit[j]
        tail = rot[k2:]
        it = iter(qrow.get(rot[:k2], ()))
        for g, m, n in zip(it, it, it):
            row = word.setdefault(m, {})
            row[g + tail] = row.get(g + tail, 0) + (-n if s1 != sgn else n)
    for J, (_, _, word) in words.items():
        if word:
            iI = tuple(g for i, g in enumerate(itup) if i not in J)
            part = p.apply(word, iI, (p.n + 1 + sum(map(tmod.degree, iI))) % 2,
                           cap)
            out = out + p.element(part, Q.den * p.den)

    # interior-differential term p(alpha; d gamma)
    dgamma: dict = {}
    for j, g in enumerate(itup):
        if g in p.target.diff:
            _slot_terms(dgamma, itup[:j], p.target.diff[g], itup[j + 1:],
                        sum(gpars[:j]) % 2)
    if dgamma:
        out = out + p.eval_expanded(Word.basis_word(mod, alpha), dgamma, tmod,
                                    cap)

    # sphere term (-1)^{|gamma|} q_{empty,l+1}(gamma (x) zeta)
    if k == 0:
        zterms: dict = {}
        _slot_terms(zterms, itup, sphere.zeta, (), gtotal)
        q = sphere.family
        out = out + q.eval_expanded(Word.basis_word(q.module, ()), zterms,
                                    tmod, cap)
    return out


def structure_residual(Q: OCFamily, p: OCFamily,
                       sphere: SphereTermProvider | None, alpha, gamma=(),
                       cap: Cap | None = None) -> Element:
    """d p(alpha; gamma) minus the structure-equation right-hand side."""
    lhs = p.target.d(p.eval_tuple(alpha, list(gamma), cap)).truncate(cap)
    rhs, _ = structure_rhs(Q, p, sphere, alpha, gamma, cap)
    return lhs - rhs


# ---------------------------------------------------------------------------
# zeta-quotient target
# ---------------------------------------------------------------------------


def reduce_mod(el: Element, zeta: Element) -> Element:
    """Representative of el in the quotient of the target by the R-span of
    zeta, eliminated against a deterministic leading generator of zeta with
    rational coefficient."""
    if zeta.is_zero() or el.is_zero():
        return el
    lead = None
    for g in sorted(zeta.terms):
        s = zeta.terms[g]
        terms = list(s.terms.items())
        if len(terms) == 1:
            (beta, exps), c = terms[0]
            if not any(beta) and not any(exps):
                lead = (g, c)
                break
    if lead is None:
        raise ValueError("zeta has no rational leading coefficient")
    g0, c0 = lead
    s = el.terms.get(g0)
    if s is None:
        return el
    return el - zeta.scalar_left(s.scale(Fraction(1) / c0))


# ---------------------------------------------------------------------------
# extension to weight zero
# ---------------------------------------------------------------------------


class ExtendedOC(OCFamily):
    """The family extended to weight zero: the table of ``base`` with the
    weight-zero value p_0(1) + q_{empty,1}(eta) at ``((), ())``, for a
    primitive eta of -zeta.  It agrees with ``base`` at weight >= 1."""

    def __init__(self, p: OCFamily, sphere: SphereTermProvider):
        if sphere.eta is None:
            raise ValueError("extension requires a primitive eta")
        if sphere.target.d(sphere.eta) != -sphere.zeta:
            raise ValueError("d(eta) != -zeta")
        self.base = p
        self.value_at_one = p.p(()) + sphere.q_empty([sphere.eta])
        super().__init__(p.module, p.target, p.n,
                         {**p.ops, ((), ()): self.value_at_one})


def extended_P(p: OCFamily, sphere: SphereTermProvider) -> ExtendedOC:
    return ExtendedOC(p, sphere)


# ---------------------------------------------------------------------------
# chain-map residual sweeps
# ---------------------------------------------------------------------------


def chain_map_residual(p, A: AInfty, variant: Variant, cap: Cap,
                       Q: OCFamily | None = None,
                       sphere: SphereTermProvider | None = None,
                       quotient_zeta: Element | None = None) -> ResidualReport:
    """d o P - (-1)^{n+1} P o d_hoch on every canonical basis chain of the
    variant up to the weight cap.

    Three stages, all reported: (1) the structure-equation precondition on
    basis tuples, (2) vanishing of P on quotient-killed chains (so that P
    descends), (3) the chain-map residual itself.  With ``quotient_zeta``
    all target comparisons happen modulo the span of zeta."""
    report = ResidualReport()
    if Q is None:
        Q = A.qfamily
    extended = variant in EXTENDED_VARIANTS
    n = p.n
    base = p.base if isinstance(p, ExtendedOC) else p

    def reduce(el):
        return reduce_mod(el, quotient_zeta) if quotient_zeta is not None else el

    # stage 1: structure equation on basis tuples
    lo = 0 if (extended and sphere is not None) else 1
    for w in range(lo, cap.weight + 1):
        for tup in itertools.product(A.module.basis, repeat=w):
            res = structure_residual(Q, base, sphere, tup, (), cap)
            report.checked += 1
            if not res.is_zero():
                report.failures.append({"stage": "structure", "tuple": tup,
                                        "residual": repr(res)})
    if report.failures:
        return report

    # stage 2: P vanishes (mod zeta) on chains the variant quotients out
    if variant in UNIT_KILLING_VARIANTS:
        for w in range(1, cap.weight + 1):
            for tup in itertools.product(A.module.basis, repeat=w):
                if not is_degenerate(A, tup, variant):
                    continue
                val = reduce(p.eval_word(Word.basis_word(A.module, tup),
                                         cap=cap))
                report.checked += 1
                if not val.is_zero():
                    report.failures.append({"stage": "degenerate",
                                            "tuple": tup,
                                            "value": repr(val)})

    # stage 3: the chain-map law on canonical chains
    for tup in canonical_tuples(A, variant, cap.weight):
        chain = ChainElt(Word.basis_word(A.module, tup), variant)
        img = hoch_diff(A, chain, cap)
        lhs = p.target.d(p.eval_word(chain.word, cap=cap)).truncate(cap)
        rhs = p.eval_word(img.word, cap=cap)
        res = lhs - rhs if (n + 1) % 2 == 0 else lhs + rhs
        res = reduce(res)
        report.checked += 1
        if not res.is_zero():
            report.failures.append({"stage": "chain-map", "tuple": tup,
                                    "residual": repr(res)})
    return report


# ---------------------------------------------------------------------------
# toy instantiations
# ---------------------------------------------------------------------------


class ToyGeometry:
    """Finite stand-in for an inclusion of spaces: source complex L, ambient
    complex X, a degree-n push-forward chain map ``push`` (generator of L
    -> Element of X), and the codimension parameter n."""

    def __init__(self, L: ChainComplex, X: ChainComplex, push: dict, n: int):
        self.L, self.X, self.push, self.n = L, X, push, n
        _check_chain_map("push", self.push, self.L, self.X, self.n)

    def push_el(self, el: Element) -> Element:
        return map_on_generators(self.push, el, self.X.module, odd=False)


def toy_zero_energy(geom: ToyGeometry, A: AInfty):
    """The classical instantiation: p_1(alpha) = (-1)^{(n+1)||alpha||}
    push(alpha) and all other p_k zero; q is the algebra itself; the sphere
    provider carries zeta = push(1_L) with zero closed-sector operations."""
    if A.module != geom.L.module:
        raise ValueError("algebra and geometry must share the boundary module")
    n = geom.n
    table = {}
    for g in A.module.basis:
        sgn = ((n + 1) * (A.module.degree(g) + 1)) % 2
        img = geom.push.get(g, Element.zero(geom.X.module))
        table[((g,), ())] = -img if sgn else img
    p = OCFamily(A.module, geom.X, n, table)
    Q = A.qfamily
    zeta = (geom.push_el(Element.generator(A.module, A.unit))
            if A.unit is not None else Element.zero(geom.X.module))
    sphere = SphereTermProvider(geom.X, {}, zeta, eta=None)
    return p, Q, sphere


def exterior_geometry(n: int) -> tuple[AInfty, ToyGeometry]:
    """Four-generator exterior algebra with zero differential, together with
    the degree-n shifted copy as the ambient complex and the shift as the
    push-forward."""
    A = builtin_algebras("exterior(2)")
    Lmod = A.module
    L = ChainComplex(Lmod, {})
    xnames = tuple("X" + g for g in Lmod.basis)
    Xmod = GradedModule("shifted_exterior", xnames,
                        tuple(d + n for d in Lmod.degrees), Lmod.ctx)
    X = ChainComplex(Xmod, {})
    push = {g: Element.generator(Xmod, "X" + g) for g in Lmod.basis}
    return A, ToyGeometry(L, X, push, n)


def theorem5_toy(n: int):
    """A curved model exercising the weight-zero extension: the curved matrix
    algebra, a target with an exact zeta, a sphere operation raising the
    auxiliary grading, and a p supported in weight zero only.

    Returns (A, p, sphere).  The target basis: H, Z = -dH, their images H2,
    Z2 under the sphere operation, and a second exact pair N, M = dN with
    images N2, M2 used to vary the primitive eta."""
    A = builtin_algebras("curved_matrix")
    ctx = A.module.ctx
    names = ("H", "Z", "H2", "Z2", "N", "M", "N2", "M2")
    degs = (n - 1, n, n + 1, n + 2, n - 2, n - 1, n, n + 1)
    Tmod = GradedModule("sphere_target", names, degs, ctx)

    def gen(g, c=1):
        return Element.generator(Tmod, g, c)

    target = ChainComplex(Tmod, {
        "H": gen("Z", -1), "H2": gen("Z2", -1),
        "N": gen("M"), "N2": gen("M2"),
    })
    q1 = {"H": gen("H2"), "Z": gen("Z2"), "N": gen("N2"), "M": gen("M2")}
    sphere = SphereTermProvider(target, q1, zeta=gen("Z"), eta=gen("H"))
    p = OCFamily(A.module, target, n, {((), ()): gen("H2", -1)})
    return A, p, sphere


# ---------------------------------------------------------------------------
# the axiom suite
# ---------------------------------------------------------------------------


def build_divisor_family(good: bool = True):
    """A synthetic area-graded family of scalars s_m = T^m sum_j m^j
    t_1^j / j! for m = 0, ..., 3 and j = 0, ..., 4, which satisfies the
    divisor identity d/dt_1 s_m = m s_m below the top t_1-power (check it
    with ``divisor_check`` at ``jmax=4``); with ``good`` disabled the
    factorials are dropped and the identity fails."""
    ctx = Context(PiGroup(1, (Fraction(1),), (0,)), FormalVarSpec((0, 0)))
    fam = {}
    for m in range(4):
        s = Scalar.zero(ctx)
        for j in range(5):
            coeff = Fraction(m) ** j
            if good:
                coeff /= math.factorial(j)
            s = s + Scalar.monomial(ctx, coeff, (m,), (0, j))
        fam[m] = s
    return ctx, fam


def divisor_check(fam: dict, pairing, jmax: int) -> tuple[bool, list]:
    """d/dt_1 s_m = pairing(m) * s_m on every area level, compared after
    truncating both sides below the top retained t_1-power."""
    failures = []
    for m, s in fam.items():
        cap = Cap(energy=max(fam), weight=0, var_total=jmax - 1)
        lhs = s.partial_t(1).truncate(cap)
        rhs = s.scale(pairing(m)).truncate(cap)
        if lhs != rhs:
            failures.append({"level": m, "lhs": repr(lhs), "rhs": repr(rhs)})
    return not failures, failures


def _linearity_fixture():
    """A tiny family over a coefficient ring with an odd formal variable, to
    exercise the linearity signs with genuinely odd scalars."""
    ctx = Context(PiGroup(0, (), ()), FormalVarSpec((1,)))
    mod = GradedModule("lin_boundary", ("x", "y"), (1, 2), ctx)
    tmod = GradedModule("lin_target", ("u", "v", "w"), (0, 1, 2), ctx)
    target = ChainComplex(tmod, {})
    ops = {
        (("x", "y"), ()): Element.generator(tmod, "u"),
        (("y", "x"), ()): Element.generator(tmod, "v"),
        (("x",), ("v",)): Element.generator(tmod, "w"),
        (("x",), ("v", "w")): Element.generator(tmod, "u"),
        (("x",), ("w", "v")): Element.generator(tmod, "v", 2),
    }
    return ctx, mod, target, ops


def _check_boundary_linearity(n: int) -> tuple[int, list]:
    """The boundary-linearity sign on each slot of the fixture, with and
    without an interior input: the number of cases and the failures."""
    ctx, mod, target, ops = _linearity_fixture()
    p = OCFamily(mod, target, n, ops)
    a = Scalar.monomial(ctx, 1, (), (1,))  # odd scalar, degree 1
    failures = []
    checked = 0
    for gamma in ([], [Element.generator(target.module, "v")]):
        gpar = sum(el.degree() for el in gamma) % 2
        for i in range(2):
            checked += 1
            factors = ["x", "y"]
            base = p.eval_word(Word.basis_word(mod, tuple(factors)), gamma)
            scaled_slot = Element(mod, {factors[i]: a})
            factors_a = list(factors)
            factors_a[i] = scaled_slot
            got = p.eval_word(word_from_factors(mod, factors_a), gamma)
            prefix = sum(mod.degree(g) + 1 for g in factors[:i])
            sgn = (1 * (n + 1 + prefix + gpar)) % 2
            want = base.scalar_left(a)
            want = -want if sgn else want
            if got != want:
                failures.append({"axiom": "boundary-linearity", "slot": i,
                                 "gamma": len(gamma)})
    return checked, failures


def _check_interior_linearity(n: int) -> tuple[int, list]:
    """The interior-linearity sign on each of two interior slots of the
    fixture: the number of cases and the failures."""
    ctx, mod, target, ops = _linearity_fixture()
    p = OCFamily(mod, target, n, ops)
    a = Scalar.monomial(ctx, 1, (), (1,))
    v = Element.generator(target.module, "v")
    w = Element.generator(target.module, "w")
    word = Word.basis_word(mod, ("x",))
    gamma = [v, w]
    failures = []
    for i in range(len(gamma)):
        base = p.eval_word(word, gamma)
        gamma_a = list(gamma)
        gamma_a[i] = Element(target.module,
                             {next(iter(gamma[i].terms)): a})
        got = p.eval_word(word, gamma_a)
        prefix = sum(el.degree() for el in gamma[:i]) % 2
        want = base.scalar_left(a)
        want = -want if prefix % 2 else want
        if got != want:
            failures.append({"axiom": "interior-linearity", "slot": i})
    return len(gamma), failures


def axiom_suite(p: OCFamily, A: AInfty, geom: ToyGeometry,
                zeta: Element) -> dict:
    """Check the declared contracts of an open-closed family, plus the
    synthetic divisor pass/fail pair and the linearity-sign fixtures.
    Returns a mapping check-name -> {ok, failures, checked}, where
    ``checked`` is the number of cases the check examined; a check that
    examined none passes vacuously."""
    n = p.n
    tmod = p.target.module
    ops = p.ops
    results = {}

    def record(name, ok, failures, checked):
        results[name] = {"ok": bool(ok), "failures": failures,
                         "checked": checked}

    # cyclic symmetry of boundary inputs, compared at every stored key
    record("cyclic_symmetry", p.is_cyclic(), [], len(ops))

    # symmetry of interior inputs (on all stored keys with l >= 2)
    fails = []
    checked = 0
    for (btup, itup), el in ops.items():
        if len(itup) < 2:
            continue
        degs = [tmod.degree(g) for g in itup]
        for perm in itertools.permutations(range(len(itup))):
            checked += 1
            other = p.p(btup, tuple(itup[i] for i in perm))
            if el != (-other if s_perm(degs, perm) else other):
                fails.append({"key": (btup, itup), "perm": perm})
    record("interior_symmetry", not fails, fails, checked)

    # degree law on degree-2 interior inputs
    fails = []
    checked = 0
    for (btup, itup), el in ops.items():
        if any(tmod.degree(g) != 2 for g in itup):
            continue
        want = sum(A.module.degree(g) for g in btup) + n + 1 - len(btup)
        for g, s in el.items():
            checked += 1
            if tmod.degree(g) + s.degree() != want:
                fails.append({"key": (btup, itup), "generator": g})
    record("degree", not fails, fails, checked)

    # unit law: vanishing on unit-containing tuples except weight one
    fails = []
    checked = 0
    if A.unit is not None:
        e = A.unit
        for w in range(1, 4):
            for tup in itertools.product(A.module.basis, repeat=w):
                if e not in tup:
                    continue
                checked += 1
                val = p.eval_tuple(tup)
                if w == 1:
                    want = zeta if (n + 1) % 2 == 0 else -zeta
                    if val != want:
                        fails.append({"tuple": tup, "got": repr(val)})
                elif not val.is_zero():
                    fails.append({"tuple": tup, "got": repr(val)})
    record("unit", not fails, fails, checked)

    # energy zero: valuation-0 part is the classical push-forward at (1,0)
    fails = []
    for (btup, itup), el in ops.items():
        zero_part = el.truncate(Cap(0, 0, 0))
        if len(btup) == 1 and not itup:
            g = btup[0]
            sgn = ((n + 1) * (A.module.degree(g) + 1)) % 2
            want = geom.push_el(Element.generator(A.module, g))
            if zero_part != (-want if sgn else want):
                fails.append({"key": (btup, itup)})
        elif not zero_part.is_zero():
            fails.append({"key": (btup, itup)})
    record("energy_zero", not fails, fails, len(ops))

    # fundamental class: no dependence on the distinguished variable t_0,
    # checked on each (key, generator) value; none without formal variables
    fails = []
    checked = 0
    if A.module.ctx.tvars.count > 0:
        for key, el in ops.items():
            for g, s in el.items():
                checked += 1
                if not s.partial_t(0).is_zero():
                    fails.append({"key": key, "generator": g})
    record("fundamental_class", not fails, fails, checked)

    # linearity signs, exercised with an odd scalar on a fixture family
    checked, fails = _check_boundary_linearity(n)
    record("boundary_linearity", not fails, fails, checked)
    checked, fails = _check_interior_linearity(n)
    record("interior_linearity", not fails, fails, checked)

    # divisor pass/fail pair on the synthetic area-graded family, one case
    # per area level
    _, good_fam = build_divisor_family(good=True)
    ok_good, f_good = divisor_check(good_fam, Fraction, jmax=4)
    _, bad_fam = build_divisor_family(good=False)
    ok_bad, f_bad = divisor_check(bad_fam, Fraction, jmax=4)
    record("divisor_pass", ok_good, f_good, len(good_fam))
    record("divisor_fail_control", not ok_bad,
           [] if not ok_bad else [{"note": "corrupted family passed"}],
           len(bad_fam))

    results["ok"] = all(v["ok"] for k, v in results.items() if k != "ok")
    return results


def is_exact(complex_: ChainComplex, el: Element):
    """Whether el = d(x) is solvable with rational coefficients on the
    generators; returns a witness Element or None.  Only rational
    coefficients are handled: ValueError when el or the image under d of a
    generator one degree lower has any other coefficient."""
    mod = complex_.module
    if el.is_zero():
        return Element.zero(mod)
    deg = el.degree() - 1
    sources = [g for g in mod.basis if mod.degree(g) == deg]
    images = [complex_.d(Element.generator(mod, g)) for g in sources]
    targets = sorted({h for img in images for h, _ in img.items()}
                     | set(el.terms))
    tindex = {h: i for i, h in enumerate(targets)}

    n = len(images)
    # the augmented system [images | el]: one row per target generator
    aug: list[dict] = [{} for _ in targets]
    for j, element in [(n, el), *enumerate(images)]:
        for h, s in element.items():
            terms = list(s.terms.items())
            if len(terms) != 1 or any(terms[0][0][0]) or any(terms[0][0][1]):
                raise ValueError("is_exact handles rational coefficients "
                                 f"only; the coefficient of {h!r} is {s!r}")
            aug[tindex[h]][j] = terms[0][1]
    # row_reduce takes integer rows: clear each row's denominators
    for row in aug:
        den = math.lcm(*(x.denominator for x in row.values()))
        for j, x in row.items():
            row[j] = x.numerator * (den // x.denominator)
    reduced, pivots = row_reduce(aug)
    if pivots and pivots[-1] == n:
        return None  # inconsistent system
    witness = Element(mod, {
        sources[pcol]: Scalar.rational(mod.ctx, r[n])
        for r, pcol in zip(reduced, pivots) if n in r
    })
    if complex_.d(witness) != el:
        return None
    return witness
