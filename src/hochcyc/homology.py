"""Exact homology of finite truncations of the chain complex variants.

Two structurally independent paths compute the same Betti numbers:

* the engine path assembles boundary matrices on the canonical quotient basis
  (signed-minimal rotations, unit slots removed) via the variant differential;
* the naive oracle assembles the raw differential on the full tensor basis
  and realizes the quotients by explicit spanning sets, computing ranks of
  induced maps from rank differences.

All arithmetic is exact over the rationals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Cap, Monomial, Scalar, mono_degree, mono_mul, mono_valuation
from .graded import GradedModule, Word
from .ainfty import AInfty
from .complexes import (
    CYCLIC_VARIANTS,
    EXTENDED_VARIANTS,
    UNIT_KILLING_VARIANTS,
    ChainElt,
    Variant,
    hoch_diff,
    is_canonical_tuple,
    t_word,
)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def row_reduce(rows):
    """In-place-free Gaussian elimination; returns (reduced rows, pivot
    columns).  Entries are Fractions; elimination is exact."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(rows) -> int:
    return len(row_reduce(rows)[0])


def nullspace(rows, ncols: int):
    """Reduced-echelon kernel basis of the matrix given by rows (each row a
    linear functional on the ncols-dimensional domain)."""
    reduced, pivots = row_reduce(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in zip(reduced, pivots):
            vec[p] = -r[f]
        basis.append(vec)
    return basis


def mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b[0])
    return [
        [sum((ra[k] * b[k][j] for k in range(len(b))), Fraction(0))
         for j in range(n)]
        for ra in a
    ]


# ---------------------------------------------------------------------------
# truncations and basis enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Truncation:
    cap: Cap
    d_min: int
    d_max: int

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError("empty degree window")


def attained_monomials(A: AInfty, cap: Cap) -> list[Monomial]:
    """Closure of the zero monomial under multiplication by structure-constant
    monomials, within the cap: the energy levels a truncated computation can
    attain."""
    ctx = A.module.ctx
    gens: set[Monomial] = set()
    for el in A.ops.values():
        for _, s in el.items():
            gens.update(s.terms)
    start: Monomial = (ctx.zero_beta, ctx.zero_exps)
    seen = {start}
    frontier = [start]
    while frontier:
        m = frontier.pop()
        for g in gens:
            prod = mono_mul(ctx, m, g)
            if prod is None:
                continue
            nm, _ = prod
            if mono_valuation(ctx, nm) > cap.energy:
                continue
            if sum(nm[1]) > cap.var_total:
                continue
            if nm not in seen:
                seen.add(nm)
                frontier.append(nm)
    return sorted(seen)


def _tuple_degree(module: GradedModule, tup) -> int:
    return sum(module.degree(g) - 1 for g in tup)


def _all_tuples(module: GradedModule, cap: Cap, extended: bool):
    lo = 0 if extended else 1
    for w in range(lo, cap.weight + 1):
        yield from itertools.product(module.basis, repeat=w)


def chain_basis(A: AInfty, variant: Variant, degree: int,
                trunc: Truncation, canonical: bool = True):
    """Deterministic basis of the degree-``degree`` truncated chain group:
    pairs (monomial, generator tuple).  With ``canonical`` only the variant's
    canonical representatives are kept (engine path); otherwise the full
    tensor basis is enumerated (oracle path)."""
    ctx = A.module.ctx
    monos = attained_monomials(A, trunc.cap)
    out = []
    extended = variant in EXTENDED_VARIANTS
    for tup in _all_tuples(A.module, trunc.cap, extended):
        if canonical and not is_canonical_tuple(A, tup, variant):
            continue
        base = _tuple_degree(A.module, tup)
        for m in monos:
            if base + mono_degree(ctx, m) == degree:
                out.append((m, tup))
    out.sort(key=lambda bm: (len(bm[1]), bm[1], bm[0]))
    return out


def _word_of(A: AInfty, mono: Monomial, tup) -> Word:
    s = Scalar(A.module.ctx, {mono: Fraction(1)})
    return Word(A.module, {tuple(tup): s})


def _decompose(A: AInfty, w: Word, index: dict, cap: Cap, flags: set):
    """Coordinates of a word in a (monomial, tuple) basis; terms beyond the
    weight cap are dropped and flagged."""
    vec = [Fraction(0)] * len(index)
    for tup, s in w.items():
        if len(tup) > cap.weight:
            flags.add("weight-cap")
            continue
        for mono, c in s.terms.items():
            key = (mono, tup)
            if key not in index:
                raise ValueError(f"basis does not span output term {key!r}")
            vec[index[key]] += c
    return vec


# ---------------------------------------------------------------------------
# engine path
# ---------------------------------------------------------------------------


def boundary_matrix(A: AInfty, variant: Variant, degree: int,
                    trunc: Truncation, flags: set | None = None):
    """Exact matrix of the variant differential from the canonical degree-d
    basis to the degree-(d+1) basis; returned as (rows, domain, codomain)
    with rows[i][j] the coefficient of codomain chain i in d(domain chain j)."""
    if flags is None:
        flags = set()
    dom = chain_basis(A, variant, degree, trunc)
    cod = chain_basis(A, variant, degree + 1, trunc)
    index = {bm: i for i, bm in enumerate(cod)}
    cols = []
    for mono, tup in dom:
        chain = ChainElt(_word_of(A, mono, tup), variant)
        img = hoch_diff(A, chain, trunc.cap)
        cols.append(_decompose(A, img.word, index, trunc.cap, flags))
    rows = [[cols[j][i] for j in range(len(dom))] for i in range(len(cod))]
    return rows, dom, cod


@dataclass
class HomologyReport:
    variant: Variant
    trunc: Truncation
    dims: dict = field(default_factory=dict)
    betti: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    representatives: dict = field(default_factory=dict)
    shapes: dict = field(default_factory=dict)
    flags: set = field(default_factory=set)

    def summary(self):
        return {
            "variant": self.variant.value,
            "window": [self.trunc.d_min, self.trunc.d_max],
            "dims": {str(d): v for d, v in sorted(self.dims.items())},
            "betti": {str(d): v for d, v in sorted(self.betti.items())},
            "flags": sorted(self.flags),
        }


def homology(A: AInfty, variant: Variant, trunc: Truncation) -> HomologyReport:
    """Betti numbers and kernel representatives on the truncation.

    Raises if the truncated boundary matrices fail to compose to zero — the
    signal of an inconsistent cap (e.g. a weight cap cutting curvature
    insertions asymmetrically)."""
    report = HomologyReport(variant, trunc)
    mats = {}
    bases = {}
    for d in range(trunc.d_min - 1, trunc.d_max + 1):
        rows, dom, cod = boundary_matrix(A, variant, d, trunc, report.flags)
        mats[d] = rows
        bases[d] = dom
        bases[d + 1] = cod
        report.shapes[d] = (len(cod), len(dom))
    for d in range(trunc.d_min - 1, trunc.d_max):
        prod = mat_mul(mats[d + 1], mats[d])
        if any(any(x for x in row) for row in prod):
            raise ValueError(
                f"truncated differential does not square to zero at degree {d}"
            )
    for d in range(trunc.d_min, trunc.d_max + 1):
        dim = len(bases[d])
        rk_out = matrix_rank(mats[d])
        rk_in = matrix_rank(mats[d - 1])
        report.dims[d] = dim
        report.ranks[d] = rk_out
        report.betti[d] = dim - rk_out - rk_in
        # each row of mats[d] is a linear functional on the domain, so the
        # kernel of the matrix is exactly the cycle space
        kernel = nullspace(mats[d], dim) if dim else []
        report.representatives[d] = [
            [(str(c), bases[d][i]) for i, c in enumerate(vec) if c]
            for vec in kernel
        ]
    return report


# ---------------------------------------------------------------------------
# naive oracle path
# ---------------------------------------------------------------------------

ORACLE_DIMENSION_BOUND = 2000


def naive_diff_vector(A: AInfty, mono: Monomial, tup, index: dict,
                      cap: Cap, flags: set, extended: bool):
    """Raw differential of a single full-basis chain, assembled directly from
    the definitional sums (no shared word machinery)."""
    ctx = A.module.ctx
    mod = A.module
    vec = [Fraction(0)] * len(index)
    p_m = mono_degree(ctx, mono) % 2

    def emit(sign, coeff: Fraction, out_mono, out_tup):
        if coeff == 0:
            return
        if len(out_tup) > cap.weight:
            flags.add("weight-cap")
            return
        if mono_valuation(ctx, out_mono) > cap.energy:
            return
        if sum(out_mono[1]) > cap.var_total:
            return
        key = (out_mono, tuple(out_tup))
        if key not in index:
            raise ValueError(f"oracle basis misses {key!r}")
        vec[index[key]] += -coeff if sign % 2 else coeff

    def emit_element(sign, el, prefix_shifted_parity, out_prefix, out_suffix):
        # scalar coefficients of el commute to the front past the prefix
        for g, s in el.items():
            for smono, c in s.terms.items():
                prod = mono_mul(ctx, mono, smono)
                if prod is None:
                    continue
                out_mono, internal = prod
                spar = mono_degree(ctx, smono) % 2
                total = (sign + internal
                         + spar * prefix_shifted_parity) % 2
                emit(total, c, out_mono, out_prefix + (g,) + out_suffix)

    if len(tup) == 0:
        if not extended:
            raise ValueError("weight-0 chain in a non-extended variant")
        emit_element(p_m, A.mu0(), 0, (), ())
        return vec

    x, l = tup[0], tup[1:]
    npar = [mod.degree(g) + 1 for g in tup]  # shifted parities, tup-indexed
    nx = npar[0] % 2
    k = len(l)
    arities = A.arities
    for a in range(k + 1):          # l1 = l[:a]
        for b in range(a, k + 1):   # l2 = l[a:b], l3 = l[b:]
            l1, l2, l3 = l[:a], l[a:b], l[b:]
            n1 = sum(npar[1:1 + a]) % 2
            n2 = sum(npar[1 + a:1 + b]) % 2
            n3 = sum(npar[1 + b:]) % 2
            if len(l2) in arities:
                el = A.mu(l2)
                if not el.is_zero():
                    pre = (nx + n1) % 2
                    emit_element((p_m + pre) % 2, el, pre,
                                 (x,) + l1, l3)
            arity = len(l3) + 1 + len(l1)
            if arity in arities:
                el = A.mu(l3 + (x,) + l1)
                if not el.is_zero():
                    sign = (p_m + n3 * (nx + n1 + n2)) % 2
                    emit_element(sign, el, 0, (), l2)
    return vec


def _quotient_spanning(A: AInfty, variant: Variant, basis, index, ctx):
    """Spanning vectors of the subspace the variant quotients by: the image
    of 1 - t for cyclic variants and/or the unit-slot subspace."""
    spans = []
    if variant in CYCLIC_VARIANTS:
        for mono, tup in basis:
            w = _word_of(A, mono, tup)
            diff = w - t_word(w)
            vec = [Fraction(0)] * len(index)
            for ttup, s in diff.items():
                for m, c in s.terms.items():
                    vec[index[(m, ttup)]] += c
            if any(vec):
                spans.append(vec)
    if variant in UNIT_KILLING_VARIANTS:
        e = A.unit
        if e is None:
            raise ValueError("variant requires a unit")
        for mono, tup in basis:
            killed = (e in tup if variant is not Variant.NORMALIZED_HOCHSCHILD
                      else e in tup[1:])
            if killed:
                vec = [Fraction(0)] * len(index)
                vec[index[(mono, tup)]] = Fraction(1)
                spans.append(vec)
    return spans


def naive_oracle(A: AInfty, variant: Variant, trunc: Truncation) -> HomologyReport:
    """Independent recomputation of the homology report on the full tensor
    basis, with quotients realized by spanning sets and rank differences."""
    ctx = A.module.ctx
    extended = variant in EXTENDED_VARIANTS
    report = HomologyReport(variant, trunc)
    bases = {}
    for d in range(trunc.d_min - 1, trunc.d_max + 2):
        bases[d] = chain_basis(A, variant, d, trunc, canonical=False)
        if len(bases[d]) > ORACLE_DIMENSION_BOUND:
            raise ValueError("oracle dimension bound exceeded")
    indexes = {d: {bm: i for i, bm in enumerate(b)} for d, b in bases.items()}

    # rank of the induced differential on the quotient in each degree
    spans = {d: _quotient_spanning(A, variant, bases[d], indexes[d], ctx)
             for d in bases}
    span_rank = {d: matrix_rank(spans[d]) for d in bases}

    induced_rank = {}
    for d in range(trunc.d_min - 1, trunc.d_max + 1):
        cols = []
        for mono, tup in bases[d]:
            cols.append(naive_diff_vector(A, mono, tup, indexes[d + 1],
                                          trunc.cap, report.flags, extended))
        combined = cols + spans[d + 1]
        induced_rank[d] = matrix_rank(combined) - span_rank[d + 1]
        report.shapes[d] = (len(bases[d + 1]), len(bases[d]))

    for d in range(trunc.d_min, trunc.d_max + 1):
        qdim = len(bases[d]) - span_rank[d]
        report.dims[d] = qdim
        report.ranks[d] = induced_rank[d]
        report.betti[d] = qdim - induced_rank[d] - induced_rank[d - 1]
    return report
