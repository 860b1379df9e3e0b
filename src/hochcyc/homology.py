"""Exact homology of finite truncations of the chain complex variants.

Two structurally independent paths compute the same Betti numbers:

* the engine path sorts the canonical quotient basis into degrees in one
  pass, builds each boundary column from the integer kernel and
  ``complexes.canonical_form``, checks d^2 = 0 on the truncation, and reads
  the boundary rank, the incoming rank and the cycle space from one
  Gauss-Jordan elimination per boundary matrix;
* the naive oracle assembles the raw differential on the full tensor basis
  and realizes the quotients by explicit spanning sets, computing ranks of
  induced maps from rank differences with fraction-free Bareiss elimination
  on integer rows.

The boundary matrices are mostly zeros, so the kernels skip them: the d^2
product accumulates over nonzero entries only, and Gauss-Jordan updates each
row only at the nonzero columns of the pivot row.  All arithmetic is exact
over the rationals (over the integers in Bareiss).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Cap, Monomial, Scalar, accumulate, mono_degree
from .graded import GradedModule, Word
from .ainfty import AInfty, apply_images
from .complexes import (
    CYCLIC_VARIANTS,
    EXTENDED_VARIANTS,
    UNIT_KILLING_VARIANTS,
    Variant,
    canonical_form,
    canonical_tuples,
    diff_basis,
    t_word,
)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def row_reduce(rows):
    """Gauss-Jordan elimination over the rationals; returns (reduced rows,
    pivot columns).  The input is not modified.  Each pivot row is normalised
    and its nonzero (column, value) pairs listed once; every other row is
    then updated in place at those columns only, so zero entries cost
    nothing."""
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
        prow = rows[r]
        inv = Fraction(1) / prow[c]
        # columns before c are zero in every row from r on
        nonzero = [(j, x * inv) for j, x in enumerate(prow[c:], c) if x]
        for j, x in nonzero:
            prow[j] = x
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, x in nonzero:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def bareiss(rows):
    """Fraction-free (Bareiss) row echelon form of a rational matrix, after
    clearing each row's denominators: returns (integer rows, pivot columns).
    Every entry stays a minor of the cleared matrix, so each division by the
    previous pivot is exact; a row with a zero in the pivot column is still
    scaled by pivot/previous (the identity when the two are equal).  Zero
    rows are dropped, since they stay zero.  The oracle's elimination: it
    shares no code with ``row_reduce``."""
    m = []
    for row in rows:
        if any(row):
            den = math.lcm(*(x.denominator for x in row))
            m.append([x.numerator * (den // x.denominator) for x in row])
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r][c]
        tail = m[r][c + 1:]
        below = []
        for row in m[r + 1:]:
            f = row[c]
            if f:
                row[c] = 0
                row[c + 1:] = [(p * x - f * y) // prev
                               for x, y in zip(row[c + 1:], tail)]
                if not any(row):  # a zero row stays zero: drop it
                    continue
            elif p != prev:
                row[c + 1:] = [p * x // prev for x in row[c + 1:]]
            below.append(row)
        m[r + 1:] = below
        prev = p
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def matrix_rank(rows) -> int:
    return len(bareiss(rows)[1])


def nullspace(reduced, pivots, ncols: int):
    """Kernel basis of a matrix on an ncols-dimensional domain (each row a
    linear functional), read from its ``row_reduce`` output: one vector per
    free column."""
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
    """Exact dense product ``a @ b`` of Fraction matrices.  The nonzero
    entries of each row of ``b`` are indexed once; each row of ``a`` is then
    accumulated over its nonzero entries only."""
    if not a or not b:
        return []
    n = len(b[0])
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for ra in a:
        acc = [Fraction(0)] * n
        for x, b_row in zip(ra, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


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
            prod = ctx.mono_mul(m, g)
            if prod is None:
                continue
            nm, _ = prod
            if nm not in seen and cap.admits(ctx, nm):
                seen.add(nm)
                frontier.append(nm)
    return sorted(seen)


def _all_tuples(module: GradedModule, cap: Cap, extended: bool):
    lo = 0 if extended else 1
    for w in range(lo, cap.weight + 1):
        yield from itertools.product(module.basis, repeat=w)


def chain_basis(A: AInfty, tuples, cap: Cap) -> dict:
    """Deterministic bases of the truncated chain groups spanned by the
    generator tuples ``tuples`` and the monomials attained under ``cap``, in
    one pass: ``{degree: [(monomial, tuple), ...]}``.  The engine passes the
    variant's canonical tuples, the oracle the full tensor basis."""
    ctx = A.module.ctx
    monos = [(m, mono_degree(ctx, m)) for m in attained_monomials(A, cap)]
    out: dict[int, list] = {}
    for tup in tuples:
        base = sum(A.module.degree(g) - 1 for g in tup)
        for m, deg in monos:
            out.setdefault(base + deg, []).append((m, tup))
    for basis in out.values():
        basis.sort(key=lambda bm: (len(bm[1]), bm[1], bm[0]))
    return out


# ---------------------------------------------------------------------------
# engine path
# ---------------------------------------------------------------------------


def boundary_matrix(A: AInfty, variant: Variant, dom, cod, cap: Cap,
                    flags: set | None = None):
    """Exact matrix of the variant differential from the canonical basis
    ``dom`` of one degree to the basis ``cod`` of the next; returned as
    (rows, domain, codomain) with rows[i][j] the coefficient of codomain
    chain i in d(domain chain j).  Column j sums the integer kernel's image
    of chain j per (monomial, ``canonical_form`` of the output tuple), over
    ``A.den``; terms beyond the weight cap are dropped and flagged."""
    if flags is None:
        flags = set()
    index = {bm: i for i, bm in enumerate(cod)}
    rows = [[Fraction(0)] * len(dom) for _ in cod]
    for j, (mono, tup) in enumerate(dom):
        col: dict = {}
        image = apply_images(A, {tup: {mono: 1}}, diff_basis, cap)
        for otup, bucket in image.items():
            can = canonical_form(A, otup, variant)
            if can is not None:
                rep, sgn = can
                accumulate(col, (((m, rep), -n if sgn else n)
                                 for m, n in bucket.items()))
        for key, n in col.items():
            if len(key[1]) > cap.weight:
                flags.add("weight-cap")
                continue
            if key not in index:
                raise ValueError(f"basis does not span output term {key!r}")
            rows[index[key]][j] = Fraction(n, A.den)
    return rows, dom, cod


@dataclass
class HomologyReport:
    variant: Variant
    trunc: Truncation
    dims: dict = field(default_factory=dict)
    betti: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)
    # degree -> one [(Fraction, (monomial, tuple)), ...] per kernel vector
    representatives: dict = field(default_factory=dict)
    flags: set = field(default_factory=set)

    def summary(self):
        return {
            "variant": self.variant.value,
            "window": [self.trunc.d_min, self.trunc.d_max],
            "dims": {str(d): v for d, v in sorted(self.dims.items())},
            "betti": {str(d): v for d, v in sorted(self.betti.items())},
            "ranks": {str(d): v for d, v in sorted(self.ranks.items())},
            "flags": sorted(self.flags),
        }


def homology(A: AInfty, variant: Variant, trunc: Truncation) -> HomologyReport:
    """Betti numbers and kernel representatives on the truncation.

    Raises if the truncated boundary matrices fail to compose to zero — the
    signal of an inconsistent cap (e.g. a weight cap cutting curvature
    insertions asymmetrically)."""
    report = HomologyReport(variant, trunc)
    cap = trunc.cap
    bases = chain_basis(A, canonical_tuples(A, variant, cap.weight), cap)
    mats = {}
    for d in range(trunc.d_min - 1, trunc.d_max + 1):
        mats[d], _, _ = boundary_matrix(A, variant, bases.get(d, []),
                                        bases.get(d + 1, []), cap,
                                        report.flags)
    for d in range(trunc.d_min - 1, trunc.d_max):
        prod = mat_mul(mats[d + 1], mats[d])
        witness = next(((i, j) for i, row in enumerate(prod)
                        for j, x in enumerate(row) if x), None)
        if witness is not None:
            i, j = witness
            raise ValueError(
                f"truncated differential does not square to zero at degree "
                f"{d}: d^2 of {bases[d][j]!r} has coefficient {prod[i][j]} "
                f"on {bases[d + 2][i]!r}"
            )
    echelon = {d: row_reduce(rows) for d, rows in mats.items()}
    for d in range(trunc.d_min, trunc.d_max + 1):
        basis = bases.get(d, [])
        reduced, pivots = echelon[d]
        report.dims[d] = len(basis)
        report.ranks[d] = len(pivots)
        report.betti[d] = len(basis) - len(pivots) - len(echelon[d - 1][1])
        # each row of mats[d] is a linear functional on the domain, so the
        # kernel of the matrix is exactly the cycle space
        report.representatives[d] = [
            [(c, basis[i]) for i, c in enumerate(vec) if c]
            for vec in nullspace(reduced, pivots, len(basis))
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
        if ctx.mono_valuation(out_mono) > cap.energy:
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
                prod = ctx.mono_mul(mono, smono)
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


def _quotient_spanning(A: AInfty, variant: Variant, basis, index):
    """Spanning vectors of the subspace the variant quotients by: the image
    of 1 - t for cyclic variants and/or the unit-slot subspace."""
    spans = []
    if variant in CYCLIC_VARIANTS:
        for mono, tup in basis:
            w = Word(A.module, {tup: Scalar(A.module.ctx, {mono: Fraction(1)})})
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
    full = chain_basis(A, _all_tuples(A.module, trunc.cap, extended),
                       trunc.cap)
    bases = {}
    for d in range(trunc.d_min - 1, trunc.d_max + 2):
        bases[d] = full.get(d, [])
        if len(bases[d]) > ORACLE_DIMENSION_BOUND:
            raise ValueError("oracle dimension bound exceeded")
    indexes = {d: {bm: i for i, bm in enumerate(b)} for d, b in bases.items()}

    # rank of the induced differential on the quotient in each degree
    spans = {d: _quotient_spanning(A, variant, bases[d], indexes[d])
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

    for d in range(trunc.d_min, trunc.d_max + 1):
        qdim = len(bases[d]) - span_rank[d]
        report.dims[d] = qdim
        report.ranks[d] = induced_rank[d]
        report.betti[d] = qdim - induced_rank[d] - induced_rank[d - 1]
    return report
