"""Exact linear algebra, truncated chain-group bases, and the agreement of
the engine homology with the independent oracle."""

import math
import random
from fractions import Fraction

import pytest

from hochcyc.scalars import TRIVIAL_CONTEXT, Cap, Scalar, mono_degree
from hochcyc.ainfty import BUILTIN_NAMES, AInfty, builtin_algebras
from hochcyc.graded import Element, GradedModule, Word
from hochcyc.complexes import UNIT_KILLING_VARIANTS, Variant
from hochcyc.complexes import (
    ChainElt,
    canonical_tuples,
    hoch_diff,
)
from hochcyc.homology import (
    Truncation,
    _all_tuples,
    attained_monomials,
    bareiss,
    boundary_matrix,
    chain_basis,
    homology,
    mat_mul,
    matrix_rank,
    naive_diff_vector,
    naive_oracle,
    nullspace,
    row_reduce,
)
from test_ainfty import _odd_variable_algebra

F = Fraction


def _m(rows):
    return [[F(x) for x in r] for r in rows]


def _sparse(rows):
    """Dense rows as sparse rows ``{column: value}`` of their nonzero
    entries."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def _cleared(rows):
    """Dense rational rows as sparse integer rows, each row's denominators
    cleared: the same row space, in the form ``row_reduce`` takes."""
    out = []
    for r in rows:
        den = math.lcm(*(F(x).denominator for x in r))
        out.append({j: int(x * den) for j, x in enumerate(r) if x})
    return out


def test_row_reduce_and_rank():
    rows, pivots = row_reduce(_cleared(_m([[2, 4], [1, 2], [0, 1]])))
    assert pivots == [0, 1]
    assert rows == [{0: 1}, {1: 1}]
    assert all(type(x) is Fraction for r in rows for x in r.values())
    assert matrix_rank(_m([[1, 2], [2, 4]])) == 1
    assert matrix_rank([]) == 0


def test_rank_with_fractions():
    assert matrix_rank(_m([["1/2", "1/3"], ["3/2", "1"]])) == 1


def test_nullspace_is_exact_kernel():
    rows = _m([[1, 2, 3], [0, 1, 1]])
    basis = nullspace(*row_reduce(_cleared(rows)), 3)
    assert basis == [{0: -1, 1: -1, 2: 1}]
    v = basis[0]
    for r in rows:
        assert sum(a * v.get(j, 0) for j, a in enumerate(r)) == 0


def test_mat_mul():
    a = [{0: 1, 1: 2}]
    b = [{0: 3}, {0: 4}]
    assert mat_mul(a, b) == [{0: 11}]
    assert mat_mul([], b) == []
    # sums that cancel are not stored
    assert mat_mul([{0: 1, 1: -1}], [{0: 2, 1: 1}, {0: 2}]) == [{1: 1}]


# Dense Gauss-Jordan and dense products over the rationals: the references
# the sparse kernels must match entry for entry.

def _dense_mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b[0])
    return [
        [sum((ra[k] * b[k][j] for k in range(len(b))), F(0))
         for j in range(n)]
        for ra in a
    ]


def _dense_row_reduce(rows):
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
        inv = F(1) / rows[r][c]
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


def _det(rows):
    """Determinant of a square Fraction matrix by plain elimination."""
    rows = [list(r) for r in rows]
    det = F(1)
    for c in range(len(rows)):
        pivot = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _random_matrix(rng, nrows, ncols, density, rank=None):
    """A rational matrix with the given share of nonzero entries, small
    numerators and denominators and an occasional large entry; with
    ``rank``, every row is a rational combination of ``rank`` such rows."""
    def entry():
        if rng.random() >= density:
            return F(0)
        if rng.random() < 0.05:
            return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**12))
        return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))

    if rank is None:
        return [[entry() for _ in range(ncols)] for _ in range(nrows)]
    gens = _random_matrix(rng, rank, ncols, density)
    rows = []
    for _ in range(nrows):
        coeffs = [entry() for _ in gens]
        rows.append([sum((c * g[j] for c, g in zip(coeffs, gens)), F(0))
                     for j in range(ncols)])
    return rows


def _matrices(seed):
    """Fixed-seed random matrices: sparse and dense, rank-deficient, with
    zero rows and columns, tall and wide."""
    rng = random.Random(seed)
    out = []
    for nrows, ncols in ((1, 1), (3, 5), (5, 3), (8, 8), (12, 7), (7, 12),
                         (16, 16)):
        for density in (0.1, 0.3, 1.0):
            out.append(_random_matrix(rng, nrows, ncols, density))
            out.append(_random_matrix(rng, nrows, ncols, density,
                                      rank=max(1, min(nrows, ncols) // 2)))
            m = _random_matrix(rng, nrows, ncols, density)
            for row in m[::3]:
                row[:] = [F(0)] * ncols
            for row in m:
                row[ncols // 2] = F(0)
            out.append(m)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_kernels_equal_dense_references(seed):
    mats = _matrices(seed)
    for m in mats:
        ref_rows, ref_pivots = _dense_row_reduce(m)
        ints = _cleared(m)
        # the reduced form is unique: the order of the rows does not matter
        assert row_reduce(ints) == (_sparse(ref_rows), ref_pivots)
        assert row_reduce(ints[::-1]) == (_sparse(ref_rows), ref_pivots)
        assert ints == _cleared(m)  # the input is not modified
        assert matrix_rank(m) == len(ref_pivots)
        # Bareiss rows span the same row space: the same reduced form
        ints, pivots = bareiss(m)
        assert pivots == ref_pivots
        assert all(type(x) is int for row in ints for x in row)
        assert _dense_row_reduce([[F(x) for x in r] for r in ints]) == (
            ref_rows, ref_pivots)
    for a, b in zip(mats, mats[1:]):
        for left, right in ((a, b), (a, [list(r) for r in zip(*a)])):
            if len(left[0]) == len(right):
                assert mat_mul(_sparse(left), _sparse(right)) == _sparse(
                    _dense_mat_mul(left, right))


def test_kernels_on_empty_and_zero_matrices():
    assert row_reduce([]) == _dense_row_reduce([]) == ([], [])
    assert matrix_rank([]) == 0 and bareiss([]) == ([], [])
    zero = _m([[0, 0, 0], [0, 0, 0]])
    assert row_reduce(_cleared(zero)) == _dense_row_reduce(zero) == ([], [])
    assert matrix_rank(zero) == 0
    assert matrix_rank([[], []]) == 0
    assert mat_mul([], _sparse(zero)) == []
    assert mat_mul(_sparse(zero), []) == [{}, {}]
    assert mat_mul(_sparse(zero), _sparse(_m([[1], [2], [0]]))) == [{}, {}]
    assert nullspace([], [], 2) == [{0: 1}, {1: 1}]


@pytest.mark.parametrize("density", [0.2, 0.5, 1.0])
def test_bareiss_pivot_is_the_cleared_determinant(density):
    """On a nonsingular square matrix the last Bareiss pivot is, up to sign,
    the determinant of the matrix with each row's denominators cleared: the
    divisions by the previous pivot keep every entry a minor."""
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        n = rng.randint(3, 9)
        m = _random_matrix(rng, n, n, density)
        det = _det(m)
        if not det:
            continue
        for row in m:
            det *= math.lcm(*(x.denominator for x in row))
        ints, pivots = bareiss(m)
        assert pivots == list(range(n))
        assert abs(ints[-1][-1]) == abs(det)
        checked += 1


def test_nonzero_d_squared_names_a_witness():
    """A differential that does not square to zero is refused, naming the
    degree, the first nonzero entry of d^2 and its coefficient."""
    mod = GradedModule("bad", ("a", "b", "c"), (0, 1, 2), TRIVIAL_CONTEXT)
    A = AInfty(mod, {("a",): Element.generator(mod, "b"),
                     ("b",): Element.generator(mod, "c")})
    one = (TRIVIAL_CONTEXT.zero_beta, TRIVIAL_CONTEXT.zero_exps)
    with pytest.raises(ValueError) as exc:
        homology(A, Variant.HOCHSCHILD, Truncation(Cap(0, 2, 0), -3, 3))
    assert str(exc.value) == (
        "truncated differential does not square to zero at degree -2: "
        f"d^2 of {(one, ('a', 'a'))!r} has coefficient 1 on "
        f"{(one, ('a', 'c'))!r}")
    # the guarded product itself: d^2(a|a) = a|c + c|a, the b|b terms cancel
    cap = Cap(0, 2, 0)
    bases = chain_basis(A, canonical_tuples(A, Variant.HOCHSCHILD, 2), cap)
    m1 = boundary_matrix(A, Variant.HOCHSCHILD, bases[-2], bases[-1], cap)[0]
    m2, _, cod = boundary_matrix(A, Variant.HOCHSCHILD, bases[-1], bases[0],
                                 cap)
    assert [tup for _, tup in cod] == [("b",), ("a", "c"), ("b", "b"),
                                       ("c", "a")]
    assert A.den == 1
    assert mat_mul(m2, m1) == [{}, {0: 1}, {}, {0: 1}]


def test_attained_monomials_respects_cap():
    A = builtin_algebras("curved_matrix")
    monos = attained_monomials(A, Cap(energy=3, weight=2, var_total=0))
    assert [m[0] for m in monos] == [(0,), (1,), (2,), (3,)]
    monos = attained_monomials(A, Cap(energy=F(1, 2), weight=2, var_total=0))
    assert [m[0] for m in monos] == [(0,)]


def test_chain_basis_is_deterministic_and_graded():
    A = builtin_algebras("dual_numbers")
    trunc = Truncation(Cap(energy=0, weight=3, var_total=0), -2, 2)
    tuples = tuple(canonical_tuples(A, Variant.HOCHSCHILD, trunc.cap.weight))
    b0 = chain_basis(A, tuples, trunc.cap)[0]
    assert b0 == chain_basis(A, tuples, trunc.cap)[0]
    for mono, tup in b0:
        assert sum(A.module.degree(g) - 1 for g in tup) == 0
    # degree 0 at weight <= 3: (eps,), (eps,eps,e) permutations... weight 1
    assert ((( ), (0,)), ) not in b0
    assert any(tup == ("eps",) for _, tup in b0)


def test_boundary_matrix_squares_to_zero():
    A = builtin_algebras("exterior(2)")
    trunc = Truncation(Cap(energy=0, weight=3, var_total=0), -2, 2)
    for v in (Variant.HOCHSCHILD, Variant.CONNES):
        bases = chain_basis(A, canonical_tuples(A, v, trunc.cap.weight),
                            trunc.cap)
        for d in (-1, 0):
            m1, dom, mid = boundary_matrix(A, v, bases[d], bases[d + 1],
                                           trunc.cap)
            m2, mid2, cod = boundary_matrix(A, v, bases[d + 1], bases[d + 2],
                                            trunc.cap)
            assert mid == mid2
            # rows hold only nonzero Python ints, at domain columns
            for m, src in ((m1, dom), (m2, mid)):
                assert all(type(x) is int and x and 0 <= j < len(src)
                           for row in m for j, x in row.items())
            prod = mat_mul(m2, m1)
            assert not any(prod)


@pytest.mark.parametrize("name,energy", [
    ("ground_field", 0), ("dual_numbers", 0), ("exterior(2)", 0),
    ("curved_matrix", F(1, 2)),
])
@pytest.mark.parametrize("variant,weight,window", [
    *(pytest.param(v, 3, (-2, 2), id=str(v)) for v in Variant),
    # at weight 5 elimination, not assembly, dominates the engine's time
    pytest.param(Variant.HOCHSCHILD, 5, (-2, 3),
                 id=f"{Variant.HOCHSCHILD}-weight5"),
])
def test_engine_matches_oracle(name, energy, variant, weight, window):
    A = builtin_algebras(name)
    trunc = Truncation(Cap(energy=energy, weight=weight, var_total=0),
                       *window)
    h = homology(A, variant, trunc)
    o = naive_oracle(A, variant, trunc)
    assert h.dims == o.dims
    assert h.betti == o.betti
    assert h.ranks == o.ranks
    # one exact representative per cycle-space dimension, each a cycle
    for d, reps in h.representatives.items():
        assert len(reps) == h.dims[d] - h.ranks[d]
        for rep in reps:
            assert all(type(c) is Fraction for c, _ in rep)
            w = Word.zero(A.module)
            for c, (mono, tup) in rep:
                w = w + Word(A.module, {tup: Scalar(A.module.ctx, {mono: c})})
            assert hoch_diff(A, ChainElt(w, variant), trunc.cap).is_zero()


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "odd_t-mu3"])
@pytest.mark.parametrize("variant", [Variant.HOCHSCHILD,
                                     Variant.EXTENDED_CONNES])
def test_engine_differential_matches_oracle_per_chain(name, variant):
    # every chain of the full tensor basis, coordinate by coordinate; the
    # extended basis adds the weight-0 generator, whose image is the
    # curvature.  On the full basis the Hochschild boundary matrix is the raw
    # differential, so its columns are compared with the oracle's vectors.
    # odd_t-mu3 adds ternary operations and odd coefficients
    if name == "odd_t-mu3":
        A = _odd_variable_algebra(2, mu3=True)[0]
        cap = Cap(energy=2, weight=4, var_total=1)
    else:
        A = builtin_algebras(name)
        cap = Cap(energy=3, weight=3 if name == "curved_matrix" else 4,
                  var_total=0)
    weight = cap.weight
    extended = variant is Variant.EXTENDED_CONNES
    monos = attained_monomials(A, cap)
    mdegs = [mono_degree(A.module.ctx, m) for m in monos]
    shifts = [A.module.degree(g) - 1 for g in A.module.basis]
    lo = weight * min(0, *shifts) + min(mdegs)
    hi = weight * max(0, *shifts) + max(mdegs)
    bases = chain_basis(A, _all_tuples(A.module, cap, extended), cap)
    checked = 0
    for d in range(lo, hi + 1):
        dom, cod = bases.get(d, []), bases.get(d + 1, [])
        index = {bm: i for i, bm in enumerate(cod)}
        rows, _, _ = boundary_matrix(A, Variant.HOCHSCHILD, dom, cod, cap)
        for j, (mono, tup) in enumerate(dom):
            engine = [Fraction(row.get(j, 0), A.den) for row in rows]
            oracle = naive_diff_vector(A, mono, tup, index, cap, set(),
                                       extended)
            assert engine == oracle, (mono, tup)
            checked += 1
    first = 0 if extended else 1
    assert checked == len(monos) * sum(
        len(A.module.basis) ** w for w in range(first, weight + 1))


def test_known_betti_dual_numbers_hochschild():
    # chain degree of a tuple is sum(|g| - 1): every e slot contributes -1,
    # every eps slot 0.  Degree 0 is spanned by the six all-eps tuples up to
    # the weight cap; they are cycles (eps^2 = 0) and nothing closes onto
    # them, while all positive degrees are empty
    A = builtin_algebras("dual_numbers")
    trunc = Truncation(Cap(energy=0, weight=6, var_total=0), 0, 3)
    h = homology(A, Variant.HOCHSCHILD, trunc)
    assert h.dims[0] == 6
    assert [h.betti[d] for d in range(0, 4)] == [6, 0, 0, 0]


def test_weight_cap_flags_only_surviving_terms():
    # the curvature T*I, inserted into a chain of top weight, lands beyond
    # the weight cap; the flag is raised only where such a term survives the
    # quotient, so not where the unit it carries is killed
    cap = Cap(energy=1, weight=2, var_total=0)
    for name in BUILTIN_NAMES:
        for variant in Variant:
            A = builtin_algebras(name)
            bases = chain_basis(A, canonical_tuples(A, variant, cap.weight),
                                cap)
            flags = set()
            for d, dom in bases.items():
                boundary_matrix(A, variant, dom, bases.get(d + 1, []), cap,
                                flags)
            want = (name == "curved_matrix"
                    and variant not in UNIT_KILLING_VARIANTS)
            assert flags == ({"weight-cap"} if want else set()), (name,
                                                                  variant)


def test_inconsistent_cap_raises():
    # a tight weight cap cuts the curvature insertion asymmetrically and the
    # truncated differential stops squaring to zero; homology must refuse
    A = builtin_algebras("curved_matrix")
    trunc = Truncation(Cap(energy=3, weight=2, var_total=0), -1, 1)
    with pytest.raises(ValueError, match="square"):
        homology(A, Variant.HOCHSCHILD, trunc)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        Truncation(Cap(energy=0, weight=2, var_total=0), 2, 1)
