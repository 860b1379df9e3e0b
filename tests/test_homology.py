"""Exact linear algebra, truncated chain-group bases, and the agreement of
the engine homology with the independent oracle."""

from fractions import Fraction

import pytest

from hochcyc.scalars import Cap, Scalar, mono_degree
from hochcyc.ainfty import BUILTIN_NAMES, builtin_algebras
from hochcyc.graded import Word
from hochcyc.complexes import Variant
from hochcyc.complexes import (
    ChainElt,
    canonical_tuples,
    hoch_diff,
    hoch_diff_word,
)
from hochcyc.homology import (
    Truncation,
    _all_tuples,
    _decompose,
    _word_of,
    attained_monomials,
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

F = Fraction


def _m(rows):
    return [[F(x) for x in r] for r in rows]


def test_row_reduce_and_rank():
    rows, pivots = row_reduce(_m([[2, 4], [1, 2], [0, 1]]))
    assert pivots == [0, 1]
    assert rows == _m([[1, 2], [0, 1]]) or matrix_rank(rows) == 2
    assert matrix_rank(_m([[1, 2], [2, 4]])) == 1
    assert matrix_rank([]) == 0


def test_rank_with_fractions():
    assert matrix_rank(_m([["1/2", "1/3"], ["3/2", "1"]])) == 1


def test_nullspace_is_exact_kernel():
    rows = _m([[1, 2, 3], [0, 1, 1]])
    basis = nullspace(*row_reduce(rows), 3)
    assert len(basis) == 1
    v = basis[0]
    for r in rows:
        assert sum(a * b for a, b in zip(r, v)) == 0


def test_mat_mul():
    a = _m([[1, 2]])
    b = _m([[3], [4]])
    assert mat_mul(a, b) == _m([[11]])
    assert mat_mul([], b) == []


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
            prod = mat_mul(m2, m1)
            assert all(all(x == 0 for x in row) for row in prod)


@pytest.mark.parametrize("name,energy", [
    ("ground_field", 0), ("dual_numbers", 0), ("exterior(2)", 0),
    ("curved_matrix", F(1, 2)),
])
@pytest.mark.parametrize("variant", list(Variant))
def test_engine_matches_oracle(name, energy, variant):
    A = builtin_algebras(name)
    trunc = Truncation(Cap(energy=energy, weight=3, var_total=0), -2, 2)
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


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("variant", [Variant.HOCHSCHILD,
                                     Variant.EXTENDED_CONNES])
def test_engine_differential_matches_oracle_per_chain(name, variant):
    # every chain of the full tensor basis, coordinate by coordinate; the
    # extended basis adds the weight-0 generator, whose image is the curvature
    A = builtin_algebras(name)
    weight = 3 if name == "curved_matrix" else 4
    cap = Cap(energy=3, weight=weight, var_total=0)
    extended = variant is Variant.EXTENDED_CONNES
    monos = attained_monomials(A, cap)
    mdegs = [mono_degree(A.module.ctx, m) for m in monos]
    shifts = [A.module.degree(g) - 1 for g in A.module.basis]
    lo = weight * min(0, *shifts) + min(mdegs)
    hi = weight * max(0, *shifts) + max(mdegs)
    bases = chain_basis(A, _all_tuples(A.module, cap, extended), cap)
    checked = 0
    for d in range(lo, hi + 1):
        cod = bases.get(d + 1, [])
        index = {bm: i for i, bm in enumerate(cod)}
        for mono, tup in bases.get(d, []):
            word = hoch_diff_word(A, _word_of(A, mono, tup), cap,
                                  extended=extended)
            engine = _decompose(A, word, index, cap, set())
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
