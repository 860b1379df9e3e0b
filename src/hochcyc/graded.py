"""Graded modules, elements and shifted tensor words, rotation and shuffle
combinatorics, and the sign calculus (eps, eps', eps'', eps_p, s_sigma,
s_sigma^[1], shuffle signs).

``Element`` (a combination of generators) and ``Word`` (a combination of
generator tuples) share one linear-combination core, ``LinearCombination``:
a module and a dict of nonzero Scalar coefficients, with sums, negation,
scaling and equality defined once.  Verification sweeps report through one
``ResidualReport``.

Degrees are stored unshifted; the shift is a view.  All sign functions return
exponents mod 2, never +-1 scalars, so that sign chases compose in the
exponent.  Note on the shift: the sign calculus only consumes parities, and
``|x| + 1`` and ``|x| - 1`` agree mod 2.  For *absolute* degree bookkeeping
(the differential raising chain degree by exactly one, the unit sitting in
shifted degree -1) the consistent choice is that a generator of degree |x|
has shifted degree |x| - 1.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from .scalars import INFINITY, Cap, Context, Scalar, accumulate, scalar_mul


class ResidualReport:
    """Outcome of a verification sweep: how many cases were checked and a
    witness for each one that failed."""

    def __init__(self, checked: int = 0, failures: list | None = None):
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# modules, elements, words
# ---------------------------------------------------------------------------


class GradedModule(namedtuple("GradedModule", "name basis degrees ctx")):
    """Finite-basis graded module; generators are named, degrees unshifted."""

    __slots__ = ()

    def __new__(cls, name: str, basis, degrees, ctx: Context):
        if len(set(basis)) != len(basis):
            raise ValueError("generator names must be unique")
        if len(degrees) != len(basis):
            raise ValueError("one degree per generator")
        return super().__new__(cls, name, basis, degrees, ctx)

    def index(self, gen: str) -> int:
        return self.basis.index(gen)

    def degree(self, gen: str) -> int:
        return self.degrees[self.basis.index(gen)]


class LinearCombination:
    """Finite sum of basis keys with nonzero Scalar coefficients over one
    module: the shared core of ``Element`` (generator keys) and ``Word``
    (tuple keys).  Sums and comparisons need two operands of the same class
    and module, so an Element and a Word never mix."""

    __slots__ = ("module", "terms")

    @classmethod
    def _raw(cls, module, terms: dict):
        """Internal fast path: wrap an already-clean term dict (valid keys,
        nonzero Scalars) without re-validation."""
        out = object.__new__(cls)
        out.module = module
        out.terms = terms
        return out

    @classmethod
    def zero(cls, module):
        return cls._raw(module, {})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.module == other.module
            and self.terms == other.terms
        )

    def __add__(self, other):
        if type(other) is not type(self):
            raise ValueError(f"cannot add {type(other).__name__} to "
                             f"{type(self).__name__}")
        if self.module != other.module:
            raise ValueError("module mismatch")
        return self._raw(self.module,
                         accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._raw(self.module, {k: -s for k, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _map(self, f):
        """Apply ``f`` to every coefficient and drop the zero results."""
        return self._raw(self.module, {k: t for k, s in self.terms.items()
                                       if (t := f(s))})

    def scale(self, c):
        return self._map(lambda s: s.scale(c))

    def items(self):
        return self.terms.items()


class Element(LinearCombination):
    """Finite scalar combination of generators of one module."""

    __slots__ = ()

    def __init__(self, module: GradedModule, terms=None):
        self.module = module
        terms = terms or {}
        for g in terms:
            if g not in module.basis:
                raise ValueError(f"unknown generator {g!r}")
        self.terms = accumulate({}, terms.items())

    @classmethod
    def generator(cls, module, gen, coeff=1):
        return cls(module, {gen: Scalar.rational(module.ctx, coeff)})

    def scalar_left(self, s: Scalar, cap: Cap | None = None) -> "Element":
        """Multiply by a scalar on the left (no sign: scalars sit in front)."""
        return self._map(lambda t: scalar_mul(s, t, cap))

    def truncate(self, cap: Cap | None) -> "Element":
        if cap is None:
            return self
        return self._map(lambda s: s.truncate(cap))

    def degree(self) -> int:
        degs = {
            self.module.degree(g) + s.degree() for g, s in self.terms.items()
        }
        if len(degs) != 1:
            raise ValueError("degree of a zero or non-homogeneous element")
        return degs.pop()

    def valuation(self):
        """Least valuation of a coefficient; +inf for zero."""
        return min((s.valuation() for s in self.terms.values()),
                   default=INFINITY)

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        body = " + ".join(f"({s!r})*{g}" for g, s in sorted(self.terms.items()))
        return f"Element({body})"


def _basis_tuple(module: GradedModule, tup) -> tuple:
    """``tup`` as a tuple of generator names of ``module``; ValueError for an
    unknown name, or for a str, which would split into one-letter names."""
    if isinstance(tup, str):
        raise ValueError(f"expected a tuple of generator names, got {tup!r}")
    tup = tuple(tup)
    for g in tup:
        if g not in module.basis:
            raise ValueError(f"unknown generator {g!r}")
    return tup


class Word(LinearCombination):
    """Element of the (shifted) tensor algebra: finite sum of basis tensors.

    Terms map generator tuples to scalars; the empty tuple is the weight-zero
    generator ``1_R``.  The scalar coefficient of every term is kept at the
    far left of the tensor, so Koszul commutation happens exactly once, when a
    coefficient is produced in the middle of a tensor and moved out.
    """

    __slots__ = ()

    def __init__(self, module: GradedModule, terms=None):
        self.module = module
        self.terms = accumulate({}, ((_basis_tuple(module, t), s)
                                     for t, s in (terms or {}).items()))

    @classmethod
    def basis_word(cls, module, tup, coeff=1):
        s = Scalar.rational(module.ctx, coeff)
        return cls._raw(module, {_basis_tuple(module, tup): s} if s else {})

    def __repr__(self):
        if not self.terms:
            return "Word(0)"
        body = " + ".join(
            f"({s!r})*{'(x)'.join(t) if t else '1'}"
            for t, s in sorted(self.terms.items())
        )
        return f"Word({body})"


def word_from_factors(module, factors, shifted: bool = True,
                      cap: Cap | None = None) -> Word:
    """Tensor together generators and elements, commuting every scalar that
    appears in the middle out to the front with the appropriate Koszul sign.

    ``factors`` is a list whose entries are generator names or Elements.  With
    ``shifted`` the crossings are weighted by shifted parities (boundary-type
    slots); otherwise by unshifted parities (interior-type slots).
    """

    ctx = module.ctx
    shift = 1 if shifted else 0
    terms = {(): Scalar.one(ctx)}
    # distinct (term, generator) pairs extend to distinct tuples, so no two
    # products land on the same key, and every value is nonzero
    for f in factors:
        if isinstance(f, str):
            terms = {tup + (f,): c for tup, c in terms.items()}
            continue
        new = {}
        for tup, c in terms.items():
            par = sum(module.degree(g) + shift for g in tup) % 2
            for g, s in f.items():
                val = scalar_mul(c, s.twist() if par else s, cap)
                if val:
                    new[tup + (g,)] = val
        terms = new
    return Word._raw(module, terms)


def map_on_generators(images: dict, el: Element, module: GradedModule,
                      odd: bool) -> Element:
    """The linear map sending each generator g to ``images[g]`` (zero when
    absent), applied to ``el``; coefficients stay in front.  An ``odd`` map
    passes a coefficient c as ``c.twist()``: (-1)^{|c|} per monomial."""
    out = Element.zero(module)
    for g, s in el.items():
        if g in images:
            out = out + images[g].scalar_left(s.twist() if odd else s)
    return out


class ChainComplex:
    """A graded module with a differential given on generators."""

    def __init__(self, module: GradedModule, diff: dict[str, Element]):
        self.module = module
        self.diff = {g: e for g, e in diff.items() if not e.is_zero()}
        for g, e in self.diff.items():
            if e.degree() != module.degree(g) + 1:
                raise ValueError(f"differential is not of degree +1 on {g!r}")

    def d(self, el: Element) -> Element:
        """Differential on an element; odd operator, scalars pass with a sign."""
        return map_on_generators(self.diff, el, self.module, odd=True)


# ---------------------------------------------------------------------------
# rotations and shuffles
# ---------------------------------------------------------------------------


def rotation_perm(k: int, j: int):
    """The cyclic permutation sending position i to i + j (0-based image list)."""
    return [(i + j) % k for i in range(k)]


def s_perm(degrees, perm) -> int:
    """Weighted permutation sign exponent (mod 2) of the reordering a -> a^sigma.

    ``perm[i]`` is the original index of the element landing in slot i.
    """
    k = len(perm)
    s = 0
    for i in range(k):
        for j in range(i + 1, k):
            if perm[i] > perm[j]:
                s += degrees[perm[i]] * degrees[perm[j]]
    return s % 2


def rotate(tup, degrees, j: int):
    """Rotate a tuple by ``j`` (element j comes first); returns the rotated
    tuple with both sign exponents ``(s_sigma, s_sigma^[1])``.

    The rotation moves the block ``tup[j:]`` past ``tup[:j]``, so the signs
    are products of the two blocks' total degrees, unshifted for s_sigma
    and shifted (one more per slot) for s_sigma^[1]."""
    tup = tuple(tup)
    k = len(tup)
    if k == 0:
        return tup, 0, 0
    j %= k
    head, tail = sum(degrees[:j]), sum(degrees[j:])
    return (tup[j:] + tup[:j], (head * tail) % 2,
            ((head + j) * (tail + k - j)) % 2)


def rotations(tup, degrees) -> list:
    """The orbit ``[(rotation by j, s_sigma^[1]) for j < max(k, 1)]`` of a
    tuple with slot degrees ``degrees``, signed as by ``rotate``."""
    sp = [0]
    for d in degrees:
        sp.append(sp[-1] ^ (d + 1) & 1)
    return [(tup[j:] + tup[:j], sp[j] * (1 - sp[-1]))
            for j in range(max(len(tup), 1))]


def shuffle_sign(degrees, I, J) -> int:
    """Sign exponent of the shuffle reordering the concatenation I o J into
    ascending order; I, J are disjoint 0-based index collections."""
    I = sorted(I)
    J = sorted(J)
    if set(I) & set(J):
        raise ValueError("I and J overlap")
    if set(I) | set(J) != set(range(len(degrees))):
        raise ValueError("I and J must partition the index set")
    perm = I + J
    return s_perm(list(degrees), perm)


# ---------------------------------------------------------------------------
# the eps-family of sign exponents
# ---------------------------------------------------------------------------


def eps_prime(k: int) -> int:
    return (k * (k + 1) // 2 + 1) % 2


def eps_dprime(degrees) -> int:
    return sum((j + 1) * d for j, d in enumerate(degrees)) % 2


def eps(degrees) -> int:
    return (1 + sum((j + 1) * (d + 1) for j, d in enumerate(degrees))) % 2


def eps_p_prime(k: int, n: int) -> int:
    return (k * n + k * (k + 1) // 2) % 2


def eps_p_dprime(degrees, n: int) -> int:
    total = sum(degrees)
    return (n * total + sum((j + 1) * d for j, d in enumerate(degrees))) % 2


def eps_p(degrees, n: int) -> int:
    return sum((n + j + 1) * (d + 1) for j, d in enumerate(degrees)) % 2


# ---------------------------------------------------------------------------
# the sign-lemma suite
# ---------------------------------------------------------------------------


def _record(report: ResidualReport, name, data, lhs, rhs) -> None:
    """Count one sign congruence lhs = rhs (mod 2), keeping it on failure."""
    report.checked += 1
    if lhs % 2 != rhs % 2:
        report.failures.append({"identity": name, "input": data,
                                "lhs": lhs % 2, "rhs": rhs % 2})


def _check_rotation_identity(report, degrees, n):
    k = len(degrees)
    for j in range(k):
        perm = rotation_perm(k, j)
        rot = [degrees[p] for p in perm]
        rhs = 0
        for a in range(k):
            for b in range(a + 1, k):
                if perm[a] > perm[b]:
                    rhs += degrees[perm[b]] - degrees[perm[a]]
        # the paper's convention sums (|a_{sigma(i)}| - |a_{sigma(j)}|) over
        # inversions j < i with sigma(j) > sigma(i); mod 2 the orientation of
        # the difference is immaterial
        _record(report, "rotation-eps_p", (tuple(degrees), j),
                eps_p(rot, n) - eps_p(degrees, n), rhs)
        _record(report, "rotation-eps", (tuple(degrees), j),
                eps(rot) - eps(degrees), rhs)


def _check_splitting_identities(report, degrees, gamma_j, n):
    k = len(degrees)
    total = sum(degrees) % 2
    for k2 in range(0, k + 1):
        k1 = k + 1 - k2
        _record(
            report, "split-eps'", (k, k2),
            eps_prime(k1) + eps_prime(k2),
            eps_prime(k) + k + k1 * k2,
        )
        _record(
            report, "split-eps_p'", (k, k2, n),
            eps_p_prime(k1, n) + eps_prime(k2),
            eps_p_prime(k, n) + k + k1 * k2 + k2 * n + n,
        )
        for i in range(1, k - k2 + 2):  # 1-based start of the middle block
            a1 = degrees[: i - 1]
            a2 = degrees[i - 1: i - 1 + k2]
            a3 = degrees[i - 1 + k2:]
            merged = list(a1) + [(sum(a2) + gamma_j + k2) % 2] + list(a3)
            d1 = sum(a1) % 2
            d2 = sum(a2) % 2
            d3 = sum(a3) % 2
            _record(
                report, "split-eps''", (tuple(degrees), i, k2, gamma_j),
                eps_dprime(merged) + eps_dprime(a2),
                eps_dprime(degrees) + i * k2 + k2 * d3 + total + d1
                + i * gamma_j,
            )
            _record(
                report, "split-eps", (tuple(degrees), i, k2, gamma_j),
                eps(merged) + eps(a2),
                eps(degrees) + total + k + d1 + i * gamma_j + k2 * d3
                + k1 * k2 + i * k2,
            )
            _record(
                report, "split-eps_p''", (tuple(degrees), i, k2, gamma_j, n),
                eps_p_dprime(merged, n) + eps_dprime(a2),
                eps_p_dprime(degrees, n) + (i + n) * k2 + k2 * d3 + total
                + d1 + (i + n) * gamma_j,
            )
            _record(
                report, "split-eps_p", (tuple(degrees), i, k2, gamma_j, n),
                eps_p(merged, n) + eps(a2),
                eps_p(degrees, n) + total + k + d1 + (i + n) * gamma_j
                + k2 * d3 + k1 * k2 + i * k2 + n,
            )


def lemma_sign_suite(k: int, n: int, trials: int = 0, seed: int = 0) -> ResidualReport:
    """Exhaustively check the rotation and splitting sign congruences for all
    parity vectors up to length ``k``, plus optional random degree draws from
    {-2, ..., 3} (the identities only see parities; the range is recorded for
    reproducibility)."""

    report = ResidualReport()
    for length in range(0, k + 1):
        for parities in itertools.product((0, 1), repeat=length):
            _check_rotation_identity(report, list(parities), n)
            for gamma_j in (0, 1):
                _check_splitting_identities(report, list(parities), gamma_j, n)
    rng = random.Random(seed)
    for _ in range(trials):
        length = rng.randint(1, max(k, 1))
        degrees = [rng.randint(-2, 3) for _ in range(length)]
        _check_rotation_identity(report, degrees, n)
        for gamma_j in (0, 1):
            _check_splitting_identities(report, degrees, gamma_j, n)
    return report
