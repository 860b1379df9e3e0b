"""Exact arithmetic in the coefficient ring R = Lambda[[t_0, ..., t_N]].

A scalar is a finite rational combination of monomials ``T^beta * prod t_i^{e_i}``
where ``beta`` ranges over a finitely generated group ``Pi = Z^rank`` equipped
with a rational area functional ``omega`` (nonnegative on admitted exponents)
and an even integer Maslov functional.  The ring carries

* a grading: ``deg(T^beta) = maslov(beta)``, ``deg(t_i) = |t_i|``,
* a valuation: ``nu(T^beta prod t_i^{e_i}) = omega(beta) + sum_i e_i``,
* graded-commutative multiplication (odd-degree variables anticommute and
  square to zero),
* formal graded partial derivatives in each variable.

Everything is exact rational arithmetic; no floats.  Coefficients are stored
as reduced ``Fraction`` values, except in the operator layer: an ``AInfty``
and every operation family (``ainfty.OCFamily``) compile their operations
once into integer numerators over one denominator, in the form of the
cached per-tuple operator images, flat tuples of (output tuple, monomial,
integer numerator) triples, and the one operator kernel
(``ainfty.apply_images``), given the operator's parity, multiplies and sums
Python ints on integer words keyed monomial first, ``{monomial: {tuple:
numerator}}``.  Its Word
wrapper (``ainfty.combine_basis_images``) scales a word's coefficients to
integers over one common denominator, regroups them by monomial, and turns
each output term back into one reduced ``Fraction``.  Monomial valuation,
parity and product are ``Context`` methods, memoized per context.  A
``Cap`` decides in one place, ``Cap.admits``, which monomials a truncated
computation keeps; the others are silently dropped by the arithmetic, so
downstream identities are exact up to the cap, which callers record in
their reports.

Signs have one rule: an odd operator, or a crossing past an odd stretch of
tensor slots, passes a coefficient c as ``c.twist()``, (-1)^{|c|} per
monomial, so c need not be homogeneous (as in the integer kernel).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

#: Valuation of the zero scalar.  The paper's infimum runs over a nonempty
#: support only; extending by +infinity makes the valuation laws total.
INFINITY = math.inf

Monomial = tuple[tuple[int, ...], tuple[int, ...]]


class PiGroup(namedtuple("PiGroup", "rank omega maslov")):
    """The group Pi presented as Z^rank with area and Maslov functionals.

    ``omega`` and ``maslov`` list the values of the two functionals on the
    standard generators.  Maslov values must be even so that ``T^beta`` has
    even degree for every ``beta``.
    """

    __slots__ = ()

    def __new__(cls, rank: int, omega, maslov):
        if len(omega) != rank or len(maslov) != rank:
            raise ValueError("omega and maslov need one value per generator")
        omega = tuple(Fraction(w) for w in omega)
        for m in maslov:
            if m % 2 != 0:
                raise ValueError("maslov values must be even")
        return super().__new__(cls, rank, omega, maslov)

    def area(self, beta) -> Fraction:
        return sum((c * w for c, w in zip(beta, self.omega)), Fraction(0))

    def index(self, beta) -> int:
        return sum(c * m for c, m in zip(beta, self.maslov))


class FormalVarSpec(namedtuple("FormalVarSpec", "degrees")):
    """Degrees of the formal variables t_0, ..., t_N."""

    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.degrees)


class Context:
    """Shared coefficient-ring data: the group Pi and the formal variables,
    with per-instance memo caches of monomial valuation, parity and product
    that take no part in equality or hashing."""

    __slots__ = ("pi", "tvars", "_vcache", "_pcache", "_mcache")

    def __init__(self, pi: PiGroup, tvars: FormalVarSpec):
        self.pi, self.tvars = pi, tvars
        self._vcache, self._pcache, self._mcache = {}, {}, {}

    def __eq__(self, other):
        return (type(other) is Context
                and (self.pi, self.tvars) == (other.pi, other.tvars))

    def __hash__(self):
        return hash((self.pi, self.tvars))

    def __repr__(self):
        return f"Context(pi={self.pi!r}, tvars={self.tvars!r})"

    @property
    def zero_beta(self) -> tuple[int, ...]:
        return (0,) * self.pi.rank

    @property
    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * self.tvars.count

    def mono_valuation(self, mono) -> Fraction:
        """Valuation of a monomial, memoized per context instance."""
        v = self._vcache.get(mono)
        if v is None:
            v = self._vcache[mono] = self.pi.area(mono[0]) + sum(mono[1])
        return v

    def mono_parity(self, mono) -> int:
        """Degree mod 2 of a monomial, memoized per context instance."""
        p = self._pcache.get(mono)
        if p is None:
            p = self._pcache[mono] = mono_degree(self, mono) % 2
        return p

    def mono_mul(self, m1, m2):
        """Product of two monomials in canonical (ascending-index) order,
        memoized per context instance.

        Returns ``(monomial, sign_exponent)`` or ``None`` when an odd-degree
        variable squares.  The sign exponent counts, mod 2, the
        transpositions of odd-degree variables needed to merge the second
        factor into the first.
        """
        key = (m1, m2)
        try:
            return self._mcache[key]
        except KeyError:
            out = self._mcache[key] = _mono_mul_impl(self, m1, m2)
            return out


class Cap(namedtuple("Cap", "energy weight var_total")):
    """Finite truncation data: energy bound, tensor weight bound, variable bound."""

    __slots__ = ()

    def __new__(cls, energy, weight: int, var_total: int):
        energy = Fraction(energy)
        if energy < 0 or weight < 0 or var_total < 0:
            raise ValueError("cap components must be nonnegative")
        return super().__new__(cls, energy, weight, var_total)

    def admits(self, ctx: Context, mono) -> bool:
        """Whether a monomial survives the cap: valuation at most ``energy``
        and variable total at most ``var_total``."""
        return (ctx.mono_valuation(mono) <= self.energy
                and sum(mono[1]) <= self.var_total)


#: Context with trivial Pi and no formal variables; scalars are then plain
#: rationals.
TRIVIAL_CONTEXT = Context(PiGroup(0, (), ()), FormalVarSpec(()))


def mono_degree(ctx: Context, mono: Monomial) -> int:
    beta, exps = mono
    return ctx.pi.index(beta) + sum(
        e * d for e, d in zip(exps, ctx.tvars.degrees)
    )


def accumulate(out: dict, items) -> dict:
    """Add ``(key, value)`` pairs into ``out`` in place and return it.

    A key whose sum becomes zero is removed, so ``out`` only ever holds
    nonzero values.  Values are ``Fraction``s or ``Scalar``s, or anything
    else with ``+`` and a truth value that is false exactly at zero."""
    for key, value in items:
        old = out.get(key)
        if old is not None:
            value = old + value
        if value:
            out[key] = value
        elif old is not None:
            del out[key]
    return out


def _mono_mul_impl(ctx: Context, m1: Monomial, m2: Monomial):
    beta = tuple(x + y for x, y in zip(m1[0], m2[0]))
    degs = ctx.tvars.degrees
    e1, e2 = m1[1], m2[1]
    odd = [i for i, d in enumerate(degs) if d % 2]
    sign = 0
    for j in odd:
        if e2[j]:
            if e1[j]:
                return None
            sign += sum(e1[i] for i in odd if i > j)
    exps = tuple(x + y for x, y in zip(e1, e2))
    return (beta, exps), sign % 2


class Scalar:
    """An element of R: a finite map from monomials to nonzero rationals."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        self.ctx = ctx
        clean = []
        rank = ctx.pi.rank
        nvars = ctx.tvars.count
        degs = ctx.tvars.degrees
        for (beta, exps), c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            beta = tuple(beta)
            exps = tuple(exps)
            if len(beta) != rank or len(exps) != nvars:
                raise ValueError("monomial shape does not match the context")
            if ctx.pi.area(beta) < 0:
                raise ValueError("omega(beta) < 0 is not admitted")
            if any(e < 0 for e in exps):
                raise ValueError("negative variable exponent")
            if any(e > 1 for e, d in zip(exps, degs) if d % 2):
                raise ValueError("odd-degree variable with exponent > 1")
            clean.append(((beta, exps), c))
        self.terms = accumulate({}, clean)

    # -- constructors -------------------------------------------------------

    @classmethod
    def _raw(cls, ctx: Context, terms: dict) -> "Scalar":
        """Internal fast path: wrap an already-clean term dict (canonical
        monomial keys, nonzero Fractions) without re-validation."""
        s = object.__new__(cls)
        s.ctx = ctx
        s.terms = terms
        return s

    @classmethod
    def zero(cls, ctx: Context) -> "Scalar":
        return cls._raw(ctx, {})

    @classmethod
    def one(cls, ctx: Context) -> "Scalar":
        return cls.rational(ctx, 1)

    @classmethod
    def rational(cls, ctx: Context, c) -> "Scalar":
        # the zero monomial always has the context's shape
        c = Fraction(c)
        return cls._raw(ctx, {(ctx.zero_beta, ctx.zero_exps): c} if c else {})

    @classmethod
    def monomial(cls, ctx: Context, c, beta=None, exps=None) -> "Scalar":
        beta = ctx.zero_beta if beta is None else tuple(beta)
        exps = ctx.zero_exps if exps is None else tuple(exps)
        return cls(ctx, {(beta, exps): Fraction(c)})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __add__(self, other: "Scalar") -> "Scalar":
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        return Scalar._raw(self.ctx,
                           accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def scale(self, c) -> "Scalar":
        c = Fraction(c)
        if not c:
            return Scalar._raw(self.ctx, {})
        return Scalar._raw(self.ctx,
                           {m: q * c for m, q in self.terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        return scalar_mul(self, other, None)

    # -- ring invariants ----------------------------------------------------

    def valuation(self):
        """min over monomials of omega(beta) + sum(e_i); +inf for zero."""
        if not self.terms:
            return INFINITY
        return min(map(self.ctx.mono_valuation, self.terms))

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero scalar has no degree")
        degrees = {mono_degree(self.ctx, m) for m in self.terms}
        if len(degrees) > 1:
            raise ValueError("degree of a non-homogeneous scalar")
        return degrees.pop()

    def degree_parity(self) -> int:
        """Degree mod 2; zero counts as even (used only in sign exponents)."""
        if not self.terms:
            return 0
        parity = self.ctx.mono_parity
        parities = {parity(m) for m in self.terms}
        if len(parities) > 1:
            raise ValueError("degree parity of a non-homogeneous scalar")
        return parities.pop()

    def twist(self) -> "Scalar":
        """The grading involution: each monomial m times (-1)^{|m|}; the
        scalar itself when no monomial is odd."""
        parity = self.ctx.mono_parity
        if not any(map(parity, self.terms)):
            return self
        return Scalar._raw(self.ctx, {m: -c if parity(m) else c
                                      for m, c in self.terms.items()})

    def truncate(self, cap: Cap | None) -> "Scalar":
        if cap is None:
            return self
        ctx = self.ctx
        return Scalar._raw(ctx, {m: c for m, c in self.terms.items()
                                 if cap.admits(ctx, m)})

    def partial_t(self, j: int) -> "Scalar":
        """Formal graded partial derivative with respect to t_j."""
        degs = self.ctx.tvars.degrees
        if not 0 <= j < len(degs):
            raise ValueError("variable index out of range")
        out = {}
        for (beta, exps), c in self.terms.items():
            e = exps[j]
            if e == 0:
                continue
            sign = 0
            if degs[j] % 2:
                sign = sum(exps[i] * degs[i] for i in range(j)) % 2
            # lowering e_j is injective on monomials, so keys never collide
            new = exps[:j] + (e - 1,) + exps[j + 1 :]
            out[(beta, new)] = c * e * (-1) ** sign
        return Scalar._raw(self.ctx, out)

    def __repr__(self):
        return f"Scalar({scalar_to_str(self)})"


def scalar_mul(a: Scalar, b: Scalar, cap: Cap | None = None) -> Scalar:
    """Graded-commutative product, truncated by ``cap`` when given."""
    if a.ctx != b.ctx:
        raise ValueError("context mismatch")
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            hit = a.ctx.mono_mul(m1, m2)
            if hit is None:
                continue
            mono, sign = hit
            v = c1 * c2
            out[mono] = out.get(mono, Fraction(0)) + (-v if sign else v)
    s = Scalar._raw(a.ctx, {m: c for m, c in out.items() if c})
    return s.truncate(cap)


# -- textual form -----------------------------------------------------------

def _fmt_fraction(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def scalar_to_str(a: Scalar) -> str:
    """Serialize as a sum of terms ``c * T^[b1,...] * t0^e0 * ...``."""
    if not a.terms:
        return "0"
    pieces = []
    for (beta, exps), c in sorted(a.terms.items()):
        factors = []
        if any(beta):
            factors.append("T^[" + ",".join(str(b) for b in beta) + "]")
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"t{i}")
            elif e > 1:
                factors.append(f"t{i}^{e}")
        if not factors or abs(c) != 1:
            factors.insert(0, _fmt_fraction(abs(c)))
        piece = " * ".join(factors)
        if not pieces:
            pieces.append(piece if c > 0 else "-" + piece)
        else:
            pieces.append(("+ " if c > 0 else "- ") + piece)
    return " ".join(pieces)


_FACTOR_RE = re.compile(
    r"""^(?:
        (?P<rat>\d+(?:/\d+)?)
      | T\^?\[(?P<beta>[-\d,\s]*)\]
      | t(?P<var>\d+)(?:\^(?P<exp>\d+))?
    )$""",
    re.VERBOSE,
)


class ScalarParseError(ValueError):
    pass


def parse_scalar(ctx: Context, text: str) -> Scalar:
    """Parse the textual grammar ``c * T^[b1,...,br] * t0^e0 * ...``.

    Terms are joined with ``+`` and ``-``, and one sign may lead the first;
    coefficients are exact rationals ``p/q``.  ``T^[...]`` and the
    coefficient may be omitted.
    """

    text = text.strip()
    if text in ("", "0"):
        return Scalar.zero(ctx)
    # split into signed terms at top level
    chunks = []
    sign = 1
    buf = ""
    depth = 0
    prev = ""
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch in "+-" and depth == 0 and prev not in ("*", "^", "/", "e"):
            if prev:  # a sign at the start leads the first term
                chunks.append((sign, buf))
            sign = 1 if ch == "+" else -1
            buf = ""
        else:
            buf += ch
        if not ch.isspace():
            prev = ch
    chunks.append((sign, buf))

    total = Scalar.zero(ctx)
    for sgn, chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise ScalarParseError(f"empty term in scalar expression: {text!r}")
        coeff = Fraction(sgn)
        beta = list(ctx.zero_beta)
        exps = list(ctx.zero_exps)
        have_beta = False
        for raw in chunk.split("*"):
            raw = raw.strip()
            m = _FACTOR_RE.match(raw)
            if not m:
                raise ScalarParseError(f"cannot parse factor {raw!r}")
            if m.group("rat") is not None:
                try:
                    coeff *= Fraction(m.group("rat"))
                except ZeroDivisionError:
                    raise ScalarParseError(
                        f"zero denominator in {raw!r}") from None
            elif m.group("beta") is not None:
                if have_beta:
                    raise ScalarParseError("repeated T factor")
                have_beta = True
                entries = [s for s in m.group("beta").split(",") if s.strip()]
                if len(entries) != ctx.pi.rank:
                    raise ScalarParseError(
                        f"T exponent has {len(entries)} entries, expected {ctx.pi.rank}"
                    )
                try:
                    beta = [int(s) for s in entries]
                except ValueError:
                    raise ScalarParseError(
                        f"T exponent entries must be integers: {raw!r}"
                    ) from None
            else:
                i = int(m.group("var"))
                if i >= ctx.tvars.count:
                    raise ScalarParseError(f"unknown variable t{i}")
                exps[i] += int(m.group("exp") or 1)
        try:
            total = total + Scalar.monomial(ctx, coeff, beta, exps)
        except ValueError as exc:
            raise ScalarParseError(f"{exc}: {chunk!r}") from None
    return total
