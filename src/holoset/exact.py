"""Exact arithmetic over real quadratic fields, planar points, and point sets.

Values a + b*sqrt(d) are stored as integers (A + B*sqrt(d))/q with
squarefree d >= 1.  All predicates (signs, comparisons, membership) are
decided exactly; floating output is derived from dyadic approximations
that carry explicit error bounds.  Values mixing the radicals of two
fields (as arise in squared distances between points whose coordinates
live in different fields) are elements of one biquadratic field
Q(sqrt(d), sqrt(e)), a :class:`RadicalSum`, whose sign is taken from
integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import chain, compress, repeat
from math import gcd, inf, isqrt, prod, ulp
from operator import is_not
from typing import Iterable, Iterator, Optional, Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)

# immutable classes are made and set their slots through these, bound once
_new = object.__new__
_setattr = object.__setattr__


class Immutable:
    """Base of the immutable ``__slots__`` classes: assigning an attribute
    raises AttributeError, and equality, hash and repr follow the slots'
    values in order (a subclass narrows equality by overriding _values)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({args})"


class FieldMismatchError(ValueError):
    """Arithmetic attempted between two distinct nontrivial quadratic fields."""


class ParseError(ValueError):
    """A textual exact-number or point row could not be parsed."""


class FloatRangeError(ValueError):
    """A point whose coordinates have no float, where one is needed."""

    def __init__(self, p: "PlanarPoint"):
        super().__init__(
            f"point ({format_quadext(p.x)}, {format_quadext(p.y)}) lies "
            f"beyond the float range"
        )


def as_fraction(x: Union[int, float, str, Fraction]) -> Fraction:
    """Coerce to an exact rational; floats are read as their decimal literal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def as_positive(x, name: str) -> Fraction:
    """``as_fraction(x)``; ValueError "<name> must be positive" unless it is."""
    v = as_fraction(x)
    if v <= 0:
        raise ValueError(f"{name} must be positive")
    return v


@lru_cache(maxsize=None)
def squarefree_split(n: int) -> tuple[int, int]:
    """Split ``n = f*f*m`` with m squarefree; returns ``(f, m)``.

    Trial division; intended for the small radicands that occur as field
    discriminants, not for cryptographic-size inputs.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    f, m = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    m *= n
    return f, m


@lru_cache(maxsize=4096)
def _isqrt_shifted(d: int, bits: int) -> int:
    return isqrt(d << (2 * bits))


def sqrt_bounds_frac(x: Fraction, bits: int = 80) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo = 2**-bits."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << (2 * bits)
    n = (x.numerator * scale) // x.denominator
    r = isqrt(n)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _radical_bits(num: int, den: int, precision_bits: int) -> int:
    """Bits of sqrt(d) that put c*sqrt(d), c = num/den in lowest terms,
    within 2**-(precision_bits+9): one extra per integer bit of |c|."""
    return precision_bits + 8 + max(0, abs(num).bit_length() - den.bit_length() + 1)


def _surd_float(A: int, B: int, q: int, d: int) -> tuple[float, float]:
    """:meth:`QuadExt.to_float` of (A + B*sqrt(d))/q, q > 0, in any terms:
    the midpoint a + b*(2s+1)/2**k of :meth:`RadicalSum.approx`, as one
    int quotient, correctly rounded as ``float(Fraction)`` is whatever the
    terms, and the bound that ``_float_with_bound`` of the test oracles
    (``tests/oracles.py``) puts on the error |b|/2**k.  Raises
    OverflowError beyond the float range.  It feeds reported floats and
    the float filters; no comparison reads it."""
    if not B:
        value = A / q
        n, m = value.as_integer_ratio()
        if n * q == A * m:
            return value, 0.0
        return value, abs(value) * 2.0**-52 + 5e-324
    g = gcd(B, q)
    m = _radical_bits(B // g, q // g, 53)
    s, k = _isqrt_shifted(d, m), m + 1
    value = ((A << k) + B * (2 * s + 1)) / (q << k)
    err = abs(B) / (q << k)
    return value, err * (1 + 2.0**-50) + (abs(value) * 2.0**-52 + 5e-324)


def _quad_sign(a: RationalLike, b: RationalLike, d: int) -> int:
    """Exact sign of a + b*sqrt(d) by comparing a*a against b*b*d."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return sb
    # Opposite signs: |a| versus |b|*sqrt(d), squared.
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:
        # Impossible for d > 1 squarefree with a, b nonzero; kept for safety.
        return 0
    return sb if rhs > lhs else -sb


def floor_surd(P: int, s: int, Q: int) -> int:
    """floor((P + sqrt(D)) / Q) given s = isqrt(D), D not a square.

    sqrt(D) lies strictly between s and s + 1, so the floor is that of
    (P + s)/Q for Q > 0; for Q < 0 the negated numerator lies strictly
    between -P - s - 1 and -P - s, and its floor over -Q is the one of
    -P - s - 1.
    """
    if Q > 0:
        return (P + s) // Q
    return (-P - s - 1) // (-Q)


class QuadExt(Immutable):
    """Immutable element a + b*sqrt(d) of a real quadratic field.

    Stored as integers (A + B*sqrt(d))/q, q > 0, gcd(A, B, q) = 1, d
    squarefree (square parts fold into B at construction), and a rational
    has B = 0 and d = 1, so equality is componentwise; a = A/q and b = B/q
    are derived.  Arithmetic requires compatible fields: rationals embed
    into any Q(sqrt(d)), but mixing two distinct nontrivial radicals raises
    :class:`FieldMismatchError`.
    """

    __slots__ = ("A", "B", "q", "d", "_fb")

    A: int
    B: int
    q: int
    d: int

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        if type(a) is not int and type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not int and type(b) is not Fraction:
            b = Fraction(b)
        if not isinstance(d, int):
            raise TypeError("radicand must be an integer")
        if d < 1:
            raise ValueError("radicand must be >= 1")
        _quad(*_fold(a.numerator, a.denominator, b.numerator, b.denominator, d), self)

    a = property(lambda self: Fraction(self.A, self.q))
    b = property(lambda self: Fraction(self.B, self.q))

    # -- basic protocol ------------------------------------------------

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self) -> str:
        return format_quadext(self)

    def __eq__(self, other) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.A, self.B, self.q, self.d) == (other.A, other.B, other.q, other.d)

    def __hash__(self) -> int:
        # a rational hashes as the int or Fraction it equals
        if self.B:
            return hash((self.A, self.B, self.q, self.d))
        return hash(self.A if self.q == 1 else Fraction(self.A, self.q))

    def __bool__(self) -> bool:
        return self.A != 0 or self.B != 0

    # -- field plumbing ------------------------------------------------

    def _common_d(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.d == 1:
            return other.d
        if other.d == 1:
            return self.d
        raise FieldMismatchError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})"
        )

    is_rational = property(lambda self: not self.B)

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "QuadExt":
        if type(other) is int:  # the common integer shift, without a lift
            return _quad(self.A + other * self.q, self.B, self.q, self.d)
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        q, r = self.q, other.q
        return _quad(self.A * r + other.A * q, self.B * r + other.B * q, q * r, d)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadExt":
        if type(other) is int:
            return _quad(self.A - other * self.q, self.B, self.q, self.d)
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        q, r = self.q, other.q
        return _quad(self.A * r - other.A * q, self.B * r - other.B * q, q * r, d)

    def __rsub__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "QuadExt":
        return _quad(-self.A, -self.B, self.q, self.d)

    def __mul__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        A, B, C, D = self.A, self.B, other.A, other.B
        return _quad(A * C + B * D * d, A * D + B * C, self.q * other.q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        # q/(A + B*sqrt(d)) = q*(A - B*sqrt(d))/(A*A - B*B*d)
        n = self.A * self.A - self.B * self.B * self.d
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return _quad(self.q * self.A, -self.q * self.B, n, self.d)

    def __truediv__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    # -- exact predicates ------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; never touches floating point."""
        return _quad_sign(self.A, self.B, self.d)

    def compare(self, other) -> int:
        """Exact three-way value comparison; works across distinct fields
        (see :func:`_compare`)."""
        lifted = _lift(other)
        if lifted is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other)}")
        return _compare(self, lifted)

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def floor(self) -> int:
        """Exact integer floor, from integers alone: B*sqrt(d) is the signed
        root of B*B*d, which is not a square (see :func:`floor_surd`)."""
        A, B, q = self.A, self.B, self.q
        if not B:
            return A // q
        s = isqrt(B * B * self.d)
        return floor_surd(A, s, q) if B > 0 else floor_surd(-A, s, -q)

    # -- approximation ---------------------------------------------------

    def to_float(self) -> tuple[float, float]:
        """Floating value with a conservative absolute error bound, so a
        certified bracket [value - bound, value + bound] of the element:
        ``GeneralRadicalSum.of(self).to_float(53)`` of the test oracles
        (``tests/oracles.py``), from the integers (see
        :func:`_surd_float`), kept by an irrational: ``float()``, so the
        CSV float column, and the float filters of ``double_cover`` and
        ``diagnostics`` share it.  ``compare`` and the ``PointSet`` sort
        take no float.  Raises OverflowError beyond the float range.
        """
        if self._fb is not None:
            return self._fb
        fb = _surd_float(self.A, self.B, self.q, self.d)
        if self.B:
            _setattr(self, "_fb", fb)
        return fb

    def __float__(self) -> float:
        if not self.B:  # to_float()[0] without building an error bound
            return self.A / self.q
        return self.to_float()[0]


def _fold(na: int, da: int, nb: int, db: int, d: int) -> tuple[int, int, int, int]:
    """(A, B, q, d) of na/da + nb/db*sqrt(d), d >= 1, d made squarefree."""
    if d > 1 and nb:
        f, d = squarefree_split(d)
        nb *= f
    A, B = na * db, nb * da
    if d == 1:
        A, B = A + B, 0
    return A, B, da * db, d


def _quad(A: int, B: int, q: int, d: int, u: Optional[QuadExt] = None) -> QuadExt:
    """(A + B*sqrt(d))/q in lowest terms, q != 0 and d squarefree (it is not
    factored again), filled into u or into a new QuadExt."""
    if u is None:
        u = _new(QuadExt)
    if not B:
        d = 1
    if q < 0:
        A, B, q = -A, -B, -q
    g = gcd(A, B, q)
    if g != 1:
        A, B, q = A // g, B // g, q // g
    _setattr(u, "A", A)
    _setattr(u, "B", B)
    _setattr(u, "q", q)
    _setattr(u, "d", d)
    _setattr(u, "_fb", None)
    return u


def as_quad(v) -> QuadExt:
    """Lift an int, Fraction, float or rational string to QuadExt; a
    QuadExt passes through unchanged."""
    return v if isinstance(v, QuadExt) else QuadExt(as_fraction(v))


def _lift(x) -> Union[QuadExt, type(NotImplemented)]:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return _quad(x.numerator, 0, x.denominator, 1)
    return NotImplemented


def _compare(u: QuadExt, v: QuadExt) -> int:
    """Exact three-way comparison of u and v.  Within one field, or
    against a rational, it is the sign of the integer difference
    (A_u*q_v - A_v*q_u) + (B_u*q_v - B_v*q_u)*sqrt(d), over q_u*q_v > 0
    (plain differences when q_u = q_v); across two fields, that of a
    :class:`RadicalSum` of Q(sqrt(d_u), sqrt(d_v))."""
    d = u.d
    if d == 1:
        d = v.d
    elif v.d != d and v.d != 1:
        return RadicalSum.of(u, -v).sign()
    q, r = u.q, v.q
    if q == r:
        return _quad_sign(u.A - v.A, u.B - v.B, d)
    return _quad_sign(u.A * r - v.A * q, u.B * r - v.B * q, d)


# -- serialization -----------------------------------------------------------


def format_quadext(u: QuadExt) -> str:
    """Canonical text form.

    Pure rationals print compactly ("2", "-1/2"); anything with a radical
    prints in the full two-part grammar with signs folded into numerators,
    e.g. "-1/1+1/1*sqrt(2)".
    """
    A, B, q = u.A, u.B, u.q
    if not B:
        return str(A) if q == 1 else f"{A}/{q}"
    ga, gb = gcd(A, q), gcd(B, q)
    return f"{A // ga}/{q // ga}+{B // gb}/{q // gb}*sqrt({u.d})"


_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_RADICAL = re.compile(rf"^(?:({_RAT})\*)?([+-]?)sqrt\((\d+)\)$")
_RE_FULL = re.compile(
    rf"^({_RAT})([+-])((?:[+-]?\d+(?:/\d+)?\*)?)sqrt\((\d+)\)$"
)


# The largest radicand parse_quadext accepts.  squarefree_split trial-
# divides up to the square root, so this bound keeps every split to well
# under a second.
MAX_RADICAND = 10**6


def _radicand(tok: str, text: str) -> int:
    n = int(tok)
    if n > MAX_RADICAND:
        raise ParseError(f"radicand of {text!r} exceeds {MAX_RADICAND}")
    if n < 1:
        raise ParseError(f"radicand of {text!r} must be >= 1")
    return n


def _parse_rat(tok: str) -> tuple[int, int]:
    num, _, den = tok.partition("/")
    den = int(den) if den else 1
    if not den:
        raise ParseError(f"bad rational {tok!r}")
    return int(num), den


def parse_quadext(text: str) -> QuadExt:
    """Parse the exact-number grammar.

    Accepts the canonical full form ("a/b+c/d*sqrt(n)"), bare rationals
    ("3", "-1/2") and bare radicals ("sqrt(2)", "-3/4*sqrt(5)"), with
    unit parts omitted ("1+sqrt(2)").
    """
    s = text.strip().replace(" ", "")
    if not s:
        raise ParseError("empty exact-number token")
    m = _RE_RATIONAL.match(s)
    if m:
        num, den = _parse_rat(m.group(1))
        return _quad(num, 0, den, 1)
    m = _RE_RADICAL.match(s)
    if m:
        nb, db = _parse_rat(m.group(1)) if m.group(1) else (1, 1)
        if m.group(2) == "-":
            nb = -nb
        return _quad(*_fold(0, 1, nb, db, _radicand(m.group(3), text)))
    m = _RE_FULL.match(s)
    if m:
        na, da = _parse_rat(m.group(1))
        btok = m.group(3)
        nb, db = _parse_rat(btok[:-1]) if btok else (1, 1)
        if m.group(2) == "-":
            nb = -nb
        return _quad(*_fold(na, da, nb, db, _radicand(m.group(4), text)))
    raise ParseError(f"cannot parse exact number {text!r}")


# -- sums of radicals in one biquadratic field -------------------------------


class RadicalSum(Immutable):
    """Element (A + B*sqrt(d) + C*sqrt(e) + D*sqrt(d)*sqrt(e))/q of one
    field Q(sqrt(d), sqrt(e)): the value every exact decision about a set
    with one radical per axis forms (norms, distances, cross and dot
    products, comparisons across the two axes' fields).

    Stored as integers in lowest terms with q > 0.  d < e are the two
    smallest radicands of the nonzero terms, each squarefree; a value with
    one radical keeps C = D = 0 and e = 1, and a rational also d = 1.  The
    form is canonical, so equality and hashing are componentwise.  A value
    whose terms no one such field holds raises :class:`FieldMismatchError`.
    """

    __slots__ = ("A", "B", "C", "D", "q", "d", "e")

    @classmethod
    def of(cls, *values: Union[QuadExt, Fraction, int]) -> "RadicalSum":
        """The sum of the values."""
        return _sum_of_products(*((1, v, 1) for v in values))

    @property
    def terms(self) -> dict[int, Fraction]:
        """The coefficient of each nonzero term, by squarefree radicand."""
        nums, q = _numerators(self)
        return {r: Fraction(n, q) for r, n in nums.items()}

    is_zero = property(lambda self: self.d == 1 and not self.A)

    def __add__(self, other) -> "RadicalSum":
        return _sum_of_products((1, self, 1), (1, other, 1))

    def __sub__(self, other) -> "RadicalSum":
        return _sum_of_products((1, self, 1), (-1, other, 1))

    def __mul__(self, other) -> "RadicalSum":
        return _sum_of_products((1, self, other))

    def approx(self, precision_bits: int = 53) -> tuple[Fraction, Fraction]:
        """Dyadic midpoint plus rigorous error bound for the sum: each
        sqrt(d) lies within 2**-k of (2s+1)/2**k, s = isqrt(d << 2*m) and
        k = m + 1, with m bits from :func:`_radical_bits`, so each term's
        error stays below 2**-(precision_bits+9)."""
        mid = err = _ZERO
        for d, c in self.terms.items():
            if d == 1:
                mid += c
                continue
            m = _radical_bits(c.numerator, c.denominator, precision_bits)
            scale = 1 << (m + 1)
            mid += c * Fraction(2 * _isqrt_shifted(d, m) + 1, scale)
            err += abs(c) / scale
        return mid, err

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}, from three integer signs: q times the
        value is alpha + beta*sqrt(e), alpha = A + B*sqrt(d) and beta =
        C + D*sqrt(d).  Unless alpha and beta have opposite signs, one of
        them decides; else alpha's sign times that of alpha*alpha -
        beta*beta*e, which lies in Q(sqrt(d)) and is not 0, as e is not a
        square there."""
        A, B, C, D, d, e = self.A, self.B, self.C, self.D, self.d, self.e
        sa, sb = _quad_sign(A, B, d), _quad_sign(C, D, d)
        if not sb:
            return sa
        if not sa or sa == sb:
            return sb
        return sa * _quad_sign(A * A + B * B * d - e * (C * C + D * D * d),
                               2 * (A * B - e * C * D), d)

    def to_quadext(self) -> QuadExt:
        """Convert back when at most one radical is present."""
        if self.e != 1:
            raise ValueError("value does not lie in a single quadratic field")
        return _quad(self.A, self.B, self.q, self.d)


def _numerators(x) -> tuple[dict[int, int], int]:
    """A RadicalSum, QuadExt or rational as the numerator of each nonzero
    term by radicand, and the denominator q they share."""
    if isinstance(x, RadicalSum):
        # sqrt(d)*sqrt(e) is g*sqrt(de/g**2), g = gcd(d, e)
        d, e = x.d, x.e
        g = gcd(d, e)
        rads = (1, d, e, d // g * (e // g))
        nums = (x.A, x.B, x.C, x.D * g)
        return {r: n for r, n in zip(rads, nums) if n}, x.q
    u = _lift(x)
    if u is NotImplemented:
        raise TypeError(f"cannot combine a RadicalSum with {type(x).__name__}")
    return ({1: u.A, u.d: u.B} if u.B else {1: u.A}), u.q


def _sum_of_products(*parts: tuple) -> RadicalSum:
    """The sum of s*x*y over the (s, x, y) in parts, each factor a
    RadicalSum, QuadExt or rational: sqrt(r)*sqrt(t) is g*sqrt(rt/g**2),
    g = gcd(r, t), squarefree again, so no radicand is factored."""
    parts = [(s, _numerators(x), _numerators(y)) for s, x, y in parts]
    q = prod(qx * qy for _, (_, qx), (_, qy) in parts)
    terms: dict[int, int] = {}
    for s, (nx, qx), (ny, qy) in parts:
        f = s * (q // (qx * qy))
        for r, n in nx.items():
            for t, k in ny.items():
                g = gcd(r, t)
                m = r // g * (t // g)
                terms[m] = terms.get(m, 0) + f * n * k * g
    return _radical_sum(terms, q)


def _radical_sum(terms: dict[int, int], q: int) -> RadicalSum:
    """The canonical RadicalSum of the sum of n*sqrt(r)/q over the items
    (r, n) of terms, r squarefree and q != 0."""
    rads = sorted(r for r, n in terms.items() if n and r != 1)
    d, e = (rads + [1, 1])[:2]
    g = gcd(d, e)
    m = d // g * (e // g)
    if rads[2:] not in ([], [m]):
        raise FieldMismatchError(
            f"radicands {rads} lie in no one field Q(sqrt(d), sqrt(e))"
        )
    # n*sqrt(m) is n*sqrt(d)*sqrt(e)/g, so all but D take the factor g
    B, C = (terms[r] if r > 1 else 0 for r in (d, e))
    D = terms.get(m, 0) if e > 1 else 0
    nums = (terms.get(1, 0) * g, B * g, C * g, D, q * g)
    h = gcd(*nums) if q > 0 else -gcd(*nums)
    rs = _new(RadicalSum)
    for name, v in zip(RadicalSum.__slots__, [n // h for n in nums] + [d, e]):
        _setattr(rs, name, v)
    return rs


def dot(u, v) -> RadicalSum:
    """Exact dot product of two planar vectors whose coordinates may lie
    in different quadratic fields."""
    return _sum_of_products((1, u[0], v[0]), (1, u[1], v[1]))


def cross(u, v) -> RadicalSum:
    """Exact 2D cross product u_x*v_y - u_y*v_x."""
    return _sum_of_products((1, u[0], v[1]), (-1, u[1], v[0]))


def norm_sq_bracket(x: QuadExt, y: QuadExt) -> tuple[float, float]:
    """x*x + y*y as a float n and a bound w with |x*x + y*y - n| <= w,
    from the :meth:`QuadExt.to_float` brackets vx +/- ex and vy +/- ey;
    (inf, inf) beyond the float range.

    |x*x - vx*vx| <= (2|vx| + ex)*ex, and likewise for y.  The two
    products and the sum round by at most 2**-53 relative each, covered by
    n*2**-50, plus 2**-1074 per operation below the normal range, covered
    by 2**-1000; the factor 1 + 2**-50 covers the rounding of w's own
    evaluation.
    """
    try:
        vx, ex = x.to_float()
        vy, ey = y.to_float()
    except OverflowError:
        return inf, inf
    n = vx * vx + vy * vy
    w = (2 * abs(vx) + ex) * ex + (2 * abs(vy) + ey) * ey + n * 2.0**-50
    w = w * (1 + 2.0**-50) + 2.0**-1000
    if not w < inf:  # also catches nan
        return inf, inf
    return n, w


def sqrt_with_error(sq: RadicalSum) -> tuple[float, float]:
    """Float square root of a nonnegative value, with an absolute error
    bound."""
    mid, err = sq.approx(120)
    lo = max(Fraction(0), mid - err)
    hi = mid + err
    s_lo = sqrt_bounds_frac(lo)[0]
    s_hi = sqrt_bounds_frac(hi)[1]
    value = float((s_lo + s_hi) / 2)
    return value, float(s_hi - s_lo) / 2 + ulp(value)


# -- planar points and point sets ---------------------------------------------


class PlanarPoint(Immutable):
    """A point with exact coordinates; x and y may live in different fields.

    The tag records provenance (which construction produced the point) and
    does not participate in equality.
    """

    __slots__ = ("x", "y", "tag")

    x: QuadExt
    y: QuadExt
    tag: Optional[str]

    def __init__(self, x: QuadExt, y: QuadExt, tag: Optional[str] = None):
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "tag", tag)

    def _values(self) -> tuple:
        return self.x, self.y

    def __iter__(self):
        return iter((self.x, self.y))

    def dist_sq(self, other: "PlanarPoint") -> RadicalSum:
        diff = (self.x - other.x, self.y - other.y)
        return dot(diff, diff)

    def norm_sq(self) -> RadicalSum:
        return dot((self.x, self.y), (self.x, self.y))


def point(x, y, tag: Optional[str] = None) -> PlanarPoint:
    """Convenience constructor lifting ints/Fractions to QuadExt."""
    xq = x if isinstance(x, QuadExt) else QuadExt(x)
    yq = y if isinstance(y, QuadExt) else QuadExt(y)
    return PlanarPoint(xq, yq, tag)


class PointSet(Immutable):
    """Finite planar point set in canonical (lexicographic) order.

    Duplicate coordinates are merged (keeping the smallest tag), and at
    most one nontrivial radical may appear per coordinate axis.  The set is
    stored as columns, the tuples xs, ys and tags; its PlanarPoints are
    built when ``points``, iteration or indexing first needs them, and a
    set built from points keeps those very objects.
    """

    __slots__ = ("xs", "ys", "tags", "_points")

    xs: tuple[QuadExt, ...]
    ys: tuple[QuadExt, ...]
    tags: tuple[Optional[str], ...]

    def __init__(self, points: Iterable[PlanarPoint]):
        pts = list(points)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        # one key per point, its coordinates' ranks; merged only when one repeats
        keys = list(zip(_ranks(xs, "x"), _ranks(ys, "y")))
        if len(set(keys)) < len(keys):
            order = _merge_duplicates(keys, pts)
        else:
            order = sorted(range(len(keys)), key=keys.__getitem__)
        pts, xs, ys = ([seq[i] for i in order] for seq in (pts, xs, ys))
        _fill(self, tuple(xs), tuple(ys), tuple(p.tag for p in pts), tuple(pts))

    @classmethod
    def _from_columns(cls, xs: tuple, ys: tuple, tags: tuple) -> "PointSet":
        """The set of columns that are in canonical order already, with no
        duplicate: nothing is checked or sorted, and no PlanarPoint is
        built."""
        return _fill(_new(cls), xs, ys, tags, None)

    @property
    def points(self) -> tuple[PlanarPoint, ...]:
        if self._points is None:
            pts = tuple(map(PlanarPoint, self.xs, self.ys, self.tags))
            _setattr(self, "_points", pts)
        return self._points

    def _values(self) -> tuple:
        return self.xs, self.ys

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self) -> Iterator[PlanarPoint]:
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __repr__(self) -> str:
        return f"PointSet({len(self.xs)} points)"


def _fill(ps: PointSet, xs, ys, tags, points) -> PointSet:
    for name, value in zip(PointSet.__slots__, (xs, ys, tags, points)):
        _setattr(ps, name, value)
    return ps


def _merge_duplicates(keys: list[tuple], pts) -> list[int]:
    """The indices of pts in key order, one per key: a stable sort puts
    the smallest tag first among equal keys (no tag is the largest, the
    first point wins a tie), and the first of each key is kept."""
    tags = [p.tag for p in pts]
    order = sorted(range(len(keys)),
                   key=lambda i: (keys[i], tags[i] is None, tags[i] or ""))
    first: dict[tuple, int] = {}
    for i in order:
        first.setdefault(keys[i], i)
    return list(first.values())


def _one_radical(us, axis: str) -> None:
    ds = {u.d for u in us} - {1}
    if len(ds) > 1:
        raise FieldMismatchError(f"{axis}-coordinates mix radicals {sorted(ds)}")


def _ranks(us: list[QuadExt], axis: str) -> list[int]:
    """Each value's rank among the distinct values of us (one radical at
    most, else FieldMismatchError): a comparison sort by :func:`_compare`,
    from integers alone, of each distinct value once, found once per
    distinct object (QuadExt hashes and tests equal by value)."""
    ids = list(map(id, us))
    objs = dict(zip(ids, us))
    _one_radical(objs.values(), axis)
    ordered = sorted(set(objs.values()), key=cmp_to_key(_compare))
    rank = {u: i for i, u in enumerate(ordered)}
    by_id = {k: rank[u] for k, u in objs.items()}
    return list(map(by_id.__getitem__, ids))


# -- CSV round trip ------------------------------------------------------------

CSV_HEADER = ("x_exact", "y_exact", "x_float", "y_float", "tag")


def _float_repr(v: float) -> str:
    return format(v, ".12g")


def _tag_cell(tag: Optional[str]) -> str:
    """The tag's CSV field, quoted as ``csv.writer`` quotes it, and also
    when it holds a carriage return, which Python 3.11's writer leaves bare
    under a "\\n" line terminator, so that the row would not read back."""
    if tag is None:
        return ""
    if any(c in tag for c in ',"\n\r'):
        return '"' + tag.replace('"', '""') + '"'
    return tag


def write_pointset_csv(ps: PointSet, fileobj) -> None:
    """Emit the canonical CSV form, a header plus one row per point: the
    bytes of ``csv.writer(fileobj, lineterminator="\\n")`` (but see
    :func:`_tag_cell`), five strings per row interleaved by slice into one
    ``join``.  Each text is built once: an x text per run of one x object
    (the set is sorted by x), a y text per y object, in a dict keyed by id
    and local to the call, since the set keeps every coordinate alive.
    """
    xs, ys, n = ps.xs, ps.ys, len(ps.xs)
    starts = list(compress(range(n), map(is_not, xs, chain((None,), xs))))
    ex, fx = [], []
    for i, j in zip(starts, starts[1:] + [n]):
        ex += repeat(format_quadext(xs[i]) + ",", j - i)
        fx += repeat(_float_repr(float(xs[i])) + ",", j - i)
    iy = list(map(id, ys))
    objs = dict(zip(iy, ys)).items()
    ey = {k: format_quadext(u) + "," for k, u in objs}
    fy = {k: _float_repr(float(u)) + "," for k, u in objs}
    tag = {t: _tag_cell(t) + "\n" for t in set(ps.tags)}
    parts = [""] * (5 * n)
    parts[0::5], parts[2::5] = ex, fx
    parts[1::5], parts[3::5] = map(ey.__getitem__, iy), map(fy.__getitem__, iy)
    parts[4::5] = map(tag.__getitem__, ps.tags)
    fileobj.write(",".join(CSV_HEADER) + "\n" + "".join(parts))


class CsvRowError(ParseError):
    """CSV rows that failed to parse, with 1-based line numbers and the
    reason the first of them failed."""

    def __init__(self, lines: list[int], reason: ValueError):
        self.lines = lines
        super().__init__(
            f"unparseable point rows at lines {lines}; line {lines[0]}: {reason}"
        )


def read_pointset_csv(fileobj) -> PointSet:
    """The set a CSV holds, read back: each distinct cell text is parsed
    once, in a dict local to the call, so the points that share a
    coordinate text share its QuadExt (and the float it keeps)."""
    import csv  # only the commands that read a CSV pay for it

    reader = csv.reader(fileobj)
    parsed: dict[str, QuadExt] = {}

    def cell(text: str) -> QuadExt:
        u = parsed.get(text)
        if u is None:
            u = parsed[text] = parse_quadext(text)
        return u

    pts: list[PlanarPoint] = []
    bad: list[int] = []
    reason = None
    for lineno, row in enumerate(reader, start=1):
        if not row or (lineno == 1 and row[0] == "x_exact"):
            continue
        try:
            if len(row) < 2:
                raise ParseError("too few columns")
            x = cell(row[0])
            y = cell(row[1])
            tag = row[4].strip() if len(row) >= 5 and row[4].strip() else None
            pts.append(PlanarPoint(x, y, tag))
        except ValueError as exc:
            bad.append(lineno)
            reason = reason or exc
    if bad:
        raise CsvRowError(bad, reason)
    return PointSet(pts)
