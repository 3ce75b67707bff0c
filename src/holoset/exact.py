"""Exact arithmetic over real quadratic fields, planar points, and point sets.

Values a + b*sqrt(d) are stored as integers (A + B*sqrt(d))/q with
squarefree d >= 1.  All predicates (signs, comparisons, membership) are
decided exactly; floating output is derived from dyadic approximations
that carry explicit error bounds.  Sums mixing several radicals (as arise
in squared distances between points whose coordinates live in different
fields) are handled by :class:`RadicalSum`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import islice
from math import gcd, inf, isqrt, ulp
from operator import lt
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


def _surd_float(A: int, B: int, q: int, d: int, bits: int = 53) -> tuple[float, float]:
    """:meth:`QuadExt.to_float` of (A + B*sqrt(d))/q, q > 0, in any terms:
    the midpoint a + b*(2s+1)/2**k of :meth:`RadicalSum.approx`, as one
    int quotient, correctly rounded as ``float(Fraction)`` is whatever the
    terms, and the bound of :func:`_float_with_bound` for the error
    |b|/2**k.  Raises OverflowError beyond the float range.  It feeds
    reported floats and the float filters; no comparison reads it."""
    if not B:
        value = A / q
        n, m = value.as_integer_ratio()
        if n * q == A * m:
            return value, 0.0
        return value, abs(value) * 2.0**-52 + 5e-324
    g = gcd(B, q)
    m = _radical_bits(B // g, q // g, bits)
    s, k = _isqrt_shifted(d, m), m + 1
    value = ((A << k) + B * (2 * s + 1)) / (q << k)
    err = abs(B) / (q << k)
    return value, err * (1 + 2.0**-50) + (abs(value) * 2.0**-52 + 5e-324)


def _float_with_bound(mid: Fraction, err: Fraction) -> tuple[float, float]:
    """float(mid) with a conservative bound on its distance to a value
    known to lie within err of mid."""
    value = float(mid)
    if err == 0 and Fraction(value) == mid:
        return value, 0.0
    # float(mid) is correctly rounded: one half-ulp of conversion error.
    conv = abs(value) * 2.0 ** -52 + 5e-324
    return value, float(err) * (1 + 2.0 ** -50) + conv


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
        return hash((self.A, self.B, self.q, self.d) if self.B else self.a)

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

    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        """Floating value with a conservative absolute error bound, so a
        certified bracket [value - bound, value + bound] of the element:
        ``RadicalSum.of(self).to_float(precision_bits)``, from the integers
        (see :func:`_surd_float`), the 53-bit one kept by an irrational:
        ``float()``, so the CSV float column, and the float filters of
        ``double_cover`` and ``diagnostics`` share it.  ``compare`` and the
        ``PointSet`` sort take no float.  Raises OverflowError beyond the
        float range.
        """
        if precision_bits == 53 and self._fb is not None:
            return self._fb
        if precision_bits < 24:
            raise ValueError("precision_bits must be >= 24")
        fb = _surd_float(self.A, self.B, self.q, self.d, precision_bits)
        if precision_bits == 53 and self.B:
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
    :class:`RadicalSum`."""
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
# divides up to the square root, and a product of two radicands (as a
# mixed-field RadicalSum forms) is split too, so this bound keeps every
# split to well under a second.
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


# -- sums of several radicals -------------------------------------------------


class RadicalSum(Immutable):
    """Finite sum of c_k * sqrt(d_k) with distinct squarefree d_k >= 1.

    Closed under ring operations (products reduce sqrt(d1)*sqrt(d2) to a
    single squarefree radical), with an exact zero test by linear
    independence of distinct squarefree radicals over Q.  Signs of nonzero
    values are decided by escalating dyadic intervals.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[int, Fraction]] = None):
        clean: dict[int, Fraction] = {}
        for d, c in (terms or {}).items():
            if d != 1 and c:
                f, d = squarefree_split(d)
                c *= f
            clean[d] = clean.get(d, _ZERO) + c
        _setattr(self, "_terms", {d: c for d, c in clean.items() if c})

    @classmethod
    def _squarefree(cls, terms: dict[int, Fraction]) -> "RadicalSum":
        """The sum of terms whose radicands are squarefree already, as the
        ring operations make them: none is factored again."""
        rs = cls.__new__(cls)
        _setattr(rs, "_terms", {d: c for d, c in terms.items() if c})
        return rs

    @classmethod
    def of(cls, *values: Union[QuadExt, Fraction, int]) -> "RadicalSum":
        terms: dict[int, Fraction] = {}
        for v in values:
            if isinstance(v, QuadExt):
                terms[1] = terms.get(1, _ZERO) + v.a
                if v.B:
                    terms[v.d] = terms.get(v.d, _ZERO) + v.b
            else:
                terms[1] = terms.get(1, _ZERO) + Fraction(v)
        return cls._squarefree(terms)

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "RadicalSum(0)"
        bits = []
        for d in sorted(self._terms):
            c = self._terms[d]
            bits.append(str(c) if d == 1 else f"{c}*sqrt({d})")
        return f"RadicalSum({' + '.join(bits)})"

    def __eq__(self, other) -> bool:
        other = _lift_rs(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other) -> "RadicalSum":
        other = _lift_rs(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, _ZERO) + c
        return RadicalSum._squarefree(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum._squarefree({d: -c for d, c in self._terms.items()})

    def __sub__(self, other) -> "RadicalSum":
        other = _lift_rs(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RadicalSum":
        other = _lift_rs(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "RadicalSum":
        other = _lift_rs(other)
        if other is NotImplemented:
            return NotImplemented
        # d1/g and d2/g are coprime and squarefree, so their product is too
        terms: dict[int, Fraction] = {}
        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g = gcd(d1, d2)
                m = (d1 // g) * (d2 // g)
                terms[m] = terms.get(m, _ZERO) + c1 * c2 * g
        return RadicalSum._squarefree(terms)

    __rmul__ = __mul__

    def approx(self, precision_bits: int = 53) -> tuple[Fraction, Fraction]:
        """Dyadic midpoint plus rigorous error bound for the sum: each
        sqrt(d) lies within 2**-k of (2s+1)/2**k, s = isqrt(d << 2*m) and
        k = m + 1, with m bits from :func:`_radical_bits`, so each term's
        error stays below 2**-(precision_bits+9)."""
        mid = err = _ZERO
        for d, c in self._terms.items():
            if d == 1:
                mid += c
                continue
            m = _radical_bits(c.numerator, c.denominator, precision_bits)
            scale = 1 << (m + 1)
            mid += c * Fraction(2 * _isqrt_shifted(d, m) + 1, scale)
            err += abs(c) / scale
        return mid, err

    def _split(self) -> tuple[Fraction, list[tuple[int, Fraction]]]:
        """The rational part and the (d, c) terms with d > 1."""
        irr = [(d, c) for d, c in self._terms.items() if d != 1]
        return self._terms.get(1, Fraction(0)), irr

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; 0 only for the zero sum.

        Square roots of distinct squarefree integers are linearly
        independent over Q (Besicovitch 1940), so a sum with nonempty
        terms is nonzero.  Its dyadic error bound shrinks to 0 as the
        precision doubles from 64 bits, so the loop below terminates.
        """
        rat, irr = self._split()
        if len(irr) <= 1:
            d, c = irr[0] if irr else (1, Fraction(0))
            return _quad_sign(rat, c, d)
        bits = 64
        while True:
            mid, err = self.approx(bits)
            if mid > err:
                return 1
            if mid < -err:
                return -1
            bits *= 2

    def to_quadext(self) -> QuadExt:
        """Convert back when at most one radical is present."""
        a, irr = self._split()
        if len(irr) > 1:
            raise ValueError("value does not lie in a single quadratic field")
        if not irr:
            return QuadExt(a)
        d, c = irr[0]
        return QuadExt(a, c, d)

    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        return _float_with_bound(*self.approx(precision_bits))

    def __float__(self) -> float:
        return self.to_float()[0]


def _lift_rs(x) -> Union[RadicalSum, type(NotImplemented)]:
    if isinstance(x, RadicalSum):
        return x
    if isinstance(x, (QuadExt, int, Fraction)):
        return RadicalSum.of(x)
    return NotImplemented


def dot(u, v) -> RadicalSum:
    """Exact dot product of two planar vectors whose coordinates may lie
    in different quadratic fields."""
    return RadicalSum.of(u[0]) * RadicalSum.of(v[0]) + RadicalSum.of(
        u[1]
    ) * RadicalSum.of(v[1])


def cross(u, v) -> RadicalSum:
    """Exact 2D cross product u_x*v_y - u_y*v_x."""
    return RadicalSum.of(u[0]) * RadicalSum.of(v[1]) - RadicalSum.of(
        u[1]
    ) * RadicalSum.of(v[0])


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

    def negate(self) -> "PlanarPoint":
        return PlanarPoint(-self.x, -self.y, self.tag)

    def dist_sq(self, other: "PlanarPoint") -> RadicalSum:
        dx = self.x - other.x
        dy = self.y - other.y
        return RadicalSum.of(dx * dx, dy * dy)

    def norm_sq(self) -> RadicalSum:
        return RadicalSum.of(self.x * self.x, self.y * self.y)


def point(x, y, tag: Optional[str] = None) -> PlanarPoint:
    """Convenience constructor lifting ints/Fractions to QuadExt."""
    xq = x if isinstance(x, QuadExt) else QuadExt(x)
    yq = y if isinstance(y, QuadExt) else QuadExt(y)
    return PlanarPoint(xq, yq, tag)


class PointSet(Immutable):
    """Finite planar point set in canonical (lexicographic) order.

    Duplicate coordinates are merged (keeping the smallest tag), and the
    ambient coordinate fields (d_x, d_y) are derived from the data: at most
    one nontrivial radical may appear per coordinate axis.  The set is
    stored as columns, the tuples xs, ys and tags; its PlanarPoints are
    built when ``points``, iteration or indexing first needs them, and a
    set built from points keeps those very objects.
    """

    __slots__ = ("xs", "ys", "tags", "d_x", "d_y", "_points")

    xs: tuple[QuadExt, ...]
    ys: tuple[QuadExt, ...]
    tags: tuple[Optional[str], ...]

    def __init__(self, points: Iterable[PlanarPoint]):
        pts = list(points)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        d_x, d_y, keys, order = _canonical_order(xs, ys)
        if order is not None:
            kept: list[int] = []
            last = None  # the key of pts[kept[-1]]; no key is None
            for i in order:
                if keys[i] == last:
                    if _tag_key(pts[i].tag) < _tag_key(pts[kept[-1]].tag):
                        kept[-1] = i
                    continue
                kept.append(i)
                last = keys[i]
            pts, xs, ys = ([seq[i] for i in kept] for seq in (pts, xs, ys))
        _fill(self, tuple(xs), tuple(ys), tuple(p.tag for p in pts), d_x, d_y, tuple(pts))

    @classmethod
    def _from_columns(cls, xs: tuple, ys: tuple, tags: tuple) -> "PointSet":
        """The set of rational columns that are in canonical order already,
        with no duplicate: nothing is checked or sorted, and no PlanarPoint
        is built."""
        return _fill(_new(cls), xs, ys, tags, 1, 1, None)

    @property
    def points(self) -> tuple[PlanarPoint, ...]:
        if self._points is None:
            pts = tuple(map(PlanarPoint, self.xs, self.ys, self.tags))
            _setattr(self, "_points", pts)
        return self._points

    def _values(self) -> tuple:
        return self.xs, self.ys, self.d_x, self.d_y

    def __len__(self) -> int:
        return len(self.xs)

    def __iter__(self) -> Iterator[PlanarPoint]:
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __repr__(self) -> str:
        return f"PointSet({len(self.xs)} points, d=({self.d_x},{self.d_y}))"

    def __contains__(self, pt: PlanarPoint) -> bool:
        lo, hi = 0, len(self.xs)
        while lo < hi:
            mid = (lo + hi) // 2
            c = self.xs[mid].compare(pt.x) or self.ys[mid].compare(pt.y)
            if c == 0:
                return True
            if c < 0:
                lo = mid + 1
            else:
                hi = mid
        return False

    def negate(self) -> "PointSet":
        return PointSet(p.negate() for p in self.points)


def _fill(ps: PointSet, xs, ys, tags, d_x, d_y, points) -> PointSet:
    for name, value in zip(PointSet.__slots__, (xs, ys, tags, d_x, d_y, points)):
        _setattr(ps, name, value)
    return ps


def _tag_key(tag: Optional[str]) -> tuple[int, str]:
    return (1, "") if tag is None else (0, tag)


def _ambient_d(ds: set[int], axis: str) -> int:
    ds.discard(1)
    if len(ds) > 1:
        raise FieldMismatchError(
            f"{axis}-coordinates mix radicals {sorted(ds)}"
        )
    return ds.pop() if ds else 1


def _canonical_order(
    xs: list[QuadExt], ys: list[QuadExt]
) -> tuple[int, int, list[tuple], Optional[list[int]]]:
    """The ambient radicals d_x and d_y, one equality key per point, and
    the indices of the points in canonical order, or None when they are in
    it already, strictly increasing, so that no two are equal.

    A rational point's key is its pair of coordinates, each an int when it
    is an integer: ints and Fractions compare and test equal by value, so
    the keys sort lexicographically, and integer points sort as int pairs.
    One pass builds them.  A point with a radical ends it; then a key is
    the pair of ranks that :func:`_ranks` gives each coordinate on its
    axis, which orders and tests equal as the values do.  Either way the
    points are sorted by their keys in C, and not at all when a pass in C
    finds the keys strictly increasing.
    """
    keys: list[tuple] = []
    for x, y in zip(xs, ys):
        if x.d != 1 or y.d != 1:
            d_x = _ambient_d({u.d for u in xs}, "x")
            d_y = _ambient_d({u.d for u in ys}, "y")
            keys = list(zip(_ranks(xs), _ranks(ys)))
            break
        keys.append(
            (
                x.A if x.q == 1 else Fraction(x.A, x.q),
                y.A if y.q == 1 else Fraction(y.A, y.q),
            )
        )
    else:
        d_x = d_y = 1
    if all(map(lt, keys, islice(keys, 1, None))):
        return d_x, d_y, keys, None
    return d_x, d_y, keys, sorted(range(len(keys)), key=keys.__getitem__)


def _ranks(us: list[QuadExt]) -> list[int]:
    """Each value's rank among the distinct values of us, which share one
    field or are rational: a comparison sort by :func:`_compare`, from
    integers alone, of each distinct value once, found once per distinct
    object (QuadExt hashes and tests equal by value).
    """
    ids = list(map(id, us))
    objs = dict(zip(ids, us))
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
    :func:`_tag_cell`), each row one string read from the columns.

    The points of a set share coordinate objects, so each object's exact
    and float text is built once, in a dict keyed by id and local to the
    call: the set keeps every coordinate alive, so no id is reused while it
    runs, and coordinates can have thousands of digits, so nothing outlives
    it.
    """
    ix = list(map(id, ps.xs))
    iy = list(map(id, ps.ys))
    objs = dict(zip(ix, ps.xs))
    objs.update(zip(iy, ps.ys))
    cell = {k: (format_quadext(u), _float_repr(float(u))) for k, u in objs.items()}
    tag = {t: _tag_cell(t) for t in set(ps.tags)}
    rows = zip(map(cell.get, ix), map(cell.get, iy), map(tag.get, ps.tags))
    body = "".join([f"{ex},{ey},{fx},{fy},{t}\n" for (ex, fx), (ey, fy), t in rows])
    fileobj.write(",".join(CSV_HEADER) + "\n" + body)


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
