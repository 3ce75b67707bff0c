"""Exact arithmetic over real quadratic fields, planar points, and point sets.

Values are represented as a + b*sqrt(d) with rational a, b and squarefree
d >= 1.  All predicates (signs, comparisons, membership) are decided
exactly; floating output is derived from dyadic approximations that carry
explicit error bounds.  Sums mixing several radicals (as arise in squared
distances between points whose coordinates live in different fields) are
handled by :class:`RadicalSum`.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from math import floor as _floor, inf, isqrt, ulp
from typing import Iterable, Iterator, Optional, Union

RationalLike = Union[int, Fraction]

_ZERO = Fraction(0)


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


def sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic midpoint and half-width bracketing sqrt(d) within 2**-(bits+1)."""
    s = _isqrt_shifted(d, bits)
    scale = 1 << (bits + 1)
    return Fraction(2 * s + 1, scale), Fraction(1, scale)


def sqrt_bounds_frac(x: Fraction, bits: int = 80) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo = 2**-bits."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << (2 * bits)
    n = (x.numerator * scale) // x.denominator
    r = isqrt(n)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def _radical_bounds(
    d: int, c: Fraction, precision_bits: int
) -> tuple[Fraction, Fraction]:
    """Dyadic midpoint and rigorous error bound of c*sqrt(d), d > 1.

    sqrt(d) is bracketed with as many extra bits as |c| has integer bits,
    so the error stays below 2**-(precision_bits+9) however large c is.
    """
    cabs = abs(c)
    extra = max(0, cabs.numerator.bit_length() - cabs.denominator.bit_length() + 1)
    m, e = sqrt_bounds(d, precision_bits + 8 + extra)
    return c * m, cabs * e


def _float_with_bound(mid: Fraction, err: Fraction) -> tuple[float, float]:
    """float(mid) with a conservative bound on its distance to a value
    known to lie within err of mid."""
    value = float(mid)
    if err == 0 and Fraction(value) == mid:
        return value, 0.0
    # float(mid) is correctly rounded: one half-ulp of conversion error.
    conv = abs(value) * 2.0 ** -52 + 5e-324
    return value, float(err) * (1 + 2.0 ** -50) + conv


def _quad_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) by comparing a*a against b*b*d."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    # Opposite signs: |a| versus |b|*sqrt(d), squared.
    lhs = a * a
    rhs = b * b * d
    if lhs == rhs:
        # Impossible for d > 1 squarefree with a, b nonzero; kept for safety.
        return 0
    return sa if lhs > rhs else sb


class QuadExt:
    """Immutable element a + b*sqrt(d) of a real quadratic field.

    d is kept squarefree (square parts are folded into b at construction)
    and a pure rational is always stored with d = 1, b = 0, so equality is
    componentwise.  Arithmetic requires compatible fields: rationals embed
    into any Q(sqrt(d)), but mixing two distinct nontrivial radicals raises
    :class:`FieldMismatchError`.
    """

    __slots__ = ("a", "b", "d")

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 1):
        # a Fraction is immutable, so one given is kept as it is
        if type(a) is not Fraction:
            a = Fraction(a)
        if type(b) is not Fraction:
            b = Fraction(b)
        if not isinstance(d, int):
            raise TypeError("radicand must be an integer")
        if d < 1:
            raise ValueError("radicand must be >= 1")
        if d > 1:
            f, m = squarefree_split(d)
            if f != 1:
                b *= f
            d = m
        if d == 1:
            if b:
                a += b
            b = _ZERO
        elif not b:
            d = 1
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("QuadExt is immutable")

    # -- basic protocol ------------------------------------------------

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self) -> str:
        return format_quadext(self)

    def __eq__(self, other) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

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

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other) -> "QuadExt":
        if type(other) is int:  # the common integer shift, without a lift
            return QuadExt(self.a + other, self.b, self.d)
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __sub__(self, other) -> "QuadExt":
        if type(other) is int:
            return QuadExt(self.a - other, self.b, self.d)
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(self.a - other.a, self.b - other.b, d)

    def __rsub__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return QuadExt(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a*a - b*b*d (rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other) -> "QuadExt":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)  # raises on genuine mismatch
        del d
        return self * other.inverse()

    # -- exact predicates ------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}; never touches floating point."""
        return _quad_sign(self.a, self.b, self.d)

    def compare(self, other) -> int:
        """Exact three-way value comparison; works across distinct fields.

        Decided from the two :meth:`to_float` brackets where they are
        disjoint, exactly otherwise (see :func:`_bracket_compare`).
        """
        lifted = _lift(other)
        if lifted is NotImplemented:
            raise TypeError(f"cannot compare QuadExt with {type(other)}")
        return _bracket_compare(self, _bracket(self), lifted, _bracket(lifted))

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __le__(self, other) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other) -> bool:
        return self.compare(other) >= 0

    def floor(self) -> int:
        """Exact integer floor.

        Filtered: with v +/- e the :meth:`to_float` bracket and |v| < 2**52,
        m = floor(v) is exact, f = v - m is off by at most 2**-54 and
        1 - f by at most 2**-53 in all; t exceeds e by more than 2**-53,
        so t < f and t < 1 - f put the bracket strictly inside (m, m + 1)
        and m is the floor.  Otherwise, and beyond the float range, an
        exact walk from a 64-bit midpoint finds it.
        """
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        try:
            v, e = self.to_float()
        except OverflowError:
            pass
        else:
            if abs(v) < 2.0**52:
                m = _floor(v)
                f = v - m
                t = e * (1 + 2.0**-50) + 2.0**-52
                if t < f and t < 1 - f:
                    return m
        mid, err = self.approx(64)
        m = (mid.numerator // mid.denominator) if err < 1 else 0
        # mid is within err of the true value; walk to the exact floor.
        while (self - m).sign() < 0:
            m -= 1
        while (self - (m + 1)).sign() >= 0:
            m += 1
        return m

    # -- approximation ---------------------------------------------------

    def approx(self, precision_bits: int = 53) -> tuple[Fraction, Fraction]:
        """Dyadic midpoint and rigorous absolute error bound.

        The bound satisfies err <= 2**(1 - precision_bits) * (1 + |value|)
        regardless of the size of b.
        """
        if precision_bits < 24:
            raise ValueError("precision_bits must be >= 24")
        if self.b == 0:
            return self.a, Fraction(0)
        mid, err = _radical_bounds(self.d, self.b, precision_bits)
        return self.a + mid, err

    def to_float(self, precision_bits: int = 53) -> tuple[float, float]:
        """Floating value with a conservative absolute error bound, so a
        certified bracket [value - bound, value + bound] of the element.

        The pair is ``_float_with_bound(*self.approx(precision_bits))``,
        computed from integers: the midpoint a + b*(2s+1)/2**(bits+1) of
        :meth:`approx`, with s = isqrt(d << 2*bits), as one numerator over
        one denominator, whose int true division is correctly rounded as
        ``float(Fraction)`` is.  ``compare`` and ``floor`` decide from this
        bracket and fall back to exact arithmetic where it cannot.  Raises
        OverflowError beyond the float range.
        """
        if precision_bits < 24:
            raise ValueError("precision_bits must be >= 24")
        na, da = self.a.numerator, self.a.denominator
        if not self.b:
            value = na / da
            if value.as_integer_ratio() == (na, da):
                return value, 0.0
            return value, abs(value) * 2.0**-52 + 5e-324
        nb, db = self.b.numerator, self.b.denominator
        # the precision _radical_bounds takes for sqrt(d)
        bits = precision_bits + 8 + max(0, abs(nb).bit_length() - db.bit_length() + 1)
        s, k = _isqrt_shifted(self.d, bits), bits + 1
        value = (((na * db) << k) + nb * (2 * s + 1) * da) / ((da * db) << k)
        err = abs(nb) / (db << k)
        return value, err * (1 + 2.0**-50) + (abs(value) * 2.0**-52 + 5e-324)

    def __float__(self) -> float:
        if not self.b:  # to_float()[0] without building an error bound
            return float(self.a)
        return self.to_float()[0]


def as_quad(v) -> QuadExt:
    """Lift an int, Fraction, float or rational string to QuadExt; a
    QuadExt passes through unchanged."""
    return v if isinstance(v, QuadExt) else QuadExt(as_fraction(v))


def _lift(x) -> Union[QuadExt, type(NotImplemented)]:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, (int, Fraction)):
        return QuadExt(x)
    return NotImplemented


def _bracket(u: QuadExt) -> Optional[tuple[float, float]]:
    """``u.to_float()``, or None beyond the float range."""
    try:
        return u.to_float()
    except OverflowError:
        return None


def _bracket_compare(u: QuadExt, bu, v: QuadExt, bv) -> int:
    """Exact three-way comparison of u and v, given their :func:`_bracket`s.

    Filtered: the brackets u +/- eu and v +/- ev decide when they are
    disjoint.  The sum eu + ev, its product with 1 + 2**-50 and the
    difference u - v each round by at most 2**-53 relative (and not at
    all below the normal range), which the factor outweighs; so when the
    scaled sum is below |u - v|, the values differ with the sign of
    u - v.  Otherwise, and for a value beyond the float range, equal
    components give 0 (QuadExt is canonical) and the exact sign of the
    difference decides the rest.
    """
    if bu is not None and bv is not None:
        diff = bu[0] - bv[0]
        if (bu[1] + bv[1]) * (1 + 2.0**-50) < abs(diff) < inf:
            return 1 if diff > 0 else -1
    if u is v or (u.a == v.a and u.b == v.b and u.d == v.d):
        return 0
    if u.d == v.d or u.d == 1 or v.d == 1:
        return (u - v).sign()
    return RadicalSum.of(u, -v).sign()


# -- serialization -----------------------------------------------------------


def _format_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_quadext(u: QuadExt) -> str:
    """Canonical text form.

    Pure rationals print compactly ("2", "-1/2"); anything with a radical
    prints in the full two-part grammar with signs folded into numerators,
    e.g. "-1/1+1/1*sqrt(2)".
    """
    if u.b == 0:
        return _format_fraction(u.a)
    return (
        f"{u.a.numerator}/{u.a.denominator}"
        f"+{u.b.numerator}/{u.b.denominator}*sqrt({u.d})"
    )


_RAT = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"^({_RAT})$")
_RE_RADICAL = re.compile(rf"^(?:({_RAT})\*)?([+-]?)sqrt\((\d+)\)$")
_RE_FULL = re.compile(
    rf"^({_RAT})([+-])((?:[+-]?\d+(?:/\d+)?\*)?)sqrt\((\d+)\)$"
)


def _parse_rat(tok: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {tok!r}") from exc


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
        return QuadExt(_parse_rat(m.group(1)))
    m = _RE_RADICAL.match(s)
    if m:
        coef = _parse_rat(m.group(1)) if m.group(1) else Fraction(1)
        if m.group(2) == "-":
            coef = -coef
        return QuadExt(0, coef, int(m.group(3)))
    m = _RE_FULL.match(s)
    if m:
        a = _parse_rat(m.group(1))
        btok = m.group(3)
        b = _parse_rat(btok[:-1]) if btok else Fraction(1)
        if m.group(2) == "-":
            b = -b
        return QuadExt(a, b, int(m.group(4)))
    raise ParseError(f"cannot parse exact number {text!r}")


# -- sums of several radicals -------------------------------------------------


class RadicalSum:
    """Finite sum of c_k * sqrt(d_k) with distinct squarefree d_k >= 1.

    Closed under ring operations (products reduce sqrt(d1)*sqrt(d2) to a
    single squarefree radical), with an exact zero test by linear
    independence of distinct squarefree radicals over Q.  Signs of nonzero
    values are decided by escalating dyadic intervals.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[dict[int, Fraction]] = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for d, c in terms.items():
                if c == 0:
                    continue
                if d == 1:
                    clean[1] = clean.get(1, Fraction(0)) + c
                else:
                    f, m = squarefree_split(d)
                    clean[m] = clean.get(m, Fraction(0)) + c * f
            clean = {d: c for d, c in clean.items() if c != 0}
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RadicalSum is immutable")

    @classmethod
    def of(cls, *values: Union[QuadExt, Fraction, int]) -> "RadicalSum":
        terms: dict[int, Fraction] = {}
        for v in values:
            if isinstance(v, QuadExt):
                terms[1] = terms.get(1, Fraction(0)) + v.a
                if v.b:
                    terms[v.d] = terms.get(v.d, Fraction(0)) + v.b
            else:
                terms[1] = terms.get(1, Fraction(0)) + Fraction(v)
        return cls(terms)

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
            terms[d] = terms.get(d, Fraction(0)) + c
        return RadicalSum(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({d: -c for d, c in self._terms.items()})

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
        terms: dict[int, Fraction] = {}
        from math import gcd as _gcd

        for d1, c1 in self._terms.items():
            for d2, c2 in other._terms.items():
                g = _gcd(d1, d2)
                m = (d1 // g) * (d2 // g)
                terms[m] = terms.get(m, Fraction(0)) + c1 * c2 * g
        return RadicalSum(terms)

    __rmul__ = __mul__

    def approx(self, precision_bits: int = 53) -> tuple[Fraction, Fraction]:
        """Dyadic midpoint plus rigorous error bound for the sum."""
        mid = err = Fraction(0)
        for d, c in self._terms.items():
            if d == 1:
                mid += c
            else:
                m, e = _radical_bounds(d, c, precision_bits)
                mid += m
                err += e
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


@dataclass(frozen=True)
class PlanarPoint:
    """A point with exact coordinates; x and y may live in different fields.

    The tag records provenance (which construction produced the point) and
    does not participate in equality.
    """

    x: QuadExt
    y: QuadExt
    tag: Optional[str] = field(default=None, compare=False)

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


class PointSet:
    """Finite planar point set in canonical (lexicographic) order.

    Duplicate coordinates are merged (keeping the smallest tag), and the
    ambient coordinate fields (d_x, d_y) are derived from the data: at most
    one nontrivial radical may appear per coordinate axis.
    """

    __slots__ = ("points", "d_x", "d_y")

    points: tuple[PlanarPoint, ...]

    def __init__(self, points: Iterable[PlanarPoint]):
        pts = list(points)
        d_x, d_y, keys, order = _canonical_order(pts)
        deduped: list[PlanarPoint] = []
        last = None  # the key of deduped[-1]; no key is None
        for i in order:
            p = pts[i]
            if keys[i] == last:
                if _tag_key(p.tag) < _tag_key(deduped[-1].tag):
                    deduped[-1] = p
                continue
            deduped.append(p)
            last = keys[i]
        object.__setattr__(self, "points", tuple(deduped))
        object.__setattr__(self, "d_x", d_x)
        object.__setattr__(self, "d_y", d_y)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PointSet is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[PlanarPoint]:
        return iter(self.points)

    def __getitem__(self, i):
        return self.points[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        # QuadExt is canonical, so componentwise equality is value equality
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(tuple((p.x, p.y) for p in self.points))

    def __repr__(self) -> str:
        return f"PointSet({len(self.points)} points, d=({self.d_x},{self.d_y}))"

    def __contains__(self, pt: PlanarPoint) -> bool:
        lo, hi = 0, len(self.points)
        while lo < hi:
            mid = (lo + hi) // 2
            q = self.points[mid]
            c = q.x.compare(pt.x) or q.y.compare(pt.y)
            if c == 0:
                return True
            if c < 0:
                lo = mid + 1
            else:
                hi = mid
        return False

    def negate(self) -> "PointSet":
        return PointSet(p.negate() for p in self.points)


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
    pts: list[PlanarPoint],
) -> tuple[int, int, list[tuple], list[int]]:
    """The ambient radicals d_x and d_y, one equality key per point, and
    the indices of pts in canonical order, from one pass over pts.

    A rational point's key is its pair of coordinates, each an int when it
    is an integer: ints and Fractions compare and test equal by value, so
    the keys sort lexicographically, and integer points sort as int pairs.
    The first point with a radical ends that pass.  Then a key is the
    componentwise (a, b, d) of both coordinates, which is value equality
    since QuadExt is canonical, and a comparison sort orders the points
    from each coordinate's :func:`_bracket`, taken once here, with exact
    arithmetic only where two brackets overlap or overflow.
    """
    keys: list[tuple] = []
    for p in pts:
        x, y = p.x, p.y
        if x.d != 1 or y.d != 1:
            break
        a, b = x.a, y.a
        keys.append(
            (
                a.numerator if a.denominator == 1 else a,
                b.numerator if b.denominator == 1 else b,
            )
        )
    else:
        return 1, 1, keys, sorted(range(len(pts)), key=keys.__getitem__)
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    d_x = _ambient_d({u.d for u in xs}, "x")
    d_y = _ambient_d({u.d for u in ys}, "y")
    bx = [_bracket(u) for u in xs]
    by = [_bracket(u) for u in ys]
    keys = [(u.a, u.b, u.d, v.a, v.b, v.d) for u, v in zip(xs, ys)]

    def cmp(i: int, j: int) -> int:
        return _bracket_compare(xs[i], bx[i], xs[j], bx[j]) or _bracket_compare(
            ys[i], by[i], ys[j], by[j]
        )

    return d_x, d_y, keys, sorted(range(len(pts)), key=cmp_to_key(cmp))


# -- CSV round trip ------------------------------------------------------------

CSV_HEADER = ("x_exact", "y_exact", "x_float", "y_float", "tag")


def _float_repr(v: float) -> str:
    return format(v, ".12g")


def write_pointset_csv(ps: PointSet, fileobj) -> None:
    """Emit the canonical CSV form (header plus one row per point).

    The points of a set share coordinate objects, so each object's exact
    and float text is built once, in a dict local to the call: the set
    keeps every coordinate alive, so no id is reused while it runs, and
    coordinates can have thousands of digits, so nothing outlives it.
    """
    cells: dict[int, tuple[str, str]] = {}

    def cell(u: QuadExt) -> tuple[str, str]:
        c = cells.get(id(u))
        if c is None:
            c = cells[id(u)] = (format_quadext(u), _float_repr(float(u)))
        return c

    def rows() -> Iterator[tuple[str, ...]]:
        for p in ps:
            ex, fx = cell(p.x)
            ey, fy = cell(p.y)
            yield ex, ey, fx, fy, p.tag or ""

    w = csv.writer(fileobj, lineterminator="\n")
    w.writerow(CSV_HEADER)
    w.writerows(rows())


class CsvRowError(ParseError):
    """CSV rows that failed to parse, with 1-based line numbers."""

    def __init__(self, lines: list[int]):
        self.lines = lines
        super().__init__(f"unparseable point rows at lines {lines}")


def read_pointset_csv(fileobj) -> PointSet:
    reader = csv.reader(fileobj)
    pts: list[PlanarPoint] = []
    bad: list[int] = []
    for lineno, row in enumerate(reader, start=1):
        if not row or (lineno == 1 and row[0] == "x_exact"):
            continue
        try:
            if len(row) < 2:
                raise ParseError("too few columns")
            x = parse_quadext(row[0])
            y = parse_quadext(row[1])
            tag = row[4].strip() if len(row) >= 5 and row[4].strip() else None
            pts.append(PlanarPoint(x, y, tag))
        except (ParseError, ValueError):
            bad.append(lineno)
    if bad:
        raise CsvRowError(bad)
    return PointSet(pts)
