"""Exact arithmetic in the real quadratic field Q(sqrt(D)).

Every geometric quantity in this package (eigenvalues, eigen-coordinates,
holonomy game states) is an element a + b*sqrt(D) with rational a, b and a
fixed positive non-square integer D.  All comparisons are decided exactly by
integer sign tests; no floating point enters any decision.

An element is stored as the integer triple (p, q, d), meaning
(p + q*sqrt(D))/d, normalized so that d > 0 and gcd(p, q, d) = 1 -- the
standard integral representation (H. Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138).  Equal values have equal triples, so
equality is component-wise, and every operation is a few integer products and
one gcd.  D is validated once, by the public constructor; the results of
arithmetic share their operands' D and skip the check.  The rational
coordinates a = p/d and b = q/d are read-only `Fraction` properties.

float(x) is the correctly rounded double of the exact value: it is computed
from the exact floor of x*2^k, never from float coefficients, so it does not
cancel when p and q*sqrt(D) are large and nearly opposite.  rounded_float(p, q,
d, D, root) gives the same double from integers and a stored fixed-point
sqrt(D): it brackets the value between two rationals, and only when their
doubles differ does it fall back to that exact conversion.

D is stored as given (no square-free reduction): arithmetic is unaffected and
we avoid integer factorization entirely.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt


class QuadFieldError(ValueError):
    """Invalid quadratic-field operation (mismatched D, division by zero...)."""


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign(p: int, q: int, D: int) -> int:
    """Sign of p + q*sqrt(D) for integers p, q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs, and p^2 != q^2 D since D is not a square
    return 1 if (p * p > q * q * D) == (p > 0) else -1


def _floor(p: int, q: int, d: int, D: int) -> int:
    """floor((p + q*sqrt(D))/d) for d > 0.

    isqrt(q^2 D) is floor(|q| sqrt(D)), which is never attained for q != 0,
    so floor(p + q sqrt(D)) is p + isqrt(q^2 D) or p - isqrt(q^2 D) - 1, and
    floor(y/d) = floor(floor(y)/d) for a positive integer d.
    """
    if q >= 0:
        return (p + isqrt(q * q * D)) // d
    return (p - isqrt(q * q * D) - 1) // d


def _to_float(p: int, q: int, d: int, D: int) -> float:
    """The correctly rounded double of (p + q*sqrt(D))/d for d > 0: the only
    exact conversion, from the exact floor of x*2^k."""
    if q == 0:
        return p / d                    # int / int rounds correctly
    if _sign(p, q, D) < 0:
        return -_to_float(-p, -q, d, D)
    # x > 0.  Estimate log2(x) to within a few bits; when p and q sqrt(D)
    # cancel, go through x = (p^2 - q^2 D) / (d (p - q sqrt(D))).
    top = max(p.bit_length(), q.bit_length() + D.bit_length() // 2)
    e = top
    if p < 0 or q < 0:
        e = abs(p * p - q * q * D).bit_length() - top
    k = 66 - e + d.bit_length()
    while True:
        # n = floor(x 2^k), grown until it has at least 65 bits
        n = (_floor(p << k, q << k, d, D) if k >= 0
             else _floor(p, q, d << -k, D))
        if n.bit_length() > 64:
            break
        k += 66 - n.bit_length()
    # x is irrational, so n < x 2^k < n + 1.  Every rounding boundary of a
    # double near x is a multiple of 2^-k (n has more than 54 bits), so x
    # rounds like the point (2n + 1)/2^(k+1) between the same multiples:
    # the sticky low bit keeps the rounding from happening twice.
    n, k = 2 * n + 1, k + 1
    return n / (1 << k) if k >= 0 else float(n << -k)


# Fractional bits of the fixed-point sqrt(D) that `rounded_float` brackets
# its value with.
ROOT_BITS = 128


def fixed_root(D: int) -> int:
    """S = floor(sqrt(D) * 2^ROOT_BITS); D is not a square, so
    S < sqrt(D) * 2^ROOT_BITS < S + 1."""
    return isqrt(D << 2 * ROOT_BITS)


def rounded_float(p: int, q: int, d: int, D: int, root: int) -> float:
    """The correctly rounded double of (p + q*sqrt(D))/d for d > 0, given
    root = fixed_root(D).

    With N = p*2^F + q*root (F = ROOT_BITS) the exact value lies between
    N/(d*2^F) and (N + q)/(d*2^F).  Rounding is monotone and int / int
    rounds correctly, so when both ends round to one double that double is
    the answer; otherwise the exact `_to_float` decides.
    """
    n = (p << ROOT_BITS) + q * root
    scale = d << ROOT_BITS
    try:
        lo = n / scale
        if lo == (n + q) / scale:
            return lo
    except OverflowError:
        pass
    return _to_float(p, q, d, D)


def _order(signs):
    """The QuadNum comparison that holds when the sign of self - other is
    one of signs: a QuadNum of the same D is read directly, any other
    operand through `QuadNum._coerce`."""
    def compare(self, other):
        p1, q1, d1, D = self._v
        o = (other._v if type(other) is QuadNum and other._v[3] == D
             else self._coerce(other))
        if o is None:
            return NotImplemented
        p2, q2, d2, _ = o
        return _sign(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, D) in signs
    return compare


class QuadNum:
    """(p + q*sqrt(D))/d with integers p, q, d > 0, gcd(p, q, d) = 1, and D a
    fixed positive non-square; built as QuadNum(a, b, D) = a + b*sqrt(D)."""

    __slots__ = ("_v",)         # the tuple (p, q, d, D)

    def __init__(self, a, b=0, D=None):
        if D is None:
            raise QuadFieldError("QuadNum requires an explicit D")
        if D <= 0 or _is_square(D):
            raise QuadFieldError(f"D must be a positive non-square, got {D}")
        a, b = Fraction(a), Fraction(b)
        ad, bd = a.denominator, b.denominator
        d = ad // gcd(ad, bd) * bd      # over lcm(ad, bd) the triple is reduced
        _set_v(self, (a.numerator * (d // ad), b.numerator * (d // bd), d,
                      int(D)))

    def __setattr__(self, *_):
        raise AttributeError("QuadNum is immutable")

    __delattr__ = __setattr__

    @property
    def a(self) -> Fraction:
        p, _, d, _ = self._v
        return Fraction(p, d)

    @property
    def b(self) -> Fraction:
        _, q, d, _ = self._v
        return Fraction(q, d)

    @property
    def D(self) -> int:
        return self._v[3]

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other):
        """(p, q, d, D) of other in this field, or None for an unsupported
        type.  The operators read a QuadNum of the same D directly and
        call this only for other operands."""
        D = self._v[3]
        if isinstance(other, QuadNum):
            if other._v[3] != D:
                raise QuadFieldError(f"mismatched D: {D} vs {other._v[3]}")
            return other._v
        if isinstance(other, int):
            return other, 0, 1, D
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, D
        return None

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        p1, q1, d1, D = self._v
        o = (other._v if type(other) is QuadNum and other._v[3] == D
             else self._coerce(other))
        if o is None:
            return NotImplemented
        p2, q2, d2, _ = o
        return _qn(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2, D)

    __radd__ = __add__

    def __neg__(self):
        p, q, d, D = self._v
        return _qn(-p, -q, d, D)

    def __sub__(self, other):
        p1, q1, d1, D = self._v
        o = (other._v if type(other) is QuadNum and other._v[3] == D
             else self._coerce(other))
        if o is None:
            return NotImplemented
        p2, q2, d2, _ = o
        return _qn(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2, D)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        p1, q1, d1, D = self._v
        o = (other._v if type(other) is QuadNum and other._v[3] == D
             else self._coerce(other))
        if o is None:
            return NotImplemented
        p2, q2, d2, _ = o
        return _qn(p1 * p2 + q1 * q2 * D, p1 * q2 + q1 * p2, d1 * d2, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        # d/(p + q sqrt D) = d (p - q sqrt D) / (p^2 - q^2 D)
        p, q, d, D = self._v
        norm = p * p - q * q * D
        if norm == 0:
            # p^2 = q^2 D with D non-square forces p = q = 0
            raise QuadFieldError("division by zero")
        return _qn(d * p, -d * q, norm, D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, d1, D = self._v
        p2, q2, d2, _ = o
        # (p1 + q1 sqrt D)/d1 * d2 (p2 - q2 sqrt D) / (p2^2 - q2^2 D)
        norm = p2 * p2 - q2 * q2 * D
        if norm == 0:
            raise QuadFieldError("division by zero")
        return _qn(d2 * (p1 * p2 - q1 * q2 * D), d2 * (q1 * p2 - p1 * q2),
                   d1 * norm, D)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "QuadNum":
        return qn_pow(self, n)

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        p, q, _, D = self._v
        return _sign(p, q, D)

    def __eq__(self, other):
        p, q, d, _ = self._v
        if isinstance(other, int):
            return q == 0 and d == 1 and p == other
        if isinstance(other, Fraction):
            return q == 0 and d == other.denominator and p == other.numerator
        if isinstance(other, QuadNum):
            return self._v == other._v
        return NotImplemented

    def __hash__(self):
        p, q, d, _ = self._v
        if q == 0:
            return hash(Fraction(p, d))     # equal to the int or Fraction's
        return hash(self._v)

    __lt__ = _order((-1,))
    __le__ = _order((-1, 0))
    __gt__ = _order((1,))
    __ge__ = _order((0, 1))

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        p, q, _, _ = self._v
        return p != 0 or q != 0

    # -- conversions -------------------------------------------------------

    def __float__(self):
        """The correctly rounded double nearest to the exact value."""
        return _to_float(*self._v)

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, D={self.D})"

    def __str__(self):
        return qn_to_str(self)


# Results of arithmetic are built without __init__ (their D was validated
# when the operands were); the slot's descriptor writes past __setattr__.
_set_v = QuadNum._v.__set__
_new = object.__new__


def _qn(p: int, q: int, d: int, D: int) -> QuadNum:
    """(p + q*sqrt(D))/d for integers with d != 0, normalized."""
    g = gcd(d, p, q)        # d first: gcd stops early once it reaches 1
    if d < 0:
        g = -g
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = _new(QuadNum)
    _set_v(x, (p, q, d, D))
    return x


def _triple(p: int, q: int, d: int) -> tuple:
    """(p, q, d) for d != 0 normalized as `_qn` normalizes a QuadNum's: the
    integers that the strip climber and the game carry."""
    g = gcd(d, p, q)
    if d < 0:
        g = -g
    return (p // g, q // g, d // g) if g != 1 else (p, q, d)


def _parts(x) -> tuple:
    """(p, q, d) with x = (p + q*sqrt(D))/d and d > 0, for a QuadNum, int or
    Fraction: the integers that the lattice kernel works on."""
    if isinstance(x, QuadNum):
        return x._v[:3]
    return x.numerator, 0, x.denominator


# ---------------------------------------------------------------------------
# operation-style API


def qn_floor(x: QuadNum) -> int:
    """Greatest integer n <= x, from one integer square root."""
    p, q, d, D = x._v
    return _floor(p, q, d, D)


def qn_pow(x: QuadNum, n: int) -> QuadNum:
    """Exact integer power by square-and-multiply."""
    if n < 0:
        return qn_pow(x.inverse(), -n)
    result = _qn(1, 0, 1, x.D)
    base = x
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# textual form "p/q + r/s*sqrt(D)", losslessly round-trippable

_QN_RE = re.compile(
    r"^\s*(?P<a>-?\d+(?:/\d+)?)\s*"
    r"(?:(?P<sgn>[+-])\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<D>\d+)\)\s*)?$"
)


def qn_to_str(x: QuadNum) -> str:
    p, q, d, D = x._v
    if q == 0:
        return str(Fraction(p, d))
    sgn = "-" if q < 0 else "+"
    return f"{Fraction(p, d)} {sgn} {Fraction(abs(q), d)}*sqrt({D})"


def qn_from_str(text: str, D: int | None = None) -> QuadNum:
    m = _QN_RE.match(text)
    if not m:
        raise QuadFieldError(f"cannot parse quadratic number: {text!r}")
    try:
        a, b = (None if g is None else Fraction(g)
                for g in m.group("a", "b"))
    except ZeroDivisionError:
        raise QuadFieldError(f"zero denominator in {text!r}") from None
    if b is None:
        if D is None:
            raise QuadFieldError(f"no sqrt term and no default D in {text!r}")
        return QuadNum(a, 0, D)
    if m.group("sgn") == "-":
        b = -b
    d = int(m.group("D"))
    if D is not None and d != D:
        raise QuadFieldError(f"mismatched D: expected {D}, got {d}")
    return QuadNum(a, b, d)
