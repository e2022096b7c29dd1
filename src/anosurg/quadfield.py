"""Exact arithmetic in the real quadratic field Q(sqrt(D)).

Every geometric quantity in this package (eigenvalues, eigen-coordinates,
holonomy game states) is an element a + b*sqrt(D) with rational a, b and a
fixed positive non-square integer D.  All comparisons are decided exactly by
integer sign tests; no floating point enters any decision.

D is stored as given (no square-free reduction): arithmetic is unaffected and
we avoid integer factorization entirely.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class QuadFieldError(ValueError):
    """Invalid quadratic-field operation (mismatched D, division by zero...)."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class QuadNum:
    """a + b*sqrt(D) with a, b rational and D a fixed positive non-square."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a, b=0, D=None):
        if D is None:
            raise QuadFieldError("QuadNum requires an explicit D")
        if D <= 0 or _is_square(D):
            raise QuadFieldError(f"D must be a positive non-square, got {D}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "D", int(D))

    def __setattr__(self, *_):
        raise AttributeError("QuadNum is immutable")

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other.D != self.D:
                raise QuadFieldError(f"mismatched D: {self.D} vs {other.D}")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum(other, 0, self.D)
        return NotImplemented

    def is_rational(self) -> bool:
        return self.b == 0

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return QuadNum(-self.a, -self.b, self.D)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(self.a - o.a, self.b - o.b, self.D)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadNum(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        # 1/(a + b sqrt D) = (a - b sqrt D) / (a^2 - b^2 D)
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            # a^2 = b^2 D with D non-square forces a = b = 0
            raise QuadFieldError("division by zero")
        return QuadNum(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "QuadNum":
        return qn_pow(self, n)

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.a, -self.b, self.D)

    # -- exact order -------------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 D
        lhs, rhs = a * a, b * b * self.D
        if lhs == rhs:
            return 0
        if a > 0:  # b < 0
            return 1 if lhs > rhs else -1
        return -1 if lhs > rhs else 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadNum):
            return self.D == other.D and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    # -- conversions -------------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def __repr__(self):
        return f"QuadNum({self.a!r}, {self.b!r}, D={self.D})"

    def __str__(self):
        return qn_to_str(self)


# ---------------------------------------------------------------------------
# operation-style API


def qn_sign(x: QuadNum) -> int:
    """Sign of the real number a + b*sqrt(D), decided exactly."""
    return x.sign()


def qn_floor(x: QuadNum) -> int:
    """Greatest integer n <= x, certified by exact sign tests."""
    # floor(b sqrt D) exactly via isqrt, then combine with floor(a) and correct.
    p, q = x.b.numerator, x.b.denominator
    if p >= 0:
        fb = math.isqrt(p * p * x.D) // q
    else:
        # -b sqrt D irrational for b != 0, so ceil = floor + 1
        fb = -(math.isqrt(p * p * x.D) // q) - 1
    n = (x.a.numerator // x.a.denominator) + fb
    # n is within 1 of the true floor; certify with sign tests.
    while (x - (n + 1)).sign() >= 0:
        n += 1
    while (x - n).sign() < 0:
        n -= 1
    return n


def qn_ceil(x: QuadNum) -> int:
    return -qn_floor(-x)


def qn_pow(x: QuadNum, n: int) -> QuadNum:
    """Exact integer power by square-and-multiply."""
    if n < 0:
        return qn_pow(x.inverse(), -n)
    result = QuadNum(1, 0, x.D)
    base = x
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# textual form "p/q + r/s*sqrt(D)", losslessly round-trippable

_QN_RE = re.compile(
    r"^\s*(?P<a>-?\d+(?:/\d+)?)\s*"
    r"(?:(?P<sgn>[+-])\s*(?P<b>\d+(?:/\d+)?)\s*\*\s*sqrt\((?P<D>\d+)\)\s*)?$"
)


def qn_to_str(x: QuadNum) -> str:
    if x.b == 0:
        return str(x.a)
    sgn = "-" if x.b < 0 else "+"
    return f"{x.a} {sgn} {abs(x.b)}*sqrt({x.D})"


def qn_from_str(text: str, D: int | None = None) -> QuadNum:
    m = _QN_RE.match(text)
    if not m:
        raise QuadFieldError(f"cannot parse quadratic number: {text!r}")
    a = Fraction(m.group("a"))
    if m.group("b") is None:
        if D is None:
            raise QuadFieldError(f"no sqrt term and no default D in {text!r}")
        return QuadNum(a, 0, D)
    b = Fraction(m.group("b"))
    if m.group("sgn") == "-":
        b = -b
    d = int(m.group("D"))
    if D is not None and d != D:
        raise QuadFieldError(f"mismatched D: expected {D}, got {d}")
    return QuadNum(a, b, d)
