"""The automorphism f_A on the torus: eigenframe, periodic orbits, marked sets,
and exact enumeration of marked lattice points inside (s,u)-boxes.

Coordinates: the plane carries two frames.  "Standard" coordinates are the
usual (x, y) with the integer lattice; "eigen" coordinates (s, u) diagonalize
A as (s, u) -> (lam^-1 s, lam u), so the stable foliation is horizontal and
the unstable one vertical.  All conversions are exact in Q(sqrt(D)).

A rational point is one data format from parse to print, the integers
(k, X, Y) of (X/k, Y/k) (`Point`), on which f_A and the group <A> x| Z^2
act with A's integer rows.

Orientation convention: v_u = (1, slope_u) and v_s = (1, slope_s), both with
positive first coordinate.  For positive matrices slope_u in (0, 1) and
slope_s < 0, so the segment from (0,0) to (1,0) has increasing (s, u): the
unit horizontal diagonal spans a positive rectangle.

Box scans run on integers.  The frame keeps s and u as integer linear forms
(`IntForm`) over one denominator each, together with the reciprocal of
their y-coefficient and the slope of their level lines, and the lattice
widths W_s = |s(1,0)| + |s(0,1)| and W_u, which no view's flips change.
A scan takes its bounds as the integers (p, q, d) of (p + q*sqrt(D))/d,
and its whole set-up works on those: the range check, the widths, the
renormalization power j (estimated from fixed-point logarithms, and
confirmed by two integer sign tests against the frame's power ladder only
when the estimate's error band cannot decide it) and the bounds scaled by
lam^-j and lam^j, rungs that the ladder builds from halves it holds.

The kernel scans the lattice cosets of the set's scan plan
(`MarkedSet.plan`, built by `_scan_plan`).  Let K be the lcm of the marked
points' denominators and P their number.  When K^2 <= 2P (`DENSE`), the
points fill at least half of the K^2 residues of (1/K)Z^2 mod Z^2, and the
plan is that one lattice: each lattice point found is looked up by its
residue, and an unmarked one is skipped.  Otherwise each point is its own
coset, base + Z^2, as sparse sets and long orbits need.  On a game_grid
pass (1,018 scans, 5,435 lifts) the union of A2's (0,0) and (1/2,1/2)
orbits, all 4 residues of (1/2)Z^2, takes 14,356 exact floors as one
lattice against 32,784 as 4 cosets; the b2 game's 2 points, on the
threshold, take 30,000 against 33,000 over 1,500 crossings.  For a
lattice point ((X0 + m*step)/K, (Y0 + n*step)/K) of a coset, each edge of
an (s, u)-box is a bound on n alone, the integer floor of a quadratic
number, rounded up or down by whether the edge is open or closed.  Per
coset the four edge rules are set up once, at the box's first column, and
one loop over the columns steps each rule's numerator by its per-column
increment and takes n_lo and n_hi from one floor per rule.  These bounds
are exact, so every (m, n) between them is a lattice point in the box and
nothing is re-checked.
`box_lifts` returns the lifts as integers.  A view reads its s and u off
one integer table, `FrameView.coefficients`, the frame's forms with the
view's flips and transposition applied, which only this module reads:
`view_lifts` gives each lift's view s and u as (p, q, d) triples, as the
scans take their bounds, and `FrameView.s` and `u` take them at one
point.  `view_hit` builds a `MarkedPointHit`, one QuadNum each for s and
u, from those triples: `hits_in_box` for every lift it returns, in no
particular order, and the family walk and the staircase's contacts for
the lift they take.  The strip climber builds none: it orders a window's
lifts by sign tests on the triples and returns the lift itself.  Figures
subtract their origin's triple and convert the integers to doubles
without any QuadNum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .quadfield import (ROOT_BITS, QuadFieldError, QuadNum, _floor, _parts,
                        _qn, _sign, fixed_root)


class UnsupportedMatrixError(ValueError):
    """Matrix outside the supported class (det != 1, |trace| <= 2, trace < 0)."""


class InvariantError(RuntimeError):
    """An internal invariant that should be unbreakable was violated."""


class PeriodLimitError(ValueError):
    """A marked point whose orbit is longer than MAX_PERIOD."""


# Longest accepted orbit: a box scan of a set too sparse to scan as one
# lattice (see `_scan_plan`) visits each marked point, and a point of
# denominator q can have a period of the order of q.
MAX_PERIOD = 10_000


# A rational point (x, y) of the plane, standard coordinates, as the
# integers (k, X, Y) with (x, y) = (X/k, Y/k), k >= 1 the least common
# denominator, so that gcd(k, X, Y) = 1; built by `point`
Point = tuple[int, int, int]


def point(x, y) -> Point:
    """The point (x, y) of int, Fraction or 'p/q' coordinates: the one
    place where numbers become a point."""
    if isinstance(x, str) or isinstance(y, str):
        x, y = Fraction(x), Fraction(y)
    dx, dy = x.denominator, y.denominator
    k = lcm(dx, dy)
    return k, x.numerator * (k // dx), y.numerator * (k // dy)


def as_point(p) -> Point:
    """p when it is a point, else the point of the pair p: the conversion
    by which the entry points that take a point also take a pair."""
    return p if len(p) == 3 else point(*p)


def point_strings(p: Point) -> list:
    """The coordinates as reduced rationals, as records print them."""
    k, X, Y = p
    return [str(Fraction(X, k)), str(Fraction(Y, k))]


_set = object.__setattr__


class _Value:
    """Base of the immutable value records (matrices, frames, orbits, marked
    sets, group elements): two of one class are equal, and hash alike, when
    their `_key()`s are equal.  `__init__` sets each field once with `_set`;
    assigning or deleting a field afterwards raises AttributeError."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _HashOnce(_Value):
    """A value record that computes its hash on first use and keeps it in a
    slot outside its `_key()`: orbits and marked sets key memo tables, and
    their keys hold every point's integers."""

    __slots__ = ("_hash",)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            _set(self, "_hash", hash(self._key()))
            return self._hash


class HyperbolicMatrix(_Value):
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise UnsupportedMatrixError("determinant must be 1")
        tr = a + d
        if -2 <= tr <= 2:
            raise UnsupportedMatrixError(f"trace {tr}: not hyperbolic")
        if tr < 0:
            raise UnsupportedMatrixError(
                f"trace {tr}: negative-trace matrices are not supported")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "d", d)

    def _key(self):
        return self.rows()

    @staticmethod
    def from_rows(rows) -> "HyperbolicMatrix":
        (a, b), (c, d) = rows
        return HyperbolicMatrix(int(a), int(b), int(c), int(d))

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def power_rows(self, n: int):
        """Integer rows of A^n (n may be negative; det 1 so inverse is integral)."""
        rows = ((1, 0), (0, 1))
        if n >= 0:
            base = self.rows()
        else:
            base = ((self.d, -self.b), (-self.c, self.a))
            n = -n
        while n:
            if n & 1:
                rows = _mat_mul(rows, base)
            base = _mat_mul(base, base)
            n >>= 1
        return rows


def _mat_mul(r1, r2):
    (a, b), (c, d) = r1
    (e, f), (g, h) = r2
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


# ---------------------------------------------------------------------------
# Eigenframe

# Fractional bits of the fixed-point base-2 logarithms from which a box's
# renormalization power is estimated
LOG_BITS = 16


class IntForm:
    """A coordinate c_x*x + c_y*y as an integer form over one denominator L:
    at the point (X/k, Y/k) its value is

        ((px + qx*sqrt(D))*X + (py + qy*sqrt(D))*Y) / (L*k).

    recip and slope are the (p, q, d) triples of 1/c_y and c_x/c_y, so the
    value lies between v_lo and v_hi exactly when y + slope*x lies between
    v_lo*recip and v_hi*recip (in that order when rising, c_y > 0).
    """
    __slots__ = ("D", "px", "qx", "py", "qy", "L", "recip", "slope", "rising")

    def __init__(self, D: int, px: int, qx: int, py: int, qy: int, L: int,
                 recip: tuple, slope: tuple, rising: bool):
        self.D = D
        self.px, self.qx, self.py, self.qy, self.L = px, qx, py, qy, L
        self.recip, self.slope, self.rising = recip, slope, rising

    @staticmethod
    def of(cx: QuadNum, cy: QuadNum) -> "IntForm":
        (px, qx, dx), (py, qy, dy) = _parts(cx), _parts(cy)
        L = lcm(dx, dy)
        return IntForm(cx.D, px * (L // dx), qx * (L // dx), py * (L // dy),
                       qy * (L // dy), L, _parts(1 / cy), _parts(cx / cy),
                       cy > 0)

    def at(self, X: int, Y: int, k: int) -> QuadNum:
        return _qn(self.px * X + self.py * Y, self.qx * X + self.qy * Y,
                   self.L * k, self.D)


class EigenFrame(_Value):
    """The eigen-data of a matrix, built by `eigenframe`.  Every field but
    the `ladder` and `families` caches is a function of the matrix, so
    frames compare and hash by it alone.

    The power ladder, the engine's one source of lam's powers and
    logarithms, holds rung n = (lam^n, rows of A^-n, the integers (p, q,
    d) of lam^n) for the n read so far and their halves: from rungs 0, 1
    and -1, rung n is rung n // 2 times rung n - n // 2 (binary powering,
    TAOCP 4.6.3), one product per new rung and at most two new per halving.
    `log_floor(x)` is estimated from `log2_lam` and returned as it
    is when the estimate's error band lies inside one rung interval, or
    else confirmed against rungs n and n + 1 (`_log_ratio`); box scans take
    their power A^j from the same routine, and `renormalization(j)` reads
    rungs j and -j.
    """
    __slots__ = ("matrix", "D", "lam", "lam_inv", "s_form", "u_form",
                 "widths", "area", "s_int", "u_int", "root", "log2_lam",
                 "ladder", "families")

    def __init__(self, matrix: HyperbolicMatrix, D: int, lam: QuadNum,
                 lam_inv: QuadNum, s_form: tuple, u_form: tuple,
                 s_int: IntForm, u_int: IntForm, root: int, log2_lam: int):
        _set(self, "matrix", matrix)
        _set(self, "D", D)
        _set(self, "lam", lam)            # expansive eigenvalue > 1
        _set(self, "lam_inv", lam_inv)
        _set(self, "s_form", s_form)      # linear form with s_form(v_u) = 0
        _set(self, "u_form", u_form)      # linear form with u_form(v_s) = 0
        # (W_s, W_u) = (|s(1,0)| + |s(0,1)|, |u(1,0)| + |u(0,1)|), the same
        # in every view, since a flip only changes the signs
        _set(self, "widths", tuple(abs(cx) + abs(cy)
                                   for cx, cy in (s_form, u_form)))
        # the integers of W_s W_u, the area of a box that holds a lift of
        # every point, from which the strip climber sizes its windows
        _set(self, "area", _parts(self.widths[0] * self.widths[1]))
        # the same forms over the integers
        _set(self, "s_int", s_int)
        _set(self, "u_int", u_int)
        # fixed_root(D), which converts coordinates to doubles for figures
        _set(self, "root", root)
        # floor(log2(lam) * 2^LOG_BITS), from which `_log_ratio` estimates
        # its logarithms to base lam
        _set(self, "log2_lam", log2_lam)
        # the power ladder: the rungs built so far, by n
        _set(self, "ladder", {
            0: (lam * lam_inv, ((1, 0), (0, 1)), (1, 0, 1)),
            1: (lam, matrix.power_rows(-1), _parts(lam)),
            -1: (lam_inv, matrix.rows(), _parts(lam_inv))})
        # period families walked in this frame, keyed by view, marked set,
        # origin and period (see rectangles.period_family)
        _set(self, "families", {})

    def _key(self):
        return self.matrix

    def s(self, p) -> QuadNum:
        """s of a point, or of a pair of int or Fraction coordinates."""
        k, X, Y = as_point(p)
        return self.s_int.at(X, Y, k)

    def u(self, p) -> QuadNum:
        """u of a point, or of a pair of int or Fraction coordinates."""
        k, X, Y = as_point(p)
        return self.u_int.at(X, Y, k)

    def rung(self, n: int) -> tuple:
        """(lam^n, rows of A^-n, (p, q, d) of lam^n): the held rung, or else
        rung n // 2 times rung n - n // 2, kept."""
        held = self.ladder.get(n)
        if held is None:
            (x, xr, _), (y, yr, _) = self.rung(n // 2), self.rung(n - n // 2)
            power = x * y
            held = self.ladder[n] = (power, _mat_mul(xr, yr), _parts(power))
        return held

    def renormalization(self, j: int):
        """((p, q, d) of lam^-j, (p, q, d) of lam^j, rows of A^-j), read off
        the ladder."""
        _, rows, lam_j = self.rung(j)
        return self.rung(-j)[2], lam_j, rows

    def log_floor(self, x) -> int:
        """The greatest n with lam^n <= x, for x > 0 given as a QuadNum, int
        or Fraction."""
        p, q, d = _parts(x)
        if _sign(p, q, self.D) <= 0:
            raise QuadFieldError(f"logarithm of a non-positive number: {x}")
        return _log_ratio(self, p, q, d, 0)


def eigenframe(A: HyperbolicMatrix) -> EigenFrame:
    T = A.trace
    D = T * T - 4
    lam = _qn(T, 1, 2, D)               # (T + sqrt(D)) / 2
    lam_inv = _qn(T, -1, 2, D)
    one = QuadNum(1, 0, D)
    # b != 0: otherwise the (integer) diagonal entries would be unit eigenvalues,
    # impossible for det 1, trace >= 3.
    if A.b == 0:
        raise InvariantError("hyperbolic SL(2,Z) matrix with b = 0")
    slope_u = (lam - A.a) / A.b
    slope_s = (lam_inv - A.a) / A.b
    # p = s*v_s + u*v_u; invert the column matrix [[1,1],[slope_s,slope_u]].
    det = slope_u - slope_s  # = sqrt(D)/b, nonzero
    s_form = (slope_u / det, -one / det)
    u_form = (-slope_s / det, one / det)
    return EigenFrame(A, D, lam, lam_inv, s_form, u_form, IntForm.of(*s_form),
                      IntForm.of(*u_form), fixed_root(D), _log2_fixed(lam))


def _log2_fixed(x: QuadNum) -> int:
    """floor(log2(x) * 2^LOG_BITS), or one less, for x >= 1, bit by bit:
    y = x / 2^n in [1, 2) is held to 64 fractional bits, and each squaring
    of y gives the next bit (a square of 2 or more is a 1, and is
    halved)."""
    p, q, d = _parts(x)
    y = _floor(p << 64, q << 64, d, x.D)
    n = y.bit_length() - 65             # floor(log2(x))
    y >>= n
    for _ in range(LOG_BITS):
        y = y * y >> 64
        bit = y >> 65
        n, y = 2 * n + bit, y >> bit
    return n


# ---------------------------------------------------------------------------
# Periodic orbits and marked sets


def orbit_of(A: HyperbolicMatrix, q):
    """The f_A-orbit of q mod 1, q a point or a pair, as points (k, X, Y),
    0 <= X, Y < k, and its period; f_A keeps k and steps (X, Y) to (aX +
    bY, cX + dY) mod k.  Raises PeriodLimitError past MAX_PERIOD."""
    k, X0, Y0 = as_point(q)
    X0, Y0 = X0 % k, Y0 % k
    a, b, c, d = A.a, A.b, A.c, A.d
    pts = [(k, X0, Y0)]
    X, Y = (a * X0 + b * Y0) % k, (c * X0 + d * Y0) % k
    while X != X0 or Y != Y0:
        if len(pts) == MAX_PERIOD:
            raise PeriodLimitError(f"orbit period exceeds {MAX_PERIOD}")
        pts.append((k, X, Y))
        X, Y = (a * X + b * Y) % k, (c * X + d * Y) % k
    return pts, len(pts)


class Orbit(_HashOnce):
    """A periodic orbit of f_A with its characteristic number.  `points`,
    the torus points (k, X, Y) with 0 <= X, Y < k, is in f_A order:
    points[(i + 1) % period] = f_A(points[i]).  `box_lifts` relies on it:
    a lift found at points[i] in a box renormalized by A^j is A^j of a
    lift of points[(i - j) % period]."""
    __slots__ = ("points", "period", "char")

    def __init__(self, points: tuple, period: int, char: int):
        _set(self, "points", points)      # tuple of Point, in f_A order
        _set(self, "period", period)
        _set(self, "char", char)          # signed characteristic number

    def _key(self):
        return self.points, self.period, self.char

    @property
    def twist(self) -> int:
        return self.char * self.period


class MarkedSet(_HashOnce):
    """Pairwise disjoint marked orbits.  `index` maps each of their points
    (k, X, Y) to (orbit, place): the orbit holding the point and the
    point's index in its `points`.  It is the one lookup from a lift to its
    orbit; building it checks that the orbits are disjoint.
    `plan` is the set's box-scan plan (`_scan_plan`); like `index`, it is a
    function of the orbits and stays out of `_key()`."""
    __slots__ = ("orbits", "role", "points", "index", "plan")

    def __init__(self, orbits: tuple, role: str = ""):
        index = {}
        for orb in orbits:
            if len(orb.points) != orb.period:
                raise InvariantError("orbit cardinality != period")
            for i, p in enumerate(orb.points):
                if p in index:
                    raise InvariantError(f"orbits not pairwise disjoint at {p}")
                index[p] = orb, i
        _set(self, "orbits", orbits)      # tuple of Orbit
        _set(self, "role", role)
        _set(self, "points", tuple(p for orb in orbits for p in orb.points))
        _set(self, "index", index)
        _set(self, "plan", _scan_plan(index))

    def _key(self):
        return self.orbits, self.role

    def is_empty(self) -> bool:
        return not self.orbits

    def locate(self, p):
        """(orbit, place) of the marked point of which p, a point of the
        plane or a pair, is a lift, or None."""
        k, X, Y = as_point(p)
        return self.index.get((k, X % k, Y % k))


# A set whose P points have the common denominator K > 1 is scanned as the
# one lattice (1/K)Z^2 when K^2 <= DENSE * P, that is when its points fill
# at least half of the lattice's K^2 residues mod Z^2
DENSE = 2


def _scan_plan(index) -> tuple:
    """The cosets that a box scan of the marked points in `index` (as in
    `MarkedSet.index`) steps through, each (K, X0, Y0, step, lift): the
    lattice points ((X0 + m*step)/K, (Y0 + n*step)/K) for all integers m
    and n.

    A dense set is one coset (K, 0, 0, 1, residues) of (1/K)Z^2, with K the
    lcm of the points' denominators, and residues[(X % K)*K + Y % K] is
    (base, K // k, twist) for the marked point base = (X/K, Y/K) mod 1 with
    least denominator k, or None for an unmarked residue.  Otherwise each
    point (X/k, Y/k), at `place` in its orbit, is its own coset
    (k, X, Y, k, (points, place, period, twist)) with its orbit's points,
    period and twist: every lattice point of the coset is a lift of it."""
    K = lcm(*(k for k, _, _ in index))
    if K > 1 and K * K <= DENSE * len(index):
        residues = [None] * (K * K)
        for (k, X, Y), (orb, place) in index.items():
            scale = K // k
            residues[X * scale * K + Y * scale] = (orb.points[place], scale,
                                                  orb.twist)
        return ((K, 0, 0, 1, tuple(residues)),)
    return tuple((k, X, Y, k, (orb.points, place, orb.period, orb.twist))
                 for (k, X, Y), (orb, place) in index.items())


def marked_set(A: HyperbolicMatrix, seeds, role: str = "") -> MarkedSet:
    """Build a MarkedSet from (point, characteristic_number) seeds.

    Each seed point generates its full orbit; duplicate orbits are rejected.
    """
    orbits = []
    for q, char in seeds:
        pts, period = orbit_of(A, q)
        orbits.append(Orbit(tuple(pts), period, int(char)))
    return MarkedSet(tuple(orbits), role)


def sets_disjoint(X: MarkedSet, Y: MarkedSet) -> bool:
    return X.index.keys().isdisjoint(Y.index)


# ---------------------------------------------------------------------------
# Lattice-point enumeration in (s,u)-boxes


class MarkedPointHit:
    __slots__ = ("base", "lift", "s", "u", "twist")

    def __init__(self, base: Point, lift: Point, s: QuadNum, u: QuadNum,
                 twist: int):
        self.base = base            # marked point in [0,1)^2
        self.lift = lift            # base + lattice, over base's k
        self.s = s
        self.u = u
        self.twist = twist

    @property
    def lattice(self) -> tuple:
        """(m, n) in Z^2 with lift = base + (m, n)."""
        k, X, Y = self.lift
        return X // k, Y // k


def _log2(n: int) -> int:
    """About log2(n) * 2^LOG_BITS for an integer n > 0, within 0.008 *
    2^LOG_BITS: the place of the top bit, plus the fraction f that the bits
    below it make, read through log2(1 + f) ~ f + 0.3466 f (1 - f)."""
    e = n.bit_length() - 1
    one = 1 << LOG_BITS
    f = (n << LOG_BITS >> e) - one
    return (e << LOG_BITS) + f + (f * (one - f) * 22715 >> 2 * LOG_BITS)


def _log2_width(p: int, q: int, D: int, root: int) -> int:
    """About log2((p + q*sqrt(D)) * 2^ROOT_BITS) * 2^LOG_BITS, within 0.02 *
    2^LOG_BITS, for p + q*sqrt(D) > 0 and root = fixed_root(D).  That value
    times 2^ROOT_BITS is n = p*2^ROOT_BITS + q*root, to within |q|.  When p
    and q*sqrt(D) cancel so far that n is not above |q|*2^12, it is
    (p^2 - q^2 D) / (p - q*sqrt(D)) instead, as in `_to_float`: the
    denominator does not cancel."""
    n = (p << ROOT_BITS) + q * root
    if n >> 12 > abs(q):
        return _log2(n)
    return (_log2(abs(p * p - q * q * D)) + (ROOT_BITS << LOG_BITS + 1)
            - _log2(abs((p << ROOT_BITS) - q * root)))


# The error bound of a difference of two `_log2_width`s, each within
# 0.02 * 2^LOG_BITS, in units of 2^-LOG_BITS, rounded up with room to spare
LOG_ERROR = 2700


def _log_ratio(frame: EigenFrame, P1: int, Q1: int, P2: int, Q2: int,
               halve: bool = False) -> int:
    """The greatest n with lam^n <= r, for r = (P1 + Q1*sqrt(D)) /
    (P2 + Q2*sqrt(D)) with both parts positive: floor(log_lam(r)); with
    halve, (n + 1) // 2 instead (`_balance_power`).

    A filtered exact predicate (Fortune and Van Wyk, SoCG 1993): t =
    log2(r) * 2^LOG_BITS lies within LOG_ERROR of the estimate est, the
    difference of the parts' `_log2_width`s, and l = log2(lam) *
    2^LOG_BITS lies in [L, L + 2) for L the frame's `log2_lam`, which
    `_log2_fixed` may leave one low.  So n = floor(t / l) lies between
    the floors that the band [est - LOG_ERROR, est + LOG_ERROR] gives at
    l = L and l -> L + 2.  When they are all one answer (n, or with halve
    (n + 1) // 2), it is returned and no rung is read.  Otherwise n is
    estimated from est and L and confirmed exactly, lam^n <= r <
    lam^(n+1), by integer sign tests against the ladder's rungs n and
    n + 1.  Each failed test moves n by one toward the other side, so an
    estimate that is one off costs one more test.  Either way the answer
    is exact."""
    D, root, L = frame.D, frame.root, frame.log2_lam
    est = _log2_width(P1, Q1, D, root) - _log2_width(P2, Q2, D, root)
    lo, hi = est - LOG_ERROR, est + LOG_ERROR
    n_lo, n_hi = min(lo // L, lo // (L + 2)), max(hi // L, hi // (L + 2))
    if halve:
        n_lo, n_hi = (n_lo + 1) // 2, (n_hi + 1) // 2
    if n_lo == n_hi:
        return n_lo
    # rounded up by 1/32 of a bit, about the logarithms' largest error,
    # since many ratios lie exactly on a rung
    n = (est + (1 << LOG_BITS - 5)) // L
    QD = Q2 * D

    def below(k):                       # r < lam^k
        a, b, e = frame.rung(k)[2]
        return _sign(e * P1 - a * P2 - b * QD, e * Q1 - a * Q2 - b * P2,
                     D) < 0

    if below(n):
        n -= 1
        while below(n):
            n -= 1
    else:
        while not below(n + 1):
            n += 1
    return (n + 1) // 2 if halve else n


def _balance_power(frame: EigenFrame, sp: int, sq: int, ds: int, up: int,
                   uq: int, du: int) -> int:
    """The renormalization power j of a box whose widths w_s = (sp +
    sq*sqrt(D))/ds and w_u = (up + uq*sqrt(D))/du are positive: the
    integer nearest log_{lam^2}(w_s / w_u), so that lam^-j w_s and lam^j
    w_u are within a factor lam of each other.  It is (L + 1) // 2 for
    L = floor(log_lam(w_s / w_u)), so a ratio on an even rung lam^2j,
    where the error band leaves L between 2j - 1 and 2j, reads no rung;
    one on an odd rung still does, as j depends on which side it lies."""
    return _log_ratio(frame, sp * du, sq * du, up * ds, uq * ds, True)


def box_lifts(frame: EigenFrame, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
              include=(True, True, True, True)):
    """(base, lift, twist) for every lift = (k, X, Y) of a marked point
    base of mset inside [s_lo,s_hi] x [u_lo,u_hi] with per-edge inclusion,
    in no particular order; k is the base's least common denominator,
    whichever lattice of the set's scan plan found the lift.

    include = (s_lo closed, s_hi closed, u_lo closed, u_hi closed); each
    bound is the integers (p, q, d) of (p + q*sqrt(D))/d with d > 0, and
    the scan is set up and run on those integers: the range check and the
    widths are sign tests on cross-multiplied differences, and the lattice
    kernel (`_box_lifts`) takes each column's exact n-interval from four
    integer floors of quadratic numbers, so every lift it lists is in the
    box and no lift is re-checked.  It steps through the cosets of
    `mset.plan`: the one lattice (1/K)Z^2 of a set that fills at least half
    of its residues (K^2 <= 2P), each lattice point looked up by its
    residue, or else one coset base + Z^2 per marked point.

    Extremely thin boxes (long in one eigen-direction, short in the other) are
    first renormalized by a power A^j: lifts of a marked set are invariant
    under p -> A p, which scales (s, u) by (lam^-1, lam), so the query box can
    be made nearly square.  This keeps the scanned lattice region proportional
    to the hit count instead of the box's longest side.  The scaled bounds
    are unreduced products of the bounds' integers with those the ladder
    keeps of the rungs -j and j.  The kernel maps each lift it finds back
    by the integer rows of A^-j, and takes its base from the orbit j steps
    back (`Orbit.points` is in f_A order), so the cost per lift is the same
    as in a box that needs no renormalization; a lattice point of a dense
    set is looked up after it is mapped back, so its residue names its
    base.
    """
    D = frame.D
    bounds = ((p1, q1, d1), (p2, q2, d2), (p3, q3, d3), (p4, q4, d4)) = (
        s_lo, s_hi, u_lo, u_hi)
    # the widths s_hi - s_lo over d1 d2 and u_hi - u_lo over d3 d4
    sp, sq = p2 * d1 - p1 * d2, q2 * d1 - q1 * d2
    up, uq = p4 * d3 - p3 * d4, q4 * d3 - q3 * d4
    s_sign, u_sign = _sign(sp, sq, D), _sign(up, uq, D)
    if s_sign < 0 or u_sign < 0:
        raise ValueError("empty range")
    j, rows = 0, ((1, 0), (0, 1))
    if s_sign and u_sign:
        j = _balance_power(frame, sp, sq, d1 * d2, up, uq, d3 * d4)
    if j:
        (a, b, e), (f, g, h), rows = frame.renormalization(j)
        bounds = ((p1 * a + q1 * b * D, p1 * b + q1 * a, d1 * e),
                  (p2 * a + q2 * b * D, p2 * b + q2 * a, d2 * e),
                  (p3 * f + q3 * g * D, p3 * g + q3 * f, d3 * h),
                  (p4 * f + q4 * g * D, p4 * g + q4 * f, d4 * h))
    return _box_lifts(frame, mset, *bounds, include, j, rows)


def view_lifts(view: FrameView, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
               include=(True, True, True, True)) -> list:
    """The lifts of mset in the view's box [s_lo,s_hi] x [u_lo,u_hi], its
    bounds (p, q, d) triples and its edges included as in `box_lifts`, in
    no particular order, each as (base, lift, twist, s, u): the lift (k,
    X, Y) and its view coordinates s and u as (p, q, d) triples, over the
    view's denominators L_s*k and L_u*k.

    This is the one place where a lift's view coordinates are made, from
    the view's one integer table (`FrameView.coefficients`), and the one
    scan entry of the strip climber: every reader takes s and u as it
    takes an edge or a height, `view_hit` as one QuadNum each, the climber
    and the game by sign tests and sums on their integers, and the
    figures' `svgfig.lift_dots` less the origin's triple."""
    a, b, c, d, ls, f, g, h, i, lu = view.coefficients
    return [(base, lift, twist, (a * X + b * Y, c * X + d * Y, ls * k),
             (f * X + g * Y, h * X + i * Y, lu * k))
            for base, lift, twist in box_lifts(
                view.frame, mset, *view.box(s_lo, s_hi, u_lo, u_hi,
                                            include))
            for k, X, Y in (lift,)]


def view_hit(view: FrameView, lift: tuple) -> MarkedPointHit:
    """The hit of a lift of `view_lifts`: its exact view s and u, one
    QuadNum of each triple."""
    base, at, twist, s, u = lift
    D = view.frame.D
    return MarkedPointHit(base, at, _qn(*s, D), _qn(*u, D), twist)


def hits_in_box(view: FrameView, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
                include=(True, True, True, True)):
    """The lifts of mset in the view's box [s_lo,s_hi] x [u_lo,u_hi], its
    bounds QuadNums, ints or Fractions and its edges included as in
    `box_lifts`, as hits whose exact s and u are view coordinates
    (`view_lifts`, `view_hit`).  The hits come in no particular order."""
    return [view_hit(view, lift)
            for lift in view_lifts(view, mset, _parts(s_lo), _parts(s_hi),
                                   _parts(u_lo), _parts(u_hi), include)]


# How an edge at x becomes a bound on the integer n: (sign, offset) in
# sign*floor(sign*x) + offset, keyed by (lower bound, edge closed)
_ROUNDING = {(True, True): (-1, 0),         # n >= x: n >= ceil(x)
             (True, False): (1, 1),         # n > x: n >= floor(x) + 1
             (False, True): (1, 0),         # n <= x: n <= floor(x)
             (False, False): (-1, -1)}      # n < x: n <= ceil(x) - 1


def _edges(form: IntForm, lo, hi, lo_closed, hi_closed):
    """The edges lo <= value <= hi of one coordinate, given as (p, q, d)
    triples, as (lower, upper) rules for n.

    A lift (x0 + m, y0 + n) meets the edge at v exactly when y0 + n lies on
    the right side of t = v*recip - slope*(x0 + m), and n is bounded by
    sign*floor(sign*(t - y0)) + offset, rounded by `_ROUNDING`.  With
    v*recip = (p + q*sqrt(D))/dv and slope = (sp + sq*sqrt(D))/sd, at the
    lifts x0 + m = X/k, y0 = Y/k that bound is

        sign*floor((k*a - f*X - h*Y + (k*b - g*X)*sqrt(D)) / (e*k)) + offset

    for the rule (a, b, f, g, h, e, sign, offset).  These bounds are exact
    for rational and irrational t alike.
    """
    if form.rising:
        return (_rule(form, lo, lo_closed, True),
                _rule(form, hi, hi_closed, False))
    # dividing by c_y < 0 swaps the edges
    return _rule(form, hi, hi_closed, True), _rule(form, lo, lo_closed, False)


def _rule(form: IntForm, v, closed, lower):
    """The rule (a, b, f, g, h, e, sign, offset) of `_edges` for the edge
    at v, a (p, q, d) triple."""
    rp, rq, rd = form.recip
    sp, sq, sd = form.slope
    p, q, d = v
    dv = d * rd
    sign, offset = _ROUNDING[lower, closed]
    return (sign * (p * rp + q * rq * form.D) * sd,
            sign * (p * rq + q * rp) * sd, sign * dv * sp, sign * dv * sq,
            sign * dv * sd, dv * sd, sign, offset)


def _box_lifts(frame: EigenFrame, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
               include, j: int, rows):
    """(base, (k, X, Y), twist) for every lift (X/k, Y/k) of a marked
    point base of mset in a box, scanned as its image under A^j: the bounds
    are the image's (p, q, d) triples, and rows, the integer rows of A^-j,
    map each lift found there back; k is the base's least denominator.

    One loop runs over the columns of each coset of the set's `plan`.  Per
    coset the column range takes two floors, and the four edge rules are
    set up at its first column and stepped from column to column.  A
    coset of one point is a lift of that point at every lattice point; in
    the one coset of a dense set, each lattice point mapped back is looked
    up by its residue mod Z^2, which names its base directly."""
    s_int, u_int, D = frame.s_int, frame.u_int, frame.D
    # the lower and upper rules of s, then of u
    rules = (_edges(s_int, s_lo, s_hi, include[0], include[1])
             + _edges(u_int, u_lo, u_hi, include[2], include[3]))
    # x = s + u at every point (v_s and v_u have first coordinate 1), so the
    # box's columns lie between s_lo + u_lo and s_hi + u_hi
    (p1, q1, d1), (p2, q2, d2) = s_lo, u_lo
    lo_p, lo_q, lo_d = p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
    (p1, q1, d1), (p2, q2, d2) = s_hi, u_hi
    hi_p, hi_q, hi_d = p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2
    (a, b), (c, d) = rows
    out = []
    for K, X0, Y0, step, lift in mset.plan:
        m_lo = -_floor(X0 * lo_d - lo_p * K, -lo_q * K, lo_d * step, D)
        m_hi = _floor(hi_p * K - X0 * hi_d, hi_q * K, hi_d * step, D)
        if m_hi < m_lo:
            continue
        single = step == K
        if single:
            # a lift of points[place] found in the box is A^j of a lift
            # of points[place - j]
            points, place, period, twist = lift
            base = points[(place - j) % period]
        # each rule's floor argument (p + q*sqrt(D))/(e*step) at column
        # m_lo, whose p and q move by -f*step and -g*step per column
        x = X0 + m_lo * step
        ((sp1, sq1, sf1, sg1, se1, ss1, so1),
         (sp2, sq2, sf2, sg2, se2, ss2, so2),
         (up1, uq1, uf1, ug1, ue1, us1, uo1),
         (up2, uq2, uf2, ug2, ue2, us2, uo2)) = [
            (K * ra - rf * x - rh * Y0, K * rb - rg * x, rf * step,
             rg * step, re * step, sign, offset)
            for ra, rb, rf, rg, rh, re, sign, offset in rules]
        bs, ds = b * step, d * step
        for m in range(m_lo, m_hi + 1):
            n_lo = max(ss1 * _floor(sp1, sq1, se1, D) + so1,
                       us1 * _floor(up1, uq1, ue1, D) + uo1)
            n_hi = min(ss2 * _floor(sp2, sq2, se2, D) + so2,
                       us2 * _floor(up2, uq2, ue2, D) + uo2)
            sp1, sq1, sp2, sq2 = sp1 - sf1, sq1 - sg1, sp2 - sf2, sq2 - sg2
            up1, uq1, up2, uq2 = up1 - uf1, uq1 - ug1, up2 - uf2, uq2 - ug2
            # the column's lattice points mapped back by A^-j, one step of
            # A^-j (0, step) apart
            x, y = X0 + m * step, Y0 + n_lo * step
            X, Y = a * x + b * y, c * x + d * y
            if single:
                for _ in range(n_lo, n_hi + 1):
                    out.append((base, (K, X, Y), twist))
                    X += bs
                    Y += ds
                continue
            for _ in range(n_lo, n_hi + 1):
                found = lift[X % K * K + Y % K]
                if found:
                    base, scale, twist = found
                    out.append((base, (base[0], X // scale, Y // scale),
                                twist))
                X += bs
                Y += ds
    return out


# ---------------------------------------------------------------------------
# Group <A> x| Z^2 elements and sign-flipped frame views


class GroupElement(_Value):
    """p |-> A^k p + v, for integer k and integer vector v.  `rows`, the
    integer rows of A^k, are a function of A and k and stay out of
    `_key()`.  A^k is in SL(2, Z), so the image of a point (k, X, Y) keeps
    the least common denominator k."""
    __slots__ = ("A", "k", "v", "rows")

    def __init__(self, A: HyperbolicMatrix, k: int, v: tuple, rows):
        _set(self, "A", A)
        _set(self, "k", k)
        _set(self, "v", v)                # (int, int)
        _set(self, "rows", rows)

    def _key(self):
        return self.A, self.k, self.v

    def act(self, p: Point) -> Point:
        """The image of the point p."""
        k, X, Y = p
        (a, b), (c, d) = self.rows
        v0, v1 = self.v
        return k, a * X + b * Y + v0 * k, c * X + d * Y + v1 * k


def group_element(A: HyperbolicMatrix, k: int, src,
                  dst) -> GroupElement | None:
    """The element A^k + v mapping the lift src to dst, points or pairs,
    or None when the translation v is not integral.  A^k and integer
    translations keep a point's least common denominator, so there is none
    when src and dst have different ones; otherwise v is read off with
    `divmod`."""
    K, X, Y = as_point(src)
    K2, X2, Y2 = as_point(dst)
    if K != K2:
        return None
    rows = A.power_rows(k)
    (a, b), (c, d) = rows
    v0, r0 = divmod(X2 - a * X - b * Y, K)
    v1, r1 = divmod(Y2 - c * X - d * Y, K)
    if r0 or r1:
        return None
    return GroupElement(A, k, (v0, v1), rows)


class FrameView:
    """Eigen-coordinates with optional sign flips and an optional s <-> u
    transposition; together they make the eight symmetries of the square.

    Flipping u turns decreasing diagonals into increasing ones, so negative
    rectangles and the mixed quadrants C_{+,-}, C_{-,+} reduce to the
    positive/(+,+) theory in the view.  A transposed view's s is the
    frame's u and its u the frame's s, each then flipped as its flag says,
    so a climb in its u is a walk along the frame's s (`transposed`).  The
    view decides once, when it is built, what the transposition changes:
    `coefficients`, its one integer table, holds the signed integers
    (px, py, qx, qy, L) of its s, then of its u, so that s at (X/k, Y/k)
    is (px*X + py*Y + (qx*X + qy*Y)*sqrt(D)) / (L*k), and a transposed
    view's `box` swaps the flipped bounds, (p, q, d) triples as the scans
    take them.  s and u take a point or a pair and read that table.
    """

    def __init__(self, frame: EigenFrame, flip_s: bool = False,
                 flip_u: bool = False, transpose: bool = False):
        self.frame = frame
        self.flip_s = flip_s
        self.flip_u = flip_u
        self.transpose = transpose
        s_int, u_int = frame.s_int, frame.u_int
        if transpose:
            s_int, u_int = u_int, s_int
            self.box = self._transposed_box
        ss, su = -1 if flip_s else 1, -1 if flip_u else 1
        self.coefficients = (ss * s_int.px, ss * s_int.py, ss * s_int.qx,
                             ss * s_int.qy, s_int.L, su * u_int.px,
                             su * u_int.py, su * u_int.qx, su * u_int.qy,
                             u_int.L)

    def s(self, p) -> QuadNum:
        a, b, c, d, L = self.coefficients[:5]
        k, X, Y = as_point(p)
        return _qn(a * X + b * Y, c * X + d * Y, L * k, self.frame.D)

    def u(self, p) -> QuadNum:
        a, b, c, d, L = self.coefficients[5:]
        k, X, Y = as_point(p)
        return _qn(a * X + b * Y, c * X + d * Y, L * k, self.frame.D)

    def transposed(self, reverse: bool = False) -> FrameView:
        """The view whose s is this view's u and whose u is this view's s,
        negated when reverse."""
        return FrameView(self.frame, self.flip_u, self.flip_s != reverse,
                         not self.transpose)

    def box(self, s_lo, s_hi, u_lo, u_hi, include=(True, True, True, True)):
        """The view's box, its bounds (p, q, d) triples, as the frame's
        (s_lo, s_hi, u_lo, u_hi, include)."""
        i0, i1, i2, i3 = include
        if self.flip_s:
            (p1, q1, d1), (p2, q2, d2) = s_lo, s_hi
            s_lo, s_hi, i0, i1 = (-p2, -q2, d2), (-p1, -q1, d1), i1, i0
        if self.flip_u:
            (p1, q1, d1), (p2, q2, d2) = u_lo, u_hi
            u_lo, u_hi, i2, i3 = (-p2, -q2, d2), (-p1, -q1, d1), i3, i2
        return s_lo, s_hi, u_lo, u_hi, (i0, i1, i2, i3)

    def _transposed_box(self, s_lo, s_hi, u_lo, u_hi,
                        include=(True, True, True, True)):
        # the flipped s bounds lie on the frame's u, the u bounds on its s
        a_lo, a_hi, b_lo, b_hi, (i0, i1, i2, i3) = FrameView.box(
            self, s_lo, s_hi, u_lo, u_hi, include)
        return b_lo, b_hi, a_lo, a_hi, (i2, i3, i0, i1)


QUADRANTS = ("++", "--", "+-", "-+")


def quadrant_view(frame: EigenFrame, quadrant: str) -> FrameView:
    """View in which the given quadrant C_{q1,q2} looks like C_{+,+}."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant!r}")
    return FrameView(frame, flip_s=(quadrant[0] == "-"), flip_u=(quadrant[1] == "-"))


def quadrant_direction(quadrant: str) -> int:
    """The quadrant's exponent direction d: a crossing of twist w scales
    the offset by lam^(d*w), with d = -1 in ++ and -- and +1 in +- and -+."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant!r}")
    return -1 if quadrant in ("++", "--") else 1

