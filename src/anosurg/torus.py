"""The automorphism f_A on the torus: eigenframe, periodic orbits, marked sets,
and exact enumeration of marked lattice points inside (s,u)-boxes.

Coordinates: the plane carries two frames.  "Standard" coordinates are the
usual (x, y) with the integer lattice; "eigen" coordinates (s, u) diagonalize
A as (s, u) -> (lam^-1 s, lam u), so the stable foliation is horizontal and
the unstable one vertical.  All conversions are exact in Q(sqrt(D)).

Orientation convention: v_u = (1, slope_u) and v_s = (1, slope_s), both with
positive first coordinate.  For positive matrices slope_u in (0, 1) and
slope_s < 0, so the segment from (0,0) to (1,0) has increasing (s, u): the
unit horizontal diagonal spans a positive rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .quadfield import QuadNum, qn_ceil, qn_floor, qn_log_floor, qn_pow


class UnsupportedMatrixError(ValueError):
    """Matrix outside the supported class (det != 1, |trace| <= 2, trace < 0)."""


class InvariantError(RuntimeError):
    """An internal invariant that should be unbreakable was violated."""


Point = tuple[Fraction, Fraction]  # rational point, standard coordinates


def point(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def mod1(p: Point) -> Point:
    return (p[0] - (p[0].numerator // p[0].denominator),
            p[1] - (p[1].numerator // p[1].denominator))


@dataclass(frozen=True)
class HyperbolicMatrix:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise UnsupportedMatrixError("determinant must be 1")
        tr = self.a + self.d
        if -2 <= tr <= 2:
            raise UnsupportedMatrixError(f"trace {tr}: not hyperbolic")
        if tr < 0:
            raise UnsupportedMatrixError(
                f"trace {tr}: negative-trace matrices are not supported")

    @staticmethod
    def from_rows(rows) -> "HyperbolicMatrix":
        (a, b), (c, d) = rows
        return HyperbolicMatrix(int(a), int(b), int(c), int(d))

    @property
    def trace(self) -> int:
        return self.a + self.d

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def apply(self, p: Point) -> Point:
        return (self.a * p[0] + self.b * p[1], self.c * p[0] + self.d * p[1])

    def apply_mod1(self, p: Point) -> Point:
        return mod1(self.apply(p))

    def power_rows(self, n: int):
        """Integer rows of A^n (n may be negative; det 1 so inverse is integral)."""
        if n >= 0:
            rows = ((1, 0), (0, 1))
            base = self.rows()
        else:
            rows = ((1, 0), (0, 1))
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


def _mat_apply(rows, p):
    (a, b), (c, d) = rows
    return (a * p[0] + b * p[1], c * p[0] + d * p[1])


# ---------------------------------------------------------------------------
# Eigenframe


@dataclass(frozen=True)
class EigenFrame:
    matrix: HyperbolicMatrix
    D: int
    lam: QuadNum          # expansive eigenvalue > 1
    lam_inv: QuadNum
    v_s: tuple            # eigenvector for lam_inv, first coordinate 1
    v_u: tuple            # eigenvector for lam, first coordinate 1
    s_form: tuple         # linear form with s_form(v_u) = 0
    u_form: tuple         # linear form with u_form(v_s) = 0

    def s(self, p) -> QuadNum:
        return self.s_form[0] * p[0] + self.s_form[1] * p[1]

    def u(self, p) -> QuadNum:
        return self.u_form[0] * p[0] + self.u_form[1] * p[1]

    def to_eigen(self, p):
        return (self.s(p), self.u(p))

    def from_eigen(self, su):
        s, u = su
        return (self.v_s[0] * s + self.v_u[0] * u,
                self.v_s[1] * s + self.v_u[1] * u)


def eigenframe(A: HyperbolicMatrix) -> EigenFrame:
    T = A.trace
    D = T * T - 4
    half = Fraction(1, 2)
    lam = QuadNum(Fraction(T, 2), half, D)
    lam_inv = QuadNum(Fraction(T, 2), -half, D)
    one = QuadNum(1, 0, D)
    # b != 0: otherwise the (integer) diagonal entries would be unit eigenvalues,
    # impossible for det 1, trace >= 3.
    if A.b == 0:
        raise InvariantError("hyperbolic SL(2,Z) matrix with b = 0")
    slope_u = (lam - A.a) / A.b
    slope_s = (lam_inv - A.a) / A.b
    v_u = (one, slope_u)
    v_s = (one, slope_s)
    # p = s*v_s + u*v_u; invert the column matrix [[1,1],[slope_s,slope_u]].
    det = slope_u - slope_s  # = sqrt(D)/b, nonzero
    s_form = (slope_u / det, -one / det)
    u_form = (-slope_s / det, one / det)
    return EigenFrame(A, D, lam, lam_inv, v_s, v_u, s_form, u_form)


# ---------------------------------------------------------------------------
# Periodic orbits and marked sets


def orbit_of(A: HyperbolicMatrix, q: Point):
    """Full f_A-orbit of a rational point and its exact period."""
    q = mod1((Fraction(q[0]), Fraction(q[1])))
    pts = [q]
    cur = A.apply_mod1(q)
    while cur != q:
        pts.append(cur)
        cur = A.apply_mod1(cur)
    return pts, len(pts)


@dataclass(frozen=True)
class Orbit:
    points: tuple       # tuple of Point, in iteration order
    period: int
    char: int           # signed characteristic number of the surgery

    @property
    def twist(self) -> int:
        return self.char * self.period


@dataclass(frozen=True)
class MarkedSet:
    orbits: tuple       # tuple of Orbit
    role: str = ""

    def __post_init__(self):
        seen = set()
        for orb in self.orbits:
            if len(orb.points) != orb.period:
                raise InvariantError("orbit cardinality != period")
            for p in orb.points:
                if p in seen:
                    raise InvariantError(f"orbits not pairwise disjoint at {p}")
                seen.add(p)

    @property
    def points(self):
        return tuple(p for orb in self.orbits for p in orb.points)

    def is_empty(self) -> bool:
        return not self.orbits

    def twist_of(self, base: Point) -> int:
        for orb in self.orbits:
            if base in orb.points:
                return orb.twist
        raise KeyError(base)

    def orbit_containing(self, base: Point) -> Orbit:
        for orb in self.orbits:
            if base in orb.points:
                return orb
        raise KeyError(base)

    def with_chars(self, chars) -> "MarkedSet":
        """Same geometry with new characteristic numbers (one per orbit)."""
        if len(chars) != len(self.orbits):
            raise ValueError("need one characteristic number per orbit")
        return MarkedSet(
            tuple(Orbit(o.points, o.period, int(k))
                  for o, k in zip(self.orbits, chars)),
            self.role,
        )

    def common_period(self) -> int:
        n = 1
        for orb in self.orbits:
            n = n * orb.period // gcd(n, orb.period)
        return n


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
    return not set(X.points) & set(Y.points)


# ---------------------------------------------------------------------------
# Lattice-point enumeration in (s,u)-boxes


@dataclass(frozen=True)
class MarkedPointHit:
    base: Point           # base point in [0,1)^2
    lattice: tuple        # integer vector (m, n); lift = base + lattice
    s: QuadNum
    u: QuadNum
    twist: int

    @property
    def lift(self) -> Point:
        return (self.base[0] + self.lattice[0], self.base[1] + self.lattice[1])


def _in_interval(v: QuadNum, lo: QuadNum, hi: QuadNum, lo_closed: bool, hi_closed: bool):
    lo_ok = v >= lo if lo_closed else v > lo
    if not lo_ok:
        return False
    return v <= hi if hi_closed else v < hi


def _balance_power(frame: EigenFrame, w_s: QuadNum, w_u: QuadNum) -> int:
    """The integer j nearest log_{lam^2}(w_s / w_u), so that lam^(-j) w_s and
    lam^j w_u are within a factor lam of each other: the floor of
    log_{lam^2}(lam w_s / w_u)."""
    if not (w_s > 0 and w_u > 0):
        return 0
    lam = frame.lam
    return qn_log_floor(w_s * lam / w_u, lam * lam)


def hits_in_box(frame: EigenFrame, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
                include=(True, True, True, True)):
    """Lifts of mset inside [s_lo,s_hi] x [u_lo,u_hi] with per-edge inclusion.

    include = (s_lo closed, s_hi closed, u_lo closed, u_hi closed).
    The box is mapped to a parallelogram in standard coordinates, its integer
    bounding box found via exact floors, and each candidate filtered exactly.

    Extremely thin boxes (long in one eigen-direction, short in the other) are
    first renormalized by a power of A: lifts of a marked set are invariant
    under p -> A p, which scales (s, u) by (lam^-1, lam), so the query box can
    be made nearly square.  This keeps the scanned lattice region proportional
    to the hit count instead of the box's longest side.
    """
    if s_lo > s_hi or u_lo > u_hi:
        raise ValueError("empty range")
    j = _balance_power(frame, s_hi - s_lo, u_hi - u_lo)
    if j:
        sc, uc = qn_pow(frame.lam, -j), qn_pow(frame.lam, j)
        inner = _scan_box(frame, mset, s_lo * sc, s_hi * sc,
                          u_lo * uc, u_hi * uc, include)
        rows = frame.matrix.power_rows(-j)
        out = []
        for h in inner:
            q = _mat_apply(rows, h.lift)
            base = mod1(q)
            lat = (int(q[0] - base[0]), int(q[1] - base[1]))
            out.append(MarkedPointHit(base, lat, h.s * uc, h.u * sc, h.twist))
        return out  # positive scalings preserve the (s, u) sort order
    return _scan_box(frame, mset, s_lo, s_hi, u_lo, u_hi, include)


def _scan_box(frame, mset, s_lo, s_hi, u_lo, u_hi, include):
    corners = [frame.from_eigen((s, u))
               for s in (s_lo, s_hi) for u in (u_lo, u_hi)]
    xs = [c[0] for c in corners]
    x_min, x_max = min(xs), max(xs)
    # s and u are linear in the lattice vector (m, n); for each m solve the
    # exact n-interval instead of scanning the parallelogram's bounding box.
    s_m, s_n = frame.s((1, 0)), frame.s((0, 1))
    u_m, u_n = frame.u((1, 0)), frame.u((0, 1))

    def n_range(lo, hi, coef):
        # integer n with lo <= n*coef <= hi (coef != 0, endpoints irrational-safe)
        if coef.sign() > 0:
            return qn_ceil(lo / coef), qn_floor(hi / coef)
        return qn_ceil(hi / coef), qn_floor(lo / coef)

    out = []
    for orb in mset.orbits:
        for base in orb.points:
            s_b, u_b = frame.s(base), frame.u(base)
            m_lo = qn_ceil(x_min - base[0])
            m_hi = qn_floor(x_max - base[0])
            for m in range(m_lo, m_hi + 1):
                sm, um = s_b + m * s_m, u_b + m * u_m
                a0, a1 = n_range(s_lo - sm, s_hi - sm, s_n)
                b0, b1 = n_range(u_lo - um, u_hi - um, u_n)
                for n in range(max(a0, b0), min(a1, b1) + 1):
                    s = sm + n * s_n
                    if not _in_interval(s, s_lo, s_hi, include[0], include[1]):
                        continue
                    u = um + n * u_n
                    if not _in_interval(u, u_lo, u_hi, include[2], include[3]):
                        continue
                    out.append(MarkedPointHit(base, (m, n), s, u, orb.twist))
    out.sort(key=lambda h: (h.s, h.u))
    return out


# ---------------------------------------------------------------------------
# Group <A> x| Z^2 elements and sign-flipped frame views


@dataclass(frozen=True)
class GroupElement:
    """p |-> A^k p + v, for integer k and integer vector v."""
    A: HyperbolicMatrix
    k: int
    v: tuple  # (int, int)

    def apply(self, p: Point) -> Point:
        q = _mat_apply(self.A.power_rows(self.k), p)
        return (q[0] + self.v[0], q[1] + self.v[1])

    def compose(self, other: "GroupElement") -> "GroupElement":
        # self o other
        rows = self.A.power_rows(self.k)
        w = _mat_apply(rows, other.v)
        return GroupElement(self.A, self.k + other.k,
                            (w[0] + self.v[0], w[1] + self.v[1]))

    def inverse(self) -> "GroupElement":
        rows = self.A.power_rows(-self.k)
        w = _mat_apply(rows, self.v)
        return GroupElement(self.A, -self.k, (-w[0], -w[1]))

    def power(self, n: int) -> "GroupElement":
        g = GroupElement(self.A, 0, (0, 0))
        step = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            g = step.compose(g)
        return g


def group_element(A: HyperbolicMatrix, k: int, src: Point,
                  dst: Point) -> GroupElement | None:
    """The element A^k + v mapping the lift src to dst, or None when the
    translation v is not integral."""
    img = _mat_apply(A.power_rows(k), src)
    v = (dst[0] - img[0], dst[1] - img[1])
    if v[0].denominator != 1 or v[1].denominator != 1:
        return None
    return GroupElement(A, k, (int(v[0]), int(v[1])))


def orbit_element(A: HyperbolicMatrix, X: MarkedSet, src: Point,
                  dst: Point) -> GroupElement | None:
    """The element A^k + v with least k >= 0 mapping the lift src to dst, or
    None when the two lifts lie in different orbits of X."""
    orb = X.orbit_containing(mod1(src))
    db = mod1(dst)
    if db not in orb.points:
        return None
    k = (orb.points.index(db) - orb.points.index(mod1(src))) % orb.period
    return group_element(A, k, src, dst)


def fixing_lift(A: HyperbolicMatrix, z: Point, n: int) -> GroupElement:
    """The lift T_v o A^n of f_A^n fixing the lift z (n a period of z's base)."""
    g = group_element(A, n, z, z)
    if g is None:
        raise InvariantError(f"{n} is not a period of {z}")
    return g


class FrameView:
    """Eigen-coordinates with optional sign flips.

    Flipping u turns decreasing diagonals into increasing ones, so negative
    rectangles and the mixed quadrants C_{+,-}, C_{-,+} reduce to the
    positive/(+,+) theory in the view.
    """

    def __init__(self, frame: EigenFrame, flip_s: bool = False, flip_u: bool = False):
        self.frame = frame
        self.flip_s = flip_s
        self.flip_u = flip_u
        self.lam = frame.lam

    def s(self, p) -> QuadNum:
        v = self.frame.s(p)
        return -v if self.flip_s else v

    def u(self, p) -> QuadNum:
        v = self.frame.u(p)
        return -v if self.flip_u else v

    def hits(self, mset: MarkedSet, s_lo, s_hi, u_lo, u_hi,
             include=(True, True, True, True)):
        """Hits in view coordinates; returned s/u are view coordinates."""
        rs_lo, rs_hi, i0, i1 = (s_lo, s_hi, include[0], include[1])
        if self.flip_s:
            rs_lo, rs_hi, i0, i1 = (-s_hi, -s_lo, include[1], include[0])
        ru_lo, ru_hi, i2, i3 = (u_lo, u_hi, include[2], include[3])
        if self.flip_u:
            ru_lo, ru_hi, i2, i3 = (-u_hi, -u_lo, include[3], include[2])
        raw = hits_in_box(self.frame, mset, rs_lo, rs_hi, ru_lo, ru_hi,
                          (i0, i1, i2, i3))
        if not (self.flip_s or self.flip_u):
            return raw
        out = [MarkedPointHit(h.base, h.lattice,
                              -h.s if self.flip_s else h.s,
                              -h.u if self.flip_u else h.u, h.twist)
               for h in raw]
        out.sort(key=lambda h: (h.s, h.u))
        return out


QUADRANTS = ("++", "--", "+-", "-+")


def quadrant_view(frame: EigenFrame, quadrant: str) -> FrameView:
    """View in which the given quadrant C_{q1,q2} looks like C_{+,+}."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant!r}")
    return FrameView(frame, flip_s=(quadrant[0] == "-"), flip_u=(quadrant[1] == "-"))


def quadrant_contracting(quadrant: str) -> bool:
    """True when crossing factors are lam^{-w} (quadrants ++/--), else lam^{+w}."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}, got {quadrant!r}")
    return quadrant in ("++", "--")
