"""Independent brute-force oracles used to cross-check the exact engine.

These deliberately avoid the library's own box-scanning code: membership is
tested lift by lift over an explicit lattice window, and primitivity by a
quadratic double loop, so agreement with the fast implementations is a real
check rather than a tautology.
"""

from fractions import Fraction
import math

from anosurg import FrameView, StairStep, marked_rect, point, qn_pow, torus
from anosurg.rectangles import period_family
from anosurg.quadfield import _parts, _qn, _sign
from anosurg.torus import PeriodLimitError, _balance_power, group_element


def pair(p):
    """The Fraction coordinates (x, y) of the engine's point p = (k, X, Y):
    the one conversion from the engine's points to the oracles' pairs."""
    k, X, Y = p
    return Fraction(X, k), Fraction(Y, k)


def mod1(p):
    """The torus point of a pair, its coordinates reduced into [0, 1)."""
    return (p[0] - math.floor(p[0]), p[1] - math.floor(p[1]))


def apply(A, p):
    """A p for a pair p of int or Fraction coordinates."""
    return (A.a * p[0] + A.b * p[1], A.c * p[0] + A.d * p[1])


def apply_mod1(A, p):
    """f_A of a pair: A p reduced mod 1."""
    return mod1(apply(A, p))


def oracle_orbit(A, q):
    """(points, period) of the f_A-orbit of the pair q, stepped on
    Fractions with `apply_mod1`: the points are pairs in [0, 1)^2, in f_A
    order.  Raises PeriodLimitError past `torus.MAX_PERIOD` points."""
    q = mod1((Fraction(q[0]), Fraction(q[1])))
    pts = [q]
    cur = apply_mod1(A, q)
    while cur != q:
        if len(pts) == torus.MAX_PERIOD:
            raise PeriodLimitError(f"orbit period exceeds {torus.MAX_PERIOD}")
        pts.append(cur)
        cur = apply_mod1(A, cur)
    return pts, len(pts)


def oracle_point(frame, s, u):
    """The point with coordinates (s, u) in frame, which is an eigenframe or
    any object with linear s and u methods: the exact inverse of the 2x2
    matrix of s and u on the unit vectors."""
    sx, sy = frame.s((1, 0)), frame.s((0, 1))
    ux, uy = frame.u((1, 0)), frame.u((0, 1))
    det = sx * uy - sy * ux
    return ((uy * s - sy * u) / det, (sx * u - ux * s) / det)


def balance_power(frame, w_s, w_u):
    """The renormalization power that `torus.box_lifts` finds for widths
    w_s and w_u given as QuadNums, ints or Fractions, 0 unless both are
    positive: `torus._balance_power` of their integers.  Not an oracle: it
    only takes the widths apart, as `box_lifts` does with a box's
    bounds."""
    (ps, qs, ds), (pu, qu, du) = _parts(w_s), _parts(w_u)
    if _sign(ps, qs, frame.D) <= 0 or _sign(pu, qu, frame.D) <= 0:
        return 0
    return _balance_power(frame, ps, qs, ds, pu, qu, du)


def _window_for_box(frame, s_lo, s_hi, u_lo, u_hi, margin=2):
    """Integer ranges of lattice coordinates that cover every lift whose
    (s, u)-coordinates can fall in the closed box (float bounds + margin)."""
    corners = [(s, u) for s in (s_lo, s_hi) for u in (u_lo, u_hi)]
    xs, ys = [], []
    for s, u in corners:
        p = oracle_point(frame, s, u)
        xs.append(float(p[0]))
        ys.append(float(p[1]))
    return (math.floor(min(xs)) - margin, math.ceil(max(xs)) + margin,
            math.floor(min(ys)) - margin, math.ceil(max(ys)) + margin)


def oracle_hits(frame, mset, s_lo, s_hi, u_lo, u_hi,
                include=(True, True, True, True), rows=None):
    """All lifts of mset in the closed/open (s, u)-box, by double loop.

    rows(base, kx), when given, narrows the lattice rows tried in column kx
    to a range that must hold every lift of base there in the box."""
    lo_s, hi_s, lo_u, hi_u = include
    x0, x1, y0, y1 = _window_for_box(frame, s_lo, s_hi, u_lo, u_hi)
    out = []
    for orb in mset.orbits:
        for base in orb.points:
            x, y = pair(base)
            for kx in range(x0, x1 + 1):
                for ky in rows(base, kx) if rows else range(y0, y1 + 1):
                    lift = (x + kx, y + ky)
                    s, u = frame.s(lift), frame.u(lift)
                    if not ((s > s_lo or (lo_s and s == s_lo)) and
                            (s < s_hi or (hi_s and s == s_hi))):
                        continue
                    if not ((u > u_lo or (lo_u and u == u_lo)) and
                            (u < u_hi or (hi_u and u == u_hi))):
                        continue
                    out.append((base, (kx, ky), s, u, orb.twist))
    out.sort(key=lambda h: (h[2], h[3]))
    return out


def oracle_band_hits(frame, mset, s_lo, s_hi, u_lo, u_hi, include):
    """oracle_hits for a long box of small height: in each lattice column
    only the rows whose float u lies within one row of [u_lo, u_hi] are
    tried, and each of them is checked exactly."""
    du_x, du_y = float(frame.u((1, 0))), float(frame.u((0, 1)))
    lo, hi = float(u_lo), float(u_hi)

    def rows(base, kx):
        u = float(frame.u(base)) + kx * du_x
        ends = sorted(((lo - u) / du_y, (hi - u) / du_y))
        return range(math.floor(ends[0]) - 1, math.ceil(ends[1]) + 2)

    return oracle_hits(frame, mset, s_lo, s_hi, u_lo, u_hi, include, rows)


class _QuadrantCoords:
    """The frame's (s, u), exchanged when transpose, with the signs a
    quadrant flips, so that oracle_hits can scan a view's box directly."""

    def __init__(self, frame, quadrant, transpose=False):
        self.frame = frame
        self.ss = -1 if quadrant[0] == "-" else 1
        self.su = -1 if quadrant[1] == "-" else 1
        self.transpose = transpose

    def s(self, p):
        return (self.frame.u(p) if self.transpose else self.frame.s(p)) * \
            self.ss

    def u(self, p):
        return (self.frame.s(p) if self.transpose else self.frame.u(p)) * \
            self.su


def oracle_game(config, p, t0, r, budget):
    """The crossing game by brute force: (status, final_t, trace), each
    crossing the tuple (base, lattice, height, offset, exponent, t_after).

    Every step scans each marked set over the whole rest of the strip,
    offsets in (0, t) and heights in (h, r], with no height windows and no
    lifts kept from an earlier step, then crosses the lowest lifts in order
    of decreasing offset."""
    quadrant = config.quadrant
    coords = _QuadrantCoords(config.frame, quadrant)
    sign = -1 if quadrant in ("++", "--") else 1
    lam = config.frame.lam
    sp, up = coords.s(p), coords.u(p)
    t, h, trace = t0, 0, []
    while h < r:
        hits = oracle_hits(coords, config.marked, sp, sp + t, up + h, up + r,
                           (False, False, False, True))
        if not hits:
            return "Defined", t, trace
        hmin = min(u for _, _, _, u, _ in hits)
        lowest = sorted((hit for hit in hits if hit[3] == hmin),
                        key=lambda hit: hit[2], reverse=True)
        for base, lattice, s, u, twist in lowest:
            o = s - sp
            if not 0 < o < t:
                continue
            if len(trace) >= budget:
                return "BudgetExhausted", None, trace
            e = sign * twist
            t = o + qn_pow(lam, e) * (t - o)
            trace.append((base, lattice, u - up, o, e, t))
        h = hmin - up
    return "Defined", t, trace


def staircase_step(st, i):
    """Level i of staircase st: a stored level, or past them the g-image of
    the periodic block, g applied once per period beyond it."""
    if i < len(st.steps):
        return st.steps[i]
    view = st.view
    m = (i - st.preperiod) // st.period
    base = st.steps[st.preperiod + (i - st.preperiod) % st.period]
    o, e = base.delta_origin, base.delta_endpoint
    for _ in range(m):
        o, e = st.g.act(o), st.g.act(e)
    s0, u0 = view.s(st.origin), view.u(st.origin)
    lengths = (view.s(e) - view.s(o), view.s(e) - s0, view.u(o) - u0,
               view.u(e) - u0,
               base.safety * qn_pow(view.frame.lam, -st.g.k * m))
    return StairStep(i, o, e, *map(_parts, lengths), view.frame.D)


def index_of_height(st, height):
    """Index of the band of staircase st that holds the given axis height."""
    if height < 0 or height >= st.axis_height:
        raise ValueError("height outside the staircase axis")
    i = 0
    while staircase_step(st, i).q_hi <= height:
        i += 1
    return i


def _group_act(g, p):
    """p |-> M p + v for the group element g = (M, v), M integer rows."""
    ((a, b), (c, d)), (v0, v1) = g
    return (a * p[0] + b * p[1] + v0, c * p[0] + d * p[1] + v1)


def _group_compose(g, h):
    """g o h."""
    ((a, b), (c, d)), v = g
    ((e, f), (k, m)), w = h
    return (((a * e + b * k, a * f + b * m), (c * e + d * k, c * f + d * m)),
            _group_act(g, w))


def _group_power(g, n):
    """g^n by repeated composition (n may be negative; det M = 1)."""
    if n < 0:
        ((a, b), (c, d)), v = g
        inv = ((d, -b), (-c, a))
        g, n = (inv, _group_act((inv, (0, 0)), (-v[0], -v[1]))), -n
    out = (((1, 0), (0, 1)), (0, 0))
    for _ in range(n):
        out = _group_compose(g, out)
    return out


def _group_element(A, k, src, dst):
    """(A^k, v) mapping src to dst, with v asserted integral."""
    M, _ = _group_power((A.rows(), (0, 0)), k)
    img = _group_act((M, (0, 0)), src)
    v = (dst[0] - img[0], dst[1] - img[1])
    assert v[0].denominator == 1 and v[1].denominator == 1, (k, src, dst)
    return M, (int(v[0]), int(v[1]))


def _least_power(A, src, dst):
    """Least k >= 0 with f_A^k(src mod 1) = dst mod 1, by iteration."""
    a, b = mod1(src), mod1(dst)
    k = 0
    while a != b:
        a, k = apply_mod1(A, a), k + 1
        assert a != mod1(src), "lifts lie in different orbits"
    return k


def oracle_staircase_levels(st):
    """(delta_origin, delta_endpoint) of every stored level of staircase st,
    rebuilt from its origin and seed endpoint by the construction's group
    algebra: level i+1 is the seed's image under f^-k o g_i o G^(i+1), where
    G maps the origin to the seed's endpoint with the least power, g_i maps
    G^(i+1) of the origin to the corner x_{i+1} with the least power, f is
    the lift of A^n fixing x_{i+1} (n the origin's period), and k is the
    least integer with lam^(n k) times the left overhang of g_i o G^(i+1)'s
    pushed seed reaching the axis.  The seed's overhang is found by brute
    force over doubling widths."""
    A, lam = st.view.frame.matrix, st.view.frame.lam
    coords = _QuadrantCoords(st.view.frame, st.quadrant)
    origin, seed_end = pair(st.origin), pair(st.steps[0].delta_endpoint)
    n = next(len(orb.points) for orb in st.X.orbits
             if mod1(origin) in map(pair, orb.points))
    s0, u0 = coords.s(origin), coords.u(origin)
    rho0 = coords.u(seed_end) - u0
    width, hits = 1, []
    while not hits:
        width *= 2
        hits = oracle_band_hits(coords, st.avoid, s0 - width, s0, u0,
                                u0 + rho0, (True, False, True, True))
    left0 = min(s0 - s for _, _, s, _, _ in hits)

    def orbit_element(src, dst):
        k = _least_power(A, src, dst)
        return k, _group_element(A, k, src, dst)

    G_k, G = orbit_element(origin, seed_end)
    levels = [(origin, seed_end)]
    for i in range(len(st.steps) - 1):
        x_next = levels[-1][1]
        gG = _group_power(G, i + 1)
        o_lift, e_lift = _group_act(gG, origin), _group_act(gG, seed_end)
        gi_k, gi = orbit_element(o_lift, x_next)
        b = qn_pow(lam, -gi_k) * qn_pow(lam, -G_k * (i + 1)) * left0
        k = -oracle_log_floor(b / (coords.s(x_next) - s0), qn_pow(lam, n))
        fix = _group_element(A, n, x_next, x_next)
        h = _group_compose(_group_power(fix, -k), gi)
        levels.append((_group_act(h, o_lift), _group_act(h, e_lift)))
    return [(point(*o), point(*e)) for o, e in levels]


def equation_holds(analysis, base, t, n):
    """mu(delta(t) + lam^(-n) (t - delta(t))) == mu(delta(t)), where mu and
    delta are the step functions of the analysis's breakpoint intervals at
    base, extended to all t > 0 by their period lam^(period of base)."""
    intervals = analysis.intervals(base)
    big = qn_pow(analysis.view.frame.lam, next(
        orb.period for orb in analysis.X.orbits if base in orb.points))

    def locate(v):
        # the interval holding v moved into the first period, and the scale
        scale = qn_pow(big, oracle_log_floor(v / intervals[0].mu, big))
        w = v / scale
        return next(iv for iv in reversed(intervals) if iv.mu <= w), scale

    def mu(v):
        iv, scale = locate(v)
        return iv.mu * scale

    iv, scale = locate(t)
    d = iv.delta * scale
    return mu(d + qn_pow(analysis.view.frame.lam, -n) * (t - d)) == mu(d)


def oracle_primitive_census(A, X, sign, frame):
    """Brute-force primitive rectangle census, as a set of keys
    (origin base, endpoint base, endpoint lattice vector).

    Enumerates every lift in the bounded search window by double loop and
    checks primitivity of each candidate box quadratically.
    """
    lam = frame.lam
    lam2 = lam * lam
    ws = abs(frame.s((1, 0))) + abs(frame.s((0, 1)))
    wu = abs(frame.u((1, 0))) + abs(frame.u((0, 1)))
    s_cap = max(ws, lam2 * wu)
    u_cap = max(wu, ws)
    flip = -1 if sign == "negative" else 1
    keys = set()
    for orb in X.orbits:
        for origin in orb.points:
            s0, u0 = frame.s(origin), frame.u(origin)
            if flip == 1:
                lifts = oracle_hits(frame, X, s0, s0 + s_cap, u0, u0 + u_cap)
            else:
                lifts = oracle_hits(frame, X, s0 - s_cap, s0, u0, u0 + u_cap)
            cands = [(b, k, (s - s0) * flip, u - u0)
                     for b, k, s, u, _ in lifts]
            for b, k, ds, du in cands:
                if ds <= 0 or du <= 0:
                    continue
                ratio = ds / du
                if not (1 <= ratio < lam2):
                    continue
                primitive = True
                for b2, k2, ds2, du2 in cands:
                    if (b2, k2) in ((b, k), (origin, (0, 0))):
                        continue
                    if 0 <= ds2 <= ds and 0 <= du2 <= du:
                        primitive = False
                        break
                if primitive:
                    keys.add((origin, b, k))
    return keys


def family_hits(family):
    """A period family's members as (mu, height, corner): mu and the
    height QuadNums, corner the far corner's hit."""
    D = family.view.frame.D
    for i, (mu, height, _) in enumerate(family.read()):
        yield _qn(*mu, D), _qn(*height, D), family.corner(i)


def family_big(family):
    """lam^period, where a period family's base lengths end."""
    return family.view.frame.rung(family.period)[0]


def origin_view_census(frame, X, sign):
    """The census as it read the negative sign before it shared the
    domination analysis's view: the family of the view with s flipped for
    that sign, whose members are indexed by the rectangle's origin (its
    lower-right corner when negative), each normalized at that origin.  It
    reads the engine's period families, so it is a reference for the
    other view, not an independent oracle."""
    view = FrameView(frame, flip_s=(sign == "negative"))
    reps = []
    for orb in X.orbits:
        base, period = orb.points[0], orb.period
        for mu, height, corner in family_hits(period_family(view, X, base,
                                                           period)):
            e = frame.log_floor(mu / height) // 2
            g = group_element(frame.matrix, e, base, orb.points[e % period])
            reps.append(marked_rect(frame, X, g.act(base), g.act(corner.lift),
                                    sign))
    K = math.lcm(*(k for k, _, _ in X.index))

    def rational(p):
        k, x, y = p
        return x * (K // k), y * (K // k)

    reps.sort(key=lambda r: (r.ls, r.lu, rational(r.origin.base),
                             rational(r.endpoint.base), r.endpoint.lattice))
    return reps


def census_keys(reps):
    """The comparable key set of an enumerate_primitive result."""
    return {(rep.origin.base, rep.endpoint.base, rep.endpoint.lattice)
            for rep in reps}


def oracle_window_scans(frame, left, right, lo, hi, covered):
    """The (start, top) of each height window that a strip search scans
    when no window holds a lift, by the QuadNum operators: window i of the
    strip (left, right) reaches min(lo + (2^(i+1) - 1)*w, hi), for w =
    W_s*W_u/(right - left), from the top of window i - 1 (lo for i = 0)
    or from covered when that is higher; a window whose top is at or
    below covered is skipped."""
    ws, wu = frame.widths
    w = ws * wu / (right - left)
    scans, start, i = [], lo, 0
    while start < hi:
        top = min(lo + (2 ** (i + 1) - 1) * w, hi)
        if top > covered:
            scans.append((max(start, covered), top))
        start, i = top, i + 1
    return scans


def oracle_pareto_frontier(points):
    """Keys of the Pareto-minimal (key, s, u) points, sorted by s: those with
    no other point below-left of them (coordinates are pairwise distinct)."""
    front, lowest = [], None
    for key, s, u in sorted(points, key=lambda p: p[1]):
        if lowest is None or u < lowest:
            front.append(key)
            lowest = u
    return front


class OracleQuad:
    """a + b*sqrt(D) on two Fractions, with the formulas of the original
    Fraction-based QuadNum: the reference the integer representation is
    checked against.  int and Fraction operands are a + 0*sqrt(D)."""

    def __init__(self, a, b, D):
        self.a, self.b, self.D = Fraction(a), Fraction(b), D

    def _lift(self, o):
        return o if isinstance(o, OracleQuad) else OracleQuad(o, 0, self.D)

    def __add__(self, o):
        o = self._lift(o)
        return OracleQuad(self.a + o.a, self.b + o.b, self.D)

    def __sub__(self, o):
        o = self._lift(o)
        return OracleQuad(self.a - o.a, self.b - o.b, self.D)

    def __mul__(self, o):
        o = self._lift(o)
        return OracleQuad(self.a * o.a + self.b * o.b * self.D,
                          self.a * o.b + self.b * o.a, self.D)

    def __truediv__(self, o):
        o = self._lift(o)
        norm = o.a * o.a - o.b * o.b * self.D
        return self * OracleQuad(o.a / norm, -o.b / norm, self.D)

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0 or (a > 0) == (b > 0):
            return 1 if b > 0 else -1
        # opposite signs: the term with the larger square wins
        larger = a if a * a > b * b * self.D else b
        return 1 if larger > 0 else -1

    def floor(self):
        """floor(a) + floor(b sqrt D), corrected by exact sign tests."""
        p, q = self.b.numerator, self.b.denominator
        fb = math.isqrt(p * p * self.D) // q
        n = math.floor(self.a) + (fb if p >= 0 else -fb - 1)
        while (self - (n + 1)).sign() >= 0:
            n += 1
        while (self - n).sign() < 0:
            n -= 1
        return n

    def to_str(self):
        if self.b == 0:
            return str(self.a)
        sgn = "-" if self.b < 0 else "+"
        return f"{self.a} {sgn} {abs(self.b)}*sqrt({self.D})"


def oracle_log_floor(x, base):
    """Greatest integer k with base**k <= x, for x > 0 and base > 1, by the
    linear search the engine once repeated at each threshold: one exact
    multiply or divide per unit of k."""
    k, v = 0, x
    while v >= base:
        v, k = v / base, k + 1
    while v < 1:
        v, k = v * base, k - 1
    return k


def _log2_digits(y, F, up):
    """A bound on floor(log2(y / 2^F) * 2^16) for 2^F <= y < 2^(F+1), by
    squaring the fixed-point value 16 times: each square and halving is
    rounded down, or up when up, so the digits read off are a lower, or
    an upper, bound of the exact ones."""
    n = 0
    for _ in range(16):
        y = -(-y * y >> F) if up else y * y >> F
        bit = int(y >= 2 << F)
        if bit:
            y = -(-y >> 1) if up else y >> 1
        n = 2 * n + bit
    return n


def oracle_log2_bounds(p, q, D, shift):
    """(lo, hi) with lo <= log2((p + q*sqrt(D)) * 2^shift) * 2^16 < hi, for
    p + q*sqrt(D) > 0 and D not a square, from integers alone: the value
    times 2^K lies in [N, N + 1) for N its exact floor, taken with K large
    enough that N has at least 96 bits, and the fractional digits of the
    logarithms of N and N + 1 are read off by squaring."""
    def floor_times(K):             # floor((p + q*sqrt(D)) * 2^K)
        r = math.isqrt(q * q * D << 2 * K)
        return (p << K) + (r if q >= 0 else -r - 1)

    K = 64
    while floor_times(K) < 1 << 95:
        K *= 2
    N = floor_times(K)
    e_lo, e_hi = N.bit_length() - 1, (N + 1).bit_length() - 1
    lo = (e_lo - K + shift << 16) + _log2_digits(N, e_lo, False)
    hi = (e_hi - K + shift << 16) + _log2_digits(N + 1, e_hi, True) + 1
    return lo, hi
