"""Staircases of rectangles climbing the unstable separatrix of a marked
point, their safety zones, and the incompleteness threshold.

A staircase at x is an infinite stack of rectangles R_0, R_1, ... leaning on
the separatrix F^u_+(x): each R_{i+1} sits on top of R_i and carries a chained
marked rectangle as its right horizontal subrectangle.  The whole stack
avoids the other marked set, so the only separatrices a holonomy along the
axis ever crosses to the right of the axis are those of the diagonal corners
x_{i+1}; when the surgery twists there expand stronger than the geometric
growth constant C of the staircase (lam^|twist| > C), each safety zone's
image swallows the next level and the quadrant's holonomy is undefined
beyond a finite height: the quadrant is incomplete.

The sequence of chained rectangles becomes periodic modulo the group
generated by A and the integer translations: a recurring element g slides
the staircase one period up along itself (it does not fix the axis).  The
module detects g, certifies a full extra period step by step, and extends
all levels in closed form as g-images.  Every staircase condition is
equivariant under g except the left extension of each level to the axis;
when g moves the axis leaf rightward the leftover strips of all extended
levels fit inside one box below the limit height, which is checked exactly
once ("residual strip"); when it moves the leaf leftward the g-image covers
each extended level outright and nothing is left to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .quadfield import QuadNum, qn_pow
from .rectangles import lattice_widths, period_window, primitive_family
from .torus import (EigenFrame, FrameView, GroupElement, HyperbolicMatrix,
                    InvariantError, MarkedSet, Point, QUADRANTS, _mat_apply,
                    eigenframe, fixing_lift, mod1, quadrant_contracting,
                    quadrant_view)


class StaircaseError(ValueError):
    """No staircase can be built from the given data."""


@dataclass(frozen=True)
class StairStep:
    """One staircase level, in view coordinates relative to the origin x."""
    index: int
    delta_origin: Point      # lift of the chained rectangle's diagonal origin
    delta_endpoint: Point    # lift of its diagonal endpoint (= next level's corner)
    ds: QuadNum              # stable length of the chained rectangle
    Ls: QuadNum              # stable length of R_i (right edge offset from the axis)
    q_lo: QuadNum            # height of the bottom side of R_i
    q_hi: QuadNum            # height of the top side of R_i
    safety: QuadNum          # stable length of the safety zone S_i


def _box_is_primitive(view: FrameView, X: MarkedSet, o: Point, e: Point) -> bool:
    """The closed view box spanned by the two lifts meets the set's lift only
    at those two corners (orientation-free primitivity)."""
    so, uo, se, ue = view.s(o), view.u(o), view.s(e), view.u(e)
    hits = view.hits(X, min(so, se), max(so, se), min(uo, ue), max(uo, ue))
    got = {(h.s, h.u) for h in hits}
    return got == {(so, uo), (se, ue)}


class Staircase:
    """A periodic staircase with origin x in the given quadrant.

    steps holds the raw induction for preperiod + 2 periods; the second
    period doubles as the certificate that the recurring element g
    reproduces the construction.  Levels beyond the stored ones are defined
    as g-images of the periodic block; their validity follows because all
    staircase conditions are g-equivariant (the marked sets are invariant
    under the full group) except the left extension to the axis, whose
    leftover strips are covered by the residual-strip check in verify().
    """

    def __init__(self, A, frame, view, quadrant, X, avoid, origin,
                 G, steps, preperiod, period, g):
        self.A = A
        self.frame = frame
        self.view = view
        self.quadrant = quadrant
        self.X = X
        self.avoid = avoid
        self.origin = origin
        self.G = G                      # string element: level i corners are G^i images
        self.steps = steps              # raw steps, len >= preperiod + 2*period
        self.preperiod = preperiod
        self.period = period
        self.g = g                      # recurring element: level i -> level i+period
        self.lam = frame.lam
        self._s_scale = qn_pow(self.lam, -g.k)   # s-lengths scale by this per period
        self._u_scale = qn_pow(self.lam, g.k)    # u-lengths contract by this per period
        if not self._u_scale < 1:
            raise InvariantError("recurring element does not contract heights")
        self.constant = self._growth_constant()
        self.limit = self._limit_point()
        self.axis_height = view.u(self.limit) - view.u(origin)
        if self.axis_height <= self.steps[-1].q_hi:
            raise InvariantError("limit height below the stored levels")

    # -- derived constants ---------------------------------------------------

    def _growth_constant(self) -> QuadNum:
        ratios = [(self.steps[i + 1].ds + self.steps[i + 1].safety)
                  / self.steps[i].safety
                  for i in range(len(self.steps) - 1)]
        return max(ratios)

    def _limit_point(self) -> Point:
        # the unique fixed point of g; the levels' heights contract toward its
        # stable leaf, so its u-coordinate is the top of the axis
        g = self.g
        (a, b), (c, d) = self.A.power_rows(g.k)
        det = (1 - a) * (1 - d) - b * c
        if det == 0:
            raise InvariantError("recurring element has no fixed point")
        vx, vy = Fraction(g.v[0]), Fraction(g.v[1])
        p = (((1 - d) * vx + b * vy) / det, (c * vx + (1 - a) * vy) / det)
        if self.view.u(p) <= self.view.u(self.origin):
            raise InvariantError("limit height is below the origin")
        return p

    # -- step access ---------------------------------------------------------

    def step(self, i: int) -> StairStep:
        """Step i, extending the raw data periodically by powers of g."""
        if i < len(self.steps):
            return self.steps[i]
        view = self.view
        m = (i - self.preperiod) // self.period
        base = self.steps[self.preperiod + (i - self.preperiod) % self.period]
        gm = self.g.power(m)
        o = gm.apply(base.delta_origin)
        e = gm.apply(base.delta_endpoint)
        s0, u0 = view.s(self.origin), view.u(self.origin)
        return StairStep(i, o, e, view.s(e) - view.s(o), view.s(e) - s0,
                         view.u(o) - u0, view.u(e) - u0,
                         base.safety * qn_pow(self._s_scale, m))

    def index_of_height(self, height: QuadNum) -> int:
        """Index of the staircase band containing the given axis height."""
        if height < 0 or height >= self.axis_height:
            raise ValueError("height outside the staircase axis")
        i = 0
        while self.step(i).q_hi <= height:
            i += 1
        return i

    # -- exact verification ---------------------------------------------------

    def verify(self) -> None:
        """Check the staircase conditions exactly on all raw steps."""
        view, X, avoid = self.view, self.X, self.avoid
        s0, u0 = view.s(self.origin), view.u(self.origin)
        steps = self.steps
        if steps[0].Ls != steps[0].ds or steps[0].q_lo != 0:
            raise InvariantError("level 0 is not the string seed")
        for i, st in enumerate(steps):
            # (1) inside the quadrant
            if not (st.q_lo >= 0 and st.q_lo < st.q_hi and 0 < st.ds <= st.Ls):
                raise InvariantError(f"level {i} leaves the quadrant")
            # (2) the chained rectangle is the right horizontal subrectangle
            so = view.s(st.delta_origin) - s0
            se = view.s(st.delta_endpoint) - s0
            uo = view.u(st.delta_origin) - u0
            ue = view.u(st.delta_endpoint) - u0
            if not (se == st.Ls and se - so == st.ds
                    and uo == st.q_lo and ue == st.q_hi):
                raise InvariantError(f"level {i} chained rectangle mismatch")
            if i + 1 < len(steps):
                nxt = steps[i + 1]
                # string chaining and (3) stacking
                if nxt.delta_origin != st.delta_endpoint:
                    raise InvariantError(f"string broken at level {i}")
                if not (nxt.q_lo == st.q_hi and nxt.Ls >= st.Ls):
                    raise InvariantError(f"level {i + 1} does not sit on level {i}")
            if not _box_is_primitive(view, X, st.delta_origin, st.delta_endpoint):
                raise InvariantError(f"level {i} rectangle is not primitive")
            # disjointness of the closed R_i from the avoid set
            if view.hits(avoid, s0, s0 + st.Ls, u0 + st.q_lo, u0 + st.q_hi):
                raise InvariantError(f"level {i} meets the avoid set")
            # the safety zone really is the first contact to the right
            band = view.hits(avoid, s0, s0 + st.Ls + st.safety,
                             u0 + st.q_lo, u0 + st.q_hi)
            if not band or min(h.s for h in band) - s0 != st.Ls + st.safety:
                raise InvariantError(f"level {i} safety zone mismatch")
        # the recurring element reproduces the second period exactly: the
        # lifts determine ds, Ls and the heights, and the safety lengths
        # scale by g's stable factor because everything right of the level's
        # edge is g-equivariant
        g = self.g
        for i in range(self.preperiod, len(steps) - self.period):
            got = steps[i + self.period]
            st = steps[i]
            if (got.delta_origin != g.apply(st.delta_origin)
                    or got.delta_endpoint != g.apply(st.delta_endpoint)
                    or got.safety != st.safety * self._s_scale):
                raise InvariantError(f"period fails to recur at level {i}")
        # residual strip: when g slides the axis leaf right, each extended
        # level is the g-image of an earlier level plus a leftover strip next
        # to the axis; the leftover strips of all extended levels fit in this
        # box below the limit height.  When g slides the leaf left (or fixes
        # it), the g-image already covers the whole extended level including
        # its axis extension, so nothing is left to check.
        sg = view.s(g.apply(self.origin))
        if sg > s0 and view.hits(avoid, s0, sg, u0 + steps[-1].q_hi,
                                 u0 + self.axis_height,
                                 include=(True, False, True, False)):
            raise StaircaseError(
                "extended staircase levels meet the avoid set near the axis")


# ---------------------------------------------------------------------------
# construction


def _first_contact(view: FrameView, mset: MarkedSet, s_anchor, s_dir,
                   u_lo, u_hi, start) -> QuadNum:
    """Distance from s_anchor to the nearest mset lift in the closed height
    band [u_lo, u_hi] strictly on the s_dir side (+1 right, -1 left).

    A box of width W_s and height W_u contains a lift of every base point,
    and a power of A turns the band into one at least W_u tall while
    shrinking widths by the same factor, so a band of height h > 0 is
    guaranteed a hit within width W_s * lam^j where lam^j * h >= W_u.
    """
    ws, wu = lattice_widths(view)
    h = u_hi - u_lo
    if not h > 0:
        raise InvariantError("empty height band")
    enough = ws + ws          # doubled: the near edge of the box is excluded
    while h < wu:
        h, enough = h * view.lam, enough * view.lam
    width = start
    while True:
        if s_dir > 0:
            hits = view.hits(mset, s_anchor, s_anchor + width, u_lo, u_hi,
                             include=(False, True, True, True))
            if hits:
                return min(h.s for h in hits) - s_anchor
        else:
            hits = view.hits(mset, s_anchor - width, s_anchor, u_lo, u_hi,
                             include=(True, False, True, True))
            if hits:
                return s_anchor - max(h.s for h in hits)
        if width >= enough:
            raise InvariantError("no contact found in the height band")
        width = width + width


def _orbit_element(A: HyperbolicMatrix, X: MarkedSet, src: Point,
                   dst: Point) -> GroupElement:
    """Group element A^k + v (least k >= 0) mapping the lift src to dst."""
    orb = X.orbit_containing(mod1(src))
    db = mod1(dst)
    if db not in orb.points:
        raise StaircaseError("lifts lie in different orbits")
    k = orb.points.index(db) - orb.points.index(mod1(src))
    if k < 0:
        k += orb.period
    img = _mat_apply(A.power_rows(k), src)
    v = (dst[0] - img[0], dst[1] - img[1])
    if v[0].denominator != 1 or v[1].denominator != 1:
        raise InvariantError("lifts are not group-equivalent")
    return GroupElement(A, k, (int(v[0]), int(v[1])))


def _find_seed(X: MarkedSet, avoid: MarkedSet, origin: Point,
               view: FrameView):
    """Smallest primitive view-increasing rectangle at the origin lift with
    both diagonal corners in the origin's orbit, disjoint from the avoid set."""
    orb = X.orbit_containing(mod1(origin))
    big, u_cap = period_window(view, orb.period)
    s0, u0 = view.s(origin), view.u(origin)
    for cand in primitive_family(view, X, origin, big, u_cap):
        if (1 <= cand.s - s0 < big and cand.base in orb.points
                and not view.hits(avoid, s0, cand.s, u0, cand.u)):
            return cand.lift
    raise StaircaseError(
        "no primitive rectangle at the origin avoids the other set")


def _lam_power_of(lam: QuadNum, ratio: QuadNum, limit: int = 512):
    """Integer j with ratio == lam**j, or None."""
    if ratio <= 0:
        return None
    j, v = 0, ratio
    while v > 1 and j < limit:
        v, j = v / lam, j + 1
    while v < 1 and j > -limit:
        v, j = v * lam, j - 1
    return j if v == 1 else None


def build_staircase(A: HyperbolicMatrix, X: MarkedSet, avoid: MarkedSet,
                    origin: Point, quadrant: str,
                    frame: EigenFrame | None = None,
                    max_levels: int = 64) -> Staircase:
    """Construct and verify the periodic staircase at the given origin lift."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}")
    if avoid.is_empty():
        raise StaircaseError(
            "avoid set is empty: the pushed rectangles are undefined")
    frame = frame or eigenframe(A)
    view = quadrant_view(frame, quadrant)
    origin = (Fraction(origin[0]), Fraction(origin[1]))
    if mod1(origin) not in X.points:
        raise ValueError("origin is not a lift of the marked set")
    lam = frame.lam
    n = X.orbit_containing(mod1(origin)).period

    seed_end = _find_seed(X, avoid, origin, view)
    G = _orbit_element(A, X, origin, seed_end)
    g_scale = qn_pow(lam, -G.k)
    s0, u0 = view.s(origin), view.u(origin)
    ws, _ = lattice_widths(view)
    seed_ds = view.s(seed_end) - s0

    # level 0 sides, and the left overhang of the pushed rectangle D_0
    rho0 = view.u(seed_end) - u0
    left0 = _first_contact(view, avoid, s0, -1, u0, u0 + rho0, ws)
    lam_n = qn_pow(lam, n)

    def make_step(i, o_lift, e_lift, q_lo, Ls):
        ds = view.s(e_lift) - view.s(o_lift)
        q_hi = view.u(e_lift) - u0
        safety = _first_contact(view, avoid, s0 + Ls, +1, u0 + q_lo,
                                u0 + q_hi, ws)
        return StairStep(i, o_lift, e_lift, ds, Ls, q_lo, q_hi, safety)

    def advance(steps):
        i = len(steps) - 1
        cur = steps[i]
        x_next = cur.delta_endpoint       # corner of R_i, base of level i+1
        gG = G.power(i + 1)
        o_lift, e_lift = gG.apply(origin), gG.apply(seed_end)
        gi = _orbit_element(A, X, o_lift, x_next)
        # left overhang of g_i(pushed level-(i+1) rectangle) around x_{i+1}
        b = qn_pow(lam, -gi.k) * qn_pow(g_scale, i + 1) * left0
        x_s = view.s(x_next) - s0
        if x_s != cur.Ls:
            raise InvariantError("corner is off the staircase edge")
        # minimal k with lam^(n k) * b reaching the axis
        k, val = 0, b
        while val < x_s:
            val, k = val * lam_n, k + 1
        while val / lam_n >= x_s:
            val, k = val / lam_n, k - 1
        h = fixing_lift(A, x_next, n).power(-k).compose(gi)
        new_o, new_e = h.apply(o_lift), h.apply(e_lift)
        if new_o != x_next:
            raise InvariantError("holonomy step does not chain")
        steps.append(make_step(i + 1, new_o, new_e, cur.q_hi,
                               view.s(new_e) - s0))

    zero = lam - lam
    steps = [make_step(0, origin, seed_end, zero, seed_ds)]
    found = None
    while found is None and len(steps) < max_levels:
        advance(steps)
        step = steps[-1]
        for j in range(1, len(steps) - 1):
            prev = steps[j]
            jpow = _lam_power_of(lam, step.ds / prev.ds)
            if jpow is None:
                continue
            if jpow <= 0:
                continue  # the recurring element must contract heights
            jg = -jpow
            img = _mat_apply(A.power_rows(jg), prev.delta_origin)
            v = (step.delta_origin[0] - img[0], step.delta_origin[1] - img[1])
            if v[0].denominator != 1 or v[1].denominator != 1:
                continue
            g = GroupElement(A, jg, (int(v[0]), int(v[1])))
            if g.apply(prev.delta_endpoint) != step.delta_endpoint:
                continue
            found = (j, len(steps) - 1 - j, g)
            break
    if found is None:
        raise StaircaseError(f"no period found within {max_levels} levels")
    preperiod, period, g = found
    # extend the raw induction through a full second period as a certificate
    while len(steps) < preperiod + 2 * period + 1:
        advance(steps)
    st = Staircase(A, frame, view, quadrant, X, avoid, origin, G,
                   tuple(steps), preperiod, period, g)
    st.verify()
    return st


# ---------------------------------------------------------------------------
# thresholds


def incompleteness_threshold(st: Staircase) -> int:
    """Least positive integer N' with lam^N' > the staircase growth constant."""
    n, v = 1, st.lam
    while v <= st.constant:
        v, n = v * st.lam, n + 1
    return n


def containment_check(st: Staircase, X_twists=None) -> bool:
    """Exact per-level safety-zone containment for the given twists on the
    staircase's own set.

    Crossing the corner x_{i+1} expands the safety zone by lam^e, where
    e = -twist in the contracting quadrants (++, --) and e = +twist in the
    mixed ones; containment needs ds_{i+1} + safety_{i+1} <= lam^e * safety_i
    at every level.  X_twists may be a dict base point -> twist or a single
    twist; None uses the twists stored in the marked set.
    """
    contracting = quadrant_contracting(st.quadrant)
    for i in range(len(st.steps) - 1):
        cur, nxt = st.steps[i], st.steps[i + 1]
        corner_base = mod1(cur.delta_endpoint)
        if X_twists is None:
            w = st.X.twist_of(corner_base)
        elif isinstance(X_twists, dict):
            w = X_twists[corner_base]
        else:
            w = X_twists
        e = -w if contracting else w
        if nxt.ds + nxt.safety > qn_pow(st.lam, e) * cur.safety:
            return False
    return True


def staircase_records(st: Staircase) -> dict:
    """JSON-ready description of the staircase (exact values as strings)."""
    from .quadfield import qn_to_str
    return {
        "quadrant": st.quadrant,
        "origin": [str(st.origin[0]), str(st.origin[1])],
        "preperiod": st.preperiod,
        "period": st.period,
        "recurring": {"power": st.g.k, "translation": list(st.g.v)},
        "growth_constant": qn_to_str(st.constant),
        "limit_point": [str(st.limit[0]), str(st.limit[1])],
        "axis_height": qn_to_str(st.axis_height),
        "levels": [{
            "index": s.index,
            "delta_origin": [str(s.delta_origin[0]), str(s.delta_origin[1])],
            "delta_endpoint": [str(s.delta_endpoint[0]), str(s.delta_endpoint[1])],
            "ds": qn_to_str(s.ds),
            "Ls": qn_to_str(s.Ls),
            "q_lo": qn_to_str(s.q_lo),
            "q_hi": qn_to_str(s.q_hi),
            "safety": qn_to_str(s.safety),
        } for s in st.steps],
    }
