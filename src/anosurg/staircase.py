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

The construction and the verification run on (p, q, d) triples: a point's
view coordinates from `FrameView.triples`, each contact from one strip
climb, the levels' lengths, the growth constant (as the two triples of
its ratio) and the axis height, compared by `_cmp` tests and scanned with
`view_lifts`.  A level, the constant and the axis height build their
QuadNums only when a record, a figure or a test reads them.
"""

from __future__ import annotations

from .quadfield import (QuadNum, _cmp, _length, _minus, _parts, _plus, _qn,
                        _sign, _times, qn_to_str)
from .rectangles import StripClimber, _least, period_family
from .torus import (EigenFrame, FrameView, InvariantError, MarkedSet, Orbit,
                    Point, QUADRANTS, as_point, group_element, point_strings,
                    quadrant_direction, quadrant_view, view_lifts)

# Levels the raw induction may reach before a period must have recurred
MAX_LEVELS = 64


class StaircaseError(ValueError):
    """No staircase can be built from the given data."""


class SeedError(StaircaseError):
    """No primitive rectangle at the origin avoids the other set.  A seed's
    conditions are invariant under A and under the lift of A^period that
    fixes the origin, so this holds at every origin of the orbit or at
    none."""


class StairStep:
    """One staircase level, in view coordinates relative to the origin x.
    Its five lengths are (p, q, d) triples of the field of D, kept as
    `lengths` in the order of the constructor's arguments and read as
    QuadNums."""
    __slots__ = ("index", "delta_origin", "delta_endpoint", "lengths", "D")

    def __init__(self, index: int, delta_origin: Point, delta_endpoint: Point,
                 ds: tuple, Ls: tuple, q_lo: tuple, q_hi: tuple,
                 safety: tuple, D: int):
        self.index = index
        # lifts of the chained rectangle's diagonal origin and endpoint; the
        # endpoint is the next level's corner
        self.delta_origin = delta_origin
        self.delta_endpoint = delta_endpoint
        self.lengths, self.D = (ds, Ls, q_lo, q_hi, safety), D

    ds = _length(0, "stable length of the chained rectangle")
    Ls = _length(1, "offset of R_i's right edge from the axis")
    q_lo = _length(2, "height of the bottom side of R_i")
    q_hi = _length(3, "height of the top side of R_i")
    safety = _length(4, "stable length of the safety zone S_i")


class Staircase:
    """A periodic staircase with origin x in the given quadrant.

    steps holds the raw induction for preperiod + 2 periods; the second
    period doubles as the certificate that the recurring element g
    reproduces the construction.  Levels beyond the stored ones are defined
    as g-images of the periodic block; their validity follows because all
    staircase conditions are g-equivariant (the marked sets are invariant
    under the full group) except the left extension to the axis, whose
    leftover strips are covered by the residual-strip check in verify().

    The growth constant C is kept as `growth`, the (p, q, d) triples of the
    numerator and denominator of the level ratio that attains it, and the
    axis height as a triple; `constant` and `axis_height` are their
    QuadNums, built when read.
    """

    def __init__(self, view, quadrant, X, avoid, origin, steps, preperiod,
                 period, g):
        self.view = view
        self.quadrant = quadrant
        self.X = X
        self.avoid = avoid
        self.origin = origin
        self.steps = steps              # raw steps, len >= preperiod + 2*period
        self.preperiod = preperiod
        self.period = period
        self.g = g                      # recurring element: level i -> level i+period
        D = view.frame.D
        # s-lengths scale by lam^-k per period
        self._s_scale = view.frame.rung(-g.k)[2]
        # u-lengths contract by lam^k < 1 per period
        if not g.k < 0:
            raise InvariantError("recurring element does not contract heights")
        self.growth = self._growth_constant()
        self.limit = self._limit_point()
        u0, top = view.triples(origin)[1], view.triples(self.limit)[1]
        if _cmp(top, u0, D) <= 0:
            raise InvariantError("limit height is below the origin")
        self._axis = _minus(top, u0)
        if _cmp(self._axis, steps[-1].lengths[3], D) <= 0:
            raise InvariantError("limit height below the stored levels")

    # -- derived constants ---------------------------------------------------

    @property
    def constant(self) -> QuadNum:
        num, den = self.growth
        D = self.view.frame.D
        return _qn(*num, D) / _qn(*den, D)

    @property
    def axis_height(self) -> QuadNum:
        return _qn(*self._axis, self.view.frame.D)

    def _growth_constant(self) -> tuple:
        # the greatest (ds_{i+1} + safety_{i+1}) / safety_i, the first that
        # attains it, compared by cross-multiplying
        D, best = self.view.frame.D, None
        for cur, nxt in zip(self.steps, self.steps[1:]):
            num, den = _plus(nxt.lengths[0], nxt.lengths[4]), cur.lengths[4]
            if best is None or _cmp(_times(num, best[1], D),
                                    _times(best[0], den, D), D) > 0:
                best = num, den
        return best

    def _limit_point(self) -> Point:
        # the unique fixed point of g; the levels' heights contract toward its
        # stable leaf, so its u-coordinate is the top of the axis.  It is
        # only evaluated and printed, so its k = |det| need not be least
        g = self.g
        (a, b), (c, d) = g.rows
        det = (1 - a) * (1 - d) - b * c
        if det == 0:
            raise InvariantError("recurring element has no fixed point")
        vx, vy = g.v
        if det < 0:                     # so that k = |det| > 0
            det, vx, vy = -det, -vx, -vy
        return det, (1 - d) * vx + b * vy, c * vx + (1 - a) * vy

    # -- exact verification ---------------------------------------------------

    def verify(self) -> None:
        """Check the staircase conditions exactly on all raw steps: `_cmp`
        tests on the levels' triples and the corners' view coordinates,
        and scans that read the lifts' triples (`view_lifts`)."""
        view, X, avoid = self.view, self.X, self.avoid
        D = view.frame.D
        zero = (0, 0, 1)
        s0, u0 = view.triples(self.origin)
        steps = self.steps
        ds, Ls, q_lo, _, _ = steps[0].lengths
        if _cmp(Ls, ds, D) or _cmp(q_lo, zero, D):
            raise InvariantError("level 0 is not the string seed")
        for i, st in enumerate(steps):
            ds, Ls, q_lo, q_hi, safety = st.lengths
            # (1) inside the quadrant, with a safety zone to the right
            if not (_cmp(q_lo, zero, D) >= 0 and _cmp(q_lo, q_hi, D) < 0
                    and _cmp(ds, zero, D) > 0 and _cmp(ds, Ls, D) <= 0
                    and _cmp(safety, zero, D) > 0):
                raise InvariantError(f"level {i} leaves the quadrant")
            # (2) the chained rectangle is the right horizontal subrectangle;
            # its corners' view coordinates are (so, uo) and (se, ue)
            (so, uo), (se, ue) = (view.triples(st.delta_origin),
                                  view.triples(st.delta_endpoint))
            if (_cmp(_minus(se, s0), Ls, D) or _cmp(_minus(se, so), ds, D)
                    or _cmp(_minus(uo, u0), q_lo, D)
                    or _cmp(_minus(ue, u0), q_hi, D)):
                raise InvariantError(f"level {i} chained rectangle mismatch")
            if i + 1 < len(steps):
                nxt = steps[i + 1]
                # string chaining and (3) stacking
                if nxt.delta_origin != st.delta_endpoint:
                    raise InvariantError(f"string broken at level {i}")
                if (_cmp(nxt.lengths[2], q_hi, D)
                        or _cmp(nxt.lengths[1], Ls, D) < 0):
                    raise InvariantError(f"level {i + 1} does not sit on level {i}")
            # primitivity: the closed box spanned by the two corners holds
            # no other lift of X; when both corners are lifts of X, they
            # are two of its lifts
            corners = view_lifts(view, X, so, se, uo, ue)
            if not (len(corners) == 2 and X.locate(st.delta_origin)
                    and X.locate(st.delta_endpoint)):
                raise InvariantError(f"level {i} rectangle is not primitive")
            # one closed scan of the band through R_i and its safety zone:
            # the closed R_i, the part with s <= se, misses the avoid set,
            # and the first contact to its right ends the safety zone
            edge = _plus(se, safety)
            band = view_lifts(view, avoid, s0, edge, uo, ue)
            if any(_cmp(lift[3], se, D) <= 0 for lift in band):
                raise InvariantError(f"level {i} meets the avoid set")
            first = _least(band, 3, D)
            if first is None or _cmp(first[3], edge, D):
                raise InvariantError(f"level {i} safety zone mismatch")
        # the recurring element reproduces the second period exactly
        g = self.g
        i = _recurrence_break(steps, self.preperiod, self.period, g,
                              self._s_scale)
        if i is not None:
            raise InvariantError(f"period fails to recur at level {i}")
        # residual strip: when g slides the axis leaf right, each extended
        # level is the g-image of an earlier level plus a leftover strip next
        # to the axis; the leftover strips of all extended levels fit in this
        # box below the limit height.  When g slides the leaf left (or fixes
        # it), the g-image already covers the whole extended level including
        # its axis extension, so nothing is left to check.
        sg = view.triples(g.act(self.origin))[0]
        if _cmp(sg, s0, D) > 0 and view_lifts(
                view, avoid, s0, sg, _plus(u0, steps[-1].lengths[3]),
                _plus(u0, self._axis), (True, False, True, False)):
            raise StaircaseError(
                "extended staircase levels meet the avoid set near the axis")


# ---------------------------------------------------------------------------
# construction


def _first_contact(view: FrameView, mset: MarkedSet, s_anchor, s_dir,
                   u_lo, u_hi) -> tuple:
    """Distance from s_anchor to the nearest mset lift in the closed height
    band [u_lo, u_hi] strictly on the s_dir side (+1 right, -1 left); the
    anchor, the band and the distance are (p, q, d) triples.

    A box of width W_s and height W_u contains a lift of every base point,
    and A^j turns the band into one lam^j times taller while shrinking
    widths by the same factor, so a band of height h > 0 is guaranteed a hit
    within width W_s * lam^j for the least j >= 0 with lam^j * h >= W_u,
    which is -floor(log_lam(h / W_u)), the frame's `log_ratio`, when
    h < W_u.  In the view transposed, and reversed for s_dir = -1, the band
    is a strip and the distance a height, and one `StripClimber` step
    takes the lowest lift up to twice that width, whose u less the anchor's
    is the distance.
    """
    frame = view.frame
    D = frame.D
    ws, wu = (_parts(w) for w in frame.widths)
    h = _minus(u_hi, u_lo)
    if _sign(h[0], h[1], D) <= 0:
        raise InvariantError("empty height band")
    j = max(0, -frame.log_ratio(h, wu))
    # doubled: the near edge is open
    enough = _times((2 * ws[0], 2 * ws[1], ws[2]), frame.rung(j)[2], D)
    outward = view.transposed(reverse=s_dir < 0)
    p, q, d = s_anchor
    lo = s_anchor if s_dir > 0 else (-p, -q, d)
    lift = StripClimber(outward, mset, (True, True, False, True), u_lo, lo,
                        _plus(lo, enough)).lowest(u_hi)
    if lift is None:
        raise InvariantError("no contact found in the height band")
    return _minus(lift[4], lo)


def _find_seed(X: MarkedSet, avoid: MarkedSet, origin: Point,
               view: FrameView, orb: Orbit) -> Point:
    """Smallest primitive view-increasing rectangle at the origin lift with
    both diagonal corners in the origin's orbit orb, disjoint from the avoid
    set: the first member of the period family that qualifies."""
    family = period_family(view, X, origin, orb.period)
    for i, (_, _, (base, corner, *_)) in enumerate(family.read()):
        if X.locate(base)[0] is orb and family.contact(i, avoid) is None:
            return corner
    raise SeedError(
        "no primitive rectangle at the origin avoids the other set")


def _recurrence_break(steps, start: int, period: int, g, s_scale: tuple):
    """First level i >= start that g does not carry onto level i + period,
    or None.  The lifts determine ds, Ls and the heights, and the safety
    lengths scale by g's stable factor s_scale, a triple, because
    everything right of the level's edge is g-equivariant."""
    for i in range(start, len(steps) - period):
        got, st = steps[i + period], steps[i]
        if (got.delta_origin != g.act(st.delta_origin)
                or got.delta_endpoint != g.act(st.delta_endpoint)
                or _cmp(got.lengths[4], _times(st.lengths[4], s_scale, st.D),
                        st.D)):
            return i
    return None


def build_staircase(frame: EigenFrame, X: MarkedSet, avoid: MarkedSet,
                    origin, quadrant: str) -> Staircase:
    """Construct and verify the periodic staircase at the given origin lift,
    a point or a pair."""
    if quadrant not in QUADRANTS:
        raise ValueError(f"quadrant must be one of {QUADRANTS}")
    if avoid.is_empty():
        raise StaircaseError(
            "avoid set is empty: the pushed rectangles are undefined")
    A, D = frame.matrix, frame.D
    view = quadrant_view(frame, quadrant)
    origin = as_point(origin)
    found = X.locate(origin)
    if found is None:
        raise ValueError("origin is not a lift of the marked set")
    orb, i0 = found
    n = orb.period

    def shift(lift):
        # the least m >= 0 with f_A^m(origin's base) = lift's base
        found = X.locate(lift)
        if found is None or found[0] is not orb:
            raise InvariantError("staircase corner outside the origin's orbit")
        return (found[1] - i0) % n

    seed_end = _find_seed(X, avoid, origin, view, orb)
    s0, u0 = view.triples(origin)

    def make_step(i, o_lift, e_lift):
        # R_i reaches from the axis to the chained rectangle's far corner,
        # between the heights of its two corners
        (so, uo), (se, ue) = view.triples(o_lift), view.triples(e_lift)
        safety = _first_contact(view, avoid, se, +1, uo, ue)
        return StairStep(i, o_lift, e_lift, _minus(se, so), _minus(se, s0),
                         _minus(uo, u0), _minus(ue, u0), safety, D)

    steps = [make_step(0, origin, seed_end)]
    powers = [0]        # level i is the image of level 0 under A^powers[i] + v
    # the left overhang of the pushed rectangle D_0
    left0 = _first_contact(view, avoid, s0, -1, u0, view.triples(seed_end)[1])

    def advance(steps):
        # Level i+1 is the image of the seed under the element A^p + v that
        # takes the origin to the corner x_{i+1}, Ls_i right of the axis,
        # with the least image lam^-p left0 of D_0's left overhang that
        # still reaches the axis: p <= L = floor(log_lam(left0 / Ls_i)), and
        # p = shift(x_{i+1}) mod n, so that A^p moves the origin's base to
        # x_{i+1}'s.  The greatest such p is L - (L - shift(x_{i+1})) % n.
        i = len(steps) - 1
        cur = steps[i]
        x_next = cur.delta_endpoint       # corner of R_i, base of level i+1
        L = frame.log_ratio(left0, cur.lengths[1])
        h = group_element(A, L - (L - shift(x_next)) % n, origin, x_next)
        if h is None:
            raise InvariantError("holonomy step does not chain")
        steps.append(make_step(i + 1, x_next, h.act(seed_end)))
        powers.append(h.k)

    def recurring(last):
        # (preperiod, period, g) with g carrying some level j onto level
        # `last`, certified on every stored level from j on, or None
        for j in range(1, last):
            # the inverse of level j's element followed by level last's: it
            # carries level j onto level last and scales ds by lam^-power,
            # and power < 0 so that it contracts heights
            power = powers[last] - powers[j]
            if power >= 0:
                continue
            g = group_element(A, power, steps[j].delta_origin,
                              steps[last].delta_origin)
            s_scale = frame.rung(-power)[2]
            # extend the raw induction through a full second period: a
            # candidate that fails to recur there is not the period
            period = last - j
            while len(steps) < j + 2 * period + 1:
                advance(steps)
            if _recurrence_break(steps, j, period, g, s_scale) is None:
                return j, period, g
        return None

    for last in range(2, MAX_LEVELS):
        while len(steps) <= last:
            advance(steps)
        found = recurring(last)
        if found is not None:
            break
    else:
        raise StaircaseError(f"no period found within {MAX_LEVELS} levels")
    preperiod, period, g = found
    st = Staircase(view, quadrant, X, avoid, origin, tuple(steps), preperiod,
                   period, g)
    st.verify()
    return st


# ---------------------------------------------------------------------------
# thresholds


def incompleteness_threshold(st: Staircase) -> int:
    """Least positive integer N' with lam^N' > the staircase growth constant:
    one more than its integer logarithm to base lam."""
    return max(1, st.view.frame.log_ratio(*st.growth) + 1)


def containment_check(st: Staircase, twist: int) -> bool:
    """Exact per-level safety-zone containment for one twist at every corner
    of the staircase's own set.

    Crossing the corner x_{i+1} expands the safety zone by lam^e, where
    e = -twist in the contracting quadrants (++, --) and e = +twist in the
    mixed ones; containment needs ds_{i+1} + safety_{i+1} <= lam^e * safety_i
    at every level.
    """
    e = quadrant_direction(st.quadrant) * twist
    D, grow = st.view.frame.D, st.view.frame.rung(e)[2]
    return all(_cmp(_plus(nxt.lengths[0], nxt.lengths[4]),
                    _times(grow, cur.lengths[4], D), D) <= 0
               for cur, nxt in zip(st.steps, st.steps[1:]))


def staircase_records(st: Staircase) -> dict:
    """JSON-ready description of the staircase (exact values as strings)."""
    return {
        "quadrant": st.quadrant,
        "origin": point_strings(st.origin),
        "preperiod": st.preperiod,
        "period": st.period,
        "recurring": {"power": st.g.k, "translation": list(st.g.v)},
        "growth_constant": qn_to_str(st.constant),
        "limit_point": point_strings(st.limit),
        "axis_height": qn_to_str(st.axis_height),
        "levels": [{
            "index": s.index,
            "delta_origin": point_strings(s.delta_origin),
            "delta_endpoint": point_strings(s.delta_endpoint),
            "ds": qn_to_str(s.ds),
            "Ls": qn_to_str(s.Ls),
            "q_lo": qn_to_str(s.q_lo),
            "q_hi": qn_to_str(s.q_hi),
            "safety": qn_to_str(s.safety),
        } for s in st.steps],
    }
