"""Primitive marked-rectangle census up to the <A> x| Z^2 action, and the
disjoint witnesses and case labels of disjointness profiles (the profile's
booleans are `classify.Analysis.profile`'s, read off its domination rows).

A marked rectangle is an axis-aligned box in (s,u)-coordinates whose
increasing (positive) or decreasing (negative) diagonal has both endpoints on
lifts of a marked set.  One record type, `MarkedRect`, holds it as its sign
and the two diagonal lifts; the box's sides and lengths are read off those
corners.  It is primitive when the closed box contains no other lift of that
set.  Up to the group generated by A and the integer translations there are
finitely many primitive rectangles; the census enumerates one normalized
representative per orbit, as a `MarkedRect`:

    ratio l_s/l_u in [1, lam^2)  and  origin base point in [0,1)^2.

The census, the domination analysis and the staircase seed search read the
primitive rectangles at an origin off one object, its primitive family (the
lattice's relative minima in a quadrant, its Klein sail): `primitive_family`
walks it, and `period_family` reads one period of it lazily, by base length,
and keeps what it read per frame.  The census reads it at each orbit's first
point b, of period pi, flipped in u when negative (b is then the upper-left
corner), and moves a member of ratio r by A^e, e = floor(log_lam(r) / 2),
plus the integer vector that takes its diagonal's lower corner o to
f_A^e(o).  This is exact.  The family at b is invariant under the lift of
A^pi that fixes b.  Base lengths [1, lam^pi) and ratios [1, lam^2pi) are
both fundamental domains of that action, and A^e divides ratios by lam^2e.

The walk, its members and their contacts are (p, q, d) triples and lifts
as `view_lifts` gives them, and e is the frame's `log_ratio` of a member's
two lengths, so a period family builds no QuadNum; the census's
`MarkedRect`s, the witnesses' rectangles and a member's corner read as
a hit (`PeriodFamily.corner`) build theirs.
"""

from __future__ import annotations

from math import lcm

from .quadfield import (QuadNum, _cmp, _minus, _parts, _plus, _sign, _times,
                        _triple, qn_to_str)
from .torus import (EigenFrame, FrameView, InvariantError, MarkedPointHit,
                    MarkedSet, as_point, group_element, hits_in_box,
                    point_strings, view_hit, view_lifts)


class MarkedRect:
    """The closed (s, u)-box spanned by a diagonal between two marked lifts:
    from origin up to endpoint (increasing u), rising in s for sign
    "positive" and falling for "negative"."""
    __slots__ = ("sign", "origin", "endpoint")

    def __init__(self, sign: str, origin: MarkedPointHit,
                 endpoint: MarkedPointHit):
        if sign not in ("positive", "negative"):
            raise ValueError(f"sign must be positive|negative, got {sign!r}")
        self.sign = sign
        self.origin = origin        # the diagonal's lower point
        self.endpoint = endpoint
        if not (self.s0 < self.s1 and self.u0 < self.u1):
            raise ValueError("degenerate rectangle")

    @property
    def s0(self) -> QuadNum:
        return (self.origin if self.sign == "positive" else self.endpoint).s

    @property
    def s1(self) -> QuadNum:
        return (self.endpoint if self.sign == "positive" else self.origin).s

    @property
    def u0(self) -> QuadNum:
        return self.origin.u

    @property
    def u1(self) -> QuadNum:
        return self.endpoint.u

    @property
    def ls(self) -> QuadNum:
        return self.s1 - self.s0

    @property
    def lu(self) -> QuadNum:
        return self.u1 - self.u0


def marked_rect(frame: EigenFrame, X: MarkedSet, origin_lift, endpoint_lift,
                sign: str) -> MarkedRect:
    """MarkedRect from two lifts of X, points or pairs."""
    def hit_of(lift):
        lift = as_point(lift)
        found = X.locate(lift)
        if found is None:
            raise ValueError(f"{lift} is not a lift of the marked set")
        orb, place = found
        return MarkedPointHit(orb.points[place], lift, frame.s(lift),
                              frame.u(lift), orb.twist)
    return MarkedRect(sign, hit_of(origin_lift), hit_of(endpoint_lift))


def is_primitive(frame: EigenFrame, rect: MarkedRect, X: MarkedSet) -> bool:
    """True iff the closed box meets the lift of X only at the two diagonal corners."""
    hits = hits_in_box(FrameView(frame), X, rect.s0, rect.s1, rect.u0,
                       rect.u1)
    corners = {(rect.origin.s, rect.origin.u), (rect.endpoint.s, rect.endpoint.u)}
    got = {(h.s, h.u) for h in hits}
    if not corners <= got:
        raise ValueError("diagonal endpoints are not lifts of the marked set")
    return got == corners


def first_window_hits(strip):
    """(lifts, top): the lifts of the strip's first nonempty scan over the
    height windows (a, b] climbing from lo to hi, as `view_lifts` gives
    them, and the top of the window that found them; ([], hi) when there
    are none.  The strip's edges and heights and the top are (p, q, d)
    triples.

    The first window is W_s W_u / width tall, the area of a box that holds
    a lift of every base point, and the windows double, so the scanned area
    stays proportional to the hit count however wide or narrow the strip
    is: window i reaches min(lo + (2^(i+1) - 1) W_s W_u / width, hi).  The
    climber knows that the heights (lo, covered] hold no lift, and covered
    is never below lo: a window wholly below covered is skipped and one
    that straddles it is scanned from covered up.  The windows stay
    anchored at lo whatever covered is, so a resumed search scans the same
    tops as a fresh one.

    The window and the tops are integers: each top's numerators over one
    denominator, the lo's plus a doubling multiple of the window's, and the
    tests against covered and hi are `_sign` tests on cross-multiplied
    numerators.  A top that is scanned is reduced (`_triple`) first.  The
    frame keeps the area's integers (`EigenFrame.area`), so nothing is
    taken apart.
    """
    D = strip.view.frame.D
    left, right, hi, covered = strip.left, strip.right, strip.hi, strip.covered
    (hp, hq, hd), (cp, cq, cd) = hi, covered
    if _sign(cp * hd - hp * cd, cq * hd - hq * cd, D) >= 0:
        # every window up to hi lies below covered: the search that ends
        # a climb scans nothing
        return [], hi
    # the width right - left is (wp + wq*sqrt(D))/(d1*d2) > 0, so the first
    # window, the area (ap + aq*sqrt(D))/ad over it, is d1*d2*(ap +
    # aq*sqrt(D))*(wp - wq*sqrt(D))/(ad*norm) for the width's norm
    # wp^2 - wq^2*D
    (p1, q1, d1), (p2, q2, d2) = left, right
    wp, wq = p2 * d1 - p1 * d2, q2 * d1 - q1 * d2
    norm = wp * wp - wq * wq * D
    (ap, aq, ad), (lp, lq, ld) = strip.view.frame.area, strip.lo
    # over e = ld*ad*|norm|, a top's numerators (tp, tq) start at lo's and
    # grow by the window's (xp, xq), which double from window to window
    x = ld * d1 * d2 if norm > 0 else -ld * d1 * d2
    xp, xq = x * (ap * wp - aq * wq * D), x * (aq * wp - ap * wq)
    f = ad * abs(norm)
    tp, tq, e = lp * f, lq * f, ld * f
    view, mset, include = strip.view, strip.mset, strip.include
    start = covered
    while True:
        tp, tq = tp + xp, tq + xq
        if _sign(tp * hd - hp * e, tq * hd - hq * e, D) >= 0:
            # the window reaches hi, which lies above covered
            return view_lifts(view, mset, left, right, start, hi, include), hi
        if _sign(tp * cd - cp * e, tq * cd - cq * e, D) > 0:
            top = _triple(tp, tq, e)
            lifts = view_lifts(view, mset, left, right, start, top, include)
            if lifts:
                return lifts, top
            start = top
        xp, xq = xp + xp, xq + xq


def _least(lifts, i, D):
    """The lift of least view coordinate i (3 for s, 4 for u) among lifts
    given as `view_lifts` gives them, or None when there are none.  x_a <
    x_b for lifts whose coordinates are the triples (p_a, q_a, d_a) and
    (p_b, q_b, d_b) exactly when (p_a*d_b - p_b*d_a) + (q_a*d_b -
    q_b*d_a)*sqrt(D) is negative."""
    low = None
    for lift in lifts:
        p, q, d = lift[i]
        if low is None or _sign(p * ld - lp * d, q * ld - lq * d, D) < 0:
            low, lp, lq, ld = lift, p, q, d
    return low


class StripClimber:
    """The lowest lifts of mset in the view's strip between s = left and
    s = right above height lo, up to hi, one at a time: the one search
    under the holonomy game, the primitive-family walk and the staircase
    safety contacts.

    The climber's state is integers from start to end: its edges left and
    right, its heights lo, hi and covered are (p, q, d) triples of (p +
    q*sqrt(D))/d with d > 0, and the lifts are those of `view_lifts`.
    Every scan is view_lifts(view, mset, left, right, a, b, include): the
    strip's lifts at heights (a, b], with the edges open or closed as the
    caller's include says.  lowest(right) moves the right edge, a triple,
    and returns the lowest lift above the last one taken, or None when
    there is none up to hi, searching the height windows of
    `first_window_hits`.  When the edge grew, it drops the other lifts the
    last window found and resets covered to lo; otherwise it keeps those
    with s < right, less the lift it took last, and takes the lowest of
    them.  Each lift is taken once, and lo becomes its u.

    "s < right" and "lower" are `_sign` tests on the lifts' s and u
    triples, cross-multiplied as for any two triples, and so are whether
    the edge grew and whether the lift taken is above lo.  The caller
    builds a `MarkedPointHit` (`view_hit`) of a lift only where it needs
    its QuadNums.

    Exactness: the heights up to covered, the top of the window that found
    the lifts, were scanned over a strip that holds the current one,
    because it has only narrowed since.  So every lift of the current
    strip at a height in (lo, covered] is among the survivors: the lowest
    survivor, when there is one, is the true next lift, and otherwise the
    search resumes above covered.  A widened strip may hold lifts at any
    height above lo, hence the reset.  Distinct lifts never share a u (the
    level lines have irrational slope), so the lowest is unique.
    """
    __slots__ = ("view", "mset", "include", "left", "right", "lo", "hi",
                 "covered", "lifts", "last")

    def __init__(self, view, mset, include, left, lo, hi):
        self.view, self.mset, self.include = view, mset, include
        # the strip starts empty, so that the first edge widens it
        self.left, self.right, self.lo, self.hi = left, left, lo, hi
        self.covered, self.lifts, self.last = lo, [], None

    def lowest(self, right) -> tuple | None:
        D = self.view.frame.D
        p, q, d = right
        p0, q0, d0 = self.right
        if _sign(p * d0 - p0 * d, q * d0 - q0 * d, D) > 0:
            # the edge grew
            self.lifts, self.covered = [], self.lo
        self.right = right
        last, low, kept = self.last, None, []
        for lift in self.lifts:
            _, _, _, (sp, sq, sd), (up, uq, ud) = lift
            if (lift is not last
                    and _sign(sp * d - p * sd, sq * d - q * sd, D) < 0):
                kept.append(lift)
                # lower than the lowest so far, as in `_least`
                if (low is None or _sign(up * ld - lp * ud, uq * ld - lq * ud,
                                         D) < 0):
                    low, lp, lq, ld = lift, up, uq, ud
        if low is None:
            kept, self.covered = first_window_hits(self)
            low = _least(kept, 4, D)
        self.lifts = kept
        if low is None:
            return None
        (up, uq, ud), (lp, lq, ld) = low[4], self.lo
        if _sign(up * ld - lp * ud, uq * ld - lq * ud, D) <= 0:
            # a lift on the strip's open lower edge would be taken again and
            # again, forever
            raise InvariantError(f"strip climb made no progress at {low[1]}")
        self.lo, self.last = low[4], low
        return low


def primitive_family(view: FrameView, X: MarkedSet, s0, right, lo, hi):
    """The Pareto-minimal lifts of X in the view box (s0, right] x (lo,
    hi], lazily, lowest first, as `view_lifts` gives them: with lo the
    origin's u, the far corners of the primitive view-increasing
    X-rectangles at the origin (s0, lo).  The bounds are (p, q, d)
    triples.

    These are the lattice's relative minima in the quadrant (its Klein
    sail), listed right to left, each the lowest lift in the strip left of
    the previous one: the work grows with their number, not the box's area.
    A strip (s0, right] is searched strictly above the previous lift, which
    sits on its right edge; distinct lifts never share an s or a u
    coordinate, so the strips see exactly the closed box.  The view s of
    each lift the climber takes is the next strip's right edge.  In a
    transposed view the same walk runs along the base, from left to right.
    """
    D = view.frame.D
    strip = StripClimber(view, X, (False, True, False, True), s0, lo, hi)
    while (lift := strip.lowest(right)) is not None:
        s = lift[3]
        if not (_cmp(s, s0, D) > 0 and _cmp(s, right, D) <= 0):
            raise InvariantError(
                f"primitive family walk left its strip at {lift[1]}")
        yield lift
        right = s


class PeriodFamily:
    """One period of the family at an origin of that period: the primitive
    view-increasing X-rectangles whose base length mu lies in [1, big),
    big = lam^period, read lazily by mu (`read`), each as (mu, height,
    corner): mu and the height (p, q, d) triples and corner the far
    corner's lift, as `view_lifts` gives it in the view.  The origin's s0
    and u0 are triples too, and nothing on the walk builds a QuadNum;
    `corner(i)` builds member i's far corner as a hit.

    Reading keeps the members read in `members` for the next reader.  The
    first read climbs the strip of base lengths (0, 1] in the view to its
    lowest lift, at base length l and height h: every member with base
    length at least 1 is at most h high, and every lift between base
    lengths l and 1 is higher.  Then the walk runs along the base in the
    transposed view, left to right over the heights (0, h], from above base
    length l (from 0 when l = 1, so that the lift is the first member), and
    stops at base length big.  Every primitive box with base length at
    least 1 is lower than lam^2 m^2, m = max(W_s, W_u), which caps the
    first climb.

    `contact(i, other)` is member i's scan of another marked set, kept
    per member and set, so the domination analysis, the staircase seed
    search and the census's witness search of one view share it.
    """
    __slots__ = ("view", "s0", "u0", "period", "members", "_walk",
                 "_contacts")

    def __init__(self, view: FrameView, X: MarkedSet, origin, period: int):
        self.view, self.period = view, period
        self.s0, self.u0 = view.triples(origin)
        self.members = []
        self._walk = self._read(X)
        self._contacts = {}

    def _read(self, X):
        view, s0, u0 = self.view, self.s0, self.u0
        frame = view.frame
        D = frame.D
        ws, wu = (_parts(w) for w in frame.widths)
        m = ws if _cmp(ws, wu, D) > 0 else wu
        cap = _times(frame.rung(2)[2], _times(m, m, D), D)
        end = _plus(s0, frame.rung(self.period)[2])
        unit = _plus(s0, (1, 0, 1))
        right, lo = _plus(u0, cap), s0
        lowest = next(primitive_family(view, X, s0, unit, u0, right), None)
        if lowest is not None:
            right = lowest[4]
            if _cmp(lowest[3], unit, D) < 0:
                lo = lowest[3]
        # the transposed walk's s is the view's u, and its u the view's s
        for base, lift, twist, u, s in primitive_family(
                view.transposed(), X, u0, right, lo, end):
            if _cmp(s, end, D) >= 0:
                return
            yield _minus(s, s0), _minus(u, u0), (base, lift, twist, s, u)

    def read(self):
        """The members, those read before and then the walk's next."""
        members, i = self.members, 0
        while True:
            if i == len(members):
                member = next(self._walk, None)
                if member is None:
                    return
                members.append(member)
            yield members[i]
            i += 1

    def corner(self, i: int) -> MarkedPointHit:
        """Member i's far corner as a hit, its s and u QuadNums."""
        return view_hit(self.view, self.members[i][2])

    def contact(self, i: int, other: MarkedSet):
        """The least view s, less s0, of the other set's lifts in member
        i's closed box, a triple, or None when the box misses the other
        set."""
        key = (i, other)
        if key not in self._contacts:
            *_, s, u = self.members[i][2]
            first = _least(view_lifts(self.view, other, self.s0, s, self.u0,
                                      u), 3, self.view.frame.D)
            self._contacts[key] = (None if first is None
                                   else _minus(first[3], self.s0))
        return self._contacts[key]


def period_family(view: FrameView, X: MarkedSet, origin,
                  period: int) -> PeriodFamily:
    """The `PeriodFamily` at an origin of the given period, in an
    untransposed view.  The frame's `families` table keeps it under the
    view's flips, the set, the origin and the period, so the census, the
    domination analysis and the staircase seed search at one origin and
    view share one walk and its scans."""
    key = (view.flip_s, view.flip_u, X, origin, period)
    families = view.frame.families
    if key not in families:
        families[key] = PeriodFamily(view, X, origin, period)
    return families[key]


def _census(frame: EigenFrame, X: MarkedSet, sign: str) -> list:
    """The census as (representative, family, member index) triples."""
    if X.is_empty():
        raise ValueError("marked set is empty")
    if sign not in ("positive", "negative"):
        raise ValueError(f"sign must be positive|negative, got {sign!r}")
    negative = sign == "negative"
    view = FrameView(frame, flip_u=negative)
    found, seen = [], set()
    for orb in X.orbits:
        base = orb.points[0]
        family = period_family(view, X, base, orb.period)
        for i, (mu, height, (_, corner, *_)) in enumerate(family.read()):
            # the diagonal's lower point is the far corner when negative
            low, high = (corner, base) if negative else (base, corner)
            # A^e takes the ratio into [1, lam^2); exactly lam^2k goes to 1
            e = frame.log_ratio(mu, height) // 2
            low_orb, place = X.locate(low)
            g = group_element(frame.matrix, e, low, low_orb.points[
                (place + e) % low_orb.period])
            if g is None:
                raise InvariantError("census origin outside its orbit")
            mr = marked_rect(frame, X, g.act(low), g.act(high), sign)
            key = (mr.origin.base, mr.endpoint.lift)
            if key in seen:
                raise InvariantError("duplicate normalized representative")
            seen.add(key)
            found.append((mr, family, i))
    # ties in the lengths go by the bases' rational order: (k, x, y) is
    # (x*(K//k), y*(K//k))/K over the lcm K of X's denominators
    K = lcm(*(k for k, _, _ in X.index))

    def rational(p):
        k, x, y = p
        return x * (K // k), y * (K // k)

    found.sort(key=lambda f: (f[0].ls, f[0].lu, rational(f[0].origin.base),
                              rational(f[0].endpoint.base),
                              f[0].endpoint.lattice))
    return found


def enumerate_primitive(frame: EigenFrame, X: MarkedSet, sign: str):
    """One normalized representative per orbit of primitive sign-diagonal
    X-rectangles, as MarkedRects."""
    return [rep for rep, _, _ in _census(frame, X, sign)]


def rect_meets(frame: EigenFrame, rect: MarkedRect, S: MarkedSet) -> bool:
    """True iff the lift of S meets the closed box."""
    if S.is_empty():
        return False
    return bool(hits_in_box(FrameView(frame), S, rect.s0, rect.s1, rect.u0,
                            rect.u1))


def disjoint_witness(frame: EigenFrame, own: MarkedSet, other: MarkedSet,
                     sign: str) -> MarkedRect | None:
    """The first primitive sign-diagonal representative of own whose closed
    box misses the lift of other, or None; its family member's contact
    tells, since the group element between them preserves other."""
    for rep, family, i in _census(frame, own, sign):
        if family.contact(i, other) is None:
            return rep
    return None


_CASE_PATTERNS = {
    (True, True, True, True): 1,
    (False, False, True, True): 2,
    (True, False, True, False): 3,
    (False, True, True, True): 4,
}

_SYMMETRIES = (
    ("identity", lambda b: b),
    ("swap-roles", lambda b: (b[2], b[3], b[0], b[1])),
    ("swap-signs", lambda b: (b[1], b[0], b[3], b[2])),
    ("swap-both", lambda b: (b[3], b[2], b[1], b[0])),
)


def case_label(b: tuple):
    """(case, symmetry) of the disjointness booleans b, in X+, X-, Y+, Y-
    order, up to interchanging signs or the two sets."""
    # a negative-diagonal rectangle of one set disjoint from the other must
    # exist whenever every positive rectangle of the other meets it
    if (not b[0] and not b[3]) or (not b[1] and not b[2]):
        raise InvariantError(f"disjointness profile {b} is geometrically impossible")
    for name, f in _SYMMETRIES:
        if f(b) in _CASE_PATTERNS:
            return _CASE_PATTERNS[f(b)], name


def census_records(reps) -> list:
    """JSON-ready census records (exact values as strings)."""
    out = []
    for mr in reps:
        out.append({
            "sign": mr.sign,
            "origin": {"base": point_strings(mr.origin.base),
                       "lattice": list(mr.origin.lattice)},
            "endpoint": {"base": point_strings(mr.endpoint.base),
                         "lattice": list(mr.endpoint.lattice)},
            "lengths": {"s": qn_to_str(mr.ls), "u": qn_to_str(mr.lu)},
            # every representative is already normalized: the identity
            "witness": {"power": 0, "translation": [0, 0]},
        })
    return out
