"""The holonomy game on the bi-foliated plane, and the domination threshold.

The game starts on the unstable separatrix of a point p, at horizontal
(stable) offset t0, and walks upward to unstable height r.  Each time the
walk crosses the stable separatrix of a marked lift gamma at height h and
horizontal offset u_gamma in (0, t), the offset is updated by

    t  <-  u_gamma + lam^(-w) * (t - u_gamma)     (quadrants ++ and --)
    t  <-  u_gamma + lam^(+w) * (t - u_gamma)     (quadrants +- and -+)

where w is the signed twist of gamma's orbit.  The game either reaches r
with a finite offset (Defined) or exhausts its crossing budget
(BudgetExhausted); the simulator never claims divergence.

A step takes the lowest lift of the strip (0, t) x (h, r] from a
`StripClimber`, and one scan covers the lifts of every marked set.  The
game carries the strip's right edge, s0 + t in view s for the origin's
s0, so a crossing at s_gamma = s0 + u_gamma is the update

    right  <-  s_gamma + lam^e * (right - s_gamma),

computed on integers from start to end: s_gamma is the lift's view s,
a (p, q, d) triple as `view_lifts` gives it, lam^e the ladder's (p, q, d)
of its rung, and right a (p, q, d) triple reduced after each update
(`_triple`).  The climber is handed that edge at each step: a crossing
that expands t (exponent e > 0) widens the strip, and one with e <= 0
narrows it or keeps it.  A game step builds no QuadNum.  A crossing
record keeps its lift, the origin and the strip's edges before and after
it, all triples; its offset, height and lengths t are differences of
those triples, one QuadNum each, built when asked for.

The domination threshold is the least twist strength on Y that makes every
contraction at a Y-crossing swallow the expansions of a full game period,
computed exactly from the breakpoints of the step functions mu, nu, delta
of the primitive rectangle family at the first point of each marked orbit.
The analysis reads the family's members and contacts as (p, q, d) triples
and works on them alone: comparisons are `_cmp` tests, a breakpoint moved
by a period is a product with a ladder rung, and a threshold is the
frame's `log_ratio` of two triples.  A `DominationInterval` keeps its
lengths as triples and builds their QuadNums when read, and only a failing
analysis builds a hit, its witness's far corner.
"""

from __future__ import annotations

from .quadfield import (QuadNum, _cmp, _length, _minus, _parts, _plus, _qn,
                        _sign, _times, _triple, qn_to_str)
from .torus import (EigenFrame, FrameView, InvariantError, MarkedSet, Point,
                    as_point, point_strings, quadrant_direction,
                    quadrant_view, QUADRANTS)
from .rectangles import StripClimber, period_family

DEFAULT_BUDGET = 10_000


class GameError(ValueError):
    """Invalid game configuration or parameters."""


class DominationHypothesisError(ValueError):
    """A primitive rectangle of the family misses the other marked set."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GameConfig:
    """A game's frame, quadrant and marked lifts.  The constructor takes
    the sets, a tuple of pairwise disjoint MarkedSets, and keeps their
    union, `marked`: the one set that each strip scan covers, each hit
    carrying its own orbit's twist."""
    __slots__ = ("frame", "quadrant", "marked")

    def __init__(self, frame: EigenFrame, sets: tuple, quadrant: str):
        if quadrant not in QUADRANTS:
            raise GameError(f"quadrant must be one of {QUADRANTS}")
        try:
            marked = MarkedSet(tuple(orb for mset in sets
                                     for orb in mset.orbits))
        except InvariantError:
            raise GameError("marked sets overlap") from None
        self.frame = frame
        self.quadrant = quadrant
        self.marked = marked


def _difference(x: tuple, y: tuple, D: int) -> QuadNum:
    """x - y for (p, q, d) triples x and y, as one QuadNum."""
    (p1, q1, d1), (p2, q2, d2) = x, y
    return _qn(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2, D)


class Crossing:
    """One crossing of the game from the origin (s0, u0), in view
    coordinates, kept as integers: the lift crossed, as `view_lifts` gives
    it, the exponent applied to lam, and the (p, q, d) triples of the
    origin and of the strip's right edge in view s before and after it
    (`edges`).  The offsets, height and lengths t are read off the
    triples, one QuadNum each."""
    __slots__ = ("view", "lift", "s0", "u0", "exponent", "edges")

    def __init__(self, view: FrameView, lift: tuple, s0: tuple, u0: tuple,
                 exponent: int, before: tuple, after: tuple):
        self.view, self.lift = view, lift
        self.s0, self.u0 = s0, u0
        self.exponent = exponent    # signed exponent actually applied to lam
        self.edges = before, after

    @property
    def base(self) -> Point:
        return self.lift[0]

    @property
    def lattice(self) -> tuple:
        """(m, n) in Z^2 with lift = base + (m, n)."""
        k, X, Y = self.lift[1]
        return X // k, Y // k

    @property
    def twist(self) -> int:
        return self.lift[2]

    @property
    def height(self) -> QuadNum:
        """Unstable offset from the game origin."""
        return _difference(self.lift[4], self.u0, self.view.frame.D)

    @property
    def offset(self) -> QuadNum:
        """Stable offset from the game origin."""
        return _difference(self.lift[3], self.s0, self.view.frame.D)

    @property
    def t_before(self) -> QuadNum:
        return _difference(self.edges[0], self.s0, self.view.frame.D)

    @property
    def t_after(self) -> QuadNum:
        return _difference(self.edges[1], self.s0, self.view.frame.D)


class GameOutcome:
    __slots__ = ("status", "final_t", "trace")

    def __init__(self, status: str, final_t: QuadNum | None, trace: tuple):
        self.status = status        # "Defined" | "BudgetExhausted"
        self.final_t = final_t
        self.trace = trace          # tuple of Crossing

    @property
    def defined(self) -> bool:
        return self.status == "Defined"


def play_game(config: GameConfig, p, t0: QuadNum, r: QuadNum,
              budget: int = DEFAULT_BUDGET) -> GameOutcome:
    """Run the crossing game from p, a point or a pair, with initial offset
    t0 up to height r."""
    view = quadrant_view(config.frame, config.quadrant)
    direction = quadrant_direction(config.quadrant)
    D = config.frame.D
    t0, r = _parts(t0), _parts(r)
    if not (_sign(t0[0], t0[1], D) > 0 and _sign(r[0], r[1], D) > 0):
        raise GameError("t0 and r must be positive")
    if budget < 1:
        raise GameError("budget must be at least 1")

    p = as_point(p)
    s0, u0 = _parts(view.s(p)), _parts(view.u(p))
    marked, rung = config.marked, config.frame.rung
    right = _plus(s0, t0)
    trace: list[Crossing] = []

    # offsets in (0, t), heights in (a, b]
    strip = StripClimber(view, marked, (False, False, False, True), s0, u0,
                         _plus(u0, r))
    while (lift := strip.lowest(right)) is not None:
        if len(trace) >= budget:
            return GameOutcome("BudgetExhausted", None, tuple(trace))
        _, _, twist, (a, b, f), _ = lift
        e = direction * twist
        # s + lam^e*(right - s) for the lift's s = (a + b*sqrt(D))/f, the
        # ladder's lam^e = (g + h*sqrt(D))/c and right = (x + y*sqrt(D))/z:
        # right - s is (m + n*sqrt(D))/(f*z), and the sum is over c*z*f
        (g, h, c), (x, y, z) = rung(e)[2], right
        m, n, cz = x * f - a * z, y * f - b * z, c * z
        before, right = right, _triple(a * cz + g * m + h * n * D,
                                       b * cz + g * n + h * m, cz * f)
        trace.append(Crossing(view, lift, s0, u0, e, before, right))
    return GameOutcome("Defined", _difference(right, s0, D), tuple(trace))


def game_trace_records(outcome: GameOutcome) -> list:
    """JSON-ready crossing records (exact values as strings).  A crossing's
    t_before is the t_after of the one before it, so only the first is
    derived."""
    out, t_before = [], None
    for c in outcome.trace:
        t_after = qn_to_str(c.t_after)
        out.append({
            "base": point_strings(c.base),
            "lattice": list(c.lattice),
            "height": qn_to_str(c.height),
            "offset": qn_to_str(c.offset),
            "twist": c.twist,
            "exponent": c.exponent,
            "t_before": qn_to_str(c.t_before) if t_before is None else t_before,
            "t_after": t_after,
        })
        t_before = t_after
    return out


# ---------------------------------------------------------------------------
# Domination threshold
#
# At each marked origin x, the primitive rectangles with origin corner on x
# are parameterized by their base length mu_R; the base lengths form a
# multiplicatively lam^pi-periodic set (pi = period of x), giving finitely
# many breakpoint intervals [mu_i, nu_i).  On each, delta_i is the least
# horizontal Y-offset inside the rectangle, and the threshold is the least n
# with lam^(-n) * (nu_i - delta_i) < nu(delta_i) - delta_i.


class DominationInterval:
    """One breakpoint interval at an origin: its base length mu, the next
    breakpoint nu and the least horizontal Y-offset delta inside its
    rectangle, kept as (p, q, d) triples and read as QuadNums, and the
    least twist that contracts below nu(delta)."""
    __slots__ = ("D", "lengths", "least_n")

    def __init__(self, mu: tuple, nu: tuple, delta: tuple, least_n: int,
                 D: int):
        self.D, self.lengths, self.least_n = D, (mu, nu, delta), least_n

    mu = _length(0, "base length of the interval's rectangle")
    nu = _length(1, "next breakpoint")
    delta = _length(2, "least horizontal Y-offset inside it")


class DominationAnalysis:
    """Exact breakpoint analysis of the contraction-domination lemma.

    sign "positive" works with positive (increasing-diagonal) rectangles;
    "negative" mirrors the unstable axis, turning decreasing diagonals into
    increasing ones, so the same analysis covers the mixed quadrants.

    One origin decides for its orbit, so the analysis reads each orbit's
    first point.  This is exact: the family at A b is the A-image of the
    family at b, Y is A-invariant, and an interval's least n does not
    change when A scales its lengths.  So the hypothesis holds at every
    origin of an orbit or at none, and the threshold is the same at all.
    """

    def __init__(self, frame: EigenFrame, X: MarkedSet, Y: MarkedSet,
                 sign: str = "positive"):
        if sign not in ("positive", "negative"):
            raise ValueError(f"sign must be positive|negative, got {sign!r}")
        if X.is_empty() or Y.is_empty():
            raise DominationHypothesisError(
                "both marked sets must be nonempty for the domination analysis")
        self.X, self.Y = X, Y
        self.view = FrameView(frame, flip_u=(sign == "negative"))
        self._per_base = {}
        self.threshold = max(self.threshold_at(orb.points[0])
                             for orb in X.orbits)

    def threshold_at(self, base) -> int:
        """The least positive twist dominating every interval at one origin,
        a point or a pair: the value of its orbit, read at the orbit's first
        point."""
        orb, _ = self.X.locate(base)
        return max(1, max(iv.least_n for iv in self.intervals(orb.points[0])))

    def intervals(self, base):
        """The breakpoint intervals at one origin, a point or a pair, over
        one period, by mu; an origin other than its orbit's first point is
        analysed when first asked for."""
        base = as_point(base)
        if base not in self._per_base:
            orb, _ = self.X.locate(base)
            self._per_base[base] = self._analyze_base(base, orb.period)
        return self._per_base[base]

    # -- per-origin analysis -------------------------------------------------

    def _analyze_base(self, base: Point, period: int):
        view = self.view
        frame = view.frame
        D = frame.D
        family = period_family(view, self.X, base, period)
        # the hypothesis: every member's closed box meets Y; the first
        # member that misses it decides, and the rest are not read
        rects = []
        for i, (mu, _, (_, corner, *_)) in enumerate(family.read()):
            delta = family.contact(i, self.Y)
            if delta is None:
                raise DominationHypothesisError(
                    f"primitive rectangle at {base} with endpoint lift "
                    f"{corner} is disjoint from the other marked set",
                    witness=(base, family.corner(i)))
            if not (_sign(delta[0], delta[1], D) > 0
                    and _cmp(delta, mu, D) < 0):
                raise InvariantError("delta outside (0, mu)")
            rects.append((mu, delta))
        if not rects:
            raise InvariantError(f"no primitive rectangle at origin {base}")
        # the breakpoints in one period [mu_0, mu_0 lam^pi], both ends
        # included, all (p, q, d) triples
        first = rects[0][0]
        breaks = [mu for mu, _ in rects] + [
            _times(first, frame.rung(period)[2], D)]

        def next_break(v):
            # least breakpoint strictly above v > 0: v lies in the period
            # [first, first lam^pi) scaled by lam^n, n a multiple of pi,
            # and the breakpoint is the least b of that period with
            # b lam^n > v
            n = frame.log_ratio(v, first) // period * period
            scale = frame.rung(n)[2]
            return next(above for b in breaks
                        if _cmp(above := _times(b, scale, D), v, D) > 0)

        intervals = []
        for i, (mu, delta) in enumerate(rects):
            nu = breaks[i + 1]
            # least n >= 0 with lam^(-n) (nu - delta) < gap
            gap = _minus(next_break(delta), delta)
            n = max(0, frame.log_ratio(_minus(nu, delta), gap) + 1)
            intervals.append(DominationInterval(mu, nu, delta, n, D))
        return tuple(intervals)
