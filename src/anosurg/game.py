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

The domination threshold is the least twist strength on Y that makes every
contraction at a Y-crossing swallow the expansions of a full game period,
computed exactly from the breakpoints of the step functions mu, nu, delta
of the primitive rectangle family at each marked origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .quadfield import QuadNum, qn_pow
from .torus import (EigenFrame, FrameView, HyperbolicMatrix, InvariantError,
                    MarkedPointHit, MarkedSet, Point, eigenframe, fixing_lift,
                    quadrant_contracting, quadrant_view, QUADRANTS)
from .rectangles import (first_window_hits, lattice_widths, period_window,
                         primitive_family)

DEFAULT_BUDGET = 10_000


class GameError(ValueError):
    """Invalid game configuration or parameters."""


class DominationHypothesisError(ValueError):
    """A primitive rectangle of the family misses the other marked set."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class GameConfig:
    frame: EigenFrame
    sets: tuple            # tuple of MarkedSet, pairwise disjoint
    quadrant: str          # one of QUADRANTS
    tie_decreasing: bool = True   # tie rule: process equal heights by decreasing offset

    def __post_init__(self):
        if self.quadrant not in QUADRANTS:
            raise GameError(f"quadrant must be one of {QUADRANTS}")
        seen = set()
        for mset in self.sets:
            pts = set(mset.points)
            if pts & seen:
                raise GameError("marked sets overlap")
            seen |= pts


@dataclass(frozen=True)
class Crossing:
    hit: MarkedPointHit    # view coordinates relative to the frame (absolute)
    height: QuadNum        # unstable offset from the game origin
    offset: QuadNum        # stable offset from the game origin
    twist: int
    exponent: int          # signed exponent actually applied to lam
    t_before: QuadNum
    t_after: QuadNum


@dataclass(frozen=True)
class GameOutcome:
    status: str                     # "Defined" | "BudgetExhausted"
    final_t: QuadNum | None
    trace: tuple                    # tuple of Crossing

    @property
    def defined(self) -> bool:
        return self.status == "Defined"


def play_game(config: GameConfig, p: Point, t0: QuadNum, r: QuadNum,
              budget: int = DEFAULT_BUDGET) -> GameOutcome:
    """Run the crossing game from p with initial offset t0 up to height r."""
    view = quadrant_view(config.frame, config.quadrant)
    contracting = quadrant_contracting(config.quadrant)
    lam = view.lam
    one = lam / lam
    zero = one - one
    t0 = t0 if isinstance(t0, QuadNum) else zero + t0
    r = r if isinstance(r, QuadNum) else zero + r
    if not (t0 > 0 and r > 0):
        raise GameError("t0 and r must be positive")
    if budget < 1:
        raise GameError("budget must be at least 1")

    sp, up = view.s(p), view.u(p)
    widths = lattice_widths(view)
    t = t0
    h = zero
    trace: list[Crossing] = []

    def strip_hits(h_lo: QuadNum, h_hi: QuadNum):
        # offsets in (0, t), heights in (h_lo, h_hi]
        out = []
        for mset in config.sets:
            out.extend(view.hits(mset, sp, sp + t, up + h_lo, up + h_hi,
                                 include=(False, False, False, True)))
        return out

    while h < r:
        cands = first_window_hits(strip_hits, t, h, r, widths)
        if not cands:
            return GameOutcome("Defined", t, tuple(trace))
        hmin = min(c.u for c in cands)
        ties = [c for c in cands if c.u == hmin]
        ties.sort(key=lambda c: c.s, reverse=config.tie_decreasing)
        for c in ties:
            o = c.s - sp
            if not (0 < o < t):
                continue  # overtaken by an earlier tie's contraction
            if len(trace) >= budget:
                return GameOutcome("BudgetExhausted", None, tuple(trace))
            w = c.twist
            e = -w if contracting else w
            t_new = o + qn_pow(lam, e) * (t - o)
            trace.append(Crossing(c, c.u - up, o, w, e, t, t_new))
            t = t_new
        h = hmin - up
    return GameOutcome("Defined", t, tuple(trace))


def game_trace_records(outcome: GameOutcome) -> list:
    """JSON-ready crossing records (exact values as strings)."""
    from .quadfield import qn_to_str
    out = []
    for c in outcome.trace:
        out.append({
            "base": [str(c.hit.base[0]), str(c.hit.base[1])],
            "lattice": list(c.hit.lattice),
            "height": qn_to_str(c.height),
            "offset": qn_to_str(c.offset),
            "twist": c.twist,
            "exponent": c.exponent,
            "t_before": qn_to_str(c.t_before),
            "t_after": qn_to_str(c.t_after),
        })
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


@dataclass(frozen=True)
class DominationInterval:
    base: Point            # marked origin in [0,1)^2
    mu: QuadNum            # base length of the interval's rectangle
    nu: QuadNum            # next breakpoint
    height: QuadNum        # unstable height of the interval's rectangle
    delta: QuadNum         # least horizontal Y-offset inside the rectangle
    least_n: int           # least twist making the contraction land below nu(delta)


class DominationAnalysis:
    """Exact breakpoint analysis of the contraction-domination lemma.

    sign "positive" works with positive (increasing-diagonal) rectangles;
    "negative" mirrors the unstable axis, turning decreasing diagonals into
    increasing ones, so the same analysis covers the mixed quadrants.
    """

    def __init__(self, A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet,
                 sign: str = "positive", frame: EigenFrame | None = None,
                 mode: str = "closed"):
        if sign not in ("positive", "negative"):
            raise ValueError(f"sign must be positive|negative, got {sign!r}")
        if mode not in ("closed", "interior"):
            raise ValueError(f"mode must be closed|interior, got {mode!r}")
        if X.is_empty() or Y.is_empty():
            raise DominationHypothesisError(
                "both marked sets must be nonempty for the domination analysis")
        self.A = A
        self.X, self.Y = X, Y
        self.sign = sign
        self.mode = mode
        self.frame = frame or eigenframe(A)
        self.view = FrameView(self.frame, flip_u=(sign == "negative"))
        self.lam = self.frame.lam
        self._per_base = {}
        for orb in X.orbits:
            for base in orb.points:
                self._per_base[base] = self._analyze_base(base, orb.period)
        self.threshold = max(1, max(iv.least_n
                                    for ivs, _ in self._per_base.values()
                                    for iv in ivs))

    # -- per-origin analysis -------------------------------------------------

    def _analyze_base(self, base: Point, period: int):
        view = self.view
        big, u_cap = period_window(view, period)
        s0, u0 = view.s(base), view.u(base)
        rects = [(cand.s - s0, cand.u - u0, cand)   # (mu, height) sorted by mu
                 for cand in primitive_family(view, self.X, base, big, u_cap)
                 if 1 <= cand.s - s0 < big]
        if not rects:
            raise InvariantError(f"no primitive rectangle at origin {base}")
        bases = [mu for mu, _, _ in rects]

        def next_break(v: QuadNum):
            # least base-length breakpoint strictly above v > 0
            k = 0
            w = v
            while w < bases[0]:
                w, k = w * big, k + 1
            while w >= bases[0] * big:
                w, k = w / big, k - 1
            for b in bases:
                if b > w:
                    return b * qn_pow(big, -k) if k else b
            return bases[0] * big * qn_pow(big, -k)

        intervals = []
        boundary = (True,) * 4 if self.mode == "closed" else (False,) * 4
        for i, (mu, rho, cand) in enumerate(rects):
            nu = rects[i + 1][0] if i + 1 < len(rects) else bases[0] * big
            yhits = view.hits(self.Y, s0, s0 + mu, u0, u0 + rho, boundary)
            if not yhits:
                raise DominationHypothesisError(
                    f"primitive rectangle at {base} with endpoint lift "
                    f"{cand.lift} is disjoint from the other marked set",
                    witness=(base, cand))
            delta = min(h.s for h in yhits) - s0
            if not (0 < delta < mu):
                raise InvariantError("delta outside (0, mu)")
            gap = next_break(delta) - delta
            n, v = 0, nu - delta
            while v >= gap:
                v, n = v / self.lam, n + 1
            intervals.append(DominationInterval(base, mu, nu, rho, delta, n))
        return intervals, next_break

    # -- step functions ------------------------------------------------------

    def _locate(self, base: Point, t: QuadNum):
        intervals, _ = self._per_base[base]
        big = qn_pow(self.lam, self.X.orbit_containing(base).period)
        lo = intervals[0].mu
        k = 0
        w = t
        while w < lo:
            w, k = w * big, k + 1
        while w >= lo * big:
            w, k = w / big, k - 1
        for iv in reversed(intervals):
            if iv.mu <= w:
                return iv, qn_pow(big, -k)
        raise InvariantError("breakpoint location failed")

    def mu(self, base: Point, t: QuadNum) -> QuadNum:
        iv, scale = self._locate(base, t)
        return iv.mu * scale

    def nu(self, base: Point, t: QuadNum) -> QuadNum:
        iv, scale = self._locate(base, t)
        return iv.nu * scale

    def delta(self, base: Point, t: QuadNum) -> QuadNum:
        iv, scale = self._locate(base, t)
        return iv.delta * scale

    def equation_holds(self, base: Point, t: QuadNum, n: int) -> bool:
        """mu(delta(t) + lam^(-n) (t - delta(t))) == mu(delta(t))."""
        d = self.delta(base, t)
        shifted = d + qn_pow(self.lam, -n) * (t - d)
        return self.mu(base, shifted) == self.mu(base, d)

    def intervals(self, base: Point):
        return tuple(self._per_base[base][0])


def domination_threshold(A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet,
                         sign: str = "positive",
                         frame: EigenFrame | None = None) -> int:
    """Least twist N on Y dominating all expansions (positive integer)."""
    return DominationAnalysis(A, X, Y, sign=sign, frame=frame).threshold
