"""Primitive marked-rectangle census up to the <A> x| Z^2 action, disjointness
profiles, and strings of rectangles.

A marked rectangle is an axis-aligned box in (s,u)-coordinates whose
increasing (positive) or decreasing (negative) diagonal has both endpoints on
lifts of a marked set.  It is primitive when the closed box contains no other
lift of that set.  Up to the group generated by A and the integer
translations there are finitely many primitive rectangles; the census
enumerates one normalized representative per orbit:

    ratio l_s/l_u in [1, lam^2)  and  origin base point in [0,1)^2.

Completeness of the bounded search: any box with l_s >= W_s and l_u >= W_u,
where W_s = |s(1,0)| + |s(0,1)| and W_u likewise, contains a lift of every
base point, so a primitive box has l_s < W_s or l_u < W_u; with the ratio
normalized this bounds both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .quadfield import QuadNum, qn_pow
from .torus import (EigenFrame, FrameView, GroupElement, HyperbolicMatrix,
                    InvariantError, MarkedPointHit, MarkedSet, eigenframe,
                    enumerate_hits, hits_in_box)


@dataclass(frozen=True)
class EigenRect:
    s0: QuadNum
    s1: QuadNum
    u0: QuadNum
    u1: QuadNum

    def __post_init__(self):
        if not (self.s0 < self.s1 and self.u0 < self.u1):
            raise ValueError("degenerate rectangle")

    @property
    def ls(self) -> QuadNum:
        return self.s1 - self.s0

    @property
    def lu(self) -> QuadNum:
        return self.u1 - self.u0


@dataclass(frozen=True)
class MarkedRect:
    rect: EigenRect
    sign: str                 # "positive" | "negative"
    origin: MarkedPointHit    # first point of the diagonal (increasing u)
    endpoint: MarkedPointHit

    def __post_init__(self):
        r, o, e = self.rect, self.origin, self.endpoint
        if self.sign == "positive":
            ok = (o.s, o.u) == (r.s0, r.u0) and (e.s, e.u) == (r.s1, r.u1)
        elif self.sign == "negative":
            ok = (o.s, o.u) == (r.s1, r.u0) and (e.s, e.u) == (r.s0, r.u1)
        else:
            raise ValueError(f"sign must be positive|negative, got {self.sign!r}")
        if not ok:
            raise ValueError("diagonal endpoints do not match the box corners")


@dataclass(frozen=True)
class RectOrbitRep:
    rect: MarkedRect
    witness: tuple = (0, (0, 0))   # (A-power, integer translation) normalizing it


@dataclass(frozen=True)
class CaseProfile:
    pos_x_disjoint: bool    # exists positive X-rect disjoint from the Y lift
    neg_x_disjoint: bool
    pos_y_disjoint: bool    # exists positive Y-rect disjoint from the X lift
    neg_y_disjoint: bool
    case: int | str         # 1..4 after symmetry normalization, else "other"
    symmetry: str           # which symmetry mapped the booleans onto the case
    primitive_reduction_assumed: bool = True
    witnesses: dict = field(default_factory=dict, compare=False)

    @property
    def booleans(self):
        return (self.pos_x_disjoint, self.neg_x_disjoint,
                self.pos_y_disjoint, self.neg_y_disjoint)


def _marked_rect_from_corners(view: FrameView, sign_view_is_negative: bool,
                              origin: MarkedPointHit, endpoint: MarkedPointHit,
                              frame: EigenFrame) -> MarkedRect:
    """Build a MarkedRect in raw coordinates from view-positive corner hits."""
    o_raw = MarkedPointHit(origin.base, origin.lattice,
                           frame.s(origin.lift), frame.u(origin.lift), origin.twist)
    e_raw = MarkedPointHit(endpoint.base, endpoint.lattice,
                           frame.s(endpoint.lift), frame.u(endpoint.lift), endpoint.twist)
    if sign_view_is_negative:
        rect = EigenRect(e_raw.s, o_raw.s, o_raw.u, e_raw.u)
        return MarkedRect(rect, "negative", o_raw, e_raw)
    rect = EigenRect(o_raw.s, e_raw.s, o_raw.u, e_raw.u)
    return MarkedRect(rect, "positive", o_raw, e_raw)


def marked_rect(frame: EigenFrame, X: MarkedSet, origin_lift, endpoint_lift,
                sign: str) -> MarkedRect:
    """MarkedRect from two lifts of X given as rational points."""
    def hit_of(lift):
        from .torus import mod1
        base = mod1(lift)
        if base not in X.points:
            raise ValueError(f"{lift} is not a lift of the marked set")
        lat = (int(lift[0] - base[0]), int(lift[1] - base[1]))
        return MarkedPointHit(base, lat, frame.s(lift), frame.u(lift),
                              X.twist_of(base))
    o, e = hit_of(origin_lift), hit_of(endpoint_lift)
    if sign == "positive":
        return MarkedRect(EigenRect(o.s, e.s, o.u, e.u), sign, o, e)
    return MarkedRect(EigenRect(e.s, o.s, o.u, e.u), sign, o, e)


def is_primitive(frame: EigenFrame, rect: MarkedRect, X: MarkedSet) -> bool:
    """True iff the closed box meets the lift of X only at the two diagonal corners."""
    r = rect.rect
    hits = enumerate_hits(frame, X, (r.s0, r.s1), (r.u0, r.u1), "closed")
    corners = {(rect.origin.s, rect.origin.u), (rect.endpoint.s, rect.endpoint.u)}
    got = {(h.s, h.u) for h in hits}
    if not corners <= got:
        raise ValueError("diagonal endpoints are not lifts of the marked set")
    return got == corners


def lattice_widths(view: FrameView):
    """W_s = |s(1,0)| + |s(0,1)|, W_u likewise, in view coordinates."""
    ws = abs(view.s((1, 0))) + abs(view.s((0, 1)))
    wu = abs(view.u((1, 0))) + abs(view.u((0, 1)))
    return ws, wu


def period_window(view: FrameView, period: int):
    """(lam^period, lam^2 m^2) with m = max(W_s, W_u): one multiplicative
    period of base lengths for an origin of that period, and a height cap
    below which every primitive box with base length at least 1 fits."""
    ws, wu = lattice_widths(view)
    m = max(ws, wu)
    return qn_pow(view.lam, period), view.lam * view.lam * m * m


def first_window_hits(scan, width, lo, hi, widths):
    """The hits of the first nonempty scan(a, b) over the height windows
    (a, b] climbing from lo to hi; [] when there are none.

    The first window holds about one lift for a strip of this stable width
    and the windows double, so the scanned area stays proportional to the
    hit count however wide or narrow the strip is.
    """
    ws, wu = widths
    window = wu * (ws / width) if width >= ws else wu
    while lo < hi:
        top = min(lo + window, hi)
        hits = scan(lo, top)
        if hits:
            return hits
        lo, window = top, window + window
    return []


def primitive_family(view: FrameView, X: MarkedSet, origin, s_width, u_cap):
    """The Pareto-minimal lifts of X in the view box (s0, s0 + s_width] x
    (u0, u0 + u_cap] at the origin (s0, u0), sorted by s: the far corners of
    the primitive view-increasing X-rectangles at the origin.

    These are the lattice's relative minima in the quadrant (its Klein
    sail), listed right to left, each the lowest lift in the strip left of
    the previous one: the work grows with their number, not the box's area.
    A strip (s0, right] is searched strictly above the previous lift, which
    sits on its right edge; distinct lifts never share an s or a u
    coordinate, so the strips see exactly the closed box.
    """
    s0, u0 = view.s(origin), view.u(origin)
    widths = lattice_widths(view)
    right, lo = s0 + s_width, u0

    def scan(a, b):
        return view.hits(X, s0, right, a, b, (False, True, False, True))

    family = []
    while True:
        hits = first_window_hits(scan, right - s0, lo, u0 + u_cap, widths)
        if not hits:
            return family[::-1]
        low = min(hits, key=lambda h: h.u)
        family.append(low)
        right, lo = low.s, low.u


def enumerate_primitive(A: HyperbolicMatrix, X: MarkedSet, sign: str,
                        frame: EigenFrame | None = None):
    """One normalized representative per orbit of primitive sign-diagonal X-rectangles."""
    if X.is_empty():
        raise ValueError("marked set is empty")
    if sign not in ("positive", "negative"):
        raise ValueError(f"sign must be positive|negative, got {sign!r}")
    frame = frame or eigenframe(A)
    view = FrameView(frame, flip_s=(sign == "negative"))
    lam2 = view.lam * view.lam
    ws, wu = lattice_widths(view)
    s_max = max(ws, lam2 * wu)
    u_max = max(wu, ws)
    reps = []
    seen = set()
    for orb in X.orbits:
        for base in orb.points:
            s0, u0 = view.s(base), view.u(base)
            origin = MarkedPointHit(base, (0, 0), s0, u0, orb.twist)
            for cand in primitive_family(view, X, base, s_max, u_max):
                ratio = (cand.s - s0) / (cand.u - u0)
                # ratio == lam^2 can happen (the A-image of a ratio-1 box);
                # the half-open window counts that orbit once, at ratio 1
                if not (1 <= ratio < lam2):
                    continue
                mr = _marked_rect_from_corners(view, sign == "negative",
                                               origin, cand, frame)
                key = (base, cand.base, cand.lattice)
                if key in seen:
                    raise InvariantError("duplicate normalized representative")
                seen.add(key)
                reps.append(RectOrbitRep(mr))
    reps.sort(key=lambda r: (r.rect.rect.ls, r.rect.rect.lu,
                             r.rect.origin.base, r.rect.endpoint.base,
                             r.rect.endpoint.lattice))
    return reps


def rect_meets(frame: EigenFrame, rect: EigenRect, S: MarkedSet,
               mode: str = "closed") -> bool:
    """True iff the lift of S meets the box (closed or interior)."""
    if mode not in ("closed", "interior"):
        raise ValueError(f"mode must be closed|interior, got {mode!r}")
    if S.is_empty():
        return False
    boundary = "closed" if mode == "closed" else "open"
    return bool(enumerate_hits(frame, S, (rect.s0, rect.s1),
                               (rect.u0, rect.u1), boundary))


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


def case_profile(A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet,
                 frame: EigenFrame | None = None) -> CaseProfile:
    """The four disjointness booleans over primitive representatives, plus the
    case label up to interchanging signs or the two sets."""
    if set(X.points) & set(Y.points):
        raise ValueError("marked sets overlap")
    frame = frame or eigenframe(A)

    def disjoint_witness(own, other, sign):
        for rep in enumerate_primitive(A, own, sign, frame):
            if not rect_meets(frame, rep.rect.rect, other, "closed"):
                return rep
        return None

    wit = {
        "pos_x": disjoint_witness(X, Y, "positive"),
        "neg_x": disjoint_witness(X, Y, "negative"),
        "pos_y": disjoint_witness(Y, X, "positive"),
        "neg_y": disjoint_witness(Y, X, "negative"),
    }
    b = tuple(wit[k] is not None for k in ("pos_x", "neg_x", "pos_y", "neg_y"))
    # a negative-diagonal rectangle of one set disjoint from the other must
    # exist whenever every positive rectangle of the other meets it
    if (not b[0] and not b[3]) or (not b[1] and not b[2]):
        raise InvariantError(f"disjointness profile {b} is geometrically impossible")
    case, symmetry = "other", "none"
    for name, f in _SYMMETRIES:
        if f(b) in _CASE_PATTERNS:
            case, symmetry = _CASE_PATTERNS[f(b)], name
            break
    return CaseProfile(*b, case=case, symmetry=symmetry,
                       witnesses={k: v for k, v in wit.items() if v is not None})


# ---------------------------------------------------------------------------
# Strings of rectangles


@dataclass(frozen=True)
class StringDescriptor:
    """Finitely-presented string: Delta_i = G^i(Delta_0)."""
    A: HyperbolicMatrix
    frame: EigenFrame
    X: MarkedSet
    seed: MarkedRect
    G: GroupElement

    def delta(self, i: int) -> MarkedRect:
        g = self.G.power(i)
        return marked_rect(self.frame, self.X,
                           g.apply(self.seed.origin.lift),
                           g.apply(self.seed.endpoint.lift), self.seed.sign)


def string_element(A: HyperbolicMatrix, X: MarkedSet,
                   seed: MarkedRect) -> GroupElement:
    """The group element G with G(origin) = endpoint for a same-orbit seed."""
    ob, eb = seed.origin.base, seed.endpoint.base
    orb = X.orbit_containing(ob)
    if eb not in orb.points:
        raise ValueError("seed diagonal endpoints lie in different orbits; "
                         "no group element maps origin to endpoint")
    k = orb.points.index(eb) - orb.points.index(ob)
    if k < 0:
        k += orb.period
    az = A.power_rows(k)
    from .torus import _mat_apply
    img = _mat_apply(az, seed.origin.lift)
    v = (seed.endpoint.lift[0] - img[0], seed.endpoint.lift[1] - img[1])
    if v[0].denominator != 1 or v[1].denominator != 1:
        raise InvariantError("non-integral translation for string element")
    return GroupElement(A, k, (int(v[0]), int(v[1])))


def build_string(A: HyperbolicMatrix, X: MarkedSet, seed: MarkedRect,
                 avoid: MarkedSet, frame: EigenFrame | None = None) -> StringDescriptor:
    """String of rectangles from a primitive seed disjoint from the avoid set."""
    frame = frame or eigenframe(A)
    if not is_primitive(frame, seed, X):
        raise ValueError("seed rectangle is not primitive")
    if rect_meets(frame, seed.rect, avoid, "closed"):
        raise ValueError("seed rectangle meets the avoid set")
    G = string_element(A, X, seed)
    return StringDescriptor(A, frame, X, seed, G)


def census_records(reps) -> list:
    """JSON-ready census records (exact values as strings)."""
    from .quadfield import qn_to_str
    out = []
    for rep in reps:
        mr = rep.rect
        out.append({
            "sign": mr.sign,
            "origin": {"base": [str(mr.origin.base[0]), str(mr.origin.base[1])],
                       "lattice": list(mr.origin.lattice)},
            "endpoint": {"base": [str(mr.endpoint.base[0]), str(mr.endpoint.base[1])],
                         "lattice": list(mr.endpoint.lattice)},
            "lengths": {"s": qn_to_str(mr.rect.ls), "u": qn_to_str(mr.rect.lu)},
            "witness": {"power": rep.witness[0], "translation": list(rep.witness[1])},
        })
    return out
