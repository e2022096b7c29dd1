"""Deterministic SVG 1.1 figures for censuses, staircases, and game traces.

All drawing happens in eigen (s, u) coordinates: the stable direction is
horizontal, the unstable one vertical (flipped for screen y).  Exact values
are converted to correctly rounded doubles for display only; numbers are
formatted with a fixed precision and elements are emitted in insertion order,
so identical input produces byte-identical output.

The marked lifts of census and staircase figures come straight from the
scan's integers (`torus.view_lifts`): each coordinate is the lift's
(p, q, d) triple less the origin's, on integers, and
`quadfield.rounded_float` turns it into its double with no QuadNum per
lift.  The dots are drawn in exact increasing view s.  The game figure
converts each exact value of its trace once, with the same
`rounded_float`.  A figure that cannot be drawn, one with too many lifts
or values beyond a double, raises `FigureError`.
"""

from __future__ import annotations

from fractions import Fraction

from .quadfield import QuadNum, _parts, fixed_root, rounded_float
from .torus import FrameView, view_lifts

# The most marked lifts a staircase figure may have to list
MAX_FIGURE_LIFTS = 10**6

# Every figure's canvas size and the margin around its data window, in pixels
WIDTH, HEIGHT, MARGIN = 640, 640, 20


class FigureError(ValueError):
    """A figure that cannot be drawn."""


_STYLE = (
    ".axis{stroke:#999;stroke-width:1;stroke-dasharray:4 3}"
    ".mark-X{fill:#1f4f9f}"
    ".mark-Y{fill:#c03030}"
    ".rect-positive{fill:none;stroke:#2a7a2a;stroke-width:1.2}"
    ".rect-negative{fill:none;stroke:#a05a00;stroke-width:1.2}"
    ".step{fill:#f2f2f2;stroke:#444;stroke-width:1}"
    ".zone{fill:#dce8f7;stroke:#7a9cc8;stroke-width:0.8}"
    ".trace{fill:none;stroke:#7a1fa0;stroke-width:1.5}"
    ".diag{stroke:#555;stroke-width:0.8}"
)


def _fmt(v) -> str:
    return f"{float(v):.4f}"


class Figure:
    """An SVG canvas over a data window in (s, u) coordinates."""

    def __init__(self, s_min, s_max, u_min, u_max):
        self.s_min, self.u_min = float(s_min), float(u_min)
        s_span = max(float(s_max) - self.s_min, 1e-9)
        u_span = max(float(u_max) - self.u_min, 1e-9)
        self._xs = (WIDTH - 2 * MARGIN) / s_span
        self._ys = (HEIGHT - 2 * MARGIN) / u_span
        self._elems: list[str] = []

    def _x(self, s) -> float:
        return MARGIN + (float(s) - self.s_min) * self._xs

    def _y(self, u) -> float:
        return HEIGHT - MARGIN - (float(u) - self.u_min) * self._ys

    def line(self, s0, u0, s1, u1, cls):
        self._elems.append(
            f'<line class="{cls}" x1="{_fmt(self._x(s0))}" y1="{_fmt(self._y(u0))}"'
            f' x2="{_fmt(self._x(s1))}" y2="{_fmt(self._y(u1))}"/>')

    def rect(self, s0, u0, s1, u1, cls):
        x, y = self._x(s0), self._y(u1)
        w = self._x(s1) - self._x(s0)
        h = self._y(u0) - self._y(u1)
        self._elems.append(
            f'<rect class="{cls}" x="{_fmt(x)}" y="{_fmt(y)}"'
            f' width="{_fmt(w)}" height="{_fmt(h)}"/>')

    def dots(self, points, cls, r=3.0):
        """One circle of radius r at each (s, u) of points."""
        head, tail = f'<circle class="{cls}" cx="', f'" r="{_fmt(r)}"/>'
        self._elems.extend(
            f'{head}{_fmt(self._x(s))}" cy="{_fmt(self._y(u))}{tail}'
            for s, u in points)

    def polyline(self, points, cls):
        pts = " ".join(f"{_fmt(self._x(s))},{_fmt(self._y(u))}"
                       for s, u in points)
        self._elems.append(f'<polyline class="{cls}" points="{pts}"/>')

    def render(self) -> str:
        body = "\n".join(self._elems)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f"<style>{_STYLE}</style>\n{body}\n</svg>\n")


def _axes(fig: Figure):
    fig.line(fig.s_min, 0, fig.s_min + 10**9, 0, "axis")
    fig.line(0, fig.u_min, 0, fig.u_min + 10**9, "axis")


def lift_dots(view, mset, s_lo, s_hi, u_lo, u_hi, s0=0, u0=0):
    """(s - s0, u - u0) as doubles for each lift of mset in the view's box,
    in increasing exact s: the lifts of `torus.view_lifts`, whose s and u
    triples, less the origin's (sc, sg, d) and (uc, ug, e), are (sp*d -
    sc*sd + (sq*d - sg*sd)*sqrt(D)) / (sd*d) and the same for u."""
    D, root = view.frame.D, view.frame.root
    (sc, sg, d), (uc, ug, e) = _parts(s0), _parts(u0)
    dots = [(rounded_float(sp * d - sc * sd, sq * d - sg * sd, sd * d, D,
                           root),
             rounded_float(up * e - uc * ud, uq * e - ug * ud, ud * e, D,
                           root), lift)
            for _, lift, _, (sp, sq, sd), (up, uq, ud) in view_lifts(
                view, mset, _parts(s_lo), _parts(s_hi), _parts(u_lo),
                _parts(u_hi))]
    dots.sort()
    if len({dot[0] for dot in dots}) < len(dots):
        # rounding is monotone, so only lifts whose s rounds to one double
        # can be out of order; the exact s orders them all
        dots.sort(key=lambda dot: view.s(dot[2]))
    return [dot[:2] for dot in dots]


def _marks(fig: Figure, view, sets, s_lo, s_hi, u_lo, u_hi, s0=0, u0=0):
    for mset in sets:
        cls = "mark-Y" if mset.role == "Y" else "mark-X"
        fig.dots(lift_dots(view, mset, s_lo, s_hi, u_lo, u_hi, s0, u0), cls)


def census_figure(frame, reps, sets) -> str:
    """All census rectangles overlaid, with the marked lifts they span."""
    if reps:
        s_lo = min(float(r.s0) for r in reps)
        s_hi = max(float(r.s1) for r in reps)
        u_lo = min(float(r.u0) for r in reps)
        u_hi = max(float(r.u1) for r in reps)
    else:
        s_lo = u_lo = -1.0
        s_hi = u_hi = 1.0
    pad_s, pad_u = 0.05 * (s_hi - s_lo) + 0.1, 0.05 * (u_hi - u_lo) + 0.1
    fig = Figure(s_lo - pad_s, s_hi + pad_s, u_lo - pad_u, u_hi + pad_u)
    _axes(fig)
    view = FrameView(frame)
    _marks(fig, view, sets,
           Fraction(s_lo - pad_s), Fraction(s_hi + pad_s),
           Fraction(u_lo - pad_u), Fraction(u_hi + pad_u))
    for mr in reps:
        fig.rect(mr.s0, mr.u0, mr.s1, mr.u1, f"rect-{mr.sign}")
        fig.line(mr.origin.s, mr.origin.u, mr.endpoint.s, mr.endpoint.u, "diag")
    return fig.render()


def staircase_figure(st) -> str:
    """The stored staircase levels, their safety zones, and the marked lifts;
    FigureError when the box would hold more than MAX_FIGURE_LIFTS lifts."""
    view = st.view
    s0, u0 = view.s(st.origin), view.u(st.origin)
    s_hi = max(float(s.Ls + s.safety) for s in st.steps)
    u_hi = float(st.axis_height)
    s_box = (-Fraction(0.05 * s_hi), Fraction(1.05 * s_hi))
    u_box = (-Fraction(0.05 * u_hi), Fraction(1.1 * u_hi))
    # P marked points hold about P*W*H*sqrt(D)/|b| lifts in a W x H box:
    # |b|/sqrt(D) is the (s, u) area of one lattice cell
    count = (len(st.X.points) + len(st.avoid.points)) \
        * (s_box[1] - s_box[0]) * (u_box[1] - u_box[0])
    if count * count * view.frame.D > \
            (MAX_FIGURE_LIFTS * view.frame.matrix.b) ** 2:
        raise FigureError(f"staircase figure: its box would hold more than "
                          f"{MAX_FIGURE_LIFTS} marked lifts")
    fig = Figure(-0.05 * s_hi, 1.05 * s_hi, -0.05 * u_hi, 1.1 * u_hi)
    for s in st.steps:
        fig.rect(s.Ls, s.q_lo, s.Ls + s.safety, s.q_hi, "zone")
        fig.rect(0, s.q_lo, s.Ls, s.q_hi, "step")
        o = (view.s(s.delta_origin) - s0, view.u(s.delta_origin) - u0)
        e = (view.s(s.delta_endpoint) - s0, view.u(s.delta_endpoint) - u0)
        fig.line(o[0], o[1], e[0], e[1], "diag")
    fig.line(-0.05 * s_hi, u_hi, 1.05 * s_hi, u_hi, "axis")
    _marks(fig, view, (st.X, st.avoid), s0 + s_box[0], s0 + s_box[1],
           u0 + u_box[0], u0 + u_box[1], s0, u0)
    return fig.render()


def _doubles(values) -> list:
    """The correctly rounded double of each QuadNum, int or Fraction, the
    QuadNums over one D, with one fixed-point sqrt(D) for them all."""
    D = next((x.D for x in values if isinstance(x, QuadNum)), None)
    root = fixed_root(D) if D else 0
    return [rounded_float(*_parts(x), D, root) for x in values]


def game_figure(outcome, t0, r, y_points=()) -> str:
    """The game's offset-versus-height path with one dot per crossing.  A
    crossing's t_before is t0 or the t_after of the one before it."""
    y_points = set(y_points)
    trace = outcome.trace
    try:
        t0, r, *rest = _doubles([t0, r] + [x for c in trace for x in
                                           (c.t_after, c.height, c.offset)])
    except OverflowError:
        raise FigureError("game figure: an offset or a height of the trace "
                          "is beyond the range of a double") from None
    crossings = [rest[i:i + 3] for i in range(0, len(rest), 3)]
    ts = [t0] + [t_after for t_after, _, _ in crossings]
    hs = [0.0] + [height for _, height, _ in crossings]
    t_hi, h_hi = max(ts + [1.0]), max(hs + [r])
    fig = Figure(-0.05 * t_hi, 1.05 * t_hi, -0.05 * h_hi, 1.05 * h_hi)
    _axes(fig)
    path = [(t0, 0.0)]
    for t_before, (t_after, height, _) in zip(ts, crossings):
        path.append((t_before, height))
        path.append((t_after, height))
    fig.polyline(path, "trace")
    for c, (_, height, offset) in zip(trace, crossings):
        cls = "mark-Y" if c.base in y_points else "mark-X"
        fig.dots([(offset, height)], cls, r=2.5)
    fig.line(-0.05 * t_hi, r, 1.05 * t_hi, r, "axis")
    return fig.render()
