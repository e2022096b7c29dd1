"""Figure dots drawn from the lattice kernel's integers agree, coordinate for
coordinate and in order, with the correctly rounded exact hits."""

import math
from fractions import Fraction

import pytest

from anosurg import (QUADRANTS, FrameView, HyperbolicMatrix, eigenframe,
                     hits_in_box, marked_set, point, quadrant_view)
from anosurg.cli import FIXTURES, load_problem
from anosurg import svgfig
from anosurg.quadfield import rounded_float
from anosurg.svgfig import lift_dots

from oracles import balance_power

PROBLEMS = {name: load_problem(data) for name, data in FIXTURES.items()}


def exact_dots(view, mset, s_lo, s_hi, u_lo, u_hi, s0, u0):
    hits = hits_in_box(view, mset, s_lo, s_hi, u_lo, u_hi)
    return [(float(h.s - s0), float(h.u - u0))
            for h in sorted(hits, key=lambda h: h.s)]


@pytest.mark.parametrize("quadrant", QUADRANTS)
@pytest.mark.parametrize("role", ("X", "Y"))
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_lift_dots_match_exact_hits(name, role, quadrant):
    A, sets, _ = PROBLEMS[name]
    mset = sets[role]
    view = quadrant_view(eigenframe(A), quadrant)
    origin = mset.points[0]
    s0, u0 = view.s(origin), view.u(origin)
    # a figure-sized box around the origin, and a thin one that the kernel
    # first renormalizes by a power of A
    boxes = [(Fraction(-1, 2), Fraction(5), Fraction(-1, 3), Fraction(4)),
             (Fraction(-1, 20), Fraction(1, 20), Fraction(-200),
              Fraction(300))]
    powers = []
    for ds_lo, ds_hi, du_lo, du_hi in boxes:
        powers.append(balance_power(view.frame, ds_hi - ds_lo, du_hi - du_lo))
        box = (s0 + ds_lo, s0 + ds_hi, u0 + du_lo, u0 + du_hi)
        want = exact_dots(view, mset, *box, s0, u0)
        assert len(want) > 1
        assert lift_dots(view, mset, *box, s0, u0) == want
    assert powers[1] != 0


def test_lift_dots_default_origin_is_zero():
    A, sets, _ = PROBLEMS["a2_half"]
    view = quadrant_view(eigenframe(A), "-+")
    box = (Fraction(-3), Fraction(2), Fraction(-2), Fraction(3))
    assert lift_dots(view, sets["X"], *box) == \
        exact_dots(view, sets["X"], *box, 0, 0)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("flip_u", [False, True])
@pytest.mark.parametrize("flip_s", [False, True])
def test_lift_dots_follow_every_view(flip_s, flip_u, transpose):
    # the eight symmetries of the square: a transposed view's s is the
    # frame's u, and its dots must be the hits' too
    A = HyperbolicMatrix(2, 1, 1, 1)
    view = FrameView(eigenframe(A), flip_s, flip_u, transpose)
    X = marked_set(A, [(point(0, 0), 0)], "X")
    box = (Fraction(-2), Fraction(3), Fraction(-1), Fraction(2))
    s0, u0 = Fraction(1, 2), Fraction(-1, 3)
    want = exact_dots(view, X, *box, s0, u0)
    assert len(want) > 1
    assert lift_dots(view, X, *box, s0, u0) == want


def test_dots_whose_s_rounds_alike_keep_the_exact_order(monkeypatch):
    # a monotone but coarse rounding, to the integer below, makes many dots
    # share an s; the exact s must still order them
    monkeypatch.setattr(svgfig, "rounded_float",
                        lambda *v: math.floor(rounded_float(*v)))
    A, sets, _ = PROBLEMS["b2_half"]
    view = quadrant_view(eigenframe(A), "+-")
    box = (Fraction(-6), Fraction(6), Fraction(-8), Fraction(8))
    want = [(math.floor(s), math.floor(u))
            for s, u in exact_dots(view, sets["X"], *box, 0, 0)]
    assert len({s for s, _ in want}) < len(want)
    assert svgfig.lift_dots(view, sets["X"], *box) == want
