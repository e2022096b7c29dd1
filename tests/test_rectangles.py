"""Primitive marked-rectangle censuses, disjointness profiles and the strip
climber under the primitive-family walk, with frozen counts and brute-force
oracle cross-checks."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from anosurg import (FrameView, HyperbolicMatrix, InvariantError, QUADRANTS,
                     census_records, disjoint_witness, eigenframe,
                     enumerate_primitive, is_primitive,
                     marked_rect, marked_set, point, quadrant_view,
                     rect_meets)
from anosurg import rectangles
from anosurg.classify import Analysis
from anosurg.cli import FIXTURES, load_problem
from anosurg.quadfield import _parts, qn_pow
from anosurg.rectangles import (StripClimber, first_window_hits,
                                period_family, primitive_family)
from anosurg.torus import view_hit

from conftest import (A2, A3, A4, B2, B3, C3, HALF, as_quadnum, half_orbit_set,
                      half_points_set, zero_orbit_set)
from oracles import (_QuadrantCoords, census_keys, family_big, family_hits,
                     oracle_hits, oracle_pareto_frontier,
                     oracle_primitive_census, oracle_window_scans,
                     origin_view_census, pair)
from test_corpus import MATRICES as CORPUS_MATRICES, orbit_seeds

FROZEN_COUNTS = {
    # matrix label: (positive count, negative count) for the (0,0) orbit
    "A2": (A2, 1, 1),
    "A3": (A3, 1, 2),
    "A4": (A4, 1, 3),
    "C3": (C3, 2, 2),
    "B2": (B2, 3, 3),
}

# label: (matrix, seed points of X's orbits).  Past the period-1 (0,0)
# orbits, the representatives' origins run along orbits of periods 3 and 4
# under A2, of a set of two orbits, and of orbits of [[4,5],[-1,-1]] and
# [[5,2],[2,1]], so a census that moved a rectangle to the wrong point of
# its orbit would show.
ORACLE_CENSUSES = {
    **{label: (FROZEN_COUNTS[label][0], [point(0, 0)])
       for label in ("A2", "A3", "A4", "C3")},
    "A2 (1/2,1/2)": (A2, [point(HALF, HALF)]),
    "A2 (1/3,0)": (A2, [point(Fraction(1, 3), 0)]),
    "A2 (0,0) and (1/2,1/2)": (A2, [point(0, 0), point(HALF, HALF)]),
    "[[4,5],[-1,-1]] (1/2,0)": (HyperbolicMatrix(4, 5, -1, -1),
                                [point(HALF, 0)]),
    "[[5,2],[2,1]] (1/4,0)": (HyperbolicMatrix(5, 2, 2, 1),
                              [point(Fraction(1, 4), 0)]),
}


# draws of TestCensusViews by orbit count: one, and two or three
ORBIT_DRAWS = {1: 71, 2: 129}


class TestCensus:
    @pytest.mark.parametrize("label", sorted(FROZEN_COUNTS))
    def test_frozen_counts(self, label):
        A, pos, neg = FROZEN_COUNTS[label]
        X = zero_orbit_set(A)
        frame = eigenframe(A)
        assert len(enumerate_primitive(frame, X, "positive")) == pos
        assert len(enumerate_primitive(frame, X, "negative")) == neg

    @pytest.mark.parametrize("label", sorted(ORACLE_CENSUSES))
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_matches_oracle(self, label, sign):
        A, seeds = ORACLE_CENSUSES[label]
        X = marked_set(A, [(p, 0) for p in seeds], "X")
        frame = eigenframe(A)
        reps = enumerate_primitive(frame, X, sign)
        assert census_keys(reps) == oracle_primitive_census(A, X, sign, frame)

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_equal_lengths_go_by_the_rational_order_of_the_bases(self, sign):
        # A2's orbits of (0, 1/2) and (0, 1/3): representatives of equal
        # lengths at bases of denominators 2 and 3, which the order of the
        # triples (k, X, Y) would put the other way round
        X = marked_set(A2, [(point(0, HALF), 0),
                            (point(0, Fraction(1, 3)), 0)], "X")
        reps = enumerate_primitive(eigenframe(A2), X, sign)
        keys = [(r.ls, r.lu, pair(r.origin.base), pair(r.endpoint.base),
                 r.endpoint.lattice) for r in reps]
        assert keys == sorted(keys)
        assert any(a[:2] == b[:2] and (a[2], a[3]) < (b[2], b[3])
                   and (x.origin.base, x.endpoint.base)
                   > (y.origin.base, y.endpoint.base)
                   for a, b, x, y in zip(keys, keys[1:], reps, reps[1:]))

    def test_all_representatives_primitive_with_normalized_ratio(self):
        for A, _, _ in FROZEN_COUNTS.values():
            X = zero_orbit_set(A)
            frame = eigenframe(A)
            lam2 = frame.lam * frame.lam
            for sign in ("positive", "negative"):
                for rep in enumerate_primitive(frame, X, sign):
                    assert is_primitive(frame, rep, X)
                    ratio = rep.ls / rep.lu
                    assert 1 <= ratio < lam2

    def test_records_shape(self):
        frame = eigenframe(A2)
        recs = census_records(enumerate_primitive(frame, zero_orbit_set(A2),
                                                  "positive"))
        assert len(recs) == 1
        assert recs[0]["sign"] == "positive"
        assert set(recs[0]) == {"sign", "origin", "endpoint", "lengths",
                                "witness"}


def count_window_scans(monkeypatch):
    """The argument tuples of every first_window_hits call that
    primitive_family makes from now on."""
    calls = []
    scan = rectangles.first_window_hits

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(rectangles, "first_window_hits", counted)
    return calls


class TestCensusViews:
    def test_census_records_equal_the_origin_view_census(self):
        # the negative census reads the domination analysis's family, whose
        # members are indexed by the upper-left corner, and normalizes each
        # at its lower-right corner, which may lie in another orbit: its
        # records equal, byte for byte, those of the census indexed by the
        # lower-right corner, on seeded sets of one to three orbits
        rng = random.Random(5)
        seeds = {A: orbit_seeds(A, 4) for A in CORPUS_MATRICES}
        frames = {A: eigenframe(A) for A in CORPUS_MATRICES}
        orbits = Counter()
        for _ in range(200):
            A = rng.choice(CORPUS_MATRICES)
            picked = rng.sample(seeds[A], rng.randrange(1, 4))
            X = marked_set(A, [(p, 0) for p in picked], "X")
            orbits[min(len(picked), 2)] += 1
            for sign in ("positive", "negative"):
                assert (census_records(enumerate_primitive(frames[A], X,
                                                           sign))
                        == census_records(origin_view_census(frames[A], X,
                                                             sign))), \
                    (A, picked, sign)
        assert orbits == ORBIT_DRAWS


class TestPrimitiveFamily:
    @pytest.mark.parametrize("label", ["A2", "A3", "C3"])
    @pytest.mark.parametrize("make_set", [zero_orbit_set, half_points_set])
    def test_matches_oracle_frontier_at_domination_window(self, label,
                                                          make_set):
        # the census oracle covers the ratio window; this covers one period
        # of the family, which the domination analysis and the staircase
        # seed search read, in the unflipped and the u-flipped view, over
        # the walk's (lam^period, lam^2 m^2) window
        A = FROZEN_COUNTS[label][0]
        X = make_set(A)
        frame = eigenframe(A)
        lam, m = frame.lam, max(frame.widths)
        u_cap = lam * lam * m * m
        bigs = {base: (qn_pow(lam, orb.period), orb.period)
                for orb in X.orbits for base in orb.points}
        ss = [frame.s(base) for base in bigs]
        us = [frame.u(base) for base in bigs]
        widest = max(big for big, _ in bigs.values())
        lifts = oracle_hits(frame, X, min(ss), max(ss) + widest,
                            min(us) - u_cap, max(us) + u_cap)
        for base, (big, period) in bigs.items():
            s0, u0 = frame.s(base), frame.u(base)
            for flip in (False, True):
                sign = -1 if flip else 1
                box = [((b, k, s - s0, (u - u0) * sign), s, (u - u0) * sign)
                       for b, k, s, u, _ in lifts
                       if s0 < s <= s0 + big and 0 < (u - u0) * sign <= u_cap]
                want = [key for key in oracle_pareto_frontier(box)
                        if key[2] >= 1]
                got = period_family(FrameView(frame, flip_u=flip), X, base,
                                    period)
                assert family_big(got) == big
                assert ([(h.base, h.lattice, mu, rho)
                         for mu, rho, h in family_hits(got)] == want)

    @pytest.mark.parametrize("quadrant", QUADRANTS)
    def test_period_family_is_the_walk_over_its_window(self, quadrant):
        # one period of the family, base lengths in [1, lam^period), is
        # the members in that window of the walk over (lam^period,
        # lam^2 m^2): at every origin of the fixtures, at the first point
        # of a period-98 orbit, and at the origin of [[4,5],[-1,-1]], whose
        # lattice has its lowest lift over base lengths (0, 1] at base
        # length and height exactly 1, in ++ and in --
        cases = []
        for name in sorted(FIXTURES):
            A, sets, _ = load_problem(dict(FIXTURES[name]))
            cases += [(A, mset, base) for mset in sets.values()
                      for base in mset.points]
        long = marked_set(A2, [(point(Fraction(1, 97), 0), 0)], "X")
        cases.append((A2, long, long.points[0]))
        unit = HyperbolicMatrix(4, 5, -1, -1)
        cases.append((unit, zero_orbit_set(unit), point(0, 0)))
        for A, X, base in cases:
            frame = eigenframe(A)
            view = quadrant_view(frame, quadrant)
            period = X.locate(base)[0].period
            big, m = frame.rung(period)[0], max(frame.widths)
            s0, u0 = view.s(base), view.u(base)
            walk = primitive_family(view, X, _parts(s0), _parts(s0 + big),
                                    _parts(u0),
                                    _parts(u0 + frame.rung(2)[0] * m * m))
            hits = [view_hit(view, lift) for lift in walk]
            want = [(h.base, h.lattice, h.s - s0, h.u - u0)
                    for h in sorted(hits, key=lambda h: h.s)
                    if 1 <= h.s - s0 < big]
            got = [(h.base, h.lattice, mu, rho) for mu, rho, h in
                   family_hits(period_family(view, X, base, period))]
            assert want and got == want, (A.rows(), base)

    @pytest.mark.parametrize("label", ["A2", "A3", "C3"])
    @pytest.mark.parametrize("make_set", [zero_orbit_set, half_points_set])
    def test_walk_scans_each_height_once(self, label, make_set, monkeypatch):
        # the strip only narrows, so a search that finds no survivor resumes
        # above the heights the last window scanned; the climb in the view
        # and the walk along the base in its transposed view each scan a
        # height once
        A = FROZEN_COUNTS[label][0]
        X = make_set(A)
        scans = []
        exact_hits = rectangles.view_lifts

        def scanned(view, mset, s_lo, s_hi, u_lo, u_hi, include):
            D = view.frame.D
            scans.append((view.transpose, as_quadnum(u_lo, D),
                          as_quadnum(u_hi, D)))
            return exact_hits(view, mset, s_lo, s_hi, u_lo, u_hi, include)

        monkeypatch.setattr(rectangles, "view_lifts", scanned)
        for orb in X.orbits:
            for base in orb.points:
                for flip in (False, True):
                    view = FrameView(eigenframe(A), flip_u=flip)
                    scans.clear()
                    assert list(period_family(view, X, base,
                                              orb.period).read())
                    assert {t for t, _, _ in scans} == {False, True}
                    for i, (t, a, b) in enumerate(scans):
                        assert all(b <= lo or hi <= a
                                   for s, lo, hi in scans[:i] if s == t), \
                            (base, flip)

    def test_domination_and_staircase_share_one_walk(self, monkeypatch):
        # the positive domination analysis and the ++ staircase seed search
        # at (0,0) ask the frame for the same family at the same window
        shared = Analysis(A2, zero_orbit_set(A2), half_orbit_set(A2))
        shared.row("X", "positive")
        calls = count_window_scans(monkeypatch)
        shared.row("X", "++", (1, 0, 0))
        assert calls == []

    def test_walk_steps_on_its_windows_surviving_lifts(self, monkeypatch):
        # lifts a window found above the member just taken, left of it,
        # answer the next step without a scan: the census of A2's period-10
        # orbit of (1/5, 0) reads the family at (1/5, 0), climb and walk
        frame = eigenframe(A2)
        X = marked_set(A2, [(point(Fraction(1, 5), 0), 0)], "X")
        calls = count_window_scans(monkeypatch)
        reps = enumerate_primitive(frame, X, "positive")
        family = period_family(FrameView(frame), X, point(Fraction(1, 5), 0),
                               10)
        assert len(family.members) == len(reps) == 20
        assert len(calls) < len(reps)

    def test_walk_stops_when_a_strip_keeps_its_edge_lift(self, monkeypatch):
        # with the strips' open edges closed, each strip holds the lift the
        # previous step ended on; the walk must refuse it, not loop forever
        frame = eigenframe(A2)
        X = zero_orbit_set(A2)
        exact_hits = rectangles.view_lifts

        def closed_hits(view, mset, s_lo, s_hi, u_lo, u_hi, include):
            return exact_hits(view, mset, s_lo, s_hi, u_lo, u_hi,
                              (True, True, True, True))

        monkeypatch.setattr(rectangles, "view_lifts", closed_hits)
        with pytest.raises(InvariantError, match="no progress"):
            list(period_family(FrameView(frame), X, point(0, 0), 1).read())


def zero_and_half_orbits(A):
    """The (0,0) and (1/2,1/2) orbits as one set, as a game of the two
    scans them: under A2 its 4 points fill (1/2)Z^2 mod Z^2, so one scan of
    the one lattice finds lifts of denominators 1 and 2 together."""
    return marked_set(A, [(point(0, 0), 0), (point(HALF, HALF), 0)])


class TestStripClimber:
    @pytest.mark.parametrize("label", ["A2", "C3"])
    @pytest.mark.parametrize("make_set", [zero_orbit_set, half_points_set,
                                          zero_and_half_orbits])
    # flip flips u; flip_s negates the view's s and transpose swaps the
    # frame's s and u, so the lifts' view numerators change sign and place
    @pytest.mark.parametrize("flip, flip_s, transpose", [
        pytest.param(False, False, False, id="False"),
        pytest.param(True, False, False, id="True"),
        pytest.param(False, True, False, id="flip_s"),
        pytest.param(False, False, True, id="transposed"),
        pytest.param(True, True, True, id="transposed-flipped")])
    def test_lowest_matches_the_oracle_through_narrow_and_widen(
            self, label, make_set, flip, flip_s, transpose):
        # seeded runs of narrow and widen moves, each followed by
        # lowest(right):
        # a widen must forget the heights covered over the narrower strip,
        # and a narrow must drop a survivor on the new right edge
        A = FROZEN_COUNTS[label][0]
        X = make_set(A)
        frame = eigenframe(A)
        view = FrameView(frame, flip_s, flip, transpose)
        coords = _QuadrantCoords(frame, ("-" if flip_s else "+")
                                 + ("-" if flip else "+"), transpose)
        rng = random.Random(f"{label} {make_set.__name__} {flip}"
                            + " flip_s" * flip_s + " transposed" * transpose)
        origin = point(HALF, Fraction(1, 3))
        left, lo = view.s(origin), view.u(origin)
        right, hi = left + 3, lo + 8
        strip = StripClimber(view, X, (False, False, False, True),
                             _parts(left), _parts(lo), _parts(hi))
        narrowed = widened = 0
        for move in range(20):
            lifts = oracle_hits(coords, X, left, right, lo, hi,
                                (False, False, False, True))
            low = strip.lowest(_parts(right))
            if not lifts:
                assert low is None, move
            else:
                low = view_hit(view, low)
                base, lattice, _, u, _ = min(lifts, key=lambda h: h[3])
                assert (low.base, low.lattice, low.u) == (base, lattice, u), \
                    move
                lo = u
            if rng.random() < 0.4 and right - left < 6:
                right += (right - left) * rng.choice((Fraction(1, 2), 1, 2))
                widened += 1
                continue
            above = [h for h in lifts if h[3] > lo]
            if above and rng.random() < 0.5:
                # the edge through the next lift up
                right = min(above, key=lambda h: h[3])[2]
            else:
                edge = left if low is None else low.s
                right = edge + (right - edge) * rng.choice(
                    (Fraction(1, 3), Fraction(2, 3)) if low is None else
                    (0, Fraction(1, 3), Fraction(2, 3)))
            narrowed += 1
        assert narrowed and widened


def seeded_strip(rng, view, kind):
    """(left, right, lo, hi) of a seeded strip with edges of one kind: ints,
    Fractions, or QuadNums (the view's s and u at a rational point, with
    irrational width and height)."""
    if kind == "int":
        left, lo = rng.randint(-5, 5), rng.randint(-5, 5)
        return left, left + rng.randint(1, 4), lo, lo + rng.randint(1, 60)
    width = Fraction(rng.randint(1, 30), rng.randint(2, 9))
    height = Fraction(rng.randint(1, 400), rng.randint(2, 9))
    if kind == "Fraction":
        left = Fraction(rng.randint(-40, 40), rng.randint(2, 9))
        lo = Fraction(rng.randint(-40, 40), rng.randint(2, 9))
        return left, left + width, lo, lo + height
    origin = point(Fraction(rng.randint(0, 20), 21),
                   Fraction(rng.randint(0, 20), 21))
    rung = view.frame.rung
    left, lo = view.s(origin), view.u(origin)
    return (left, left + width * rung(rng.randint(-2, 2))[0], lo,
            lo + height * rung(rng.randint(-2, 2))[0])


class TestWindows:
    @pytest.mark.parametrize("kind", ["int", "Fraction", "QuadNum"])
    @pytest.mark.parametrize("flip_s, flip_u, transpose",
                             list(itertools.product((False, True), repeat=3)))
    def test_each_scan_matches_the_oracle_windows(
            self, monkeypatch, kind, flip_s, flip_u, transpose):
        # the search computes its windows on the edges' integers: with
        # covered at lo, straddling a window, on the top of a window past
        # the first, and at or above hi, each scan's (start, top) is the
        # oracle's, and a search returns the lifts and the top of the
        # first window that holds any
        include = (False, False, False, True)
        scans, found = [], {}

        def scan(v, mset, s_lo, s_hi, u_lo, u_hi, inc):
            D = v.frame.D
            assert (v, mset, as_quadnum(s_lo, D), as_quadnum(s_hi, D),
                    inc) == (view, X, left, right, include)
            scans.append((as_quadnum(u_lo, D), as_quadnum(u_hi, D)))
            return found.get(len(scans), [])

        def search(strip):
            lifts, top = first_window_hits(strip)
            return lifts, as_quadnum(top, strip.view.frame.D)

        monkeypatch.setattr(rectangles, "view_lifts", scan)
        rng = random.Random(f"{kind} {flip_s} {flip_u} {transpose}")
        strips = 0
        while strips < 8:
            A = (A2, C3)[strips % 2]
            frame = eigenframe(A)
            view = FrameView(frame, flip_s, flip_u, transpose)
            X = zero_orbit_set(A)
            left, right, lo, hi = seeded_strip(rng, view, kind)
            tops = [top for _, top in oracle_window_scans(frame, left, right,
                                                          lo, hi, lo)]
            if len(tops) < 3:
                continue
            strips += 1
            i, j = rng.randrange(len(tops)), rng.randrange(1, len(tops) - 1)
            for covered in (lo, (([lo] + tops)[i] + tops[i]) / 2, tops[j],
                            hi, hi + 1):
                expected = oracle_window_scans(frame, left, right, lo, hi,
                                               covered)
                strip = StripClimber(view, X, include, _parts(left),
                                     _parts(lo), _parts(hi))
                strip.right, strip.covered = _parts(right), _parts(covered)
                scans.clear()
                found.clear()
                assert search(strip) == ([], hi)
                assert scans == expected
                if expected:
                    n = rng.randrange(len(expected))
                    scans.clear()
                    found[n + 1] = ["lift"]
                    assert search(strip) == (["lift"], expected[n][1])
                    assert scans == expected[:n + 1]


class TestHalfIntegerCovering:
    @pytest.mark.parametrize("label", ["A2", "A3", "A4", "C3"])
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_every_primitive_rectangle_meets_half_points(self, label, sign):
        A = FROZEN_COUNTS[label][0]
        X = zero_orbit_set(A)
        Y = half_points_set(A)
        frame = eigenframe(A)
        reps = enumerate_primitive(frame, X, sign)
        assert reps
        for rep in reps:
            assert rect_meets(frame, rep, Y)


class TestDisjointRectangles:
    @pytest.mark.parametrize("A", [B2, B3], ids=["B2", "B3"])
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_cube_and_square_have_disjoint_rectangles(self, A, sign):
        X = zero_orbit_set(A)
        Y = half_orbit_set(A)
        frame = eigenframe(A)
        reps = enumerate_primitive(frame, X, sign)
        disjoint = [rep for rep in reps
                    if not rect_meets(frame, rep, Y)]
        assert disjoint

    def test_b2_unit_horizontal_rectangle(self):
        frame = eigenframe(B2)
        X = zero_orbit_set(B2)
        Y = half_orbit_set(B2)
        rect = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        assert is_primitive(frame, rect, X)
        assert not rect_meets(frame, rect, Y)


class TestProfiles:
    CASES = {
        # (matrix, expected booleans, case, symmetry)
        "B2": (B2, half_orbit_set(B2), (True, True, True, True), 1),
        "A2": (A2, half_orbit_set(A2), (False, False, True, True), 2),
        "C3": (C3, marked_set(C3, [(point(0, HALF), 0)], "Y"),
               (True, False, True, False), 3),
        "A3": (A3, half_orbit_set(A3), (False, True, True, True), 4),
    }

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_frozen_profiles(self, label):
        A, Y, booleans, case = self.CASES[label]
        prof = Analysis(A, zero_orbit_set(A), Y).profile()
        assert prof["booleans"] == list(booleans)
        assert prof["case"] == case
        assert prof["symmetry"] == "identity"

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_witnesses_certify_the_booleans(self, label):
        A, Y, _, _ = self.CASES[label]
        X = zero_orbit_set(A)
        frame = eigenframe(A)
        prof = Analysis(A, X, Y).profile()
        variants = {"pos_x": (X, Y, "positive"), "neg_x": (X, Y, "negative"),
                    "pos_y": (Y, X, "positive"), "neg_y": (Y, X, "negative")}
        witnesses = {k: rep for k, v in variants.items()
                     if (rep := disjoint_witness(frame, *v)) is not None}
        assert set(witnesses) == \
            {k for k, b in zip(variants, prof["booleans"]) if b}
        for key, rep in witnesses.items():
            sign, own = key.split("_")
            owner = X if own == "x" else Y
            other = Y if own == "x" else X
            assert rep.sign == ("positive" if sign == "pos" else "negative")
            assert is_primitive(frame, rep, owner)
            assert not rect_meets(frame, rep, other)


class TestConstruction:
    def test_marked_rect_requires_marked_lifts(self):
        frame = eigenframe(A2)
        X = zero_orbit_set(A2)
        with pytest.raises(ValueError):
            marked_rect(frame, X, (Fraction(0), Fraction(0)),
                        (HALF, HALF), "positive")

    def test_degenerate_rectangle_rejected(self):
        frame = eigenframe(A2)
        X = zero_orbit_set(A2)
        with pytest.raises(ValueError):
            marked_rect(frame, X, (Fraction(0), Fraction(0)),
                        (Fraction(0), Fraction(0)), "positive")

    def test_bad_sign_rejected(self):
        frame = eigenframe(A2)
        X = zero_orbit_set(A2)
        with pytest.raises(ValueError, match="sign"):
            marked_rect(frame, X, (Fraction(0), Fraction(0)),
                        (Fraction(1), Fraction(0)), "sideways")

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_box_is_read_off_the_diagonal(self, sign):
        frame = eigenframe(B2)
        for rep in enumerate_primitive(frame, zero_orbit_set(B2), sign):
            o, e = rep.origin, rep.endpoint
            assert (rep.u0, rep.u1) == (o.u, e.u)
            assert {rep.s0, rep.s1} == {o.s, e.s} and rep.s0 < rep.s1
            assert (rep.s0 == o.s) == (sign == "positive")
            assert (rep.ls, rep.lu) == (rep.s1 - rep.s0, e.u - o.u)
