"""Primitive marked-rectangle censuses, disjointness profiles, and strings
of rectangles, with frozen counts and a brute-force oracle cross-check."""

from fractions import Fraction

import pytest

from anosurg import (FrameView, build_string, case_profile, census_records,
                     eigenframe, enumerate_primitive, is_primitive,
                     marked_rect, marked_set, point, rect_meets,
                     string_element)
from anosurg.rectangles import period_window, primitive_family

from conftest import (A2, A3, A4, B2, B3, C3, HALF, half_orbit_set,
                      half_points_set, zero_orbit_set)
from oracles import (census_keys, oracle_hits, oracle_pareto_frontier,
                     oracle_primitive_census)

FROZEN_COUNTS = {
    # matrix label: (positive count, negative count) for the (0,0) orbit
    "A2": (A2, 1, 1),
    "A3": (A3, 1, 2),
    "A4": (A4, 1, 3),
    "C3": (C3, 2, 2),
    "B2": (B2, 3, 3),
}


class TestCensus:
    @pytest.mark.parametrize("label", sorted(FROZEN_COUNTS))
    def test_frozen_counts(self, label):
        A, pos, neg = FROZEN_COUNTS[label]
        X = zero_orbit_set(A)
        frame = eigenframe(A)
        assert len(enumerate_primitive(A, X, "positive", frame)) == pos
        assert len(enumerate_primitive(A, X, "negative", frame)) == neg

    @pytest.mark.parametrize("label", ["A2", "A3", "A4", "C3"])
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_matches_oracle(self, label, sign):
        A = FROZEN_COUNTS[label][0]
        X = zero_orbit_set(A)
        frame = eigenframe(A)
        reps = enumerate_primitive(A, X, sign, frame)
        assert census_keys(reps) == oracle_primitive_census(A, X, sign, frame)

    def test_all_representatives_primitive_with_normalized_ratio(self):
        for A, _, _ in FROZEN_COUNTS.values():
            X = zero_orbit_set(A)
            frame = eigenframe(A)
            lam2 = frame.lam * frame.lam
            for sign in ("positive", "negative"):
                for rep in enumerate_primitive(A, X, sign, frame):
                    assert is_primitive(frame, rep.rect, X)
                    ratio = rep.rect.rect.ls / rep.rect.rect.lu
                    assert 1 <= ratio < lam2

    def test_records_shape(self):
        frame = eigenframe(A2)
        recs = census_records(enumerate_primitive(A2, zero_orbit_set(A2),
                                                  "positive", frame))
        assert len(recs) == 1
        assert recs[0]["sign"] == "positive"
        assert set(recs[0]) == {"sign", "origin", "endpoint", "lengths",
                                "witness"}


class TestPrimitiveFamily:
    @pytest.mark.parametrize("label", ["A2", "A3", "C3"])
    @pytest.mark.parametrize("make_set", [zero_orbit_set, half_points_set])
    def test_matches_oracle_frontier_at_domination_window(self, label,
                                                          make_set):
        # the census oracle covers the ratio window; this covers the
        # (lam^period, lam^2 m^2) window of the domination analysis and the
        # staircase seed search, in the unflipped and the u-flipped view
        A = FROZEN_COUNTS[label][0]
        X = make_set(A)
        frame = eigenframe(A)
        windows = {base: period_window(FrameView(frame), orb.period)
                   for orb in X.orbits for base in orb.points}
        ss = [frame.s(base) for base in windows]
        us = [frame.u(base) for base in windows]
        widest = max(w[0] for w in windows.values())
        tallest = max(w[1] for w in windows.values())
        lifts = oracle_hits(frame, X, min(ss), max(ss) + widest,
                            min(us) - tallest, max(us) + tallest)
        for base, (big, u_cap) in windows.items():
            s0, u0 = frame.s(base), frame.u(base)
            for flip in (False, True):
                sign = -1 if flip else 1
                box = [((b, k), s, (u - u0) * sign) for b, k, s, u, _ in lifts
                       if s0 < s <= s0 + big and 0 < (u - u0) * sign <= u_cap]
                family = primitive_family(FrameView(frame, flip_u=flip),
                                          X, base, big, u_cap)
                assert ([(h.base, h.lattice) for h in family]
                        == oracle_pareto_frontier(box))


class TestHalfIntegerCovering:
    @pytest.mark.parametrize("label", ["A2", "A3", "A4", "C3"])
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_every_primitive_rectangle_meets_half_points(self, label, sign):
        A = FROZEN_COUNTS[label][0]
        X = zero_orbit_set(A)
        Y = half_points_set(A)
        frame = eigenframe(A)
        reps = enumerate_primitive(A, X, sign, frame)
        assert reps
        for rep in reps:
            assert rect_meets(frame, rep.rect.rect, Y, "closed")


class TestDisjointRectangles:
    @pytest.mark.parametrize("A", [B2, B3], ids=["B2", "B3"])
    @pytest.mark.parametrize("sign", ["positive", "negative"])
    def test_cube_and_square_have_disjoint_rectangles(self, A, sign):
        X = zero_orbit_set(A)
        Y = half_orbit_set(A)
        frame = eigenframe(A)
        reps = enumerate_primitive(A, X, sign, frame)
        disjoint = [rep for rep in reps
                    if not rect_meets(frame, rep.rect.rect, Y, "closed")]
        assert disjoint

    def test_b2_unit_horizontal_rectangle(self):
        frame = eigenframe(B2)
        X = zero_orbit_set(B2)
        Y = half_orbit_set(B2)
        rect = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        assert is_primitive(frame, rect, X)
        assert not rect_meets(frame, rect.rect, Y, "closed")


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
        prof = case_profile(A, zero_orbit_set(A), Y, eigenframe(A))
        assert prof.booleans == booleans
        assert prof.case == case
        assert prof.symmetry == "identity"

    @pytest.mark.parametrize("label", sorted(CASES))
    def test_witnesses_certify_the_booleans(self, label):
        A, Y, _, _ = self.CASES[label]
        X = zero_orbit_set(A)
        frame = eigenframe(A)
        prof = case_profile(A, X, Y, frame)
        assert set(prof.witnesses) == \
            {k for k, b in zip(("pos_x", "neg_x", "pos_y", "neg_y"),
                               prof.booleans) if b}
        for key, rep in prof.witnesses.items():
            sign, own = key.split("_")
            owner = X if own == "x" else Y
            other = Y if own == "x" else X
            assert rep.rect.sign == ("positive" if sign == "pos"
                                     else "negative")
            assert is_primitive(frame, rep.rect, owner)
            assert not rect_meets(frame, rep.rect.rect, other, "closed")


class TestStrings:
    def test_b2_string_iterates_disjoint_primitive_rectangles(self):
        frame = eigenframe(B2)
        X = zero_orbit_set(B2)
        Y = half_orbit_set(B2)
        seed = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        string = build_string(B2, X, seed, Y, frame)
        assert string.G.apply(seed.origin.lift) == seed.endpoint.lift
        prev = None
        for i in range(5):
            delta = string.delta(i)
            assert is_primitive(frame, delta, X)
            assert not rect_meets(frame, delta.rect, Y, "closed")
            if prev is not None:
                # consecutive rectangles chain corner to corner
                assert (delta.origin.s, delta.origin.u) == \
                    (prev.endpoint.s, prev.endpoint.u)
            prev = delta

    def test_seed_meeting_avoid_rejected(self):
        frame = eigenframe(A2)
        X = zero_orbit_set(A2)
        Y = half_orbit_set(A2)
        seed = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        with pytest.raises(ValueError):
            build_string(A2, X, seed, Y, frame)

    def test_string_element_same_orbit_requirement(self):
        frame = eigenframe(B2)
        X = zero_orbit_set(B2)
        seed = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        g = string_element(B2, X, seed)
        assert g.k == 0 and g.v == (1, 0)


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
