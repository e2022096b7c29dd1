"""Periodic staircases: the frozen structure for the cubed golden-mean
geometry, exact verification, periodic extension, containment, and the
trapped game certifying incompleteness."""

import copy
import hashlib
import json
from fractions import Fraction

import pytest

from anosurg import (GameConfig, InvariantError, MarkedSet, QUADRANTS,
                     StairStep, StaircaseError, build_staircase,
                     containment_check, eigenframe, incompleteness_threshold,
                     marked_set, orbit_of, play_game, point, qn_pow,
                     quadrant_view, staircase_records)
from anosurg.rectangles import period_family
from anosurg.staircase import _first_contact

from conftest import (A2, A3, B2, C3, HALF, half_orbit_set, half_points_set,
                      zero_orbit_set)
from oracles import (_QuadrantCoords, index_of_height, oracle_hits,
                     oracle_staircase_levels, pair, staircase_step)


class TestB2Structure:
    def test_frozen_shape(self, b2_staircase):
        st = b2_staircase
        assert st.preperiod == 1 and st.period == 1
        assert (st.g.k, st.g.v) == (-1, (2, -3))
        assert incompleteness_threshold(st) == 2
        lam = st.view.frame.lam
        assert lam < st.constant < lam * lam
        assert pair(st.limit) == (Fraction(0), Fraction(1, 4))

    def test_axis_height_is_exact_limit_height(self, b2_staircase):
        st = b2_staircase
        assert st.axis_height == st.view.u(st.limit) - st.view.u(st.origin)
        for step in st.steps:
            assert step.q_hi < st.axis_height

    def test_verify_passes(self, b2_staircase):
        b2_staircase.verify()

    def test_levels_increase_and_contract(self, b2_staircase):
        st = b2_staircase
        for i in range(len(st.steps) - 1):
            cur, nxt = st.steps[i], st.steps[i + 1]
            assert cur.q_hi == nxt.q_lo          # bands tile the axis
            assert nxt.q_hi > cur.q_hi
            assert nxt.Ls > cur.Ls               # levels extend rightward

    def test_periodic_extension_matches_recurring_element(self, b2_staircase):
        st = b2_staircase
        for i in range(len(st.steps) - st.period):
            ext = staircase_step(st, i + st.period)
            img_o = st.g.act(staircase_step(st, i).delta_origin)
            img_e = st.g.act(staircase_step(st, i).delta_endpoint)
            if i >= st.preperiod:
                assert (ext.delta_origin, ext.delta_endpoint) == (img_o, img_e)
        # beyond the stored range the steps keep tiling the axis
        far = [staircase_step(st, i) for i in range(len(st.steps) + 4)]
        for a, b in zip(far, far[1:]):
            assert a.q_hi == b.q_lo
            assert b.q_hi < st.axis_height

    def test_index_of_height(self, b2_staircase):
        st = b2_staircase
        for i in range(6):
            step = staircase_step(st, i)
            mid = (step.q_lo + step.q_hi) / 2
            assert index_of_height(st, mid) == i
        with pytest.raises(ValueError):
            index_of_height(st, st.axis_height)
        with pytest.raises(ValueError):
            index_of_height(st, st.axis_height - 2 * st.axis_height)

    @staticmethod
    def _with_last_level(st, **changes):
        """A copy of st whose last stored level has the given fields."""
        last = st.steps[-1]
        fields = {k: getattr(last, k) for k in StairStep.__slots__}
        fields.update(changes)
        tampered = copy.copy(st)
        tampered.steps = st.steps[:-1] + (StairStep(**fields),)
        return tampered

    def test_verify_rejects_a_rectangle_that_is_not_primitive(
            self, b2_staircase):
        # moving the endpoint up and right by a lattice vector leaves the
        # old endpoint inside the box
        st = b2_staircase
        view, last = st.view, st.steps[-1]
        v = min(((a, b) for a in range(-3, 4) for b in range(-3, 4)
                 if view.s((a, b)) > 0 and view.u((a, b)) > 0),
                key=lambda ab: view.s(ab) + view.u(ab))
        x, y = pair(last.delta_endpoint)
        e = point(x + v[0], y + v[1])
        s0, u0 = view.s(st.origin), view.u(st.origin)
        tampered = self._with_last_level(
            st, delta_endpoint=e, ds=view.s(e) - view.s(last.delta_origin),
            Ls=view.s(e) - s0, q_hi=view.u(e) - u0)
        with pytest.raises(InvariantError, match="rectangle is not primitive"):
            tampered.verify()

    def test_verify_rejects_a_level_that_meets_the_avoid_set(
            self, b2_staircase):
        # with its own set added to the avoid set, level 0's corners are
        # avoid lifts inside the closed R_0
        st = b2_staircase
        tampered = copy.copy(st)
        tampered.avoid = MarkedSet(st.X.orbits + st.avoid.orbits)
        with pytest.raises(InvariantError, match="level 0 meets the avoid set"):
            tampered.verify()

    def test_verify_rejects_a_wrong_safety_zone(self, b2_staircase):
        st = b2_staircase
        tampered = self._with_last_level(st, safety=st.steps[-1].safety / 2)
        with pytest.raises(InvariantError, match="safety zone mismatch"):
            tampered.verify()

    def test_records(self, b2_staircase):
        recs = staircase_records(b2_staircase)
        assert recs["preperiod"] == 1 and recs["period"] == 1
        assert recs["recurring"] == {"power": -1, "translation": [2, -3]}
        assert recs["limit_point"] == ["0", "1/4"]
        assert len(recs["levels"]) == len(b2_staircase.steps)


class TestContainment:
    def test_threshold_is_sharp(self, b2_staircase):
        st = b2_staircase
        n = incompleteness_threshold(st)
        assert containment_check(st, -n)
        assert containment_check(st, -(n + 1))
        assert containment_check(st, -(3 * n))
        assert not containment_check(st, -(n - 1))
        assert not containment_check(st, n)



class TestTrappedGame:
    def test_undertwisted_game_is_trapped_below_the_axis(self, b2_staircase,
                                                         frame_b2):
        st = b2_staircase
        n = incompleteness_threshold(st)
        X = zero_orbit_set(B2, -n, "X")
        Y = half_orbit_set(B2, 0, "Y")
        cfg = GameConfig(frame_b2, (X, Y), "++")
        t0 = st.steps[0].Ls + st.steps[0].safety / 2
        out = play_game(cfg, point(0, 0), t0, st.axis_height, budget=25)
        assert out.status == "BudgetExhausted"
        assert len(out.trace) == 25
        heights = [c.height for c in out.trace]
        # heights strictly increase but never reach the staircase axis, so
        # the holonomy never gets defined across it (exact comparisons: the
        # differences fall far below float resolution)
        for a, b in zip(heights, heights[1:]):
            assert b > a
        for h in heights:
            assert h < st.axis_height
        bands = [index_of_height(st, h) for h in heights]
        assert all(b2 >= b1 for b1, b2 in zip(bands, bands[1:]))
        assert out.trace[0].lattice == (2, -3)

    def test_untwisted_game_crosses_the_axis(self, b2_staircase, frame_b2):
        st = b2_staircase
        X = zero_orbit_set(B2, 0, "X")
        Y = half_orbit_set(B2, 0, "Y")
        cfg = GameConfig(frame_b2, (X, Y), "++")
        t0 = st.steps[0].Ls + st.steps[0].safety / 2
        out = play_game(cfg, point(0, 0), t0, st.axis_height, budget=25)
        assert out.defined


class TestConstruction:
    def test_b2_staircases_exist_in_all_four_quadrants(self, frame_b2,
                                                       b2_sets):
        X, Y = b2_sets
        for quadrant in QUADRANTS:
            if quadrant == "++":
                continue        # covered by the session fixture
            st = build_staircase(frame_b2, X, Y, point(0, 0), quadrant)
            assert st.preperiod == 1 and st.period == 1
            assert incompleteness_threshold(st) == 2

    def test_c3_staircases_only_in_contracting_quadrants(self, frame_c3):
        X = zero_orbit_set(C3, 0, "X")
        Y = marked_set(C3, [(point(0, HALF), 0)], "Y")
        for quadrant in ("++", "--"):
            st = build_staircase(frame_c3, X, Y, point(0, 0), quadrant)
            assert st.preperiod == 1 and st.period == 1
            assert incompleteness_threshold(st) == 2
        for quadrant in ("+-", "-+"):
            with pytest.raises(StaircaseError):
                build_staircase(frame_c3, X, Y, point(0, 0), quadrant)

    def test_period_candidate_is_certified_before_it_is_accepted(
            self, frame_a2):
        # A^-3 + (-13, 22) carries level 1 onto level 2 but not level 2 onto
        # level 3; the search must reject it and find the period-2 element
        origin = point(Fraction(1, 3), Fraction(2, 3))
        X = marked_set(A2, [(origin, 0)], "X")
        Y = marked_set(A2, [(point(0, Fraction(1, 3)), 0)], "Y")
        st = build_staircase(frame_a2, X, Y, origin, "+-")
        assert (st.preperiod, st.period) == (1, 2)
        assert (st.g.k, st.g.v) == (-2, (3, -4))
        assert all(step.q_hi < st.axis_height for step in st.steps)

    def test_no_staircase_without_avoid_set(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        empty = marked_set(A2, [], "Y")
        with pytest.raises(StaircaseError):
            build_staircase(frame_a2, X, empty, point(0, 0), "++")

    def test_origin_must_be_marked(self, frame_b2, b2_sets):
        X, Y = b2_sets
        with pytest.raises(ValueError):
            build_staircase(frame_b2, X, Y, point(Fraction(1, 3), 0), "++")
        with pytest.raises(ValueError):
            build_staircase(frame_b2, X, Y, point(0, 0), "north")


class TestAEquivariance:
    """A maps the ++ view's quadrant at b onto the one at A b, scaling s by
    lam^-1 and u by lam: the primitive family at A b is the A-image of the
    one at b.  The seed search is not equivariant, because it reads one
    period of base lengths anchored at 1 at every origin."""

    def test_family_is_equivariant_and_the_seed_search_is_not(self, frame_a2):
        X, Y = zero_orbit_set(A2, 0, "X"), half_orbit_set(A2)
        view, lam = quadrant_view(frame_a2, "++"), frame_a2.lam

        def image(p):
            (a, b), (c, d) = A2.rows()
            x, y = pair(p)
            return point(a * x + b * y, c * x + d * y)

        b = point(HALF, HALF)
        at_b = period_family(view, Y, b, 3)
        at_ab = period_family(view, Y, image(b), 3)
        big = at_b.big
        # the common window: base lengths in [1, lam^2) at A b, and in
        # [lam, lam^3) at b
        common = [(mu, rho, image(h.lift)) for mu, rho, h in at_b
                  if mu >= lam]
        assert [(mu * lam, rho / lam, h.lift) for mu, rho, h in at_ab
                if mu * lam < big] == common
        assert [round(float(mu), 3) for mu, _, _ in at_b] == [2.48, 12.985,
                                                              16.997]
        assert [round(float(mu / lam), 3) for mu, _, _ in common] == [4.96,
                                                                       6.492]
        at = build_staircase(frame_a2, Y, X, b, "++")
        seed = at.steps[0]
        assert pair(seed.delta_endpoint) == (3, Fraction(-7, 2))
        assert round(float(seed.ds), 2) == 2.48
        assert incompleteness_threshold(at) == 2
        # the seed's image at A b = (3/2, 1) has base length 0.947, below the
        # period that the seed search reads there
        assert pair(image(b)) == (Fraction(3, 2), 1)
        assert round(float(seed.ds / lam), 3) == 0.947
        moved = build_staircase(frame_a2, Y, X, image(b), "++")
        assert pair(moved.steps[0].delta_endpoint) == (8, Fraction(-19, 2))
        assert round(float(moved.steps[0].ds), 2) == 6.49
        assert incompleteness_threshold(moved) == 3


def small_orbits(A, q_max):
    """One seed point per f_A-orbit of the points with denominators up to
    q_max."""
    seeds, covered = [], set()
    for q in range(1, q_max + 1):
        for x in range(q):
            for y in range(q):
                p = point(Fraction(x, q), Fraction(y, q))
                if p not in covered:
                    seeds.append(p)
                    covered |= set(orbit_of(A, p)[0])
    return seeds


class TestSeedAbsenceIsOrbitWide:
    """A seed's conditions, both corners in the origin's orbit and a closed
    box that misses the other set, are invariant under A and under the lift
    of A^period that fixes the origin.  So a staircase exists at every
    origin of an orbit or at none, and a build at one origin that finds no
    seed speaks for the whole orbit."""

    @pytest.mark.parametrize("A", [A2, C3], ids=["A2", "C3"])
    def test_a_staircase_exists_at_every_origin_or_at_none(self, A):
        frame = eigenframe(A)
        seeds = small_orbits(A, 3)
        outcomes = set()
        for x_seed in seeds:
            X = marked_set(A, [(x_seed, 0)], "X")
            for y_seed in seeds:
                if y_seed == x_seed:
                    continue
                Y = marked_set(A, [(y_seed, 0)], "Y")
                for quadrant in QUADRANTS:
                    found = set()
                    for origin in X.points:
                        try:
                            build_staircase(frame, X, Y, origin, quadrant)
                            found.add(True)
                        except StaircaseError as err:
                            assert "avoids the other set" in str(err)
                            found.add(False)
                    assert len(found) == 1, (x_seed, y_seed, quadrant)
                    outcomes |= found
        assert outcomes == {True, False}


class TestOracleLevels:
    """Every level against the construction's group-algebra chain
    f^-k o g_i o G^(i+1), rebuilt with Fraction group actions."""

    @pytest.mark.parametrize("A", [A2, A3], ids=["A2", "A3"])
    def test_levels_match_the_group_chain(self, A):
        frame = eigenframe(A)
        seeds = small_orbits(A, 3)
        built = 0
        for x_seed in seeds:
            X = marked_set(A, [(x_seed, 0)], "X")
            for y_seed in seeds:
                if y_seed == x_seed:
                    continue
                Y = marked_set(A, [(y_seed, 0)], "Y")
                for quadrant in QUADRANTS:
                    try:
                        st = build_staircase(frame, X, Y, x_seed, quadrant)
                    except StaircaseError:
                        continue
                    built += 1
                    assert [(s.delta_origin, s.delta_endpoint)
                            for s in st.steps] == oracle_staircase_levels(st)
        assert built >= 20


# sha256 of the JSON list of `staircase_records` (or, where no staircase
# exists, the StaircaseError's message) over the sweep below, recorded
# before a level's power and sides were derived from its lifts
SWEEP_SHA256 = \
    "29db0c3db20455b0be600637e1cfb8f27401d0b837f79668e446f9a51f39925b"


class TestSweepRecords:
    def test_sweep_records_are_byte_identical(self):
        # A2, A3 and C3; X and Y one orbit each, seeded at every point with
        # denominator at most 3, Y off X's orbit; X's seed as the origin and
        # every quadrant: 1,232 builds, 952 of them staircases
        records = []
        for A in (A2, A3, C3):
            frame = eigenframe(A)
            seeds = list(dict.fromkeys(
                point(Fraction(x, q), Fraction(y, q))
                for q in (1, 2, 3) for x in range(q) for y in range(q)))
            for x_seed in seeds:
                X = marked_set(A, [(x_seed, 0)], "X")
                for y_seed in seeds:
                    if X.locate(y_seed):
                        continue
                    Y = marked_set(A, [(y_seed, 0)], "Y")
                    for quadrant in QUADRANTS:
                        try:
                            records.append(staircase_records(build_staircase(
                                frame, X, Y, x_seed, quadrant)))
                        except StaircaseError as err:
                            records.append(str(err))
        assert len(records) == 1232
        assert sum(isinstance(r, dict) for r in records) == 952
        assert (hashlib.sha256(json.dumps(records).encode()).hexdigest()
                == SWEEP_SHA256)


class TestFirstContact:
    """The nearest lift in a height band, against the nearest lift that
    oracle_hits finds in the band out to the guaranteed width."""

    @pytest.mark.parametrize("quadrant", QUADRANTS)
    @pytest.mark.parametrize("A, j", [(A2, 2), (B2, 1)], ids=["A2", "B2"])
    def test_matches_the_oracle(self, A, j, quadrant):
        frame = eigenframe(A)
        view = quadrant_view(frame, quadrant)
        coords = _QuadrantCoords(frame, quadrant)
        ws, wu = view.frame.widths
        mset = half_points_set(A)
        # a band lam^j times thinner than W_u, guaranteed a lift within
        # 2 W_s lam^j, and one taller than W_u, guaranteed one within 2 W_s
        for h, power in ((wu / qn_pow(frame.lam, j), j),
                         (wu * Fraction(3, 2), 0)):
            bound = 2 * ws * qn_pow(frame.lam, power)
            for base in mset.points:
                # the anchor is on a lift inside the band, which the open
                # near edge leaves out
                s, u = view.s(base), view.u(base)
                u_lo, u_hi = u - h / 3, u - h / 3 + h
                right = oracle_hits(coords, mset, s, s + bound, u_lo, u_hi,
                                    (False, True, True, True))
                left = oracle_hits(coords, mset, s - bound, s, u_lo, u_hi,
                                   (True, False, True, True))
                assert _first_contact(view, mset, s, +1, u_lo, u_hi) == \
                    min(hit[2] for hit in right) - s
                assert _first_contact(view, mset, s, -1, u_lo, u_hi) == \
                    s - max(hit[2] for hit in left)
