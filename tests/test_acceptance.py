"""End-to-end acceptance checks, one per guaranteed behavior:

1. every primitive fixed-point rectangle of the four small matrices contains
   a half-integer point;
2. the cubed and squared geometries admit primitive rectangles disjoint from
   the half-integer orbit, in both signs;
3. the mixed geometry realizes disjointness case 3;
4. the fast box scan and census agree with brute-force oracles;
5. the crossing game is trivial without twists and equivariant under
   renormalization;
6. games above the domination threshold always terminate;
7. verified staircases trap undertwisted games below their axis, for any
   twists on the avoided set;
8. the classifier is coherent across a randomized sweep and its symmetries.
"""

import random
from fractions import Fraction

from anosurg import (DominationAnalysis, FrameView, GameConfig, QuadNum,
                     STATUSES, classify, containment_check, eigenframe,
                     enumerate_primitive, hits_in_box,
                     incompleteness_threshold, is_primitive, marked_rect,
                     marked_set, play_game, point, qn_pow, quadrant_report,
                     rect_meets)

from conftest import (A2, A3, A4, B2, B3, C3, HALF, half_orbit_set,
                      half_points_set, zero_orbit_set)
from oracles import (apply_mod1, census_keys, equation_holds, oracle_hits,
                     oracle_primitive_census)
from test_classify import (FLIP_STATUS, a2_problem, antidiagonal_flip,
                           c3_problem, role_swap)


def test_primitive_rectangles_of_small_matrices_cover_half_points():
    for A in (A2, A3, A4, C3):
        X = zero_orbit_set(A)
        Y = half_points_set(A)
        frame = eigenframe(A)
        for sign in ("positive", "negative"):
            reps = enumerate_primitive(frame, X, sign)
            assert reps, (A.rows(), sign)
            for rep in reps:
                assert rect_meets(frame, rep, Y), \
                    (A.rows(), sign)


def test_iterated_matrices_admit_disjoint_primitive_rectangles():
    for A in (B2, B3):
        X = zero_orbit_set(A)
        Y = half_orbit_set(A)
        frame = eigenframe(A)
        for sign in ("positive", "negative"):
            reps = enumerate_primitive(frame, X, sign)
            assert any(not rect_meets(frame, rep, Y)
                       for rep in reps), (A.rows(), sign)
        # the explicit unit horizontal rectangle is such a witness
        rect = marked_rect(frame, X, (Fraction(0), Fraction(0)),
                           (Fraction(1), Fraction(0)), "positive")
        assert is_primitive(frame, rect, X)
        assert not rect_meets(frame, rect, Y)


def test_mixed_geometry_realizes_case_three():
    from anosurg import Analysis
    X = zero_orbit_set(C3)
    Y = marked_set(C3, [(point(0, HALF), 0)], "Y")
    prof = Analysis(C3, X, Y).profile()
    assert prof["booleans"] == [True, False, True, False]
    assert prof["case"] == 3 and prof["symmetry"] == "identity"


def test_box_scan_and_census_match_brute_force_oracles():
    # censuses for the four small matrices, both signs, and for A2's
    # period-3 (1/2,1/2) orbit alone and with the (0,0) orbit
    cases = [(A, zero_orbit_set(A)) for A in (A2, A3, A4, C3)]
    cases += [(A2, half_orbit_set(A2, 0, "X")),
              (A2, marked_set(A2, [(point(0, 0), 0), (point(HALF, HALF), 0)],
                              "X"))]
    for A, X in cases:
        frame = eigenframe(A)
        for sign in ("positive", "negative"):
            reps = enumerate_primitive(frame, X, sign)
            assert census_keys(reps) == \
                oracle_primitive_census(A, X, sign, frame)
    # 100 random boxes inside [-3, 3]^2 with random boundary inclusion
    frame = eigenframe(A2)
    sets = (zero_orbit_set(A2, 1, "X"), half_orbit_set(A2, -2, "Y"))
    rng = random.Random(1234)
    boxes = 0
    while boxes < 100:
        s = sorted(Fraction(rng.randint(-15, 15), 5) for _ in range(2))
        u = sorted(Fraction(rng.randint(-15, 15), 5) for _ in range(2))
        if s[0] == s[1] or u[0] == u[1]:
            continue
        boxes += 1
        include = tuple(rng.choice([True, False]) for _ in range(4))
        for mset in sets:
            got = sorted(((h.base, h.lattice, h.s, h.u, h.twist)
                          for h in hits_in_box(FrameView(frame), mset, s[0],
                                               s[1], u[0], u[1], include)),
                         key=lambda h: (h[2], h[3]))
            assert got == oracle_hits(frame, mset, s[0], s[1], u[0], u[1],
                                      include)


def test_game_identity_and_renormalization_equivariance():
    frame = eigenframe(A2)
    lam = frame.lam
    zero_cfg = GameConfig(frame, (zero_orbit_set(A2, 0, "X"),
                                  half_orbit_set(A2, 0, "Y")), "++")
    twisted_cfg = GameConfig(frame, (zero_orbit_set(A2, -1, "X"),
                                     half_orbit_set(A2, 1, "Y")), "++")
    rng = random.Random(42)
    for trial in range(200):
        p = (Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(0, 20), 21))
        t0 = QuadNum(Fraction(rng.randint(1, 25), 10), 0, 5)
        r = QuadNum(Fraction(rng.randint(1, 15), 10), 0, 5)
        out = play_game(zero_cfg, p, t0, r)
        assert out.defined and out.final_t == t0
        if trial % 5 == 0:
            # the A-image run sees every height and final offset scaled by
            # the corresponding power of the expansion factor
            base = play_game(twisted_cfg, p, t0, r)
            img = play_game(twisted_cfg, apply_mod1(A2, p), t0 / lam, r * lam)
            assert img.status == base.status
            assert len(img.trace) == len(base.trace)
            for c, ci in zip(base.trace, img.trace):
                assert ci.height == lam * c.height
            if base.defined:
                assert img.final_t == base.final_t / lam


def test_domination_threshold_is_sound_on_a_grid_of_games():
    frame = eigenframe(A2)
    X = zero_orbit_set(A2, 0, "X")
    Y = half_orbit_set(A2, 0, "Y")
    analysis = DominationAnalysis(frame, X, Y, sign="positive")
    n = analysis.threshold
    assert n == 2
    # the threshold inequality holds at n on every interval and fails
    # somewhere at n - 1, so n is least
    failed_below = False
    for base in X.points:
        for iv in analysis.intervals(base):
            mid = (iv.mu + iv.nu) / 2
            assert equation_holds(analysis, base, mid, n)
            failed_below |= not equation_holds(analysis, base, mid, n - 1)
    assert failed_below
    # grid soundness: Y twisted at least n, X twisted arbitrarily in
    # [-3n, 3n]: the game always terminates
    lam = frame.lam
    rng = random.Random(99)
    for i in range(1, 21):
        for j in range(1, 21):
            t0 = QuadNum(1, 0, 5) + (qn_pow(lam, 2) - 1) * Fraction(i, 21)
            r = qn_pow(lam, 2) * Fraction(j, 21)
            x_char = rng.randint(-3 * n, 3 * n)
            cfg = GameConfig(frame, (zero_orbit_set(A2, x_char, "X"),
                                     half_orbit_set(A2, n, "Y")), "++")
            out = play_game(cfg, (Fraction(0), Fraction(0)), t0, r,
                            budget=2000)
            assert out.defined, (i, j, x_char)


def test_staircase_traps_undertwisted_games_for_any_avoid_twists(
        b2_staircase, frame_b2):
    st = b2_staircase
    st.verify()                      # exact conditions on preperiod + 2 periods
    n = incompleteness_threshold(st)
    assert n == 2
    assert containment_check(st, -n)
    assert not containment_check(st, -(n - 1))
    t0 = st.steps[0].Ls + st.steps[0].safety / 2
    X = zero_orbit_set(B2, -n, "X")
    for y_char in range(-n, n + 1):
        Y = half_orbit_set(B2, y_char, "Y")
        cfg = GameConfig(frame_b2, (X, Y), "++")
        out = play_game(cfg, point(0, 0), t0, st.axis_height, budget=25)
        assert out.status == "BudgetExhausted", y_char
        heights = [c.height for c in out.trace]
        assert all(b > a for a, b in zip(heights, heights[1:]))
        assert all(h < st.axis_height for h in heights)


def test_classifier_is_coherent_and_respects_symmetries():
    rng = random.Random(777)
    makers = (a2_problem, c3_problem)
    for trial in range(250):
        prob = makers[trial % 2](rng.randint(-4, 4), rng.randint(-4, 4))
        v = classify(prob)
        assert v.status in STATUSES
        nonzero = [orb.twist for orb in
                   list(prob.X.orbits) + list(prob.Y.orbits)
                   if orb.twist != 0]
        if not nonzero:
            assert v.status == "Suspension"
        elif all(t > 0 for t in nonzero):
            assert v.status == "RCoveredPositive"
        elif all(t < 0 for t in nonzero):
            assert v.status == "RCoveredNegative"
        assert classify(role_swap(prob)).status == v.status
        assert classify(antidiagonal_flip(prob)).status == \
            FLIP_STATUS[v.status]
        if trial % 25 == 0:
            for base in list(prob.X.points) + list(prob.Y.points):
                for quadrant in ("++", "+-"):
                    status, _ = quadrant_report(prob, base, quadrant)
                    assert status in ("CompleteCertified",
                                      "IncompleteCertified", "Unknown")
