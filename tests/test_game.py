"""The holonomy crossing game and the domination threshold: identity and
equivariance properties, monotonicity, the frozen threshold for the
golden-mean geometry, and the grid soundness check."""

import random
from fractions import Fraction

import pytest

from anosurg import (DominationAnalysis, DominationHypothesisError, GameConfig,
                     GameError, HyperbolicMatrix, QuadNum, case_profile,
                     domination_threshold, eigenframe, game_trace_records,
                     marked_set, orbit_of, play_game, point, qn_pow)

from conftest import A2, A3, B2, C3, HALF, half_orbit_set, zero_orbit_set


def a2_config(frame, x_char=0, y_char=0, quadrant="++"):
    X = zero_orbit_set(A2, x_char, "X")
    Y = half_orbit_set(A2, y_char, "Y")
    return GameConfig(frame, (X, Y), quadrant)


def rational_point(rng):
    return (Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(0, 20), 21))


class TestGameBasics:
    def test_zero_twists_act_trivially(self, frame_a2):
        cfg = a2_config(frame_a2)
        rng = random.Random(5)
        for _ in range(50):
            p = rational_point(rng)
            t0 = QuadNum(Fraction(rng.randint(1, 40), 10), 0, 5)
            r = QuadNum(Fraction(rng.randint(1, 30), 10), 0, 5)
            out = play_game(cfg, p, t0, r)
            assert out.defined
            assert out.final_t == t0
            assert all(c.exponent == 0 for c in out.trace)

    def test_renormalization_equivariance(self, frame_a2):
        # replaying from the A-image with (t0, r) scaled by (1/lam, lam)
        # crosses the A-images of the same lifts and scales final t by 1/lam
        lam = frame_a2.lam
        cfg = a2_config(frame_a2, x_char=-2, y_char=1)
        rng = random.Random(7)
        for _ in range(40):
            p = rational_point(rng)
            t0 = QuadNum(Fraction(rng.randint(1, 30), 10), 0, 5)
            r = QuadNum(Fraction(rng.randint(1, 20), 10), 0, 5)
            out = play_game(cfg, p, t0, r)
            img = play_game(cfg, A2.apply_mod1(p), t0 / lam, r * lam)
            assert img.status == out.status
            assert len(img.trace) == len(out.trace)
            for c, ci in zip(out.trace, img.trace):
                assert ci.height == lam * c.height
                assert ci.offset == c.offset / lam
                assert ci.twist == c.twist
            if out.defined:
                assert img.final_t == out.final_t / lam

    def test_translation_invariance(self, frame_a2):
        cfg = a2_config(frame_a2, x_char=2, y_char=1)
        p = (Fraction(1, 3), Fraction(2, 7))
        t0, r = QuadNum(2, 0, 5), QuadNum(1, 0, 5)
        out = play_game(cfg, p, t0, r)
        # the game depends on p only through its class mod Z^2
        same = play_game(cfg, (p[0] + 3, p[1] - 2), t0, r)
        assert same.status == out.status and same.final_t == out.final_t
        assert [(c.height, c.offset) for c in same.trace] == \
            [(c.height, c.offset) for c in out.trace]

    def test_positive_twists_never_shrink_t_in_contracting_quadrant(
            self, frame_a2):
        cfg = a2_config(frame_a2, x_char=2, y_char=1)
        rng = random.Random(11)
        for _ in range(50):
            p = rational_point(rng)
            out = play_game(cfg, p, QuadNum(2, 0, 5), QuadNum(2, 0, 5))
            assert out.defined
            for c in out.trace:
                assert c.exponent <= 0          # lam^{-twist} with twist > 0
                assert c.t_after <= c.t_before

    def test_trace_records(self, frame_a2):
        cfg = a2_config(frame_a2, x_char=1)
        out = play_game(cfg, (Fraction(1, 3), Fraction(1, 5)),
                        QuadNum(2, 0, 5), QuadNum(1, 0, 5))
        recs = game_trace_records(out)
        assert len(recs) == len(out.trace)
        if recs:
            assert {"base", "lattice", "height", "offset"} <= set(recs[0])

    def test_parameter_validation(self, frame_a2):
        cfg = a2_config(frame_a2)
        p = (Fraction(0), Fraction(0))
        with pytest.raises(GameError):
            play_game(cfg, p, QuadNum(0, 0, 5), QuadNum(1, 0, 5))
        with pytest.raises(GameError):
            play_game(cfg, p, QuadNum(1, 0, 5), QuadNum(-1, 0, 5))
        with pytest.raises(GameError):
            play_game(cfg, p, QuadNum(1, 0, 5), QuadNum(1, 0, 5), budget=0)
        with pytest.raises(GameError):
            GameConfig(frame_a2, (zero_orbit_set(A2),), "north")
        with pytest.raises(GameError):
            GameConfig(frame_a2, (zero_orbit_set(A2), zero_orbit_set(A2)),
                       "++")


class TestDomination:
    def test_golden_mean_threshold(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        assert domination_threshold(A2, X, Y, "positive") == 2
        analysis = DominationAnalysis(A2, X, Y, sign="positive",
                                      frame=frame_a2)
        assert analysis.threshold == 2

    def test_equation_holds_at_threshold_and_fails_below(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        analysis = DominationAnalysis(A2, X, Y, sign="positive",
                                      frame=frame_a2)
        n = analysis.threshold
        failed_below = False
        for base in X.points:
            for iv in analysis.intervals(base):
                mid = (iv.mu + iv.nu) / 2
                for t in (mid, iv.mu, iv.nu):
                    if not (0 < t):
                        continue
                    assert analysis.equation_holds(base, t, n)
                    if not analysis.equation_holds(base, t, n - 1):
                        failed_below = True
        assert failed_below

    def test_grid_of_games_is_defined_above_threshold(self, frame_a2):
        # Y carries at least the domination threshold, X is arbitrary:
        # the game must terminate from every start
        lam = frame_a2.lam
        n = 2
        rng = random.Random(2026)
        for i in range(1, 21):
            for j in range(1, 21):
                t0 = QuadNum(1, 0, 5) + (qn_pow(lam, 2) - 1) * \
                    Fraction(i, 21)
                r = (qn_pow(lam, 2)) * Fraction(j, 21)
                x_char = rng.randint(-3 * n, 3 * n)
                cfg = a2_config(frame_a2, x_char=x_char, y_char=n)
                out = play_game(cfg, (Fraction(0), Fraction(0)), t0, r,
                                budget=2000)
                assert out.defined, (i, j, x_char)

    def test_hypothesis_failure_has_witness(self, frame_b2):
        # a primitive rectangle of the (0,0) orbit misses the half orbit,
        # so the domination hypothesis fails with that rectangle as witness
        X = zero_orbit_set(B2, 0, "X")
        Y = half_orbit_set(B2, 0, "Y")
        with pytest.raises(DominationHypothesisError) as exc:
            DominationAnalysis(B2, X, Y, sign="positive", frame=frame_b2)
        assert exc.value.witness is not None

    def test_hypothesis_fails_exactly_when_the_profile_is_disjoint(self):
        # DominationAnalysis(own, other, sign) and the profile boolean
        # "a primitive sign-rectangle of own avoids other" judge the same
        # family, one over a period window and one over the census window
        rng = random.Random(1)

        def torsion_point(d):
            return point(Fraction(rng.randrange(d), d),
                         Fraction(rng.randrange(d), d))

        outcomes = set()
        for _ in range(10):
            A = rng.choice((A2, A3, C3))
            d = rng.choice((2, 3))
            p, q = torsion_point(d), torsion_point(d)
            while q in orbit_of(A, p)[0]:
                q = torsion_point(d)
            X, Y = marked_set(A, [(p, 0)], "X"), marked_set(A, [(q, 0)], "Y")
            frame = eigenframe(A)
            variants = ((X, Y, "positive"), (X, Y, "negative"),
                        (Y, X, "positive"), (Y, X, "negative"))
            raised = []
            for own, other, sign in variants:
                try:
                    DominationAnalysis(A, own, other, sign=sign, frame=frame)
                    raised.append(False)
                except DominationHypothesisError:
                    raised.append(True)
            profile = case_profile(A, X, Y, frame)
            assert tuple(raised) == profile.booleans, (A, p, q)
            outcomes.update(raised)
        assert outcomes == {False, True}

    def test_empty_other_set_rejected(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        empty = marked_set(A2, [], "Y")
        with pytest.raises((DominationHypothesisError, ValueError)):
            DominationAnalysis(A2, X, empty, sign="positive", frame=frame_a2)

    def test_bad_arguments(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        with pytest.raises(ValueError):
            DominationAnalysis(A2, X, Y, sign="sideways", frame=frame_a2)
        with pytest.raises(ValueError):
            DominationAnalysis(A2, X, Y, sign="positive", frame=frame_a2,
                               mode="weird")
