"""The holonomy crossing game and the domination threshold: identity and
equivariance properties, monotonicity, the frozen threshold for the
golden-mean geometry, and the grid soundness check."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from anosurg import (DominationAnalysis, DominationHypothesisError,
                     FrameView, GameConfig, GameError, InvariantError,
                     QuadNum, QUADRANTS, disjoint_witness, eigenframe,
                     game_trace_records, hits_in_box, marked_set, orbit_of,
                     play_game, point, qn_pow, quadrant_direction,
                     quadrant_view)

from anosurg import game, rectangles, torus
from anosurg.cli import FIXTURES, load_problem
from anosurg.rectangles import period_family
from anosurg.torus import view_hit

from conftest import (A2, A3, B2, C3, HALF, as_quadnum, half_orbit_set,
                      half_points_set, zero_orbit_set)
from oracles import (OracleQuad, apply_mod1, equation_holds, oracle_game,
                     pair)


def a2_config(frame, x_char=0, y_char=0, quadrant="++"):
    X = zero_orbit_set(A2, x_char, "X")
    Y = half_orbit_set(A2, y_char, "Y")
    return GameConfig(frame, (X, Y), quadrant)


def rational_point(rng):
    return (Fraction(rng.randint(0, 20), 21), Fraction(rng.randint(0, 20), 21))


def seeded_games(frame_a2):
    """(config, p, t0, r) of 48 seeded games on two geometries in every
    quadrant: Y is twisted to contract, which keeps the strips narrow enough
    for the oracle, and X either way, so that some crossings widen the
    strip."""
    frames = {A2: frame_a2, A3: eigenframe(A3)}
    rng = random.Random(2)
    for k in range(48):
        A = (A2, A3)[k % 2]
        quadrant = QUADRANTS[k // 2 % 4]
        y_char = 3 if quadrant_direction(quadrant) < 0 else -3
        X = zero_orbit_set(A, rng.randint(-3, 3), "X")
        Y = (half_orbit_set(A, y_char) if A == A2
             else half_points_set(A, y_char))
        p = rational_point(rng)
        D = frames[A].D
        t0 = QuadNum(Fraction(rng.randint(1, 30), 10), 0, D)
        r = QuadNum(Fraction(rng.randint(1, 30), 10), 0, D)
        yield GameConfig(frames[A], (X, Y), quadrant), p, t0, r


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
            img = play_game(cfg, apply_mod1(A2, p), t0 / lam, r * lam)
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

    def test_long_game_heights_convert_to_floats_exactly(self):
        # the b2 fixture's game: its crossing heights stay below r = 20 while
        # their coefficients grow to about a thousand bits that cancel
        A, sets, _ = load_problem(FIXTURES["b2_half"])
        frame = eigenframe(A)
        cfg = GameConfig(frame, (sets["X"], sets["Y"]), "++")
        out = play_game(cfg, point(0, 0), QuadNum(1, 0, frame.D),
                        QuadNum(20, 0, frame.D), budget=160)
        assert len(out.trace) == 160
        for c in out.trace:
            exact = OracleQuad(c.height.a, c.height.b, c.height.D)
            truncated = Fraction((exact * 2 ** 64).floor(), 2 ** 64)
            assert abs(Fraction(float(c.height)) - truncated) < 2 ** -50
            assert 0 < float(c.height) < 20

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

    def test_game_stops_when_a_strip_keeps_its_crossing(self, frame_a2,
                                                       monkeypatch):
        # with the strips' open lower edge closed, a search that starts at
        # the height just crossed finds that lift again; the game must
        # refuse it, not cross it until the budget runs out.  Searches
        # start at the crossing height after a widening crossing, and here
        # every Y crossing widens the strip
        cfg = a2_config(frame_a2, 1, -2)
        p = (Fraction(0), Fraction(0))
        t0, r = QuadNum(1, 0, 5), QuadNum(2, 0, 5)
        out = play_game(cfg, p, t0, r, budget=50)
        assert any(c.exponent > 0 for c in out.trace)
        exact_hits = rectangles.view_lifts

        def closed_below(view, mset, s_lo, s_hi, u_lo, u_hi, include):
            return exact_hits(view, mset, s_lo, s_hi, u_lo, u_hi,
                              include[:2] + (True,) + include[3:])

        monkeypatch.setattr(rectangles, "view_lifts", closed_below)
        with pytest.raises(InvariantError, match="no progress"):
            play_game(cfg, p, t0, r, budget=50)

    def test_game_matches_the_oracle_game(self, frame_a2):
        widened = set()
        for k, (cfg, p, t0, r) in enumerate(seeded_games(frame_a2)):
            out = play_game(cfg, p, t0, r, budget=40)
            status, final_t, trace = oracle_game(cfg, p, t0, r, 40)
            assert (out.status, out.final_t) == (status, final_t), k
            assert [(c.base, c.lattice, c.height, c.offset, c.exponent,
                     c.t_after) for c in out.trace] == trace, k
            # each crossing starts from the length the last one left
            ts = [t0] + [c.t_after for c in out.trace]
            assert [c.t_before for c in out.trace] == ts[:-1], k
            assert all(c.twist == view_hit(c.view, c.lift).twist
                       for c in out.trace), k
            if any(c.exponent > 0 for c in out.trace):
                widened.add(cfg.quadrant)
        assert widened == set(QUADRANTS)

    def test_each_edge_update_matches_the_field_operations(self, frame_a2):
        # the game updates the strip's right edge on integers; each
        # crossing's edges, widening ones included, are those of the
        # QuadNum operators, and final_t is the last edge less s0
        widened = set()
        for k, (cfg, p, t0, r) in enumerate(seeded_games(frame_a2)):
            out = play_game(cfg, p, t0, r, budget=40)
            rung, D = cfg.frame.rung, cfg.frame.D
            s0 = quadrant_view(cfg.frame, cfg.quadrant).s(point(*p))
            right = s0 + t0
            for c in out.trace:
                s = view_hit(c.view, c.lift).s
                assert as_quadnum(c.edges[0], D) == right, k
                right = s + rung(c.exponent)[0] * (right - s)
                assert as_quadnum(c.edges[1], D) == right, k
                assert all(type(x) is int for x in c.edges[1]), k
                if c.exponent > 0:
                    widened.add(cfg.quadrant)
            if out.defined:
                assert out.final_t == right - s0, k
        assert widened == set(QUADRANTS)

    def test_no_height_is_scanned_twice_until_the_strip_widens(
            self, frame_a2, monkeypatch):
        # while crossings only narrow the strip, a search resumes above the
        # heights the last window scanned; after a widening crossing it
        # starts again at the crossing height
        events = []
        exact_hits, crossing = rectangles.view_lifts, game.Crossing

        def scanned(view, mset, s_lo, s_hi, u_lo, u_hi, include):
            D = view.frame.D
            events.append(("scan", as_quadnum(u_lo, D), as_quadnum(u_hi, D)))
            return exact_hits(view, mset, s_lo, s_hi, u_lo, u_hi, include)

        def crossed(*args):
            c = crossing(*args)
            events.append(("cross", view_hit(c.view, c.lift).u,
                           c.exponent))
            return c

        monkeypatch.setattr(rectangles, "view_lifts", scanned)
        monkeypatch.setattr(game, "Crossing", crossed)
        resumed = restarted = 0
        for k, (cfg, p, t0, r) in enumerate(seeded_games(frame_a2)):
            events.clear()
            play_game(cfg, p, t0, r, budget=40)
            seen = []           # heights scanned since the strip last widened
            after = None        # the crossing just before this scan, if any
            for kind, a, b in events:
                if kind == "cross":
                    if b > 0:
                        seen = []
                    after = (a, b)
                    continue
                assert all(b <= lo or hi <= a for lo, hi in seen), k
                seen.append((a, b))
                if after is not None:
                    u, e = after
                    resumed += e <= 0 and a > u
                    restarted += e > 0 and a == u
                    after = None
        assert resumed and restarted

    def test_one_scan_covers_every_marked_set(self, frame_a2, monkeypatch):
        # the game_grid set-up, from a start off the X orbit: each window
        # scans X and Y at once, and the lifts a window found answer later
        # steps until a crossing widens the strip
        X, Y = zero_orbit_set(A2, -3, "X"), half_orbit_set(A2, 2, "Y")
        cfg = GameConfig(frame_a2, (X, Y), "++")
        lam2 = qn_pow(frame_a2.lam, 2)
        t0 = 1 + (lam2 - 1) * Fraction(1, 21)
        scanned = []
        exact_hits = rectangles.view_lifts

        def counted(view, mset, *args):
            scanned.append(mset.orbits)
            return exact_hits(view, mset, *args)

        monkeypatch.setattr(rectangles, "view_lifts", counted)
        out = play_game(cfg, (Fraction(3, 7), Fraction(1, 7)), t0, lam2)
        assert all(set(X.orbits + Y.orbits) <= set(orbits)
                   for orbits in scanned)
        assert len(scanned) < len({c.height for c in out.trace})


class TestLazyCrossings:
    """A crossing keeps its lift and edges as integers, and a game builds
    no hit of the lifts it crosses."""

    def test_a_game_builds_no_hit(self, frame_a2, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return view_hit(*args)

        for module in (torus, rectangles):
            monkeypatch.setattr(module, "view_hit", counted)
        outcomes = [play_game(cfg, p, t0, r, budget=40)
                    for cfg, p, t0, r in seeded_games(frame_a2)]
        assert len(outcomes) == 48 and built == []
        crossing = next(c for out in outcomes for c in out.trace)
        hit = view_hit(crossing.view, crossing.lift)
        assert (hit.base, hit.lattice, hit.twist) == (
            crossing.base, crossing.lattice, crossing.twist)


class TestPerGameConstants:
    """What a game reads and does not rebuild: the union of its sets is
    built once, by its GameConfig, and the lattice widths and powers of
    lam are read off the frame."""

    def test_a_game_builds_no_marked_set(self, frame_a2, monkeypatch):
        built = []
        init = torus.MarkedSet.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(torus.MarkedSet, "__init__", counted)
        X, Y = zero_orbit_set(A2, 1, "X"), half_orbit_set(A2, 2, "Y")
        cfg = GameConfig(frame_a2, (X, Y), "++")
        assert len(built) == 3      # X, Y and their union
        assert cfg.marked.orbits == X.orbits + Y.orbits
        out = play_game(cfg, (Fraction(0), Fraction(0)), QuadNum(1, 0, 5),
                        QuadNum(7, 0, 5))
        assert out.defined and out.trace and len(built) == 3

    @pytest.mark.parametrize("A", [A2, A3, B2, C3])
    def test_lattice_widths_in_every_view(self, A):
        frame = eigenframe(A)
        for quadrant in QUADRANTS:
            view = quadrant_view(frame, quadrant)
            assert view.frame.widths == (
                abs(view.s((1, 0))) + abs(view.s((0, 1))),
                abs(view.u((1, 0))) + abs(view.u((0, 1))))

    def test_overlapping_sets_rejected(self, frame_a2):
        # the same orbit in two sets, with the same or another
        # characteristic number, and one orbit shared by a larger set
        zero, half = point(0, 0), point(HALF, HALF)
        overlaps = [(zero_orbit_set(A2, 1), zero_orbit_set(A2, 1)),
                    (zero_orbit_set(A2, 1), zero_orbit_set(A2, -2)),
                    (half_orbit_set(A2),
                     marked_set(A2, [(zero, 1), (half, 2)], "Y"))]
        for sets in overlaps:
            with pytest.raises(GameError, match="overlap"):
                GameConfig(frame_a2, sets, "++")
        GameConfig(frame_a2, (zero_orbit_set(A2), half_orbit_set(A2)), "++")


class TestDomination:
    def test_golden_mean_threshold(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        analysis = DominationAnalysis(frame_a2, X, Y, sign="positive")
        assert analysis.threshold == 2
        assert analysis.threshold_at(point(0, 0)) == 2

    def test_equation_holds_at_threshold_and_fails_below(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        analysis = DominationAnalysis(frame_a2, X, Y, sign="positive")
        n = analysis.threshold
        failed_below = False
        for base in X.points:
            for iv in analysis.intervals(base):
                mid = (iv.mu + iv.nu) / 2
                for t in (mid, iv.mu, iv.nu):
                    if not (0 < t):
                        continue
                    assert equation_holds(analysis, base, t, n)
                    if not equation_holds(analysis, base, t, n - 1):
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
            DominationAnalysis(frame_b2, X, Y, sign="positive")
        assert exc.value.witness is not None

    def test_hypothesis_witness_keeps_its_base_and_lift(self):
        # the witness is the first member, by base length, of the first
        # origin's period family whose closed box misses the other set
        third, long = Fraction(1, 97), point(Fraction(1, 97), 0)
        cases = [(B2, point(0, 0), point(HALF, HALF), "positive", (2, -3)),
                 (B2, point(0, 0), point(HALF, HALF), "negative", (1, -2)),
                 (A2, long, point(0, 0), "positive",
                  (228 * third, -367 * third)),
                 (A2, long, point(0, 0), "negative",
                  (130 * third, -209 * third))]
        for A, x, y, sign, lift in cases:
            X = marked_set(A, [(x, 0)], "X")
            Y = marked_set(A, [(y, 0)], "Y")
            with pytest.raises(DominationHypothesisError) as exc:
                DominationAnalysis(eigenframe(A), X, Y, sign=sign)
            base, corner = exc.value.witness
            assert (base, pair(corner.lift)) == (x, lift), (A, x, sign)

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
                    DominationAnalysis(frame, own, other, sign=sign)
                    raised.append(False)
                except DominationHypothesisError:
                    raised.append(True)
            disjoint = [disjoint_witness(frame, own, other, sign) is not None
                        for own, other, sign in variants]
            assert raised == disjoint, (A, p, q)
            outcomes.update(raised)
        assert outcomes == {False, True}

    def test_empty_other_set_rejected(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        empty = marked_set(A2, [], "Y")
        with pytest.raises((DominationHypothesisError, ValueError)):
            DominationAnalysis(frame_a2, X, empty, sign="positive")

    def test_bad_arguments(self, frame_a2):
        X = zero_orbit_set(A2, 0, "X")
        Y = half_orbit_set(A2, 0, "Y")
        with pytest.raises(ValueError):
            DominationAnalysis(frame_a2, X, Y, sign="sideways")


def origin_misses(view, own, other, base, period):
    """Whether some member of the period family at base misses the other
    set: the domination hypothesis fails at that origin."""
    s0, u0 = view.s(base), view.u(base)
    return any(not hits_in_box(view, other, s0, h.s, u0, h.u)
               for _, _, h in period_family(view, own, base, period))


_RECORD = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_spec = importlib.util.spec_from_file_location("record", _RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


class TestFailingAnalysisScaling:
    """The work of a failing domination analysis, counted without a clock:
    on bench/record.py's long-orbit problems it reads one member of one
    period family, whatever the period."""

    @pytest.mark.parametrize("sign", ["positive", "negative"])
    @pytest.mark.parametrize("q, period", [(97, 98), (175, 200), (254, 384),
                                           (4001, 1000), (2003, 2004)])
    def test_a_failing_analysis_reads_one_member(self, q, period, sign):
        A, sets, _ = load_problem(record.long_orbit(q))
        X, Y = sets["X"], sets["Y"]
        (orb,) = X.orbits
        assert orb.period == period
        frame = eigenframe(A)
        with pytest.raises(DominationHypothesisError):
            DominationAnalysis(frame, X, Y, sign=sign)
        key = (False, sign == "negative", X, orb.points[0], period)
        assert list(frame.families) == [key]
        assert len(frame.families[key].members) == 1


def per_origin_threshold(analysis, base):
    """The domination threshold of one origin, from its own intervals."""
    return max(1, max(iv.least_n for iv in analysis.intervals(base)))


class TestOneOriginPerOrbit:
    """The family at A b is the A-image of the family at b, the other set
    is A-invariant, and an interval's least n does not change when its
    lengths are scaled: so the domination hypothesis and threshold are the
    same at every origin of an orbit, and one origin decides for it."""

    def test_thresholds_and_failures_are_the_same_along_each_orbit(self):
        # the coherence sweep's geometries, plus seeded torsion points of
        # denominators 3 to 5 in other orbits, every ordered pair of
        # distinct orbits and both signs
        rng = random.Random(26)
        outcomes = []
        for A, seeds in ((A2, [point(0, 0), point(HALF, HALF)]),
                         (C3, [point(0, 0), point(0, HALF)])):
            frame = eigenframe(A)
            while len(seeds) < 5:
                d = rng.choice((3, 4, 5))
                p = point(Fraction(rng.randrange(d), d),
                          Fraction(rng.randrange(d), d))
                if all(p not in orbit_of(A, q)[0] for q in seeds):
                    seeds.append(p)
            for p in seeds:
                X = marked_set(A, [(p, 0)], "X")
                period = X.orbits[0].period
                for q in seeds:
                    if q == p:
                        continue
                    Y = marked_set(A, [(q, 0)], "Y")
                    for sign in ("positive", "negative"):
                        view = FrameView(frame, flip_u=(sign == "negative"))
                        misses = {origin_misses(view, X, Y, b, period)
                                  for b in X.points}
                        assert len(misses) == 1, (A, p, q, sign)
                        try:
                            analysis = DominationAnalysis(frame, X, Y, sign)
                        except DominationHypothesisError:
                            assert misses == {True}
                            outcomes.append((period, None))
                            continue
                        assert misses == {False}
                        for b in X.points:
                            assert (per_origin_threshold(analysis, b)
                                    == analysis.threshold_at(b)
                                    == analysis.threshold), (A, p, q, sign)
                        outcomes.append((period, analysis.threshold))
        # 26 analyses hold, at orbits of periods up to 3, and 54 fail, at
        # orbits of periods up to 10
        assert len(outcomes) == 80
        assert sum(n is not None for _, n in outcomes) == 26
        assert max(period for period, n in outcomes if n) == 3
        assert max(period for period, n in outcomes if n is None) == 10

    def test_long_pair_has_one_threshold_at_all_twenty_origins(self,
                                                               frame_a2):
        X = marked_set(A2, [(point(Fraction(1, 41), 0), 0)], "X")
        Y = marked_set(A2, [(point(Fraction(2, 43), Fraction(1, 43)), 0)],
                       "Y")
        assert (X.orbits[0].period, Y.orbits[0].period) == (20, 44)
        analysis = DominationAnalysis(frame_a2, X, Y, "positive")
        assert analysis.threshold == 18
        assert [per_origin_threshold(analysis, b) for b in X.points] == \
            [18] * 20
