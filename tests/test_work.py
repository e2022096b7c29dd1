"""Work digests: the exact log of the box scans that a fixed workload
makes, kept as one SHA-256.  Every verdict and output byte can stay the
same while a change scans other boxes, more boxes or the same boxes in
another order; the digest tells.  A change that means to change the log
re-records the digest and says why.  The number of QuadNums that the
workload's games and censuses build, and the games' records and figures,
is kept the same way, so field work a game step or a family walk does not
need shows without a clock."""

import hashlib
import json
import sys

import pytest

from anosurg import (Analysis, GameConfig, QuadNum, SurgeryProblem, classify,
                     disjoint_witness, eigenframe, enumerate_primitive,
                     game_trace_records, play_game, point, quadfield,
                     qn_to_str, rectangles, svgfig, torus)
from anosurg.cli import FIXTURES, load_problem, main

from conftest import A2, as_quadnum
from test_game import seeded_games

# the number of scans and the digest of their log, re-recorded when the
# negative census began to walk the u-flipped family that the negative
# domination analysis walks: it scans that view's boxes, as many as the
# s-flipped walk did
SCANS, SCAN_LOG_SHA256 = (
    425, "3059c62a8ae11aa61bd1213431b95f0dff19252b56bfeac1510437a021d41475")
# the box scans of one in-process `profile` of each fixture
PROFILE_SCANS = {"a2_half": 16, "b2_half": 26, "case3": 16}
# the signs of each fixture whose domination row holds
DOMINATED_SIGNS = {"a2_half": 2, "b2_half": 0, "case3": 2}
# the QuadNums that the workload's games and censuses build, re-recorded
# when the power ladder came to build a far rung from its two halves, and
# to start from rungs 1 and -1 as lam and lam^-1 themselves, not as rung 0
# times lam: it builds fewer rungs (games 227 before, censuses 260; games
# 1,494 and censuses 307 before the strip climber and the game came to
# carry their state as integer triples).  The censuses' count was
# re-recorded (254 before) when the family walk came to carry its members
# as triples: it builds no hit per member, and a ratio's logarithm divides
# no QuadNum, so what is left is the representatives' MarkedRects and
# their sort keys, the frames and the rungs
GAME_QUADNUMS = 216
CENSUS_QUADNUMS = 80
# the QuadNums that a fresh Analysis of each fixture builds for its
# thresholds: its frame (24), the ladder rungs it reads, and the
# certificate path (the family walks, the domination analyses and the
# staircases), re-recorded when that path came to carry (p, q, d) triples
# and build QuadNums only where a record, a figure or a test reads one
# (489, 778 and 499 before, 1,766 in all): what is left on the path is
# the witness hit of each failing domination analysis
CERTIFICATE_QUADNUMS = {"a2_half": 48, "b2_half": 42, "case3": 35}
# the values the games take apart into their integers (`_parts` calls):
# each game's t0, r and origin s and u, and the rungs its frame first
# builds (277 when the ladder built every rung out to the farthest read,
# 3,510 when the climber took its edges apart at every search)
GAME_PARTS = 266


def exact(x, D) -> str:
    """A scan bound, a (p, q, d) triple, as the exact string of its value."""
    return qn_to_str(as_quadnum(x, D))


def games():
    """(config, p, t0, r, budget) of the workload's games: the 48 seeded
    games in all four quadrants, some of whose crossings widen the strip,
    and the first 60 crossings of the b2 game, each set in a fresh
    frame."""
    for cfg, p, t0, r in seeded_games(eigenframe(A2)):
        yield cfg, p, t0, r, 40
    A, sets, _ = load_problem(FIXTURES["b2_half"])
    frame = eigenframe(A)
    yield (GameConfig(frame, (sets["X"], sets["Y"]), "++"), point(0, 0),
           QuadNum(1, 0, frame.D), QuadNum(20, 0, frame.D), 60)


def workload():
    """The seeded games, the classifications, thresholds and censuses of
    the three fixtures, and the b2 game: every caller of the strip
    climber, each in a frame of its own."""
    *seeded, b2_game = games()
    for game in seeded:
        play_game(*game)
    for name in sorted(FIXTURES):
        A, sets, _ = load_problem(FIXTURES[name])
        X, Y = sets["X"], sets["Y"]
        classify(SurgeryProblem(A, X, Y))
        Analysis(A, X, Y).thresholds()
        frame = eigenframe(A)
        for sign in ("positive", "negative"):
            enumerate_primitive(frame, X, sign)
    play_game(*b2_game)


def test_scan_log_digest(monkeypatch):
    # torus.box_lifts is where every hits_in_box scan lands, whichever
    # module asks for it; each line is the set's marked points, the
    # frame-coordinate bounds as exact strings and the edge flags
    log = []
    box_lifts = torus.box_lifts

    def logged(frame, mset, s_lo, s_hi, u_lo, u_hi, include=(True,) * 4):
        D = frame.D
        log.append(f"{mset.points} {exact(s_lo, D)} {exact(s_hi, D)} "
                   f"{exact(u_lo, D)} {exact(u_hi, D)} {include}")
        return box_lifts(frame, mset, s_lo, s_hi, u_lo, u_hi, include)

    monkeypatch.setattr(torus, "box_lifts", logged)
    # a fresh Analysis per problem: a memoized one would hide its scans
    classify_module = sys.modules["anosurg.classify"]
    monkeypatch.setattr(classify_module, "analysis_of",
                        classify_module.analysis_of.__wrapped__)
    workload()
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert (len(log), digest) == (SCANS, SCAN_LOG_SHA256)


def scans_made(monkeypatch, work) -> int:
    """The box scans made while work() runs."""
    made = 0
    box_lifts = torus.box_lifts

    def counted(*args):
        nonlocal made
        made += 1
        return box_lifts(*args)

    with monkeypatch.context() as patch:
        patch.setattr(torus, "box_lifts", counted)
        work()
    return made


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_box_scans_of_a_profile(monkeypatch, tmp_path, name):
    # the negative census reads the family that the negative domination
    # analysis walked, and a witness is read off its members' kept
    # contacts, never by rect_meets
    def no_rect_meets(*args):
        raise AssertionError("rect_meets was called")

    monkeypatch.setattr(rectangles, "rect_meets", no_rect_meets)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(FIXTURES[name]))
    codes = []
    assert scans_made(monkeypatch, lambda: codes.append(
        main(["profile", str(path)]))) == PROFILE_SCANS[name]
    assert codes == [0]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_one_family_per_set_sign_and_origin(name):
    # the profile, its four witnesses and both censuses of each set walk
    # one family per (set, sign, orbit origin): the negative sign's census,
    # domination analysis and witnesses share the u-flipped view
    A, sets, _ = load_problem(FIXTURES[name])
    X, Y = sets["X"], sets["Y"]
    analysis = Analysis(A, X, Y)
    analysis.profile()
    frame = analysis.frame
    for own, other in ((X, Y), (Y, X)):
        for sign in ("positive", "negative"):
            disjoint_witness(frame, own, other, sign)
            enumerate_primitive(frame, own, sign)
    assert set(frame.families) == {
        (False, flip_u, mset, orb.points[0], orb.period)
        for mset in (X, Y) for orb in mset.orbits for flip_u in (False, True)}
    assert len(frame.families) == 4


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_a_dominated_witness_search_scans_nothing(monkeypatch, name):
    # every member of a dominated sign's family met the other set in the
    # domination analysis, which kept its contact: after the profile, the
    # witness search reads them all, finds none that misses and scans no
    # box
    A, sets, _ = load_problem(FIXTURES[name])
    X, Y = sets["X"], sets["Y"]
    analysis = Analysis(A, X, Y)
    variants = [(own, other, sign) for own, other in ((X, Y), (Y, X))
                for sign in ("positive", "negative")]
    dominated = [v for v, disjoint in zip(
        variants, analysis.profile()["booleans"]) if not disjoint]
    assert len(dominated) == DOMINATED_SIGNS[name]
    for own, other, sign in dominated:
        found = []
        assert scans_made(monkeypatch, lambda: found.append(disjoint_witness(
            analysis.frame, own, other, sign))) == 0
        assert found == [None]


def calls_made(monkeypatch, name, work) -> int:
    """The calls of quadfield's function name made while work() runs,
    through every module's binding of it."""
    made = 0
    f = getattr(quadfield, name)

    def counted(*args):
        nonlocal made
        made += 1
        return f(*args)

    with monkeypatch.context() as patch:
        for module in list(sys.modules.values()):
            if (module.__name__.split(".")[0] == "anosurg"
                    and getattr(module, name, None) is f):
                patch.setattr(module, name, counted)
        work()
    return made


def quadnums_built(monkeypatch, work) -> int:
    """The QuadNums built while work() runs: each is one `_qn` call, the
    field operations in quadfield, the hit coordinates in torus and the
    values that a crossing record derives in game."""
    return calls_made(monkeypatch, "_qn", work)


def comparisons_made(monkeypatch, work) -> int:
    """The QuadNum order comparisons made while work() runs: the calls of
    its four order methods."""
    made = 0

    def counted(compare):
        def call(*args):
            nonlocal made
            made += 1
            return compare(*args)
        return call

    with monkeypatch.context() as patch:
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            patch.setattr(QuadNum, name, counted(getattr(QuadNum, name)))
        work()
    return made


def test_quadnum_count_of_the_games(monkeypatch):
    # a game step that does more field work than its decision needs shows
    # here
    played = list(games())
    assert quadnums_built(
        monkeypatch, lambda: [play_game(*game) for game in played]) \
        == GAME_QUADNUMS


def test_games_take_apart_and_compare_nothing_per_step(monkeypatch):
    # the strip climber's and the game's state is integers from start to
    # end: a game takes apart its t0, r and origin, and its frame's new
    # rungs, and compares no QuadNum; its crossings include widening ones
    played = list(games())
    outcomes = []
    assert calls_made(monkeypatch, "_parts", lambda: outcomes.extend(
        play_game(*game) for game in played)) == GAME_PARTS
    assert any(c.exponent > 0 for out in outcomes for c in out.trace)
    played = list(games())
    assert comparisons_made(
        monkeypatch, lambda: [play_game(*game) for game in played]) == 0


def test_quadnum_count_of_the_censuses(monkeypatch):
    # the workload's censuses, both signs of each fixture's X, each in a
    # fresh frame: a window's lifts are ordered on their integers, and only
    # a lift the walk takes becomes a hit
    sets = [(eigenframe(A), sets["X"]) for A, sets, _ in (
        load_problem(FIXTURES[name]) for name in sorted(FIXTURES))]
    assert quadnums_built(monkeypatch, lambda: [
        enumerate_primitive(frame, X, sign) for frame, X in sets
        for sign in ("positive", "negative")]) == CENSUS_QUADNUMS


def test_quadnum_count_of_the_certificates(monkeypatch):
    # each fixture's eight thresholds from a fresh Analysis, not through
    # classify, whose memo would make the count depend on the test order
    built = {}
    for name in sorted(FIXTURES):
        A, sets, _ = load_problem(FIXTURES[name])
        X, Y = sets["X"], sets["Y"]
        built[name] = quadnums_built(
            monkeypatch, lambda: Analysis(A, X, Y).thresholds())
    assert built == CERTIFICATE_QUADNUMS


def test_quadnum_count_of_the_game_records_and_figures(monkeypatch):
    # the records and the figure each derive a crossing's height, offset
    # and t_after, one QuadNum each off the crossing's integers, with no
    # hit built; its t_before is the t_after before it, or t0, so only the
    # first record of a game derives one
    played = [(game, play_game(*game)) for game in games()]
    crossings = sum(len(outcome.trace) for _, outcome in played)
    records = quadnums_built(monkeypatch, lambda: [
        game_trace_records(outcome) for _, outcome in played])
    figures = quadnums_built(monkeypatch, lambda: [
        svgfig.game_figure(outcome, t0, r)
        for (_, _, t0, r, _), outcome in played])
    assert (crossings, records, figures) == (262, 3 * 262 + 48, 3 * 262)
