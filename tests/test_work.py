"""Work digests: the exact log of the box scans that a fixed workload
makes, kept as one SHA-256.  Every verdict and output byte can stay the
same while a change scans other boxes, more boxes or the same boxes in
another order; the digest tells.  A change that means to change the log
re-records the digest and says why.  The number of QuadNums that the
workload's games build, and their records and figures, is kept the same
way, so field work a game step does not need shows without a clock."""

import hashlib
import sys

from anosurg import (Analysis, GameConfig, QuadNum, SurgeryProblem, classify,
                     eigenframe, enumerate_primitive, game_trace_records,
                     play_game, point, quadfield, qn_to_str, svgfig, torus)
from anosurg.cli import FIXTURES, load_problem

from conftest import A2
from test_game import seeded_games

# the number of scans and the digest of their log, recorded while each
# caller of the strip climber still built its own scan
SCANS, SCAN_LOG_SHA256 = (
    425, "b1d02b473f309899f7647b0d0af4bb1cca12dfb870430141bd5ba5bbaede49a4")
# the QuadNums that the workload's games build, recorded when a crossing
# became three field operations on the strip's right edge
GAME_QUADNUMS = 3495


def exact(x) -> str:
    return qn_to_str(x) if isinstance(x, QuadNum) else str(x)


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
        log.append(f"{mset.points} {exact(s_lo)} {exact(s_hi)} "
                   f"{exact(u_lo)} {exact(u_hi)} {include}")
        return box_lifts(frame, mset, s_lo, s_hi, u_lo, u_hi, include)

    monkeypatch.setattr(torus, "box_lifts", logged)
    # a fresh Analysis per problem: a memoized one would hide its scans
    classify_module = sys.modules["anosurg.classify"]
    monkeypatch.setattr(classify_module, "analysis_of",
                        classify_module.analysis_of.__wrapped__)
    workload()
    digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
    assert (len(log), digest) == (SCANS, SCAN_LOG_SHA256)


def quadnums_built(monkeypatch, work) -> int:
    """The QuadNums built while work() runs: each is one `_qn` call, the
    field operations in quadfield and the hit coordinates in torus."""
    built = 0
    qn = quadfield._qn

    def counted(*args):
        nonlocal built
        built += 1
        return qn(*args)

    with monkeypatch.context() as patch:
        for module in (quadfield, torus):
            patch.setattr(module, "_qn", counted)
        work()
    return built


def test_quadnum_count_of_the_games(monkeypatch):
    # a game step that does more field work than its decision needs shows
    # here
    played = list(games())
    assert quadnums_built(
        monkeypatch, lambda: [play_game(*game) for game in played]) \
        == GAME_QUADNUMS


def test_quadnum_count_of_the_game_records_and_figures(monkeypatch):
    # the records and the figure each derive a crossing's height, offset
    # and t_after; its t_before is the t_after before it, or t0, so only
    # the first record of a game derives one
    played = [(game, play_game(*game)) for game in games()]
    crossings = sum(len(outcome.trace) for _, outcome in played)
    records = quadnums_built(monkeypatch, lambda: [
        game_trace_records(outcome) for _, outcome in played])
    figures = quadnums_built(monkeypatch, lambda: [
        svgfig.game_figure(outcome, t0, r)
        for (_, _, t0, r, _), outcome in played])
    assert (crossings, records, figures) == (262, 3 * 262 + 48, 3 * 262)
