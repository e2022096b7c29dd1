"""The multi-orbit verdict corpus: seeded geometries whose marked sets have
two or three orbits, on the six matrices of the ROADMAP's seeded sweep,
each classified at a few strengths, kept as one SHA-256.

The fixtures and the period-98 digests mark one orbit per set, so no other
pinned output covers the rectangles whose corners lie in two orbits of a
set, where a domination row and a staircase row can both be absent.  A
change that turns a verdict, a threshold, a profile or a witness here
re-records the digest and lists every turned verdict; the status histogram
and the gap count beside it say what moved.  A second SHA-256 keeps the
`quadrant_report` of each orbit's seed point in `++` and `+-` at every
strength, and each fired certificate rule is checked against the
per-quadrant reports of its set."""

import functools
import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

from anosurg import (HyperbolicMatrix, SurgeryProblem, census_records,
                     classify, disjoint_witness, marked_set, orbit_of, point,
                     quadrant_report, verdict_records)

from conftest import A2, A3, C3

MATRICES = (A2, A3, C3, HyperbolicMatrix(5, 2, 2, 1),
            HyperbolicMatrix(3, 1, 2, 1), HyperbolicMatrix(5, 4, 1, 1))

# (X, Y) characteristic numbers of each orbit: distinct signs either way
# round, then one same-sign pair of each sign
STRENGTHS = ((1, -1), (3, -1), (1, -3), (-1, 1), (-2, 4), (2, 1), (-1, -2))

# (own set, other set, sign) of the four booleans of a profile
VARIANTS = (("X", "Y", "positive"), ("X", "Y", "negative"),
            ("Y", "X", "positive"), ("Y", "X", "negative"))

# the domination sign of each staircase row that `thresholds()` prints
SIGN_QUADRANTS = (("positive", "++"), ("negative", "+-"))

GEOMETRIES = 120
CORPUS_SHA256 = (
    "3f876dccaa2ce86d95e523586bf1f6f7afc7e394dc2845f0bcf7b571cbe0856c")
STATUSES = {"RCoveredPositive": 140, "RCoveredNegative": 141,
            "NonRCovered": 113, "Unknown": 446}
# geometries with a gap row: a sign whose domination row and whose
# staircase row of the quadrant `thresholds()` prints are both absent
GAP_GEOMETRIES = 54

# the quadrants pinned at each orbit's seed point, one of each direction
PINNED_QUADRANTS = ("++", "+-")
QUADRANT_SHA256 = (
    "6ad24cde2ae301c8375780ccc206b57a2bedc13d0accb431a3d4105caa681612")
QUADRANT_STATUSES = {"Unknown": 6246, "IncompleteCertified": 1032,
                     "CompleteCertified": 86}

# the quadrants that a domination sign completes (README, "the two
# certificates exclude each other")
COMPLETED = {"positive": ("++", "--"), "negative": ("+-", "-+")}
# fired certificate rules checked against `quadrant_report`
AGREEMENTS = {"domination": 41, "staircase": 113}


def orbit_seeds(A, max_denominator=5):
    """One seed per orbit of the points of denominator at most
    max_denominator, in order of the denominator."""
    seeds, covered = [], set()
    for d in range(1, max_denominator + 1):
        for a, b in itertools.product(range(d), repeat=2):
            p = point(Fraction(a, d), Fraction(b, d))
            if p not in covered:
                seeds.append(p)
                covered |= set(orbit_of(A, p)[0])
    return seeds


def geometries():
    """(matrix, X seeds, Y seeds): the six matrices in turn, each draw one
    to three orbits per set and at least two in one of them."""
    rng = random.Random(21)
    seeds = {A: orbit_seeds(A) for A in MATRICES}
    for i in range(GEOMETRIES):
        A = MATRICES[i % len(MATRICES)]
        nx, ny = rng.choice([(x, y) for x in (1, 2, 3) for y in (1, 2, 3)
                             if x + y > 2])
        picked = rng.sample(seeds[A], nx + ny)
        yield A, picked[:nx], picked[nx:]


def disagreements(problem, verdict):
    """The `quadrant_report`s that contradict a fired certificate rule: a
    domination verdict on (own, sign) needs `CompleteCertified`, with a
    threshold no larger than the verdict's, at every point of own in both
    quadrants that sign completes; a staircase verdict needs
    `IncompleteCertified` in each staircase's quadrant at its origin."""
    ev = verdict.evidence
    if verdict.rule.startswith("domination-"):
        own = problem.X if ev["rectangles"] == "X" else problem.Y
        checks = [(p, q) for orb in own.orbits for p in orb.points
                  for q in COMPLETED[ev["sign"]]]
        return [(verdict.rule, p, q, report)
                for p, q in checks
                for report in [quadrant_report(problem, p, q)]
                if report[0] != "CompleteCertified"
                or report[1]["threshold"] > ev["threshold"]]
    found = []
    for name in ("X_staircase", "Y_staircase"):
        st = ev[name]
        origin = point(*st["origin"])
        report = quadrant_report(problem, origin, st["quadrant"])
        if report[0] != "IncompleteCertified":
            found.append((verdict.rule, origin, st["quadrant"], report))
    return found


@functools.cache
def corpus():
    """The corpus, built once: per geometry, its verdicts at each strength,
    then the thresholds, the profile and the census witness of each true
    boolean of its shared Analysis (`records`, with the status histogram
    and the gap count); the seed points' `quadrant_report`s (`quadrants`,
    with their histogram); and the fired certificate rules checked against
    those reports (`agreements`), with every report that disagrees."""
    records, statuses, gaps = [], Counter(), 0
    quadrants, quadrant_statuses = [], Counter()
    agreements, disagreeing = Counter(), []
    for A, xs, ys in geometries():
        verdicts = []
        for cx, cy in STRENGTHS:
            problem = SurgeryProblem(A, marked_set(A, [(p, cx) for p in xs],
                                                   "X"),
                                     marked_set(A, [(q, cy) for q in ys],
                                                "Y"))
            verdict = classify(problem)
            statuses[verdict.status] += 1
            verdicts.append(verdict_records(verdict))
            for seed in xs + ys:
                for q in PINNED_QUADRANTS:
                    status, ev = quadrant_report(problem, seed, q)
                    quadrant_statuses[status] += 1
                    quadrants.append([status, ev.get("threshold")])
            kind = verdict.rule.split("-")[0]
            if kind in AGREEMENTS:
                agreements[kind] += 1
                disagreeing += disagreements(problem, verdict)
        analysis = problem.analysis()
        profile = analysis.profile()
        sets = {"X": analysis.X, "Y": analysis.Y}
        witnesses = {
            f"{own}-{sign}": census_records([disjoint_witness(
                analysis.frame, sets[own], sets[other], sign)])[0]
            for (own, other, sign), b in zip(VARIANTS, profile["booleans"])
            if b}
        gaps += any(analysis.row(own, sign).cert is None
                    and analysis.row(own, quadrant).cert is None
                    for own in "XY" for sign, quadrant in SIGN_QUADRANTS)
        records.append({"matrix": [[A.a, A.b], [A.c, A.d]],
                        "X": [list(p) for p in xs],
                        "Y": [list(q) for q in ys],
                        "verdicts": verdicts,
                        "thresholds": analysis.thresholds(),
                        "profile": profile, "witnesses": witnesses})
    return {"records": records, "statuses": dict(statuses), "gaps": gaps,
            "quadrants": quadrants,
            "quadrant_statuses": dict(quadrant_statuses),
            "agreements": dict(agreements), "disagreeing": disagreeing}


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()
                          ).hexdigest()


def test_the_corpus_is_multi_orbit():
    drawn = list(geometries())
    assert len(drawn) == GEOMETRIES >= 100
    assert all(len(xs) + len(ys) > 2 for _, xs, ys in drawn)
    assert {A for A, _, _ in drawn} == set(MATRICES)


def test_corpus_digest():
    built = corpus()
    assert (built["statuses"], built["gaps"]) == (STATUSES, GAP_GEOMETRIES)
    assert digest(built["records"]) == CORPUS_SHA256


def test_quadrant_report_digest():
    built = corpus()
    assert built["quadrant_statuses"] == QUADRANT_STATUSES
    assert digest(built["quadrants"]) == QUADRANT_SHA256


def test_fired_rules_agree_with_quadrant_report():
    built = corpus()
    assert built["agreements"] == AGREEMENTS
    assert built["disagreeing"] == []
