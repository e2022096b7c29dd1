"""The combined decision procedure: sign rule, domination and staircase
verdicts on the frozen geometries, per-quadrant certificates, and the
coherence sweep with its symmetry checks."""

import itertools
import json
import pathlib
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from anosurg import (HyperbolicMatrix, STATUSES, SurgeryProblem,
                     build_staircase, classify, disjoint_witness, eigenframe,
                     marked_set, orbit_of, point, quadrant_report,
                     verdict_records)
from anosurg.classify import (Analysis, _RULES, _completing_sign,
                              analysis_of)
from anosurg.rectangles import case_label
from anosurg.staircase import SeedError
from anosurg.torus import InvariantError, _mat_mul
from anosurg.cli import FIXTURES, load_problem, main

from conftest import A2, A3, B2, C3, HALF, zero_orbit_set
from oracles import mod1, pair


def problem(A, x_seeds, y_seeds):
    return SurgeryProblem(A, marked_set(A, x_seeds, "X"),
                          marked_set(A, y_seeds, "Y"))


def a2_problem(x_char, y_char):
    return problem(A2, [(point(0, 0), x_char)], [(point(HALF, HALF), y_char)])


def c3_problem(x_char, y_char):
    return problem(C3, [(point(0, 0), x_char)], [(point(0, HALF), y_char)])


def b2_problem(x_char, y_char):
    return problem(B2, [(point(0, 0), x_char)], [(point(HALF, HALF), y_char)])


def antidiagonal_flip(prob):
    """The conjugate problem under (x, y) -> (y, x) with all characteristic
    numbers negated and the set roles exchanged; this reverses the stable
    orientation, so R-covered verdicts swap sign."""
    A = prob.A
    flipped = HyperbolicMatrix(A.d, A.c, A.b, A.a)

    def move(mset, role):
        seeds = [(pair(orb.points[0])[::-1], -orb.char)
                 for orb in mset.orbits]
        return marked_set(flipped, seeds, role)

    return SurgeryProblem(flipped, move(prob.Y, "X"), move(prob.X, "Y"))


def role_swap(prob):
    X = marked_set(prob.A, [(orb.points[0], orb.char)
                            for orb in prob.Y.orbits], "X")
    Y = marked_set(prob.A, [(orb.points[0], orb.char)
                            for orb in prob.X.orbits], "Y")
    return SurgeryProblem(prob.A, X, Y)


def random_geometries(seed, count):
    """(matrix, X point, Y point) draws: A2 and C3 alternately, with two
    points of the same 2- or 3-torsion in different orbits."""
    rng = random.Random(seed)

    def torsion_point(d):
        return point(Fraction(rng.randrange(d), d),
                     Fraction(rng.randrange(d), d))

    out = []
    for i in range(count):
        A = (A2, C3)[i % 2]
        d = rng.choice((2, 3))
        p, q = torsion_point(d), torsion_point(d)
        while q in orbit_of(A, p)[0]:
            q = torsion_point(d)
        out.append((A, p, q))
    return out


RANDOM_GEOMETRIES = random_geometries(3, 8)


FLIP_STATUS = {"Suspension": "Suspension", "NonRCovered": "NonRCovered",
               "Unknown": "Unknown", "RCoveredPositive": "RCoveredNegative",
               "RCoveredNegative": "RCoveredPositive"}


class TestSignRule:
    def test_zero_surgeries(self):
        v = classify(a2_problem(0, 0))
        assert (v.status, v.rule) == ("Suspension", "zero-surgeries")

    def test_empty_sets(self):
        empty_x = marked_set(A2, [], "X")
        empty_y = marked_set(A2, [], "Y")
        assert classify(SurgeryProblem(A2, empty_x, empty_y)).status == \
            "Suspension"
        one = SurgeryProblem(A2, zero_orbit_set(A2, 4, "X"), empty_y)
        v = classify(one)
        assert (v.status, v.rule) == ("RCoveredPositive", "sign-rule")

    def test_one_empty_set_with_mixed_signs_is_unknown(self):
        # C3 fixes each half point, so the Y points are two orbits
        Y = marked_set(C3, [(point(0, HALF), 1), (point(HALF, HALF), -1)],
                       "Y")
        v = classify(SurgeryProblem(C3, marked_set(C3, [], "X"), Y))
        assert (v.status, v.rule) == ("Unknown", "no-rule-applies")
        assert v.evidence == {"twists": {"X": [], "Y": [1, -1]}}

    def test_uniform_signs(self):
        assert classify(a2_problem(3, 1)).status == "RCoveredPositive"
        assert classify(a2_problem(-2, -7)).status == "RCoveredNegative"
        assert classify(a2_problem(0, -1)).status == "RCoveredNegative"


class TestDominationVerdicts:
    def test_a2_positive_domination(self):
        # Y twists reach the domination threshold 2, X is arbitrary
        v = classify(a2_problem(-5, 1))      # Y period 3 -> twist 3 >= 2
        assert v.status == "RCoveredPositive"
        assert v.rule == "domination-positive"
        assert v.evidence["threshold"] == 2
        assert v.evidence["twisted_set"] == "Y"

    def test_c3_negative_domination_both_roles(self):
        v = classify(c3_problem(1, -9))
        assert (v.status, v.rule) == ("RCoveredNegative",
                                      "domination-negative")
        assert v.evidence["threshold"] == 3
        w = classify(c3_problem(-9, 1))
        assert (w.status, w.rule) == ("RCoveredNegative",
                                      "domination-negative-roles-swapped")
        assert w.evidence["threshold"] == 3

    def test_c3_small_mixed_is_unknown(self):
        v = classify(c3_problem(1, -1))
        assert (v.status, v.rule) == ("Unknown", "no-rule-applies")
        prof = v.evidence["profile"]
        assert prof["booleans"] == [True, False, True, False]
        assert prof["case"] == 3
        assert v.evidence["thresholds"] == {
            "domination-X-negative": 3, "domination-Y-negative": 3,
            "staircase-X-++": 2, "staircase-Y-++": 2,
        }


class TestStaircaseVerdict:
    def test_b2_adjacent_quadrant_staircases(self):
        v = classify(b2_problem(-9, 9))
        assert v.status == "NonRCovered"
        assert v.rule == "staircase-adjacent-quadrants"
        assert v.evidence["thresholds"] == {"X": 2, "Y": 2}

    def test_b2_mirror_variant(self):
        v = classify(b2_problem(9, -9))
        assert v.status == "NonRCovered"
        assert v.rule == "staircase-adjacent-quadrants-mirror"

    def test_b2_below_threshold_is_unknown(self):
        v = classify(b2_problem(-1, 1))
        assert v.status == "Unknown"
        assert v.evidence["profile"]["case"] == 1


class TestQuadrantReports:
    def test_b2_incomplete_certificates(self):
        prob = b2_problem(-9, 9)
        status, ev = quadrant_report(prob, point(0, 0), "++")
        assert status == "IncompleteCertified"
        assert ev["threshold"] == 2
        status, ev = quadrant_report(prob, point(HALF, HALF), "+-")
        assert status == "IncompleteCertified"

    def test_b2_below_threshold_unknown(self):
        status, ev = quadrant_report(b2_problem(-1, 1), point(0, 0), "++")
        assert (status, ev) == ("Unknown", {})

    def test_a_point_with_no_other_set_is_unknown(self):
        Y = marked_set(C3, [(point(0, HALF), 1), (point(HALF, HALF), -1)],
                       "Y")
        prob = SurgeryProblem(C3, marked_set(C3, [], "X"), Y)
        for quadrant in ("++", "+-", "-+", "--"):
            assert quadrant_report(prob, point(0, HALF), quadrant) == (
                "Unknown", {})

    def test_a2_complete_certificate(self):
        status, ev = quadrant_report(a2_problem(-5, 1), point(0, 0), "++")
        assert status == "CompleteCertified"
        assert ev["threshold"] == 2

    def test_unmarked_point_rejected(self):
        with pytest.raises(ValueError):
            quadrant_report(a2_problem(1, 1), point(Fraction(1, 3), 0), "++")

    # (lift, its base): int and Fraction coordinates, negative ones and ones
    # above 1, on A2's (0, 0) orbit and its (1/2, 1/2) orbit
    LIFTS = [((-1, 2), point(0, 0)),
             ((3, 0), point(0, 0)),
             ((Fraction(-1, 2), Fraction(5, 2)), point(HALF, HALF)),
             ((Fraction(3, 2), -1), point(HALF, 0)),
             ((-4, Fraction(-7, 2)), point(0, HALF))]

    @pytest.mark.parametrize("lift, base", LIFTS)
    @pytest.mark.parametrize("strengths", [(-5, 1), (1, -1), (2, -3)])
    def test_lift_reports_as_its_base(self, lift, base, strengths):
        prob = a2_problem(*strengths)
        for quadrant in ("++", "+-", "-+", "--"):
            assert quadrant_report(prob, lift, quadrant) == \
                quadrant_report(prob, base, quadrant)

    @pytest.mark.parametrize("lift", [(Fraction(7, 3), -1),
                                      (2, Fraction(-1, 4)),
                                      (Fraction(-1, 2), Fraction(4, 3))])
    def test_unmarked_lift_rejected(self, lift):
        with pytest.raises(ValueError, match="not a marked point"):
            quadrant_report(a2_problem(1, -1), lift, "++")

    def test_invalid_quadrant_rejected_before_any_analysis(self, monkeypatch):
        def no_analysis(geometry):
            raise AssertionError("an analysis was built")

        # the package's `classify` attribute is the function, not the module
        monkeypatch.setattr(sys.modules["anosurg.classify"], "analysis_of",
                            no_analysis)
        with pytest.raises(ValueError, match="quadrant"):
            quadrant_report(a2_problem(-5, 1), point(0, 0), "xx")


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


class TestRuleTable:
    """`_RULES` is the decision order of the certificate rules, and the
    README's **classify** bullet names every rule in that order."""

    def test_rule_order_matches_the_readme(self):
        text = README.read_text(encoding="utf-8")
        bullet = text.split("- **classify** —", 1)[1].split("\n- **", 1)[0]
        names = re.findall(r"`([a-z]+(?:-[a-z]+)+)`", bullet)
        assert names == ["zero-surgeries", "sign-rule",
                         *(rule for _, rule, _ in _RULES), "no-rule-applies"]

    def test_each_rule_yields_the_status_of_its_rows(self):
        for status, rule, rows in _RULES:
            if rule.startswith("domination-"):
                (own, sign), = rows
                assert status == ("RCoveredPositive" if sign == "positive"
                                  else "RCoveredNegative")
                assert own == ("Y" if rule.endswith("-roles-swapped")
                               else "X")
            else:
                # one staircase of each set, in adjacent quadrant types
                assert status == "NonRCovered"
                assert [own for own, _ in rows] == ["X", "Y"]
                assert {q for _, q in rows} == {"++", "+-"}

    def test_a_rule_reads_every_row_before_deciding(self, monkeypatch):
        # X's twists are positive, so X's ++ row is never met; the first
        # staircase rule reads Y's +- row all the same, so which rows get
        # built does not depend on which of them fails
        fresh = []

        def build(geometry):
            fresh.append(analysis_of.__wrapped__(geometry))
            return fresh[-1]

        monkeypatch.setattr(sys.modules["anosurg.classify"], "analysis_of",
                            build)
        assert classify(b2_problem(9, -9)).rule == _RULES[-1][1]
        assert {key[:2] for key in fresh[0]._rows if key[2] is None} == \
            {row for _, _, rows in _RULES for row in rows}

    def test_completing_sign_of_each_quadrant(self):
        assert {q: _completing_sign(q) for q in ("++", "+-", "-+", "--")} \
            == {"++": "positive", "--": "positive",
                "+-": "negative", "-+": "negative"}


class TestSharedAnalysis:
    def test_same_geometry_shares_one_untwisted_analysis(self):
        shared = analysis_of(a2_problem(1, -1).geometry())
        assert analysis_of(a2_problem(-3, 2).geometry()) is shared
        # equal, not identical, matrices and orbits: the key compares values
        rebuilt = problem(HyperbolicMatrix(2, 1, 1, 1), [(point(0, 0), 2)],
                          [(point(HALF, HALF), 2)])
        assert analysis_of(rebuilt.geometry()) is shared
        assert [orb.char for orb in shared.X.orbits + shared.Y.orbits] == \
            [0, 0]

    @pytest.mark.parametrize("draw", range(len(RANDOM_GEOMETRIES)))
    def test_verdict_thresholds_match_the_thresholds_command(
            self, draw, tmp_path, capsys):
        A, p, q = RANDOM_GEOMETRIES[draw]
        verdicts = [classify(problem(A, [(p, x_char)], [(q, y_char)]))
                    for x_char, y_char in ((1, -1), (-1, 1), (2, -1), (-1, 2))]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "matrix": [list(row) for row in A.rows()],
            "sets": [{"point": list(map(str, pair(p))), "role": "X"},
                     {"point": list(map(str, pair(q))), "role": "Y"}]}))
        assert main(["thresholds", str(path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        for v in verdicts:
            ev = v.evidence
            if v.status == "Unknown":
                # the diagnostics omit the certificates that do not exist
                assert ev["thresholds"] == {
                    f"{prefix}-{key}": value
                    for prefix, kind in (("domination", "domination"),
                                         ("staircase", "incompleteness"))
                    for key, value in printed[kind].items()
                    if value is not None}
            elif v.status == "NonRCovered":
                qx, qy = (("++", "+-") if v.rule.endswith("quadrants")
                          else ("+-", "++"))
                assert ev["thresholds"] == {
                    "X": printed["incompleteness"][f"X-{qx}"],
                    "Y": printed["incompleteness"][f"Y-{qy}"]}
            else:
                key = f"{ev['rectangles']}-{ev['sign']}"
                assert ev["threshold"] == printed["domination"][key]

    def test_a_problem_looks_its_analysis_up_once(self, monkeypatch):
        lookups = []

        def counted(geometry):
            lookups.append(geometry)
            return analysis_of(geometry)

        monkeypatch.setattr(sys.modules["anosurg.classify"], "analysis_of",
                            counted)
        prob = b2_problem(-1, 1)
        assert lookups == []
        classify(prob)
        for q in ("++", "+-"):
            quadrant_report(prob, point(0, 0), q)
        assert lookups == [prob.geometry()]


def count_calls(monkeypatch, names):
    """Count the calls of each named function through every anosurg module
    that binds it; returns {name: count}."""
    counts = dict.fromkeys(names, 0)
    for module in [m for key, m in sys.modules.items()
                   if key.startswith("anosurg.")]:
        for name in names:
            fn = vars(module).get(name)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


class TestCertificateTable:
    @staticmethod
    def operation(prob):
        """What a sweep asks of one problem: its verdict and the reports at
        (0, 0), as JSON text."""
        return json.dumps([
            verdict_records(classify(prob)),
            [quadrant_report(prob, point(0, 0), q) for q in ("++", "+-")]])

    def test_repeated_strengths_are_lookups(self, monkeypatch):
        # the first problem of each geometry fills the table: on A2 it
        # takes both X domination variants, on B2 (Unknown) every row
        firsts = {a2_problem: (1, -1), b2_problem: (-1, 1)}
        for make, strengths in firsts.items():
            self.operation(make(*strengths))
        # a staircase row writes its records on their first read, which
        # B2's first NonRCovered verdict makes
        self.operation(b2_problem(-3, 3))
        counts = count_calls(monkeypatch, (
            "hits_in_box", "build_staircase", "staircase_records",
            "incompleteness_threshold", "qn_to_str"))
        statuses = set()
        for make, first in firsts.items():
            for strengths in [(x, y) for x in range(-3, 4)
                              for y in range(-3, 4)]:
                if strengths != first:
                    done = json.loads(self.operation(make(*strengths)))
                    statuses.add(done[0]["status"])
        assert statuses == set(STATUSES)
        assert counts == dict.fromkeys(counts, 0)

    def test_callers_may_mutate_evidence(self):
        before = self.operation(b2_problem(-2, 3))
        v = classify(b2_problem(-3, 3))
        assert v.status == "NonRCovered"
        v.evidence["X_staircase"].pop("levels")
        v.evidence["Y_staircase"]["origin"].clear()
        v.evidence["thresholds"]["X"] = 99
        status, ev = quadrant_report(b2_problem(-3, 3), point(0, 0), "++")
        assert status == "IncompleteCertified"
        ev["staircase"]["levels"].clear()
        ev["staircase"]["recurring"]["translation"].append(7)
        u = classify(b2_problem(-1, 1))
        assert u.status == "Unknown"
        u.evidence["thresholds"].clear()
        u.evidence["profile"]["booleans"].clear()
        assert self.operation(b2_problem(-2, 3)) == before
        assert "levels" in classify(b2_problem(-3, 2)).evidence["X_staircase"]
        assert classify(b2_problem(-1, 2)).evidence["thresholds"]

    def test_thresholds_build_no_staircase_records(self, monkeypatch):
        # a staircase row writes its records out on its first records()
        # call, so the thresholds, which print none, build none
        A, sets, _ = load_problem(FIXTURES["b2_half"])
        counts = count_calls(monkeypatch, ("staircase_records",))
        found = Analysis(A, sets["X"], sets["Y"]).thresholds()
        assert any(found["incompleteness"].values())
        assert counts == {"staircase_records": 0}


def torsion_orbits(A, max_denominator):
    """One seed per orbit of the points whose coordinates have a common
    denominator of at most max_denominator."""
    seeds, covered = [], set()
    for d in range(1, max_denominator + 1):
        for a in range(d):
            for b in range(d):
                p = point(Fraction(a, d), Fraction(b, d))
                if p not in covered:
                    seeds.append(p)
                    covered |= set(orbit_of(A, p)[0])
    return seeds


def torsion_pairs(A):
    """Every ordered pair of distinct torsion orbits of denominator at most
    3, the first marked X and the second Y."""
    seeds = torsion_orbits(A, 3)
    return [problem(A, [(p, 0)], [(q, 0)]) for p in seeds for q in seeds
            if p != q]


def census_profile(prob):
    """The profile as the census gives it: each boolean is whether
    `disjoint_witness` finds a primitive rectangle of its set and sign that
    misses the other set, with their `case_label`."""
    frame = eigenframe(prob.A)
    b = tuple(disjoint_witness(frame, own, other, sign) is not None
              for own, other in ((prob.X, prob.Y), (prob.Y, prob.X))
              for sign in ("positive", "negative"))
    case, symmetry = case_label(b)
    return {"booleans": list(b), "case": case, "symmetry": symmetry}


class TestProfileFromDominationRows:
    @pytest.mark.parametrize("problems", [
        lambda: torsion_pairs(A2), lambda: torsion_pairs(A3),
        lambda: torsion_pairs(C3), lambda: multi_orbit_problems()],
        ids=["A2", "A3", "C3", "multi-orbit"])
    def test_profile_matches_the_census(self, problems):
        # a domination row is absent exactly when some primitive rectangle
        # of its set and sign misses the other set: the census's boolean.
        # Each multi-orbit draw marks two to four orbits in one of its sets
        for prob in problems():
            assert prob.analysis().profile() == census_profile(prob), \
                (prob.A, prob.geometry())

    def test_unknown_verdict_takes_no_census(self, monkeypatch):
        def no_census(*args):
            raise AssertionError("a census was built")

        # the one census under enumerate_primitive and disjoint_witness
        monkeypatch.setattr(sys.modules["anosurg.rectangles"], "_census",
                            no_census)
        A, sets, _ = load_problem(dict(FIXTURES["case3"]))
        v = classify(SurgeryProblem(A, sets["X"], sets["Y"]))
        assert v.status == "Unknown"
        assert v.evidence["profile"]["booleans"] == [True, False, True, False]
        assert v.evidence["profile"]["case"] == 3

    def test_every_possible_profile_has_a_case(self):
        # of the 16 boolean patterns, the 7 with X+ and Y- both false or
        # X- and Y+ both false raise as impossible, and the other 9 are
        # cases 1 to 4 under one of the four symmetries
        labels, impossible = {}, 0
        for b in itertools.product((False, True), repeat=4):
            if (not b[0] and not b[3]) or (not b[1] and not b[2]):
                with pytest.raises(InvariantError):
                    case_label(b)
                impossible += 1
            else:
                labels[b] = case_label(b)
        assert impossible == 7
        assert Counter(case for case, _ in labels.values()) == \
            {1: 1, 2: 2, 3: 2, 4: 4}
        assert labels[(True, True, True, True)] == (1, "identity")
        assert labels[(True, True, False, False)] == (2, "swap-roles")
        assert labels[(False, True, False, True)] == (3, "swap-signs")
        assert labels[(True, True, True, False)] == (4, "swap-both")


class TestCertificateDichotomy:
    def test_a_dominated_set_has_no_staircase(self):
        # the domination analysis of a sign and the staircase seed search in
        # the quadrant of the same view read one period of the same
        # primitive rectangles: when each meets the other set, no seed
        # avoids it.  Each unordered pair of torsion orbits is analysed with
        # either orbit as the own set
        cases = dominated = 0
        for A in (A2, A3, C3, HyperbolicMatrix(5, 2, 2, 1)):
            for p, q in itertools.combinations(torsion_orbits(A, 3), 2):
                analysis = problem(A, [(p, 0)], [(q, 0)]).analysis()
                for own, mset in (("X", analysis.X), ("Y", analysis.Y)):
                    for sign, quadrant in (("positive", "++"),
                                           ("negative", "+-")):
                        cases += 1
                        if analysis.row(own, sign).cert is None:
                            continue
                        dominated += 1
                        assert all(analysis.row(own, quadrant, ints).cert
                                   is None for ints in mset.index), \
                            (A, p, q, own, sign)
        assert (cases, dominated) == (184, 52)


# the matrices of TestCertificateDichotomy, and the two quadrants whose
# staircases are seeded by primitive rectangles of each domination sign
DICHOTOMY_MATRICES = (A2, A3, C3, HyperbolicMatrix(5, 2, 2, 1))
SIGN_QUADRANTS = {"positive": ("++", "--"), "negative": ("+-", "-+")}


def one_orbit_problems():
    """Every unordered pair of torsion orbits of denominator at most 3, the
    first orbit marked X and the second Y."""
    return [problem(A, [(p, 0)], [(q, 0)]) for A in DICHOTOMY_MATRICES
            for p, q in itertools.combinations(torsion_orbits(A, 3), 2)]


def multi_orbit_problems():
    """80 seeded draws of three to five torsion orbits of denominator at
    most 5, split at a random place into X and Y."""
    rng = random.Random(7)
    seeds = {A: torsion_orbits(A, 5) for A in DICHOTOMY_MATRICES}
    out = []
    for _ in range(80):
        A = rng.choice(DICHOTOMY_MATRICES)
        picked = rng.sample(seeds[A], rng.randrange(3, 6))
        cut = rng.randrange(1, len(picked))
        out.append(problem(A, [(p, 0) for p in picked[:cut]],
                           [(q, 0) for q in picked[cut:]]))
    return out


class TestDichotomyAgainstTheEngine:
    @pytest.mark.parametrize("problems, builds", [
        (one_orbit_problems, 122), (multi_orbit_problems, 242)],
        ids=["one-orbit", "multi-orbit"])
    def test_a_dominated_sign_seeds_no_staircase(self, problems, builds):
        # a domination certificate says that every primitive rectangle of
        # its set and sign meets the other set; then `build_staircase`,
        # called directly, finds no seed at any origin of the set, in
        # either quadrant of the sign
        made = 0
        for prob in problems():
            analysis = prob.analysis()
            for own, mset, other in (("X", prob.X, prob.Y),
                                     ("Y", prob.Y, prob.X)):
                for sign, quadrants in SIGN_QUADRANTS.items():
                    if analysis.row(own, sign).cert is None:
                        continue
                    for base in mset.index:
                        for quadrant in quadrants:
                            made += 1
                            with pytest.raises(SeedError):
                                build_staircase(analysis.frame, mset, other,
                                                base, quadrant)
        assert made == builds

    @pytest.mark.parametrize("problems, expected", [
        (one_orbit_problems, {(1, "domination"): 104,
                              (1, "staircase"): 264}),
        (multi_orbit_problems, {(1, "domination"): 110, (1, "staircase"): 106,
                                (2, "domination"): 16, (2, "staircase"): 342,
                                (2, "neither"): 66})],
        ids=["one-orbit", "multi-orbit"])
    def test_each_row_has_at_most_one_certificate(self, problems, expected):
        # a set of one orbit has exactly one certificate per sign and
        # quadrant: the domination row or the whole-set staircase row.  A
        # set of two or more orbits never has both, and may have neither
        # when only rectangles whose corners lie in two of its orbits miss
        # the other set
        found = Counter()
        for prob in problems():
            analysis = prob.analysis()
            for own, mset in (("X", prob.X), ("Y", prob.Y)):
                orbits = min(len(mset.orbits), 2)
                for sign, quadrants in SIGN_QUADRANTS.items():
                    dominated = analysis.row(own, sign).cert is not None
                    for quadrant in quadrants:
                        staircase = analysis.row(own, quadrant).cert
                        assert not (dominated and staircase is not None), \
                            (prob.A, own, sign, quadrant)
                        found[orbits, "domination" if dominated else
                              "staircase" if staircase is not None
                              else "neither"] += 1
        assert found == expected


ROW_KINDS = ("positive", "negative", "++", "+-")


def per_origin_thresholds(prob):
    """{(own, kind, base): threshold} over every row kind and every point of
    each set, read through `Analysis.row(own, kind, base)`."""
    analysis = prob.analysis()
    return {(own, kind, ints): analysis.row(own, kind, ints).threshold
            for own, mset in (("X", prob.X), ("Y", prob.Y))
            for kind in ROW_KINDS
            for orb in mset.orbits for ints in orb.points}


class TestReseeding:
    def test_another_seed_of_an_orbit_changes_no_threshold_or_status(self):
        # a problem names each orbit by one of its points; naming another
        # point of the same orbit lists the orbit in another order, but
        # the per-origin thresholds and the verdicts stay the same
        reseeded = 0
        for A, p, q in random_geometries(3, 8):
            want = per_origin_thresholds(problem(A, [(p, 0)], [(q, 0)]))
            seeds = ([(other, q) for other in orbit_of(A, p)[0][1:]]
                     + [(p, other) for other in orbit_of(A, q)[0][1:]])
            for p2, q2 in seeds:
                reseeded += 1
                got = per_origin_thresholds(problem(A, [(p2, 0)], [(q2, 0)]))
                assert got == want, (A, p, q, p2, q2)
                for x_char, y_char in ((1, -1), (-2, 1), (2, -3), (-1, 3)):
                    assert classify(problem(
                        A, [(p, x_char)], [(q, y_char)])).status == \
                        classify(problem(
                            A, [(p2, x_char)], [(q2, y_char)])).status
        assert reseeded == 16


# S, T and their inverses s and t, which generate SL(2, Z), and the words
# in them by which the conjugation test conjugates
LETTERS = {"S": ((0, -1), (1, 0)), "s": ((0, 1), (-1, 0)),
           "T": ((1, 1), (0, 1)), "t": ((1, -1), (0, 1))}
CONJUGATORS = ("S", "s", "T", "t", "ST", "TS", "tS", "TT", "STS")
# the row kinds of the other orientation of the eigenframe
MIRRORED = {"positive": "negative", "negative": "positive", "++": "+-",
            "+-": "++"}


def conjugate(prob, word):
    """The problem conjugated by P, the product of the word's letters: the
    matrix P A P^-1, and each orbit named by P of its first point, with the
    same characteristic number."""
    P = P_inv = ((1, 0), (0, 1))
    for letter in word:
        P = _mat_mul(P, LETTERS[letter])
        P_inv = _mat_mul(LETTERS[letter.swapcase()], P_inv)
    A = HyperbolicMatrix.from_rows(
        _mat_mul(_mat_mul(P, prob.A.rows()), P_inv))
    (a, b), (c, d) = P

    def move(mset):
        seeds = []
        for orb in mset.orbits:
            x, y = pair(orb.points[0])
            seeds.append((mod1((a * x + b * y, c * x + d * y)), orb.char))
        return marked_set(A, seeds, mset.role)

    return SurgeryProblem(A, move(prob.X), move(prob.Y))


def orbit_thresholds(prob):
    """{(own, orbit, kind): the multiset of per-origin thresholds over the
    orbit's points}, read through `Analysis.row(own, kind, base)`."""
    analysis = prob.analysis()
    return {(own, i, kind): Counter(analysis.row(own, kind, ints).threshold
                                    for ints in orb.points)
            for own, mset in (("X", prob.X), ("Y", prob.Y))
            for i, orb in enumerate(mset.orbits) for kind in ROW_KINDS}


class TestConjugation:
    def test_conjugate_problems_have_the_same_verdicts_and_thresholds(self):
        # conjugating by P in SL(2, Z) maps the flow to a conjugate one, so
        # the verdict stays.  Point by point the thresholds of an orbit may
        # move, but their multiset over the orbit stays, read in the other
        # orientation (positive <-> negative, ++ <-> +-) when the frame of
        # P A P^-1 turns over, which happens when its b is negative
        mirrored = 0
        for word in CONJUGATORS:
            for maker in (a2_problem, c3_problem):
                for x_char, y_char in itertools.product((1, -1, 2, -2),
                                                        repeat=2):
                    prob = maker(x_char, y_char)
                    image = conjugate(prob, word)
                    assert classify(image).status == classify(prob).status, \
                        (word, image.A.rows(), x_char, y_char)
                want = orbit_thresholds(prob)
                if image.A.b < 0:
                    mirrored += 1
                    want = {(own, i, MIRRORED[kind]): counts
                            for (own, i, kind), counts in want.items()}
                assert orbit_thresholds(image) == want, (word, maker)
        assert 0 < mirrored < 2 * len(CONJUGATORS)


class TestTheoremEpsilon:
    def test_a_long_orbit_decides_every_mixed_sign_surgery(self):
        # the paper's Theorem t.epsilon on A2: X is a long (200-point)
        # orbit, the orbit of (1/175, 0), at +-1 and Y the (0,0) orbit at
        # +-1..+-3; every surgery of mixed signs is R-covered, with X's sign
        x_seed, y_seed = point(Fraction(1, 175), 0), point(0, 0)
        for x_char in (1, -1):
            for strength in (1, 2, 3):
                prob = problem(A2, [(x_seed, x_char)],
                               [(y_seed, -x_char * strength)])
                assert prob.X.orbits[0].period == 200
                assert classify(prob).status == ("RCoveredPositive"
                                                 if x_char > 0 else
                                                 "RCoveredNegative")


class TestProblemValidation:
    def test_overlapping_sets_rejected(self):
        with pytest.raises(ValueError):
            problem(A2, [(point(HALF, HALF), 1)], [(point(HALF, 0), 1)])

    def test_verdict_status_restricted(self):
        from anosurg import Verdict
        with pytest.raises(ValueError):
            Verdict("Maybe", "no-rule")

    def test_records(self):
        recs = verdict_records(classify(a2_problem(0, 0)))
        assert set(recs) == {"status", "rule", "primitive_reduction_assumed",
                             "evidence"}


class TestCoherenceSweep:
    def test_sweep_is_coherent_and_symmetric(self):
        rng = random.Random(20260823)
        makers = (a2_problem, c3_problem)
        for trial in range(250):
            maker = makers[trial % 2]
            x_char = rng.randint(-4, 4)
            y_char = rng.randint(-4, 4)
            prob = maker(x_char, y_char)
            v = classify(prob)
            assert v.status in STATUSES

            nonzero = [t for t in
                       [orb.twist for orb in prob.X.orbits] +
                       [orb.twist for orb in prob.Y.orbits] if t != 0]
            if not nonzero:
                assert v.status == "Suspension"
            elif all(t > 0 for t in nonzero):
                assert v.status == "RCoveredPositive"
            elif all(t < 0 for t in nonzero):
                assert v.status == "RCoveredNegative"
            else:
                assert v.status in ("RCoveredPositive", "RCoveredNegative",
                                    "NonRCovered", "Unknown")

            # exchanging which set is called X and which Y changes nothing
            assert classify(role_swap(prob)).status == v.status
            # the orientation-reversing conjugation swaps the two R-covered
            # verdicts and fixes the others
            assert classify(antidiagonal_flip(prob)).status == \
                FLIP_STATUS[v.status]

            if trial % 25 == 0:
                # certificates for one quadrant of each marked point must
                # never be contradictory (quadrant_report raises if both
                # the complete and incomplete certificate fire)
                for base in list(prob.X.points) + list(prob.Y.points):
                    for quadrant in ("++", "+-"):
                        status, _ = quadrant_report(prob, base, quadrant)
                        assert status in ("CompleteCertified",
                                          "IncompleteCertified", "Unknown")
