"""Verdicts for surgered suspension flows: combine the sign rule, the
rectangle disjointness profile, domination thresholds, and staircase
thresholds into a machine-checkable classification.

Decision order: all surgeries zero -> Suspension; all nonzero surgery signs
equal -> RCovered with that sign; a domination certificate (one of four
sign/role variants) -> RCovered regardless of the other set's surgeries; a
pair of staircases undertwisting adjacent quadrant types -> NonRCovered;
otherwise Unknown with full diagnostics.  All thresholds compare against
twists (characteristic number times orbit period).
"""

from __future__ import annotations

import functools

from .torus import (HyperbolicMatrix, InvariantError, MarkedSet, Orbit, Point,
                    eigenframe, mod1, quadrant_contracting, sets_disjoint)
from .rectangles import case_profile
from .game import DominationAnalysis, DominationHypothesisError
from .staircase import (StaircaseError, build_staircase,
                        incompleteness_threshold, staircase_records)

STATUSES = ("Suspension", "RCoveredPositive", "RCoveredNegative",
            "NonRCovered", "Unknown")


class SurgeryProblem:
    __slots__ = ("A", "X", "Y")

    def __init__(self, A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet):
        if not sets_disjoint(X, Y):
            raise ValueError("marked sets overlap")
        self.A, self.X, self.Y = A, X, Y

    def geometry(self):
        """Hashable key identifying the problem up to the surgery strengths."""
        return (self.A,
                tuple(orb.points for orb in self.X.orbits),
                tuple(orb.points for orb in self.Y.orbits))


class Verdict:
    __slots__ = ("status", "rule", "evidence")

    def __init__(self, status: str, rule: str, evidence: dict | None = None):
        if status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")
        self.status = status
        self.rule = rule            # which decision rule fired
        self.evidence = {} if evidence is None else evidence


# ---------------------------------------------------------------------------
# geometry analyses (a sweep varies only the surgery strengths)


def _once(method):
    """Compute a method's result once per instance and arguments."""
    @functools.wraps(method)
    def memoized(self, *args):
        table = self._memo.setdefault(method.__name__, {})
        if args not in table:
            table[args] = method(self, *args)
        return table[args]
    return memoized


class Analysis:
    """The certificates of one geometry, each computed once on first use:
    the disjointness profile, the four domination analyses and the
    staircases.  None of them depends on the surgery strengths; only the
    checks against the twists do."""

    def __init__(self, A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet):
        self.X, self.Y = X, Y
        self.frame = eigenframe(A)
        self._memo = {}

    def _roles(self, own: str):
        return (self.X, self.Y) if own == "X" else (self.Y, self.X)

    @_once
    def profile(self):
        return case_profile(self.frame, self.X, self.Y)

    @_once
    def domination(self, own: str, sign: str):
        """The (own-set rectangles, sign) domination analysis, or None when
        some primitive rectangle misses the other set."""
        first, second = self._roles(own)
        try:
            return DominationAnalysis(self.frame, first, second, sign=sign)
        except DominationHypothesisError:
            return None

    @_once
    def staircase_at(self, own: str, base: Point, quadrant: str):
        """A staircase of the own set at the given origin, or None."""
        first, second = self._roles(own)
        try:
            return build_staircase(self.frame, first, second, base, quadrant)
        except StaircaseError:
            return None

    @_once
    def staircase(self, own: str, quadrant: str):
        """(staircase, threshold) for the first point of the own set that
        admits a staircase avoiding the other set, or None."""
        for base in self._roles(own)[0].points:
            st = self.staircase_at(own, base, quadrant)
            if st is not None:
                return st, incompleteness_threshold(st)
        return None

    def thresholds(self) -> dict:
        """The four domination and four incompleteness thresholds (None
        where no certificate exists), as the thresholds command prints."""
        out = {"domination": {}, "incompleteness": {}}
        for own in ("X", "Y"):
            for sign in ("positive", "negative"):
                analysis = self.domination(own, sign)
                out["domination"][f"{own}-{sign}"] = (
                    None if analysis is None else analysis.threshold)
            for quadrant in ("++", "+-"):
                got = self.staircase(own, quadrant)
                out["incompleteness"][f"{own}-{quadrant}"] = (
                    None if got is None else got[1])
        return out


@functools.lru_cache(maxsize=32)
def analysis_of(geometry) -> Analysis:
    """The shared Analysis of a SurgeryProblem.geometry() key.  Its marked
    sets carry characteristic number 0, so problems differing only in their
    strengths share it and none of their strengths is kept."""
    A, x_orbits, y_orbits = geometry

    def untwisted(orbits, role):
        return MarkedSet(tuple(Orbit(pts, len(pts), 0) for pts in orbits), role)

    return Analysis(A, untwisted(x_orbits, "X"), untwisted(y_orbits, "Y"))


def _twists(mset: MarkedSet):
    return tuple(orb.twist for orb in mset.orbits)


def _meets(twists, direction: int, n: int) -> bool:
    """Every twist, taken with the rule's direction (+1 or -1), reaches the
    threshold n."""
    return all(t * direction >= n for t in twists)


# ---------------------------------------------------------------------------
# the decision procedure


def _sign_rule(twists: dict):
    nonzero = [t for t in twists["X"] + twists["Y"] if t != 0]
    if not nonzero:
        return Verdict("Suspension", "zero-surgeries")
    if all(t > 0 for t in nonzero):
        return Verdict("RCoveredPositive", "sign-rule", {"twists": twists})
    if all(t < 0 for t in nonzero):
        return Verdict("RCoveredNegative", "sign-rule", {"twists": twists})
    return None


# (own rectangles, sign); the other set's twists must reach the threshold
# in the sign's direction
_DOMINATION_VARIANTS = (("X", "positive"), ("X", "negative"),
                        ("Y", "positive"), ("Y", "negative"))


def _domination_rule(problem: SurgeryProblem, shared: Analysis):
    for own, sign in _DOMINATION_VARIANTS:
        analysis = shared.domination(own, sign)
        if analysis is None:
            continue
        twisted, other = ("Y", problem.Y) if own == "X" else ("X", problem.X)
        tw = _twists(other)
        if not _meets(tw, 1 if sign == "positive" else -1, analysis.threshold):
            continue
        status = ("RCoveredPositive" if sign == "positive"
                  else "RCoveredNegative")
        rule = f"domination-{sign}" + ("" if own == "X" else "-roles-swapped")
        return Verdict(status, rule, {
            "rectangles": own, "sign": sign,
            "threshold": analysis.threshold,
            "twisted_set": twisted, "twists": list(tw),
        })
    return None


_STAIRCASE_VARIANTS = (
    # (X staircase quadrant, Y staircase quadrant)
    ("++", "+-"),   # positive X-staircase, negative Y-staircase
    ("+-", "++"),   # mirror: negative X-staircase, positive Y
)


def _undertwist_direction(quadrant: str) -> int:
    """The direction in which a staircase's own twists must reach its
    threshold: negative in the contracting quadrants."""
    return -1 if quadrant_contracting(quadrant) else 1


def _staircase_rule(problem: SurgeryProblem, shared: Analysis):
    for qx, qy in _STAIRCASE_VARIANTS:
        got_x = shared.staircase("X", qx)
        got_y = shared.staircase("Y", qy)
        if got_x is None or got_y is None:
            continue
        (st_x, nx), (st_y, ny) = got_x, got_y
        tx, ty = _twists(problem.X), _twists(problem.Y)
        if not (_meets(tx, _undertwist_direction(qx), nx)
                and _meets(ty, _undertwist_direction(qy), ny)):
            continue
        rule = ("staircase-adjacent-quadrants" if qx == "++"
                else "staircase-adjacent-quadrants-mirror")
        return Verdict("NonRCovered", rule, {
            "X_staircase": staircase_records(st_x),
            "Y_staircase": staircase_records(st_y),
            "thresholds": {"X": nx, "Y": ny},
            "twists": {"X": list(tx), "Y": list(ty)},
        })
    return None


def classify(problem: SurgeryProblem) -> Verdict:
    """Classify the surgered flow; see the module docstring for the order."""
    twists = {"X": list(_twists(problem.X)), "Y": list(_twists(problem.Y))}
    verdict = _sign_rule(twists)
    if verdict is not None:
        return verdict
    diagnostics = {"twists": twists}
    if problem.X.is_empty() or problem.Y.is_empty():
        return Verdict("Unknown", "no-rule-applies", diagnostics)
    shared = analysis_of(problem.geometry())
    verdict = (_domination_rule(problem, shared)
               or _staircase_rule(problem, shared))
    if verdict is not None:
        return verdict
    prof = shared.profile()
    diagnostics["profile"] = {
        "booleans": list(prof.booleans), "case": prof.case,
        "symmetry": prof.symmetry,
    }
    found = shared.thresholds()
    diagnostics["thresholds"] = {
        f"{prefix}-{key}": value
        for prefix, kind in (("domination", "domination"),
                             ("staircase", "incompleteness"))
        for key, value in found[kind].items() if value is not None}
    return Verdict("Unknown", "no-rule-applies", diagnostics)


# ---------------------------------------------------------------------------
# per-quadrant certificates


def quadrant_report(problem: SurgeryProblem, point: Point, quadrant: str):
    """Certificate for the quadrant at a marked point.

    Returns (status, evidence) with status CompleteCertified (the domination
    threshold is met by the other set's twists), IncompleteCertified (a
    staircase exists and the point's own twists exceed its threshold), or
    Unknown.  Raises if both certificates fire: that would be contradictory.
    """
    contracting = quadrant_contracting(quadrant)
    base = mod1((point[0], point[1]))
    if base in problem.X.points:
        own, other, own_name = problem.X, problem.Y, "X"
    elif base in problem.Y.points:
        own, other, own_name = problem.Y, problem.X, "Y"
    else:
        raise ValueError(f"{point} is not a marked point")
    if other.is_empty():
        return "Unknown", {}
    # the other set completes the quadrant in the direction of the
    # domination sign; the own set's staircase needs the opposite one
    sign, direction = ("positive", 1) if contracting else ("negative", -1)
    shared = analysis_of(problem.geometry())

    complete = None
    analysis = shared.domination(own_name, sign)
    if analysis is not None:
        n = analysis.threshold_at(base)
        tw = _twists(other)
        if _meets(tw, direction, n):
            complete = {"threshold": n, "other_twists": list(tw)}

    incomplete = None
    st = shared.staircase_at(own_name, base, quadrant)
    if st is not None:
        n = incompleteness_threshold(st)
        tw = _twists(own)
        if _meets(tw, -direction, n):
            incomplete = {"threshold": n, "own_twists": list(tw),
                          "staircase": staircase_records(st)}

    if complete is not None and incomplete is not None:
        raise InvariantError(
            f"contradictory certificates for quadrant {quadrant} at {base}")
    if complete is not None:
        return "CompleteCertified", complete
    if incomplete is not None:
        return "IncompleteCertified", incomplete
    return "Unknown", {}


def verdict_records(verdict: Verdict) -> dict:
    """JSON-ready serialization of a verdict."""
    return {
        "status": verdict.status,
        "rule": verdict.rule,
        "primitive_reduction_assumed": True,
        "evidence": verdict.evidence,
    }
