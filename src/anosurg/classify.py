"""Verdicts for surgered suspension flows: combine the sign rule,
domination thresholds, and staircase thresholds into a machine-checkable
classification.

Decision order: all surgeries zero -> Suspension; all nonzero surgery signs
equal -> RCovered with that sign; then the first rule of `_RULES` whose
rows are all met: a domination certificate (four sign/role variants) ->
RCovered, then staircases in adjacent quadrant types -> NonRCovered;
otherwise Unknown with full diagnostics, whose disjointness profile is read
off the domination rows (`Analysis.profile`).  One check, `_met`, compares
a threshold with twists (characteristic number times orbit period).  The
two certificates exclude each other: a dominated sign has no staircase row.
"""

from __future__ import annotations

import functools
import json

from .torus import (HyperbolicMatrix, MarkedSet, Orbit, as_point,
                    eigenframe, quadrant_direction, sets_disjoint)
from .rectangles import case_label
from .game import DominationAnalysis, DominationHypothesisError
from .staircase import (SeedError, StaircaseError, build_staircase,
                        incompleteness_threshold, staircase_records)

STATUSES = ("Suspension", "RCoveredPositive", "RCoveredNegative",
            "NonRCovered", "Unknown")


class SurgeryProblem:
    """A matrix and two disjoint marked sets, never reassigned: the first
    `analysis()` looks the geometry's Analysis up and keeps it."""
    __slots__ = ("A", "X", "Y", "_analysis")

    def __init__(self, A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet):
        if not sets_disjoint(X, Y):
            raise ValueError("marked sets overlap")
        self.A, self.X, self.Y = A, X, Y
        self._analysis = None

    def analysis(self) -> Analysis:
        if self._analysis is None:
            self._analysis = analysis_of(self.geometry())
        return self._analysis

    def geometry(self):
        """Hashable key identifying the problem up to the surgery strengths:
        the matrix and each orbit's points, so hashing it hashes ints."""
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


class Row:
    """One certificate of an Analysis: a DominationAnalysis or a Staircase
    (None when there is none) and its threshold; an empty staircase row of
    one origin keeps the StaircaseError that left it empty.  A staircase's
    `staircase_records` are built as JSON text on the first `records()`
    call and kept: a row that no caller prints never writes its numbers
    out."""
    __slots__ = ("cert", "threshold", "record", "error")

    def __init__(self, cert=None, threshold=None, error=None):
        self.cert, self.threshold, self.record = cert, threshold, None
        self.error = error

    def records(self) -> dict:
        """A fresh copy of the staircase's record, the caller's to change."""
        if self.record is None:
            self.record = json.dumps(staircase_records(self.cert))
        return json.loads(self.record)


class Analysis:
    """The certificate table of one geometry.  None of its rows depends on
    the surgery strengths; only the checks against the twists do.  A row is
    computed the first time a caller asks for it and then kept.

    `row(own, kind, base)` is the certificate of the own set's rectangles
    or staircases: kind is a domination sign or a staircase quadrant, and
    base one of the own set's points (k, X, Y), a key of its
    `MarkedSet.index`.  With base None it is the certificate of the whole
    set: the domination threshold over all of its points, or the staircase
    of its first point that admits one.  That search tries an orbit's later
    points only when the build at its first point failed for a reason other
    than `SeedError`, which holds at every point of an orbit or at none.
    A staircase row is empty, with no build, when the whole-set domination
    row of its quadrant's sign (`positive` for `++` and `--`) holds: every
    primitive rectangle of the sign meets the other set, so none seeds."""

    def __init__(self, A: HyperbolicMatrix, X: MarkedSet, Y: MarkedSet):
        self.X, self.Y = X, Y
        self.frame = eigenframe(A)
        self._rows = {}

    def profile(self) -> dict:
        """The disjointness profile: its booleans in X+, X-, Y+, Y- order,
        each true when some primitive rectangle of that set and sign misses
        the other set's lift, with their `case_label`.  They are read off
        the domination rows, with no census: a row has no certificate
        exactly when such a rectangle exists, on sets of any number of
        orbits, since the census and the domination analysis both read the
        whole period family at each orbit's first point."""
        b = tuple(self.row(own, sign).cert is None
                  for own, sign in _DOMINATION_VARIANTS)
        case, symmetry = case_label(b)
        return {"booleans": list(b), "case": case, "symmetry": symmetry}

    def row(self, own: str, kind: str, base: tuple | None = None) -> Row:
        key = (own, kind, base)
        found = self._rows.get(key)
        if found is None:
            found = self._rows[key] = self._build(own, kind, base)
        return found

    def _build(self, own: str, kind: str, base: tuple | None) -> Row:
        first, second = (self.X, self.Y) if own == "X" else (self.Y, self.X)
        if kind in ("positive", "negative"):
            if base is not None:
                whole = self.row(own, kind).cert
                return (Row() if whole is None else
                        Row(whole, whole.threshold_at(base)))
            # absent when some primitive rectangle misses the other set
            try:
                analysis = DominationAnalysis(self.frame, first, second,
                                              sign=kind)
            except DominationHypothesisError:
                return Row()
            return Row(analysis, analysis.threshold)
        if self.row(own, _completing_sign(kind)).cert is not None:
            return Row()
        if base is None:
            for orb in first.orbits:
                for p in orb.points:
                    found = self.row(own, kind, p)
                    if found.cert is not None:
                        return found
                    if isinstance(found.error, SeedError):
                        break
            return Row()
        try:
            st = build_staircase(self.frame, first, second, base, kind)
        except StaircaseError as err:
            return Row(error=err)
        return Row(st, incompleteness_threshold(st))

    def thresholds(self) -> dict:
        """The four domination and four incompleteness thresholds (None
        where no certificate exists), as the thresholds command prints."""
        return {"domination": {f"{own}-{sign}": self.row(own, sign).threshold
                               for own, sign in _DOMINATION_VARIANTS},
                "incompleteness": {f"{own}-{q}": self.row(own, q).threshold
                                   for own in "XY" for q in ("++", "+-")}}


@functools.lru_cache(maxsize=32)
def analysis_of(geometry) -> Analysis:
    """The shared Analysis of a SurgeryProblem.geometry() key.  Its marked
    sets carry characteristic number 0, so problems differing only in their
    strengths share it and none of their strengths is kept."""
    A, x_orbits, y_orbits = geometry

    def untwisted(orbits, role):
        return MarkedSet(tuple(Orbit(points, len(points), 0)
                               for points in orbits), role)

    return Analysis(A, untwisted(x_orbits, "X"), untwisted(y_orbits, "Y"))


def _twists(mset: MarkedSet):
    return tuple(orb.twist for orb in mset.orbits)


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


def _completing_sign(quadrant: str) -> str:
    """The domination sign of direction -d that completes a quadrant of
    direction d, and whose row excludes its staircases: `positive` for ++
    and --, `negative` for +- and -+."""
    return "positive" if quadrant_direction(quadrant) < 0 else "negative"


# (own rectangles, sign)
_DOMINATION_VARIANTS = (("X", "positive"), ("X", "negative"),
                        ("Y", "positive"), ("Y", "negative"))

# the certificate rules in decision order, after the sign rule: (status,
# rule, rows), each row an (own set, sign or quadrant) of `Analysis.row`
_RULES = (
    ("RCoveredPositive", "domination-positive", (("X", "positive"),)),
    ("RCoveredNegative", "domination-negative", (("X", "negative"),)),
    ("RCoveredPositive", "domination-positive-roles-swapped",
     (("Y", "positive"),)),
    ("RCoveredNegative", "domination-negative-roles-swapped",
     (("Y", "negative"),)),
    # a positive X-staircase with a negative Y-staircase, and its mirror
    ("NonRCovered", "staircase-adjacent-quadrants", (("X", "++"), ("Y", "+-"))),
    ("NonRCovered", "staircase-adjacent-quadrants-mirror",
     (("X", "+-"), ("Y", "++"))),
)


def _met(problem: SurgeryProblem, shared: Analysis, own: str, kind: str,
         base: tuple | None = None):
    """(row, twisted set, twists) when the row (own, kind, base) has a
    certificate whose threshold every twist reaches in the row's direction,
    else None.  A domination sign reads the other set's twists in the
    sign's direction; a staircase quadrant reads the own set's twists in
    `quadrant_direction(kind)`.  Both marked sets are nonempty."""
    row = shared.row(own, kind, base)
    if row.cert is None:
        return None
    if kind in ("positive", "negative"):
        twisted = "Y" if own == "X" else "X"
        direction = 1 if kind == "positive" else -1
    else:
        twisted, direction = own, quadrant_direction(kind)
    tw = _twists(problem.X if twisted == "X" else problem.Y)
    # every twist reaches the threshold in the direction when the least does
    if (min(tw) if direction > 0 else -max(tw)) >= row.threshold:
        return row, twisted, tw
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
    shared = problem.analysis()
    for status, rule, rows in _RULES:
        # every row is read before deciding, so which rows get built does
        # not depend on which of them is met
        met = [_met(problem, shared, own, kind) for own, kind in rows]
        if not all(met):
            continue
        if len(rows) == 1:
            (own, sign), (row, twisted, tw) = rows[0], met[0]
            return Verdict(status, rule, {
                "rectangles": own, "sign": sign, "threshold": row.threshold,
                "twisted_set": twisted, "twists": list(tw)})
        evidence = {f"{name}_staircase": row.records()
                    for row, name, _ in met}
        evidence["thresholds"] = {name: row.threshold for row, name, _ in met}
        evidence["twists"] = {name: list(tw) for _, name, tw in met}
        return Verdict(status, rule, evidence)
    diagnostics["profile"] = shared.profile()
    diagnostics["thresholds"] = {
        f"{'staircase' if kind == 'incompleteness' else kind}-{key}": value
        for kind, found in shared.thresholds().items()
        for key, value in found.items() if value is not None}
    return Verdict("Unknown", "no-rule-applies", diagnostics)


# ---------------------------------------------------------------------------
# per-quadrant certificates


def quadrant_report(problem: SurgeryProblem, point, quadrant: str):
    """Certificate for the quadrant at a marked point, or a lift of one,
    given as a point or a pair.

    Returns (status, evidence) with status CompleteCertified (the domination
    threshold is met by the other set's twists), IncompleteCertified (a
    staircase exists and the point's own twists exceed its threshold), or
    Unknown.  A sign with a domination certificate has no staircase row.
    """
    sign = _completing_sign(quadrant)
    shared = problem.analysis()
    k, X, Y = point = as_point(point)
    base = k, X % k, Y % k
    if base in problem.X.index:
        own, other = "X", problem.Y
    elif base in problem.Y.index:
        own, other = "Y", problem.X
    else:
        raise ValueError(f"{point} is not a marked point")
    if other.is_empty():
        return "Unknown", {}
    if met := _met(problem, shared, own, sign, base):
        row, _, tw = met
        return "CompleteCertified", {"threshold": row.threshold,
                                     "other_twists": list(tw)}
    if met := _met(problem, shared, own, quadrant, base):
        row, _, tw = met
        return "IncompleteCertified", {"threshold": row.threshold,
                                       "own_twists": list(tw),
                                       "staircase": row.records()}
    return "Unknown", {}


def verdict_records(verdict: Verdict) -> dict:
    """JSON-ready serialization of a verdict."""
    return {
        "status": verdict.status,
        "rule": verdict.rule,
        "primitive_reduction_assumed": True,
        "evidence": verdict.evidence,
    }
