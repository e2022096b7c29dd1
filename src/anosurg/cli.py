"""Command-line front end: problem ingestion, census / profile / classify /
game / staircase / thresholds commands, JSON results, and SVG figures.

Problem files are JSON:

    {"matrix": [[2, 1], [1, 1]],
     "sets": [{"point": ["1/2", "1/2"], "characteristic_number": 1,
               "role": "Y"}],
     "options": {"budget": 10000}}

Every exact value in machine output is a string ("a/b + c/d*sqrt(D)" or a
plain rational) that the parser round-trips losslessly; output is
byte-identical for identical input.  Exit codes: 0 ok, 1 parse or usage
error or invalid game parameters (an integer in the input with more digits
than the interpreter converts from text is one), 2 unsupported input (a
matrix outside the supported class, a marked orbit longer than
torus.MAX_PERIOD, a figure that cannot be drawn, or a result holding an
integer with more digits than the interpreter converts to text), 3
internal invariant violation.  That digit limit is the interpreter's own,
`sys.get_int_max_str_digits()`, 4300 unless the environment sets it.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .quadfield import QuadFieldError, qn_from_str, qn_to_str
from .torus import (HyperbolicMatrix, InvariantError, MarkedSet, Orbit,
                    PeriodLimitError, UnsupportedMatrixError, eigenframe,
                    marked_set, orbit_of, point, quadrant_direction)
from .rectangles import (census_records, disjoint_witness, enumerate_primitive,
                         is_primitive, marked_rect, rect_meets)
from .game import (DEFAULT_BUDGET, GameConfig, GameError, game_trace_records,
                   play_game)
from .staircase import (StaircaseError, build_staircase, containment_check,
                        incompleteness_threshold, staircase_records)
from .classify import Analysis, SurgeryProblem, classify, verdict_records
from . import svgfig


class ParseError(ValueError):
    """Malformed problem file or argument; the message names the field."""


def _digit_limit(e: Exception) -> str | None:
    """For the interpreter's refusal to convert an integer of more than
    `sys.get_int_max_str_digits()` digits to or from text, that limit in
    words; None for any other error."""
    if not str(e).startswith("Exceeds the limit ("):
        return None
    return f"an integer of more than {sys.get_int_max_str_digits()} digits"


# ---------------------------------------------------------------------------
# problem ingestion


def _fraction(value, where):
    """A rational from a string 'p/q' or an integer.  A JSON float is
    refused: its binary value is not the decimal written in the file."""
    if not (isinstance(value, str) or _is_int(value)):
        raise ParseError(f"{where}: expected a string 'p/q' or an integer, "
                         f"got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"{where}: " + (
            _digit_limit(e) or f"not a rational 'p/q': {value!r}"))


def _is_int(value) -> bool:
    """A JSON integer: not a float, a string or a boolean."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_problem(data: dict):
    """Parse a problem dict -> (matrix, {'X','Y'} marked sets, options).
    The seeds' orbits must be pairwise disjoint, across both roles."""
    if not isinstance(data, dict):
        raise ParseError("problem: expected a JSON object")
    try:
        rows = data["matrix"]
    except KeyError:
        raise ParseError("matrix: missing")
    try:
        (a, b), (c, d) = rows
        if not all(map(_is_int, (a, b, c, d))):
            raise TypeError
    except (TypeError, ValueError):
        raise ParseError("matrix: expected 2x2 integer rows")
    A = HyperbolicMatrix(a, b, c, d)
    entries = data.get("sets", [])
    if not isinstance(entries, list):
        raise ParseError("sets: expected a list")
    orbits = {"X": [], "Y": []}
    owner = {}          # marked point -> index of the entry whose orbit has it
    for i, entry in enumerate(entries):
        where = f"sets[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: expected an object")
        role = entry.get("role")
        if role not in ("X", "Y"):
            raise ParseError(f"{where}.role: expected 'X' or 'Y', got {role!r}")
        pt = entry.get("point")
        if not (isinstance(pt, (list, tuple)) and len(pt) == 2):
            raise ParseError(f"{where}.point: expected a pair of rationals")
        p = point(_fraction(pt[0], f"{where}.point[0]"),
                  _fraction(pt[1], f"{where}.point[1]"))
        char = entry.get("characteristic_number", 0)
        if not _is_int(char):
            raise ParseError(f"{where}.characteristic_number: expected an integer")
        try:
            pts, period = orbit_of(A, p)
        except PeriodLimitError as e:
            raise PeriodLimitError(f"{where}.point: {e}") from None
        for q in pts:
            if q in owner:
                raise ParseError(f"{where}.point: its orbit meets the orbit "
                                 f"of sets[{owner[q]}]")
            owner[q] = i
        orbits[role].append(Orbit(tuple(pts), period, char))
    sets = {role: MarkedSet(tuple(orbits[role]), role) for role in ("X", "Y")}
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ParseError("options: expected an object")
    budget = opts.get("budget", DEFAULT_BUDGET)
    if not (_is_int(budget) and budget >= 1):
        raise ParseError("options.budget: expected a positive integer")
    return A, sets, {"budget": budget}


def _read_problem(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ParseError(f"problem file: {e}")
    except json.JSONDecodeError as e:
        raise ParseError(f"problem file: invalid JSON: {e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"problem file: not UTF-8 text: {e}") from None
    except ValueError as e:
        limit = _digit_limit(e)
        if limit is None:
            raise
        raise ParseError(f"problem file: {limit}") from None
    return load_problem(data)


def _int_option(text):
    """An integer option's value; one past the digit limit is refused with
    the limit named, not echoed, and any other with argparse's message."""
    try:
        return int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            _digit_limit(e) or f"invalid int value: {text!r}") from None


def _parse_point(text):
    parts = str(text).split(",")
    if len(parts) != 2:
        raise ParseError(f"point: expected 'x,y', got {text!r}")
    return point(_fraction(parts[0], "point[0]"), _fraction(parts[1], "point[1]"))


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out or sys.stdout).write(text)


def _write_svg(path, text):
    with open(path, "w") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_census(args):
    A, sets, _ = _read_problem(args.problem)
    frame = eigenframe(A)
    own = sets[args.set]
    if own.is_empty():
        raise ParseError(f"sets: no points with role {args.set!r}")
    signs = ("positive", "negative") if args.sign == "both" else (args.sign,)
    reps = {sign: enumerate_primitive(frame, own, sign) for sign in signs}
    _emit({
        "matrix": [[A.a, A.b], [A.c, A.d]],
        "set": args.set,
        "census": {sign: census_records(r) for sign, r in reps.items()},
    })
    if args.svg:
        allreps = [r for sign in signs for r in reps[sign]]
        _write_svg(args.svg, svgfig.census_figure(
            frame, allreps, (sets["X"], sets["Y"])))
    return 0


def _cmd_profile(args):
    A, sets, _ = _read_problem(args.problem)
    X, Y = sets["X"], sets["Y"]
    if X.is_empty() or Y.is_empty():
        raise ParseError("sets: profile needs nonempty X and Y")
    analysis = Analysis(A, X, Y)
    prof = analysis.profile()
    variants = {"pos_x": (X, Y, "positive"), "neg_x": (X, Y, "negative"),
                "pos_y": (Y, X, "positive"), "neg_y": (Y, X, "negative")}
    _emit({
        "booleans": {f"{k}_disjoint": b for k, b in zip(
            variants, prof["booleans"])},
        "case": prof["case"],
        "symmetry": prof["symmetry"],
        "primitive_reduction_assumed": True,
        # a false boolean is a domination certificate and needs no census
        "witnesses": {
            k: census_records([disjoint_witness(analysis.frame, *v)])[0]
            for (k, v), b in zip(variants.items(), prof["booleans"]) if b},
    })
    return 0


def _cmd_classify(args):
    A, sets, _ = _read_problem(args.problem)
    verdict = classify(SurgeryProblem(A, sets["X"], sets["Y"]))
    _emit(verdict_records(verdict))
    return 0


def _cmd_game(args):
    A, sets, options = _read_problem(args.problem)
    frame = eigenframe(A)
    try:
        t0 = qn_from_str(args.t0, frame.D)
        r = qn_from_str(args.r, frame.D)
    except QuadFieldError as e:
        raise ParseError(f"t0/r: {e}")
    except ValueError as e:
        limit = _digit_limit(e)
        if limit is None:
            raise
        raise ParseError(f"t0/r: {limit}") from None
    p = _parse_point(args.point)
    cfg = GameConfig(frame, (sets["X"], sets["Y"]), args.quadrant)
    budget = args.budget if args.budget is not None else options["budget"]
    outcome = play_game(cfg, p, t0, r, budget)
    _emit({
        "status": outcome.status,
        "final_t": None if outcome.final_t is None else qn_to_str(outcome.final_t),
        "crossings": game_trace_records(outcome),
    })
    if args.svg:
        _write_svg(args.svg, svgfig.game_figure(
            outcome, t0, r, y_points=sets["Y"].points))
    return 0


def _cmd_staircase(args):
    A, sets, _ = _read_problem(args.problem)
    own = sets[args.set]
    other = sets["Y" if args.set == "X" else "X"]
    if own.is_empty():
        raise ParseError(f"sets: no points with role {args.set!r}")
    origin = _parse_point(args.origin) if args.origin else own.points[0]
    if own.locate(origin) is None:
        raise ParseError(f"origin: {args.origin} is not a lift of a point "
                         f"with role {args.set!r}")
    try:
        st = build_staircase(eigenframe(A), own, other, origin, args.quadrant)
    except StaircaseError as e:
        _emit({"staircase": None, "reason": str(e)})
        if args.svg:
            raise svgfig.FigureError(
                "staircase figure: there is no staircase to draw") from None
        return 0
    n = incompleteness_threshold(st)
    _emit({
        "staircase": staircase_records(st),
        "incompleteness_threshold": n,
        "containment_at_threshold": containment_check(
            st, quadrant_direction(args.quadrant) * n),
    })
    if args.svg:
        _write_svg(args.svg, svgfig.staircase_figure(st))
    return 0


def _cmd_thresholds(args):
    A, sets, _ = _read_problem(args.problem)
    X, Y = sets["X"], sets["Y"]
    if X.is_empty() or Y.is_empty():
        raise ParseError("sets: thresholds need nonempty X and Y")
    _emit(Analysis(A, X, Y).thresholds())
    return 0


# ---------------------------------------------------------------------------
# embedded fixtures and the examples command

FIXTURES = {
    "a2_half": {
        "matrix": [[2, 1], [1, 1]],
        "sets": [
            {"point": ["0", "0"], "characteristic_number": -1, "role": "X"},
            {"point": ["1/2", "1/2"], "characteristic_number": 1, "role": "Y"},
        ],
    },
    "b2_half": {
        "matrix": [[13, 8], [8, 5]],
        "sets": [
            {"point": ["0", "0"], "characteristic_number": -2, "role": "X"},
            {"point": ["1/2", "1/2"], "characteristic_number": 2, "role": "Y"},
        ],
    },
    "case3": {
        "matrix": [[3, 2], [4, 3]],
        "sets": [
            {"point": ["0", "0"], "characteristic_number": 1, "role": "X"},
            {"point": ["0", "1/2"], "characteristic_number": -1, "role": "Y"},
        ],
    },
}


def _run_examples(out):
    """The built-in fixture suite; returns the number of failures."""
    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
            detail = ""
        except Exception as e:          # report, never crash the suite
            ok, detail = False, f" ({type(e).__name__}: {e})"
        checks.append((name, ok, detail))

    def halves_cover(rows):
        A = HyperbolicMatrix.from_rows(rows)
        frame = eigenframe(A)
        X = marked_set(A, [(point(0, 0), 0)], "X")
        halves = [point(0, "1/2"), point("1/2", 0), point("1/2", "1/2")]
        seeds, covered = [], set()
        for p in halves:                # the three points may share orbits
            if p not in covered:
                seeds.append((p, 0))
                covered |= set(orbit_of(A, p)[0])
        H = marked_set(A, seeds, "Y")
        assert set(H.points) == set(halves)
        return all(disjoint_witness(frame, X, H, sign) is None
                   for sign in ("positive", "negative"))

    for k in (2, 3, 4):
        rows = [[k, k - 1], [1, 1]]
        check(f"integer-rectangles-meet-half-integers [[{k},{k-1}],[1,1]]",
              lambda rows=rows: halves_cover(rows))
    check("integer-rectangles-meet-half-integers [[3,2],[4,3]]",
          lambda: halves_cover([[3, 2], [4, 3]]))

    def disjoint_census(rows):
        A = HyperbolicMatrix.from_rows(rows)
        frame = eigenframe(A)
        X = marked_set(A, [(point(0, 0), 0)], "X")
        Y = marked_set(A, [(point("1/2", "1/2"), 0)], "Y")
        return all(disjoint_witness(frame, X, Y, sign) is not None
                   for sign in ("positive", "negative"))

    A2 = HyperbolicMatrix(2, 1, 1, 1)
    A3 = HyperbolicMatrix(3, 2, 1, 1)
    check("cube-of-[[2,1],[1,1]]: both-sign rectangles avoid (1/2,1/2)-orbit",
          lambda: disjoint_census(A2.power_rows(3)))
    check("square-of-[[3,2],[1,1]]: both-sign rectangles avoid (1/2,1/2)-orbit",
          lambda: disjoint_census(A3.power_rows(2)))

    def b2_unit_rectangle():
        A = HyperbolicMatrix.from_rows(A2.power_rows(3))
        frame = eigenframe(A)
        X = marked_set(A, [(point(0, 0), 0)], "X")
        Y = marked_set(A, [(point("1/2", "1/2"), 0)], "Y")
        mr = marked_rect(frame, X, point(0, 0), point(1, 0), "positive")
        return is_primitive(frame, mr, X) and not rect_meets(frame, mr, Y)

    check("cube-of-[[2,1],[1,1]]: unit horizontal diagonal is a disjoint witness",
          b2_unit_rectangle)

    def case3_profile():
        A, sets, _ = load_problem(dict(FIXTURES["case3"]))
        prof = Analysis(A, sets["X"], sets["Y"]).profile()
        return (prof["booleans"] == [True, False, True, False]
                and prof["case"] == 3)

    check("[[3,2],[4,3]] with (0,1/2)-orbit: one-sided profile (case 3)", case3_profile)

    def a2_classify():
        A, sets, _ = load_problem(dict(FIXTURES["a2_half"]))
        v = classify(SurgeryProblem(A, sets["X"], sets["Y"]))
        return v.status == "RCoveredPositive" and v.rule.startswith("domination")

    check("[[2,1],[1,1]] fixture: strong positive surgery dominates", a2_classify)

    failures = 0
    for name, ok, detail in checks:
        out.write(f"{'PASS' if ok else 'FAIL'}  {name}{detail}\n")
        failures += 0 if ok else 1
    out.write(f"{len(checks) - failures}/{len(checks)} checks passed\n")
    return failures


def _cmd_examples(args):
    failures = _run_examples(sys.stdout)
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# entry point


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is invalid input, exit 1: argparse's own exit 2 is this
    CLI's code for an unsupported matrix.  Subparsers share the class."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def _build_parser():
    p = _ArgumentParser(
        prog="anosurg",
        description="Exact rectangle censuses, holonomy games, staircases and "
                    "classification for surgered suspension Anosov flows.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("census", _cmd_census, help="primitive rectangle census")
    sp.add_argument("problem")
    sp.add_argument("--set", choices=("X", "Y"), default="X")
    sp.add_argument("--sign", choices=("positive", "negative", "both"),
                    default="both")
    sp.add_argument("--svg", metavar="PATH")

    sp = add("profile", _cmd_profile, help="disjointness case profile")
    sp.add_argument("problem")

    sp = add("classify", _cmd_classify, help="full classification verdict")
    sp.add_argument("problem")

    sp = add("game", _cmd_game, help="run the holonomy crossing game")
    sp.add_argument("problem")
    sp.add_argument("--point", required=True, help="start point 'x,y'")
    sp.add_argument("--t0", required=True, help="initial offset (exact string)")
    sp.add_argument("--r", required=True, help="target height (exact string)")
    sp.add_argument("--quadrant", choices=("++", "--", "+-", "-+"), default="++")
    sp.add_argument("--budget", type=_int_option)
    sp.add_argument("--svg", metavar="PATH")

    sp = add("staircase", _cmd_staircase, help="build and verify a staircase")
    sp.add_argument("problem")
    sp.add_argument("--set", choices=("X", "Y"), default="X")
    sp.add_argument("--origin", help="origin lift 'x,y' (default: first point)")
    sp.add_argument("--quadrant", choices=("++", "--", "+-", "-+"), default="++")
    sp.add_argument("--svg", metavar="PATH")

    sp = add("thresholds", _cmd_thresholds,
             help="domination and incompleteness thresholds")
    sp.add_argument("problem")

    add("examples", _cmd_examples, help="run the built-in fixture suite")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "quadrant", None) == []:
            args.quadrant = "--"    # argparse stores '--quadrant=--' as []
        return args.fn(args)
    except (ParseError, GameError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (UnsupportedMatrixError, PeriodLimitError,
            svgfig.FigureError) as e:
        print(f"unsupported: {e}", file=sys.stderr)
        return 2
    except InvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        limit = _digit_limit(e)
        if limit is None:
            raise
        print(f"unsupported: a result holds {limit}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
