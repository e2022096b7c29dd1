"""Exact arithmetic in Q(sqrt(D)): worked values, field axioms, exact signs
and floors, string round-trips, error handling, agreement with a Fraction
oracle on big coefficients, correctly rounded float conversion (exact, and
from a fixed-point square root with an exact fallback), the eigenframe's
exact integer logarithm to base lam and the error bounds of its estimate,
the absence of floats from the engine's decisions, of powers and
logarithms outside the eigenframe, of the frame's integer forms outside
torus and of Fraction arithmetic after parsing
(loading a problem, classification and quadrant reports, staircases, the
census, games and the group action), the period family as the only caller of
the primitive-family walk, and the eigenframe as the only geometry
argument of the public API."""

import ast
import inspect
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import anosurg
from anosurg import quadfield, torus
from anosurg import (GameConfig, HyperbolicMatrix, QuadFieldError, QuadNum,
                     SurgeryProblem, build_staircase, classify, eigenframe,
                     enumerate_primitive, play_game, qn_floor, qn_from_str,
                     qn_pow, qn_to_str, quadrant_report)
from anosurg.classify import analysis_of
from anosurg.cli import FIXTURES, load_problem
from anosurg.torus import group_element, point

from conftest import A2, half_orbit_set, zero_orbit_set

from oracles import (OracleQuad, _group_act, _group_power, oracle_log2_bounds,
                     oracle_log_floor)

LAM = QuadNum(Fraction(3, 2), Fraction(1, 2), 5)     # (3 + sqrt(5)) / 2

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
quadnums = st.builds(QuadNum, rationals, rationals, st.just(5))

FIELDS = (5, 8, 12, 32, 165)
# a unit of norm 1 in each field: its negative powers have huge coefficients
# p, q with p + q*sqrt(D) tiny, so they cancel almost completely
UNITS = {5: LAM, 8: QuadNum(3, 1, 8), 12: QuadNum(2, Fraction(1, 2), 12),
         32: QuadNum(3, Fraction(1, 2), 32),
         165: QuadNum(Fraction(13, 2), Fraction(1, 2), 165)}
big_rationals = st.builds(Fraction, st.integers(-2 ** 400, 2 ** 400),
                          st.integers(1, 2 ** 300))
big_operands = st.one_of(st.integers(-2 ** 300, 2 ** 300), big_rationals)


@st.composite
def near_conjugates(draw, D):
    """(a, b) with a ~ -b*sqrt(D): p + q*sqrt(D) within a few units of 0."""
    q = draw(st.integers(-2 ** 600, 2 ** 600).filter(bool))
    p = -math.isqrt(q * q * D) * (1 if q > 0 else -1) + draw(
        st.integers(-3, 3))
    d = draw(st.integers(1, 2 ** 64))
    return Fraction(p, d), Fraction(q, d)


class TestWorkedValues:
    def test_golden_unit_inverse(self):
        assert LAM * (1 / LAM) == QuadNum(1, 0, 5)

    def test_cube(self):
        assert qn_pow(LAM, 3) == QuadNum(9, 4, 5)

    def test_square(self):
        assert LAM * LAM == QuadNum(Fraction(7, 2), Fraction(3, 2), 5)

    def test_negative_power_is_inverse_power(self):
        assert qn_pow(LAM, -3) == 1 / qn_pow(LAM, 3)
        assert qn_pow(LAM, 0) == QuadNum(1, 0, 5)

    def test_signs(self):
        assert QuadNum(0, 0, 5).sign() == 0
        assert QuadNum(-3, 2, 5).sign() == 1        # -3 + 2*sqrt(5) > 0
        assert QuadNum(3, -2, 5).sign() == -1

    def test_floors(self):
        assert qn_floor(LAM) == 2
        assert qn_floor(QuadNum(7, 0, 5)) == 7
        assert qn_floor(-LAM) == -3


class TestFieldAxioms:
    @given(quadnums, quadnums, quadnums)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == QuadNum(0, 0, 5)

    @given(quadnums)
    def test_multiplicative_inverse(self, x):
        if x.sign() == 0:
            with pytest.raises(QuadFieldError):
                _ = 1 / x
        else:
            assert x * (1 / x) == QuadNum(1, 0, 5)

    @given(quadnums, quadnums)
    def test_sign_is_multiplicative(self, x, y):
        assert (x * y).sign() == x.sign() * y.sign()

    @given(quadnums, quadnums)
    def test_order_respects_addition(self, x, y):
        assert (x < y) == ((y - x).sign() == 1)

    @given(quadnums)
    def test_floor_brackets_value(self, x):
        f = qn_floor(x)
        assert QuadNum(f, 0, 5) <= x < QuadNum(f + 1, 0, 5)

    @given(quadnums, quadnums)
    def test_float_is_consistent(self, x, y):
        assert abs(float(x + y) - (float(x) + float(y))) < 1e-6
        assert abs(float(x * y) - float(x) * float(y)) < 1e-3


class TestStrings:
    def test_rational_rendering(self):
        assert qn_to_str(QuadNum(Fraction(7, 2), 0, 5)) == "7/2"
        assert qn_to_str(LAM) == "3/2 + 1/2*sqrt(5)"
        assert qn_to_str(QuadNum(1, -2, 5)) == "1 - 2*sqrt(5)"

    @given(quadnums)
    def test_round_trip(self, x):
        assert qn_from_str(qn_to_str(x), 5) == x

    def test_parse_without_default_d(self):
        assert qn_from_str("3/2 + 1/2*sqrt(5)") == LAM
        with pytest.raises(QuadFieldError):
            qn_from_str("7/2")        # rational text needs a default D

    def test_parse_failures(self):
        with pytest.raises(QuadFieldError):
            qn_from_str("not a number", 5)
        with pytest.raises(QuadFieldError):
            qn_from_str("1 + 2*sqrt(8)", 5)   # mismatched D


class TestErrors:
    def test_mixed_fields_rejected(self):
        # the operators read a QuadNum operand of their own D directly;
        # another D still raises, from every operator
        x, y = QuadNum(1, 1, 5), QuadNum(1, 1, 8)
        for op in (operator.add, operator.sub, operator.mul,
                   operator.truediv, operator.lt, operator.le, operator.gt,
                   operator.ge):
            with pytest.raises(QuadFieldError):
                op(x, y)

    def test_bad_d(self):
        with pytest.raises(QuadFieldError):
            QuadNum(1, 1, 4)        # perfect square
        with pytest.raises(QuadFieldError):
            QuadNum(1, 1, -5)
        with pytest.raises(QuadFieldError):
            QuadNum(1, 1)           # nonzero irrational part needs D

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            _ = LAM * 0.5

    def test_immutability(self):
        with pytest.raises(AttributeError):
            LAM.a = Fraction(1)

    def test_integer_coercion(self):
        assert LAM + 1 == QuadNum(Fraction(5, 2), Fraction(1, 2), 5)
        assert 2 * LAM == QuadNum(3, 1, 5)
        assert LAM - Fraction(1, 2) == QuadNum(1, Fraction(1, 2), 5)


def assert_matches(got, want):
    assert (got.a, got.b, got.D) == (want.a, want.b, want.D)


class TestAgainstFractionOracle:
    """The integer (p, q, d) representation against the Fraction formulas."""

    @pytest.mark.parametrize("D", FIELDS)
    @given(data=st.data())
    def test_field_operations(self, D, data):
        pair = st.one_of(st.tuples(big_rationals, big_rationals),
                         near_conjugates(D))
        (a, b), (c, e) = data.draw(pair), data.draw(pair)
        x, y = QuadNum(a, b, D), QuadNum(c, e, D)
        ox, oy = OracleQuad(a, b, D), OracleQuad(c, e, D)
        assert_matches(x + y, ox + oy)
        assert_matches(x - y, ox - oy)
        assert_matches(x * y, ox * oy)
        if oy.sign():
            assert_matches(x / y, ox / oy)
        else:
            with pytest.raises(QuadFieldError):
                _ = x / y
        assert x.sign() == ox.sign()
        diff = (ox - oy).sign()
        assert ((x < y), (x <= y), (x > y), (x >= y), (x == y)) == \
            (diff < 0, diff <= 0, diff > 0, diff >= 0, diff == 0)
        assert qn_floor(x) == ox.floor()
        assert qn_to_str(x) == ox.to_str()
        assert repr(x) == f"QuadNum({a!r}, {b!r}, D={D})"

    @pytest.mark.parametrize("D", FIELDS)
    @given(big_rationals, big_rationals, big_operands)
    def test_mixed_int_and_fraction_operands(self, D, a, b, r):
        x, ox, orr = QuadNum(a, b, D), OracleQuad(a, b, D), OracleQuad(r, 0, D)
        assert_matches(x + r, ox + r)
        assert_matches(r + x, ox + r)
        assert_matches(x - r, ox - r)
        assert_matches(r - x, orr - ox)
        assert_matches(x * r, ox * r)
        assert_matches(r * x, ox * r)
        if r:
            assert_matches(x / r, ox / r)
        if ox.sign():
            assert_matches(r / x, orr / ox)
        diff = (ox - r).sign()
        assert ((x < r), (x <= r), (x > r), (x >= r)) == \
            (diff < 0, diff <= 0, diff > 0, diff >= 0)
        assert ((r < x), (r > x)) == (diff > 0, diff < 0)
        assert (x == r) == (b == 0 and a == r)

    @pytest.mark.parametrize("D", FIELDS)
    @given(big_operands, big_rationals)
    def test_rational_values_equal_and_hash_like_int_and_fraction(
            self, D, r, b):
        for x in (QuadNum(r, 0, D),
                  QuadNum(r, b, D) - QuadNum(0, b, D),
                  QuadNum(r, b, D) * QuadNum(1, 0, D) - b * QuadNum(0, 1, D)):
            assert x == r and r == x and x == Fraction(r)
            assert hash(x) == hash(r) == hash(Fraction(r))
            assert len({x, r, Fraction(r)}) == 1
        if b:
            irrational = QuadNum(r, b, D)
            assert irrational != r and r != irrational
            assert hash(irrational) == hash(QuadNum(r, b, D))


def fast_float(x: QuadNum) -> float:
    """x's double from its integers and the fixed-point root of its field."""
    p, q, d = quadfield._parts(x)
    return quadfield.rounded_float(p, q, d, x.D, quadfield.fixed_root(x.D))


def assert_correctly_rounded(x: QuadNum):
    """float(x) and fast_float(x) are the double nearest to x."""
    assert_rounds_to(x, float(x))
    assert_rounds_to(x, fast_float(x))


def assert_rounds_to(x: QuadNum, c: float):
    """c is the double nearest to x, decided by the Fraction oracle; it also
    agrees with the 64-bit truncation floor(x*2^64)/2^64."""
    ox = OracleQuad(x.a, x.b, x.D)
    below = (Fraction(math.nextafter(c, -math.inf)) + Fraction(c)) / 2
    above = (Fraction(c) + Fraction(math.nextafter(c, math.inf))) / 2
    assert (ox - below).sign() >= 0 and (ox - above).sign() <= 0
    truncated = Fraction((ox * 2 ** 64).floor(), 2 ** 64)
    assert abs(Fraction(c) - truncated) <= \
        Fraction(math.ulp(c)) / 2 + Fraction(1, 2 ** 64)


class TestFloatConversion:
    @pytest.mark.parametrize("D", FIELDS)
    @given(st.integers(1, 300), st.integers(-5, 5).filter(bool), rationals)
    def test_unit_powers_plus_rational(self, D, n, c, r):
        # r + c*u^(-n): coefficients of ~n bits that cancel down to about r
        x = r + c * qn_pow(UNITS[D], -n)
        assert_correctly_rounded(x)
        assert_correctly_rounded(-x)

    @pytest.mark.parametrize("D", FIELDS)
    @given(data=st.data())
    def test_near_conjugate_coefficients(self, D, data):
        a, b = data.draw(near_conjugates(D))
        assert_correctly_rounded(QuadNum(a, b, D))

    @given(quadnums)
    def test_small_values(self, x):
        assert_correctly_rounded(x)

    def test_rational_values_convert_like_fractions(self):
        for r in (Fraction(1, 3), Fraction(-7, 2), Fraction(10 ** 30, 7), 0):
            assert float(QuadNum(r, 0, 5)) == float(r)
            assert fast_float(QuadNum(r, 0, 5)) == float(r)

    def test_fast_conversion_takes_both_paths(self, monkeypatch):
        # r + c*u^(-n) brackets within a few bits for small n; for large n
        # its coefficients cancel far below the root's 128 fractional bits,
        # so the bracket straddles a double and the exact routine decides
        exact, fallbacks = quadfield._to_float, []
        monkeypatch.setattr(quadfield, "_to_float",
                            lambda *v: fallbacks.append(v) or exact(*v))
        taken = []
        for D in FIELDS:
            for n in (1, 2, 3, 60, 200):
                for c in (1, -2):
                    x = Fraction(1, 3) + c * qn_pow(UNITS[D], -n)
                    before = len(fallbacks)
                    assert_rounds_to(x, fast_float(x))
                    taken.append(len(fallbacks) > before)
        assert any(taken) and not all(taken)


# the eigenframes of the A2, B2 and case3 fixture matrices
FRAMES = {name: eigenframe(HyperbolicMatrix.from_rows(rows))
          for name, rows in (("A2", ((2, 1), (1, 1))),
                             ("B2", ((13, 8), (8, 5))),
                             ("case3", ((3, 2), (4, 3))))}


@st.composite
def log_cases(draw, lam):
    """(x, m): a base lam^m (m <= 4) and x in lam's field, an exact power of
    the base, one just above or below it, or any positive value with
    coefficients of several hundred bits (near 0, near 1 or huge)."""
    D = lam.D
    m = draw(st.integers(1, 4))
    base = qn_pow(lam, m)
    power = st.integers(-60, 60).map(lambda k: qn_pow(base, k))
    nudge = st.builds(lambda sgn, e: 1 + Fraction(sgn, 2 ** e),
                      st.sampled_from((-1, 1)), st.integers(1, 300))
    big = st.one_of(st.tuples(big_rationals, big_rationals),
                    near_conjugates(D)).map(lambda ab: QuadNum(*ab, D))
    x = draw(st.one_of(power, st.builds(lambda p, e: p * e, power, nudge),
                       big.filter(lambda v: v > 0)))
    return x, m


class TestLogFloor:
    """`EigenFrame.log_floor`, the greatest n with lam^n <= x; to base
    lam^m it is floor(log_floor(x) / m)."""

    @pytest.mark.parametrize("frame", sorted(FRAMES))
    @given(data=st.data())
    def test_matches_linear_oracle(self, frame, data):
        frame = FRAMES[frame]
        lam = frame.lam
        x, m = data.draw(log_cases(lam))
        k = frame.log_floor(x) // m
        assert k == oracle_log_floor(x, qn_pow(lam, m))
        assert qn_pow(lam, k * m) <= x < qn_pow(lam, (k + 1) * m)

    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_int_and_fraction_arguments(self, frame):
        frame = FRAMES[frame]
        values = list(range(1, 300, 7)) + [
            Fraction(1, n) for n in range(2, 300, 7)] + [
            Fraction(9, 10), Fraction(10 ** 40, 3), Fraction(3, 10 ** 40)]
        for x in values:
            assert frame.log_floor(x) == oracle_log_floor(x, frame.lam)

    @pytest.mark.parametrize("frame", sorted(FRAMES))
    def test_exact_on_and_beside_each_rung(self, frame):
        # lam^n and lam^n (1 +- 2^-k): the estimate answers without a rung
        # test only when its error band cannot reach a rung, so a value
        # within 2^-64 of one is still put on its side
        frame = FRAMES[frame]
        lam = frame.lam
        for n in range(-30, 31):
            rung = qn_pow(lam, n)
            for x in [rung] + [rung * (1 + Fraction(sign, 1 << k))
                               for k in (10, 24, 40, 64) for sign in (-1, 1)]:
                assert frame.log_floor(x) == oracle_log_floor(x, lam), (n, x)

    @pytest.mark.parametrize("D", sorted(set(FIELDS) | {f.D for f in
                                                       FRAMES.values()}))
    def test_log2_width_is_within_its_documented_bound(self, D):
        # 0.02 * 2^LOG_BITS, against bounds on the exact logarithm, on
        # seeded values of every size and on values whose p and q*sqrt(D)
        # cancel
        rng = random.Random(D)
        root = quadfield.fixed_root(D)
        cases = []
        for _ in range(150):
            p = rng.randint(-2 ** 400, 2 ** 400) >> rng.randrange(400)
            q = rng.randint(-2 ** 400, 2 ** 400) >> rng.randrange(401)
            cases.append((p, q))
            qc = rng.choice((-1, 1)) * (rng.randint(1, 2 ** 500)
                                         >> rng.randrange(500))
            pc = -math.isqrt(qc * qc * D) * (1 if qc > 0 else -1)
            cases.append((pc + rng.randint(-3, 3), qc))
        checked = 0
        for p, q in cases:
            if quadfield._sign(p, q, D) <= 0:
                continue
            est = torus._log2_width(p, q, D, root)
            lo, hi = oracle_log2_bounds(p, q, D, quadfield.ROOT_BITS)
            # hi - 0.02 * 2^16 <= est <= lo + 0.02 * 2^16
            assert 100 * hi - 131072 <= 100 * est <= 100 * lo + 131072, \
                (p, q, D)
            checked += 1
        assert checked > 120

    @pytest.mark.parametrize("rows", [((2, 1), (1, 1)), ((13, 8), (8, 5)),
                                      ((3, 2), (4, 3)), ((4, 5), (-1, -1)),
                                      ((7, 6), (1, 1)), ((610, 377),
                                                         (377, 233))])
    def test_log2_lam_is_within_its_documented_bound(self, rows):
        # the logarithms' filter takes log2(lam) * 2^LOG_BITS to lie in
        # [log2_lam, log2_lam + 2)
        frame = eigenframe(HyperbolicMatrix.from_rows(rows))
        p, q, d = quadfield._parts(frame.lam)
        assert d & (d - 1) == 0                  # d is 1 or 2
        lo, hi = oracle_log2_bounds(p, q, frame.D, -(d.bit_length() - 1))
        assert frame.log2_lam <= lo and hi <= frame.log2_lam + 2

    @pytest.mark.parametrize("x", [0, -1, QuadNum(0, 0, 5), -LAM,
                                   QuadNum(2, -1, 5), Fraction(-1, 2)])
    def test_non_positive_argument_rejected(self, x):
        with pytest.raises(QuadFieldError):
            FRAMES["A2"].log_floor(x)


# the modules that make decisions; svgfig draws with floats and cli prints
ENGINE_MODULES = ("torus", "rectangles", "game", "staircase", "classify")
INTEGER_MATH = {"gcd", "isqrt", "lcm"}


class TestNoFloatInDecisions:
    @pytest.mark.parametrize("module", ENGINE_MODULES)
    def test_no_float_call_and_no_float_math(self, module):
        path = Path(anosurg.__file__).with_name(f"{module}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{module}.py:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "float", f"float() call at {where}"
            if isinstance(node, ast.Import):
                assert "math" not in {a.name for a in node.names}, \
                    f"import math at {where}"
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                names = {a.name for a in node.names}
                assert names <= INTEGER_MATH, f"math.{names} at {where}"


# the engine entry points whose one geometry argument is the eigenframe
FRAME_ENTRY_POINTS = {"enumerate_primitive", "disjoint_witness",
                      "DominationAnalysis", "build_staircase"}


def public_signatures():
    """(name, parameters) of every exported function and of the __init__ of
    every exported class that defines one."""
    for name in anosurg.__all__:
        obj = getattr(anosurg, name)
        if isinstance(obj, type):
            obj = vars(obj).get("__init__")
        if inspect.isfunction(obj):
            yield name, inspect.signature(obj).parameters


# the modules that take thresholds and scales from lam's powers and
# logarithms, all of which the eigenframe's ladder provides
LADDER_MODULES = ("rectangles", "game", "staircase", "classify")


class TestOnePowerTable:
    @pytest.mark.parametrize("module", LADDER_MODULES)
    def test_no_power_or_logarithm_helper(self, module):
        path = Path(anosurg.__file__).with_name(f"{module}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{module}.py:{getattr(node, 'lineno', '?')}"
            assert not isinstance(node, ast.Pow), f"** at {where}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "pow", f"pow() call at {where}"
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "quadfield"):
                helpers = {a.name for a in node.names
                           if "pow" in a.name or "log" in a.name}
                assert not helpers, f"quadfield.{helpers} at {where}"


# the names of the frame's integer forms and of a view's integer table,
# which only torus reads: every other module takes a lift's view s and u
# as the (p, q, d) triples that `view_lifts` makes
FORM_NAMES = {"IntForm", "s_int", "u_int", "forms", "affine", "coefficients"}
NOT_TORUS = sorted(path.stem for path in
                   Path(anosurg.__file__).parent.glob("*.py")
                   if path.stem != "torus")


class TestOneCoordinateTable:
    @pytest.mark.parametrize("module", NOT_TORUS)
    def test_no_integer_form_outside_torus(self, module):
        path = Path(anosurg.__file__).with_name(f"{module}.py")
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            assert not names & FORM_NAMES, \
                f"{names & FORM_NAMES} at {module}.py:" \
                f"{getattr(node, 'lineno', '?')}"


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def counted_fraction_operators(monkeypatch):
    """The list to which every Fraction arithmetic operator call appends its
    name, from now until the test ends."""
    calls = []
    for name in FRACTION_OPERATORS:
        def counted(*args, op=getattr(Fraction, name), name=name):
            calls.append(name)
            return op(*args)
        monkeypatch.setattr(Fraction, name, counted)
    return calls


# A2 with X the period-98 orbit of (1/97, 0) at +1 and Y the (0,0) orbit
# at -1, and the fixtures
PERIOD_98 = {"matrix": [[2, 1], [1, 1]], "sets": [
    {"point": ["1/97", "0"], "characteristic_number": 1, "role": "X"},
    {"point": ["0", "0"], "characteristic_number": -1, "role": "Y"}]}
PROBLEMS = {**FIXTURES, "period_98": PERIOD_98}


class TestNoFractionArithmetic:
    """Points are integers (k, X, Y) with the point (X/k, Y/k) from parse
    to print: after the parser has read a coordinate, nothing computes with
    a Fraction."""

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_loading_a_problem_computes_with_no_fraction(self, monkeypatch,
                                                         name):
        calls = counted_fraction_operators(monkeypatch)
        _, sets, _ = load_problem(PROBLEMS[name])
        assert calls == []
        assert sets["X"].points and sets["Y"].points

    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_a_classification_computes_with_no_fraction(self, monkeypatch,
                                                        name):
        A, sets, _ = load_problem(PROBLEMS[name])
        problem = SurgeryProblem(A, sets["X"], sets["Y"])
        analysis_of.cache_clear()       # so that the analysis is counted
        calls = counted_fraction_operators(monkeypatch)
        verdict = classify(problem)
        reports = [quadrant_report(problem, (Fraction(0), Fraction(0)), q)
                   for q in ("++", "+-")]
        assert calls == []
        assert verdict.rule != "sign-rule" and len(reports) == 2

    def test_a_long_orbit_census_computes_with_no_fraction(self,
                                                           monkeypatch):
        A, sets, _ = load_problem(PERIOD_98)
        frame = eigenframe(A)
        calls = counted_fraction_operators(monkeypatch)
        reps = [enumerate_primitive(frame, sets["X"], sign)
                for sign in ("positive", "negative")]
        assert calls == []
        assert all(reps)

    def test_a_game_from_a_fraction_pair_computes_with_no_fraction(
            self, monkeypatch):
        frame = eigenframe(A2)
        config = GameConfig(frame, (zero_orbit_set(A2, 1),
                                    half_orbit_set(A2, 2)), "++")
        lam2 = frame.lam * frame.lam
        t0, r = 1 + (lam2 - 1) * Fraction(1, 3), lam2 * Fraction(7, 3)
        calls = counted_fraction_operators(monkeypatch)
        outcome = play_game(config, (Fraction(0), Fraction(0)), t0, r,
                            budget=400)
        assert calls == []
        assert outcome.trace

    @pytest.mark.parametrize("fixture, quadrant", [
        ("b2_half", "++"), ("b2_half", "+-"), ("case3", "++")])
    def test_a_staircase_build_computes_with_no_fraction(self, monkeypatch,
                                                         fixture, quadrant):
        A, sets, _ = load_problem(FIXTURES[fixture])
        frame = eigenframe(A)
        calls = counted_fraction_operators(monkeypatch)
        st = build_staircase(frame, sets["X"], sets["Y"], (0, 0), quadrant)
        st.verify()
        assert calls == []
        assert len(st.steps) >= 3

    @pytest.mark.parametrize("fixture", ["a2_half", "b2_half", "case3"])
    def test_a_census_computes_with_no_fraction(self, monkeypatch, fixture):
        A, sets, _ = load_problem(FIXTURES[fixture])
        frame = eigenframe(A)
        calls = counted_fraction_operators(monkeypatch)
        reps = [enumerate_primitive(frame, sets["X"], sign)
                for sign in ("positive", "negative")]
        assert calls == []
        assert all(reps)

    def test_the_group_action_computes_with_no_fraction(self, monkeypatch):
        A = HyperbolicMatrix(13, 8, 8, 5)
        src, p = (Fraction(1, 3), Fraction(-5, 6)), (Fraction(7, 4), 2)
        moves = [(k, _group_act((_group_power((A.rows(), (0, 0)), k)[0],
                                 (k, 1 - k)), src)) for k in range(-4, 5)]
        calls = counted_fraction_operators(monkeypatch)
        for k, dst in moves:
            assert group_element(A, k, src, dst).act(point(*p))
            assert group_element(A, k, src, p) is None
        assert calls == []


def enclosing_classes_of_calls(tree, name):
    """The name of the class around each call of `name` in tree, or None
    for a call outside every class."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == name:
                    found.append(owner)
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else owner)

    visit(tree, None)
    return found


class TestOneFamilyWindow:
    def test_primitive_family_is_walked_only_by_period_family(self):
        # one definition of the family's window: the census, the domination
        # analysis and the staircase seed search all read `period_family`
        callers = []
        for path in sorted(Path(anosurg.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            callers += [(path.stem, owner) for owner in
                        enclosing_classes_of_calls(tree, "primitive_family")]
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                    assert "primitive_family" not in names, path.name
        assert callers
        assert set(callers) == {("rectangles", "PeriodFamily")}


class TestFrameIsTheGeometryArgument:
    def test_no_callable_takes_both_a_matrix_and_a_frame(self):
        both = [name for name, params in public_signatures()
                if {"A", "frame"} <= set(params)]
        assert both == []

    def test_frame_parameters_have_no_default(self):
        with_frame = {name: params["frame"]
                      for name, params in public_signatures()
                      if "frame" in params}
        assert FRAME_ENTRY_POINTS <= set(with_frame)
        defaulted = [name for name, param in with_frame.items()
                     if param.default is not inspect.Parameter.empty]
        assert defaulted == []
