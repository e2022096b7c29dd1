"""Hyperbolic matrices, eigenframes, marked orbits, the exact
enumeration of marked lifts in (s, u) boxes, cross-checked against the
brute-force oracle, and the integer group action, cross-checked against
the Fraction oracle."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from anosurg import (GameConfig, InvariantError, MarkedSet, Orbit,
                     QUADRANTS, QuadNum, UnsupportedMatrixError, eigenframe,
                     hits_in_box, marked_set, orbit_of, play_game,
                     point, qn_floor, qn_pow,
                     quadrant_direction, quadrant_view, rectangles,
                     sets_disjoint, torus)
from anosurg.torus import (HyperbolicMatrix, FrameView, box_lifts,
                           group_element)
from anosurg.classify import Analysis, SurgeryProblem, analysis_of
from anosurg.cli import FIXTURES, load_problem
from anosurg.quadfield import ROOT_BITS, _parts

from conftest import (A2, A3, B2, C3, HALF, as_quadnum, half_orbit_set,
                      half_points_set, zero_orbit_set)
from oracles import (_QuadrantCoords, _group_act, _group_power, apply,
                     apply_mod1, balance_power, mod1, oracle_band_hits,
                     oracle_hits, oracle_log2_bounds, oracle_log_floor,
                     oracle_orbit, oracle_point, pair)

coords = st.fractions(min_value=-3, max_value=3, max_denominator=7)


def hit_keys(hits):
    """The hits as oracle_hits lists them, sorted by (s, u)."""
    return sorted(((h.base, h.lattice, h.s, h.u, h.twist) for h in hits),
                  key=lambda h: (h[2], h[3]))


class TestMatricesAndFrames:
    def test_a2_frame(self, frame_a2):
        assert frame_a2.D == 5
        assert frame_a2.lam == QuadNum(Fraction(3, 2), Fraction(1, 2), 5)
        assert frame_a2.lam * frame_a2.lam_inv == QuadNum(1, 0, 5)

    def test_c3_frame(self, frame_c3):
        assert frame_c3.D == 32
        assert frame_c3.lam == QuadNum(3, Fraction(1, 2), 32)

    def test_rejections(self):
        with pytest.raises(UnsupportedMatrixError):
            HyperbolicMatrix(1, 1, 0, 1)          # parabolic
        with pytest.raises(UnsupportedMatrixError):
            HyperbolicMatrix(-2, -1, -1, -1)      # negative trace
        with pytest.raises(UnsupportedMatrixError):
            HyperbolicMatrix(2, 0, 0, 3)          # determinant != 1

    def test_dict_key_records_are_frozen(self):
        A = HyperbolicMatrix(2, 1, 1, 1)
        X = zero_orbit_set(A)
        for record, name in ((A, "a"), (X.orbits[0], "char"), (X, "role")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_frames_compare_by_matrix_not_by_their_caches(self):
        walked = eigenframe(A2)
        fresh = eigenframe(HyperbolicMatrix(2, 1, 1, 1))
        walked.families["a walked family"] = ()
        walked.rung(9)
        assert walked == fresh and hash(walked) == hash(fresh)
        assert walked != eigenframe(A3)

    def test_orbits_and_marked_sets_keep_their_hash_out_of_equality(self):
        hashed, fresh = half_points_set(B2), half_points_set(B2)
        h = hash(hashed)
        assert hashed._hash == h and hash(hashed) == h
        assert hashed.orbits[0]._hash == hash(fresh.orbits[0])
        assert hashed == fresh and hash(fresh) == h
        assert hashed != half_points_set(B2, char=1)
        with pytest.raises(AttributeError):
            hashed._hash = 0

    @given(coords, coords)
    def test_eigen_round_trip(self, x, y):
        frame = eigenframe(A2)
        p = (x, y)
        assert oracle_point(frame, frame.s(p), frame.u(p)) == p

    @given(coords, coords)
    def test_diagonal_action(self, x, y):
        frame = eigenframe(C3)
        p = (x, y)
        ap = apply(C3, p)
        assert frame.s(ap) == frame.lam_inv * frame.s(p)
        assert frame.u(ap) == frame.lam * frame.u(p)


class TestOrbits:
    def test_half_orbit_periods(self):
        assert orbit_of(A2, point(HALF, HALF))[1] == 3
        assert orbit_of(A3, point(HALF, HALF))[1] == 2
        assert orbit_of(A2, point(0, 0))[1] == 1

    def test_orbit_closure(self):
        pts, period = orbit_of(A2, point(HALF, HALF))
        pts = [pair(p) for p in pts]
        assert set(pts) == {(HALF, HALF), (HALF, Fraction(0)),
                            (Fraction(0), HALF)}
        for p in pts:
            assert apply_mod1(A2, p) in pts

    def test_twist_is_char_times_period(self):
        mset = marked_set(A2, [(point(HALF, HALF), 2)], "Y")
        assert mset.locate(point(HALF, 0))[0].twist == 6

    def test_overlapping_seeds_rejected(self):
        with pytest.raises(InvariantError):
            marked_set(A2, [(point(HALF, HALF), 1), (point(HALF, 0), 1)])


# the seven matrices of the certificate sweeps, and integer shifts that
# move a torus point's seed below 0 or above 1
SWEEP_MATRICES = [HyperbolicMatrix(*entries) for entries in (
    (2, 1, 1, 1), (3, 2, 1, 1), (3, 2, 4, 3), (5, 2, 2, 1), (3, 1, 2, 1),
    (5, 4, 1, 1), (4, 5, -1, -1))]
SEED_SHIFTS = ((0, 0), (-1, 2), (3, -2), (-2, -1))


class TestOrbitOracle:
    """`orbit_of` steps a point's integers mod k; `oracles.oracle_orbit`
    steps Fractions with A p mod 1.  Both list the same points in the same
    f_A order."""

    @pytest.mark.parametrize("A", SWEEP_MATRICES, ids=lambda A: str(A.rows()))
    def test_every_seed_of_denominator_at_most_12(self, A):
        for q in range(1, 13):
            for a, b in itertools.product(range(q), repeat=2):
                m, n = SEED_SHIFTS[(a + b) % 4]
                seed = (Fraction(a, q) + m, Fraction(b, q) + n)
                pts, period = orbit_of(A, seed)
                assert ([pair(p) for p in pts], period) == \
                    oracle_orbit(A, seed), (seed, A.rows())
                assert orbit_of(A, point(*seed)) == (pts, period)

    @pytest.mark.parametrize("q, period", [(4001, 1000), (2003, 2004)])
    def test_long_orbits(self, q, period):
        pts, got = orbit_of(A2, (Fraction(1, q), 0))
        assert got == period
        assert ([pair(p) for p in pts], got) == \
            oracle_orbit(A2, (Fraction(1, q), 0))

    def test_the_period_limit_still_holds(self, monkeypatch):
        seed = point(Fraction(1, 97), 0)            # period 98
        monkeypatch.setattr(torus, "MAX_PERIOD", 98)
        assert orbit_of(A2, seed)[1] == 98
        monkeypatch.setattr(torus, "MAX_PERIOD", 97)
        with pytest.raises(torus.PeriodLimitError, match="exceeds 97"):
            orbit_of(A2, seed)
        with pytest.raises(torus.PeriodLimitError, match="exceeds 97"):
            oracle_orbit(A2, pair(seed))


def scanned_place(mset, p):
    """(orbit, place) of p's base point by a linear scan of each orbit's
    points, or None."""
    base = mod1((Fraction(p[0]), Fraction(p[1])))
    for orb in mset.orbits:
        points = [pair(q) for q in orb.points]
        if base in points:
            return orb, points.index(base)
    return None


class TestMarkedSetIndex:
    """`MarkedSet.index` and `locate`, the one lookup from a lift to its
    orbit and place, against linear scans of the orbits' points."""

    SETS = ([marked_set(A2, [(point(Fraction(1, 97), 0), 1)], "X")]
            + [mset for name in sorted(FIXTURES)
               for mset in load_problem(FIXTURES[name])[1].values()])

    @pytest.mark.parametrize("mset", SETS,
                             ids=lambda m: f"{m.role}{len(m.points)}")
    def test_locate_agrees_with_a_scan_on_every_lift(self, mset):
        assert len(mset.index) == len(mset.points)
        for p in mset.points:
            x, y = pair(p)
            for m, n in itertools.product(range(-3, 4), repeat=2):
                lift = (x + m, y + n)
                want = scanned_place(mset, lift)
                assert want is not None and want[0].points[want[1]] == p
                assert mset.locate(lift) == want
                assert mset.locate(point(*lift)) == want
                if lift[0].denominator == lift[1].denominator == 1:
                    assert mset.locate((int(lift[0]), int(lift[1]))) == want

    def test_the_period_98_orbit_is_indexed(self):
        (orb,) = self.SETS[0].orbits
        assert orb.period == 98
        assert [self.SETS[0].index[i] for i in orb.points] == \
            [(orb, i) for i in range(98)]

    @pytest.mark.parametrize("p", [(Fraction(1, 3), 0), (1, 2),
                                   (Fraction(1, 4), Fraction(-5, 4)),
                                   (Fraction(2, 97), 0),
                                   (Fraction(-96, 97), Fraction(1, 97))])
    def test_a_point_off_the_set_is_not_found(self, p):
        mset = marked_set(A2, [(point(Fraction(1, 97), 0), 1),
                               (point(HALF, HALF), -1)])
        assert scanned_place(mset, p) is None
        assert mset.locate(p) is None

    def test_overlapping_orbits_name_the_shared_point(self):
        half, = marked_set(A2, [(point(HALF, HALF), 1)]).orbits
        zero, = zero_orbit_set(A2).orbits
        with pytest.raises(InvariantError, match=r"disjoint at \(2, 1, 1\)"):
            MarkedSet((zero, half, half))
        shifted = Orbit(half.points[1:] + half.points[:1], 3, 2)
        with pytest.raises(InvariantError, match="disjoint at"):
            MarkedSet((half, shifted))

    def test_disjoint_sets_share_no_key(self):
        X = marked_set(A2, [(point(Fraction(1, 97), 0), 1)], "X")
        Y = half_points_set(A2, 1)
        assert sets_disjoint(X, Y) and sets_disjoint(Y, X)
        assert not sets_disjoint(X, X)

    def test_orbit_points_are_in_f_a_order(self):
        # box_lifts takes a renormalized lift's base from its orbit index,
        # so every way of building an orbit must list f_A(points[i]) next
        problem = {"matrix": [[2, 1], [1, 1]], "sets": [
            {"point": ["1/5", "0"], "characteristic_number": 1, "role": "X"},
            {"point": ["1/3", "0"], "characteristic_number": -1, "role": "Y"}]}
        A, sets, _ = load_problem(problem)
        analysis = analysis_of(SurgeryProblem(A, sets["X"], sets["Y"])
                               .geometry())
        orbits = [orbit_of(A2, point(Fraction(2, 5), Fraction(1, 5)))[0]]
        orbits += [orb.points for mset in (sets["X"], sets["Y"], analysis.X,
                                           analysis.Y, kernel_set(A2))
                   for orb in mset.orbits]
        assert sorted(map(len, orbits)) == [1, 3, 3, 4, 4, 4, 10, 10, 10]
        for points in orbits:
            for i, p in enumerate(points):
                assert apply_mod1(A2, pair(p)) == \
                    pair(points[(i + 1) % len(points)])

    def test_scan_plans(self):
        # the game_grid union fills (1/2)Z^2 mod Z^2 and is one coset of
        # it; the period-98 orbit is a coset per point, and an empty set
        # has no coset
        union = GameConfig(eigenframe(A2), (zero_orbit_set(A2, 1),
                                            half_orbit_set(A2, 2)), "++")
        (coset,) = union.marked.plan
        assert coset[:4] == (2, 0, 0, 1)
        assert [(pair(base), scale, twist)
                for base, scale, twist in coset[4]] == [
            ((0, 0), 2, 1), ((0, HALF), 1, 6), ((HALF, 0), 1, 6),
            ((HALF, HALF), 1, 6)]
        (orb,) = self.SETS[0].orbits
        assert [coset[4] for coset in self.SETS[0].plan] == \
            [(orb.points, i, 98, 98) for i in range(98)]
        assert [coset[:4] for coset in self.SETS[0].plan] == \
            [(k, X, Y, k) for k, X, Y in orb.points]
        assert marked_set(A2, [], "Y").plan == ()

    def test_equal_sets_hash_alike_whatever_their_plans(self, monkeypatch):
        seeds = [(point(0, 0), 1), (point(HALF, HALF), -2)]
        dense = marked_set(A2, seeds, "X")
        monkeypatch.setattr(torus, "DENSE", 0)
        sparse = marked_set(A2, seeds, "X")
        assert len(dense.plan) == 1 and len(sparse.plan) == 4
        assert dense == sparse and hash(dense) == hash(sparse)
        assert {dense: "found"}[sparse] == "found"

    @pytest.mark.parametrize("quadrant", QUADRANTS)
    def test_an_unmarked_residue_is_never_a_lift(self, quadrant,
                                                  monkeypatch):
        # 4 of the 9 residues of (1/3)Z^2 that the dense plan scans are
        # unmarked; it finds the lifts that one coset per point finds, in
        # square boxes and in boxes renormalized by j = 2 and -2
        frame = eigenframe(A2)
        view = quadrant_view(frame, quadrant)
        dense = thirds_set(A2)
        monkeypatch.setattr(torus, "DENSE", 0)
        sparse = thirds_set(A2)
        (coset,) = dense.plan
        assert coset[:4] == (3, 0, 0, 1) and coset[4].count(None) == 4
        assert len(sparse.plan) == 5
        lam = frame.lam
        for j in (0, 2, -2):
            w_s, w_u = 6 * lam ** j, 6 * lam ** -j
            box = view.box(*map(_parts, (-w_s / 3, w_s, -w_u / 2, w_u)))
            s_lo, s_hi, u_lo, u_hi = (as_quadnum(x, frame.D) for x in box[:4])
            assert balance_power(frame, s_hi - s_lo, u_hi - u_lo) == j
            got = box_lifts(frame, dense, *box)
            assert len(got) > 20
            for base, (k, X, Y), twist in got:
                lift = (Fraction(X, k), Fraction(Y, k))
                found = dense.locate(lift)
                assert found is not None and found[0].twist == twist
                assert mod1(lift) == pair(base)
            assert sorted(got) == sorted(box_lifts(frame, sparse, *box))


class TestHits:
    def test_unit_square_corners(self, frame_a2):
        view = FrameView(frame_a2)
        X = zero_orbit_set(A2)
        corners = [(0, 0), (1, 0), (0, 1), (1, 1)]
        ss = [frame_a2.s(c) for c in corners]
        us = [frame_a2.u(c) for c in corners]
        box = (min(ss), max(ss), min(us), max(us))
        closed = hits_in_box(view, X, *box, include=(True,) * 4)
        lattices = {h.lattice for h in closed}
        assert {(0, 0), (1, 0), (0, 1), (1, 1)} <= lattices
        interior = hits_in_box(view, X, *box, include=(False,) * 4)
        assert {(0, 0), (1, 1)} & {h.lattice for h in interior} == set()

    def test_matches_oracle_on_random_boxes(self, frame_a2):
        view = FrameView(frame_a2)
        X = zero_orbit_set(A2, 1, "X")
        Y = half_orbit_set(A2, -2, "Y")
        rng = random.Random(20260823)
        for trial in range(25):
            vals = sorted(Fraction(rng.randint(-21, 21), 7) for _ in range(2))
            uvals = sorted(Fraction(rng.randint(-21, 21), 7) for _ in range(2))
            if vals[0] == vals[1] or uvals[0] == uvals[1]:
                continue
            include = tuple(rng.choice([True, False]) for _ in range(4))
            for mset in (X, Y):
                got = hit_keys(hits_in_box(view, mset, vals[0], vals[1],
                                           uvals[0], uvals[1], include))
                want = oracle_hits(frame_a2, mset, vals[0], vals[1],
                                   uvals[0], uvals[1], include)
                assert got == want

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("quadrant", QUADRANTS)
    def test_every_view_matches_the_oracle(self, quadrant, transpose):
        # a quadrant's flips, with s and u exchanged or not: the eight
        # symmetries of the square.  Half the box edges pass through lifts,
        # so that each edge's inclusion decides
        rng = random.Random(f"{quadrant} {transpose}")
        for A in (A2, C3):
            frame = eigenframe(A)
            view = FrameView(frame, quadrant[0] == "-", quadrant[1] == "-",
                             transpose)
            coords = _QuadrantCoords(frame, quadrant, transpose)
            mset = half_points_set(A, 1)

            def edge(coordinate):
                if rng.random() < 0.5:
                    return Fraction(rng.randint(-14, 14), 7)
                x, y = pair(rng.choice(mset.points))
                return coordinate((x + rng.randint(-2, 2),
                                   y + rng.randint(-2, 2)))

            for _ in range(12):
                s_lo, s_hi = sorted((edge(coords.s), edge(coords.s)))
                u_lo, u_hi = sorted((edge(coords.u), edge(coords.u)))
                if s_lo == s_hi or u_lo == u_hi:
                    continue
                include = tuple(rng.choice((True, False)) for _ in range(4))
                hits = hits_in_box(view, mset, s_lo, s_hi, u_lo, u_hi,
                                   include)
                assert hit_keys(hits) == oracle_hits(
                    coords, mset, s_lo, s_hi, u_lo, u_hi, include), \
                    (A.rows(), include)
                # the view's s and u read its coefficient table as the
                # scan's hits do
                assert all((h.s, h.u) == (view.s(h.lift), view.u(h.lift))
                           for h in hits)

    def test_transposed_view_exchanges_s_and_u(self, frame_a2):
        p = (Fraction(1, 3), Fraction(2, 5))
        for q in QUADRANTS:
            view = quadrant_view(frame_a2, q)
            flipped = view.transposed()
            assert (flipped.s(p), flipped.u(p)) == (view.u(p), view.s(p))
            back = flipped.transposed(reverse=True)
            assert (back.s(p), back.u(p)) == (view.s(p), -view.u(p))
            assert not back.transpose and flipped.transpose

    def test_translation_equivariance(self, frame_a2):
        view = FrameView(frame_a2)
        Y = half_orbit_set(A2)
        box = (Fraction(-2), Fraction(2), Fraction(-1), Fraction(3))
        base_hits = hits_in_box(view, Y, *box)
        ds, du = frame_a2.s((2, -1)), frame_a2.u((2, -1))
        moved = hits_in_box(view, Y, box[0] + ds, box[1] + ds,
                            box[2] + du, box[3] + du)
        assert sorted((h.base, h.lattice) for h in moved) == \
            sorted((h.base, (h.lattice[0] + 2, h.lattice[1] - 1))
                   for h in base_hits)

    def test_renormalized_thin_box_matches_square_box(self, frame_a2):
        # the lifts in an extreme-aspect box are the A^power-images of the
        # lifts in its renormalized square partner, so the scan must agree
        # exactly, for powers of either sign
        view = FrameView(frame_a2)
        Y = half_orbit_set(A2)
        box = (Fraction(-1), Fraction(1), Fraction(-1), Fraction(1))
        square = hits_in_box(view, Y, *box)
        for power in (6, 10, -10):
            scale = frame_a2.lam ** power
            thin = hits_in_box(view, Y, box[0] / scale, box[1] / scale,
                               box[2] * scale, box[3] * scale)
            image = HyperbolicMatrix.from_rows(A2.power_rows(power))
            mapped = []
            for h in square:
                img = apply(image, pair(h.lift))
                mapped.append((mod1(img), (img[0] - mod1(img)[0],
                                           img[1] - mod1(img)[1])))
            assert thin and sorted((pair(h.base), h.lattice)
                                   for h in thin) == \
                sorted((b, (int(k[0]), int(k[1]))) for b, k in mapped)
            assert all(h.s == frame_a2.s(h.lift) and h.u == frame_a2.u(h.lift)
                       for h in thin)

    def test_empty_set_and_bad_range(self, frame_a2):
        view = FrameView(frame_a2)
        empty = marked_set(A2, [], "Y")
        assert hits_in_box(view, empty, Fraction(-9), Fraction(9),
                           Fraction(-9), Fraction(9)) == []
        with pytest.raises(ValueError):
            hits_in_box(view, zero_orbit_set(A2), 1, 0, 0, 1)


# A2, its conjugate by (x, y) -> (x, -y), whose b < 0 reverses which way
# the s and u forms rise in y, B2 = A2^3, and C3, the case3 fixture's matrix
KERNEL_MATRICES = {"A2": A2, "A2-": HyperbolicMatrix(2, -1, -1, 1),
                   "B2": B2, "C3": C3}
ALL_INCLUDES = list(itertools.product((True, False), repeat=4))


ORIGIN_LIFT = (point(0, 0), (0, 0))     # (base, lattice) of the lift at 0


def kernel_set(A):
    """Orbits of base points with denominators 1, 2, 3 and 4 (disjoint,
    since a point's denominator is invariant under A): K = 12 and P <= 12,
    so the scan steps through one coset per point."""
    return marked_set(A, [(point(0, 0), 1), (point(HALF, 0), -2),
                          (point(Fraction(1, 3), Fraction(2, 3)), 3),
                          (point(Fraction(1, 4), HALF), -1)], "X")


def union_set(A):
    """The (0,0) and (1/2,1/2) orbits, scanned as the one lattice
    (1/2)Z^2: P = 4 for A2 and its conjugate, P = 2 = K^2/2 for B2 and C3,
    on the threshold."""
    return marked_set(A, [(point(0, 0), 1), (point(HALF, HALF), -2)], "X")


def thirds_set(A):
    """The (0,0) orbit and the period-4 orbit of (1/3, 0), scanned as the
    one lattice (1/3)Z^2 (K^2 = 9 <= 2P = 10), in which 4 of the 9
    residues are unmarked."""
    return marked_set(A, [(point(0, 0), 1), (point(Fraction(1, 3), 0), 2)],
                      "X")


# the set of each plan: one coset per point, and one lattice with every
# residue marked or with unmarked residues
KERNEL_SETS = {"per-point": kernel_set, "union": union_set,
               "thirds": thirds_set}


def view_oracle(view, mset, s_lo, s_hi, u_lo, u_hi, include,
                oracle=oracle_hits):
    """oracle_hits, or another oracle of its signature, on the mirrored raw
    box, in view coordinates."""
    i0, i1, i2, i3 = include
    if view.flip_s:
        s_lo, s_hi, i0, i1 = -s_hi, -s_lo, i1, i0
    if view.flip_u:
        u_lo, u_hi, i2, i3 = -u_hi, -u_lo, i3, i2
    raw = oracle(view.frame, mset, s_lo, s_hi, u_lo, u_hi, (i0, i1, i2, i3))
    out = [(b, k, -s if view.flip_s else s, -u if view.flip_u else u, tw)
           for b, k, s, u, tw in raw]
    return sorted(out, key=lambda h: (h[2], h[3]))


class TestKernelAgainstOracle:
    """hits_in_box's integer kernel against the brute-force double loop."""

    @pytest.mark.parametrize("label", sorted(KERNEL_MATRICES))
    @pytest.mark.parametrize("plan", sorted(KERNEL_SETS))
    def test_edges_on_lifts_all_includes(self, label, plan):
        # the box is spanned by four lifts, so every edge passes through a
        # lift, as the primitive-family walk's strips do; each of the 16
        # inclusion patterns keeps or drops them
        A = KERNEL_MATRICES[label]
        frame, X = eigenframe(A), KERNEL_SETS[plan](A)
        assert (len(X.plan) == 1) == (plan != "per-point")
        view = FrameView(frame)
        lifts = oracle_hits(frame, X, -2, 2, -2, 2)
        corners = lifts[len(lifts) // 3:][:4]
        box = (min(h[2] for h in corners), max(h[2] for h in corners),
               min(h[3] for h in corners), max(h[3] for h in corners))
        for include in ALL_INCLUDES:
            want = oracle_hits(frame, X, *box, include)
            assert hit_keys(hits_in_box(view, X, *box, include)) == want

    @pytest.mark.parametrize("label", sorted(KERNEL_MATRICES))
    def test_rational_and_mixed_bounds(self, label):
        A = KERNEL_MATRICES[label]
        frame, X = eigenframe(A), kernel_set(A)
        view = FrameView(frame)
        s_mid = frame.s((Fraction(1, 3), Fraction(2, 3)))
        boxes = [(-1, 2, -2, 1),                                  # int
                 (Fraction(-3, 2), Fraction(5, 3), Fraction(-7, 4),
                  Fraction(1, 2)),                                # Fraction
                 (s_mid - 1, s_mid + Fraction(3, 2), -1, Fraction(3, 2)),
                 (Fraction(1, 3), Fraction(1, 3), -3, 3)]         # zero width
        for box in boxes:
            for include in ALL_INCLUDES[::5]:
                assert hit_keys(hits_in_box(view, X, *box, include)) == \
                    oracle_hits(frame, X, *box, include)

    @pytest.mark.parametrize("label", sorted(KERNEL_MATRICES))
    @pytest.mark.parametrize("sign", [1, -1])
    def test_thin_boxes_renormalize(self, label, sign):
        A = KERNEL_MATRICES[label]
        frame, X = eigenframe(A), kernel_set(A)
        view = FrameView(frame)
        long_side, short_side = frame.lam / 2, frame.lam_inv / 2
        w_s, w_u = ((long_side, short_side) if sign > 0
                    else (short_side, long_side))
        j = balance_power(frame, w_s, w_u)
        assert j * sign > 0
        for lift in oracle_hits(frame, X, -1, 1, -1, 1)[:3]:
            s, u = lift[2], lift[3]
            box = (s, s + w_s, u - w_u / 2, u + w_u / 2)
            for include in ALL_INCLUDES[::3]:
                got = hit_keys(hits_in_box(view, X, *box, include))
                assert got == oracle_hits(frame, X, *box, include)
                assert (lift in got) == include[0]

    @pytest.mark.parametrize("quadrant", QUADRANTS)
    def test_quadrant_views(self, quadrant):
        for A in (A2, C3):
            frame, X = eigenframe(A), kernel_set(A)
            view = quadrant_view(frame, quadrant)
            origin = point(Fraction(1, 3), Fraction(2, 3))
            s0, u0 = view.s(origin), view.u(origin)
            boxes = [(s0, s0 + 2, u0, u0 + 2),
                     (Fraction(-1), Fraction(2), Fraction(-2), Fraction(1)),
                     (s0 - 1, s0 + frame.lam, u0 - 1, u0 + 3)]
            for box in boxes:
                for include in ALL_INCLUDES[::4]:
                    got = hit_keys(hits_in_box(view, X, *box, include))
                    assert got == view_oracle(view, X, *box, include)


    @pytest.mark.parametrize("label", sorted(KERNEL_MATRICES))
    @pytest.mark.parametrize("plan", sorted(KERNEL_SETS))
    def test_stepped_columns_in_every_view(self, label, plan):
        # the kernel sets each edge rule up at a coset's first column and
        # steps it from column to column, so a wrong step shows on a box
        # three or more columns wide per coset; with thin boxes
        # renormalized by j = 2 and -2 too, in all four views, one
        # inclusion pattern per box, 12 of the 16 per matrix and all 16
        # over the four matrices
        A = KERNEL_MATRICES[label]
        offset = 4 * sorted(KERNEL_MATRICES).index(label)
        frame, X = eigenframe(A), KERNEL_SETS[plan](A)
        long_side, ratio = 6, frame.lam ** 4
        half_short = long_side / ratio / 2
        for q, quadrant in enumerate(QUADRANTS):
            view = quadrant_view(frame, quadrant)
            # a square box spanned by the lift (0, 0) and the nearest lifts
            # at least 3/2 above it in s and in u
            lifts = hits_in_box(view, X, 0, 3, 0, 3)
            s_hi = min(h.s for h in lifts if h.s >= Fraction(3, 2))
            u_hi = min(h.u for h in lifts if h.u >= Fraction(3, 2))
            boxes = [((0, s_hi, 0, u_hi), 0, oracle_hits),
                     ((0, long_side, -half_short, half_short), 2,
                      oracle_band_hits),
                     ((0, 2 * half_short, -long_side // 2, long_side // 2),
                      -2, oracle_hits)]
            for b, (box, j, oracle) in enumerate(boxes):
                s_lo, s_hi, u_lo, u_hi = box
                assert balance_power(frame, s_hi - s_lo, u_hi - u_lo) == j
                include = ALL_INCLUDES[(3 * q + b + offset) % 16]
                want = view_oracle(view, X, *box, include, oracle)
                assert hit_keys(hits_in_box(view, X, *box, include)) == want
                # the lift (0, 0) lies on the s_lo edge, and on the u_lo
                # edge of the square box
                on_edges = include[0] and (include[2] or j != 0)
                assert (ORIGIN_LIFT in [h[:2] for h in want]) == on_edges
                assert len(want) > 3 or j != 0
            # s + u = x, so the square box is three columns wide or more
            assert boxes[0][0][1] + boxes[0][0][3] >= 3


def long_orbit_set(A):
    """A2's orbits of periods 3, 4 and 10, with distinct twists."""
    return marked_set(A, [(point(HALF, HALF), 1),
                          (point(Fraction(1, 3), 0), -1),
                          (point(Fraction(1, 5), 0), 2)], "X")


def counted_rung_reads(monkeypatch):
    """(reads, active): from now until the test ends, each
    `EigenFrame.rung` call from outside the ladder appends its n to reads,
    and active is nonempty while a rung call runs."""
    reads, active = [], []
    rung = torus.EigenFrame.rung

    def counted(frame, n):
        if not active:
            reads.append(n)
        active.append(None)
        try:
            return rung(frame, n)
        finally:
            active.pop()

    monkeypatch.setattr(torus.EigenFrame, "rung", counted)
    return reads, active


class TestRenormalization:
    """The frame's power ladder, and the bases that renormalized scans take
    from the orbit index."""

    def test_balance_power_is_the_exact_log(self):
        # on a fresh frame for each j, and on one whose ladder reaches past
        # every j on both sides, for ratios on an even rung, just below one
        # and between two
        grown = eigenframe(A2)
        grown.rung(700), grown.rung(-700)
        lam = grown.lam
        for j in range(-300, 301):
            on_rung = qn_pow(lam, 2 * j - 1)    # lam * w_s / w_u = lam^(2j)
            ratios = [(on_rung, 1), (on_rung * Fraction(999, 1000), 1),
                      (3 * on_rung * lam, 3)]
            for w_s, w_u in ratios:
                want = oracle_log_floor(lam * w_s / w_u, lam * lam)
                assert balance_power(grown, w_s, w_u) == want
            w_s, w_u = ratios[j % 3]
            assert balance_power(eigenframe(A2), w_s, w_u) == \
                oracle_log_floor(lam * w_s / w_u, lam * lam)

    def test_balance_power_where_the_estimate_is_weakest(self, monkeypatch):
        # j is estimated from the widths' logarithms and then confirmed
        # exactly.  The estimate is weakest where p and q are huge and
        # nearly cancel: after crossing 300 the b2 game's windows sit at
        # heights of order one with coefficients of 800 bits or more, so
        # their heights cancel to a tiny width.  Int and Fraction widths
        # just below and just above an odd rung, where the estimate alone
        # would round the wrong way, and small int ratios come too.
        A, sets, _ = load_problem(FIXTURES["b2_half"])
        frame = eigenframe(A)
        windows = []
        scan = rectangles.view_lifts

        def recorded(view, mset, *box):
            windows.append([as_quadnum(x, frame.D) for x in box[:4]])
            return scan(view, mset, *box)

        monkeypatch.setattr(rectangles, "view_lifts", recorded)
        play_game(GameConfig(frame, (sets["X"], sets["Y"]), "++"),
                  point(0, 0), QuadNum(1, 0, frame.D),
                  QuadNum(20, 0, frame.D), budget=330)
        late = windows[300:]
        assert len(late) == 30

        def bits(x):
            return max(abs(x.a.numerator), abs(x.b.numerator)).bit_length()

        widths = []
        for s_lo, s_hi, u_lo, u_hi in late:
            w_s, w_u = s_hi - s_lo, u_hi - u_lo
            assert max(bits(u_lo), bits(u_hi)) >= 800 and 0 < u_lo < 1
            assert (w_u.a < 0) != (w_u.b < 0)      # its p and q cancel
            widths += [(w_s, w_u), (w_u, w_s), (w_u, w_u * 5)]
        lam = frame.lam
        for j in range(-40, 41):
            rung = qn_pow(lam, 2 * j - 1)
            # within 2^-64 of the rung, relative to it
            scale = (qn_floor(1 / rung) + 1) << 64
            below = Fraction(qn_floor(rung * scale), scale)
            above = below + Fraction(1, scale)
            widths += [(below, 1), (above, 1), (1, 1 / below), (1, 1 / above)]
        widths += [(n, 1) for n in range(1, 100)]
        widths += [(3, n) for n in range(1, 100)]
        for w_s, w_u in widths:
            assert balance_power(frame, w_s, w_u) == \
                oracle_log_floor(lam * w_s / w_u, lam * lam)

    def test_the_estimate_decides_most_logarithms_alone(self, monkeypatch):
        # the logarithms' exactness beside every rung is checked in
        # test_quadfield; here that the estimate's error band decides
        # alone, reading no rung, for at least 90% of the logarithms of a
        # grid of A2 games above the domination threshold, as in game_grid
        counts = {"calls": 0, "read": 0}
        reading = []
        log_ratio, rung = torus._log_ratio, torus.EigenFrame.rung

        def counted_log_ratio(*args):
            counts["calls"] += 1
            reading.append(False)
            try:
                return log_ratio(*args)
            finally:
                counts["read"] += reading.pop()

        def counted_rung(frame, n):
            if reading:
                reading[-1] = True
            return rung(frame, n)

        monkeypatch.setattr(torus, "_log_ratio", counted_log_ratio)
        monkeypatch.setattr(torus.EigenFrame, "rung", counted_rung)
        frame = eigenframe(A2)
        lam2 = frame.lam * frame.lam
        Y = half_orbit_set(A2, 2, "Y")
        rng = random.Random(1)
        for i in range(1, 21):
            for j in range(1, 21):
                X = zero_orbit_set(A2, rng.randint(-6, 6), "X")
                t0 = 1 + (lam2 - 1) * Fraction(i, 21)
                out = play_game(GameConfig(frame, (X, Y), "++"), point(0, 0),
                                t0, lam2 * Fraction(j, 21), budget=2000)
                assert out.defined
        assert counts["calls"] > 800
        assert 10 * counts["read"] <= counts["calls"]

    def test_the_exact_step_corrects_an_estimate_at_its_error_bound(
            self, monkeypatch):
        # each width's logarithm exact but pushed to its documented error,
        # 0.02 * 2^16 (1,310), the numerator's by push and the
        # denominator's against it, so the ratio's estimate is 2,620 too
        # high or too low, within LOG_ERROR: beside a rung it is then one
        # rung off, and the sign tests against the ladder correct it
        widths, push = [], [1]

        def pushed(p, q, D, root):
            widths.append(None)
            edge = push[0] if len(widths) % 2 else -push[0]
            return oracle_log2_bounds(p, q, D, ROOT_BITS)[0] + edge * 1310

        monkeypatch.setattr(torus, "_log2_width", pushed)
        reads, _ = counted_rung_reads(monkeypatch)
        raised = 0
        for push[0], A in itertools.product((1, -1), (A2, B2, C3)):
            frame = eigenframe(A)
            lam = frame.lam
            for k in range(-40, 41):
                on_rung = qn_pow(lam, k)
                for x in (on_rung, on_rung * Fraction(10**9 - 1, 10**9),
                          on_rung * Fraction(10**9 + 1, 10**9)):
                    reads.clear()
                    assert frame.log_floor(x) == oracle_log_floor(x, lam)
                    # three sign tests: an estimate one rung low was raised
                    raised += len(reads) == 3
        assert raised > 100

    def test_renormalization_reads_the_powers(self):
        grown = eigenframe(A2)
        grown.rung(400), grown.rung(-400)
        lam = grown.lam
        for j in range(-300, 301):
            want = (_parts(qn_pow(lam, -j)), _parts(qn_pow(lam, j)),
                    A2.power_rows(-j))
            assert grown.renormalization(j) == want
            assert eigenframe(A2).renormalization(j) == want

    @pytest.mark.parametrize("quadrant", QUADRANTS)
    def test_renormalized_lifts_take_their_base_from_the_orbit(self, quadrant):
        # a lift found in the A^j-image of a box is A^j of a lift whose base
        # lies j steps back along its orbit: with periods 3, 4 and 10 and
        # j = 1 or 2 of either sign, a wrong shift names another point
        frame, X = eigenframe(A2), long_orbit_set(A2)
        view = quadrant_view(frame, quadrant)
        lam = frame.lam
        centre = point(Fraction(1, 7), Fraction(2, 7))
        s0, u0 = view.s(centre), view.u(centre)
        for j in (1, -1, 2, -2):
            w_s, w_u = 2 * lam ** j, 2 * lam ** -j     # w_s / w_u = lam^(2j)
            box = view.box(*map(_parts, (s0 - w_s / 2, s0 + w_s / 2,
                                         u0 - w_u / 2, u0 + w_u / 2)))
            bounds = [as_quadnum(x, frame.D) for x in box[:4]]
            s_lo, s_hi, u_lo, u_hi = bounds
            assert balance_power(frame, s_hi - s_lo, u_hi - u_lo) == j
            got = box_lifts(frame, X, *box)
            for base, (k, x, y), twist in got:
                lift = (Fraction(x, k), Fraction(y, k))
                assert pair(base) == mod1(lift)
                assert k == base[0]
                assert twist == X.locate(base)[0].twist
            want = oracle_hits(frame, X, *bounds, box[4])
            assert len(want) > 10
            # the lattice vector of a lift (k, X, Y) is (X // k, Y // k)
            assert sorted((b, (x // k, y // k), tw)
                          for b, (k, x, y), tw in got) == \
                sorted((b, m, tw) for b, m, _, _, tw in want)


def long_orbit_analysis(q):
    """The Analysis of A2 with X the orbit of (1/q, 0) at +1 and Y the (0,0)
    orbit at -1."""
    return Analysis(A2, marked_set(A2, [(point(Fraction(1, q), 0), 1)], "X"),
                    marked_set(A2, [(point(0, 0), -1)], "Y"))


class TestPowerLadder:
    """The ladder holds the rungs read and their halves."""

    def test_rungs_held_per_rung_read_are_bounded(self, monkeypatch):
        # rung n is built from rungs n // 2 and n - n // 2, at most two
        # rungs per halving, so the rungs held after the period-2,004
        # thresholds, rungs 0, 1 and -1 and one per product of rows built
        # within a rung read, are bounded by the distinct rungs that
        # callers outside the ladder read; the farthest read is rung 2,004
        # or more, which a ladder of every rung out to it would hold
        reads, active = counted_rung_reads(monkeypatch)
        built, mat_mul = [], torus._mat_mul

        def counted_mat_mul(r1, r2):
            if active:
                built.append(None)
            return mat_mul(r1, r2)

        monkeypatch.setattr(torus, "_mat_mul", counted_mat_mul)
        analysis = long_orbit_analysis(2003)
        analysis.thresholds()
        held = 3 + len(built)
        assert len(analysis.frame.ladder) == held
        assert held <= 3 + sum(2 * abs(n).bit_length() for n in set(reads))
        assert 10 * held < max(abs(n) for n in reads)

    def test_period_5004_thresholds(self):
        # the two incompleteness thresholds are one more than the exact
        # logarithm of their staircases' growth constants, by the
        # oracle's search
        analysis = long_orbit_analysis(5003)
        assert analysis.thresholds() == {
            "domination": {"X-positive": None, "X-negative": None,
                           "Y-positive": 18, "Y-negative": 8},
            "incompleteness": {"X-++": 1372, "X-+-": 4486, "Y-++": None,
                               "Y-+-": None}}
        lam = analysis.frame.lam
        for quadrant in ("++", "+-"):
            row = analysis.row("X", quadrant)
            assert row.threshold == \
                oracle_log_floor(row.cert.constant, lam) + 1


# A2, B2, case3 and a matrix with negative entries
GROUP_MATRICES = {"A2": A2, "B2": B2, "case3": C3,
                  "M45": HyperbolicMatrix(4, 5, -1, -1)}


def seeded_lift(rng, integral=False):
    """A point of the plane whose coordinates have denominators <= 12, or
    integer coordinates."""
    if integral:
        return (Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-40, 40)))
    return tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 12))
                 for _ in range(2))


class TestGroupAndViews:
    @pytest.mark.parametrize("name", sorted(GROUP_MATRICES))
    def test_integer_action_matches_the_fraction_oracle(self, name):
        # group_element and apply work on the points' integers; the oracle
        # composes A's rows and acts on Fractions
        A = GROUP_MATRICES[name]
        rng = random.Random(28)
        for k in range(-6, 7):
            M, _ = _group_power((A.rows(), (0, 0)), k)
            for integral in (False, True):
                for _ in range(12):
                    src = seeded_lift(rng, integral)
                    v = (rng.randint(-9, 9), rng.randint(-9, 9))
                    dst = _group_act((M, v), src)
                    g = group_element(A, k, src, dst)
                    assert (g.k, g.v, g.rows) == (k, v, M)
                    p = seeded_lift(rng, integral)
                    got = pair(g.act(point(*p)))
                    assert got == _group_act((M, v), p)
                    assert all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("name", sorted(GROUP_MATRICES))
    def test_group_element_is_none_without_an_integral_translation(self,
                                                                   name):
        A = GROUP_MATRICES[name]
        rng = random.Random(29)
        for k in range(-6, 7):
            M, _ = _group_power((A.rows(), (0, 0)), k)
            src = seeded_lift(rng)
            while point(*src)[0] == 1:
                src = seeded_lift(rng)
            lcd = point(*src)[0]
            img = _group_act((M, (0, 0)), src)
            # another least common denominator, with one more factor 2
            dst = (img[0] + Fraction(1, 2 * lcd), img[1])
            assert point(*dst)[0] != lcd
            assert group_element(A, k, src, dst) is None
            # the image's own integers over another denominator m*lcd,
            # with m prime to them: no remainder over lcd gives it away
            _, X2, Y2 = point(*img)
            m = abs(X2 or Y2) + 1
            dst = (Fraction(X2, m * lcd), Fraction(Y2, m * lcd))
            assert point(*dst) == (m * lcd, X2, Y2)
            assert group_element(A, k, src, dst) is None
            # lcd again, but dst - A^k src is not integral
            while True:
                shift = (Fraction(rng.randrange(lcd), lcd),
                         Fraction(rng.randrange(lcd), lcd))
                dst = (img[0] + shift[0] - 3, img[1] + shift[1] + 2)
                if any(shift) and point(*dst)[0] == lcd:
                    break
            assert group_element(A, k, src, dst) is None

    def test_group_element_maps_src_to_dst(self):
        z = point(HALF, HALF)
        g = group_element(A2, 3, z, z)                # 3 is z's period
        assert g.act(z) == z
        dst = point(3, Fraction(-7, 2))
        g = group_element(A2, -1, z, dst)
        assert (g.k, g.v) == (-1, (3, -4)) and g.act(z) == dst
        # 2 is not a period of (1/2, 1/2): no integral translation exists
        assert group_element(A2, 2, z, z) is None
        # (1, 0) - (1/2, 0) is not integral, though the numerators agree
        assert group_element(A2, 0, point(HALF, 0), point(1, 0)) is None

    def test_quadrant_views(self, frame_a2):
        p = (Fraction(1, 3), Fraction(2, 5))
        s, u = frame_a2.s(p), frame_a2.u(p)
        signs = {"++": (1, 1), "--": (-1, -1), "+-": (1, -1), "-+": (-1, 1)}
        for q in QUADRANTS:
            view = quadrant_view(frame_a2, q)
            es, eu = signs[q]
            assert view.s(p) == es * s and view.u(p) == eu * u
        assert quadrant_direction("++") < 0 and quadrant_direction("--") < 0
        assert not quadrant_direction("+-") < 0
        with pytest.raises(ValueError):
            quadrant_view(frame_a2, "xx")

    def test_view_hits_match_mirrored_raw_hits(self, frame_a2):
        Y = half_orbit_set(A2)
        view = FrameView(frame_a2, flip_s=True, flip_u=False)
        got = hits_in_box(view, Y, Fraction(0), Fraction(2), Fraction(-1),
                          Fraction(1))
        raw = hits_in_box(FrameView(frame_a2), Y, Fraction(-2), Fraction(0),
                          Fraction(-1), Fraction(1))
        assert sorted((h.base, h.lattice) for h in got) == \
            sorted((h.base, h.lattice) for h in raw)
        for h in got:
            assert h.s == -frame_a2.s(h.lift)
