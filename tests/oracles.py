"""Independent brute-force oracles used to cross-check the exact engine.

These deliberately avoid the library's own box-scanning code: membership is
tested lift by lift over an explicit lattice window, and primitivity by a
quadratic double loop, so agreement with the fast implementations is a real
check rather than a tautology.
"""

from fractions import Fraction
import math

from anosurg import QuadNum


def _window_for_box(frame, s_lo, s_hi, u_lo, u_hi, margin=2):
    """Integer ranges of lattice coordinates that cover every lift whose
    (s, u)-coordinates can fall in the closed box (float bounds + margin)."""
    corners = [(s, u) for s in (s_lo, s_hi) for u in (u_lo, u_hi)]
    xs, ys = [], []
    for s, u in corners:
        p = frame.from_eigen((s, u))
        xs.append(float(p[0]))
        ys.append(float(p[1]))
    return (math.floor(min(xs)) - margin, math.ceil(max(xs)) + margin,
            math.floor(min(ys)) - margin, math.ceil(max(ys)) + margin)


def oracle_hits(frame, mset, s_lo, s_hi, u_lo, u_hi,
                include=(True, True, True, True)):
    """All lifts of mset in the closed/open (s, u)-box, by double loop."""
    lo_s, hi_s, lo_u, hi_u = include
    x0, x1, y0, y1 = _window_for_box(frame, s_lo, s_hi, u_lo, u_hi)
    out = []
    for orb in mset.orbits:
        for base in orb.points:
            for kx in range(x0, x1 + 1):
                for ky in range(y0, y1 + 1):
                    lift = (base[0] + kx, base[1] + ky)
                    s, u = frame.s(lift), frame.u(lift)
                    if not ((s > s_lo or (lo_s and s == s_lo)) and
                            (s < s_hi or (hi_s and s == s_hi))):
                        continue
                    if not ((u > u_lo or (lo_u and u == u_lo)) and
                            (u < u_hi or (hi_u and u == u_hi))):
                        continue
                    out.append((base, (kx, ky), s, u, orb.twist))
    out.sort(key=lambda h: (h[2], h[3]))
    return out


def oracle_primitive_census(A, X, sign, frame):
    """Brute-force primitive rectangle census, as a set of keys
    (origin base, endpoint base, endpoint lattice vector).

    Enumerates every lift in the bounded search window by double loop and
    checks primitivity of each candidate box quadratically.
    """
    lam = frame.lam
    lam2 = lam * lam
    ws = abs(frame.s((1, 0))) + abs(frame.s((0, 1)))
    wu = abs(frame.u((1, 0))) + abs(frame.u((0, 1)))
    s_cap = max(ws, lam2 * wu)
    u_cap = max(wu, ws)
    flip = -1 if sign == "negative" else 1
    keys = set()
    for orb in X.orbits:
        for origin in orb.points:
            s0, u0 = frame.s(origin), frame.u(origin)
            if flip == 1:
                lifts = oracle_hits(frame, X, s0, s0 + s_cap, u0, u0 + u_cap)
            else:
                lifts = oracle_hits(frame, X, s0 - s_cap, s0, u0, u0 + u_cap)
            cands = [(b, k, (s - s0) * flip, u - u0)
                     for b, k, s, u, _ in lifts]
            for b, k, ds, du in cands:
                if ds <= 0 or du <= 0:
                    continue
                ratio = ds / du
                if not (1 <= ratio < lam2):
                    continue
                primitive = True
                for b2, k2, ds2, du2 in cands:
                    if (b2, k2) in ((b, k), (origin, (0, 0))):
                        continue
                    if 0 <= ds2 <= ds and 0 <= du2 <= du:
                        primitive = False
                        break
                if primitive:
                    keys.add((origin, b, k))
    return keys


def census_keys(reps):
    """The comparable key set of an enumerate_primitive result."""
    return {(rep.rect.origin.base, rep.rect.endpoint.base,
             rep.rect.endpoint.lattice) for rep in reps}


def oracle_pareto_frontier(points):
    """Keys of the Pareto-minimal (key, s, u) points, sorted by s: those with
    no other point below-left of them (coordinates are pairwise distinct)."""
    front, lowest = [], None
    for key, s, u in sorted(points, key=lambda p: p[1]):
        if lowest is None or u < lowest:
            front.append(key)
            lowest = u
    return front
