"""Shared fixtures: the standard matrices, marked sets, and the expensive
staircase/classification objects (built once per session)."""

import pathlib
import sys

from fractions import Fraction

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from anosurg import (HyperbolicMatrix, build_staircase, eigenframe,
                     marked_set, orbit_of, point)
from anosurg.quadfield import _qn

HALF = Fraction(1, 2)

A2 = HyperbolicMatrix(2, 1, 1, 1)
A3 = HyperbolicMatrix(3, 2, 1, 1)
A4 = HyperbolicMatrix(4, 3, 1, 1)
C3 = HyperbolicMatrix(3, 2, 4, 3)
B2 = HyperbolicMatrix.from_rows(A2.power_rows(3))   # [[13, 8], [8, 5]]
B3 = HyperbolicMatrix.from_rows(A3.power_rows(2))   # [[11, 8], [4, 3]]


def as_quadnum(x, D):
    """The QuadNum of a (p, q, d) triple, as the scans and the strip
    climber take their bounds, for a check that compares or prints it."""
    return _qn(*x, D)


def zero_orbit_set(A, char=0, role="X"):
    return marked_set(A, [(point(0, 0), char)], role)


def half_orbit_set(A, char=0, role="Y"):
    return marked_set(A, [(point(HALF, HALF), char)], role)


def half_points_set(A, char=0, role="Y"):
    """All half-integer points (deduplicated into orbits)."""
    halves = [point(HALF, 0), point(0, HALF), point(HALF, HALF)]
    seeds, covered = [], set()
    for p in halves:
        if p not in covered:
            seeds.append((p, char))
            covered |= set(orbit_of(A, p)[0])
    return marked_set(A, seeds, role)


@pytest.fixture(scope="session")
def frame_a2():
    return eigenframe(A2)


@pytest.fixture(scope="session")
def frame_b2():
    return eigenframe(B2)


@pytest.fixture(scope="session")
def frame_c3():
    return eigenframe(C3)


@pytest.fixture(scope="session")
def b2_sets():
    return zero_orbit_set(B2, 0, "X"), half_orbit_set(B2, 0, "Y")


@pytest.fixture(scope="session")
def b2_staircase(frame_b2, b2_sets):
    X, Y = b2_sets
    return build_staircase(frame_b2, X, Y, point(0, 0), "++")
