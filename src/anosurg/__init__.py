"""Exact-arithmetic tools for surgered suspension Anosov flows.

The package decides, with certificates, whether the orbit space of a
suspension flow modified by integer surgeries on periodic orbits carries a
globally ordered (R-covered) structure, via:

- `quadfield`: exact arithmetic in Q(sqrt(D));
- `torus`: hyperbolic matrices, eigenframes, whose power ladder gives every
  power of lam and every integer logarithm to base lam, marked orbits, and
  exact enumeration of marked lifts in (stable, unstable) boxes;
- `rectangles`: the primitive marked-rectangle census and disjointness
  profiles;
- `game`: the holonomy crossing game and the domination threshold;
- `staircase`: periodic staircases and the incompleteness threshold;
- `classify`: the combined decision procedure;
- `cli`: the `anosurg` command-line interface;
- `svgfig`: deterministic SVG figures.
"""

from .quadfield import (QuadFieldError, QuadNum, qn_floor, qn_from_str,
                        qn_pow, qn_to_str)
from .torus import (EigenFrame, FrameView, GroupElement, HyperbolicMatrix,
                    InvariantError, MarkedPointHit, MarkedSet, Orbit,
                    UnsupportedMatrixError, eigenframe, hits_in_box,
                    marked_set, orbit_of, point, quadrant_direction,
                    quadrant_view, sets_disjoint, QUADRANTS)
from .rectangles import (MarkedRect, census_records, disjoint_witness,
                         enumerate_primitive, is_primitive, marked_rect,
                         rect_meets)
from .game import (DEFAULT_BUDGET, Crossing, DominationAnalysis,
                   DominationHypothesisError, DominationInterval, GameConfig,
                   GameError, GameOutcome, game_trace_records, play_game)
from .staircase import (StairStep, Staircase, StaircaseError, build_staircase,
                        containment_check, incompleteness_threshold,
                        staircase_records)
from .classify import (STATUSES, Analysis, SurgeryProblem, Verdict, classify,
                       quadrant_report, verdict_records)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
