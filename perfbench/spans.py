"""Spans around the public functions of each anosurg layer, installed from
outside the package.

Each wrapped call records one span (name, start, end, parent span, operation
id) in memory; `Tracer.dump` writes them out when the process ends.  Modules
import these functions by name, so a wrapper replaces every binding of the
original object in every loaded `anosurg` module.  A boundary whose name no
longer exists, or whose module no longer exists, is listed in `untraced`
instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs; a class is traced through its __init__
BOUNDARIES = (
    ("cli", "main"),
    ("classify", "classify"),
    ("classify", "quadrant_report"),
    ("staircase", "build_staircase"),
    ("game", "DominationAnalysis"),
    ("game", "play_game"),
    ("rectangles", "enumerate_primitive"),
    ("rectangles", "case_profile"),
    ("rectangles", "rect_meets"),
    ("torus", "hits_in_box"),
    ("torus", "eigenframe"),
    ("quadfield", "qn_floor"),
    ("quadfield", "qn_pow"),
    ("svgfig", "game_figure"),
    ("svgfig", "staircase_figure"),
)

BOUNDARY_NAMES = tuple(f"{mod}.{attr}" for mod, attr in BOUNDARIES)

# callers to which hits_in_box results are attributed (nearest wrapped span)
HIT_PARENTS = ("DominationAnalysis", "build_staircase", "play_game",
               "enumerate_primitive", "case_profile", "rect_meets",
               "staircase_figure", "other")


class Tracer:
    """In-memory span recorder with the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = 0
        self.untraced = []
        self.counts = {
            "hits": 0, "domination_raised": 0, "domination_ok": 0,
            "staircase_failed": 0, "staircase_levels": 0, "reps": 0,
            "crossings": 0, "t_digits": 0,
        }
        self.counts.update({f"hits_under.{p}": 0 for p in HIT_PARENTS})
        self._qn_to_str = None

    # -- installation -------------------------------------------------------

    def install(self):
        for mod, attr in BOUNDARIES:
            try:
                module = importlib.import_module(f"anosurg.{mod}")
            except ModuleNotFoundError:
                module = None
            target = getattr(module, attr, None)
            if target is None:
                self.untraced.append(f"{mod}.{attr}")
                continue
            name = f"{mod}.{attr}"
            if isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__)
                continue
            wrapper = self._wrap(name, target)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").split(".")[0] != "anosurg":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is target:
                        setattr(loaded, key, wrapper)
        self._qn_to_str = getattr(importlib.import_module("anosurg.quadfield"),
                                  "qn_to_str", str)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        after = getattr(self, "_after_" + name.split(".")[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            error = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = e
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(None if error else result, error)
            return result

        return wrapper

    # -- counters -----------------------------------------------------------

    def _parent_fn(self):
        if not self.stack:
            return "other"
        fn = self.spans[self.stack[-1]][0].split(".")[1]
        return fn if fn in HIT_PARENTS else "other"

    def _after_hits_in_box(self, result, error):
        if error is None:
            self.counts["hits"] += len(result)
            self.counts[f"hits_under.{self._parent_fn()}"] += len(result)

    def _after_DominationAnalysis(self, result, error):
        self.counts["domination_raised" if error else "domination_ok"] += 1

    def _after_build_staircase(self, result, error):
        if error is not None:
            self.counts["staircase_failed"] += 1
        else:
            self.counts["staircase_levels"] += len(result.steps)

    def _after_enumerate_primitive(self, result, error):
        if error is None:
            self.counts["reps"] += len(result)

    def _after_play_game(self, result, error):
        if error is None and result.trace:
            self.counts["crossings"] += len(result.trace)
            digits = len(self._qn_to_str(result.trace[-1].t_after))
            self.counts["t_digits"] = max(self.counts["t_digits"], digits)

    # -- output -------------------------------------------------------------

    @staticmethod
    def span_cost(n=20000):
        """Measured seconds a wrapper adds to one call."""
        def noop():
            pass
        wrapped = Tracer()._wrap("probe.noop", noop)
        t = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t
        t = time.perf_counter()
        for _ in range(n):
            wrapped()
        return max(0.0, time.perf_counter() - t - bare) / n

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "untraced": self.untraced,
                       "span_cost_s": self.span_cost()}, fh)


def summarize(dumps):
    """Per-boundary calls, total and self seconds, the summed counters, the
    untraced boundaries and the seconds the wrappers themselves cost, from
    the dumps of one or more traced processes."""
    calls = {n: 0 for n in BOUNDARY_NAMES}
    total = {n: 0.0 for n in BOUNDARY_NAMES}
    self_s = {n: 0.0 for n in BOUNDARY_NAMES}
    counts, untraced, cost = {}, set(), 0.0
    for dump in dumps:
        spans = dump["spans"]
        cost += len(spans) * dump["span_cost_s"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(spans, child_time):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - covered
        for key, value in dump["counts"].items():
            if key == "t_digits":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
        untraced.update(dump["untraced"])
    return calls, total, self_s, counts, sorted(untraced), cost
