"""Child process of the anosurg benchmark.

    worker.py setup WORKLOAD INPUTS            build the workload, no analysis
    worker.py run WORKLOAD INPUTS OUT [SPANS]  run every operation, in process
    worker.py cli SPANS OP ARG...              one traced `anosurg` command
    worker.py micro OPERANDS OUT               quadfield micro-benchmarks

`run.py` starts these with the package sources on PYTHONPATH.  INPUTS is the
JSON written by `run.py`; OUT receives per-operation results and times.  With
SPANS, the layer boundaries are traced and the spans written there.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import timeit
from fractions import Fraction


def _tracer():
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def build(workload, inputs):
    """The workload's problems and frames, built through the public API."""
    import anosurg.cli
    from anosurg import (GameConfig, HyperbolicMatrix, QuadNum, SurgeryProblem,
                         eigenframe, marked_set, point, qn_pow)
    if workload == "fixtures_cli":
        built = []
        for path in inputs["problems"].values():
            with open(path) as fh:
                A, sets, _ = anosurg.cli.load_problem(json.load(fh))
            built.append((A, sets, eigenframe(A)))
        return built
    if workload == "classify_sweep":
        frames = {}
        problems = []
        for p in inputs["problems"]:
            A = HyperbolicMatrix.from_rows(p["matrix"])
            if A not in frames:
                frames[A] = eigenframe(A)
            y = point(Fraction(p["y_point"][0]), Fraction(p["y_point"][1]))
            problems.append(SurgeryProblem(
                A, marked_set(A, [(point(0, 0), p["x_char"])], "X"),
                marked_set(A, [(y, p["y_char"])], "Y")))
        return problems
    if workload == "game_grid":
        A = HyperbolicMatrix.from_rows(inputs["matrix"])
        frame = eigenframe(A)
        lam2 = qn_pow(frame.lam, 2)
        one = QuadNum(1, 0, frame.D)
        half = (Fraction(1, 2), Fraction(1, 2))
        Y = marked_set(A, [(point(*half), inputs["y_char"])], "Y")
        games = []
        for g in inputs["games"]:
            X = marked_set(A, [(point(0, 0), g["x_char"])], "X")
            t0 = one + (lam2 - 1) * Fraction(g["i"], inputs["steps"])
            r = lam2 * Fraction(g["j"], inputs["steps"])
            games.append((GameConfig(frame, (X, Y), "++"), t0, r))
        return games
    raise SystemExit(f"unknown workload {workload!r}")


def verdict_content(status, rule, evidence):
    """The mathematical content of a verdict: status, rule and thresholds."""
    return {"status": status, "rule": rule,
            "threshold": evidence.get("threshold"),
            "thresholds": evidence.get("thresholds"),
            "profile": evidence.get("profile")}


def reference():
    """A fixed standard-library workload (Fraction arithmetic, small
    allocations), about 1 ms.  Its duration measures how fast the machine
    runs this kind of Python code at that moment, independent of anosurg."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(3, i + 2) - Fraction(1, i)
        seen[i] = (acc.numerator % 97, [i] * 3)
    return acc


def reference_s(calls=1):
    """Seconds per call of `reference`, timed over `calls` calls with the
    cyclic garbage collector paused, so the caller's heap does not count."""
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(calls):
            reference()
        return (time.perf_counter() - t) / calls
    finally:
        gc.enable()


def run_ops(items, operation, record, tracer):
    """Time `operation` on each item and describe its result with `record`.
    Reference samples are taken before each operation and after the last;
    each result records the samples on both sides.  An exception fails that
    operation only; the error is recorded."""
    out = []
    for op, item in enumerate(items):
        if tracer:
            tracer.op = op
        ref = reference_s()
        t = time.perf_counter()
        try:
            raw = operation(item)
        except Exception as e:            # report it and go on
            dt = time.perf_counter() - t
            out.append({"s": dt, "ref_s": ref,
                        "error": f"{type(e).__name__}: {e}"})
            continue
        dt = time.perf_counter() - t
        out.append(dict(record(raw), s=dt, ref_s=ref))
    bracket(out, reference_s())
    return out


def bracket(ops, last):
    """Give each operation the reference sample taken after it: the next
    operation's, or `last`."""
    for op, after in zip(ops, [o["ref_s"] for o in ops[1:]] + [last]):
        op["ref_after_s"] = after


def run_sweep(problems, tracer):
    from anosurg import classify, point, quadrant_report
    origin = point(0, 0)

    def operation(prob):
        return classify(prob), [quadrant_report(prob, origin, q)
                                for q in ("++", "+-")]

    def record(raw):
        v, reports = raw
        return {"content": {
            "verdict": verdict_content(v.status, v.rule, v.evidence),
            "quadrants": [[s, ev.get("threshold")] for s, ev in reports]}}

    return run_ops(problems, operation, record, tracer)


def run_grid(games, budget, tracer):
    from anosurg import play_game
    origin = (Fraction(0), Fraction(0))

    def operation(game):
        cfg, t0, r = game
        return play_game(cfg, origin, t0, r, budget=budget)

    def record(outcome):
        return {"status": outcome.status, "crossings": len(outcome.trace)}

    return run_ops(games, operation, record, tracer)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        with open(argv[2]) as fh:
            build(argv[1], json.load(fh))
        return 0
    if mode == "run":
        workload, inputs_path, out_path = argv[1:4]
        with open(inputs_path) as fh:
            inputs = json.load(fh)
        import anosurg.cli  # noqa: F401  (load every layer before tracing)
        tracer = _tracer() if len(argv) > 4 else None
        if tracer:
            tracer.op = -1                 # spans of the build phase
        built = build(workload, inputs)
        if workload == "classify_sweep":
            results = run_sweep(built, tracer)
        else:
            results = run_grid(built, inputs["budget"], tracer)
        with open(out_path, "w") as fh:
            json.dump(results, fh)
        if tracer:
            tracer.dump(argv[4])
        return 0
    if mode == "cli":
        import anosurg.cli
        tracer = _tracer()
        tracer.op = int(argv[2])
        try:
            return anosurg.cli.main(argv[3:])
        finally:
            tracer.dump(argv[1])
    if mode == "micro":
        return micro(argv[1], argv[2])
    raise SystemExit(f"unknown mode {mode!r}")


def micro(operands_path, out_path):
    """Median microseconds per field operation on small and big operands."""
    from anosurg import HyperbolicMatrix, eigenframe, qn_floor, qn_from_str
    with open(operands_path) as fh:
        ops = json.load(fh)
    frame = eigenframe(HyperbolicMatrix.from_rows(ops["small_matrix"]))
    small = (frame.s_form[0], frame.u_form[1])
    big = (qn_from_str(ops["big"][0]), qn_from_str(ops["big"][1]))
    result = {}
    for suffix, (x, y) in (("", small), ("_big", big)):
        env = {"x": x, "y": y, "qn_floor": qn_floor}
        for name, stmt in (("add", "x + y"), ("mul", "x * y"),
                           ("lt", "x < y"), ("floor", "qn_floor(x)")):
            timer = timeit.Timer(stmt, globals=env)
            n = 1
            while timer.timeit(n) < 0.02:
                n *= 2
            per_call = [t / n for t in timer.repeat(5, n)]
            result[f"quadfield.{name}{suffix}_us"] = \
                statistics.median(per_call) * 1e6
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
