"""Benchmark for anosurg: one seeded workload per run, exact output checks,
and an optional traced run that times each layer of the package.

    python3 perfbench/run.py --workload fixtures_cli --seed 1 --seconds 10 --trace 0

Run it from the repository root; it needs only the standard library and the
package sources under src/.  Inputs, outputs and spans go to
.bench_build/perfbench/.  Every operation runs in a child process, one child
at a time.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  Metric
definitions and the workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import spans
from worker import bracket, reference_s, verdict_content

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"
GOLDENS = HERE / "goldens.json"
WORKER = HERE / "worker.py"

WORKLOADS = ("fixtures_cli", "classify_sweep", "game_grid")
SETUP_REPEATS = 11
REFERENCE_CALLS = 50   # per reference sample taken between CLI commands
CHILD_TIMEOUT_S = 150

FIXTURES = {
    "a2_half": {"matrix": [[2, 1], [1, 1]], "sets": [
        {"point": ["0", "0"], "characteristic_number": -1, "role": "X"},
        {"point": ["1/2", "1/2"], "characteristic_number": 1, "role": "Y"}]},
    "case3": {"matrix": [[3, 2], [4, 3]], "sets": [
        {"point": ["0", "0"], "characteristic_number": 1, "role": "X"},
        {"point": ["0", "1/2"], "characteristic_number": -1, "role": "Y"}]},
    "b2_half": {"matrix": [[13, 8], [8, 5]], "sets": [
        {"point": ["0", "0"], "characteristic_number": -2, "role": "X"},
        {"point": ["1/2", "1/2"], "characteristic_number": 2, "role": "Y"}]},
}

# (subcommand, fixture or None, extra arguments); "{svg}" is an output path
COMMANDS = (
    ("census", "a2_half", ()),
    ("classify", "a2_half", ()),
    ("thresholds", "a2_half", ()),
    ("census", "case3", ()),
    ("profile", "case3", ()),
    ("classify", "case3", ()),
    ("thresholds", "case3", ()),
    ("census", "b2_half", ()),
    ("profile", "b2_half", ()),
    ("staircase", "b2_half", ("--svg", "{svg}")),
    ("classify", "b2_half", ()),
    ("game", "b2_half", ("--point", "0,0", "--t0", "1", "--r", "20",
                         "--budget", "400", "--svg", "{svg}")),
    ("examples", None, ()),
)
GAME_R = 20

SWEEP_GEOMETRIES = (
    ([[2, 1], [1, 1]], ["1/2", "1/2"]),
    ([[3, 2], [4, 3]], ["0", "1/2"]),
    ([[3, 2], [1, 1]], ["0", "1/2"]),
    ([[3, 2], [4, 3]], ["1/2", "1/2"]),
    ([[5, 4], [1, 1]], ["0", "1/2"]),
    ([[7, 6], [1, 1]], ["0", "1/2"]),
)
SWEEP_CHARS = range(-3, 4)

GRID_N = 2          # domination threshold of A2 with the (1/2,1/2) orbit
GRID_STEPS = 21     # t0 and r take the values i/21, j/21 for i, j in 1..20
GRID_BUDGET = 2000


def command_key(sub, fixture):
    return f"{sub} {fixture or 'builtin'}"


# ---------------------------------------------------------------------------
# seeded inputs


def make_inputs(workload, seed):
    """The generated inputs of one workload; the same seed gives the same."""
    rng = random.Random(seed)
    if workload == "fixtures_cli":
        paths = {}
        for name, problem in FIXTURES.items():
            paths[name] = str(WORK / "inputs" / f"{name}.json")
            write_json(paths[name], problem)
        order = list(range(len(COMMANDS)))
        rng.shuffle(order)
        return {"problems": paths, "order": order}
    if workload == "classify_sweep":
        # the seed orders the geometries; within one, the strengths keep
        # their order, so the same problems pay for the analyses every time
        order = list(range(len(SWEEP_GEOMETRIES)))
        rng.shuffle(order)
        problems = [{"geometry": g, "matrix": SWEEP_GEOMETRIES[g][0],
                     "y_point": SWEEP_GEOMETRIES[g][1],
                     "x_char": x, "y_char": yc}
                    for g in order for x in SWEEP_CHARS for yc in SWEEP_CHARS]
        return {"problems": problems}
    if workload == "game_grid":
        # every X characteristic number in [-3n, 3n] is used equally often
        # (to within one); the seed assigns them to the grid cells
        cells = [(i, j) for i in range(1, GRID_STEPS) for j in range(1, GRID_STEPS)]
        chars = list(range(-3 * GRID_N, 3 * GRID_N + 1))
        x_chars = [chars[k % len(chars)] for k in range(len(cells))]
        rng.shuffle(x_chars)
        games = [{"i": i, "j": j, "x_char": c} for (i, j), c in zip(cells, x_chars)]
        return {"matrix": [[2, 1], [1, 1]], "y_char": GRID_N,
                "steps": GRID_STEPS, "budget": GRID_BUDGET, "games": games}
    raise ValueError(workload)


def sweep_key(p):
    return f"{p['geometry']}:{p['x_char']}:{p['y_char']}"


# ---------------------------------------------------------------------------
# child processes


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdout=subprocess.DEVNULL):
    """Run one child to completion; return (wall seconds, exit code, peak
    RSS in MiB).  The wait blocks in wait4, so the wall time is not rounded
    to a polling interval; an alarm kills a child that outlives
    CHILD_TIMEOUT_S."""
    t = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, env=child_env(),
                            stdout=stdout, stderr=subprocess.DEVNULL, cwd=ROOT)
    previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped above
    return wall, proc.returncode, usage.ru_maxrss / 1024


def write_json(path, data):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# output checks


_QN_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?: ([+-]) (\d+(?:/\d+)?)\*sqrt\((\d+)\))?$")


def exact_value(text, k=64):
    """The value of an exact string 'a + b*sqrt(D)' as floor(x * 2^k) / 2^k,
    by integer arithmetic, independent of the package under test."""
    m = _QN_RE.match(text.strip())
    if not m:
        raise ValueError(f"not an exact value: {text!r}")
    a = Fraction(m[1]) * 2**k
    b = Fraction(m[3] or 0) * 2**k * (-1 if m[2] == "-" else 1)
    D = int(m[4] or 0)
    n = lcm(a.denominator, b.denominator)
    P, R = int(a * n), int(b * n)
    root = isqrt(R * R * D)                 # floor(|R| sqrt D)
    if R < 0 and root * root != R * R * D:
        root += 1                           # ceil, for floor(-|R| sqrt D)
    return Fraction((P + (root if R >= 0 else -root)) // n, 2**k)


def misplaced_game_dots(svg_text, heights, r):
    """Crossing dots of a game figure whose vertical position differs from
    the one its exact height gives, in the figure's own canvas mapping."""
    dots = [el for el in ET.fromstring(svg_text).iter()
            if el.tag.endswith("circle")]
    if len(dots) != len(heights):
        return max(len(dots), len(heights))
    hs = [float(exact_value(h)) for h in heights]
    h_hi = max([0.0, float(r)] + hs)
    u_min, scale = -0.05 * h_hi, (640 - 2 * 20) / (1.1 * h_hi)
    bad = 0
    for dot, h in zip(dots, hs):
        want = 640 - 20 - (h - u_min) * scale
        if abs(float(dot.get("cy")) - want) > 1e-2:
            bad += 1
    return bad


def command_content(sub, text):
    """The mathematical content of one command's stdout."""
    if sub == "examples":
        return text.splitlines()
    out = json.loads(text)
    if sub == "census":
        return {sign: len(recs) for sign, recs in out["census"].items()}
    if sub == "profile":
        return {"booleans": out["booleans"], "case": out["case"]}
    if sub == "classify":
        return verdict_content(out["status"], out["rule"], out["evidence"])
    if sub == "thresholds":
        return out
    if sub == "staircase":
        st = out["staircase"]
        return {"threshold": out.get("incompleteness_threshold"),
                "period": st and st["period"],
                "preperiod": st and st["preperiod"]}
    if sub == "game":
        t_after = "\n".join(c["t_after"] for c in out["crossings"])
        return {"status": out["status"], "final_t": out["final_t"],
                "crossings": len(out["crossings"]),
                "t_after_sha256": hashlib.sha256(t_after.encode()).hexdigest()}
    raise ValueError(sub)


# ---------------------------------------------------------------------------
# passes: one pass runs every operation of the workload once


def fixtures_pass(inputs, traced):
    """Each command as a fresh `python -m anosurg.cli` process.  Returns the
    checked commands and, when traced, each command's span dump."""
    ops, dumps = [], []
    for op in inputs["order"]:
        sub, fixture, extra = COMMANDS[op]
        stem = WORK / "out" / f"{sub}-{fixture or 'builtin'}"
        svg = f"{stem}.svg"
        args = [sub] + ([inputs["problems"][fixture]] if fixture else [])
        args += [a.replace("{svg}", svg) for a in extra]
        span_file = f"{stem}.spans.json"
        argv = ([str(WORKER), "cli", span_file, str(op)] if traced
                else ["-m", "anosurg.cli"]) + args
        stdout_path = Path(f"{stem}.stdout")
        for stale in (svg, span_file):
            if os.path.exists(stale):
                os.remove(stale)
        ref = reference_s(REFERENCE_CALLS)
        with open(stdout_path, "wb") as fh:
            wall, code, rss = run_child(argv, stdout=fh)
        ops.append(check_command(command_key(sub, fixture), sub, code,
                                 stdout_path.read_bytes(), svg, wall))
        ops[-1].update(rss_mib=rss, ref_s=ref)
        if traced and os.path.exists(span_file):
            dumps.append(dict(read_json(span_file), key=ops[-1]["key"]))
    bracket(ops, reference_s(REFERENCE_CALLS))
    return ops, dumps


def check_command(key, sub, code, raw, svg, wall):
    result = {"key": key, "s": wall, "code": code,
              "sha256": hashlib.sha256(raw).hexdigest(), "errors": []}
    errors = result["errors"]
    if code != 0:
        errors.append(f"exit code {code}")
        return result
    try:
        result["content"] = command_content(sub, raw.decode())
    except (ValueError, KeyError, TypeError) as e:
        errors.append(f"unreadable output: {e}")
        return result
    if sub == "game":
        crossings = json.loads(raw)["crossings"]
        result["crossings"] = len(crossings)
        result["big_operands"] = [crossings[-1]["t_after"],
                                  crossings[-1]["t_before"]]
        try:
            with open(svg) as fh:
                bad = misplaced_game_dots(
                    fh.read(), [c["height"] for c in crossings], GAME_R)
        except (OSError, ET.ParseError) as e:
            errors.append(f"game figure: {e}")
            return result
        result["misplaced_dots"] = bad
        if bad:
            result["render_error"] = f"{bad} game-figure dots misplaced"
    if sub == "staircase":
        try:
            ET.parse(svg)
        except (OSError, ET.ParseError) as e:
            errors.append(f"staircase figure: {e}")
    return result


def inproc_pass(workload, inputs_path, traced, pass_no):
    """Every operation in one child process, one after another.  Returns the
    child's per-operation results (None if it crashed), its span dump and
    its peak RSS in MiB."""
    out_path = WORK / "out" / f"{workload}-{pass_no}.json"
    span_file = WORK / "out" / f"{workload}-{pass_no}.spans.json"
    argv = [str(WORKER), "run", workload, str(inputs_path), str(out_path)]
    _, code, rss = run_child(argv + ([str(span_file)] if traced else []))
    if code != 0:
        return None, None, rss
    return (read_json(out_path), read_json(span_file) if traced else None,
            rss)


def check_inproc(workload, inputs, results, goldens):
    ops = []
    if workload == "classify_sweep":
        for p, res in zip(inputs["problems"], results):
            key = sweep_key(p)
            ok = res.get("content") == goldens["classify_sweep"][key]
            ops.append({"key": key, "s": res["s"], "ref_s": res["ref_s"],
                        "ref_after_s": res["ref_after_s"], "errors": [
                res.get("error", "verdict differs from golden")] if not ok else []})
    else:
        for g, res in zip(inputs["games"], results):
            ok = res.get("status") == "Defined"
            ops.append({"key": f"{g['i']}:{g['j']}:{g['x_char']}", "s": res["s"],
                        "ref_s": res["ref_s"], "ref_after_s": res["ref_after_s"],
                        "errors": [] if ok else [
                            res.get("error", f"game ended {res.get('status')}")]})
    return ops


def run_pass(workload, inputs, inputs_path, goldens, traced, pass_no):
    """One checked pass: (operations, span dumps, operations lost to a
    crashed child)."""
    if workload == "fixtures_cli":
        ops, dumps = fixtures_pass(inputs, traced)
        for op in ops:
            golden = goldens["fixtures_cli"][op["key"]]
            op["identical"] = op["sha256"] == golden["stdout_sha256"]
            if "content" in op and op["content"] != golden["content"]:
                op["errors"].append("content differs from golden")
        return ops, dumps, 0
    results, dump, rss = inproc_pass(workload, inputs_path, traced, pass_no)
    if results is None:
        key = "problems" if workload == "classify_sweep" else "games"
        return [], [], len(inputs[key])
    ops = check_inproc(workload, inputs, results, goldens)
    for op in ops:
        op["rss_mib"] = rss
    return ops, [dump] if dump else [], 0


def run_passes(workload, inputs, inputs_path, goldens, traced, seconds):
    """Whole passes until `seconds` have elapsed, at least one."""
    passes, dumps, lost = [], [], 0
    start = time.perf_counter()
    while True:
        ops, d, n_lost = run_pass(workload, inputs, inputs_path, goldens,
                                  traced, len(passes))
        passes.append(ops)
        dumps += d
        lost += n_lost
        if time.perf_counter() - start >= seconds:
            break
    if not any(passes):
        raise SystemExit(f"error: no operation of {workload} completed")
    return passes, dumps, lost


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    return sorted(values)[-11]


def cost_ref(op):
    """An operation's time in units of the reference workload's time per
    call, sampled right before and right after the operation."""
    return op["s"] * 2 / (op["ref_s"] + op["ref_after_s"])


def end_to_end(passes, setup):
    """setup: (wall seconds, peak RSS MiB) of each set-up child."""
    rss = [r for _, r in setup] + [op["rss_mib"] for ops in passes for op in ops]
    return {
        "setup_s": (statistics.median(t for t, _ in setup), "s"),
        "wall_ref": (statistics.median(sum(cost_ref(op) for op in ops)
                                       for ops in passes), "ref"),
        "op_gmean_ref": (statistics.geometric_mean(
            cost_ref(op) for ops in passes for op in ops), "ref"),
        "peak_rss_mib": (max(rss), "MiB"),
    }


def workload_report(workload, passes):
    """The untraced workload-specific figures, by the names used in
    perfbench/README.md; printed above the result line, not part of it."""
    ops = [op for p in passes for op in p]
    times = [op["s"] for op in ops]
    out = {"wall_s": (statistics.median(sum(op["s"] for op in p)
                                        for p in passes), "s"),
           "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
           "ref_ms": (statistics.median(op["ref_s"] for op in ops) * 1e3, "ms")}
    if workload == "fixtures_cli":
        for sub, fixture, _ in COMMANDS:
            key = command_key(sub, fixture)
            out[f"cli.{sub}.{fixture or 'builtin'}_s"] = (statistics.median(
                op["s"] for op in ops if op["key"] == key), "s")
        out["classify_b2_s"] = out["cli.classify.b2_half_s"]
        game = [op for op in ops if op["key"] == "game b2_half" and "crossings" in op]
        if game:
            out["crossings_per_s"] = (statistics.median(
                op["crossings"] / op["s"] for op in game), "1/s")
    elif workload == "classify_sweep":
        out["problems_per_s"] = (len(times) / sum(times), "1/s")
        out["classify_p50_ms"] = (statistics.median(times) * 1e3, "ms")
    else:
        out["games_per_s"] = (len(times) / sum(times), "1/s")
        out["game_p50_ms"] = (statistics.median(times) * 1e3, "ms")
        out["game_p97.5_ms"] = (tail(times) * 1e3, "ms")
    return out


def per_layer(passes, dumps, micro):
    """Per-layer metrics of the traced passes, each per pass."""
    calls, total, self_s, counts, untraced, cost = spans.summarize(dumps)
    n = len(passes)
    m = {}
    for name in spans.BOUNDARY_NAMES:
        m[f"{name}.calls"] = (calls[name] / n, "count")
        m[f"{name}.total_s"] = (total[name] / n, "s")
        m[f"{name}.self_s"] = (self_s[name] / n, "s")

    def count(key):
        return counts.get(key, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    m["torus.hits_in_box.hits"] = (count("hits"), "count")
    m["torus.hits_in_box.hits_per_call"] = (
        ratio(counts.get("hits", 0), calls["torus.hits_in_box"]), "hits/call")
    for parent in spans.HIT_PARENTS:
        m[f"torus.hits_in_box.hits_under.{parent}"] = (
            count(f"hits_under.{parent}"), "count")
    m["game.domination.raised"] = (count("domination_raised"), "count")
    m["game.domination.useful_ratio"] = (ratio(
        counts.get("domination_ok", 0), calls["game.DominationAnalysis"]),
        "ratio")
    m["staircase.build_staircase.failed"] = (count("staircase_failed"), "count")
    m["staircase.levels"] = (count("staircase_levels"), "count")
    m["rectangles.enumerate_primitive.reps"] = (count("reps"), "count")
    m["game.crossings"] = (count("crossings"), "count")
    m["game.crossing_us"] = (ratio(total["game.play_game"] * 1e6,
                                   counts.get("crossings", 0)), "us")
    m["game.t_digits"] = (counts.get("t_digits", 0), "count")
    m["classify.analyses_per_call"] = (ratio(
        calls["game.DominationAnalysis"] + calls["staircase.build_staircase"]
        + calls["rectangles.case_profile"], calls["classify.classify"]), "ratio")
    ops = [op for p in passes for op in p]
    m["cli.stdout_identical"] = (
        sum(op.get("identical", False) for op in ops) / n, "count")
    m["svgfig.game_figure.misplaced_dots"] = (
        max([op.get("misplaced_dots") or 0 for op in ops]), "count")
    traced_s = sum(op["s"] for op in ops) / n
    m["trace.overhead_ratio"] = (ratio(traced_s, traced_s - cost / n), "ratio")
    m["trace.untraced_boundaries"] = (len(untraced), "count")
    for key, value in micro.items():
        m[key] = (value, "us")
    return m, untraced


def domination_by_command(dumps):
    """Per traced command: domination analyses that gave a threshold, of
    those attempted."""
    out = {}
    for d in dumps:
        c = d["counts"]
        tried = c["domination_ok"] + c["domination_raised"]
        if "key" in d and tried:
            name = "game.domination.useful." + d["key"].replace(" ", ".")
            out[name] = (f"{c['domination_ok']}/{tried}", "analyses")
    return out


def quadfield_micro(goldens):
    operands = WORK / "inputs" / "operands.json"
    write_json(operands, {"small_matrix": FIXTURES["b2_half"]["matrix"],
                          "big": goldens["big_operands"]})
    out = WORK / "out" / "micro.json"
    _, code, _ = run_child([str(WORKER), "micro", str(operands), str(out)])
    if code != 0:
        raise RuntimeError("quadfield micro-benchmark failed")
    return read_json(out)


# ---------------------------------------------------------------------------
# entry point


def prepare(workload, seed):
    if not (ROOT / "src" / "anosurg" / "__init__.py").is_file():
        raise SystemExit("error: run from the repository root "
                         "(src/anosurg not found)")
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    # byte-compile once so that no timed child pays for compilation
    _, code, _ = run_child(["-m", "compileall", "-q", str(ROOT / "src"),
                            str(HERE)])
    if code != 0:
        raise SystemExit("error: byte-compiling the sources failed")
    inputs = make_inputs(workload, seed)
    inputs_path = WORK / "inputs" / f"{workload}.json"
    write_json(inputs_path, inputs)
    return inputs, inputs_path


def measure_setup(workload, inputs_path):
    """(wall seconds, peak RSS MiB) of SETUP_REPEATS fresh set-up children."""
    runs = []
    for _ in range(SETUP_REPEATS):
        wall, code, rss = run_child([str(WORKER), "setup", workload,
                                     str(inputs_path)])
        if code != 0:
            raise SystemExit(f"error: set-up of {workload} failed")
        runs.append((wall, rss))
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    inputs, inputs_path = prepare(args.workload, args.seed)
    goldens = read_json(GOLDENS)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}

    if args.trace:
        all_passes, dumps, lost = run_passes(args.workload, inputs, inputs_path,
                                             goldens, True, args.seconds)
        metrics, info["untraced"] = per_layer(all_passes, dumps,
                                              quadfield_micro(goldens))
        report = domination_by_command(dumps)
    else:
        setup_times = measure_setup(args.workload, inputs_path)
        all_passes, _, lost = run_passes(args.workload, inputs, inputs_path,
                                         goldens, False, args.seconds)
        metrics = end_to_end(all_passes, setup_times)
        report = workload_report(args.workload, all_passes)

    # `correct` covers the exact mathematical content and exit codes; a
    # figure that draws a right answer in the wrong place counts as failed
    ops = [op for p in all_passes for op in p]
    failures = [op for op in ops if op["errors"] or op.get("render_error")]
    attempted = len(ops) + lost
    failed = len(failures) + lost
    report["failed_ratio"] = (failed / attempted, "ratio")
    report["passes"] = (len(all_passes), "count")

    for key, value in info.items():
        print(f"# {key}: {value}")
    for op in failures:
        reasons = op["errors"] + [op.get("render_error") or ""]
        print(f"# FAILED {op['key']}: " + "; ".join(r for r in reasons if r))
    for name, (value, unit) in list(report.items()) + list(metrics.items()):
        print(f"{name} {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    write_json(WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json",
               {"info": info, "report": report, "metrics": metrics,
                "operations": ops})
    if args.trace:
        write_json(WORK / f"spans-{args.workload}-{args.seed}.json", dumps)
    print(json.dumps({
        "correct": not any(op["errors"] for op in ops) and not lost,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
