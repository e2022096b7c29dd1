"""Record a BENCH_<n>.json: perfbench end-to-end metrics of a parent commit
and its change from alternating pairs of runs, plus import time, per-command
wall times, the in-process `play_game` time of the 1,500-crossing game, the
box scans and QuadNums of one in-process `game_grid` pass and of one cold
in-process `classify_sweep` pass, the in-process `load_problem` times of the
long-orbit problems, the field micro-benchmarks and the Tier-1 wall time.

    python3 bench/record.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are git revisions of this repository.  Each side is
exported with `git archive` into a fresh directory, and every measurement
runs in those exports, never in the working tree.  The perfbench/ files of
both exports must be the same tree.  Pair i runs the parent first when i is
odd and the change first when it is even.  For every metric, and for the
time of every command, the record holds the runs by pair, their median,
first and third quartiles (inclusive method), the IQR, how many pairs the
change read lower and whether the difference is resolved (see `compare`).
For every row it also makes PAIRS alternating pairs of traced runs: it
stores the COUNTS of each side's first traced run, which do not drift with
the host's clock, and compares the TRACED_TIMES of all of them like the
metrics.  The scans and QuadNums of a seed-1 `game_grid` pass
(COUNT_SCRIPT) and of a cold seed-1 `classify_sweep` pass
(CLASSIFY_COUNT_SCRIPT) are counted once per side, in process.  It stores
the lines of src/**/*.py in each export and their net change.  The field
micro-benchmarks are the MICRO figures of `perfbench/worker.py micro`, run
in each export on operands written from that export's
perfbench/goldens.json (`big_operands`) and the matrix of its
fixtures/b2_half.json.  The pair and run counts and the claimed metric, if
any, are the module constants below; the record also gives each metric's
no-regression bound from BENCHMARK.json.  At the end it prints that line
change, the counts and traced times of both sides, the micro-benchmark
medians of both sides, and the change's medians against those of the newest
BENCH_*.json in the change's tree.

Nothing here is a test: timings are recorded, never asserted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROWS = (("fixtures_cli", 1), ("fixtures_cli", 11), ("classify_sweep", 1),
        ("classify_sweep", 5), ("game_grid", 1), ("game_grid", 7))
METRICS = ("wall_ref", "op_gmean_ref", "setup_s", "peak_rss_mib")
# per-pass counts read from one --trace 1 run per row and side
COUNTS = ("torus.hits_in_box.calls", "torus.hits_in_box.hits",
          "game.crossings", "staircase.build_staircase.calls",
          "staircase.build_staircase.failed", "staircase.levels",
          "rectangles.enumerate_primitive.calls",
          "rectangles.rect_meets.calls")
# per-pass times of the traced runs, stored and printed with COUNTS: the
# game's time per crossing and play_game's own time, outside the spans it
# calls; one traced run cannot resolve them, as the host's clock swings
TRACED_TIMES = ("game.crossing_us", "game.play_game.self_s")
# microseconds per field operation, on small and on big operands, that
# `perfbench/worker.py micro` writes
MICRO = tuple(f"quadfield.{op}{size}_us" for size in ("", "_big")
              for op in ("add", "mul", "lt", "floor"))
# the workload and metric whose gain the change claims, or None when it
# claims no gain and only each metric's no-regression bound applies
CLAIM = ("classify_sweep", "wall_ref")

# alternating parent/change pairs per perfbench row, and alternating runs
# per side of the import time, of each CLI command, of the
# micro-benchmarks and of Tier-1
PAIRS = 10
IMPORT_RUNS = 20
COMMAND_RUNS = 10
MICRO_RUNS = 10
TIER1_RUNS = 2


def long_orbit(q: int) -> dict:
    """A2 with Y the (0,0) orbit at -1 and X the orbit of (1/q, 0) at +1: a
    long orbit, which the fixtures do not have."""
    return {"matrix": [[2, 1], [1, 1]],
            "sets": [{"point": [f"1/{q}", "0"], "characteristic_number": 1,
                      "role": "X"},
                     {"point": ["0", "0"], "characteristic_number": -1,
                      "role": "Y"}]}


# problem files written for the commands, by the name they use: X orbits of
# periods 98, 200, 384, 1,000, 2,004, 5,004 and 8,018, whose box scans step
# through one coset per point, and the undertwisted A2 game's X and Y
# orbits, which fill (1/2)Z^2 mod Z^2 and are scanned as that one lattice
PROBLEMS = {"PERIOD_98": long_orbit(97), "PERIOD_200": long_orbit(175),
            "PERIOD_384": long_orbit(254), "PERIOD_1000": long_orbit(4001),
            "PERIOD_2004": long_orbit(2003), "PERIOD_5004": long_orbit(5003),
            "PERIOD_8018": long_orbit(8017),
            "UNDERTWISTED_A2": {
                "matrix": [[2, 1], [1, 1]],
                "sets": [{"point": ["0", "0"], "characteristic_number": 1,
                          "role": "X"},
                         {"point": ["1/2", "1/2"],
                          "characteristic_number": -2, "role": "Y"}]}}

# The 1,500-crossing b2 game renormalizes its scans by powers of A up to
# about 750; it draws no figure, whose offsets no longer fit in a double.
LONG_GAME = ("game fixtures/b2_half.json --point 0,0 --t0 1 --r 20 "
             "--budget 1500")
LONG_GAME_CROSSINGS = 1500

# CLI commands timed in fresh processes; PATH is a scratch SVG file.  The
# long-orbit `classify` and `thresholds` commands read each period family
# only up to the member that decides, and the staircase seed searches of
# `thresholds` share what the domination analyses read.  The long-orbit
# `census` and `profile` read one whole period family per orbit and sign,
# which takes minutes at periods 1,000 and 2,004, so the problems of
# period 1,000 and more are only classified, and those of periods 5,004
# and 8,018, whose staircases read rungs past 4,000, also thresholded.
COMMANDS = ("examples",
            "census fixtures/a2_half.json",
            "classify fixtures/b2_half.json",
            "staircase fixtures/b2_half.json",
            "staircase fixtures/b2_half.json --svg PATH",
            "game fixtures/b2_half.json --point 0,0 --t0 1 --r 20 "
            "--budget 400 --svg PATH",
            LONG_GAME,
            "census PERIOD_98",
            "census PERIOD_200",
            "profile PERIOD_200",
            "classify PERIOD_200",
            "thresholds PERIOD_200",
            "census PERIOD_384",
            "classify PERIOD_384",
            "thresholds PERIOD_384",
            "classify PERIOD_1000",
            "classify PERIOD_2004",
            "classify PERIOD_5004",
            "thresholds PERIOD_5004",
            "classify PERIOD_8018",
            "thresholds PERIOD_8018",
            "game UNDERTWISTED_A2 --point 0,0 --t0 1 --r 3 --budget 400")

# LONG_GAME in process: the `play_game` call alone, without interpreter
# start-up, problem parsing or the JSON output; its row follows the CLI row
GAME_SCRIPT = f"""
import json, time
from anosurg import GameConfig, QuadNum, eigenframe, play_game, point
from anosurg.cli import load_problem
with open("fixtures/b2_half.json") as fh:
    A, sets, _ = load_problem(json.load(fh))
frame = eigenframe(A)
config = GameConfig(frame, (sets["X"], sets["Y"]), "++")
t0, r = QuadNum(1, 0, frame.D), QuadNum(20, 0, frame.D)
start = time.perf_counter()
outcome = play_game(config, point(0, 0), t0, r, {LONG_GAME_CROSSINGS})
seconds = time.perf_counter() - start
print(f"play_game {{len(outcome.trace)}} crossings {{seconds:.6f}} s")
"""

# the counters of the in-process passes below: counted(name, f) counts the
# calls of f in counts[name], and count_work() counts the box scans
# (`torus.box_lifts` calls, which perfbench's traced `torus.hits_in_box`
# no longer sees), the QuadNums built (`_qn` calls), the values taken apart
# into their integers (`_parts` calls), both through every module's
# binding of them, and the QuadNum order comparisons (calls of its four
# order methods)
PASS_COUNTERS = """
import sys
sys.path.insert(0, "perfbench")
from run import make_inputs
from worker import build
import anosurg
from anosurg import quadfield, torus
counts = {"box_lifts": 0, "_qn": 0, "_parts": 0, "compare": 0}
def counted(name, f):
    def call(*args):
        counts[name] += 1
        return f(*args)
    return call
def count_work():
    torus.box_lifts = counted("box_lifts", torus.box_lifts)
    for name in ("_qn", "_parts"):
        f = getattr(quadfield, name)
        counted_f = counted(name, f)
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("anosurg.")
                    and getattr(module, name, None) is f):
                setattr(module, name, counted_f)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        setattr(quadfield.QuadNum, name,
                counted("compare", getattr(quadfield.QuadNum, name)))
"""

# one seed-1 `game_grid` pass in process, its games built and played as
# perfbench/worker.py does, counted from after the build
COUNT_SCRIPT = PASS_COUNTERS + """
from fractions import Fraction
from anosurg import play_game
inputs = make_inputs("game_grid", 1)
games = build("game_grid", inputs)
count_work()
crossings = sum(len(play_game(cfg, (Fraction(0), Fraction(0)), t0, r,
                              inputs["budget"]).trace)
                for cfg, t0, r in games)
print(f"game_grid seed 1 crossings {crossings} box_lifts "
      f"{counts['box_lifts']} _qn {counts['_qn']} _parts {counts['_parts']} "
      f"compare {counts['compare']}")
"""

# one cold seed-1 `classify_sweep` pass in process: its problems built as
# perfbench/worker.py builds them, then one `classify` and the `++` and
# `+-` `quadrant_report`s at the origin per problem, as its sweep runs
# them, counted with the build; the first problem of each geometry builds
# its analysis, the rest are memo hits
CLASSIFY_COUNT_SCRIPT = PASS_COUNTERS + """
from anosurg import classify, point, quadrant_report
count_work()
problems = build("classify_sweep", make_inputs("classify_sweep", 1))
origin = point(0, 0)
for problem in problems:
    classify(problem)
    for quadrant in ("++", "+-"):
        quadrant_report(problem, origin, quadrant)
print(f"classify_sweep seed 1 problems {len(problems)} box_lifts "
      f"{counts['box_lifts']} _qn {counts['_qn']} compare "
      f"{counts['compare']}")
"""

# `load_problem` of each of these problems in process: one call in a fresh
# process per run, without start-up or reading the file
LOADS = ("PERIOD_384", "PERIOD_1000", "PERIOD_2004")
LOAD_SCRIPT = """
import json, sys, time
from anosurg.cli import load_problem
with open(sys.argv[1]) as fh:
    data = json.load(fh)
start = time.perf_counter()
load_problem(data)
print(f"load_problem {time.perf_counter() - start:.6f} s")
"""

# what each end-to-end metric measures, where that is not the program alone
METRIC_NOTES = {
    "peak_rss_mib": "mostly the harness: perfbench/run.py reads each "
                    "child's ru_maxrss from os.wait4, and a child started "
                    "from the benchmark process is charged with that "
                    "process's resident set, which grows from pass to pass "
                    "(see the FOUND line on peak_rss_mib in CHANGES.md)"}

TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """A fresh copy of rev's tree at dest, byte-compiled."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                   cwd=dest, check=True)
    return dest


def src_lines(tree: Path) -> int:
    """Lines of the Python files under tree/src, at any depth."""
    return sum(len(path.read_text().splitlines())
               for path in (tree / "src").rglob("*.py"))


def src_line_change(trees: dict) -> dict:
    """{"parent", "change", "net"}: src/**/*.py lines of each side's tree
    and the change's net difference."""
    lines = {side: src_lines(tree) for side, tree in trees.items()}
    return {**lines, "net": lines["change"] - lines["parent"]}


def no_regression(benchmark: dict) -> dict:
    """{name: bound} for each of METRICS, read from the end_to_end list of
    a BENCHMARK.json; a metric without a bound raises KeyError."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    return {name: bounds[name] for name in METRICS}


def summary(values: list) -> dict:
    """Median, quartiles (inclusive method) and IQR of the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "iqr": round(q3 - q1, 6),
            "runs": [round(v, 6) for v in values]}


def compare(parent: list, change: list, unit: str) -> dict:
    """Both sides' summaries, the pairs the change read lower, and whether
    the difference is resolved: the change reads lower, or higher, in all
    pairs but at most one, and the medians differ by more than the parent's
    IQR."""
    before, after = summary(parent), summary(change)
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    return {"unit": unit, "parent": before, "change": after,
            "pairs_change_lower": lower,
            "resolved": (max(lower, higher) >= len(parent) - 1
                         and abs(after["median"] - before["median"])
                         > before["iqr"])}


def alternate(pairs: int, measure):
    """measure(side) for both sides over pairs, parent first in odd pairs;
    returns {side: [value per pair]}."""
    runs = {"parent": [], "change": []}
    for i in range(1, pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(measure(side))
    return runs


def perfbench_run(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "5", "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def traced_run(tree: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        cwd=tree, check=True, capture_output=True, text=True).stdout
    return {"counts": parse_counts(out), "times": parse_traced_times(out)}


def parse_counts(stdout: str) -> dict:
    """{name: per-pass value} of COUNTS from the JSON result line that ends
    a traced perfbench run's stdout."""
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    values = {name: metrics[name]["value"] for name in COUNTS}
    return {name: int(v) if v == int(v) else v for name, v in values.items()}


def parse_traced_times(stdout: str) -> dict:
    """{name: per-pass value} of TRACED_TIMES from the same result line."""
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in TRACED_TIMES}


def record_workload(trees: dict, workload: str, seed: int):
    results = alternate(PAIRS, lambda side: perfbench_run(trees[side],
                                                          workload, seed))
    runs = [r for side in results.values() for r in side]
    metrics = {}
    for name in METRICS:
        unit = results["parent"][0]["metrics"][name]["unit"]
        metrics[name] = compare(
            [r["metrics"][name]["value"] for r in results["parent"]],
            [r["metrics"][name]["value"] for r in results["change"]], unit)
    traced = alternate(PAIRS, lambda side: traced_run(trees[side], workload,
                                                      seed))
    times = {name: compare([r["times"][name] for r in traced["parent"]],
                           [r["times"][name] for r in traced["change"]],
                           "us" if name.endswith("_us") else "s")
             for name in TRACED_TIMES}
    return {"workload": workload, "seed": seed,
            "command": f"python3 perfbench/run.py --workload {workload} "
                       f"--seed {seed} --seconds 5 --trace 0",
            "pairs": PAIRS,
            "order": "odd pairs run the parent first, even pairs the change "
                     "first",
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
            "counts": {"command": f"python3 perfbench/run.py --workload "
                                  f"{workload} --seed {seed} --seconds 0 "
                                  f"--trace 1, {PAIRS} alternating pairs; "
                                  "the counts are the first run's",
                       **{side: runs[0]["counts"]
                          for side, runs in traced.items()},
                       "times": times}}


def env_for(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def import_ms(tree: Path) -> float:
    """Cumulative -X importtime of anosurg.cli, in ms."""
    err = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import anosurg.cli"],
        cwd=tree, env=env_for(tree), check=True, capture_output=True,
        text=True).stderr
    return parse_import_time(err)


def parse_import_time(stderr: str) -> float:
    for line in stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "anosurg.cli":
            return int(fields[1]) / 1000
    raise ValueError("no anosurg.cli line in the -X importtime output")


def command_seconds(tree: Path, args: str, scratch: Path) -> float:
    argv = [str(scratch / "figure.svg") if a == "PATH" else
            str(scratch / f"{a}.json") if a in PROBLEMS else a
            for a in args.split()]
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "anosurg.cli", *argv], cwd=tree,
                   env=env_for(tree), check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def game_seconds(tree: Path) -> float:
    """Seconds of the `play_game` call of one GAME_SCRIPT run in tree."""
    out = subprocess.run([sys.executable, "-c", GAME_SCRIPT], cwd=tree,
                         env=env_for(tree), check=True, capture_output=True,
                         text=True).stdout
    return parse_game_seconds(out)


def parse_game_seconds(stdout: str) -> float:
    """The seconds in GAME_SCRIPT's line "play_game N crossings S s"; a
    game of other than LONG_GAME_CROSSINGS crossings raises ValueError."""
    found = re.fullmatch(r"play_game (\d+) crossings ([\d.]+) s",
                         stdout.strip())
    if not found or int(found.group(1)) != LONG_GAME_CROSSINGS:
        raise ValueError(f"not a {LONG_GAME_CROSSINGS}-crossing game: "
                         f"{stdout!r}")
    return float(found.group(2))


def pass_counts(tree: Path, script: str, parse) -> dict:
    """parse() of the output of one run of script, COUNT_SCRIPT or
    CLASSIFY_COUNT_SCRIPT, in tree."""
    out = subprocess.run([sys.executable, "-c", script], cwd=tree,
                         env=env_for(tree), check=True, capture_output=True,
                         text=True).stdout
    return parse(out)


def parse_pass_counts(stdout: str) -> dict:
    """{"crossings", "box_lifts", "_qn", "_parts", "compare"} from
    COUNT_SCRIPT's line "game_grid seed 1 crossings C box_lifts S _qn Q
    _parts P compare O"."""
    found = re.fullmatch(r"game_grid seed 1 crossings (\d+) box_lifts (\d+) "
                         r"_qn (\d+) _parts (\d+) compare (\d+)",
                         stdout.strip())
    if not found:
        raise ValueError(f"not a game_grid count line: {stdout!r}")
    return dict(zip(("crossings", "box_lifts", "_qn", "_parts", "compare"),
                    map(int, found.groups())))


def parse_classify_counts(stdout: str) -> dict:
    """{"problems", "box_lifts", "_qn", "compare"} from
    CLASSIFY_COUNT_SCRIPT's line "classify_sweep seed 1 problems P
    box_lifts S _qn Q compare O"."""
    found = re.fullmatch(r"classify_sweep seed 1 problems (\d+) box_lifts "
                         r"(\d+) _qn (\d+) compare (\d+)", stdout.strip())
    if not found:
        raise ValueError(f"not a classify_sweep count line: {stdout!r}")
    return dict(zip(("problems", "box_lifts", "_qn", "compare"),
                    map(int, found.groups())))


def load_seconds(tree: Path, problem: Path) -> float:
    """Seconds of the `load_problem` call of one LOAD_SCRIPT run in tree."""
    out = subprocess.run([sys.executable, "-c", LOAD_SCRIPT, str(problem)],
                         cwd=tree, env=env_for(tree), check=True,
                         capture_output=True, text=True).stdout
    return parse_load_seconds(out)


def parse_load_seconds(stdout: str) -> float:
    """The seconds in LOAD_SCRIPT's line "load_problem S s"."""
    found = re.fullmatch(r"load_problem ([\d.]+) s", stdout.strip())
    if not found:
        raise ValueError(f"not a load_problem line: {stdout!r}")
    return float(found.group(1))


def micro_us(tree: Path, work: Path) -> dict:
    """The MICRO figures of one `perfbench/worker.py micro` run in tree."""
    goldens = json.loads((tree / "perfbench" / "goldens.json").read_text())
    b2 = json.loads((tree / "fixtures" / "b2_half.json").read_text())
    operands = work / f"operands-{tree.name}.json"
    operands.write_text(json.dumps({"small_matrix": b2["matrix"],
                                    "big": goldens["big_operands"]}))
    out = work / f"micro-{tree.name}.json"
    subprocess.run([sys.executable, "perfbench/worker.py", "micro",
                    str(operands), str(out)], cwd=tree, env=env_for(tree),
                   check=True)
    return parse_micro(out.read_text())


def parse_micro(text: str) -> dict:
    """{name: µs} of the MICRO figures in the JSON that `worker.py micro`
    writes; a missing figure raises KeyError."""
    values = json.loads(text)
    return {name: float(values[name]) for name in MICRO}


def tier1_run(tree: Path) -> dict:
    """The counts and duration of pytest's summary line."""
    out = subprocess.run(TIER1, cwd=tree, env=env_for(tree),
                         capture_output=True, text=True).stdout
    return parse_pytest_summary(out)


def tier1_record(trees: dict) -> dict:
    """{side: {"passed", "failed", "errors", "runs"}} from TIER1_RUNS
    alternating Tier-1 runs per side, parent first in odd runs, so that
    drift of the host's speed falls on both sides alike.  The counts are
    those of the side's run with the most failures and errors; runs lists
    the durations in the order run."""
    done = alternate(TIER1_RUNS, lambda side: tier1_run(trees[side]))
    tier1 = {}
    for side, runs in done.items():
        worst = max(runs, key=lambda r: r["failed"] + r["errors"])
        tier1[side] = {"passed": worst["passed"], "failed": worst["failed"],
                       "errors": worst["errors"],
                       "runs": [r["seconds"] for r in runs]}
    return tier1


def parse_pytest_summary(stdout: str) -> dict:
    """{"passed", "failed", "errors", "seconds"} from the last line, e.g.
    "2 failed, 354 passed, 1 error in 30.12s"; a count not named is 0."""
    last = stdout.strip().splitlines()[-1]
    seconds = re.search(r" in ([\d.]+)s", last)
    if not seconds:
        raise ValueError(f"no pytest summary in {last!r}")
    counts = {word: int(n) for n, word in
              re.findall(r"(\d+) (passed|failed|errors?)\b", last)}
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "errors": counts.get("error", 0) + counts.get("errors", 0),
            "seconds": float(seconds.group(1))}


def previous_record(tree: Path, out_name: str):
    """The newest BENCH_<n>.json in tree other than out_name, or None."""
    found = sorted((int(m.group(1)), p) for p in tree.glob("BENCH_*.json")
                   if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))
                   and p.name != out_name)
    return found[-1][1] if found else None


def print_counts(record: dict):
    print("traced counts and median times per pass, parent -> change:")
    for row in record["results"]:
        counts = row["counts"]
        for name in COUNTS:
            print(f"  {row['workload']} seed {row['seed']} {name}: "
                  f"{counts['parent'][name]:g} -> {counts['change'][name]:g}")
        for name, m in counts["times"].items():
            print(f"  {row['workload']} seed {row['seed']} {name}: "
                  f"{m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                  f" (change lower in {m['pairs_change_lower']} of {PAIRS}"
                  " pairs)")


def print_ratios(record: dict, previous: Path):
    old = json.loads(previous.read_text())
    old_rows = {(r["workload"], r["seed"]): r for r in old["results"]}
    print(f"change medians against {previous.name}'s change medians:")
    for row in record["results"]:
        was = old_rows.get((row["workload"], row["seed"]))
        if was is None:
            continue
        for name, m in row["metrics"].items():
            before = was["metrics"].get(name, {}).get("change", {})
            if before.get("median"):
                print(f"  {row['workload']} seed {row['seed']} {name}: "
                      f"{before['median']:.6g} -> {m['change']['median']:.6g}"
                      f" (x{m['change']['median'] / before['median']:.3f})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)

    revs = {side: git("rev-parse", getattr(args, side))
            for side in ("parent", "change")}
    bench_trees = {git("rev-parse", f"{rev}:perfbench")
                   for rev in revs.values()}
    if len(bench_trees) != 1:
        sys.exit("the two sides have different perfbench/ trees")
    work = Path(tempfile.mkdtemp(prefix="anosurg-bench-"))
    try:
        trees = {side: export(rev, work / side) for side, rev in revs.items()}
        for name, problem in PROBLEMS.items():
            (work / f"{name}.json").write_text(json.dumps(problem))
        record = build_record(revs, trees, work)
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        lines = record["src_lines"]
        print(f"src/**/*.py lines: {lines['parent']} -> {lines['change']} "
              f"(net {lines['net']:+d})")
        print_counts(record)
        for workload in ("game_grid", "classify_sweep"):
            counted = record[f"{workload}_pass"]
            print(f"seed-1 {workload} pass, parent -> change: " + ", ".join(
                f"{name} {counted['parent'][name]} -> "
                f"{counted['change'][name]}" for name in counted["parent"]))
        print("quadfield micro-benchmark medians, parent -> change (us):")
        for name, m in record["quadfield_micro"]["metrics"].items():
            print(f"  {name}: {m['parent']['median']:.4g} -> "
                  f"{m['change']['median']:.4g}"
                  f"{'' if m['resolved'] else ' (unresolved)'}")
        previous = previous_record(trees["change"], Path(args.out).name)
        if previous is not None:
            print_ratios(record, previous)
    finally:
        shutil.rmtree(work)


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def build_record(revs: dict, trees: dict, work: Path) -> dict:
    results = []
    for workload, seed in ROWS:
        print(f"perfbench {workload} seed {seed}", file=sys.stderr)
        results.append(record_workload(trees, workload, seed))

    print("import time", file=sys.stderr)
    imports = alternate(IMPORT_RUNS, lambda side: import_ms(trees[side]))
    rows = []
    for command in COMMANDS:
        print(f"command {command}", file=sys.stderr)
        runs = alternate(COMMAND_RUNS, lambda side: command_seconds(
            trees[side], command, work))
        rows.append({"args": command,
                     **compare(runs["parent"], runs["change"], "s")})
        if command == LONG_GAME:
            print("in-process play_game", file=sys.stderr)
            runs = alternate(COMMAND_RUNS,
                             lambda side: game_seconds(trees[side]))
            rows.append({"args": "play_game of the command above, in process",
                         **compare(runs["parent"], runs["change"], "s")})
    print("game_grid and classify_sweep pass counts", file=sys.stderr)
    pass_work = {side: pass_counts(tree, COUNT_SCRIPT, parse_pass_counts)
                 for side, tree in trees.items()}
    sweep_work = {side: pass_counts(tree, CLASSIFY_COUNT_SCRIPT,
                                    parse_classify_counts)
                  for side, tree in trees.items()}
    loads = {}
    for name in LOADS:
        print(f"load_problem {name}", file=sys.stderr)
        runs = alternate(COMMAND_RUNS, lambda side: load_seconds(
            trees[side], work / f"{name}.json"))
        loads[name] = compare(runs["parent"], runs["change"], "s")
    print("micro-benchmarks", file=sys.stderr)
    micro = alternate(MICRO_RUNS, lambda side: micro_us(trees[side], work))
    print("tier-1", file=sys.stderr)
    tier1 = tier1_record(trees)

    machine = {"nproc": os.cpu_count(), "cpu": cpu_name(),
               "arch": platform.machine(),
               "python": platform.python_version(), "os": platform.system()}
    return {
        "description": "End-to-end perfbench metrics of a parent commit and "
                       "its change, from alternating parent/change pairs of "
                       "runs on one machine, each run in a fresh export of "
                       "its side's tree (git archive); both sides have the "
                       "same perfbench/ tree. Also: the cumulative -X "
                       "importtime of anosurg.cli, per-command wall times, "
                       "the field micro-benchmarks and the Tier-1 wall "
                       "time. Written by bench/record.py.",
        "parent": {"commit": revs["parent"],
                   "src_tree": git("rev-parse", f"{revs['parent']}:src")},
        "change": {"commit": revs["change"],
                   "src_tree": git("rev-parse", f"{revs['change']}:src"),
                   "check": "git rev-parse <commit>:src prints src_tree"},
        "machine": machine,
        "claim": None if CLAIM is None else {
            "workload": CLAIM[0], "metric": CLAIM[1],
            "rule": f"the change wins at least {PAIRS - 1} of {PAIRS} pairs "
                    "and the medians differ by more than the parent's IQR, "
                    "on every seed recorded for the workload"},
        "no_regression": {
            "rule": "on every row, the change's median of each metric is "
                    "worse than the parent's by at most the bound, a "
                    "fraction of the parent's median; bounds from the "
                    "end_to_end list of the change's BENCHMARK.json",
            "bounds": no_regression(json.loads(
                (trees["change"] / "BENCHMARK.json").read_text()))},
        "statistics": "median, first and third quartiles (inclusive method) "
                      "and IQR = q3 - q1 over the runs of each side; runs "
                      "lists them by pair; pairs_change_lower counts the "
                      "pairs in which the change read lower; resolved is "
                      "true when the change read lower, or higher, in at "
                      f"least {PAIRS - 1} of {PAIRS} pairs and the medians "
                      "differ by more than the parent's IQR (for the "
                      f"micro-benchmarks, {MICRO_RUNS - 1} of {MICRO_RUNS})",
        "metric_notes": METRIC_NOTES,
        "src_lines": src_line_change(trees),
        "results": results,
        "import_time": {
            "command": "python -X importtime -c \"import anosurg.cli\" in "
                       f"each side's compiled export, {IMPORT_RUNS} "
                       "alternating runs per side",
            "metric": "cumulative time of the anosurg.cli line",
            "unit": "ms",
            "parent": summary(imports["parent"]),
            "change": summary(imports["change"])},
        "cli_commands": {
            "command": "wall time of python -m anosurg.cli <args> in a fresh "
                       f"process, {COMMAND_RUNS} alternating runs per "
                       "side, compiled exports; PERIOD_98, PERIOD_200 and "
                       "PERIOD_384 are A2 with Y the (0,0) orbit at -1 and X "
                       "the orbit of (1/97, 0) (period 98), of (1/175, 0) "
                       "(period 200) or of (1/254, 0) (period 384) at +1; "
                       "UNDERTWISTED_A2 is A2 with X the (0,0) orbit at +1 "
                       "and Y the (1/2,1/2) orbit at -2, a game "
                       "that runs to its budget; PERIOD_1000, "
                       "PERIOD_2004, PERIOD_5004 and PERIOD_8018 are those "
                       "problems with X the orbit of (1/4001, 0) (period "
                       "1,000), of (1/2003, 0) (period 2,004), of "
                       "(1/5003, 0) (period 5,004) or of (1/8017, 0) "
                       "(period 8,018); the row after the "
                       "1,500-crossing game "
                       "times its play_game call alone, in one fresh "
                       "process per run, without start-up, parsing or JSON "
                       "output",
            "rows": rows},
        "game_grid_pass": {
            "command": "python -c COUNT_SCRIPT in each side's compiled "
                       "export, once per side: one seed-1 game_grid pass in "
                       "process, its 400 games built and played as "
                       "perfbench/worker.py does",
            "metric": "crossings, torus.box_lifts calls, _qn calls (the "
                      "QuadNums built) and _parts calls (the values taken "
                      "apart), each through every module's binding, and "
                      "QuadNum order comparisons (compare) of the pass's "
                      "play_game calls; counts, not times",
            **pass_work},
        "classify_sweep_pass": {
            "command": "python -c CLASSIFY_COUNT_SCRIPT in each side's "
                       "compiled export, once per side: one cold seed-1 "
                       "classify_sweep pass in process, its problems built "
                       "as perfbench/worker.py does, then one classify and "
                       "the ++ and +- quadrant_reports at the origin per "
                       "problem, counted with the build",
            "metric": "problems, torus.box_lifts calls, _qn calls (the "
                      "QuadNums built), through every module's binding, "
                      "and QuadNum order comparisons (compare) of the "
                      "pass; counts, not times",
            **sweep_work},
        "load_problem": {
            "command": "python -c LOAD_SCRIPT PROBLEM in each side's "
                       "compiled export: one anosurg.cli.load_problem call "
                       "on the parsed JSON of the problem, timed in process, "
                       f"{COMMAND_RUNS} alternating runs per side",
            "metrics": loads},
        "quadfield_micro": {
            "command": "python perfbench/worker.py micro OPERANDS OUT in "
                       "each side's compiled export, OPERANDS from its "
                       "perfbench/goldens.json big_operands and the matrix "
                       f"of its fixtures/b2_half.json, {MICRO_RUNS} "
                       "alternating runs per side",
            "metric": "median microseconds per field operation over the "
                      "worker's 5 timeit repeats",
            "metrics": {name: compare([r[name] for r in micro["parent"]],
                                      [r[name] for r in micro["change"]],
                                      "us")
                        for name in MICRO}},
        "tier1": {
            "command": " ".join(["PYTHONPATH=src python"] + TIER1[1:]) +
                       f", in each side's export, {TIER1_RUNS} "
                       "alternating runs per side, parent first in odd "
                       "runs",
            "unit": "s",
            "metric": "pytest's reported duration; passed, failed and "
                      "errors are the counts of the side's run with the most "
                      "failures and errors",
            **tier1},
    }


if __name__ == "__main__":
    main()
