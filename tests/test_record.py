"""bench/record.py's statistics, output parsing and source line count (no
timing is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "record.py"
_spec = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_summary_uses_inclusive_quartiles():
    s = record.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert s["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0]


def test_compare_counts_pairs_the_change_wins():
    c = record.compare([10, 10, 10, 10], [9, 11, 8, 10], "ref")
    assert c["pairs_change_lower"] == 2 and c["unit"] == "ref"


def test_compare_resolves_only_a_consistent_shift_beyond_the_iqr():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    # lower in 9 of 10 pairs, medians 2.0 apart against an IQR of 0.2
    lower = [8.0] * 9 + [10.5]
    assert record.compare(parent, lower, "us")["resolved"]
    # higher in 10 of 10: a loss is resolved too
    assert record.compare(parent, [12.0] * 10, "us")["resolved"]
    # lower in only 8 of 10 pairs
    assert not record.compare(parent, [8.0] * 8 + [10.5] * 2,
                              "us")["resolved"]
    # lower in every pair, but by less than the parent's IQR
    assert not record.compare(parent, [v - 0.05 for v in parent],
                              "us")["resolved"]


def test_alternate_runs_the_parent_first_in_odd_pairs():
    order = []
    runs = record.alternate(3, lambda side: order.append(side) or len(order))
    assert order == ["parent", "change", "change", "parent",
                     "parent", "change"]
    assert runs == {"parent": [1, 4, 5], "change": [2, 3, 6]}


def test_tier1_runs_alternate_and_keep_the_worst_counts(monkeypatch):
    order = []

    def fake_tier1_run(tree):
        order.append(tree)
        failed = 1 if len(order) == 3 else 0
        return {"passed": 10 - failed, "failed": failed, "errors": 0,
                "seconds": float(len(order))}

    monkeypatch.setattr(record, "tier1_run", fake_tier1_run)
    monkeypatch.setattr(record, "TIER1_RUNS", 3)
    tier1 = record.tier1_record({"parent": "P", "change": "C"})
    assert order == ["P", "C", "C", "P", "P", "C"]
    assert tier1["parent"] == {"passed": 10, "failed": 0, "errors": 0,
                               "runs": [1.0, 4.0, 5.0]}
    assert tier1["change"] == {"passed": 9, "failed": 1, "errors": 0,
                               "runs": [2.0, 3.0, 6.0]}


def test_parse_import_time_reads_the_cumulative_column():
    err = ("import time: self [us] | cumulative | imported package\n"
           "import time:       120 |        120 |   anosurg.quadfield\n"
           "import time:       310 |      16345 | anosurg.cli\n")
    assert record.parse_import_time(err) == 16.345
    with pytest.raises(ValueError):
        record.parse_import_time("import time: 1 | 2 | os\n")


def test_parse_game_seconds_reads_the_play_game_line():
    out = f"play_game {record.LONG_GAME_CROSSINGS} crossings 1.823456 s\n"
    assert record.parse_game_seconds(out) == 1.823456
    with pytest.raises(ValueError):
        record.parse_game_seconds("play_game 400 crossings 0.25 s\n")
    with pytest.raises(ValueError):
        record.parse_game_seconds("")


def test_parse_pass_counts_reads_the_count_line():
    out = ("game_grid seed 1 crossings 2140 box_lifts 1018 _qn 9446 "
           "_parts 25108 compare 2140\n")
    assert record.parse_pass_counts(out) == {
        "crossings": 2140, "box_lifts": 1018, "_qn": 9446, "_parts": 25108,
        "compare": 2140}
    with pytest.raises(ValueError):
        record.parse_pass_counts("game_grid seed 1 crossings 2140 box_lifts "
                                 "1018 _qn 9446\n")
    with pytest.raises(ValueError):
        record.parse_pass_counts("")


def test_parse_load_seconds_reads_the_load_problem_line():
    assert record.parse_load_seconds("load_problem 0.002641 s\n") == 0.002641
    with pytest.raises(ValueError):
        record.parse_load_seconds("play_game 400 crossings 0.25 s\n")


def test_parse_pytest_summary_keeps_failures_and_errors():
    out = "....\n323 passed, 1 warning in 33.84s\n"
    assert record.parse_pytest_summary(out) == {
        "passed": 323, "failed": 0, "errors": 0, "seconds": 33.84}
    out = "F.E\n2 failed, 354 passed, 1 error in 30.12s\n"
    assert record.parse_pytest_summary(out) == {
        "passed": 354, "failed": 2, "errors": 1, "seconds": 30.12}
    out = "EE\n3 errors in 65.43s (0:01:05)\n"
    assert record.parse_pytest_summary(out) == {
        "passed": 0, "failed": 0, "errors": 3, "seconds": 65.43}
    with pytest.raises(ValueError):
        record.parse_pytest_summary("2 failed\n")


def test_parse_counts_reads_the_traced_result_line():
    out = ("# workload: game_grid\n"
           "torus.hits_in_box.calls 1018 count\n"
           '{"correct": true, "attempted": 800, "failed": 0, "metrics": {'
           '"torus.hits_in_box.calls": {"value": 1018.0, "unit": "count"}, '
           '"torus.hits_in_box.hits": {"value": 5435.0, "unit": "count"}, '
           '"torus.hits_in_box.total_s": {"value": 0.2, "unit": "s"}, '
           '"game.crossings": {"value": 1070.5, "unit": "count"}, '
           '"staircase.build_staircase.calls": {"value": 0.0, "unit": '
           '"count"}, "staircase.build_staircase.failed": {"value": 0.0, '
           '"unit": "count"}, "staircase.levels": {"value": 0.0, "unit": '
           '"count"}, '
           '"rectangles.enumerate_primitive.calls": {"value": 4.0, "unit": '
           '"count"}, '
           '"rectangles.rect_meets.calls": {"value": 0.0, "unit": '
           '"count"}}}\n')
    assert record.parse_counts(out) == {
        "torus.hits_in_box.calls": 1018, "torus.hits_in_box.hits": 5435,
        "game.crossings": 1070.5, "staircase.build_staircase.calls": 0,
        "staircase.build_staircase.failed": 0, "staircase.levels": 0,
        "rectangles.enumerate_primitive.calls": 4,
        "rectangles.rect_meets.calls": 0}
    with pytest.raises(KeyError):
        record.parse_counts('{"metrics": {}}\n')


def test_parse_traced_times_reads_the_game_times():
    out = ('{"correct": true, "attempted": 800, "failed": 0, "metrics": {'
           '"game.crossing_us": {"value": 47.25, "unit": "us"}, '
           '"game.play_game.self_s": {"value": 0.0125, "unit": "s"}, '
           '"game.crossings": {"value": 2140.0, "unit": "count"}}}\n')
    assert record.parse_traced_times(out) == {
        "game.crossing_us": 47.25, "game.play_game.self_s": 0.0125}
    with pytest.raises(KeyError):
        record.parse_traced_times('{"metrics": {}}\n')


def test_src_line_change_counts_python_files_under_src(tmp_path):
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree, lines in zip(trees.values(), (5, 2)):
        pkg = tree / "src" / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n" * (lines - 1))
        (pkg / "sub" / "b.py").write_text("y = 2")
        # not counted: other file types, compiled files, files outside src
        (pkg / "notes.txt").write_text("one\ntwo\n")
        (pkg / "sub" / "b.cpython-311.pyc").write_bytes(b"\0\n\n")
        (tree / "setup.py").write_text("z = 3\n")
    assert record.src_lines(trees["parent"]) == 5
    assert record.src_line_change(trees) == {"parent": 5, "change": 2,
                                             "net": -3}


def test_parse_micro_reads_the_eight_field_figures():
    out = ('{"quadfield.add_us": 0.91, "quadfield.mul_us": 1.52, '
           '"quadfield.lt_us": 2.03, "quadfield.floor_us": 3.4, '
           '"quadfield.add_big_us": 1.1, "quadfield.mul_big_us": 9.75, '
           '"quadfield.lt_big_us": 12.5, "quadfield.floor_big_us": 30}')
    micro = record.parse_micro(out)
    assert list(micro) == list(record.MICRO) and len(micro) == 8
    assert micro["quadfield.mul_big_us"] == 9.75
    assert micro["quadfield.floor_big_us"] == 30.0
    with pytest.raises(KeyError):
        record.parse_micro('{"quadfield.add_us": 0.91}')


def test_no_regression_bounds_every_metric():
    benchmark = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    bounds = record.no_regression(benchmark)
    assert list(bounds) == list(record.METRICS)
    assert all(bound > 0 for bound in bounds.values())
    del benchmark["end_to_end"][0]
    with pytest.raises(KeyError):
        record.no_regression(benchmark)


def test_every_problem_is_named_by_a_command_and_loads():
    # the PERIOD_* censuses scan one coset per point of their long X orbit;
    # the undertwisted A2 game's union fills (1/2)Z^2 and is one lattice
    from anosurg import GameConfig, eigenframe
    from anosurg.cli import load_problem
    named = {word for command in record.COMMANDS
             for word in command.split() if word in record.PROBLEMS}
    assert named == set(record.PROBLEMS)
    plans = {}
    for name, problem in record.PROBLEMS.items():
        A, sets, _ = load_problem(problem)
        config = GameConfig(eigenframe(A), (sets["X"], sets["Y"]), "++")
        plans[name] = len(sets["X"].plan), len(config.marked.plan)
    assert plans == {"PERIOD_98": (98, 99), "PERIOD_200": (200, 201),
                     "PERIOD_384": (384, 385), "PERIOD_1000": (1000, 1001),
                     "PERIOD_2004": (2004, 2005), "PERIOD_5004": (5004, 5005),
                     "PERIOD_8018": (8018, 8019), "UNDERTWISTED_A2": (1, 1)}
    assert set(record.LOADS) <= set(record.PROBLEMS)
