"""The anosurg command line: deterministic JSON and SVG output, exact-string
round-trips, exit codes, and the built-in example suite."""

import hashlib
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from anosurg import (GameConfig, QuadNum, eigenframe, play_game, point,
                     qn_from_str, qn_to_str, rectangles)
from anosurg.cli import FIXTURES, load_problem, main
from anosurg.torus import MAX_PERIOD

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def child_env():
    """The environment of a fresh interpreter that imports the package from
    src/: a child process does not inherit pytest's pythonpath setting."""
    src = str(FIXTURE_DIR.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err
    return _run


@pytest.fixture()
def a2_path(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(FIXTURES["a2_half"]))
    return str(path)


@pytest.fixture()
def b2_path(tmp_path):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(FIXTURES["b2_half"]))
    return str(path)


class TestFixtureFiles:
    def test_shipped_fixtures_match_embedded(self):
        for name, payload in FIXTURES.items():
            on_disk = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
            assert on_disk == payload


# SHA-256 of the stdout of each fixture command, recorded before
# primitive_family replaced the full-box primitive scans; a faster engine
# must reproduce these bytes.
STDOUT_SHA256 = {
    ("census", "a2_half"):
        "334a1a5f351acf36eaa89f1df3d2e395db3d57005821b85469b128a715131f1c",
    ("profile", "a2_half"):
        "0ac483ab694298b976b2198a637abf99bc3f08af88f10564152ae9fa07af1778",
    ("classify", "a2_half"):
        "2cb1a57cf9eda34169641318779c70a4bb5e69e04d34b70e9afef37722f0d780",
    ("thresholds", "a2_half"):
        "f85101e78b6a4d94298c1586d00e43bb42b222c217d72f445cb4a11c1cc4df71",
    ("staircase", "a2_half"):
        "224a15493f91c4446900b63f3a3055f159997c74068238ae23441aad6b1e3b05",
    ("staircase", "a2_half", "--set", "Y"):
        "ff0058445a071f17d6d290363c710e04406d0a3e3ac8ed9572c17f8004e33006",
    ("staircase", "a2_half", "--quadrant", "+-"):
        "224a15493f91c4446900b63f3a3055f159997c74068238ae23441aad6b1e3b05",
    ("census", "b2_half"):
        "0a543f8d464c193d4dee2292ff7b12e5c299a3ae94a42f4d9c5d157386ee7639",
    ("profile", "b2_half"):
        "1a712d722e08d8aa966a352913a9e5c5efff6a8a8e23c425e37978a95394c325",
    ("classify", "b2_half"):
        "21bbe27ca64873b39d35e4b222fabebeb2e27c46fc7186226cff085a782f4d1d",
    ("thresholds", "b2_half"):
        "98d9cf0920b5b3b2abb572efcc3c0eacd26aad9f3b65ab10920809b28d3c3dde",
    ("staircase", "b2_half"):
        "bb5634c8652dc119ac97d315e50031a485792a4045a7cc4a00bc37e0a4759939",
    ("staircase", "b2_half", "--set", "Y"):
        "3a05baf5f06f8a11fa0158b5752db329a74184e6d16fdfb7401de02815227851",
    ("staircase", "b2_half", "--quadrant", "+-"):
        "747109f242bfadb0be9173b41662454ed357708dfb42fe681f2ad7d5945b7935",
    ("census", "case3"):
        "be7aeeaebc2a30fcae75558aa8fc3ad8e80570e4da5292b6bfd2ac31cf85c064",
    ("profile", "case3"):
        "70fef332192ffbcaf022900a8c367ea4576cecb595107f4137b3f7c12a452263",
    ("classify", "case3"):
        "bfe5c8e0bed6eb0befce9ee0de6db93c28bc7e2871cf26cc083d3045c3e5a57c",
    ("thresholds", "case3"):
        "5e32da12dd74e893bd98f4152c87cf417ed53b3fd4e24d1b040495bdfda17faf",
    ("staircase", "case3"):
        "8ca05df2796363570aea2ee9331837b7a598758053c025ebabc5c8d0f5f2f7c5",
    ("staircase", "case3", "--set", "Y"):
        "5671ca6df977f541a0636224576c4e3b8a75501f38d741e23a68bd4968816337",
    ("staircase", "case3", "--quadrant", "+-"):
        "224a15493f91c4446900b63f3a3055f159997c74068238ae23441aad6b1e3b05",
    ("census", "a2_half", "--svg"):
        "334a1a5f351acf36eaa89f1df3d2e395db3d57005821b85469b128a715131f1c",
    ("census", "case3", "--svg"):
        "be7aeeaebc2a30fcae75558aa8fc3ad8e80570e4da5292b6bfd2ac31cf85c064",
    ("census", "b2_half", "--svg"):
        "0a543f8d464c193d4dee2292ff7b12e5c299a3ae94a42f4d9c5d157386ee7639",
    ("game", "a2_half", "--point", "0,0", "--t0", "1", "--r", "3", "--svg"):
        "d3d1970c21388efd3242746f6c5640b0aa1a1596ce21757a11e463666bd31b54",
    # games with widening crossings in every quadrant, recorded before the
    # game scanned all marked sets at once and reused a window's lifts
    ("game", "case3", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=--", "--budget", "40", "--svg"):
        "f71c0ddbc6308ef6c3282d999e3cb8244629bac7919cd591ac8424ce03d4195d",
    ("game", "a2_half", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=-+", "--budget", "40", "--svg"):
        "1fdd8a8b777313a300edb1772afa10beed4393a8b70ecd599975fc9c5aa699e1",
    ("game", "case3", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=+-", "--budget", "40", "--svg"):
        "fade0c49817a0b52a1aa12fd21b5b76406e1cd2686149548932e8d4df7e3aaa6",
    ("game", "b2_half", "--point", "0,0", "--t0", "1", "--r", "20",
     "--budget", "60", "--svg"):
        "73c07c9257ac2f57c413e19b7fce5393933614fd859e8c61b7c3eee3132f3a72",
    # the benchmark's 400-crossing game, whose scans renormalize by powers
    # of A up to 200, recorded at commit 5f1b29d
    ("game", "b2_half", "--point", "0,0", "--t0", "1", "--r", "20",
     "--budget", "400", "--svg"):
        "53c325fdb661823936f64fce4f4707d358865578140fe11bd0d962347d82e90a",
    # every staircase command that writes a figure, recorded at commit
    # 9c779de, before the figure's dots were drawn from the integer lifts
    ("staircase", "a2_half", "--set", "Y", "--quadrant=++", "--svg"):
        "ff0058445a071f17d6d290363c710e04406d0a3e3ac8ed9572c17f8004e33006",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=--", "--svg"):
        "039109fffb0c2a936f2296a51422c1670f140cd385d23a88e96aa3d19aeeb6e4",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=+-", "--svg"):
        "7c3eab249d7f88dbd2f39faa4aa8bdfd7738d767f14dde0143d838d18000258f",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=-+", "--svg"):
        "628887fb78647e014e265bc1cbc5c91a3164b4ec901b49fe32313bb9a585b92e",
    ("staircase", "b2_half", "--set", "X", "--quadrant=++", "--svg"):
        "bb5634c8652dc119ac97d315e50031a485792a4045a7cc4a00bc37e0a4759939",
    ("staircase", "b2_half", "--set", "X", "--quadrant=--", "--svg"):
        "01ed2120a6ac5e1f102e21beb7500279dbb43fd7fca423b35b0bc3b95bf1b3c6",
    ("staircase", "b2_half", "--set", "X", "--quadrant=+-", "--svg"):
        "747109f242bfadb0be9173b41662454ed357708dfb42fe681f2ad7d5945b7935",
    ("staircase", "b2_half", "--set", "X", "--quadrant=-+", "--svg"):
        "ddae2d0f3d98328e8c2b3f67caf9d535dfce698f55575c4f97a7f18f2ccd09fd",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=++", "--svg"):
        "3a05baf5f06f8a11fa0158b5752db329a74184e6d16fdfb7401de02815227851",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=--", "--svg"):
        "bfeb2024f71eb36e74a94f73ccec284c7dca61f24dafa9a8dbc6291bf4cf32bd",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=+-", "--svg"):
        "6510ed4b0df1e5f5dca99763837a068fcf067ecf8615fef39786d2c61860d76e",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=-+", "--svg"):
        "8afa3fc91e3afdb7de1b6413b9641dfe0a16776bf0d385c985383b8d0078540c",
    ("staircase", "case3", "--set", "X", "--quadrant=++", "--svg"):
        "8ca05df2796363570aea2ee9331837b7a598758053c025ebabc5c8d0f5f2f7c5",
    ("staircase", "case3", "--set", "X", "--quadrant=--", "--svg"):
        "11436d13c758afe2e16c65d006ef7e5a3b596da92ff77d7a19b33aa9fea1aa4f",
    ("staircase", "case3", "--set", "Y", "--quadrant=++", "--svg"):
        "5671ca6df977f541a0636224576c4e3b8a75501f38d741e23a68bd4968816337",
    ("staircase", "case3", "--set", "Y", "--quadrant=--", "--svg"):
        "6c04927fc9680fa6afabd9a17f567f8ff99e5cbd80344f3e50df8d2d1d82dbf9",
}

# SHA-256 of the figure each "--svg" command above writes, recorded before
# float() became correctly rounded: no value in these figures is near enough
# to a rounding boundary for that to move a printed digit, so any change
# here comes from the drawing or the geometry.
SVG_SHA256 = {
    ("census", "a2_half", "--svg"):
        "f16e36abe1276858cc2fabe383e4c60509068d408e5ff51e45789d8280de033d",
    ("census", "case3", "--svg"):
        "66d27df8df5cd8f13adc3a66c010d67acc62f90957ca4a5da7f9846f1b4a6bf8",
    ("census", "b2_half", "--svg"):
        "5927deb8e7217bc22bd05ca3d349fef96a42704ac86c4d6cc30bef20f3f802f5",
    ("game", "a2_half", "--point", "0,0", "--t0", "1", "--r", "3", "--svg"):
        "c8c7019c62d18bbca3b778de025e8ce929ba112eaf326bab3a96826382db9275",
    # the figures of the four widening games above, recorded with them
    ("game", "case3", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=--", "--budget", "40", "--svg"):
        "21270f63899117fe46c8e6a659eaaf35f3649c3ed5078e4e3e42f4a1cadf0af8",
    ("game", "a2_half", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=-+", "--budget", "40", "--svg"):
        "261ab20009c649f938584a60377c92ef505c4759640480377a21a08dc7f39ce2",
    ("game", "case3", "--point", "1/3,1/5", "--t0", "2", "--r", "5",
     "--quadrant=+-", "--budget", "40", "--svg"):
        "bd5e857a9ca2200ca6bab0f607618d24b65c8d518f6ba4146ea2839f40795921",
    ("game", "b2_half", "--point", "0,0", "--t0", "1", "--r", "20",
     "--budget", "60", "--svg"):
        "a308cdbd7442446f7f5b7415803c29eb085a35dfd252e3591b282526c28a99fc",
    ("game", "b2_half", "--point", "0,0", "--t0", "1", "--r", "20",
     "--budget", "400", "--svg"):
        "1dad59103c176ccaf943c686b83b126ee247c355bbf141428d5f90d01b41d388",
    # the figures of the staircase commands above, recorded with them
    ("staircase", "a2_half", "--set", "Y", "--quadrant=++", "--svg"):
        "d73a5062f19b35a20d3558d8eedfa628a39f1b037da5a544ca1da5b683ee63fc",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=--", "--svg"):
        "d73a5062f19b35a20d3558d8eedfa628a39f1b037da5a544ca1da5b683ee63fc",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=+-", "--svg"):
        "023a07b77f7dea0770c1679ff0bfe18df954b26f7964991f4ac18a7b6e3965b6",
    ("staircase", "a2_half", "--set", "Y", "--quadrant=-+", "--svg"):
        "023a07b77f7dea0770c1679ff0bfe18df954b26f7964991f4ac18a7b6e3965b6",
    ("staircase", "b2_half", "--set", "X", "--quadrant=++", "--svg"):
        "f8d5412dbd60ec4233b184bf11b56ee24a84f8120e30c1d4da573de8a2df7e5f",
    ("staircase", "b2_half", "--set", "X", "--quadrant=--", "--svg"):
        "f8d5412dbd60ec4233b184bf11b56ee24a84f8120e30c1d4da573de8a2df7e5f",
    ("staircase", "b2_half", "--set", "X", "--quadrant=+-", "--svg"):
        "cbc822663c7404c85682a390d18ec36402b1e14debec8bb8f6ca7ba7059538a9",
    ("staircase", "b2_half", "--set", "X", "--quadrant=-+", "--svg"):
        "cbc822663c7404c85682a390d18ec36402b1e14debec8bb8f6ca7ba7059538a9",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=++", "--svg"):
        "62300775829c463d6a3170e6349b5b479d1ea4ae91b33fdf7d5911f09e037687",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=--", "--svg"):
        "62300775829c463d6a3170e6349b5b479d1ea4ae91b33fdf7d5911f09e037687",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=+-", "--svg"):
        "b645cca9da52626cb50481c871888a8488660ac6f85d1eba73f65ebbdedb15d4",
    ("staircase", "b2_half", "--set", "Y", "--quadrant=-+", "--svg"):
        "b645cca9da52626cb50481c871888a8488660ac6f85d1eba73f65ebbdedb15d4",
    ("staircase", "case3", "--set", "X", "--quadrant=++", "--svg"):
        "31ef9f2b24be2ace4db6da52660411225ced2cfafe6fd236de23301e204a5a68",
    ("staircase", "case3", "--set", "X", "--quadrant=--", "--svg"):
        "31ef9f2b24be2ace4db6da52660411225ced2cfafe6fd236de23301e204a5a68",
    ("staircase", "case3", "--set", "Y", "--quadrant=++", "--svg"):
        "4d40a5d6c05cf0d7fe0dc84a5e841bd3f93862149d6cdeb62581abfdcd6754ef",
    ("staircase", "case3", "--set", "Y", "--quadrant=--", "--svg"):
        "4d40a5d6c05cf0d7fe0dc84a5e841bd3f93862149d6cdeb62581abfdcd6754ef",
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_fixture_stdout_is_byte_identical(run, argv, tmp_path):
    command, fixture, *options = argv
    figure = tmp_path / "figure.svg"
    if argv in SVG_SHA256:
        options.append(str(figure))
    code, out, _ = run(command, str(FIXTURE_DIR / f"{fixture}.json"),
                       *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
    if argv in SVG_SHA256:
        assert (hashlib.sha256(figure.read_bytes()).hexdigest()
                == SVG_SHA256[argv])


# A2 with X the period-98 orbit of (1/97, 0) at +1 and Y the (0,0) orbit at
# -1, `long_orbit(97)` of bench/record.py: the census's origins run along an
# orbit far longer than any fixture's
PERIOD_98 = {"matrix": [[2, 1], [1, 1]], "sets": [
    {"point": ["1/97", "0"], "characteristic_number": 1, "role": "X"},
    {"point": ["0", "0"], "characteristic_number": -1, "role": "Y"}]}

PERIOD_98_STDOUT_SHA256 = {
    "census":
        "13d3c800f85fef88553922240762dcb5927301be0b0158b5c5ac6e0e7f892362",
    "profile":
        "7a42b1dd39920c84a27d7d16f5c6f0475693e03c45b025d4188e5f7693e8bfe9",
}


@pytest.mark.parametrize("command", sorted(PERIOD_98_STDOUT_SHA256))
def test_period_98_stdout_is_byte_identical(run, command, tmp_path):
    path = tmp_path / "p98.json"
    path.write_text(json.dumps(PERIOD_98))
    code, out, _ = run(command, str(path))
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == PERIOD_98_STDOUT_SHA256[command])


class TestCensus:
    def test_census_output(self, run, a2_path):
        code, out, err = run("census", a2_path, "--set", "X")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["matrix"] == [[2, 1], [1, 1]]
        assert len(data["census"]["positive"]) == 1
        assert len(data["census"]["negative"]) == 1
        lengths = data["census"]["positive"][0]["lengths"]
        # exact values survive a round-trip through their string form
        assert qn_from_str(lengths["s"], 5) > QuadNum(0, 0, 5)

    def test_byte_identical_runs(self, run, a2_path, tmp_path):
        svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
        _, out1, _ = run("census", a2_path, "--svg", str(svg1))
        _, out2, _ = run("census", a2_path, "--svg", str(svg2))
        assert out1 == out2
        assert svg1.read_bytes() == svg2.read_bytes()
        ET.fromstring(svg1.read_text())      # well-formed XML


class TestProfileAndClassify:
    def test_profile_case3(self, run, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(FIXTURES["case3"]))
        code, out, _ = run("profile", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["case"] == 3
        assert data["booleans"] == {
            "pos_x_disjoint": True, "neg_x_disjoint": False,
            "pos_y_disjoint": True, "neg_y_disjoint": False,
        }
        assert set(data["witnesses"]) == {"pos_x", "pos_y"}

    @pytest.mark.parametrize("fixture, censuses", [
        ("case3", 2), ("a2_half", 2), ("b2_half", 4)])
    def test_profile_builds_a_census_only_for_a_disjoint_sign(
            self, run, tmp_path, monkeypatch, fixture, censuses):
        # a false boolean is a domination certificate, read off its row;
        # only a true one takes a census, to find its witness
        built = []
        census = rectangles._census

        def counted(*args):
            built.append(args)
            return census(*args)

        monkeypatch.setattr(rectangles, "_census", counted)
        path = tmp_path / f"{fixture}.json"
        path.write_text(json.dumps(FIXTURES[fixture]))
        code, out, _ = run("profile", str(path))
        assert code == 0
        disjoint = sum(json.loads(out)["booleans"].values())
        assert len(built) == disjoint == censuses

    def test_classify_a2(self, run, a2_path):
        code, out, _ = run("classify", a2_path)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "RCoveredPositive"
        assert data["rule"].startswith("domination")

    def test_classify_b2(self, run, b2_path):
        code, out, _ = run("classify", b2_path)
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "NonRCovered"
        assert data["evidence"]["thresholds"] == {"X": 2, "Y": 2}


class TestGame:
    def test_game_round_trip(self, run, a2_path, tmp_path):
        svg = tmp_path / "game.svg"
        code, out, _ = run("game", a2_path, "--point", "1/3,1/5",
                           "--t0", "2", "--r", "1", "--svg", str(svg))
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "Defined"
        final = qn_from_str(data["final_t"], 5)
        assert final > QuadNum(0, 0, 5)
        for c in data["crossings"]:
            h = qn_from_str(c["height"], 5)
            assert QuadNum(0, 0, 5) < h <= QuadNum(1, 0, 5)
        ET.fromstring(svg.read_text())

    def test_game_budget_exhaustion(self, run, b2_path):
        code, out, _ = run("game", b2_path, "--point", "0,0",
                           "--t0", "7/4 + 3/32*sqrt(320)", "--r", "1",
                           "--budget", "10")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "BudgetExhausted"
        assert data["final_t"] is None
        assert len(data["crossings"]) == 10

    def test_bad_exact_string(self, run, a2_path):
        code, _, err = run("game", a2_path, "--point", "0,0",
                           "--t0", "nonsense", "--r", "1")
        assert code == 1 and err != ""


class TestStaircaseAndThresholds:
    def test_staircase_b2(self, run, b2_path, tmp_path):
        svg = tmp_path / "st.svg"
        code, out, _ = run("staircase", b2_path, "--quadrant", "++",
                           "--svg", str(svg))
        assert code == 0
        data = json.loads(out)
        assert data["incompleteness_threshold"] == 2
        assert data["containment_at_threshold"] is True
        assert data["staircase"]["recurring"] == {"power": -1,
                                                  "translation": [2, -3]}
        ET.fromstring(svg.read_text())

    def test_staircase_absent_is_reported_not_an_error(self, run, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(FIXTURES["case3"]))
        code, out, _ = run("staircase", str(path), "--quadrant", "+-")
        assert code == 0
        data = json.loads(out)
        assert data["staircase"] is None and data["reason"]

    def test_thresholds_case3(self, run, tmp_path):
        path = tmp_path / "c3.json"
        path.write_text(json.dumps(FIXTURES["case3"]))
        code, out, _ = run("thresholds", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["domination"] == {"X-positive": None, "X-negative": 3,
                                      "Y-positive": None, "Y-negative": 3}
        assert data["incompleteness"] == {"X-++": 2, "X-+-": None,
                                          "Y-++": 2, "Y-+-": None}


# the two seed entries of the a2_half fixture
A2_X, A2_Y = FIXTURES["a2_half"]["sets"]
A2 = FIXTURES["a2_half"]
A2_ONLY_X = {**A2, "sets": [A2_X]}


class TestExitCodes:
    def test_missing_file(self, run):
        code, _, err = run("census", "/nonexistent/problem.json")
        assert code == 1 and err != ""

    def test_invalid_json(self, run, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run("census", str(path))
        assert code == 1 and err != ""

    def test_bad_point(self, run, tmp_path):
        path = tmp_path / "bad.json"
        payload = json.loads(json.dumps(FIXTURES["a2_half"]))
        payload["sets"][0]["point"] = ["1/0", "0"]
        path.write_text(json.dumps(payload))
        code, _, err = run("census", str(path))
        assert code == 1 and err != ""

    def test_unsupported_matrix(self, run, tmp_path):
        path = tmp_path / "parabolic.json"
        payload = json.loads(json.dumps(FIXTURES["a2_half"]))
        payload["matrix"] = [[1, 1], [0, 1]]
        path.write_text(json.dumps(payload))
        code, _, err = run("census", str(path))
        assert code == 2 and err != ""

    @pytest.mark.parametrize("values", [("--t0", "0", "--r", "1"),
                                        ("--t0", "1", "--r", "-1"),
                                        ("--t0", "1", "--r", "1",
                                         "--budget", "0")],
                             ids=["t0-zero", "r-negative", "budget-zero"])
    def test_bad_game_argument(self, run, a2_path, values):
        code, out, err = run("game", a2_path, "--point", "0,0", *values)
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("values", [("--t0", "1/0", "--r", "2"),
                                        ("--t0", "1", "--r", "1/0"),
                                        ("--t0", "1 + 1/0*sqrt(5)", "--r",
                                         "2")],
                             ids=["t0", "r", "t0-sqrt-term"])
    def test_zero_denominator_in_a_game_argument(self, run, a2_path, values):
        code, out, err = run("game", a2_path, "--point", "0,0", *values)
        assert code == 1 and out == ""
        assert err.startswith("error: t0/r: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("staircase", "--quadrant", "xx"),
        ("staircase", "--quadrant", "--"),
        ("game", "--point", "0,0", "--r", "1")],
        ids=["quadrant-xx", "quadrant-separate-dashes", "missing-t0"])
    def test_usage_error_is_invalid_input(self, run, a2_path, argv):
        code, out, err = run(argv[0], a2_path, *argv[1:])
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("edit, argv", [
        ({"sets": [{**A2_X, "point": ["1/2", "0"]}, A2_Y]}, ("classify",)),
        ({"sets": [{**A2_X, "point": ["1/2", "0"]}, A2_Y]}, ("census",)),
        ({"sets": [A2_X, A2_Y, {**A2_Y, "point": ["1/2", "0"]}]},
         ("thresholds",)),
        ({"sets": [A2_X, A2_X]}, ("census",)),
        ({"matrix": [[2.9, 1], [1, 1]]}, ("classify",)),
        ({"matrix": [["2", 1], [1, 1]]}, ("classify",)),
        ({"sets": [{**A2_X, "point": [0.1000000000000000055511151231257827,
                                      "0"]}, A2_Y]}, ("census",)),
        ({"sets": [A2_X, {**A2_Y, "characteristic_number": True}]},
         ("classify",)),
        ({"sets": [A2_X, {**A2_Y, "characteristic_number": 1.0}]},
         ("classify",)),
        ({"options": {"budget": True}}, ("classify",)),
        ({"options": {"budget": "10"}}, ("classify",)),
        ({}, ("staircase", "--origin", "1/3,1/3")),
        ({}, ("staircase", "--set", "Y", "--origin", "0,0")),
        ({"sets": 5}, ("census",)),
        ({"sets": {"a": 1}}, ("census",)),
    ], ids=["x-on-y-orbit", "x-on-y-orbit-census", "two-seeds-one-orbit",
            "repeated-seed", "float-matrix", "string-matrix", "float-point",
            "boolean-characteristic", "float-characteristic",
            "boolean-budget", "string-budget", "origin-off-the-sets",
            "origin-in-the-other-set", "sets-a-number", "sets-an-object"])
    def test_invalid_problem_is_invalid_input(self, run, tmp_path, edit,
                                              argv):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], **edit}))
        code, out, err = run(argv[0], str(path), *argv[1:])
        assert code == 1 and out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("problem, argv, field", [
        ([], ("classify",), "problem"),
        ({"sets": [A2_X, A2_Y]}, ("classify",), "matrix"),
        ({**A2, "sets": [A2_X, 5]}, ("classify",), "sets[1]"),
        ({**A2, "sets": [{**A2_X, "role": "Z"}]}, ("classify",),
         "sets[0].role"),
        ({**A2, "sets": [{**A2_X, "point": ["0", "0", "0"]}]},
         ("classify",), "sets[0].point"),
        ({**A2, "options": [1]}, ("classify",), "options"),
        (A2, ("game", "--point", "0", "--t0", "1", "--r", "1"), "point"),
        (A2_ONLY_X, ("census", "--set", "Y"), "sets"),
        (A2_ONLY_X, ("staircase", "--set", "Y"), "sets"),
        (A2_ONLY_X, ("profile",), "sets"),
        (A2_ONLY_X, ("thresholds",), "sets"),
    ], ids=["problem-a-list", "matrix-missing", "set-a-number",
            "role-not-x-or-y", "point-a-triple", "options-a-list",
            "game-point-not-a-pair", "census-empty-role",
            "staircase-empty-role", "profile-empty-y", "thresholds-empty-y"])
    def test_a_refused_input_names_its_field(self, run, tmp_path, problem,
                                             argv, field):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        code, out, err = run(argv[0], str(path), *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00 garbage", b"\x80"],
                             ids=["ff-fe-00-garbage", "lone-0x80"])
    def test_a_problem_file_that_is_not_utf8_is_invalid_input(
            self, run, tmp_path, content):
        path = tmp_path / "problem.json"
        path.write_bytes(content)
        code, out, err = run("classify", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: problem file: ") and err.count("\n") == 1

    def test_long_orbit_is_unsupported_and_fails_fast(self, run, tmp_path):
        # the period of (1/(10^9 + 7), 0) under A2 is of the order of 10^9
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], "sets": [
            {**A2_X, "point": ["1/1000000007", "0"]}]}))
        start = time.perf_counter()
        code, out, err = run("census", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (f"unsupported: sets[0].point: orbit period exceeds "
                       f"{MAX_PERIOD}\n")

    @pytest.mark.parametrize("where, field", [
        ("--point", "point[1]"), ("--t0", "t0/r"), ("--r", "t0/r"),
        ("point", "sets[1].point[0]"),
        ("characteristic_number", "problem file"),
        ("--budget", "anosurg game: argument --budget")])
    def test_an_input_past_the_digit_limit_is_invalid_input(
            self, run, tmp_path, where, field):
        # Python converts no integer of more digits than its limit from
        # text; such an input is refused with the field and the limit named
        limit = sys.get_int_max_str_digits()
        long = "1" * (limit + 1)
        game = {"--point": "0,0", "--t0": "1", "--r": "2"}
        y = dict(A2_Y)
        if where in game or where == "--budget":
            game[where] = f"0,{long}" if where == "--point" else long
        else:
            # json.dumps cannot write the long integer either, so a
            # placeholder string stands in for its digits
            y[where] = [f"1/{long}", "0"] if where == "point" else "LONG"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], "sets": [A2_X, y]})
                        .replace('"LONG"', long))
        argv = [arg for option in game.items() for arg in option]
        code, out, err = run("game", str(path), *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {field}: an integer of more than {limit} "
                       f"digits\n")

    def test_a_result_past_the_digit_limit_is_unsupported(
            self, run, tmp_path):
        # A2, X the (0,0) orbit at +1 and Y the (1/2,1/2) orbit at -3500:
        # the first crossing's offset has a numerator of more digits than
        # Python converts to text
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], "sets": [
            {**A2_X, "characteristic_number": 1},
            {**A2_Y, "characteristic_number": -3500}]}))
        code, out, err = run("game", str(path), "--point", "1/3,2/5",
                             "--t0", "1/2", "--r", "3", "--budget", "1")
        assert (code, out) == (2, "")
        assert err == (f"unsupported: a result holds an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_staircase_figure_past_the_lift_bound_is_unsupported(
            self, run, tmp_path):
        # A2 with X the period-98 orbit of (1/97, 0): the figure's box is
        # about 2*10^77 wide and would hold about 4*10^78 lifts
        path = tmp_path / "p98.json"
        path.write_text(json.dumps(PERIOD_98))
        code, out, err = run("staircase", str(path))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "d6adf411d4944076519416953f500230b83525b11c02e984f045b3844a0f3c25"
        figure = tmp_path / "figure.svg"
        start = time.perf_counter()
        code, with_svg, err = run("staircase", str(path), "--svg",
                                  str(figure))
        assert time.perf_counter() - start < 5.0
        assert code == 2 and with_svg == out and not figure.exists()
        assert err == ("unsupported: staircase figure: its box would hold "
                       "more than 1000000 marked lifts\n")

    def test_staircase_figure_without_a_staircase_is_unsupported(
            self, run, tmp_path):
        # the undertwisted A2 problem, X the (0,0) orbit at +1 and Y the
        # (1/2,1/2) orbit at -2, has no staircase at (0,0): there is no
        # figure to draw, and a file already at PATH keeps its bytes
        path = tmp_path / "undertwisted.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], "sets": [
            {**A2_X, "characteristic_number": 1},
            {**A2_Y, "characteristic_number": -2}]}))
        code, out, err = run("staircase", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["staircase"] is None
        figure = tmp_path / "figure.svg"
        earlier = b"<svg>an earlier run's figure</svg>"
        figure.write_bytes(earlier)
        code, with_svg, err = run("staircase", str(path), "--svg",
                                  str(figure))
        assert code == 2 and with_svg == out
        assert err == ("unsupported: staircase figure: there is no staircase "
                       "to draw\n")
        assert figure.read_bytes() == earlier

    def test_game_figure_past_the_double_range_is_unsupported(
            self, run, tmp_path):
        # X the (0,0) orbit at +1 and Y the (1/2,1/2) orbit at -2 on A2:
        # the offsets of this game outgrow the double range
        path = tmp_path / "game.json"
        path.write_text(json.dumps({**FIXTURES["a2_half"], "sets": [
            {**A2_X, "characteristic_number": 1},
            {**A2_Y, "characteristic_number": -2}]}))
        argv = ("game", str(path), "--point", "0,0", "--t0", "1", "--r", "3",
                "--budget", "150")
        code, out, err = run(*argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "dbdbf8baad2a5910ea7a56e919450dc7eeab0e8d8f4119c35733de9cb73a6bde"
        figure = tmp_path / "figure.svg"
        start = time.perf_counter()
        code, with_svg, err = run(*argv, "--svg", str(figure))
        assert time.perf_counter() - start < 5.0
        assert code == 2 and with_svg == out and not figure.exists()
        assert err.startswith("unsupported: game figure") and \
            err.count("\n") == 1

    def test_internal_invariant_failure(self, run, a2_path, monkeypatch):
        from anosurg import InvariantError
        import anosurg.cli as cli

        def boom(args):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_classify", boom)
        code, _, err = run("classify", a2_path)
        assert code == 3 and "synthetic failure" in err


class TestQuadrantMinusMinus:
    """argparse strips '--' from '--quadrant=--'; the C_{-,-} quadrant must
    still be selected."""

    def test_staircase(self, run):
        code, out, _ = run("staircase", str(FIXTURE_DIR / "case3.json"),
                           "--quadrant=--")
        assert code == 0
        assert json.loads(out)["staircase"]["quadrant"] == "--"

    def test_game(self, run, a2_path):
        code, out, _ = run("game", a2_path, "--point", "0,0", "--t0", "1",
                           "--r", "3", "--quadrant=--")
        assert code == 0
        A, sets, _ = load_problem(FIXTURES["a2_half"])
        frame = eigenframe(A)
        outcome = play_game(GameConfig(frame, (sets["X"], sets["Y"]), "--"),
                            point(0, 0), QuadNum(1, 0, frame.D),
                            QuadNum(3, 0, frame.D))
        data = json.loads(out)
        assert data["status"] == outcome.status
        assert data["final_t"] == qn_to_str(outcome.final_t)
        assert len(data["crossings"]) == len(outcome.trace)


class TestExamples:
    def test_examples_pass(self, run):
        code, out, _ = run("examples")
        assert code == 0
        assert "FAIL" not in out

    def test_console_script(self, a2_path):
        proc = subprocess.run(
            [sys.executable, "-m", "anosurg.cli", "classify", a2_path],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "RCoveredPositive"

    def test_cli_import_loads_no_dataclasses(self):
        # every command pays for its imports: dataclasses and the inspect,
        # ast and dis modules it pulls in cost about 35 ms of start-up
        heavy = ("dataclasses", "inspect", "ast", "dis")
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, anosurg.cli; "
             f"print(sorted(set({heavy!r}) & set(sys.modules)))"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
