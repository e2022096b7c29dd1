"""The anosurg command line: deterministic JSON and SVG output, exact-string
round-trips, exit codes, and the built-in example suite."""

import hashlib
import json
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from anosurg import QuadNum, qn_from_str
from anosurg.cli import FIXTURES, main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


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
}


@pytest.mark.parametrize("argv", list(STDOUT_SHA256), ids=" ".join)
def test_fixture_stdout_is_byte_identical(run, argv):
    command, fixture, *options = argv
    code, out, _ = run(command, str(FIXTURE_DIR / f"{fixture}.json"),
                       *options)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]


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

    def test_internal_invariant_failure(self, run, a2_path, monkeypatch):
        from anosurg import InvariantError
        import anosurg.cli as cli

        def boom(args):
            raise InvariantError("synthetic failure")

        monkeypatch.setattr(cli, "_cmd_classify", boom)
        code, _, err = run("classify", a2_path)
        assert code == 3 and "synthetic failure" in err


class TestExamples:
    def test_examples_pass(self, run):
        code, out, _ = run("examples")
        assert code == 0
        assert "FAIL" not in out

    def test_console_script(self, a2_path):
        proc = subprocess.run(
            [sys.executable, "-m", "anosurg.cli", "classify", a2_path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "RCoveredPositive"
