import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import svgeom
import svgeom.cli
from svgeom.cli import SUBCOMMANDS, build_parser, main
from svgeom.weingarten import DEFAULT_PROFILE


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_reach_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "reach", "--dims", "1,1", "--degrees", "2,3")
    assert code == 0
    assert doc["reach"] == pytest.approx(math.pi / 4, abs=1e-12)
    assert doc["regime"] == "bottleneck-limited"
    assert doc["config"]["dims"] == [1, 1]


def test_reach_curvature_limited(capsys):
    code, doc, _ = run_cli(capsys, "reach", "--dims", "1", "--degrees", "6")
    assert code == 0
    assert doc["reach"] == pytest.approx(math.sqrt(0.6), abs=1e-12)
    assert doc["regime"] == "curvature-limited"


def test_dd_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "dd", "--dims", "2,2,1,1",
                           "--degrees", "1,1,1,1")
    assert code == 0
    assert doc["D"] == -10.0
    assert doc["matching_count"] == 10
    assert doc["profile"] == "def-d"
    assert doc["config"]["dims"] == [2, 2, 1, 1]
    assert doc["config"]["degrees"] == [1, 1, 1, 1]
    assert doc["config"]["profile"] == "def-d"


@pytest.mark.parametrize("argv", [
    ["reach", "--dims", "1", "--degrees", "2"],
    ["curvature", "--dims", "1", "--degrees", "2"],
    ["dd", "--dims", "1,1", "--degrees", "1,1"],
    ["minors", "--dims", "2,2", "--degrees", "1,1"],
    ["mc-tube", "--dims", "1", "--degrees", "2", "--epsilon", "0.3",
     "--samples", "10"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_csv_rejected_without_table(capsys, tmp_path, argv):
    path = tmp_path / "out.csv"
    code, doc, err = run_cli(capsys, *argv, "--csv", str(path))
    assert code == 1
    assert doc is None
    assert "--csv" in err
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ["reach", "--dims", "1", "--degrees", "2"],
    ["curvature", "--dims", "1", "--degrees", "2"],
    ["dd", "--dims", "1,1", "--degrees", "1,1"],
    ["minors", "--dims", "2,2", "--degrees", "1,1"],
    ["tube", "--dims", "1", "--degrees", "2", "--epsilon", "0.3"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_seed_rejected_without_sampling(capsys, argv):
    code, doc, err = run_cli(capsys, *argv, "--seed", "5")
    assert code == 1
    assert doc is None
    assert "--seed" in err
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "seed" not in doc["config"]


def test_curvature_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "curvature", "--dims", "1,1",
                           "--degrees", "2,3")
    assert code == 0
    assert doc["max"] == pytest.approx(math.sqrt(1.6), abs=1e-12)
    assert doc["min"] == pytest.approx(1.0, abs=1e-12)


def test_minors_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "minors", "--dims", "2,2",
                           "--degrees", "1,1", "--i", "1")
    assert code == 0
    assert doc["value"] == -4.0
    code, doc, _ = run_cli(capsys, "minors", "--dims", "2,2",
                           "--degrees", "1,1", "--i", "1",
                           "--minor-mode", "paper")
    assert doc["value"] == -1.0


def test_tube_subcommand(capsys, tmp_path):
    csv = tmp_path / "terms.csv"
    code, doc, _ = run_cli(capsys, "tube", "--dims", "1", "--degrees", "2",
                           "--epsilon", "0.3", "--csv", str(csv))
    assert code == 0
    assert doc["volume"] == pytest.approx(
        4 * math.sqrt(2) * math.pi * math.sin(0.3), rel=1e-12)
    assert doc["log_volume"] == pytest.approx(math.log(doc["volume"]),
                                              abs=1e-12)
    assert doc["validity"] is True
    assert csv.exists()


def test_tube_subcommand_at_a_tiny_radius(capsys):
    # sin(eps)^2 underflows to 0, yet the volume of (1,)/(2,),
    # 4 sqrt(2) pi sin(eps), is a normal double.
    code, doc, _ = run_cli(capsys, "tube", "--dims", "1", "--degrees", "2",
                           "--epsilon", "1e-200", "--profile", "weingarten")
    assert code == 0
    assert doc["volume"] == pytest.approx(
        4 * math.sqrt(2) * math.pi * 1e-200, rel=1e-12)
    assert doc["log_volume"] == pytest.approx(math.log(doc["volume"]),
                                              abs=1e-12)


def test_weingarten_subcommand(capsys, tmp_path):
    csv = tmp_path / "matrix.csv"
    code, doc, _ = run_cli(capsys, "weingarten", "--dims", "2,1",
                           "--degrees", "1,1",
                           "--seed", "5", "--csv", str(csv))
    assert code == 0
    mat = doc["matrix"]
    assert len(mat) == 3 and len(mat[0]) == 3
    assert mat[0][0] == 0.0  # degree-one diagonal blocks vanish
    assert csv.exists()
    code2, doc2, _ = run_cli(capsys, "weingarten", "--dims", "2,1",
                             "--degrees", "1,1", "--seed", "5")
    assert doc2["matrix"] == mat


def test_weingarten_profile_applies_to_direct_only(capsys):
    argv = ["weingarten", "--dims", "2,1", "--degrees", "2,3", "--seed", "5"]
    for profile in ("def-d", "corollary"):
        code, doc, err = run_cli(capsys, *argv, "--method", "assemble",
                                 "--profile", profile)
        assert code == 1
        assert doc is None
        assert "--profile" in err
    code, doc, _ = run_cli(capsys, *argv, "--method", "assemble")
    assert code == 0
    assert "profile" not in doc["config"]
    code, doc, _ = run_cli(capsys, *argv, "--method", "direct")
    assert doc["config"]["profile"] == "weingarten"
    code, explicit, _ = run_cli(capsys, *argv, "--method", "direct",
                                "--profile", "weingarten")
    assert explicit == doc
    code, other, _ = run_cli(capsys, *argv, "--method", "direct",
                             "--profile", "def-d")
    assert other["config"]["profile"] == "def-d"
    assert other["matrix"] != doc["matrix"]


# One small query per subcommand.  weingarten takes --method direct, the
# method under which every one of its options is used.
MINIMAL_ARGV = {
    "reach": ["--dims", "1", "--degrees", "2"],
    "curvature": ["--dims", "1", "--degrees", "2"],
    "weingarten": ["--dims", "2,1", "--degrees", "1,2", "--method", "direct"],
    "dd": ["--dims", "2,2", "--degrees", "1,1"],
    "minors": ["--dims", "2,2", "--degrees", "1,1"],
    "tube": ["--dims", "1", "--degrees", "2", "--epsilon", "0.3"],
    "mc-det": ["--dims", "1,1", "--degrees", "1,1", "--samples", "100"],
    "mc-tube": ["--dims", "1", "--degrees", "2", "--epsilon", "0.3",
                "--samples", "100"],
    "selftest": [],
}


def test_every_subcommand_has_a_minimal_argv():
    assert set(MINIMAL_ARGV) == set(SUBCOMMANDS)
    sampled = {name for name, entry in SUBCOMMANDS.items()
               if any("--seed" in flags for flags, _ in entry.options)}
    assert sampled == {"weingarten", "mc-det", "mc-tube"}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_config_echoes_every_option(capsys, name):
    code, doc, _ = run_cli(capsys, name, *MINIMAL_ARGV[name])
    assert code == 0
    options = {spec.get("dest", flags[0][2:].replace("-", "_"))
               for flags, spec in SUBCOMMANDS[name].options}
    assert set(doc["config"]) == options - {"csv"}
    assert list(doc)[0] == "config"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("name, argv", [
    *(pytest.param(name, argv, id=name) for name, argv in MINIMAL_ARGV.items()),
    # One sample has an infinite standard error, once printed as Infinity.
    pytest.param("mc-det", ["--dims", "2", "--degrees", "2", "--samples", "1"],
                 id="mc-det-one-sample"),
    # A negative volume (def-d breaks the Gauss-Bonnet closure) has no log.
    pytest.param("tube", ["--dims", "2,4", "--degrees", "2,3", "--epsilon",
                          repr(math.pi / 2), "--profile", "def-d"],
                 id="tube-negative-volume")])
def test_output_is_strict_json(capsys, tmp_path, name, argv):
    path = tmp_path / "doc.json"
    assert main([name, *argv, "--json", str(path)]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text, parse_constant=_reject_constant)
    assert "config" in doc
    assert path.read_text() == text
    if argv[-2:] == ["--samples", "1"]:
        assert doc["std_error"] is None
    if argv[-2:] == ["--profile", "def-d"]:
        assert doc["volume"] < 0.0 and doc["log_volume"] is None


def test_reused_parser_keeps_no_state(capsys):
    def documents():
        docs = []
        for name, argv in MINIMAL_ARGV.items():
            code, doc, _ = run_cli(capsys, name, *argv)
            assert code == 0
            if name == "selftest":  # drop the timings
                for criterion in doc["criteria"]:
                    del criterion["seconds"]
            docs.append(doc)
        return docs

    assert documents() == documents()


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(svgeom.cli, "build_parser", rebuilt)
    code, doc, _ = run_cli(capsys, "reach", "--dims", "1", "--degrees", "2")
    assert code == 0
    assert doc["config"] == {"dims": [1], "degrees": [2]}
    assert main(["reach", "--dims", "1"]) == 1


def test_mc_det_subcommand(capsys, tmp_path):
    csv = tmp_path / "hist.csv"
    code, doc, _ = run_cli(capsys, "mc-det", "--dims", "1,1",
                           "--degrees", "1,1", "--samples", "2000",
                           "--csv", str(csv))
    assert code == 0
    assert abs(doc["mean"] - doc["expected"]) <= 5 * doc["std_error"]
    assert doc["seed"] == 42
    assert csv.read_text().startswith("bin_left,bin_right,count")


def test_mc_tube_subcommand(capsys):
    code, doc, _ = run_cli(capsys, "mc-tube", "--dims", "1", "--degrees", "2",
                           "--epsilon", "0.3", "--samples", "20000")
    assert code == 0
    expected = 4 * math.sqrt(2) * math.pi * math.sin(0.3)
    assert abs(doc["volume"] - expected) <= 4 * doc["std_error"]
    assert doc["fraction"] == doc["hits"] / 20000


def test_csv_has_no_alias(capsys, tmp_path):
    assert main(["mc-det", "--dims", "1,1", "--degrees", "1,1", "--samples",
                 "100", "--out", str(tmp_path / "h.csv")]) == 1
    assert not (tmp_path / "h.csv").exists()


def test_seed_is_set_by_the_flag_alone(capsys, monkeypatch):
    # --seed is the one way to set the seed: the environment is not read.
    monkeypatch.setenv("SVGEOM_SEED", "7")
    argv = ["mc-det", "--dims", "1,1", "--degrees", "1,1", "--samples", "100"]
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 0
    assert doc["seed"] == 42
    code, doc, _ = run_cli(capsys, *argv, "--seed", "9")
    assert code == 0
    assert doc["seed"] == 9


def test_json_file_output(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, doc, _ = run_cli(capsys, "reach", "--dims", "1", "--degrees", "2",
                           "--json", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == doc


@pytest.mark.parametrize("argv", [
    ("tube", "--dims", "2", "--degrees", "2", "--epsilon", "0.3", "--csv"),
    ("mc-det", "--dims", "1,1", "--degrees", "1,1", "--samples", "100",
     "--csv"),
    ("weingarten", "--dims", "2", "--degrees", "2", "--csv"),
    ("reach", "--dims", "1", "--degrees", "2", "--json")],
    ids=["tube-csv", "mc-det-csv", "weingarten-csv", "reach-json"])
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, doc, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert doc is None
    assert err.count("\n") == 1
    assert err.startswith(f"svgeom {argv[0]}: error: ")
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("weingarten", "--dims", "2", "--degrees", "2"),
    ("weingarten", "--dims", "2", "--degrees", "2", "--method", "direct"),
    ("mc-det", "--dims", "1,1", "--degrees", "1,1", "--samples", "10"),
    ("mc-tube", "--dims", "1", "--degrees", "2", "--epsilon", "0.3",
     "--samples", "10")],
    ids=["weingarten", "weingarten-direct", "mc-det", "mc-tube"])
def test_negative_seed_is_a_domain_error(capsys, argv):
    # weingarten once passed the seed to numpy unchecked, which raised a
    # bare ValueError out of main.
    code, doc, err = run_cli(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert doc is None
    assert err == "domain error: seed must be >= 0\n"


def test_mc_det_csv_equals_the_histogram_writer(capsys, tmp_path):
    argv = ["mc-det", "--dims", "2,2,1,1", "--degrees", "1,1,1,1",
            "--samples", "2000", "--seed", "5"]
    code, _, _ = run_cli(capsys, *argv, "--csv", str(tmp_path / "cli.csv"))
    assert code == 0
    p = svgeom.MatchingProblem((2, 2, 1, 1), (1, 1, 1, 1))
    svgeom.mc_expected_det(p, svgeom.McConfig(2000, 5)).histogram.to_csv(
        tmp_path / "lib.csv")
    assert (tmp_path / "cli.csv").read_bytes() == \
        (tmp_path / "lib.csv").read_bytes()


def test_usage_error_exit_code(capsys):
    assert main(["reach", "--dims", "1"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["reach", "--dims", "x", "--degrees", "2"]) == 1


def test_domain_error_exit_code(capsys):
    assert main(["reach", "--dims", "1", "--degrees", "1"]) == 2


def test_resource_error_exit_code(capsys):
    assert main(["mc-tube", "--dims", "3,3", "--degrees", "2,2",
                 "--epsilon", "0.1", "--samples", "10"]) == 3


def test_tube_beyond_the_vertex_cap_exit_code(capsys):
    code, doc, err = run_cli(capsys, "tube", "--dims", "14,14",
                             "--degrees", "1,1", "--epsilon", "0.1")
    assert code == 3
    assert doc is None
    assert "resource guard" in err


@pytest.mark.parametrize("subcommand", ["dd", "minors", "tube", "mc-det"])
def test_exact_profile_default_is_shared(subcommand):
    argv = [subcommand, "--dims", "1", "--degrees", "2"]
    if subcommand == "tube":
        argv += ["--epsilon", "0.1"]
    assert build_parser().parse_args(argv).profile == DEFAULT_PROFILE


def test_selftest_quick(capsys):
    code, doc, err = run_cli(capsys, "selftest")
    assert code == 0
    assert doc["all_passed"] is True
    assert doc["mode"] == "quick"
    assert doc["config"] == {"full": False}
    assert len(doc["criteria"]) == 9
    assert err.count("[PASS]") == 9


def test_cli_runs_without_scipy(tmp_path):
    # A fresh interpreter in which any scipy import fails: the package, a
    # tube query and the quick selftest must not need it.
    script = textwrap.dedent("""
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError("scipy is blocked")
                return None

        sys.meta_path.insert(0, BlockScipy())
        import svgeom, svgeom.cli
        codes = [svgeom.cli.main(["tube", "--dims", "2", "--degrees", "2",
                                  "--epsilon", "0.4"]),
                 svgeom.cli.main(["selftest"])]
        assert "scipy" not in sys.modules
        sys.exit(max(codes))
    """)
    src = str(Path(svgeom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
