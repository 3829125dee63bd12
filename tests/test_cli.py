import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import localchar
from localchar import cli
from localchar.cli import main
from localchar.localfield import TowerField
from localchar.reporting import canonical_json


def run(args):
    return main(args)


def test_construct_pass(tmp_path):
    out = tmp_path / "c.json"
    assert run(["construct", "--p", "7", "--N", "5", "--precision", "12",
                "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "pass"
    assert rep["results"][0]["tower_degrees"] == [1, 5]


def test_construct_even_requires_ell():
    assert run(["construct", "--p", "11", "--N", "6"]) == 2


def test_verify_rank_one_small(tmp_path):
    out = tmp_path / "v.json"
    code = run(["verify", "--level", "r1", "--p", "7", "--N", "5",
                "--precision", "12", "--conductor-bound", "1",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"][0]["rank_one"]["twists"] == 36


def test_verify_mutated_fails(tmp_path):
    out = tmp_path / "m.json"
    code = run(["verify", "--level", "equ6", "--p", "11", "--N", "7",
                "--precision", "28", "--conductor-bound", "3", "--r", "2",
                "--mutate", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "fail"


def test_epsilon_command_for_explicit_character(tmp_path):
    out = tmp_path / "e.json"
    code = run(["epsilon", "--p", "7", "--char-field", "F", "--char-t", "2",
                "--char-gamma=-2:3,-1:1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    entry = rep["results"][0]
    assert entry["conductor"] == 3
    assert "closed_form" in entry and "oracle" in entry


def test_factorize_command(tmp_path):
    out = tmp_path / "f.json"
    code = run(["factorize", "--p", "7", "--N", "5", "--char-field", "E",
                "--char-gamma=-8:1", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    # howe_factorize returns only the factors; the report keeps its key
    assert canonical_json(rep["results"]) == (
        '[\n {\n  "base_character_trivial": true,\n  "conductors": [\n   9\n'
        '  ],\n  "tower_degrees": [\n   5\n  ]\n }\n]')
    assert run(["factorize", "--p", "11", "--N", "6", "--char-field", "E",
                "--char-gamma=-10:1,-5:1", "--out", str(out)]) == 0
    assert canonical_json(json.loads(out.read_text())["results"]) == (
        '[\n {\n  "base_character_trivial": true,\n  "conductors": [\n   6,\n'
        '   6\n  ],\n  "tower_degrees": [\n   3,\n   6\n  ]\n }\n]')
    # inadmissible input is a structured configuration error
    assert run(["factorize", "--p", "7", "--N", "5", "--char-field", "E",
                "--char-gamma=-5:1"]) == 2


def test_selftest_command():
    assert run(["selftest", "--p", "7"]) == 0


def test_selftest_catches_an_exp_that_does_not_invert_log(monkeypatch):
    """The exp/log check compares exp(log w) with w, so an exp returning
    1 + 2 lg fails it."""
    monkeypatch.setattr(TowerField, "exp_principal",
                        lambda self, lg, window=None: self.one() + lg + lg)
    assert run(["selftest"]) == 1


def test_config_file_and_byte_stable_reports(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\nN = 5\nprecision = 12\nconductor_bound = 1\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert run(["verify", "--config", str(cfgfile), "--out", str(out1)]) == 0
    assert run(["verify", "--config", str(cfgfile), "--out", str(out2)]) == 0
    a = canonical_json(json.loads(out1.read_text()))
    b = canonical_json(json.loads(out2.read_text()))
    assert a == b


def test_search_bound_zero_returns_none(tmp_path):
    out = tmp_path / "s.json"
    code = run(["search", "--p", "7", "--N", "5", "--precision", "12",
                "--r", "2", "--conductor-bound", "0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["results"][0]["search"]["found"] is None


def test_coset_levels_need_a_conductor_bound_of_one(tmp_path, capsys):
    # iter_twist_pairs yields nothing below bound 1: equ6 used to pass with
    # no instance at bound 0
    for level in ("equ6", "all"):
        capsys.readouterr()
        assert run(["verify", "--p", "7", "--N", "5", "--level", level,
                    "--r", "2", "--conductor-bound", "0"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: conductor_bound must be at least 1 for "
            f"level {level}, got 0\n")
    out = tmp_path / "v.json"
    assert run(["verify", "--p", "7", "--N", "5", "--level", "r1",
                "--conductor-bound", "0", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["results"][0]["rank_one"]
    assert rep["pass"] and rep["twists"] > 0
    assert run(["verify", "--p", "7", "--N", "5", "--level", "equ6",
                "--r", "2", "--conductor-bound", "1", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["results"][0]["coset_products"]
    assert rep["all_pass"] and rep["instances"] > 0


def test_epsilon_scan_needs_a_conductor_bound_of_two(tmp_path, capsys):
    # the scan runs conductors 2..bound: 0 used to run 2..5, and 1 passed
    # with no class at all
    for bound in ("0", "1"):
        capsys.readouterr()
        assert run(["epsilon", "--p", "7", "--samples", "1",
                    "--conductor-bound", bound]) == 2
        assert capsys.readouterr().err == (
            "configuration error: conductor_bound must be at least 2, "
            f"got {bound}\n")
    out = tmp_path / "e.json"
    for flags, conductors in ((["--conductor-bound", "2"], [2]),
                              ([], [2, 3, 4, 5])):  # unset: the bound is 5
        assert run(["epsilon", "--p", "7", "--samples", "1", *flags,
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["results"][0]["consistency"]
        assert [c["conductor"] for c in rep["classes"]] == conductors


@pytest.mark.parametrize("command", ["epsilon", "factorize"])
def test_precision_below_two_is_a_configuration_error(command, capsys):
    # --precision 0 used to run at the default k = 12 and echo 0
    for k in ("0", "1"):
        capsys.readouterr()
        assert run([command, "--p", "7", "--precision", k]) == 2, k
        assert capsys.readouterr().err == (
            "configuration error: precision k must be >= 2\n")


def test_unsupported_shape_is_a_configuration_error(capsys):
    # ell = 5 at p = 11, N = 6 gives two double cosets: no compositum
    assert run(["search", "--p", "11", "--N", "6", "--ell", "5",
                "--precision", "24", "--conductor-bound", "6"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: 2 double cosets; "
        "compositum arithmetic unsupported\n")


def test_config_file_values_beat_parser_defaults(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\nchar_t = 2\nchar_gamma = -2:3,-1:1\n"
                       "seed = 2\noracle_budget = 5\n")
    # the file's budget applies: the conductor-3 oracle sum has 294 terms
    assert run(["epsilon", "--config", str(cfgfile)]) == 3
    out = tmp_path / "e.json"
    assert run(["epsilon", "--config", str(cfgfile), "--oracle-budget", "1000",
                "--char-t", "0", "--out", str(out)]) == 0
    cfg = json.loads(out.read_text())["config"]
    assert cfg["seed"] == 2  # the file's value, not the default 0
    assert cfg["oracle_budget"] == 1000 and cfg["char_t"] == 0
    assert cfg["level"] == "r1" and cfg["mutate"] is False


def test_unknown_config_keys_are_configuration_errors(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    for line in ("jobs = 2", "jbos = 2"):  # a removed option and a typo
        cfgfile.write_text(f"p = 7\n{line}\n")
        capsys.readouterr()
        assert run(["epsilon", "--config", str(cfgfile)]) == 2, line
        key = line.split()[0]
        assert capsys.readouterr().err == (
            f"configuration error: unknown config key {key!r}\n")
    with pytest.raises(SystemExit) as usage:  # no --jobs flag either
        run(["epsilon", "--p", "7", "--jobs", "2"])
    assert usage.value.code == 2


def test_config_file_level_must_be_a_level_choice(tmp_path, capsys):
    # "rl" for "r1" used to run only the case-one scan and exit 0
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\nN = 5\nprecision = 12\nlevel = rl\n")
    capsys.readouterr()
    assert run(["verify", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: level must be one of r1, equ6, all, got 'rl'\n")


def test_config_file_char_field_must_be_a_field_choice(tmp_path, capsys):
    # "G" used to run silently on F
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\nchar_field = G\n")
    capsys.readouterr()
    assert run(["epsilon", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: char_field must be one of F, E, got 'G'\n")


def test_config_file_mutate_is_a_boolean(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    base = "p = 7\nN = 5\nprecision = 12\n"
    for word, code in (("false", 0), ("No", 0), ("0", 0), ("yes", 1),
                       ("maybe", 2)):
        cfgfile.write_text(base + f"mutate = {word}\n")
        assert run(["construct", "--config", str(cfgfile)]) == code, word


def test_out_of_range_integer_flags_are_configuration_errors(tmp_path, capsys):
    # each of these used to exit 0 or 1, or to run another value
    for argv, message in [
        ("verify --selector 7", "selector must lie in [1, p-1]"),
        ("verify --selector 0", "selector must lie in [1, p-1]"),
        ("verify --selector -1", "selector must lie in [1, p-1]"),
        ("verify --level equ6 --r -1", "r must be at least 1, got -1"),
        ("verify --level equ6 --r 0", "r must be at least 1, got 0"),
        ("verify --conductor-bound -3",
         "conductor_bound must be at least 0, got -3"),
        ("epsilon --samples -2", "samples must be at least 0, got -2"),
        ("epsilon --samples 1 --oracle-budget -5",
         "oracle_budget must be at least 1, got -5"),
        ("verify --precision 0", "precision must be at least 2"),
    ]:
        command, *flags = argv.split()
        capsys.readouterr()
        assert run([command, "--p", "7", "--N", "5", *flags]) == 2, argv
        assert capsys.readouterr().err == f"configuration error: {message}\n"
    # a config file's value is checked as its flag is
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("p = 7\nN = 5\nconductor_bound = -3\n")
    assert run(["verify", "--config", str(cfgfile)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: conductor_bound must be at least 0, got -3\n")


def _no_pair(cfg):
    # r > [N/2] is refused before the pair is built: search --r 9 at N = 5
    # used to go on to take a dlog of each of the 7^9 - 1 residues of
    # unram(9), and verify --r 4 at N = 7 ran out of precision on route A
    pytest.fail("a twisting degree above [N/2] reached the pair build")


def test_twisting_degree_above_half_n_is_a_configuration_error(monkeypatch,
                                                               capsys):
    # the theorem twists by GL_r with r <= [N/2]
    monkeypatch.setattr(cli, "_build_pair", _no_pair)
    for argv in ("search --p 7 --N 5 --r 9 --conductor-bound 2",
                 "search --p 7 --N 5 --r 5", "search --p 7 --N 5 --r 3",
                 "verify --p 7 --N 5 --level equ6 --r 5",
                 "verify --p 11 --N 7 --level equ6 --r 4 --conductor-bound 2",
                 "search --p 11 --N 7 --r 5"):
        args = argv.split()
        n, r = (int(args[args.index(flag) + 1]) for flag in ("--N", "--r"))
        capsys.readouterr()
        assert run([*args, "--precision", "12"]) == 2, argv
        assert capsys.readouterr().err == (
            f"configuration error: r must be at most [N/2] = {n // 2}, "
            f"got {r}\n")


def test_config_file_twisting_degree_must_be_at_most_half_n(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    monkeypatch.setattr(cli, "_build_pair", _no_pair)
    cfgfile = tmp_path / "run.cfg"
    for n, r in ((5, 9), (5, 3), (7, 4)):
        cfgfile.write_text(f"p = 11\nN = {n}\nprecision = 12\nr = {r}\n")
        capsys.readouterr()
        assert run(["search", "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: r must be at most [N/2] = {n // 2}, "
            f"got {r}\n")


def test_malformed_specs_and_unexpected_errors_exit_codes(tmp_path, monkeypatch,
                                                          capsys):
    # malformed character specs are configuration errors, not failures
    assert run(["epsilon", "--p", "7", "--char-gamma=-2:x"]) == 2
    assert run(["epsilon", "--p", "7", "--char-gamma=-2"]) == 2
    cfgfile = tmp_path / "run.cfg"
    for line in ("char_t = two", "char_w = 1.5"):
        cfgfile.write_text(f"p = 7\n{line}\n")
        assert run(["epsilon", "--config", str(cfgfile)]) == 2, line
    with pytest.raises(SystemExit) as usage:  # argparse's own usage error
        run(["epsilon", "--p", "7", "--char-w", "x"])
    assert usage.value.code == 2

    def boom(cfg):
        raise RuntimeError("unexpected")

    monkeypatch.setitem(cli._COMMANDS, "selftest", boom)
    capsys.readouterr()
    assert run(["selftest"]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: unexpected\n"


@pytest.mark.parametrize("module", ["localchar.cli", "localchar.converse",
                                    "localchar.epsilon"])
def test_import_leaves_numpy_unloaded(module):
    # only the oracle needs numpy; cmd_epsilon and cmd_selftest import it.
    # Only a rendered complex value needs mpmath; ScaledCyc.approx imports it
    src = str(Path(localchar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (f"import sys, {module}; "
            "print('numpy' in sys.modules, 'mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"
