import json

import pytest

from localchar import cli
from localchar.cli import main
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
    assert rep["results"][0]["tower_degrees"] == [5]
    # inadmissible input is a structured configuration error
    assert run(["factorize", "--p", "7", "--N", "5", "--char-field", "E",
                "--char-gamma=-5:1"]) == 2


def test_selftest_command():
    assert run(["selftest", "--p", "7"]) == 0


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
