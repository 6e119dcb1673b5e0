import hashlib
import json
from fractions import Fraction as Q

import pytest

from qcurrents import canonical, cartan, cli, kernels, serre
from qcurrents.cli import (
    SCHEMA,
    ConfigError,
    RunConfig,
    dump_report,
    main,
    run,
    verdict,
)
from qcurrents.series import clear_memos


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(K=1).validate()
    with pytest.raises(ValueError):
        RunConfig(cartan="E8").validate()
    with pytest.raises(ValueError):
        RunConfig(K=6, window=(-5, 5)).validate()  # span < 2K
    with pytest.raises(ValueError):
        RunConfig(curve="trigonometric").validate()
    with pytest.raises(ValueError, match="contain 0"):
        RunConfig(window=(2, 20)).validate()
    with pytest.raises(ValueError, match="contain 0"):
        RunConfig(window=(-20, -2)).validate()
    assert RunConfig().validate()


def test_config_from_json_round_trip():
    data = {"curve": "rational", "K": 6, "window": [-10, 10],
            "max_mode": 10, "cartan": "A2"}
    cfg = RunConfig.from_json(data)
    assert cfg.K == 6 and cfg.cartan == "A2" and cfg.window == (-10, 10)


def test_cartan_subcommand_report():
    status, report = run("cartan", RunConfig(K=4, max_mode=4, cartan="A1"))
    assert status == 0
    assert report["schema"] == SCHEMA
    assert report["report"]["pass"]


def test_unknown_subcommand():
    with pytest.raises(ValueError):
        run("frobnicate", RunConfig())


def test_report_determinism_same_config():
    cfg = RunConfig(K=4, max_mode=4, cartan="A2")
    _, r1 = run("cartan", cfg)
    _, r2 = run("cartan", cfg)
    assert dump_report(r1) == dump_report(r2)


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["cartan", "--K", "4", "--max-mode", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == SCHEMA
    # config errors exit with 2
    assert main(["cartan", "--K", "1"]) == 2
    capsys.readouterr()


def test_config_file_flag(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "curve": "rational", "K": 4, "window": [-8, 8],
        "max_mode": 6, "cartan": "A2"}))
    out = tmp_path / "r.json"
    code = main(["cartan", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["cartan"] == "A2" and data["config"]["K"] == 4


def test_window_flag_reaches_kernel_suite(tmp_path):
    out = tmp_path / "r.json"
    code = main(["kernels", "--K", "4", "--window=-8:8",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["window"] == [-8, 8]
    assert data["report"]["pass"]


@pytest.mark.parametrize("content", [
    None,                      # missing file: OSError
    "[1, 2]",                  # not an object
    '{"window": 5}',           # window not a pair
    '{"K": null}',             # K not an integer
    "{not json",               # JSON syntax error
    '{"window": [2, 20]}',     # window without 0
    '{"window": ["a", "b"]}',  # window bounds not integers
    '{"cartan": ["A1"]}',      # cartan not a string
    '{"window": [-10.7, 10.2]}',  # float window bounds
    '{"K": 2.9}',              # float K, not truncated to 2
    '{"max_mode": 3.5}',       # float max_mode, not truncated to 3
    '{"k": 4, "maxmode": 3}',  # misspelled keys, not run at the defaults
])
def test_bad_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert main(["cartan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_unknown_config_keys_are_named(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"K": 4, "k": 4, "maxmode": 3}')
    assert main(["cartan", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown config key 'k', 'maxmode'\n")


def test_verdict_reads_every_bool_leaf():
    assert verdict({"a": True, "b": [{"c": True}, (True,)], "s": "x"})
    assert not verdict({"a": True, "b": [{"c": False}]})
    assert not verdict({"b": [(True, False)]})
    # counts and ranks are not checks
    assert verdict({"complement_rank": 0, "samples": 0})
    # a serialized kernel's schema-fixed lossy field is not a check either
    assert verdict({"kernel": {"lossy": False, "K": 3, "terms": []}})
    assert not verdict({"kernel": {"lossy": False, "ok": False}})


def forced(fn, key):
    """fn with the bool leaf `key` of its dict result (or its bool result,
    when key is None) forced to False."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        return False if key is None else {**out, key: False}
    return wrapper


def run_main(monkeypatch, tmp_path, argv):
    """main's exit code, and the (status, report) its run call returned."""
    seen = []
    real_run = cli.run

    def spy(*args):
        seen.append(real_run(*args))
        return seen[-1]

    monkeypatch.setattr(cli, "run", spy)
    code = main(argv + ["--out", str(tmp_path / "r.json")])
    (result,) = seen
    return code, result


# one leaf per suite that no hand-kept pass list used to read
@pytest.mark.parametrize("argv, module, producer, key, path", [
    (["kernels", "--K", "2"], kernels, "check_half_factorization",
     "closed_form_match", ("half_factorization", "closed_form_match")),
    (["cartan", "--K", "2", "--max-mode", "1"], cartan, "c_r_elements",
     "alpha_antisymmetric", ("solves", "alpha_antisymmetric")),
    (["serre"], serre, "check_diagonal_divisibility", None,
     ("checks", "diagonal_divisibility")),
    (["canonical"], canonical, "factorization_check", "out_leg_structure",
     ("factorization", "alpha1", "out_leg_structure")),
], ids=["kernels", "cartan", "serre", "canonical"])
def test_every_bool_leaf_can_fail_its_suite(monkeypatch, tmp_path, argv,
                                            module, producer, key, path):
    monkeypatch.setattr(module, producer,
                        forced(getattr(module, producer), key))
    code, (status, report) = run_main(monkeypatch, tmp_path, argv)
    leaf = report["report"]
    for k in path:
        leaf = leaf[k]
    assert leaf is False
    assert status == 1 and report["report"]["pass"] is False
    assert code == 1


def test_forced_leaf_fails_verify_all(monkeypatch, tmp_path):
    monkeypatch.setattr(cartan, "c_r_elements",
                        forced(cartan.c_r_elements, "alpha_antisymmetric"))
    code, (status, report) = run_main(
        monkeypatch, tmp_path,
        ["verify-all", "--suite", "cartan", "--K", "2", "--max-mode", "1"])
    assert all(r["pass"] is False for r in report["suites"]["cartan"].values())
    assert status == 1 and report["pass"] is False
    assert code == 1


def test_cartan_fails_when_T2_mod_hbar_moves(monkeypatch, tmp_path):
    # the suite no longer tests scalar_mod_hbar(T(2)) == 2 on its own: the
    # leaf inverse/mod_hbar_is_symmetrized_cartan reads T_00 = T(2) mod h
    real_T = cartan.T_operator

    def moved(sigma, config):
        op = real_T(sigma, config)
        return op.scalar_mul(Q(3, 2)) if sigma == 2 else op

    clear_memos()
    monkeypatch.setattr(cartan, "T_operator", moved)
    code, (status, report) = run_main(
        monkeypatch, tmp_path, ["cartan", "--K", "2", "--max-mode", "1"])
    assert report["report"]["T_mod_hbar_scalar"] == "3"
    assert status == 1 and report["report"]["pass"] is False
    assert code == 1


def test_bad_names_are_config_errors(capsys):
    with pytest.raises(ConfigError):
        run("frobnicate", RunConfig())
    with pytest.raises(ConfigError, match="unknown suite"):
        run("verify-all", RunConfig(suite="frobnicate"))
    assert main(["verify-all", "--suite", "frobnicate"]) == 2
    assert capsys.readouterr().err == (
        "config error: unknown suite 'frobnicate'\n")


def test_failed_computation_is_not_a_config_error(monkeypatch, capsys):
    def failing(config, cartan_name):
        raise ValueError("not divisible: nonzero remainder")

    monkeypatch.setitem(cli.SUITES, "cartan", failing)
    with pytest.raises(ValueError, match="remainder") as info:
        main(["cartan"])
    assert not isinstance(info.value, ConfigError)
    assert "config error" not in capsys.readouterr().err


def test_window_must_reach_one_on_each_side(tmp_path, capsys):
    # --window=0:20 used to check the kernels at half-width 10
    assert main(["kernels", "--window=0:20"]) == 2
    assert capsys.readouterr().err == (
        "config error: window must contain 0 and reach at least 1 on each "
        "side of it\n")
    # the smallest window that passes checks the kernels at half-width 1,
    # with the same report bytes as before the bound
    out = tmp_path / "r.json"
    assert main(["kernels", "--window=-1:20", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith(
        "08ee17cfaeef4d2f")


@pytest.mark.parametrize("suite, runs", [
    ("kernels", "no Cartan type"),
    ("serre", "A2"),
    ("gram", "A1"),
    ("canonical", "A1 and one A2 block"),
])
def test_a_suite_that_does_not_read_cartan_refuses_it(suite, runs, capsys):
    # `gram --cartan A2` used to exit 0 with the A1 blocks while its config
    # block said A2
    with pytest.raises(ConfigError, match=f"the {suite} suite .* {runs}"):
        run(suite, RunConfig(cartan="A2"))
    assert main([suite, "--cartan", "A2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and suite in err


def test_verify_all_refuses_a_non_default_cartan(capsys):
    with pytest.raises(ConfigError, match="verify-all does not read"):
        run("verify-all", RunConfig(cartan="A2", suite="cartan"))
    assert main(["verify-all", "--cartan", "A2"]) == 2
    assert "--cartan" in capsys.readouterr().err


def test_suites_that_read_cartan_accept_it():
    status, report = run("cartan", RunConfig(K=2, max_mode=1, cartan="A2"))
    assert status == 0 and report["report"]["cartan"] == "A2"
