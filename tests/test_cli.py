import json

import pytest

from qcurrents.cli import RunConfig, SCHEMA, dump_report, main, run


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
])
def test_bad_config_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    assert main(["cartan", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
