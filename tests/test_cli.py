"""Command-line interface: run, sweep, validate."""

import re
from pathlib import Path

import pytest

from tokendcf import parse_config
from tokendcf.cli import _parse_values, main

GOOD_CONFIG = """
[experiment]
n_transmitters = 3
duration = 0.1
runs = 1
seed = 2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_validate_good_config(config_file, capsys):
    assert main(["validate", "--config", config_file]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[mac]\ncw_min = 0\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_rejects_nan_period(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text("[token]\nperiod = nan\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(example).protocol == "token_dcf"


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_results_csv(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert "throughput" in capsys.readouterr().out


def test_sweep_writes_csv_and_plot_data(config_file, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--param", "n_transmitters",
                 "--values", "2,3", "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert (out / "throughput_bps_dcf.dat").exists()
    assert (out / "throughput_bps_token_dcf.dat").exists()


def test_sweep_values_keep_large_integers_exact(config_file, tmp_path):
    # 2**53 + 1 and 12345678901234567890 have no exact float
    assert _parse_values("9007199254740993,12345678901234567890,3") == \
        [9007199254740993, 12345678901234567890, 3]
    assert _parse_values("1e3, 2.0,0.5") == [1000, 2, 0.5]
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", config_file, "--param", "seed",
                 "--values", "9007199254740993", "--out", str(out)]) == 0
    rows = (out / "results.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("seed=9007199254740993,") for row in rows)


def test_sweep_rejects_infinite_count(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "n_transmitters",
                 "--values", "inf", "--out", str(tmp_path / "x")]) == 2
    assert "n_transmitters" in capsys.readouterr().err


def test_sweep_unknown_param_errors(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "nonsense",
                 "--values", "1,2", "--out", str(tmp_path / "x")]) == 2
    assert "sweep error" in capsys.readouterr().err


def test_sweep_rejects_invalid_packet_size(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "packet_size",
                 "--values", "0", "--out", str(tmp_path / "x")]) == 2
    assert "sweep error" in capsys.readouterr().err
