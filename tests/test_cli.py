"""Command-line interface: run, sweep, validate."""

import re
from pathlib import Path

import pytest

from tokendcf import experiments, parse_config
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


def test_validate_rejects_difs(tmp_path, capsys):
    path = tmp_path / "difs.ini"
    path.write_text("[phy]\ndifs = 28\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error: unknown key 'difs' in section [phy]" in capsys.readouterr().err


def test_validate_rejects_nan_period(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text("[token]\nperiod = nan\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    assert parse_config(example).protocol == "token_dcf"


def test_config_not_utf8_reports_error(tmp_path, capsys):
    # it used to escape as a UnicodeDecodeError traceback with exit code 1
    path = tmp_path / "utf16.ini"
    path.write_bytes(b"\xff\xfe" + "[experiment]\n".encode("utf-16-le"))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "utf16.ini" in err and "UTF-8" in err


def test_config_with_byte_order_mark_parses(tmp_path, capsys):
    # some editors start a UTF-8 file with a byte-order mark
    text = "[experiment]\nprotocol = dcf\nn_transmitters = 7\n"
    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    config = experiments.load_config(marked)
    assert config == experiments.load_config(plain)
    assert (config.protocol, config.n_transmitters) == ("dcf", 7)
    assert main(["validate", "--config", str(marked)]) == 0
    assert capsys.readouterr().err == ""


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_writes_results_csv(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert "throughput" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "n_transmitters",
                                                 "--values", "2,3"]])
@pytest.mark.parametrize("out", ["afile", "afile/x", "d"])
def test_unusable_out_fails_before_any_run(config_file, tmp_path, capsys, monkeypatch,
                                           command, out):
    # a file where the output directory should be, or above it, used to
    # raise FileExistsError / NotADirectoryError after the whole scenario
    # ran, and a directory named results.csv in it an IsADirectoryError
    (tmp_path / "afile").write_text("")
    (tmp_path / "d" / "results.csv").mkdir(parents=True)
    runs = []
    monkeypatch.setattr(experiments, "simulate_run", lambda *args: runs.append(args))
    argv = [command[0], "--config", config_file, "--out", str(tmp_path / out)] + command[1:]
    assert main(argv) == 2
    assert runs == []
    err = capsys.readouterr().err
    assert err.startswith("output error: ")
    assert ("results.csv" if out == "d" else "afile") in err


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


def test_sweep_values_skip_empty_entries():
    assert _parse_values("3,,6") == [3, 6]


def test_sweep_without_values_fails(config_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", config_file, "--param", "seed",
              "--values", ",", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "empty value list" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_infinite_count(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "n_transmitters",
                 "--values", "inf", "--out", str(tmp_path / "x")]) == 2
    assert "n_transmitters" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_unknown_param_errors(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "nonsense",
                 "--values", "1,2", "--out", str(tmp_path / "x")]) == 2
    assert "sweep error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_rate_over_full_buffer_traffic(config_file, tmp_path, capsys):
    # the config's traffic is full_buffer, which never reads the rate
    assert main(["sweep", "--config", config_file, "--param", "rate",
                 "--values", "1e5,1e6", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert re.match(r"sweep error: cannot sweep over parameter 'rate' with full_buffer traffic",
                    err), err
    assert not (tmp_path / "x").exists()


def test_sweep_rejects_invalid_packet_size(config_file, tmp_path, capsys):
    assert main(["sweep", "--config", config_file, "--param", "packet_size",
                 "--values", "0", "--out", str(tmp_path / "x")]) == 2
    assert "sweep error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
