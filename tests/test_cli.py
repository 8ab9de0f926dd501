import csv
import io
import json
import re

import pytest

from secaggsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_default_nv(capsys):
    code, out = run_cli(capsys, "run", "--protocol", "nv", "--clients", "5",
                        "--model-size", "4", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["failure"] is None
    assert report["result"]["contributors"] == [0, 1, 2, 3, 4]
    assert len(report["result"]["average"]) == 4


def test_run_infeasible_threshold_exits_2_with_report(capsys):
    code, out = run_cli(capsys, "run", "--protocol", "nv", "--clients", "5",
                        "--threshold", "5", "--dropout-rate", "0.3")
    assert code == 2
    report = json.loads(out)
    assert report["result"] is None
    assert report["failure"].startswith("InsufficientSurvivors")


def test_run_default_threshold_is_majority(capsys):
    code, out = run_cli(capsys, "run", "--protocol", "nv", "--clients", "9",
                        "--model-size", "2")
    assert code == 0
    assert json.loads(out)["config"]["t"] == 9 // 2 + 1


def test_run_invalid_flag_exits_1_with_error_json(capsys):
    code, out = run_cli(capsys, "run", "--protocol", "bogus")
    assert code == 1
    assert "error" in json.loads(out)


def test_run_invalid_combination_exits_1(capsys):
    # pairwise masking cannot run with two clients
    code, out = run_cli(capsys, "run", "--protocol", "pw", "--clients", "2",
                        "--dh-profile", "test")
    assert code == 1
    assert "error" in json.loads(out)


def test_run_determinism_excluding_wall_time(capsys):
    argv = ("run", "--protocol", "nv", "--clients", "5", "--model-size", "4",
            "--seed", "3")
    _, out_a = run_cli(capsys, *argv)
    _, out_b = run_cli(capsys, *argv)
    scrub = lambda s: re.sub(r'"wall_time": [0-9.e-]+', '"wall_time": 0', s)
    assert scrub(out_a) == scrub(out_b)


def test_config_file_with_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("protocol = nv\nclients = 6\nmodel_size = 3\nseed = 5\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["n"] == 6
    # explicit flag beats the file
    code, out = run_cli(capsys, "run", "--config", str(cfg),
                        "--clients", "4")
    assert code == 0
    assert json.loads(out)["config"]["n"] == 4


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("not_a_key = 1\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "error" in json.loads(out)


def test_sweep_csv_shape_and_determinism(tmp_path, capsys):
    argv = ("sweep", "--protocols", "nv", "--clients", "3,5",
            "--model-sizes", "4", "--dropout-rates", "0,0.34",
            "--seed", "1", "--dh-profile", "test")
    _, out_a = run_cli(capsys, *argv)
    _, out_b = run_cli(capsys, *argv)
    rows = list(csv.DictReader(io.StringIO(out_a)))
    assert [r["n"] for r in rows] == ["3", "3", "5", "5"]
    assert rows[0]["outcome"] == "ok"
    assert set(rows[0]) == {"protocol", "n", "m", "rate", "stage",
                            "wall_time_s", "total_bytes", "bytes_per_client",
                            "total_messages", "field_ops", "outcome"}

    def strip_wall(text):
        out = []
        for row in csv.reader(io.StringIO(text)):
            out.append(",".join(row[:5] + row[6:]))
        return "\n".join(out)

    assert strip_wall(out_a) == strip_wall(out_b)


def test_sweep_to_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out = run_cli(capsys, "sweep", "--protocols", "nv", "--clients",
                        "3", "--model-sizes", "4", "--dropout-rates", "0",
                        "--out", str(path))
    assert code == 0 and out == ""
    rows = list(csv.DictReader(path.open()))
    assert rows[0]["total_messages"] == str(2 * 3 * 2 + 3)


def test_sweep_records_dropout_stage(capsys):
    code, out = run_cli(capsys, "sweep", "--protocols", "nv", "--clients",
                        "6", "--model-sizes", "4", "--dropout-rates", "0.34")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["stage"] in ("input_shares", "aggregate_shares")
    assert rows[0]["outcome"] == "ok"


def test_verify_quick_passes(capsys):
    code, out = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 12


def test_verify_fault_injection_is_detected(capsys):
    code, out = run_cli(capsys, "verify", "--quick", "--fault-inject")
    assert code == 1
    assert "FAIL share_vector_roundtrip" in out
    assert "FAIL mask_stream_prefix_and_kat" in out
    assert "FAIL stream_batch_identity" in out
    assert "FAIL share_block_identity" in out
    assert "FAIL matmul_mod_dual_route" in out
    assert "FAIL lwe_matvec_dual_route" in out
    assert "FAIL lwe_mask_dual_route" in out
    assert "FAIL sum_mod_dual_route" in out


def test_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("protocols = nv\nclients = 3\nmodel_sizes = 4\n"
                   "dropout_rates = 0\nseed = 2\n")
    code, out = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1 and rows[0]["n"] == "3"
    # flags still override the file
    code, out = run_cli(capsys, "sweep", "--config", str(cfg),
                        "--clients", "4")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["n"] == "4"


@pytest.mark.parametrize("line", ["dh_profile = 2049", "personal_mask = of"])
def test_config_file_values_are_checked_like_flags(tmp_path, capsys, line):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"protocol = pw\n{line}\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "invalid choice" in json.loads(out)["error"]


def test_config_file_empty_value_means_default(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("clients =\nthreshold =\nmodel_size = 2\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["n"], config["t"], config["m"]) == (5, 3, 2)


def test_config_file_key_must_name_a_flag_exactly(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("client = 6\n")  # argparse alone would take --clients
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["error"] == f"{cfg}:1: unknown key 'client'"


def test_config_file_line_without_equals_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("# comment\nclients 6\n")
    code, out = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["error"].startswith(f"{cfg}:2:")


def test_missing_config_file_exits_1(tmp_path, capsys):
    code, out = run_cli(capsys, "run", "--config", str(tmp_path / "none"))
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("flags", [
    ("--dropout-rate", "1.5"),
    ("--dropout-rate", "0.4", "--dropout-stage", "bogus"),
])
def test_run_bad_dropout_exits_1_before_the_run(capsys, flags):
    code, out = run_cli(capsys, "run", *flags)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("flags", [
    ("--pack-width", "0"),
    ("--pack-width", "-2"),
    ("--model-size", "0"),
    ("--model-size", "-3"),
    ("--rounds", "0"),
])
def test_run_empty_config_exits_1_before_the_run(capsys, flags):
    code, out = run_cli(capsys, "run", *flags)
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_run_non_finite_sigma_exits_1(capsys, sigma):
    code, out = run_cli(capsys, "run", "--protocol", "lwe", "--clients", "5",
                        "--model-size", "8", "--sigma", sigma)
    assert code == 1
    assert "finite" in json.loads(out)["error"]


def test_sweep_skips_an_empty_model(capsys):
    code, out = run_cli(capsys, "sweep", "--protocols", "nv", "--clients",
                        "3", "--model-sizes", "0,4", "--dropout-rates", "0")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["outcome"] for r in rows] == ["skipped:ValueError", "ok"]


@pytest.mark.parametrize("flags", [
    ("--clients", "3,x"),
    ("--protocols", "nv,bogus"),
])
def test_sweep_bad_list_exits_1(capsys, flags):
    code, out = run_cli(capsys, "sweep", *flags)
    assert code == 1
    assert "error" in json.loads(out)
