"""End-to-end tests driving the command line through main(argv)."""

import json
import subprocess
import sys

import pytest

from rncgeom import (
    QQ,
    PrimeField,
    config_to_json,
    field_to_json,
    instance_from_json,
    sample_instance,
)
from rncgeom.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance_file(tmp_path, capsys, d=2, seed=1, extra=()):
    path = tmp_path / f"inst{d}s{seed}.json"
    code = main(["gen-instance", "--d", str(d), "--seed", str(seed),
                 "--output", str(path), *extra])
    capsys.readouterr()
    assert code == 0
    return path


# ---------------------------------------------------------------------------
# gen-instance


def test_gen_instance_stdout(capsys):
    code, out, err = run_cli(["gen-instance", "--d", "2", "--seed", "1"],
                             capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["schema"] == "vonstaudt-inst/1"
    assert obj["d"] == 2
    assert obj["seed"] == 1
    assert len(obj["params"]) == 6
    assert "d=2" in err


def test_gen_instance_output_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, err = run_cli(
        ["gen-instance", "--d", "2", "--seed", "4",
         "--output", str(path)], capsys)
    assert code == 0
    assert out == ""
    obj = json.loads(path.read_text())
    assert instance_from_json(obj) == sample_instance(2, QQ, seed=4)


def test_gen_instance_matches_library(capsys):
    code, out, _ = run_cli(
        ["gen-instance", "--d", "3", "--seed", "9", "--height", "12"],
        capsys)
    assert code == 0
    obj = json.loads(out)
    assert instance_from_json(obj) == sample_instance(
        3, QQ, seed=9, height=12)


def test_gen_instance_prime_field(capsys):
    code, out, _ = run_cli(
        ["gen-instance", "--d", "2", "--field", "prime:101"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == field_to_json(PrimeField(101))


def test_gen_instance_deterministic(capsys):
    _, first, _ = run_cli(["gen-instance", "--d", "3", "--seed", "5"],
                          capsys)
    _, second, _ = run_cli(["gen-instance", "--d", "3", "--seed", "5"],
                           capsys)
    _, third, _ = run_cli(["gen-instance", "--d", "3", "--seed", "6"],
                          capsys)
    assert first == second
    assert first != third


# ---------------------------------------------------------------------------
# verify


def test_verify_instance_file(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=2)
    code, out, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "vonstaudt-cert/1"
    assert cert["verdict"] is True
    assert cert["psi_total"] == 56
    assert cert["psi_zero"] == 56
    assert cert["castelnuovo_ok"] is None
    assert "verdict=True" in err


def test_verify_castelnuovo_flag(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=2, seed=3)
    code, out, _ = run_cli(
        ["verify", "--input", str(path), "--castelnuovo"], capsys)
    assert code == 0
    assert json.loads(out)["castelnuovo_ok"] is True


def test_verify_sample_flag(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=2)
    code, out, _ = run_cli(
        ["verify", "--input", str(path), "--sample", "5"], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["sample"] == 5
    assert cert["psi_total"] == 5


def test_verify_tampered_instance(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=2, seed=7)
    obj = json.loads(path.read_text())
    obj["vertices"]["points"][0] = ["1", "3", "-5"]
    path.write_text(json.dumps(obj))
    code, out, _ = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 1
    cert = json.loads(out)
    assert cert["verdict"] is False
    assert cert["psi_zero"] < cert["psi_total"] or not cert["glp_ok"]


# ---------------------------------------------------------------------------
# check-psi


def test_check_psi_on_instance(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=4)
    code, out, err = run_cli(["check-psi", "--input", str(path)], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 56
    for obj in lines:
        assert list(obj) == ["J", "I", "m1", "m2", "value"]
        assert obj["value"] == "0"
    assert "member=True" in err


def test_check_psi_on_plain_configuration(tmp_path, capsys):
    inst = sample_instance(3, QQ, seed=4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_json(inst.vertices)))
    code, out, _ = run_cli(["check-psi", "--input", str(path)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 56


def test_check_psi_sample(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=4)
    code, out, _ = run_cli(
        ["check-psi", "--input", str(path), "--sample", "10"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 10


def test_check_psi_point_count_assertion(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=4)
    code, out, _ = run_cli(
        ["check-psi", "--input", str(path), "--n", "8"], capsys)
    assert code == 0
    code, _, err = run_cli(
        ["check-psi", "--input", str(path), "--n", "9"], capsys)
    assert code == 2
    assert "--n said 9" in err


def test_check_psi_nonmember(tmp_path, capsys):
    # tamper one vertex so some equation values are nonzero
    path = gen_instance_file(tmp_path, capsys, d=3, seed=4)
    obj = json.loads(path.read_text())
    obj["vertices"]["points"][3] = ["1", "2", "3", "4"]
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["check-psi", "--input", str(path)], capsys)
    assert code == 1
    values = [json.loads(line)["value"] for line in out.splitlines()]
    assert any(v != "0" for v in values)
    assert "member=False" in err


# ---------------------------------------------------------------------------
# fit-curve


def test_fit_curve_on_instance(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=2, seed=6)
    code, out, _ = run_cli(["fit-curve", "--input", str(path)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "fit-curve"
    assert obj["ok"] is True
    assert obj["contained"] == [True]


def test_fit_curve_degenerate_input(tmp_path, capsys):
    inst = sample_instance(2, QQ, seed=6)
    config = config_to_json(inst.vertices)
    config["points"][1] = config["points"][0]
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(["fit-curve", "--input", str(path)], capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    assert obj["error"]


def test_fit_curve_needs_enough_points(tmp_path, capsys):
    inst = sample_instance(2, QQ, seed=6)
    config = config_to_json(inst.vertices)
    config["points"] = config["points"][:4]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(["fit-curve", "--input", str(path)], capsys)
    assert code == 2
    assert "at least 5 points" in err


# ---------------------------------------------------------------------------
# symbolic checks


def test_sym_factorization_conic(capsys):
    code, out, err = run_cli(["sym-factorization", "--d", "2"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 20
    for obj in lines:
        assert obj["kind"] == "factorization"
        assert obj["d"] == 2
        assert len(obj["K"]) == 3
        assert obj["ok"] is True
    assert "failed=0" in err


def test_sym_factorization_sample(capsys):
    code, full, _ = run_cli(["sym-factorization", "--d", "2"], capsys)
    assert code == 0
    code, sampled, _ = run_cli(
        ["sym-factorization", "--d", "2", "--sample", "5", "--seed", "2"],
        capsys)
    assert code == 0
    sampled_lines = sampled.splitlines()
    assert len(sampled_lines) == 5
    assert set(sampled_lines) <= set(full.splitlines())
    _, again, _ = run_cli(
        ["sym-factorization", "--d", "2", "--sample", "5", "--seed", "2"],
        capsys)
    assert sampled == again


def test_sym_psi_conic(capsys):
    code, out, _ = run_cli(["sym-psi", "--d", "2"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 1
    assert lines[0]["kind"] == "psi-identity"
    assert lines[0]["ok"] is True


def test_sym_psi_cubic_sample(capsys):
    code, out, err = run_cli(
        ["sym-psi", "--d", "3", "--sample", "4", "--method", "factors"],
        capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    assert all(obj["ok"] for obj in lines)
    assert "method=factors" in err


def test_sym_jobs_agree(capsys):
    for command in ("sym-psi", "sym-factorization"):
        argv = [command, "--d", "3", "--sample", "6"]
        _, serial, _ = run_cli([*argv, "--jobs", "1"], capsys)
        _, parallel, _ = run_cli([*argv, "--jobs", "3"], capsys)
        assert serial == parallel


# ---------------------------------------------------------------------------
# dual-check


def test_dual_check_sampled(capsys):
    code, out, _ = run_cli(["dual-check", "--d", "2", "--seed", "3"],
                           capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "dual-check"
    assert obj["on_rnc"] is True
    assert obj["glp"] is True
    assert obj["member"] is True


def test_dual_check_from_file(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=2)
    code, out, _ = run_cli(["dual-check", "--input", str(path)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["d"] == 3
    assert obj["on_rnc"] is True


def test_dual_check_requires_source(capsys):
    code, _, err = run_cli(["dual-check"], capsys)
    assert code == 2
    assert "--input or --d" in err


# ---------------------------------------------------------------------------
# errors and plumbing


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_unknown_field_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen-instance", "--d", "2", "--field", "complex"])
    assert info.value.code == 2
    assert "rationals" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "check-psi"])
def test_numeric_commands_reject_jobs(command, tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=2, seed=1)
    with pytest.raises(SystemExit) as info:
        main([command, "--input", str(path), "--jobs", "2"])
    assert info.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "verify", "check-psi", "sym-factorization", "sym-psi"])
def test_sample_zero_exits_two(command, tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=1)
    source = ["--d", "3"] if command.startswith("sym-") else [
        "--input", str(path)]
    with pytest.raises(SystemExit) as info:
        main([command, *source, "--sample", "0"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"rncgeom {command}: error: argument --sample: "
                      "must be at least 1, got 0"]


def test_missing_input_file(capsys):
    code, _, err = run_cli(
        ["verify", "--input", "/nonexistent/inst.json"], capsys)
    assert code == 2
    assert "error:" in err


def test_input_missing_key(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"d": 2}))
    code, _, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 2
    assert "missing key" in err


def test_input_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    code, _, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rncgeom.cli",
         "gen-instance", "--d", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["schema"] == "vonstaudt-inst/1"
    assert instance_from_json(obj) == sample_instance(2, QQ, seed=1)
