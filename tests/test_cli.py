"""End-to-end tests driving the command line through main(argv)."""

import copy
import io
import json
import resource
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncgeom import (
    QQ,
    PrimeField,
    certificate_to_json,
    identities,
    instance_from_json,
    sample_instance,
    verify_instance,
)
from rncgeom import staudt
from rncgeom.cli import main
from rncgeom.fields import field_to_json
from rncgeom.projective import BracketTable, config_to_json

DATA = Path(__file__).parent / "data"


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


def test_gen_instance_gives_up_after_its_draws(capsys):
    """Height 1 has three values for six parameters: after 1000 draws per
    parameter sampling stops with a usage error."""
    code, out, err = run_cli(["gen-instance", "--d", "2", "--height", "1"],
                             capsys)
    assert (code, out) == (2, "")
    assert err == ("error: sampling failed to find distinct parameters; "
                   "raise the height\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_instance_file(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=3, seed=2)
    code, out, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "vonstaudt-cert/2"
    assert cert["construction_ok"] is True
    assert cert["sample_seed"] is None
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


@pytest.mark.parametrize("name", ["d3.json", "d3-tampered.json",
                                  "d3-mod101-tampered.json"])
def test_verify_output_file_is_the_indented_certificate(name, tmp_path,
                                                        capsys):
    """verify --output writes json.dumps(certificate, indent=2) and a
    newline, what stdout gets without the flag."""
    path = tmp_path / "cert.json"
    argv = ["verify", "--castelnuovo", "--input", str(DATA / name)]
    code, out, err = run_cli(argv + ["--output", str(path)], capsys)
    cert = verify_instance(instance_from_json(
        json.loads((DATA / name).read_text())), with_castelnuovo=True)
    text = json.dumps(certificate_to_json(cert), indent=2) + "\n"
    assert (code, out, path.read_text()) == (0 if cert.verdict else 1, "",
                                             text)
    assert run_cli(argv, capsys) == (code, text, err)


@pytest.mark.parametrize("key", ["vertices", "planes", "points"])
def test_verify_rejects_data_from_another_seed(tmp_path, capsys, key):
    """Stored data that the parameters do not build fails the construction
    check, even when its vertices satisfy every equation."""
    own = json.loads(gen_instance_file(tmp_path, capsys, 3, 11).read_text())
    other = json.loads(gen_instance_file(tmp_path, capsys, 3, 12).read_text())
    own[key] = other[key]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(own))
    code, out, _ = run_cli(["verify", "--input", str(path)], capsys)
    cert = json.loads(out)
    assert code == 1
    assert cert["construction_ok"] is False and cert["verdict"] is False


def test_verify_summary_names_a_failed_construction(tmp_path, capsys):
    """Vertices from another seed satisfy every equation; the stderr
    summary shows that the construction check is what failed."""
    own = json.loads(gen_instance_file(tmp_path, capsys, 3, 11).read_text())
    other = json.loads(gen_instance_file(tmp_path, capsys, 3, 12).read_text())
    own["vertices"] = other["vertices"]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(own))
    code, out, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 1
    assert json.loads(out)["psi_failures"] == []
    assert err == ("verdict=False construction=False glp=True psi=56/56 "
                   "castelnuovo=skipped\n")
    code, _, err = run_cli(["verify", "--input",
                            str(DATA / "d3.json")], capsys)
    assert code == 0
    assert err.startswith("verdict=True construction=True glp=True ")


def test_verify_records_sample_seed(tmp_path, capsys):
    path = gen_instance_file(tmp_path, capsys, d=6, extra=(
        "--field", "prime:101"))
    outs = []
    for seed in ("3", "4"):
        code, out, _ = run_cli(["verify", "--input", str(path), "--sample",
                                "5", "--seed", seed], capsys)
        assert code == 0
        assert json.loads(out)["sample_seed"] == int(seed)
        outs.append(out)
    assert outs[0] != outs[1]


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


@pytest.mark.parametrize("name,expected", [
    ("d3", 0), ("d3-tampered", 1), ("d3-mod101-tampered", 1)])
def test_check_psi_golden_output(capsys, name, expected):
    """Byte-identical to the stdout recorded from the per-bracket
    Fraction/Residue evaluation that the integer bracket table replaced."""
    code, out, _ = run_cli(
        ["check-psi", "--input", str(DATA / f"{name}.json")], capsys)
    assert code == expected
    assert out == (DATA / f"{name}.check-psi.jsonl").read_text()


@pytest.mark.parametrize("argv,name,expected,summary", [
    (["verify", "--sample", "40", "--seed", "3", "--input",
      str(DATA / "d3-tampered.json")],
     "d3-tampered.verify-sample40-seed3.json", 1,
     "verdict=False construction=False glp=True psi=4/40 "
     "castelnuovo=skipped"),
    (["check-psi", "--sample", "30", "--seed", "1", "--input",
      str(DATA / "d3-mod101-tampered.json")],
     "d3-mod101-tampered.check-psi-sample30-seed1.jsonl", 1,
     "equations=30 nonzero=25 member=False"),
    (["verify", "--sample", "40", "--seed", "2", "--input", None],
     "d6-mod101-tampered.verify-sample40-seed2.json", 1,
     "verdict=False construction=False glp=False psi=9/40 "
     "castelnuovo=skipped"),
], ids=["verify-d3", "check-psi-d3-mod101", "verify-d6-mod101"])
def test_sampled_golden_output(tmp_path, capsys, argv, name, expected,
                               summary):
    """A seeded sample picks the same equations and prints them byte for
    byte as recorded, over Q and Z/101; the d=6 instance, written here
    with its first vertex replaced, samples 40 of 210,210 equations."""
    if argv[-1] is None:
        path = gen_instance_file(tmp_path, capsys, d=6, extra=(
            "--field", "prime:101", "--height", "6"))
        obj = json.loads(path.read_text())
        obj["vertices"]["points"][0] = ["1", "3", "5", "7", "11", "13", "17"]
        path.write_text(json.dumps(obj))
        argv = [*argv[:-1], str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (expected, summary + "\n")
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("argv,name", [
    (["gen-instance", "--d", "3", "--seed", "11"],
     "gen-instance-d3-seed11.json"),
    (["gen-instance", "--d", "4", "--seed", "3", "--field", "prime:101"],
     "gen-instance-d4-seed3-prime101.json"),
    # a draw is put in lowest terms before it is reduced mod p, and one
    # whose denominator then vanishes mod p is skipped: 0/13 kept and
    # 20/13 skipped; 13/13 kept as [1 : 1]; 12/7 skipped and 7/14 kept
    # as 1/2; -16/11 and 7/11 skipped; seven draws over 13 skipped
    (["gen-instance", "--d", "4", "--seed", "2", "--field", "prime:13"],
     "gen-instance-d4-seed2-prime13.json"),
    (["gen-instance", "--d", "4", "--seed", "3", "--field", "prime:13"],
     "gen-instance-d4-seed3-prime13.json"),
    (["gen-instance", "--d", "2", "--seed", "7", "--field", "prime:7"],
     "gen-instance-d2-seed7-prime7.json"),
    (["gen-instance", "--d", "4", "--seed", "0", "--field", "prime:11"],
     "gen-instance-d4-seed0-prime11.json"),
    (["gen-instance", "--d", "5", "--seed", "6", "--field", "prime:13",
      "--height", "13"], "gen-instance-d5-seed6-prime13-height13.json"),
    (["fit-curve", "--input", str(DATA / "d3.json")], "d3.fit-curve.json"),
    (["fit-curve", "--input", str(DATA / "d5.json")], "d5.fit-curve.json"),
    (["fit-curve", "--input",
      str(DATA / "gen-instance-d4-seed3-prime101.json")],
     "gen-instance-d4-seed3-prime101.fit-curve.json"),
    (["dual-check", "--input", str(DATA / "d3.json")], "d3.dual-check.json"),
    (["dual-check", "--d", "4", "--seed", "2", "--field", "prime:101"],
     "dual-check-d4-seed2-prime101.json"),
], ids=["gen-instance-d3", "gen-instance-d4-mod101",
        "gen-instance-d4-mod13-zero", "gen-instance-d4-mod13-one",
        "gen-instance-d2-mod7", "gen-instance-d4-mod11",
        "gen-instance-d5-mod13-height13", "fit-curve",
        "fit-curve-d5", "fit-curve-d4-mod101", "dual-check",
        "dual-check-d4-mod101"])
def test_serialization_golden_output(capsys, argv, name):
    """Parameters, curve points, planes, vertices and fitted models are
    written byte for byte as recorded in the data files."""
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (DATA / name).read_text()


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


def test_sym_factorization_sample_picks(capsys):
    """The picks are pinned, not just deterministic: seeded ranks
    unranked in combinations order."""
    code, out, _ = run_cli(
        ["sym-factorization", "--d", "4", "--sample", "6", "--seed", "5"],
        capsys)
    assert code == 0
    assert [json.loads(line)["K"] for line in out.splitlines()] == [
        [1, 3, 4, 7, 8], [1, 4, 5, 6, 7], [2, 3, 7, 9, 10],
        [2, 4, 6, 9, 10], [2, 5, 7, 9, 10], [3, 4, 5, 8, 9]]


@pytest.mark.parametrize("argv,name,summary", [
    (["sym-factorization", "--d", "3"], "sym-factorization-d3.jsonl",
     "subsets=70 failed=0 expanded=0"),
    (["sym-factorization", "--d", "4", "--sample", "126", "--seed", "5"],
     "sym-factorization-d4-sample126-seed5.jsonl",
     "subsets=126 failed=0 expanded=0"),
    (["sym-factorization", "--d", "5", "--sample", "8"],
     "sym-factorization-d5-sample8.jsonl", "subsets=8 failed=0 expanded=0"),
], ids=["d3", "d4-sampled", "d5-sampled"])
def test_sym_factorization_golden_output(capsys, argv, name, summary):
    """Byte-identical to the records written when every subset was
    expanded on its own; the proof route expands none of them."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, summary + "\n")
    assert out == (DATA / name).read_text()


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


def test_sym_psi_cubic_golden_output(capsys):
    code, out, _ = run_cli(["sym-psi", "--d", "3"], capsys)
    assert code == 0
    assert out == (DATA / "sym-psi-d3.jsonl").read_text()


def test_sym_psi_refuses_expand_beyond_d3():
    # one d = 4 identity by expansion runs for many minutes: the timeout
    # fails the test rather than waiting for it
    result = subprocess.run(
        [sys.executable, "-m", "rncgeom.cli",
         "sym-psi", "--d", "4", "--method", "expand"],
        capture_output=True, text=True, timeout=30)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: the expand route is limited to d <= 3, got 4"]


def test_sym_factorization_runs_d7_in_little_memory():
    """Under a 512 MB address-space cap, where one d = 7 expansion ran out
    of memory, a d = 7 sample is proved without expanding."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "rncgeom.cli",
         "sym-factorization", "--d", "7", "--sample", "40"],
        capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert result.returncode == 0
    assert result.stderr == "subsets=40 failed=0 expanded=0\n"
    assert len(result.stdout.splitlines()) == 40


@pytest.mark.parametrize("error,message", [
    (MemoryError(), "error: out of memory"),
    (OverflowError("product degree exceeds 255"),
     "error: product degree exceeds 255"),
], ids=["memory", "overflow"])
def test_a_computation_too_large_exits_2(error, message, monkeypatch,
                                         capsys):
    """Running out of memory or past the polynomial degree bound is not a
    counterexample: exit 2 with one error line, not a traceback and 1."""
    def raising(d):
        raise error

    monkeypatch.setattr(identities, "FactorizationProofs", raising)
    code, out, err = run_cli(["sym-factorization", "--d", "2"], capsys)
    assert (code, out, err.splitlines()) == (2, "", [message])


@pytest.mark.parametrize("argv,name,summary", [
    (["sym-psi", "--d", "2"], "sym-psi-d2.jsonl",
     "identities=1 method=auto failed=0"),
    (["sym-psi", "--d", "4", "--sample", "50", "--seed", "3"],
     "sym-psi-d4-sample50-seed3.jsonl", "identities=50 method=auto failed=0"),
    (["sym-psi", "--d", "3", "--sample", "7", "--method", "expand"],
     "sym-psi-d3-sample7-expand.jsonl",
     "identities=7 method=expand failed=0"),
], ids=["d2-expand", "d4-sampled", "d3-sampled-expand"])
def test_sym_psi_golden_output(capsys, argv, name, summary):
    """Byte-identical to the records written when every equation was
    checked on its own, on both routes, in full and sampled."""
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, summary + "\n")
    assert out == (DATA / name).read_text()


def test_sym_psi_peak_memory_stays_small(tmp_path):
    """Records are written as they form: a full d=5 run keeps no
    per-equation objects, far below the ~7 MB that held all 18,480."""
    path = tmp_path / "d5.jsonl"
    tracemalloc.start()
    try:
        code = main(["sym-psi", "--d", "5", "--output", str(path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(path.read_text().splitlines()) == 18480
    assert peak < 2 * 2 ** 20


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


def test_field_flag_refuses_a_nonprime(capsys):
    for p in ("0", "-7"):
        with pytest.raises(SystemExit) as info:
            main(["gen-instance", "--d", "2", "--field", f"prime:{p}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("rncgeom gen-instance: error: argument "
                                f"--field: {p} is not prime\n")


@pytest.mark.parametrize("p", ["abc", "1.5", "", "\u0667", " 7", "+7",
                               "1_01"],
                         ids=["letters", "decimal", "empty", "arabic-indic",
                              "space", "plus", "underscore"])
def test_field_flag_reads_p_in_ascii_digits(capsys, p):
    """p in --field prime:p is read by the input files' integer grammar, an
    optional - and ASCII digits; other text is refused in one line that
    quotes it, never read as int() would read it."""
    with pytest.raises(SystemExit) as info:
        main(["gen-instance", "--d", "2", "--field", f"prime:{p}"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "rncgeom gen-instance: error: argument --field: p in prime:p must "
        f"be [-]n in ASCII digits, got {p!r}\n")


# each integer flag with a command that takes it, before the flag
INTEGER_FLAGS = {
    "--seed": ["gen-instance", "--d", "2"],
    "--height": ["gen-instance", "--d", "2"],
    "--d": ["gen-instance"],
    "--sample": ["verify", "--input", str(DATA / "d3.json")],
    "--n": ["check-psi", "--input", str(DATA / "d3.json")],
}


@pytest.mark.parametrize("text", ["\u0667", "+3", "1_0", " 3", "0x10", ""],
                         ids=["arabic-indic", "plus", "underscore", "space",
                              "hex", "empty"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flags_read_ascii_digits(capsys, flag, text):
    """Every integer flag reads an optional - and ASCII digits, as p in
    prime:p and the input files do; text that int() reads otherwise is
    refused in one line that quotes it."""
    with pytest.raises(SystemExit) as info:
        main([*INTEGER_FLAGS[flag], flag, text])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = INTEGER_FLAGS[flag][0]
    assert captured.err == (
        f"rncgeom {command}: error: argument {flag}: must be [-]n in ASCII "
        f"digits, got {text!r}\n")


def test_an_integer_flag_past_the_digit_limit_is_one_line(capsys):
    """Digits past what int() converts (sys.get_int_max_str_digits, from
    Python 3.11) are refused in int()'s words, without echoing them."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("int() converts any number of digits here")
    with pytest.raises(SystemExit) as info:
        main(["gen-instance", "--d", "2", "--seed", "1" * (limit + 1)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(
        "rncgeom gen-instance: error: argument --seed: Exceeds the limit")
    assert "1" * 100 not in line


def test_a_negative_seed_still_runs(capsys):
    code, out, err = run_cli(
        ["gen-instance", "--d", "2", "--seed", "-3"], capsys)
    assert code == 0
    assert json.loads(out)["seed"] == -3
    assert err == "instance d=2 n=6 field=rationals seed=-3 height=20\n"


@pytest.mark.parametrize("command", [
    "verify", "check-psi", "sym-factorization", "sym-psi"])
def test_numeric_commands_reject_jobs(command, tmp_path, capsys):
    """Every command runs in one process and has no --jobs option."""
    if command.startswith("sym-"):
        argv = [command, "--d", "2"]
    else:
        argv = [command, "--input",
                str(gen_instance_file(tmp_path, capsys, d=2, seed=1))]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--jobs", "2"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["rncgeom: error: unrecognized arguments: --jobs 2"]


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


@pytest.mark.parametrize("argv", [
    ["gen-instance", "--d", "2", "--field", "prime:4"],
    ["gen-instance", "--d", "2", "--field",
     "prime:618970019642690137449562111"],
    ["verify", "--sample", "0", "--input", "x"],
    ["verify"],
    ["sym-psi", "--d", "x"],
])
def test_usage_error_is_one_stderr_line(argv, capsys):
    """argparse refusals print only the error line, no usage block."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"rncgeom {argv[0]}: error: ")


@pytest.mark.parametrize("argv, message", [
    (["gen-instance", "--d", "1"],
     "the construction needs degree at least 2"),
    (["dual-check", "--d", "1"], "the construction needs degree at least 2"),
    (["sym-psi", "--d", "1"], "no equations for dim 1 with 4 points"),
    (["sym-factorization", "--d", "-1"],
     "the construction needs degree at least 2"),
    (["sym-factorization", "--d", "0"],
     "the construction needs degree at least 2"),
    (["sym-factorization", "--d", "1"],
     "the construction needs degree at least 2"),
    (["sym-factorization", "--d", "-2"],
     "the construction needs degree at least 2"),
    (["sym-psi", "--d", "24", "--sample", "5"],
     "cannot sample from 33435605402785404000 items; "
     f"at most {sys.maxsize} are supported"),
    (["sym-psi", "--d", "1", "--method", "expand"],
     "no equations for dim 1 with 4 points"),
    (["sym-psi", "--d", "24", "--sample", "5", "--method", "expand"],
     "cannot sample from 33435605402785404000 items; "
     f"at most {sys.maxsize} are supported"),
    (["sym-psi", "--d", "4", "--method", "expand"],
     "the expand route is limited to d <= 3, got 4"),
], ids=["gen-instance-d1", "dual-check-d1", "sym-psi-d1",
        "sym-factorization-d-1", "sym-factorization-d0",
        "sym-factorization-d1", "sym-factorization-d-2",
        "sym-psi-d24-sampled", "sym-psi-d1-expand",
        "sym-psi-d24-sampled-expand", "sym-psi-d4-expand"])
def test_degree_and_sample_range_exit_two(argv, message, tmp_path, capsys,
                                          monkeypatch):
    """Degrees below 2, samples from more items than random.sample can
    index, and the expand route above d = 3 are input errors with one
    line, raised before any output file is opened or any expansion
    starts; a bad pick wins over a bad method."""
    def no_expansion(*args):
        raise AssertionError("expansion started")

    monkeypatch.setattr(identities, "vertex_bracket_poly", no_expansion)
    path = tmp_path / "out.json"
    for output in ([], ["--output", str(path)]):
        code, out, err = run_cli(argv + output, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not path.exists()


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


def _without(*path):
    """The document with the key at path deleted."""
    def edit(obj):
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return obj
    return edit


def _bare_without(key):
    """An instance's vertices without key, alone as a bare configuration."""
    return lambda obj: _without(key)(obj["vertices"])


@pytest.mark.parametrize("name, edit, document, key", [
    ("d3.json", _without("d"), "instance", "d"),
    ("d3.json", _without("field"), "instance", "field"),
    ("d3.json", _without("params"), "instance", "params"),
    ("d3-mod101-tampered.json", _without("field", "p"), "instance", "p"),
    ("d3.json", _without("vertices", "dim"), "configuration", "dim"),
    ("d3.json", _without("vertices", "points"), "configuration", "points"),
    ("d3.json", _bare_without("dim"), "configuration", "dim"),
    ("d3.json", _bare_without("points"), "configuration", "points"),
], ids=["instance-d", "instance-field", "instance-params", "field-p",
        "vertices-dim", "vertices-points", "bare-dim", "bare-points"])
def test_a_missing_key_names_its_document(tmp_path, capsys, name, edit,
                                          document, key):
    """A document without a required key exits 2 with one line naming the
    document and the key: an instance as every reading command reads it,
    a bare configuration as check-psi and fit-curve do.  An instance holds
    d or params, which no configuration does, so one missing params is
    still an instance to check-psi and fit-curve."""
    obj = edit(json.loads((DATA / name).read_text()))
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    bare = "vertices" not in obj
    for command in ["check-psi", "fit-curve"] + (
            [] if bare else ["verify", "dual-check"]):
        code, out, err = run_cli([command, "--input", str(path)], capsys)
        assert (code, out, err) == (
            2, "", f"error: malformed {document}: missing key '{key}'\n")


@pytest.mark.parametrize("schema", [None, "vonstaudt-cert/1",
                                    "vonstaudt-cert/2"])
@pytest.mark.parametrize("command", ["check-psi", "fit-curve"])
def test_another_document_holding_d_is_named(tmp_path, capsys, command,
                                             schema):
    """A dual-check output and a certificate of either schema that
    certificate_from_json reads hold d, as an instance does; check-psi
    and fit-curve name them by their kind and schema, with exit 2 and one
    line, rather than read them as a broken instance."""
    if schema is None:
        path, what = DATA / "d3.dual-check.json", "a dual-check output"
    else:
        path, what = tmp_path / "cert.json", "a certificate"
        assert run_cli(["verify", "--input", str(DATA / "d3.json"),
                        "--output", str(path)], capsys)[0] == 0
        cert = json.loads(path.read_text())
        path.write_text(json.dumps(dict(cert, schema=schema)))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out, err) == (
        2, "", f"error: {path} is {what}, not an instance or a "
               "configuration\n")


def _unfilled_table(monkeypatch):
    monkeypatch.setattr(BracketTable, "fill", lambda self, wanted=None: self)


def _faulty_build(monkeypatch):
    def build_instance(*args, **kwargs):
        raise KeyError("fault")
    monkeypatch.setattr(staudt, "build_instance", build_instance)


@pytest.mark.parametrize("fault, argv", [
    (_unfilled_table,
     ["check-psi", "--sample", "5", "--input", str(DATA / "d5.json")]),
    (_faulty_build, ["verify", "--input", str(DATA / "d3.json")]),
], ids=["unfilled-table", "faulty-build"])
def test_a_key_error_from_a_fault_is_no_input_error(monkeypatch, fault,
                                                    argv):
    """A KeyError that a fault in the program raises ends in a traceback:
    exit 2 would report it as a key missing from the input.  The faults
    are a bracket read from a table never filled, and a construction that
    raises after its document decoded."""
    fault(monkeypatch)
    with pytest.raises(KeyError, match="fault" if fault is _faulty_build
                       else None):
        main(argv)


@pytest.mark.parametrize("edits, message", [
    (("params", "planes"), "need 8 parameter points, got 7"),
    (("planes", "vertices"), "stored planes must be 8 points of P^3"),
    (("vertices-field", "vertices"),
     "stored vertices are not over the instance's field"),
], ids=["params-then-planes", "planes-then-vertices",
        "field-then-vertices"])
def test_a_document_with_two_faults_is_refused_by_the_first(
        tmp_path, capsys, edits, message):
    """The instance is built before its stored points, planes and
    vertices are checked, in that order, and the vertices' field before
    their shape: of two faults the first refuses the document."""
    obj = json.loads((DATA / "d3.json").read_text())
    for edit in edits:
        if edit == "vertices-field":
            obj["vertices"]["field"] = {"kind": "prime", "p": 101}
        elif edit == "vertices":
            obj["vertices"]["points"] = obj["vertices"]["points"][:7]
        else:
            obj[edit] = obj[edit][:7]
    path = tmp_path / "two-faults.json"
    path.write_text(json.dumps(obj))
    for command in ("verify", "check-psi", "fit-curve", "dual-check"):
        code, out, err = run_cli([command, "--input", str(path)], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_input_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    code, _, err = run_cli(["verify", "--input", str(path)], capsys)
    assert code == 2
    assert "error:" in err


def _zero_denominator(obj):
    obj["params"][0][0] = "1/0"
    return obj


def _points_not_a_list(obj):
    obj["vertices"]["points"] = 5
    return obj


def _param_without_residue(obj):
    obj["params"][0][0] = "1/101"
    return obj


def _not_an_object(obj):
    return 5


def _param_in_p2(obj):
    obj["params"][0].append("1")
    return obj


def _param_row_string(obj):
    # read character by character, "15" would be the parameter [1:5]
    obj["params"][0] = "15"
    return obj


def _degree_string(obj):
    obj["d"] = str(obj["d"])
    return obj


def _degree_float(obj):
    obj["d"] += 0.7
    return obj


def _dim_float(obj):
    obj["vertices"]["dim"] += 0.2
    return obj


def _prime_string(obj):
    obj["field"]["p"] = str(obj["field"]["p"])
    return obj


def _planes_cut_to_seven(obj):
    obj["planes"] = obj["planes"][:7]
    return obj


def _vertices_cut_to_seven(obj):
    obj["vertices"]["points"] = obj["vertices"]["points"][:7]
    return obj


def _vertices_over_another_field(obj):
    obj["vertices"]["field"] = {"kind": "prime", "p": 101}
    return obj


def _points_cut_to_three(obj):
    obj["points"] = obj["points"][:3]
    return obj


def _plane_rows_one_short(obj):
    obj["planes"] = [row[:-1] for row in obj["planes"]]
    return obj


def _vertices_in_a_plane(obj):
    obj["vertices"]["dim"] -= 1
    obj["vertices"]["points"] = [row[:-1] for row in
                                 obj["vertices"]["points"]]
    return obj


def _prime_beyond_the_exact_bound(obj):
    obj["field"]["p"] = 2 ** 89 - 1
    return obj


@pytest.mark.parametrize("field,corrupt", [
    ("rationals", _zero_denominator),
    ("rationals", _points_not_a_list),
    ("prime:101", _param_without_residue),
    ("rationals", _not_an_object),
    ("rationals", _param_in_p2),
    ("rationals", _param_row_string),
    ("rationals", _degree_string),
    ("rationals", _degree_float),
    ("rationals", _dim_float),
    ("prime:101", _prime_string),
    ("rationals", _planes_cut_to_seven),
    ("rationals", _vertices_cut_to_seven),
    ("rationals", _vertices_over_another_field),
    ("rationals", _points_cut_to_three),
    ("rationals", _plane_rows_one_short),
    ("rationals", _vertices_in_a_plane),
    ("prime:101", _prime_beyond_the_exact_bound),
], ids=["param-1-over-0", "points-5", "param-1-over-101-mod-101",
        "not-an-object", "param-in-p2", "param-row-string", "d-string",
        "d-float", "dim-float", "p-string", "planes-7", "vertices-7",
        "vertices-mod-101", "points-3", "plane-rows-short",
        "vertices-in-p4", "p-beyond-psi13"])
@pytest.mark.parametrize("command", [
    "verify", "check-psi", "fit-curve", "dual-check"])
def test_malformed_input_exits_two(tmp_path, capsys, command, field, corrupt):
    """Every input error, a wrong shape included, exits 2 with one line
    and nothing on stdout.  Stored points, planes and vertices must be
    2d+2 points of P^d, the vertices over the instance's field; tampered
    values of the right shape are a verdict instead."""
    path = gen_instance_file(tmp_path, capsys, d=5, extra=("--field", field))
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("seed, spelled", [
    ("7", '"7"'), (1.5, "1.5"), (True, "true")],
    ids=["string", "float", "bool"])
@pytest.mark.parametrize("argv", [
    ["verify"], ["check-psi"], ["fit-curve"], ["dual-check"]],
    ids=["verify", "check-psi", "fit-curve", "dual-check"])
def test_instance_seed_must_be_an_integer(tmp_path, capsys, argv, seed,
                                          spelled):
    """An instance seed is a JSON integer or null; anything else is an input
    error with one line, before a certificate or report is written, that
    spells the value as JSON does."""
    obj = json.loads((DATA / "d3.json").read_text())
    obj["seed"] = seed
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([*argv, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: malformed instance: seed must be a JSON integer "
                   f"or null, got {spelled}\n")


def number_param(obj):
    obj["params"][0][0] = 1


def float_point(obj):
    obj["points"][0][0] = 1.5


def null_vertex(obj):
    obj["vertices"]["points"][0][0] = None


def string_field(obj):
    obj["field"] = "rationals"


@pytest.mark.parametrize("edit,message", [
    (number_param, "malformed instance: scalar must be a JSON string, got 1"),
    (float_point,
     "malformed instance: scalar must be a JSON string, got 1.5"),
    (null_vertex,
     "malformed configuration: scalar must be a JSON string, got null"),
    (string_field,
     'malformed instance: field must be a JSON object, got "rationals"'),
    (lambda obj: [obj], "malformed {}: document must be a JSON object, "
     "got a JSON array"),
], ids=["number-param", "float-point", "null-vertex", "string-field",
        "list-document"])
@pytest.mark.parametrize("command", [
    "verify", "check-psi", "fit-curve", "dual-check"])
def test_wrong_json_types_are_named(tmp_path, capsys, command, edit,
                                    message):
    """A scalar is a JSON string and a field or a document a JSON object;
    any other JSON type is an input error with one line in the package's
    words.  A wrong scalar is spelled as JSON spells it, a wrong document
    named by its type, not echoed; check-psi and fit-curve read a list as a
    bare configuration."""
    obj = json.loads((DATA / "d3.json").read_text())
    obj = edit(obj) or obj
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    document = ("configuration" if command in ("check-psi", "fit-curve")
                else "instance")
    assert err == f"error: {message.format(document)}\n"


@pytest.mark.parametrize("schema", [1, "x", None, []],
                         ids=["int", "string", "null", "list"])
@pytest.mark.parametrize("command", [
    "verify", "check-psi", "fit-curve", "dual-check"])
def test_instance_schema_is_refused_unless_known(tmp_path, capsys, command,
                                                 schema):
    """An instance names its schema, vonstaudt-inst/1, or none at all; any
    other value is an input error with one line, as for a certificate."""
    obj = json.loads((DATA / "d5.json").read_text())
    path = tmp_path / "inst.json"
    obj["schema"] = schema
    path.write_text(json.dumps(obj))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: unknown instance schema {schema!r}\n"
    if command == "fit-curve":  # the quickest command on d5.json
        del obj["schema"]
        path.write_text(json.dumps(obj))
        assert run_cli([command, "--input", str(path)], capsys)[0] == 0


@pytest.mark.parametrize("command", [
    "verify", "check-psi", "fit-curve", "dual-check"])
def test_deeply_nested_json_exits_two(tmp_path, capsys, command):
    """A file too deeply nested for the JSON decoder is an input error,
    not a traceback with the counterexample code."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_large_prime_modulus(tmp_path, capsys):
    """A 61-bit prime, far past trial division, works end to end."""
    path = gen_instance_file(tmp_path, capsys, d=2, extra=(
        "--field", f"prime:{2 ** 61 - 1}"))
    code, _, err = run_cli(["verify", "--castelnuovo", "--input", str(path)],
                           capsys)
    assert code == 0 and err.startswith("verdict=True ")


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "rncgeom.cli",
         "gen-instance", "--d", "2", "--seed", "1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    obj = json.loads(result.stdout)
    assert obj["schema"] == "vonstaudt-inst/1"
    assert instance_from_json(obj) == sample_instance(2, QQ, seed=1)


# ---------------------------------------------------------------------------
# fuzzed instance files

BAD_FRACTIONS = ["1/0", "0/0", "abc", "", " ", "1/", "/2", "1//2", "1/2/3",
                 "--1", "1e400", "nan", "inf", "0x10", "1/101", "½"]
BAD_PRIMES = [0, 1, 2, 3, 4, 7, -7, 100, 101, "101", "x", "", 1.5, None,
              [101], {"p": 101}]
JUNK = [None, True, False, 0, -1, 3, 2 ** 70, 1.5, float("nan"), "", "x",
        "3", [], ["1"], [[]], {}, {"kind": "rationals"}]


def _paths(obj, prefix=()):
    """Every path into the document, containers included."""
    yield prefix
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, prefix + (i,))


def _set(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


@st.composite
def fuzzed_instances(draw):
    obj = json.loads((DATA / "d3.json").read_text())
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(obj) if p]
        kind = draw(st.sampled_from(
            ["delete", "swap-type", "bad-fraction", "bad-prime"]))
        if kind == "bad-prime":
            where = draw(st.sampled_from([("field",), ("vertices", "field")]))
            value = {"kind": "prime",
                     "p": copy.deepcopy(draw(st.sampled_from(BAD_PRIMES)))}
            try:
                _set(obj, where, value)
            except (KeyError, IndexError, TypeError):
                pass
            continue
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        if kind == "delete":
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        elif kind == "swap-type":
            _set(obj, path, copy.deepcopy(draw(st.sampled_from(JUNK))))
        else:
            _set(obj, path, draw(st.sampled_from(BAD_FRACTIONS)))
    return obj


@settings(max_examples=80)
@given(fuzzed_instances(), st.sampled_from(["verify", "check-psi"]))
def test_fuzzed_instance_exit_contract(obj, command):
    """Whatever the damage, the CLI answers with exit 0, 1 or 2 and no
    traceback; exit 1 always comes with a written verdict, and exit 2 with
    one error line and nothing on stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--input", str(path)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    elif command == "verify":
        cert = json.loads(out)
        assert cert["schema"] == "vonstaudt-cert/2"
        assert cert["verdict"] is (code == 0)
    else:
        reports = [json.loads(line) for line in out.splitlines()]
        assert reports
        assert any(r["value"] != "0" for r in reports) is (code == 1)
