"""The output checks count forged and wrong outputs as failures."""

import json
from fractions import Fraction
from itertools import combinations

import checks
import run
from conftest import ROOT


def conic_instance(ts):
    """A rational instance file whose vertices are the conic points
    (1, t, t^2), so every bracket equation vanishes."""
    return {"vertices": {"field": {"kind": "rationals"}, "dim": 2,
                         "points": [[str(Fraction(1)), str(Fraction(t)),
                                     str(Fraction(t) ** 2)] for t in ts]}}


def psi_lines(points, d, n):
    """check-psi output for the points, computed by the oracle."""
    out = []
    for support in combinations(range(1, n + 1), d + 4):
        for sextet in combinations(support, 6):
            m1, m2 = checks.monomials(points, support, sextet)
            out.append(json.dumps({"J": list(support), "I": list(sextet),
                                   "m1": str(m1), "m2": str(m2),
                                   "value": str(m1 - m2)}))
    return out


def forge(line, **fields):
    rec = json.loads(line)
    rec.update(fields)
    return json.dumps(rec)


def test_forged_true_verdict_on_tampered_instance_fails():
    forged = json.dumps({"schema": "vonstaudt-cert/1", "psi_total": 18480,
                         "psi_zero": 18480, "psi_failures": [],
                         "castelnuovo_ok": True, "verdict": True})
    for rc in (0, 1):
        assert checks.check_verify(rc, forged, psi_total=18480,
                                   castelnuovo=True, tampered_label=4)
    # a true verdict fails even beside failures that hold the label
    failure = {"J": [1, 2, 3, 4, 5, 6, 7, 8, 9], "I": [1, 2, 3, 5, 6, 7]}
    with_failures = json.dumps({"psi_total": 18480,
                                "psi_failures": [failure],
                                "castelnuovo_ok": True, "verdict": True})
    assert checks.check_verify(1, with_failures, psi_total=18480,
                               castelnuovo=True, tampered_label=4)
    honest = checks.check_verify(0, forged, psi_total=18480,
                                 castelnuovo=True)
    assert honest is None


def test_tampered_certificate_failures_must_hold_the_label():
    cert = {"psi_total": 2000, "verdict": False, "castelnuovo_ok": None,
            "psi_failures": [{"J": [1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
                              "I": [1, 2, 3, 4, 5, 6]}]}
    text = json.dumps(cert)
    assert checks.check_verify(1, text, psi_total=2000, castelnuovo=False,
                               tampered_label=3) is None
    assert checks.check_verify(1, text, psi_total=2000, castelnuovo=False,
                               tampered_label=12)
    cert["psi_failures"] = []
    assert checks.check_verify(1, json.dumps(cert), psi_total=2000,
                               castelnuovo=False, tampered_label=3)


def test_wrong_m1_with_zero_value_fails():
    inst = conic_instance([0, 1, 2, 3, -1, Fraction(1, 2), 5])
    points = checks.canonical_points(inst)
    lines = psi_lines(points, 2, 7)
    n = len(lines)
    assert checks.check_psi_lines(0, "\n".join(lines), count=n,
                                  points=points) is None
    rec = json.loads(lines[3])
    wrong = str(Fraction(rec["m1"]) + 1)
    # m1 alone wrong: value "0" no longer matches m1 - m2 (no spot check)
    bad = lines[:3] + [forge(lines[3], m1=wrong)] + lines[4:]
    assert checks.check_psi_lines(0, "\n".join(bad), count=n, points=points,
                                  spot=0)
    # m1 and m2 both wrong and consistent: the exact recomputation differs
    bad = lines[:3] + [forge(lines[3], m1=wrong, m2=wrong)] + lines[4:]
    assert checks.check_psi_lines(0, "\n".join(bad), count=n, points=points,
                                  spot=0) is None
    assert checks.check_psi_lines(0, "\n".join(bad), count=n, points=points,
                                  spot=n)


def test_check_psi_accepts_the_real_program_output(tmp_path):
    """The oracle agrees with rncgeom on honest and tampered instances."""
    inst_path = tmp_path / "inst.json"
    res = run.run_cli(ROOT, ["gen-instance", "--d", "3", "--seed", "5",
                             "--output", str(inst_path)], tmp_path / "g.out")
    assert res["rc"] == 0
    inst = json.loads(inst_path.read_text())
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(checks.tamper(inst, 2, 0, 3)))
    for path, label in ((inst_path, None), (bad_path, 2)):
        out = tmp_path / "psi.out"
        res = run.run_cli(ROOT, ["check-psi", "--input", str(path)], out)
        points = checks.canonical_points(json.loads(path.read_text()))
        assert checks.check_psi_lines(res["rc"], out.read_text(), count=56,
                                      points=points, tampered_label=label,
                                      spot=56) is None
