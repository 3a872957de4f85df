"""Output checks behind the benchmark's failure count.

Every check reads the JSON fields a user reads, never a byte digest, so a
later certificate schema carrying the same fields still passes.  A check
returns None when the output is right and a one-line reason otherwise.

The check-psi exactness oracle recomputes both monomials with its own
Fraction determinant from the bracket-equation formula documented in
rncgeom's equations module; it imports nothing from rncgeom.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Optional, Sequence

# Positions, within the sorted sextet I = (i1..i6), of the three labels
# that open each bracket; the d-2 shared labels J \ I follow in increasing
# order.  The equation is
#     |i4 i5 i6 j..| |i2 i3 i6 j..| |i1 i3 i5 j..| |i1 i2 i4 j..|
#   - |i3 i5 i6 j..| |i2 i4 i6 j..| |i1 i4 i5 j..| |i1 i2 i3 j..|
FIRST_MONOMIAL = ((3, 4, 5), (1, 2, 5), (0, 2, 4), (0, 1, 3))
SECOND_MONOMIAL = ((2, 4, 5), (1, 3, 5), (0, 3, 4), (0, 1, 2))


# ---------------------------------------------------------------------------
# exactness oracle


def fraction_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return det


def canonical_points(instance: dict) -> list[list[Fraction]]:
    """The instance file's vertex coordinates, each scaled so its first
    nonzero coordinate is 1 (the form every bracket is taken in)."""
    if instance["vertices"]["field"]["kind"] != "rationals":
        raise ValueError("the exactness oracle works over the rationals")
    points = []
    for row in instance["vertices"]["points"]:
        vals = [Fraction(x) for x in row]
        lead = next(v for v in vals if v)
        points.append([v / lead for v in vals])
    return points


def monomials(points: Sequence[Sequence[Fraction]], support: Sequence[int],
              sextet: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Both monomials of one equation, each bracket a determinant of the
    points as columns in written order (labels are 1-based)."""
    shared = [j for j in support if j not in sextet]

    def product(triples):
        total = Fraction(1)
        for triple in triples:
            cols = [points[sextet[p] - 1] for p in triple]
            cols += [points[j - 1] for j in shared]
            k = len(cols)
            total *= fraction_det([[cols[j][i] for j in range(k)]
                                   for i in range(k)])
        return total

    return product(FIRST_MONOMIAL), product(SECOND_MONOMIAL)


# ---------------------------------------------------------------------------
# per-command checks


def _expect_exit(rc: int, tampered: bool) -> Optional[str]:
    want = 1 if tampered else 0
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_verify(rc: int, out: str, *, psi_total: int, castelnuovo: bool,
                 tampered_label: Optional[int] = None) -> Optional[str]:
    """A verify certificate: honest instances pass outright; a tampered one
    fails, and only equations whose support holds the tampered label."""
    try:
        cert = json.loads(out)
    except ValueError:
        cert = None
    if not isinstance(cert, dict):
        return "stdout is not one JSON object"
    tampered = tampered_label is not None
    problem = _expect_exit(rc, tampered)
    if problem:
        return problem
    if cert.get("psi_total") != psi_total:
        return f"psi_total {cert.get('psi_total')}, expected {psi_total}"
    failures = cert.get("psi_failures")
    if not isinstance(failures, list):
        return "psi_failures missing"
    if not tampered:
        if cert.get("verdict") is not True:
            return "honest instance without a true verdict"
        if failures:
            return f"{len(failures)} psi failures on an honest instance"
        if castelnuovo and cert.get("castelnuovo_ok") is not True:
            return "castelnuovo_ok is not true"
        return None
    if cert.get("verdict") is not False:
        return "tampered instance without a false verdict"
    if not failures:
        return "no psi failures on a tampered instance"
    if any(not isinstance(f, dict) or tampered_label not in f.get("J", ())
           for f in failures):
        return f"a psi failure avoids the tampered label {tampered_label}"
    return None


def check_psi_lines(rc: int, out: str, *, count: int,
                    points: Sequence[Sequence[Fraction]],
                    tampered_label: Optional[int] = None,
                    spot: int = 8, spot_seed: int = 0) -> Optional[str]:
    """check-psi JSON lines: the count, value = m1 - m2 on every line,
    nonzero values only where the support holds the tampered label, and an
    exact recomputation of m1 and m2 on a seeded handful of lines."""
    tampered = tampered_label is not None
    problem = _expect_exit(rc, tampered)
    if problem:
        return problem
    lines = out.splitlines()
    if len(lines) != count:
        return f"{len(lines)} lines, expected {count}"
    try:
        records = [json.loads(line) for line in lines]
        nonzero = 0
        for i, rec in enumerate(records):
            # reduced fractions print uniquely, so a zero value needs
            # equal strings; only nonzero values are parsed
            if rec["value"] == "0":
                if rec["m1"] != rec["m2"]:
                    return f"line {i + 1}: value 0 but m1 != m2"
                continue
            if (Fraction(rec["m1"]) - Fraction(rec["m2"])
                    != Fraction(rec["value"])):
                return f"line {i + 1}: value is not m1 - m2"
            if not tampered or tampered_label not in rec["J"]:
                return f"line {i + 1}: nonzero value {rec['value']}"
            nonzero += 1
        if tampered and not nonzero:
            return "no nonzero value on a tampered instance"
        for i in random.Random(spot_seed).sample(range(count),
                                                 min(spot, count)):
            rec = records[i]
            m1, m2 = monomials(points, rec["J"], rec["I"])
            if (str(m1), str(m2)) != (rec["m1"], rec["m2"]):
                return f"line {i + 1}: m1/m2 differ from the exact " \
                       "recomputation"
    except (ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        return f"malformed line: {exc!r}"
    return None


def check_records(rc: int, out: str, *, count: int,
                  kind: str) -> Optional[str]:
    """Symbolic JSON lines: the requested number of records, all ok."""
    problem = _expect_exit(rc, False)
    if problem:
        return problem
    lines = out.splitlines()
    if len(lines) != count:
        return f"{len(lines)} records, expected {count}"
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except ValueError:
            return f"record {i + 1} is not JSON"
        if (not isinstance(rec, dict) or rec.get("kind") != kind
                or rec.get("ok") is not True):
            return f"record {i + 1} is not an ok {kind} record"
    return None


# ---------------------------------------------------------------------------
# tampering


def tamper(instance: dict, label: int, coord: int, delta: int) -> dict:
    """A copy of the instance with one vertex coordinate shifted by delta,
    so that vertex leaves the curve through the others."""
    out = json.loads(json.dumps(instance))
    field = out["vertices"]["field"]
    row = out["vertices"]["points"][label - 1]
    if field["kind"] == "rationals":
        row[coord] = str(Fraction(row[coord]) + delta)
    else:
        row[coord] = str((int(row[coord]) + delta) % field["p"])
    return out
