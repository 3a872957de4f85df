"""Run the CLI under two source trees and compare the runs byte for byte.

    python tests/cli_sweep.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories holding the ``rncgeom`` package,
such as the ``src`` of a ``git archive`` of a base commit and the working
tree's ``src``.  Each run is ``python -m rncgeom.cli ...`` with one tree
alone on PYTHONPATH, in a temporary directory that holds the inputs; a run
is identical when its stdout, stderr and exit code are the same under
both trees.  Prints "N of M identical" and then each differing command,
quoted as a shell would read it, and exits 1 if any run differs.

The runs cover the help of the program and of ``verify``, a usage error
(``verify`` without ``--input``) and every subcommand: ``gen-instance``
on valid fields and on invalid ones (p not prime, too large, or not
ASCII digits), each reading
command (``verify`` whole, with ``--castelnuovo`` and sampled;
``check-psi`` whole and sampled; ``fit-curve``; ``dual-check``) on two
fresh d=4 instances (over Q and Z/101) and on every ``tests/data/*.json``,
``check-psi`` and ``fit-curve`` on a certificate that ``verify`` wrote,
``verify`` on three edited instances (a decimal parameter over Q and over
Z/101, a field with p=4), ``verify`` and ``check-psi`` on three of the
wrong JSON type (a number parameter coordinate, a string field and a list
document) and on four missing a key (an instance without ``d``, one
without ``params``, which ``fit-curve`` reads too, a Z/101 field without
``p``, a bare configuration without ``dim``), ``dual-check`` over three
fields, ``sym-factorization`` whole and sampled, and a sampled
``sym-psi``.  Each integer flag (``--seed``, ``--height`` and ``--d`` of
``gen-instance``, ``--sample`` of ``verify``, ``--n`` of ``check-psi``)
is given text that is no optional ``-`` and ASCII digits; ``--seed -3``
is given too.  The sampled ``check-psi`` and
``sym-factorization`` runs read their minors from walks pruned to them.
The file is not a pytest module: it compares two trees rather than
testing one.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
FIELDS = ["rationals", "prime:7", "prime:11", "prime:101"]
BAD_FIELDS = ["prime:0", "prime:1", "prime:4", "prime:abc", "prime:1.5",
              "prime:\u0667", "prime:1_01",
              "prime:3317044064679887385961981"]
BAD_INTEGERS = ["\u0667", "+3", "1_0", " 3", "0x10", ""]
READERS = [["verify"], ["verify", "--castelnuovo"],
           ["verify", "--sample", "7", "--seed", "3"], ["check-psi"],
           ["check-psi", "--sample", "50", "--seed", "3"],
           ["fit-curve"], ["dual-check"]]
FRESH = {"fresh-d4.json": [],
         "fresh-d4-mod101.json": ["--field", "prime:101"]}


def run(tree: Path, argv: list[str], cwd: Path) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=str(tree))
    done = subprocess.run([sys.executable, "-m", "rncgeom.cli", *argv],
                          cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=600)
    return done.stdout, done.stderr, done.returncode


def edited(source: Path, target: Path, edit) -> str:
    obj = json.loads(source.read_text(encoding="utf-8"))
    obj = edit(obj) or obj
    target.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return target.name


def decimal_param(obj: dict) -> None:
    """The first parameter's first coordinate, 1, written as 1.0."""
    obj["params"][0][0] = "1.0"


def field_p4(obj: dict) -> None:
    obj["field"]["p"] = 4


def number_param(obj: dict) -> None:
    """The first parameter's first coordinate, 1, written as a number."""
    obj["params"][0][0] = 1


def string_field(obj: dict) -> None:
    obj["field"] = "rationals"


def list_document(obj: dict) -> list:
    return [obj]


def without_d(obj: dict) -> None:
    del obj["d"]


def without_params(obj: dict) -> None:
    del obj["params"]


def without_p(obj: dict) -> None:
    del obj["field"]["p"]


def bare_without_dim(obj: dict) -> dict:
    """The instance's vertices alone, a bare configuration, without "dim"."""
    del obj["vertices"]["dim"]
    return obj["vertices"]


def sweep(base: Path, change: Path, work: Path) -> tuple[int, list[str]]:
    """Run every command under both trees; the count of runs and the
    commands whose runs differ."""
    differing: list[str] = []
    count = 0

    def compare(argv: list[str]) -> tuple[bytes, bytes, int]:
        nonlocal count
        count += 1
        before = run(base, argv, work)
        if run(change, argv, work) != before:
            differing.append(shlex.join(argv))
        return before

    for argv in (["--help"], ["verify", "--help"], ["verify"]):
        compare(argv)
    for d in ("2", "3"):
        for field in FIELDS + BAD_FIELDS:
            compare(["gen-instance", "--d", d, "--field", field])
    for name, extra in FRESH.items():
        out, _, _ = compare(["gen-instance", "--d", "4", "--seed", "5",
                             *extra])
        (work / name).write_bytes(out)
    data = sorted(DATA.glob("*.json"))
    for path in data:
        shutil.copy(path, work)
    for name in [*FRESH, *(path.name for path in data)]:
        for command in READERS:
            compare([*command, "--input", name])
    certificate, _, _ = run(base, ["verify", "--input", "d3.json"], work)
    (work / "d3.certificate.json").write_bytes(certificate)
    for command in ("check-psi", "fit-curve"):
        compare([command, "--input", "d3.certificate.json"])
    for name in (
            edited(work / "fresh-d4.json", work / "decimal-q.json",
                   decimal_param),
            edited(work / "fresh-d4-mod101.json",
                   work / "decimal-mod101.json", decimal_param),
            edited(work / "fresh-d4-mod101.json", work / "field-p4.json",
                   field_p4)):
        compare(["verify", "--input", name])
    for name in (
            edited(work / "fresh-d4.json", work / "number-param.json",
                   number_param),
            edited(work / "fresh-d4.json", work / "string-field.json",
                   string_field),
            edited(work / "fresh-d4.json", work / "list-document.json",
                   list_document),
            edited(work / "fresh-d4.json", work / "without-d.json",
                   without_d),
            edited(work / "fresh-d4.json", work / "without-params.json",
                   without_params),
            edited(work / "fresh-d4-mod101.json", work / "without-p.json",
                   without_p),
            edited(work / "fresh-d4.json", work / "bare-without-dim.json",
                   bare_without_dim)):
        for command in ("verify", "check-psi"):
            compare([command, "--input", name])
    compare(["fit-curve", "--input", "without-params.json"])
    for text in BAD_INTEGERS:
        for argv in (["gen-instance", "--d", "2", "--seed"],
                     ["gen-instance", "--d", "2", "--height"],
                     ["gen-instance", "--d"],
                     ["verify", "--input", "fresh-d4.json", "--sample"],
                     ["check-psi", "--input", "fresh-d4.json", "--n"]):
            compare([*argv, text])
    compare(["gen-instance", "--d", "2", "--seed", "-3"])
    for field in ("rationals", "prime:11", "prime:101"):
        compare(["dual-check", "--d", "3", "--field", field])
    compare(["sym-factorization", "--d", "3"])
    compare(["sym-factorization", "--d", "4", "--sample", "30", "--seed", "2"])
    compare(["sym-psi", "--d", "3", "--sample", "20"])
    return count, differing


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    base, change = (Path(arg).resolve() for arg in argv)
    with tempfile.TemporaryDirectory() as work:
        count, differing = sweep(base, change, Path(work))
    print(f"{count - len(differing)} of {count} identical")
    for command in differing:
        print(f"differs: {command}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
