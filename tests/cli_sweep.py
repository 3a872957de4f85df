"""Run the CLI under two source trees and compare the runs byte for byte.

    python tests/cli_sweep.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories holding the ``rncgeom`` package,
such as the ``src`` of a ``git archive`` of a base commit and the working
tree's ``src``.  Each run is ``python -m rncgeom.cli ...`` with one tree
alone on PYTHONPATH, in a temporary directory that holds the inputs; a run
is identical when its stdout, stderr and exit code are the same under
both trees.  Prints "N of M identical" and then each differing command,
and exits 1 if any run differs.

The runs cover every subcommand: ``gen-instance`` on valid and invalid
fields, each reading command on two fresh d=4 instances (over Q and
Z/101) and on every ``tests/data/*.json``, ``verify`` on three edited
instances (a decimal parameter over Q and over Z/101, a field with p=4),
``dual-check`` over three fields and the two symbolic commands.  The file
is not a pytest module: it compares two trees rather than testing one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
FIELDS = ["rationals", "prime:7", "prime:11", "prime:101"]
BAD_FIELDS = ["prime:0", "prime:1", "prime:4", "prime:abc",
              "prime:3317044064679887385961981"]
READERS = [["verify"], ["verify", "--castelnuovo"],
           ["verify", "--sample", "7", "--seed", "3"], ["check-psi"],
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
    edit(obj)
    target.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return target.name


def decimal_param(obj: dict) -> None:
    """The first parameter's first coordinate, 1, written as 1.0."""
    obj["params"][0][0] = "1.0"


def field_p4(obj: dict) -> None:
    obj["field"]["p"] = 4


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
            differing.append(" ".join(argv))
        return before

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
    for name in (
            edited(work / "fresh-d4.json", work / "decimal-q.json",
                   decimal_param),
            edited(work / "fresh-d4-mod101.json",
                   work / "decimal-mod101.json", decimal_param),
            edited(work / "fresh-d4-mod101.json", work / "field-p4.json",
                   field_p4)):
        compare(["verify", "--input", name])
    for field in ("rationals", "prime:11", "prime:101"):
        compare(["dual-check", "--d", "3", "--field", field])
    compare(["sym-factorization", "--d", "3"])
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
