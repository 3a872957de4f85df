"""The README's examples, checked against the code.

Each `$ rncgeom ...` line of a ```sh block is run in process, in one
scratch directory per test, and its stdout then stderr must match the
lines shown under it; a shown line `...` matches any run of lines, and
`| tail -N` keeps the last N lines of stdout only.  The ```python blocks
run in order in one namespace, and an expression followed by a comment
must print as the comment's claim: the text before any `:`, the printed
value alone or followed by words of prose.
"""

import ast
import io
import re
import shlex
import tokenize
from pathlib import Path

import pytest

from rncgeom.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text(
    encoding="utf-8")


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)


def shell_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) for every `$ rncgeom` line."""
    out = []
    for block in fenced_blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.rstrip("\n").split("\n")
            while shown and not shown[-1]:
                shown.pop()
            if command.startswith("rncgeom "):
                out.append((command, shown))
    return out


SHELL = shell_examples()


def matches(shown: list[str], lines: list[str]) -> bool:
    if not shown:
        return not lines
    if shown[0].strip() == "...":
        return any(matches(shown[1:], lines[i:])
                   for i in range(len(lines) + 1))
    return bool(lines) and shown[0] == lines[0] \
        and matches(shown[1:], lines[1:])


def run(command: str, capsys) -> tuple[int, list[str]]:
    """Exit code and the lines a terminal shows for one README command."""
    command, _, pipe = command.partition(" | ")
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    stdout = captured.out.splitlines()
    if not pipe:
        return code, stdout + captured.err.splitlines()
    keep = re.fullmatch(r"tail -(\d+)", pipe)
    assert keep, f"unsupported pipe {pipe!r}"
    return code, stdout[-int(keep.group(1)):]


def test_readme_shows_the_round_trip():
    assert [command.split()[1] for command, _ in SHELL] == [
        "gen-instance", "verify", "check-psi", "sym-psi",
        "sym-factorization", "dual-check"]


@pytest.mark.parametrize("at", range(len(SHELL)),
                         ids=[command for command, _ in SHELL])
def test_shell_example_matches_the_code(at, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, _ in SHELL[:at]:   # the files the example reads
        if "--output" in command:
            assert run(command, capsys)[0] == 0, command
    command, shown = SHELL[at]
    code, lines = run(command, capsys)
    assert code == 0
    assert matches(shown, lines), "\n".join(lines)


def claims(block: str) -> dict[int, str]:
    """Line number to the comment on that line."""
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    return {tok.start[0]: tok.string[1:].strip() for tok in tokens
            if tok.type == tokenize.COMMENT}


def test_python_examples_print_what_they_claim():
    namespace: dict = {}
    checked = []
    for block in fenced_blocks("python"):
        comments = claims(block)
        for stmt in ast.parse(block).body:
            claim = comments.get(stmt.lineno)
            code = ast.unparse(stmt)
            if claim is None or not isinstance(stmt, ast.Expr):
                exec(code, namespace)
                continue
            shown = str(eval(code, namespace))
            claim = claim.split(":")[0]
            assert claim == shown or re.fullmatch(
                re.escape(shown) + r" [a-z ]+", claim), (code, shown, claim)
            checked.append(code)
    assert checked == [
        "cert.verdict", "cert.psi_total", "cert.castelnuovo_ok",
        "two_bracket(6, 1, 2)", "split_sign(split)",
        "verify_factorization(split)"]
