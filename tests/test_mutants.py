"""A committed mutation check: every fast path and refusal is killed by its
pin.

A mutant names a function of the package, one exact source edit that must
occur once in it, and its pin: a test of this suite, by its node id.  The
edited function is compiled against its module's globals and swapped in
by monkeypatch wherever a module holds it.  The pin runs in process, once
as the code stands, where it must pass, so that a mutant that no longer
applies fails loudly, and once under the mutant, where it must fail.  The
package's caches are cleared around the mutated run, so the mutant
computes what it changes and leaves no entry behind.
"""

import __future__
import importlib
import inspect
import itertools
import random
import sys
import textwrap
from typing import NamedTuple

import pytest

FIXTURES = ("rng", "tmp_path", "capsys", "monkeypatch")
PARAM = type(pytest.param(None))


class Mutant(NamedTuple):
    target: str   # "module:qualname" inside rncgeom
    old: str
    new: str
    pin: str      # "test_module::test_name[case id]", no id if unparametrized


MUTANTS = {
    "walk-pivot-sign": Mutant(
        "projective:_maximal_minors",
        "sgn = -sign if q & 1 else sign", "sgn = sign",
        "test_projective::"
        "test_walk_takes_each_pivot_from_the_first_nonzero_column"),
    "walk-stale-prev": Mutant(
        "projective:_maximal_minors",
        "children.append((head, sgn, pivot, reduced))",
        "children.append((head, sgn, prev, reduced))",
        "test_projective::test_det_matches_sympy[4]"),
    "walk-no-modulus": Mutant(
        "projective:_maximal_minors",
        "yield head + (k,), value % modulus if modulus else value",
        "yield head + (k,), value",
        "test_projective::test_det_matches_sympy_mod_p[3]"),
    "walk-wanted-child-pruned": Mutant(
        "projective:_maximal_minors",
        "level = {cols[:-1] for cols in level}",
        "level = {cols[1:] for cols in level}",
        "test_projective::test_pruned_walk_is_the_full_walk_restricted"
        "[50-vertices-Q]"),
    "walk-zero-subtree-unsorted": Mutant(
        "projective:_maximal_minors",
        "if wanted is None else sorted(", "if wanted is None else list(",
        "test_projective::test_pruned_walk_is_the_full_walk_restricted"
        "[400-dependent-Q]"),
    "json-typed-isinstance": Mutant(
        "errors:json_typed",
        "if type(value) not in types:", "if not isinstance(value, types):",
        "test_staudt::test_certificate_json_refuses_wrong_types"
        "[sample-True]"),
    "json-typed-repr": Mutant(
        "errors:json_typed",
        "json.dumps(value, ensure_ascii=False)", "repr(value)",
        "test_cli::test_instance_seed_must_be_an_integer[verify-bool]"),
    "malformed-missing-key": Mutant(
        "errors:malformed_input",
        'f"malformed {what}: missing key {exc}"', 'f"malformed {what}: {exc}"',
        "test_cli::test_a_missing_key_names_its_document[instance-d]"),
    "verdict-no-equation": Mutant(
        "staudt:_verdict",
        "glp_ok and total >= 1 and not failures", "glp_ok and not failures",
        "test_staudt::test_true_verdict_must_rest_on_passed_checks"
        "[no-equations]"),
    "certificate-repeat": Mutant(
        "staudt:certificate_from_json",
        "len(set(cert.psi_failures)) != failed", "False",
        "test_staudt::test_certificate_counts_are_bounded"),
    "certificate-failure-untyped": Mutant(
        "staudt:certificate_from_json",
        'json_typed(x, "failure", dict)', "x",
        "test_staudt::test_failures_are_objects_of_label_arrays"
        "[failure-array]"),
    "contains-cross-product": Mutant(
        "curve:curve_contains",
        "a2 * b0 - a0 * b2", "a0 * b2 - a2 * b0",
        "test_curve::test_integer_containment_pins_the_scalar_route[3-Q]"),
    "verdicts-split-sign": Mutant(
        "identities:FactorizationProofs.verdicts",
        "split_sign(split) * prod(", "prod(",
        "test_identities::test_proof_route_matches_per_subset_route"
        "[3-filled]"),
    "template-swapped-index": Mutant(
        "equations:_Template.__missing__",
        "for monomial in _monomial_columns(sextet, shared))",
        "for monomial in _monomial_columns(\n"
        "                [sextet[1], sextet[0], *sextet[2:]], shared))",
        "test_equations::test_evaluate_many_matches_vector_oracle[3-F101]"),
    "rows-swapped-index": Mutant(
        "equations:_rows",
        "yield pick, m[a] * m[b] * m[c] * m[e], m[f]",
        "yield pick, m[a] * m[b] * m[e] * m[e], m[f]",
        "test_staudt::test_verify_sampled_instances"),
    "failure-labels-untyped": Mutant(
        "equations:equation_from_json",
        'json_typed(obj["J"], "J", list)', 'obj["J"]',
        "test_staudt::test_failures_are_objects_of_label_arrays[J-number]"),
    "report-lines-unscaled": Mutant(
        "equations:report_lines",
        "scale = (whole // prod(pick(scales))) ** 2",
        "scale = whole // prod(pick(scales))",
        "test_equations::test_check_psi_lines_match_report_json[3-QQ]"),
    "parse-prefix-match": Mutant(
        "fields:Field.parse",
        "_SCALAR.fullmatch(", "_SCALAR.match(",
        "test_fields::test_both_fields_parse_one_grammar['1.0'-QQ]"),
    "field-flag-unicode-digits": Mutant(
        "cli:_integer",
        "text.isascii() and ", "",
        "test_cli::test_field_flag_reads_p_in_ascii_digits[arabic-indic]"),
    "integer-flag-plus": Mutant(
        "cli:_integer",
        'text.removeprefix("-").isdigit()', 'text.lstrip("+-").isdigit()',
        "test_cli::test_integer_flags_read_ascii_digits[--seed-plus]"),
    "instance-told-by-params": Mutant(
        "cli:_load_configuration",
        '("d" in obj or "params" in obj)', '"params" in obj',
        "test_cli::test_a_missing_key_names_its_document[instance-params]"),
    "instance-stored-dim": Mutant(
        "staudt:instance_from_json",
        "len(points) != n or any(p.dim != d for p in points)",
        "len(points) != n",
        "test_cli::test_malformed_input_exits_two[verify-plane-rows-short]"),
    "instance-vertices-field": Mutant(
        "staudt:instance_from_json",
        "if points.field != field:", "if False:",
        "test_cli::test_malformed_input_exits_two[verify-vertices-mod-101]"),
    "construction-unchecked": Mutant(
        "staudt:verify_instance",
        "construction_ok = inst == build_instance(",
        "construction_ok = None is not build_instance(",
        "test_staudt::test_kept_build_is_not_used_for_other_parameters"),
    "format-ratio-unreduced": Mutant(
        "fields:format_ratio",
        "if g == scale:", "if scale == 1:",
        "test_equations::test_format_ratio_matches_fraction"),
    "scalar-denominator-unchecked": Mutant(
        "fields:Field.scalar",
        "if x.denominator % p == 0:", "if False:",
        "test_fields::test_residue_zero_division_raises"),
    "fit-coincident-ratio": Mutant(
        "curve:fit_rnc",
        "if not all(value for _, value in", "if not all(True for _, value in",
        "test_curve::test_fit_ratio_checks_decide_general_position[3-Q]"),
    "verdicts-factor-sign": Mutant(
        "identities:FactorizationProofs.verdicts",
        "prod(i - j for i, j in claimed)", "prod(j - i for i, j in claimed)",
        # a split has C(d+1, 2) factors: the flip shows at d = 2, not 3 or 4
        "test_identities::test_proof_route_matches_per_subset_route"
        "[2-filled]"),
    "verdicts-length-unchecked": Mutant(
        "identities:FactorizationProofs.verdicts",
        "len(claimed) == len(predicted) and {", "{",
        "test_identities::test_proof_route_matches_per_subset_route_under_"
        "mutation[repeat-pair-1-2-and-flip-sign]"),
    "verdicts-pairs-ordered": Mutant(
        "identities:FactorizationProofs.verdicts",
        "1 << i | 1 << j for i, j in claimed} == {\n"
        "            1 << i | 1 << j for i, j in predicted}",
        "(i, j) for i, j in claimed} == {\n"
        "            (i, j) for i, j in predicted}",
        "test_identities::test_proof_route_matches_per_subset_route_under_"
        "mutation[flip-orientation-and-sign]"),
}


def resolve(target: str):
    """The owner (module or class) and attribute name of a target."""
    module, qualname = target.split(":")
    owner = importlib.import_module(f"rncgeom.{module}")
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def mutated(func, old: str, new: str):
    """func recompiled from its source with old replaced by new, against
    the globals of its module and under its lazy annotations, if it has
    them; its decorators are applied again."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (func.__qualname__, old)
    lazy = __future__.annotations.compiler_flag
    code = compile(source.replace(old, new), inspect.getsourcefile(func),
                   "exec", inspect.unwrap(func).__code__.co_flags & lazy)
    namespace = {}
    exec(code, inspect.unwrap(func).__globals__, namespace)
    return namespace[func.__name__]


def swap_in(monkeypatch, owner, name: str, new) -> None:
    """Replace the attribute on its owner, and a function in every module
    that imported it by name, test modules included."""
    old = getattr(owner, name)
    monkeypatch.setattr(owner, name, new)
    if isinstance(owner, type):
        return
    for module in list(sys.modules.values()):
        if module is not owner and getattr(module, "__dict__", {}).get(
                name) is old:
            monkeypatch.setattr(module, name, new)


def clear_caches() -> None:
    """Empty every functools cache of the package."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rncgeom."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def case_arguments(test, case: str) -> dict:
    """The parameters of the parametrized case of test with this id, read
    from its parametrize marks as pytest joins their ids, innermost first:
    each value by its explicit id or the one ids= makes of it, else by
    str() of the value."""
    options = []
    for mark in getattr(test, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names, rows = mark.args[:2]
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",")]
        ids = mark.kwargs.get("ids")
        choice = []
        for i, row in enumerate(rows):
            ident = (ids(row) if callable(ids) else ids[i]) if ids else None
            if isinstance(row, PARAM):
                row, ident = row.values, row.id
            values = row if len(names) > 1 else (row,)
            choice.append((ident or "-".join(map(str, values)),
                           dict(zip(names, values))))
        options.append(choice)
    found = [combo for combo in itertools.product(*options)
             if "-".join(ident for ident, _ in combo) == case]
    assert len(found) == 1, (test.__name__, case, len(found))
    return {k: v for _, args in found[0] for k, v in args.items()}


def run_pin(pin: str, tmp_path, capsys) -> None:
    """Call the pin's test function in process with its case's parameters
    and the fixtures it asks for, fresh for each run."""
    module, _, rest = pin.partition("::")
    name, _, case = rest.partition("[")
    test = getattr(importlib.import_module(module), name)
    kwargs = case_arguments(test, case[:-1]) if case else {}
    wanted = [p for p in inspect.signature(test).parameters if p not in kwargs]
    assert set(wanted) <= set(FIXTURES), (pin, wanted)
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as monkeypatch:
        # the seed of the suite's rng fixture
        fixtures = {"rng": random.Random(20240817), "capsys": capsys,
                    "tmp_path": tmp_path, "monkeypatch": monkeypatch}
        test(**kwargs, **{p: fixtures[p] for p in wanted})


@pytest.mark.parametrize("mutant", MUTANTS.values(), ids=MUTANTS.keys())
def test_the_pin_kills_the_mutant(mutant, tmp_path, capsys):
    owner, name = resolve(mutant.target)
    new = mutated(getattr(owner, name), mutant.old, mutant.new)
    (tmp_path / "as-is").mkdir()
    run_pin(mutant.pin, tmp_path / "as-is", capsys)
    (tmp_path / "mutated").mkdir()
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as monkeypatch:
            swap_in(monkeypatch, owner, name, new)
            run_pin(mutant.pin, tmp_path / "mutated", capsys)
    except (Exception, pytest.fail.Exception):
        return
    finally:
        clear_caches()
    pytest.fail(f"{mutant.pin} passes under the mutant")

