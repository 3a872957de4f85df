"""Whole-package guards: the standard library only, no worker processes
or threads, one integer kernel for exact linear algebra, geometry on
integer vectors with no scalar type of its own, polynomials over Z only,
no inverse frame map for curve containment, instances with no hidden
field, a field that is its characteristic, factorizations by proof
rather than by orbit, sampled equations picked by rank, one walk for
integer minors and a table of them, filled before it is read, only where
they are read again or sampled, no single-use layers or dead surface,
one rule that words a malformed document, an explicit public API, and
modules imported where they are used."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import rncgeom

SOURCES = sorted(Path(rncgeom.__file__).parent.glob("*.py"))
CONCURRENCY = {"multiprocessing", "concurrent", "threading"}


def imported_top_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def named(path: Path) -> set[str]:
    """Every name a source file reads, imports, or defines as a function
    or class."""
    return {node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else node.name
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias,
                                 ast.FunctionDef, ast.ClassDef))}


def test_package_imports_only_the_standard_library():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py"}
    for path in SOURCES:
        outside = {name for name in imported_top_modules(path)
                   if name not in sys.stdlib_module_names
                   and name != "rncgeom"}
        assert not outside, (path.name, outside)


def test_package_starts_no_processes_or_threads():
    for path in SOURCES:
        assert not imported_top_modules(path) & CONCURRENCY, path.name


def test_no_linear_algebra_over_field_scalars():
    """Determinants and ranks run on integer representatives only, through
    the one determinant kernel; the Gauss-Jordan stack over Fraction/Residue
    scalars and a second elimination routine for ranks stay out."""
    import rncgeom.projective

    for name in ("det", "rref", "rank", "mat_inverse", "_rank_int"):
        assert not hasattr(rncgeom.projective, name), name


def test_geometry_runs_on_integer_vectors():
    """Points hold integer vectors, and construction, brackets, the fit and
    containment run on them: no module names a residue class, a union of
    field scalars, or a matrix-vector product over them."""
    for path in SOURCES:
        assert not named(path) & {"Residue", "Scalar", "mat_vec"}, path.name


def test_polynomials_are_over_the_integers_only():
    """MultiPoly keeps the ring operations the package runs; the Fraction
    path, scalar products, powers, hashing and the renaming of points
    that only the orbit route used stay out."""
    import rncgeom.polynomials

    multipoly = rncgeom.polynomials.MultiPoly
    for name in ("scale", "__pow__", "__rmul__", "relabel"):
        assert not hasattr(multipoly, name), name
    assert multipoly.__hash__ is None  # __eq__ with no __hash__ of its own
    path = Path(rncgeom.polynomials.__file__)
    assert "fractions" not in imported_top_modules(path)


def test_curve_containment_needs_no_inverse_frame_map():
    """Containment is decided on brackets against the frame, so the curve
    module has no parametrization to map back through, and a fitted model
    holds the integer brackets whose ratios model_to_json prints (the frame
    map over unit, the alphas as -unit over last), plus its field."""
    import rncgeom.curve

    assert not hasattr(rncgeom.curve, "curve_point")
    assert [f.name for f in dataclasses.fields(rncgeom.curve.RNCModel)] == \
        ["dim", "field", "frame_map", "unit", "last"]


def test_an_instance_holds_only_what_it_declares():
    """An instance is its seven declared fields: no hidden field carries a
    build from the load, so the construction check always compares with
    a fresh build of the parameters."""
    assert [f.name for f in dataclasses.fields(rncgeom.VonStaudtInstance)] \
        == ["d", "field", "params", "curve_points", "planes", "vertices",
            "seed"]


def test_a_field_is_its_characteristic():
    """One field class whose only datum is the characteristic: no module
    names the old rational class or an int coercion beside scalar, asks
    whether a field is Q by comparing it with QQ, or tests for a prime
    field by its type."""
    from rncgeom import fields

    assert [name for name, obj in vars(fields).items()
            if isinstance(obj, type) and obj.__module__ == fields.__name__] \
        == ["Field"]
    assert [f.name for f in dataclasses.fields(fields.Field)] == \
        ["characteristic"]
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not named(path) & {"Rationals", "from_int"}, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                assert not any(isinstance(x, ast.Name) and x.id == "QQ"
                               for x in operands), (path.name, node.lineno)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2):
                kinds = node.args[1]
                kinds = getattr(kinds, "elts", [kinds])
                assert not any(isinstance(x, ast.Name)
                               and x.id == "PrimeField"
                               for x in kinds), (path.name, node.lineno)


def test_factorizations_are_proved_not_carried_along_orbits():
    """sym-factorization proves each split by divisibility; the orbit
    route, which expanded one split per orbit and renamed its verdict to
    the rest, stays out."""
    import rncgeom.identities

    assert not hasattr(rncgeom.identities, "FactorizationOrbits")


def test_no_single_use_layers_or_dead_surface():
    """The curve points, simplex vertices and symbolic vertices call
    linear_product_coeffs directly; the group rule lives in group_others;
    the proof route reads its constants at a fixed point; build_instance
    takes its field from the parameters; and a sign analysis holds what
    the acceptance suite reads."""
    import rncgeom.curve
    import rncgeom.identities
    import rncgeom.projective

    for name in ("veronese_coords", "vertex_coords"):
        assert not hasattr(rncgeom.curve, name), name
    for name in ("group_of", "_evaluation_point"):
        assert not hasattr(rncgeom.identities, name), name
    assert "__getitem__" not in vars(rncgeom.projective.Configuration)
    assert "field" not in inspect.signature(rncgeom.build_instance).parameters
    assert [f.name for f in dataclasses.fields(
        rncgeom.identities.SignAnalysis)] == [
            "parity_sum_1", "parity_sum_2", "case_ok",
            "total_sign_1", "total_sign_2"]


def test_public_api_is_an_explicit_list():
    """__all__ is written out name by name, exports no submodule, and
    every name in it resolves."""
    tree = ast.parse(Path(rncgeom.__file__).read_text(encoding="utf-8"))
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["__all__"]]
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str)
               for e in value.elts)
    assert [e.value for e in value.elts] == rncgeom.__all__
    for name in rncgeom.__all__:
        assert not isinstance(getattr(rncgeom, name), types.ModuleType), name


# run in a fresh interpreter: what each step leaves in sys.modules, what
# dir() lists before any export is read, and each export's home
IMPORT_PROBE = textwrap.dedent("""
    import contextlib, importlib, io, json, sys
    import rncgeom

    def loaded():
        return sorted(m for m in sys.modules if m.startswith("rncgeom."))

    out = {"import rncgeom": loaded(), "dir": dir(rncgeom), "exits": []}
    from rncgeom import cli
    for argv in (["--help"], ["verify", "--help"], ["verify"],
                 ["gen-instance", "--d", "x"]):
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit as exc:
                out["exits"].append(exc.code)
        out[" ".join(argv)] = loaded()
    out["submodule"] = [rncgeom.equations.__name__, loaded()]
    out["homes"] = {}
    for name in rncgeom.__all__:
        value = getattr(rncgeom, name)
        home = importlib.import_module(value.__module__)
        out["homes"][name] = [value.__module__, getattr(home, name) is value]
    out["unknown"] = hasattr(rncgeom, "no_such_export")
    print(json.dumps(out))
""")


def test_exports_and_commands_import_their_modules_when_used():
    """A fresh import of the package imports no submodule, --help and usage
    errors import only cli and errors (no geometry), a submodule read as
    an attribute is imported then, every export is the object of the
    module that defines it, and dir() lists every export before its first
    read."""
    src = str(Path(rncgeom.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    out = json.loads(done.stdout)
    assert out["import rncgeom"] == []
    for argv in ("--help", "verify --help", "verify", "gen-instance --d x"):
        assert out[argv] == ["rncgeom.cli", "rncgeom.errors"], argv
    assert out["exits"] == [0, 0, 2, 2]
    assert set(rncgeom.__all__) <= set(out["dir"])
    assert out["submodule"] == [
        "rncgeom.equations", ["rncgeom.cli", "rncgeom.equations",
                              "rncgeom.errors", "rncgeom.fields",
                              "rncgeom.projective"]]
    # the exports as the package's TYPE_CHECKING imports name them
    tree = ast.parse(Path(rncgeom.__file__).read_text(encoding="utf-8"))
    [block] = [node.body for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "TYPE_CHECKING"]
    homes = {alias.name: [f"rncgeom.{node.module}", True]
             for node in block for alias in node.names}
    assert sorted(homes) == sorted(rncgeom.__all__)
    assert out["homes"] == homes
    assert out["unknown"] is False


def test_cli_reads_no_per_equation_layer():
    """Every command streams its equations a support at a time from
    support_products or equation_products; the per-equation names, and
    the per-equation generator and line formers the support stream
    replaced, stay out of the CLI."""
    tree = ast.parse((Path(rncgeom.__file__).parent / "cli.py").read_text(
        encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    for name in ("sample_equations", "enumerate_equations", "evaluate_many",
                 "EquationReport", "verify_equation_identity",
                 "monomial_products", "report_line", "identity_line"):
        assert name not in imported | used, name


def test_sampled_picks_are_ranks_not_equations():
    """A sampled pick carries its sextet's rank in the support, split from
    the equation's rank by divmod: the package unranks no equation (that
    oracle lives in the tests), and the support stream maps no sextet
    back to its positions."""
    import rncgeom.equations

    [(support, i)] = rncgeom.equations.equation_picks(3, 9, 1, seed=2)
    assert type(support) is tuple and type(i) is int
    for path in SOURCES:
        defined = {node.name for node in ast.walk(ast.parse(
            path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)}
        assert "equation_at" not in defined, path.name
    assert ".index(" not in inspect.getsource(
        rncgeom.equations.support_products)


def test_per_run_tables_are_dicts_that_fill_when_missing():
    """The bracket table is a dict whose named read is the dict read, and
    whose memo scaffolding (a private cache, a compute hook, a
    general-position reader, a back-reference to the configuration) stays
    out: it computes no missing minor, and a minor is read only after a
    fill put it there.  The per-degree memos are cached constructors of
    their dicts; the readers keep no single-use guard or sampling
    options."""
    import rncgeom.equations
    import rncgeom.identities
    from rncgeom.fields import QQ
    from rncgeom.projective import BracketTable, Configuration

    assert issubclass(BracketTable, dict)
    assert BracketTable.minor is dict.__getitem__
    assert "__missing__" not in vars(BracketTable)
    table = Configuration(field=QQ, dim=1, points=(
        rncgeom.param_point(QQ, 0), rncgeom.param_point(QQ, 1))).bracket_table
    for name in ("_compute", "_cache", "all_nonzero", "config"):
        assert not hasattr(table, name), name
    with pytest.raises(KeyError):
        table.minor((1, 2))
    assert table.fill([(1, 2)]) is table
    assert table[(1, 2)] == table.minor((1, 2)) != 0
    assert not hasattr(rncgeom.equations, "check_match")
    assert rncgeom.equations._template.__wrapped__ \
        is rncgeom.equations._Template
    assert rncgeom.identities._factor_table.__wrapped__ \
        is rncgeom.identities._FactorCodes
    assert list(inspect.signature(
        rncgeom.equations.membership).parameters) == ["config"]


def test_integer_minors_have_one_kernel_in_projective():
    """A bracket table holds the minors of one integer matrix and nothing
    about a field; the proof of the factorizations keeps one over its
    vertex rows for a sample; the walk of maximal minors is the one
    determinant, so no module defines a second one, _det_int."""
    from rncgeom.fields import QQ
    from rncgeom.identities import FactorizationProofs
    from rncgeom.projective import BracketTable, Configuration

    assert list(inspect.signature(BracketTable).parameters) == [
        "vectors", "modulus"]
    table = Configuration(field=QQ, dim=1, points=(
        rncgeom.param_point(QQ, 0), rncgeom.param_point(QQ, 1))).bracket_table
    for name in ("field", "scales"):
        assert not hasattr(table, name), name
    for path in SOURCES:
        assert "_det_int" not in named(path), path.name
    assert isinstance(FactorizationProofs(2).table, BracketTable)


def calls_by_scope(path: Path) -> list[tuple[str, str]]:
    """(called name, enclosing class and function names joined by dots)
    for each call in one source file whose callee is a name or an
    attribute."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, (ast.Name, ast.Attribute)):
                out.append((func.id if isinstance(func, ast.Name)
                            else func.attr, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def test_a_bracket_table_is_built_only_where_minors_are_read_again():
    """A reader of each minor once (the small general-position test, the
    fit's coincident-ratio check, a full sym-factorization) reads the walk
    itself: a table is built only for a configuration's brackets, which
    the general-position test and the equations share, and for the
    proof's sampled splits.  It is filled whole by the two readers of
    every bracket, and in part, with the minors its picks read, by each
    sampled reader: sampled equations and the proof's sampled splits."""
    built, filled = set(), set()
    for path in SOURCES:
        for name, scope in calls_by_scope(path):
            if name == "BracketTable":
                built.add(f"{path.stem}.{scope}")
            elif name == "fill":
                filled.add(f"{path.stem}.{scope}")
    assert built == {"projective.Configuration.bracket_table",
                     "identities.FactorizationProofs.__init__"}
    assert filled == {"projective.is_general_linear_position",
                      "equations.equation_products",
                      "equations._sampled_products",
                      "identities.FactorizationProofs.verdicts"}


def function_node(module: str, name: str) -> ast.FunctionDef:
    """The one top-level function of that name in a source module."""
    tree = ast.parse((Path(rncgeom.__file__).parent / module).read_text(
        encoding="utf-8"))
    [node] = [n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == name]
    return node


def test_one_rule_words_a_malformed_document():
    """errors.malformed_input alone words a missing key, so a KeyError from
    a fault ends in a traceback and never poses as a key missing from the
    input: cli.main catches neither KeyError nor json.JSONDecodeError (a
    ValueError, caught as one), and certificate_from_json has no try."""
    for path in SOURCES:
        if path.name != "errors.py":
            assert "missing key" not in path.read_text(encoding="utf-8"), (
                path.name)
    caught = set()
    for node in ast.walk(function_node("cli.py", "main")):
        if isinstance(node, ast.ExceptHandler):
            assert node.type is not None, "a bare except"
            caught |= {ast.unparse(e) for e in (
                node.type.elts if isinstance(node.type, ast.Tuple)
                else [node.type])}
    assert "ValueError" in caught
    assert not caught & {"KeyError", "LookupError", "JSONDecodeError",
                         "json.JSONDecodeError", "Exception",
                         "BaseException"}, caught
    assert not any(isinstance(node, ast.Try) for node in ast.walk(
        function_node("staudt.py", "certificate_from_json")))
