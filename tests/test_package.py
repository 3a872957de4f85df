"""Whole-package guards: the standard library only, no worker processes
or threads, one integer kernel for exact linear algebra, polynomials over
Z only, no inverse frame map for curve containment, factorizations by
proof rather than by orbit, and an explicit public API."""

import ast
import dataclasses
import sys
import types
from pathlib import Path

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
    """Containment is decided in frame coordinates, so the curve module
    has no parametrization to map back through, and a fitted model holds
    what model_to_json prints plus its field."""
    import rncgeom.curve

    assert not hasattr(rncgeom.curve, "curve_point")
    assert [f.name for f in dataclasses.fields(rncgeom.curve.RNCModel)] == \
        ["dim", "field", "frame_map", "alphas"]


def test_factorizations_are_proved_not_carried_along_orbits():
    """sym-factorization proves each split by divisibility; the orbit
    route, which expanded one split per orbit and renamed its verdict to
    the rest, stays out."""
    import rncgeom.identities

    assert not hasattr(rncgeom.identities, "FactorizationOrbits")


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
