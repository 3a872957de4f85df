"""Command-line front end.

Structured results go to standard output as JSON (one object, or JSON
lines for report streams); human-readable summaries go to standard error.
Exit codes: 0 for a true verdict or successful computation, 1 for a false
verdict, 2 for usage or input errors.

Output is deterministic: identical command, flags and seed produce
byte-identical JSON.  The symbolic commands' --jobs workers change only
the speed, as their records come back in enumeration order.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import sys
from functools import partial
from math import ceil
from typing import Optional

from .curve import curve_contains, fit_rnc, model_to_json
from .equations import (
    count_equations,
    enumerate_equations,
    evaluate_many,
    report_to_json,
    sample_equations,
)
from .errors import DegenerateInputError
from .fields import QQ, Field, PrimeField, field_to_json
from .identities import (
    SubsetSplit,
    factorization_record,
    identity_record,
    verify_equation_identity,
    verify_factorization,
)
from .projective import Configuration, config_from_json
from .staudt import (
    certificate_to_json,
    dual_configuration,
    instance_from_json,
    instance_to_json,
    sample_instance,
    verify_instance,
)


def _field_flag(text: str) -> Field:
    if text == "rationals":
        return QQ
    if text.startswith("prime:"):
        try:
            return PrimeField(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r}; use 'rationals' or 'prime:p'")


def _at_least_one(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _field_label(field: Field) -> str:
    return "rationals" if field == QQ else f"prime:{field.p}"


def _write_text(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(obj, output: Optional[str]) -> None:
    _write_text(json.dumps(obj, indent=2) + "\n", output)


def _write_lines(objs, output: Optional[str]) -> None:
    _write_text("".join(json.dumps(o) + "\n" for o in objs), output)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parallel symbolic checks


def _check_one(kind: str, item) -> dict:
    """The record for one subset split (kind "factorization") or one
    equation identity (kind is the sym-psi method)."""
    if kind == "factorization":
        return factorization_record(item, verify_factorization(item))
    return identity_record(item, verify_equation_identity(item, kind))


def _parallel_checks(kind: str, items: list, jobs: int) -> list:
    """Records in the order of items; each worker gets one contiguous
    chunk."""
    check = partial(_check_one, kind)
    if jobs <= 1 or len(items) <= 1:
        return [check(item) for item in items]
    with multiprocessing.Pool(min(jobs, len(items))) as pool:
        return pool.map(check, items, chunksize=ceil(len(items) / jobs))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_instance(args) -> int:
    inst = sample_instance(args.d, args.field, seed=args.seed,
                           height=args.height)
    _write_json(instance_to_json(inst), args.output)
    _note(f"instance d={args.d} n={2 * args.d + 2} "
          f"field={_field_label(args.field)} seed={args.seed} "
          f"height={args.height}")
    return 0


def _cmd_verify(args) -> int:
    inst = instance_from_json(_load_json(args.input))
    cert = verify_instance(
        inst, with_castelnuovo=args.castelnuovo, sample=args.sample,
        sample_seed=args.seed)
    _write_json(certificate_to_json(cert), args.output)
    cast = "skipped" if cert.castelnuovo_ok is None else cert.castelnuovo_ok
    _note(f"verdict={cert.verdict} glp={cert.glp_ok} "
          f"psi={cert.psi_zero}/{cert.psi_total} castelnuovo={cast}")
    return 0 if cert.verdict else 1


def _load_configuration(path: str) -> Configuration:
    obj = _load_json(path)
    if "params" in obj:
        return instance_from_json(obj).vertices
    return config_from_json(obj)


def _cmd_check_psi(args) -> int:
    config = _load_configuration(args.input)
    if args.n is not None and len(config) != args.n:
        raise ValueError(
            f"configuration has {len(config)} points, --n said {args.n}")
    d, n = config.dim, len(config)
    if args.sample is None:
        eqs = list(enumerate_equations(d, n))
    else:
        eqs = sample_equations(d, n, args.sample, args.seed)
    reports = evaluate_many(config, eqs)
    _write_lines(
        (report_to_json(r, config.field) for r in reports), args.output)
    nonzero = sum(1 for r in reports if r.value)
    _note(f"equations={len(reports)} nonzero={nonzero} "
          f"member={nonzero == 0}")
    return 0 if nonzero == 0 else 1


def _cmd_fit_curve(args) -> int:
    config = _load_configuration(args.input)
    d = config.dim
    if len(config) < d + 3:
        raise ValueError(
            f"fitting in P^{d} needs at least {d + 3} points")
    head = Configuration(field=config.field, dim=d,
                         points=config.points[:d + 3])
    try:
        model = fit_rnc(head)
    except DegenerateInputError as exc:
        _write_json({"kind": "fit-curve", "ok": False, "error": str(exc)},
                    args.output)
        _note(f"fit failed: {exc}")
        return 1
    contained = [curve_contains(model, p) is not None
                 for p in config.points[d + 3:]]
    _write_json({
        "kind": "fit-curve",
        "ok": True,
        "field": field_to_json(config.field),
        "model": model_to_json(model),
        "contained": contained,
    }, args.output)
    _note(f"fitted degree-{d} curve through {d + 3} points; "
          f"{sum(contained)}/{len(contained)} extra points contained")
    return 0 if all(contained) else 1


def _all_splits(d: int) -> list[SubsetSplit]:
    from itertools import combinations

    return [SubsetSplit(d, members)
            for members in combinations(range(1, 2 * d + 3), d + 1)]


def _cmd_sym_factorization(args) -> int:
    splits = _all_splits(args.d)
    if args.sample is not None and args.sample < len(splits):
        picks = sorted(random.Random(args.seed).sample(
            range(len(splits)), args.sample))
        splits = [splits[i] for i in picks]
    records = _parallel_checks("factorization", splits, args.jobs)
    _write_lines(records, args.output)
    bad = sum(1 for r in records if not r["ok"])
    _note(f"subsets={len(records)} failed={bad}")
    return 0 if bad == 0 else 1


def _cmd_sym_psi(args) -> int:
    d = args.d
    n = 2 * d + 2
    if args.sample is not None and args.sample < count_equations(d, n):
        eqs = sample_equations(d, n, args.sample, args.seed)
    else:
        eqs = list(enumerate_equations(d, n))
    records = _parallel_checks(args.method, eqs, args.jobs)
    _write_lines(records, args.output)
    bad = sum(1 for r in records if not r["ok"])
    _note(f"identities={len(records)} method={args.method} failed={bad}")
    return 0 if bad == 0 else 1


def _cmd_dual_check(args) -> int:
    if args.input is not None:
        inst = instance_from_json(_load_json(args.input))
    elif args.d is not None:
        inst = sample_instance(args.d, args.field, seed=args.seed,
                               height=args.height)
    else:
        raise ValueError("dual-check needs --input or --d")
    dual = dual_configuration(inst)
    from .projective import is_general_linear_position
    from .equations import membership

    glp = is_general_linear_position(dual)
    member = membership(dual).member if glp else None
    on_rnc = bool(glp and member)
    _write_json({
        "kind": "dual-check",
        "d": inst.d,
        "field": field_to_json(inst.field),
        "seed": inst.seed,
        "glp": glp,
        "member": member,
        "on_rnc": on_rnc,
    }, args.output)
    _note(f"dual on_rnc={on_rnc} glp={glp} member={member}")
    return 0 if on_rnc else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, *, seed=False, field=False, height=False, sample=False,
                jobs=False, inp=False, out=True):
    if seed:
        sub.add_argument("--seed", type=int, default=0,
                         help="random seed (default 0)")
    if field:
        sub.add_argument("--field", type=_field_flag, default=QQ,
                         help="rationals or prime:p (default rationals)")
    if height:
        sub.add_argument("--height", type=int, default=20,
                         help="bound on sampled numerators/denominators")
    if sample:
        sub.add_argument("--sample", type=_at_least_one, default=None,
                         help="evaluate a seeded sample of this size "
                              "instead of everything")
    if jobs:
        sub.add_argument("--jobs", type=int,
                         default=os.cpu_count() or 1,
                         help="parallel workers (default: all cores)")
    if inp:
        sub.add_argument("--input", required=True, help="input JSON file")
    if out:
        sub.add_argument("--output", default=None,
                         help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rncgeom",
        description="Exact construction and verification of point "
                    "configurations on rational normal curves.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-instance",
                        help="sample an instance and print its JSON")
    p.add_argument("--d", type=int, required=True, help="curve degree")
    _add_common(p, seed=True, field=True, height=True)
    p.set_defaults(func=_cmd_gen_instance)

    p = subs.add_parser("verify",
                        help="certify that an instance's vertices lie on "
                             "a rational normal curve")
    _add_common(p, seed=True, sample=True, inp=True)
    p.add_argument("--castelnuovo", action="store_true",
                   help="also fit a curve through d+3 vertices and test "
                        "the rest for containment")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("check-psi",
                        help="evaluate the bracket equations of a "
                             "configuration, one JSON line each")
    p.add_argument("--n", type=int, default=None,
                   help="assert the configuration has this many points")
    _add_common(p, seed=True, sample=True, inp=True)
    p.set_defaults(func=_cmd_check_psi)

    p = subs.add_parser("fit-curve",
                        help="fit the curve through the first d+3 points "
                             "and test any remaining points")
    _add_common(p, inp=True)
    p.set_defaults(func=_cmd_fit_curve)

    p = subs.add_parser("sym-factorization",
                        help="expand the symbolic vertex brackets and "
                             "check their factorizations")
    p.add_argument("--d", type=int, required=True, help="curve degree")
    _add_common(p, seed=True, sample=True, jobs=True)
    p.set_defaults(func=_cmd_sym_factorization)

    p = subs.add_parser("sym-psi",
                        help="check that each equation vanishes "
                             "identically on the symbolic vertices")
    p.add_argument("--d", type=int, required=True, help="curve degree")
    p.add_argument("--method", choices=("auto", "factors", "expand"),
                   default="auto",
                   help="factor-multiset route or full expansion")
    _add_common(p, seed=True, sample=True, jobs=True)
    p.set_defaults(func=_cmd_sym_psi)

    p = subs.add_parser("dual-check",
                        help="check that the osculating hyperplane "
                             "coefficients lie on a rational normal curve")
    p.add_argument("--input", default=None, help="instance JSON file")
    p.add_argument("--d", type=int, default=None,
                   help="sample an instance instead of reading one")
    _add_common(p, seed=True, field=True, height=True)
    p.set_defaults(func=_cmd_dual_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: input is missing key {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
