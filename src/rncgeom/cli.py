"""Command-line front end.

Structured results go to standard output as JSON (one object, or JSON
lines for report streams); human-readable summaries go to standard error.
Exit codes: 0 for a true verdict or successful computation, 1 for a false
verdict, 2 for usage or input errors or a computation too big to finish.

Output is deterministic: identical command, flags and seed produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import comb
from typing import Optional

from .curve import fit_and_test, model_to_json
from .equations import (
    _unrank_combination,
    equation_picks,
    equation_products,
    membership,
    report_lines,
    sample_ranks,
    support_products,
)
from .errors import DegenerateInputError
from .fields import QQ, Field, PrimeField, field_to_json
from .identities import (
    FactorizationProofs,
    factorization_record,
    identity_minor,
    require_degree,
)
from .projective import (
    Configuration,
    config_from_json,
    is_general_linear_position,
)
from .staudt import (
    certificate_text,
    dual_configuration,
    instance_from_json,
    instance_to_json,
    sample_instance,
    verify_instance,
)


def _integer(text: str, name: str = "") -> int:
    """[-]n in ASCII digits, as the input files write integers; int() also
    reads '+3', ' 3', '1_0' and other scripts' digits."""
    if text.isascii() and text.removeprefix("-").isdigit():
        try:
            return int(text)
        except ValueError as exc:  # more digits than int() converts
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"{name}must be [-]n in ASCII digits, got {text!r}")


def _at_least_one(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _field_flag(text: str) -> Field:
    if text == "rationals":
        return QQ
    if text.startswith("prime:"):
        p = text.removeprefix("prime:")
        try:
            return PrimeField(_integer(p, "p in prime:p "))
        except ValueError as exc:  # PrimeField's refusal
            raise argparse.ArgumentTypeError(str(exc)) from None
    raise argparse.ArgumentTypeError(
        f"unknown field {text!r}; use 'rationals' or 'prime:p'")


def _field_label(field: Field) -> str:
    p = field.characteristic
    return f"prime:{p}" if p else "rationals"


@contextmanager
def _output_stream(output: Optional[str]):
    """Standard output, or the named file opened for writing."""
    if output is None:
        yield sys.stdout
    else:
        with open(output, "w", encoding="utf-8") as fh:
            yield fh


def _write_json(obj, output: Optional[str]) -> None:
    with _output_stream(output) as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


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
    with _output_stream(args.output) as fh:
        fh.write(certificate_text(cert) + "\n")
    cast = "skipped" if cert.castelnuovo_ok is None else cert.castelnuovo_ok
    _note(f"verdict={cert.verdict} construction={cert.construction_ok} "
          f"glp={cert.glp_ok} psi={cert.psi_zero}/{cert.psi_total} "
          f"castelnuovo={cast}")
    return 0 if cert.verdict else 1


def _load_configuration(path: str) -> Configuration:
    obj = _load_json(path)
    # of the two documents read here, only an instance holds d or params
    if isinstance(obj, dict) and ("d" in obj or "params" in obj):
        return instance_from_json(obj).vertices
    return config_from_json(obj)


def _cmd_check_psi(args) -> int:
    config = _load_configuration(args.input)
    if args.n is not None and len(config) != args.n:
        raise ValueError(
            f"configuration has {len(config)} points, --n said {args.n}")
    products = equation_products(config, args.sample, args.seed)
    total = nonzero = 0
    with _output_stream(args.output) as fh:
        for support, rows in products:
            lines, bad = report_lines(config, support, rows)
            total += len(lines)
            nonzero += bad
            fh.write("".join(lines))
    _note(f"equations={total} nonzero={nonzero} member={nonzero == 0}")
    return 0 if nonzero == 0 else 1


def _cmd_fit_curve(args) -> int:
    config = _load_configuration(args.input)
    try:
        model, contained = fit_and_test(config)
    except DegenerateInputError as exc:
        _write_json({"kind": "fit-curve", "ok": False, "error": str(exc)},
                    args.output)
        _note(f"fit failed: {exc}")
        return 1
    _write_json({
        "kind": "fit-curve",
        "ok": True,
        "field": field_to_json(config.field),
        "model": model_to_json(model),
        "contained": contained,
    }, args.output)
    d = config.dim
    _note(f"fitted degree-{d} curve through {d + 3} points; "
          f"{sum(contained)}/{len(contained)} extra points contained")
    return 0 if all(contained) else 1


def _cmd_sym_factorization(args) -> int:
    d = args.d
    require_degree(d)
    n = 2 * d + 2
    ranks = sample_ranks(comb(n, d + 1), args.sample, args.seed)
    picks = None if ranks is None else (
        _unrank_combination(n, d + 1, r) for r in ranks)
    proofs = FactorizationProofs(d)
    total = bad = 0
    with _output_stream(args.output) as fh:
        for split, ok in proofs.verdicts(picks):
            total += 1
            bad += not ok
            fh.write(json.dumps(factorization_record(split, ok)) + "\n")
    _note(f"subsets={total} failed={bad} expanded={proofs.expanded}")
    return 0 if bad == 0 else 1


def _cmd_sym_psi(args) -> int:
    d, n = args.d, 2 * args.d + 2
    # both refusals come before the output is opened, the picks' first
    picks = equation_picks(d, n, args.sample, args.seed)
    minor = identity_minor(d, args.method)
    total = bad = 0
    with _output_stream(args.output) as fh:
        # each line is json.dumps(identity_record(...)), formed from labels
        for support, rows in support_products(minor, d, picks):
            head = (f'{{"kind": "psi-identity", "d": {d}, '
                    f'"J": {list(support)}, "I": [')
            labels = [str(k) for k in support]
            lines = []
            for pick, n1, n2 in rows:
                ok = n1 == n2
                del n1, n2  # free an expanded pair before the next one forms
                bad += not ok
                lines.append(f'{head}{", ".join(pick(labels))}], '
                             f'"ok": {"true" if ok else "false"}}}\n')
            total += len(lines)
            fh.write("".join(lines))
    _note(f"identities={total} method={args.method} failed={bad}")
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
                inp=False):
    if seed:
        sub.add_argument("--seed", type=_integer, default=0,
                         help="random seed (default 0)")
    if field:
        sub.add_argument("--field", type=_field_flag, default=QQ,
                         help="rationals or prime:p (default rationals)")
    if height:
        sub.add_argument("--height", type=_integer, default=20,
                         help="bound on sampled numerators/denominators")
    if sample:
        sub.add_argument("--sample", type=_at_least_one, default=None,
                         help="evaluate a seeded sample of this size "
                              "instead of everything")
    if inp:
        sub.add_argument("--input", required=True, help="input JSON file")
    sub.add_argument("--output", default=None,
                     help="write JSON here instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line, without the usage block."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rncgeom",
        description="Exact construction and verification of point "
                    "configurations on rational normal curves.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-instance",
                        help="sample an instance and print its JSON")
    p.add_argument("--d", type=_integer, required=True, help="curve degree")
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
    p.add_argument("--n", type=_integer, default=None,
                   help="assert the configuration has this many points")
    _add_common(p, seed=True, sample=True, inp=True)
    p.set_defaults(func=_cmd_check_psi)

    p = subs.add_parser("fit-curve",
                        help="fit the curve through the first d+3 points "
                             "and test any remaining points")
    _add_common(p, inp=True)
    p.set_defaults(func=_cmd_fit_curve)

    p = subs.add_parser("sym-factorization",
                        help="prove that each symbolic vertex bracket "
                             "factors into 2x2 brackets")
    p.add_argument("--d", type=_integer, required=True, help="curve degree")
    _add_common(p, seed=True, sample=True)
    p.set_defaults(func=_cmd_sym_factorization)

    p = subs.add_parser("sym-psi",
                        help="check that each equation vanishes "
                             "identically on the symbolic vertices")
    p.add_argument("--d", type=_integer, required=True, help="curve degree")
    p.add_argument("--method", choices=("auto", "factors", "expand"),
                   default="auto",
                   help="factor-multiset route or full expansion")
    _add_common(p, seed=True, sample=True)
    p.set_defaults(func=_cmd_sym_psi)

    p = subs.add_parser("dual-check",
                        help="check that the osculating hyperplane "
                             "coefficients lie on a rational normal curve")
    p.add_argument("--input", default=None, help="instance JSON file")
    p.add_argument("--d", type=_integer, default=None,
                   help="sample an instance instead of reading one")
    _add_common(p, seed=True, field=True, height=True)
    p.set_defaults(func=_cmd_dual_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except (OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
