"""Construction and certification of the two-simplex vertex configurations.

Given 2d+2 distinct parameter points, split into a first group (labels
1..d+1) and a second group (labels d+2..2d+2), each label k gets the vertex
R_k cut out by the osculating hyperplanes at the other d members of its own
group.  The certified statement is that these 2d+2 vertices always lie on a
rational normal curve: they are in general linear position and satisfy
every bracket equation, optionally cross-checked by fitting a curve through
d+3 of them and testing the rest for containment.

Verification failures are recorded in the certificate, never thrown: a
false verdict on an untampered instance would be a counterexample, and
counterexamples must surface, not crash.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from types import NoneType
from typing import Callable, Optional, Sequence

from .curve import (
    _require_distinct,
    fit_and_test,
    osculating_hyperplane,
    simplex_vertex,
    veronese_embed,
)
from .equations import (
    BracketEquation,
    _equation,
    count_equations,
    equation_from_json,
    equation_products,
    sample_equations,
)
from .errors import (
    CharacteristicError,
    DegenerateInputError,
    MismatchError,
    json_int,
    json_typed,
    malformed_input,
)
from .fields import (
    QQ,
    Field,
    PrimeField,
    field_from_json,
    field_to_json,
    require_characteristic_over,
)
from .identities import group_others, require_degree
from .projective import (
    Configuration,
    ProjectivePoint,
    config_from_json,
    config_to_json,
    is_general_linear_position,
    points_from_json,
    points_to_json,
)

CERT_SCHEMA = "vonstaudt-cert/2"
CERT_SCHEMAS = ("vonstaudt-cert/1", CERT_SCHEMA)  # every one still read
INSTANCE_SCHEMA = "vonstaudt-inst/1"


@dataclass(frozen=True)
class VonStaudtInstance:
    """One run of the construction: parameters (points of P^1), their curve
    points and osculating hyperplanes (points of the dual P^d), and the
    2d+2 derived vertices.

    The dataclass itself records whatever its builder derived; only
    build_instance guarantees the geometric relations between the fields.
    """

    d: int
    field: Field
    params: tuple[ProjectivePoint, ...]
    curve_points: tuple[ProjectivePoint, ...]
    planes: tuple[ProjectivePoint, ...]
    vertices: Configuration
    seed: Optional[int] = None


@dataclass(frozen=True)
class Certificate:
    """Verification outcome for one instance."""

    d: int
    field: Field
    seed: Optional[int]
    construction_ok: Optional[bool]
    glp_ok: bool
    psi_total: int
    psi_zero: int
    psi_failures: tuple[BracketEquation, ...]
    castelnuovo_ok: Optional[bool]
    sample: Optional[int]
    sample_seed: Optional[int]
    verdict: bool


def build_instance(d: int, params: Sequence[ProjectivePoint],
                   seed: Optional[int] = None) -> VonStaudtInstance:
    """Derive the full instance from 2d+2 pairwise-distinct parameters,
    points of P^1 over one field, which is the instance's."""
    require_degree(d)
    params = tuple(params)
    if len(params) != 2 * d + 2:
        raise MismatchError(
            f"need {2 * d + 2} parameter points, got {len(params)}")
    field = params[0].field
    for q in params:
        if q.field != field:
            raise MismatchError("parameter points from different fields")
        if q.dim != 1:
            raise MismatchError(f"parameter point {q} is not in P^1")
    require_characteristic_over(field, d)
    _require_distinct(params)
    curve_points = tuple(veronese_embed(q, d) for q in params)
    planes = tuple(osculating_hyperplane(q, d) for q in params)
    vertices = [simplex_vertex([params[i - 1] for i in group_others(d, k)])
                for k in range(1, 2 * d + 3)]
    return VonStaudtInstance(
        d=d, field=field, params=params, curve_points=curve_points,
        planes=planes,
        vertices=Configuration(field=field, dim=d, points=tuple(vertices)),
        seed=seed)


def sample_instance(d: int, field: Field = QQ, seed: int = 0,
                    height: int = 20) -> VonStaudtInstance:
    """Seeded random instance: 2d+2 distinct parameters [a : 1] with a
    drawn as num/den, num in [-height, height], den in [1, height].

    Over a prime field the fraction, in lowest terms, is reduced mod p, so
    the same seed yields the reduction of the rational sample unless two
    parameters collide or a denominator vanishes mod p (then extra draws
    are consumed).  p > 2d+2 is required to host the parameters at all.
    """
    if height < 1:
        raise ValueError("height must be positive")
    needed = 2 * d + 2
    if 0 < field.characteristic <= needed:
        raise CharacteristicError(f"cannot sample {needed} distinct "
                                  f"parameters mod {field.characteristic}")
    rng = random.Random(seed)
    params: dict = {}  # the distinct draws, in order
    for _ in range(1000 * needed):
        if len(params) == needed:
            break
        num, den = rng.randint(-height, height), rng.randint(1, height)
        try:
            params[ProjectivePoint((Fraction(num, den), 1), field)] = None
        except ZeroDivisionError:
            pass  # the reduced den vanishes mod p; skip like a collision
    if len(params) < needed:
        raise DegenerateInputError("sampling failed to find distinct "
                                   "parameters; raise the height")
    return build_instance(d, tuple(params), seed=seed)


Evaluator = Callable[[Configuration, list], list]


def castelnuovo_check(inst: VonStaudtInstance) -> bool:
    """Fit a curve through the first d+3 vertices and test the remaining
    d-1 for containment; False on any general-position failure, and on
    stored vertices too few to fit."""
    try:
        return all(fit_and_test(inst.vertices)[1])
    except (DegenerateInputError, MismatchError):
        return False


def _verdict(construction_ok: Optional[bool], glp_ok: bool, total: int,
             failures: Sequence, castelnuovo_ok: Optional[bool]) -> bool:
    """True exactly when at least one equation was evaluated, none failed
    and no check failed; a check that was not run (None) fails nothing."""
    return (glp_ok and total >= 1 and not failures
            and False not in (construction_ok, castelnuovo_ok))


def verify_instance(inst: VonStaudtInstance,
                    with_castelnuovo: bool = False,
                    sample: Optional[int] = None,
                    sample_seed: int = 0,
                    evaluator: Optional[Evaluator] = None) -> Certificate:
    """Certify one instance: the stored data rebuilt from its parameters,
    general linear position of the vertices, then vanishing of every (or
    every sampled) equation, then optionally the fitted-curve cross-check.
    The general-position test fills the vertices' bracket table in one
    shared walk and the equations read it, so each bracket is computed
    once.  A sampled run records its sample seed.  Equations are
    streamed: only a failing one becomes a BracketEquation.  Stored
    vertices of the wrong shape are recorded as a failed construction
    with no equation evaluated.

    The evaluator hook, used by the benchmark's traced pass, lets a caller
    observe or replace the evaluation: it gets the selected equations and
    must return their reports (as equations.evaluate_many does), in order.
    """
    d = inst.d
    n = 2 * d + 2
    config = inst.vertices
    # the stored points, planes and vertices are what the parameters build
    try:
        construction_ok = inst == build_instance(d, inst.params,
                                                 seed=inst.seed)
    except ValueError:  # the parameters build no instance
        construction_ok = False
    glp_ok = is_general_linear_position(config)
    total = 0
    failures = []
    # vertices of another shape than 2d+2 points of P^d have no equations
    # to evaluate, and differ from the rebuild (construction_ok is false)
    shaped = config.dim == d and len(config) == n
    if shaped and evaluator is None:
        for support, rows in equation_products(config, sample, sample_seed):
            for pick, n1, n2 in rows:
                total += 1
                if n1 != n2:
                    failures.append(_equation(d, n, support, pick(support)))
    elif shaped:
        reports = evaluator(config, sample_equations(d, n, sample,
                                                     sample_seed))
        total = len(reports)
        failures = [r.equation for r in reports if r.nonzero]
    castelnuovo_ok = castelnuovo_check(inst) if with_castelnuovo else None
    verdict = _verdict(construction_ok, glp_ok, total, failures,
                       castelnuovo_ok)
    return Certificate(
        d=d, field=inst.field, seed=inst.seed,
        construction_ok=construction_ok, glp_ok=glp_ok,
        psi_total=total, psi_zero=total - len(failures),
        psi_failures=tuple(failures), castelnuovo_ok=castelnuovo_ok,
        sample=sample, sample_seed=None if sample is None else sample_seed,
        verdict=verdict)


def dual_configuration(inst: VonStaudtInstance) -> Configuration:
    """The osculating hyperplanes as a configuration of the dual space.
    They lie on a rational normal curve of their own."""
    return Configuration(field=inst.field, dim=inst.d, points=inst.planes)


def reduce_instance_mod(inst: VonStaudtInstance, p: int) -> VonStaudtInstance:
    """Rebuild a rational instance over the prime field Z/p.

    Every parameter reduces (as a point of the projective line), but two
    may collide mod p, which raises through the distinctness check.
    """
    if inst.field.characteristic:
        raise MismatchError("only rational instances can be reduced")
    field = PrimeField(p)
    # reduce the primitive integer pair, so a parameter like 1/p lands on
    # the point at infinity instead of failing
    params = tuple(ProjectivePoint(q.coords, field) for q in inst.params)
    return build_instance(inst.d, params, seed=inst.seed)


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(inst: VonStaudtInstance) -> dict:
    return {
        "schema": INSTANCE_SCHEMA,
        "d": inst.d,
        "field": field_to_json(inst.field),
        "seed": inst.seed,
        "params": points_to_json(inst.params),
        "points": points_to_json(inst.curve_points),
        "planes": points_to_json(inst.planes),
        "vertices": config_to_json(inst.vertices),
    }


def instance_from_json(obj: dict) -> VonStaudtInstance:
    """Decode an instance document, then build it.  Only the decoding is
    under malformed_input, so a wrong type, an absent key or a bad scalar
    is an input error and a fault in the construction a traceback.  Missing
    derived fields are the build's; stored ones are kept (a negative
    control may disagree with the construction) but must be 2d+2 points of
    P^d, the vertices over the instance's field.  A wrong shape or schema,
    like the build's own refusals, raises ValueError."""
    with malformed_input("instance"):
        json_typed(obj, "document", dict)
        if obj.get("schema", INSTANCE_SCHEMA) != INSTANCE_SCHEMA:
            raise ValueError(f"unknown instance schema {obj['schema']!r}")
        field = field_from_json(obj["field"])
        d = json_int(obj["d"], "d")
        seed = json_typed(obj.get("seed"), "seed", int, NoneType)
        params = points_from_json(obj["params"], field)
        stored = {key: points_from_json(obj[key], field)
                  for key in ("points", "planes") if key in obj}
        if "vertices" in obj:
            stored["vertices"] = config_from_json(obj["vertices"])
    inst = build_instance(d, params, seed=seed)
    n = 2 * d + 2
    for key, points in stored.items():
        if key == "vertices":
            if points.field != field:
                raise ValueError("stored vertices are not over the "
                                 "instance's field")
            points = points.points
        if len(points) != n or any(p.dim != d for p in points):
            raise ValueError(f"stored {key} must be {n} points of P^{d}")
    if "points" in stored:
        stored["curve_points"] = stored.pop("points")
    return replace(inst, **stored)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "d": cert.d,
        "field": field_to_json(cert.field),
        "seed": cert.seed,
        "sample": cert.sample,
        "sample_seed": cert.sample_seed,
        "construction_ok": cert.construction_ok,
        "glp_ok": cert.glp_ok,
        "psi_total": cert.psi_total,
        "psi_zero": cert.psi_zero,
        "psi_failures": [eq.to_json() for eq in cert.psi_failures],
        "castelnuovo_ok": cert.castelnuovo_ok,
        "verdict": cert.verdict,
    }


def certificate_text(cert: Certificate) -> str:
    """json.dumps(certificate_to_json(cert), indent=2), with the failures
    formed straight from their labels: the indented encoder is pure
    Python, and a tampered instance can fail many thousand equations.  A
    support's lines form once, however many of its equations fail."""
    text = json.dumps(certificate_to_json(replace(cert, psi_failures=())),
                      indent=2)
    if not cert.psi_failures:
        return text
    sep = ",\n        "
    labels = [str(k) for k in range(2 * cert.d + 3)]
    heads: dict = {}
    blocks = []
    for eq in cert.psi_failures:
        head = heads.get(eq.support)
        if head is None:
            head = heads[eq.support] = (
                '    {\n      "J": [\n        '
                + sep.join([labels[k] for k in eq.support])
                + '\n      ],\n      "I": [\n        ')
        blocks.append(head + sep.join([labels[k] for k in eq.sextet])
                      + "\n      ]\n    }")
    return text.replace('"psi_failures": []', '"psi_failures": [\n'
                        + ",\n".join(blocks) + "\n  ]", 1)


def certificate_from_json(obj: dict) -> Certificate:
    """Load a certificate; a vonstaudt-cert/1 one predates the
    construction check and the sample seed, and reads them as null.  Every
    key must hold its own JSON type, and the certificate must agree with
    itself: its counts add up within the equations there are (and the
    sample, if any), no failure repeats, the verdict is the one its checks
    give, and a /2 sample has a seed exactly when it is a sample.  Anything
    else raises ValueError."""
    with malformed_input("certificate"):
        json_typed(obj, "document", dict)
        if obj.get("schema") not in CERT_SCHEMAS:
            raise ValueError(
                f"unknown certificate schema {obj.get('schema')!r}")
        d = json_int(obj["d"], "d")
        n = 2 * d + 2
        cert = Certificate(
            d=d,
            field=field_from_json(obj["field"]),
            seed=json_typed(obj.get("seed"), "seed", int, NoneType),
            construction_ok=json_typed(obj.get("construction_ok"),
                                       "construction_ok", bool, NoneType),
            glp_ok=json_typed(obj["glp_ok"], "glp_ok", bool),
            psi_total=json_int(obj["psi_total"], "psi_total"),
            psi_zero=json_int(obj["psi_zero"], "psi_zero"),
            psi_failures=tuple(
                equation_from_json(json_typed(x, "failure", dict), d, n)
                for x in json_typed(obj["psi_failures"], "psi_failures",
                                    list)),
            castelnuovo_ok=json_typed(obj.get("castelnuovo_ok"),
                                      "castelnuovo_ok", bool, NoneType),
            sample=json_typed(obj.get("sample"), "sample", int, NoneType),
            sample_seed=json_typed(obj.get("sample_seed"), "sample_seed",
                                   int, NoneType),
            verdict=json_typed(obj["verdict"], "verdict", bool),
        )
        failed = len(cert.psi_failures)
        if cert.psi_zero + failed != cert.psi_total:
            raise ValueError(
                f"inconsistent certificate: psi_zero {cert.psi_zero} plus "
                f"{failed} failures is not psi_total {cert.psi_total}")
        if cert.psi_zero < 0:
            raise ValueError(
                f"inconsistent certificate: psi_zero {cert.psi_zero} < 0")
        if cert.sample is not None and cert.psi_total > cert.sample:
            raise ValueError(
                f"inconsistent certificate: psi_total {cert.psi_total} "
                f"exceeds the sample {cert.sample}")
        # a total below 2^(d-1) is within the count: skip a comb slow at huge d
        if (cert.psi_total.bit_length() >= d
                and cert.psi_total > count_equations(d, n)):
            raise ValueError(
                f"inconsistent certificate: psi_total {cert.psi_total} "
                f"exceeds the equations for d={d}")
        if len(set(cert.psi_failures)) != failed:
            raise ValueError("inconsistent certificate: a failure repeats")
        if cert.verdict != _verdict(cert.construction_ok, cert.glp_ok,
                                    cert.psi_total, cert.psi_failures,
                                    cert.castelnuovo_ok):
            raise ValueError(
                f"inconsistent certificate: verdict "
                f"{str(cert.verdict).lower()} does not follow from its "
                f"checks; a true verdict needs at least one equation, no "
                f"failures and no failed check")
        if obj["schema"] == CERT_SCHEMA and (
                (cert.sample is None) != (cert.sample_seed is None)):
            raise ValueError("inconsistent certificate: sample_seed must be "
                             "null exactly when sample is")
        return cert
