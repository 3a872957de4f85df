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

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from .curve import (
    ParamPoint,
    cross_value,
    curve_contains,
    fit_rnc,
    osculating_hyperplane,
    param_from_json,
    param_to_json,
    simplex_vertex,
    veronese_embed,
)
from .equations import (
    BracketEquation,
    EquationReport,
    enumerate_equations,
    equation_from_json,
    evaluate_many,
    sample_equations,
)
from .errors import CharacteristicError, DegenerateInputError, MismatchError
from .fields import (
    QQ,
    Field,
    PrimeField,
    field_from_json,
    field_to_json,
    require_characteristic_over,
)
from .identities import first_group, second_group
from .projective import (
    Configuration,
    Hyperplane,
    ProjectivePoint,
    config_from_json,
    config_to_json,
    is_general_linear_position,
)

CERT_SCHEMA = "vonstaudt-cert/1"
INSTANCE_SCHEMA = "vonstaudt-inst/1"


@dataclass(frozen=True)
class VonStaudtInstance:
    """One run of the construction: parameters, their curve points and
    osculating hyperplanes, and the 2d+2 derived vertices.

    The dataclass itself records whatever its builder derived; only
    build_instance guarantees the geometric relations between the fields.
    """

    d: int
    field: Field
    params: tuple[ParamPoint, ...]
    curve_points: tuple[ProjectivePoint, ...]
    planes: tuple[Hyperplane, ...]
    vertices: Configuration
    seed: Optional[int] = None


@dataclass(frozen=True)
class Certificate:
    """Verification outcome for one instance."""

    d: int
    field: Field
    seed: Optional[int]
    glp_ok: bool
    psi_total: int
    psi_zero: int
    psi_failures: tuple[BracketEquation, ...]
    castelnuovo_ok: Optional[bool]
    sample: Optional[int]
    verdict: bool


def build_instance(d: int, params: Sequence[ParamPoint],
                   field: Optional[Field] = None,
                   seed: Optional[int] = None) -> VonStaudtInstance:
    """Derive the full instance from 2d+2 pairwise-distinct parameters."""
    if d < 2:
        raise ValueError("the construction needs degree at least 2")
    params = tuple(params)
    if len(params) != 2 * d + 2:
        raise MismatchError(
            f"need {2 * d + 2} parameter points, got {len(params)}")
    if field is None:
        field = params[0].field
    for q in params:
        if q.field != field:
            raise MismatchError("parameter points from different fields")
    require_characteristic_over(field, d)
    for q1, q2 in combinations(params, 2):
        if not cross_value(q1, q2):
            raise DegenerateInputError(f"repeated parameter point {q1}")
    curve_points = tuple(veronese_embed(q, d) for q in params)
    planes = tuple(osculating_hyperplane(q, d) for q in params)
    vertices = []
    for k in range(1, 2 * d + 3):
        group = first_group(d) if k <= d + 1 else second_group(d)
        others = [params[i - 1] for i in group if i != k]
        vertices.append(simplex_vertex(others))
    return VonStaudtInstance(
        d=d, field=field, params=params, curve_points=curve_points,
        planes=planes,
        vertices=Configuration(field=field, dim=d, points=tuple(vertices)),
        seed=seed)


def sample_instance(d: int, field: Field = QQ, seed: int = 0,
                    height: int = 20) -> VonStaudtInstance:
    """Seeded random instance: 2d+2 distinct parameters [a : 1] with a
    drawn as num/den, num in [-height, height], den in [1, height].

    Over a prime field the drawn fraction is reduced mod p, so the same
    seed yields the reduction of the rational sample unless two parameters
    collide mod p (in which case extra draws are consumed).  p > 2d+2 is
    required so the field can host the parameters at all.
    """
    if height < 1:
        raise ValueError("height must be positive")
    needed = 2 * d + 2
    if isinstance(field, PrimeField) and field.p <= needed:
        raise CharacteristicError(
            f"cannot sample {needed} distinct parameters mod {field.p}")
    rng = random.Random(seed)
    values = []
    seen = set()
    attempts = 0
    while len(values) < needed:
        attempts += 1
        if attempts > 1000 * needed:
            raise DegenerateInputError("sampling failed to find distinct "
                                       "parameters; raise the height")
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        try:
            value = field.scalar(Fraction(num, den))
        except ZeroDivisionError:
            # den vanishes mod p; skip the draw like a collision
            continue
        if value in seen:
            continue
        seen.add(value)
        values.append(value)
    params = tuple(ParamPoint(v, field.one, field) for v in values)
    return build_instance(d, params, field, seed=seed)


Evaluator = Callable[[Configuration, list], list]


def castelnuovo_check(inst: VonStaudtInstance) -> bool:
    """Fit a curve through the first d+3 vertices and test the remaining
    d-1 for containment; False on any general-position failure."""
    config = inst.vertices
    head = Configuration(field=inst.field, dim=inst.d,
                         points=config.points[:inst.d + 3])
    try:
        model = fit_rnc(head)
    except DegenerateInputError:
        return False
    return all(curve_contains(model, p) is not None
               for p in config.points[inst.d + 3:])


def verify_instance(inst: VonStaudtInstance,
                    with_castelnuovo: bool = False,
                    sample: Optional[int] = None,
                    sample_seed: int = 0,
                    evaluator: Optional[Evaluator] = None) -> Certificate:
    """Certify one instance: general linear position of the vertices, then
    vanishing of every (or every sampled) equation, then optionally the
    fitted-curve cross-check.

    The evaluator hook lets a caller observe or replace the evaluation of
    the equation reports; it must return them in the order given.
    """
    d = inst.d
    n = 2 * d + 2
    config = inst.vertices
    glp_ok = is_general_linear_position(config)
    if sample is None:
        eqs = list(enumerate_equations(d, n))
    else:
        eqs = sample_equations(d, n, sample, sample_seed)
    if evaluator is None:
        reports = evaluate_many(config, eqs)
    else:
        reports = evaluator(config, eqs)
    failures = tuple(r.equation for r in reports if r.value)
    castelnuovo_ok = castelnuovo_check(inst) if with_castelnuovo else None
    verdict = glp_ok and not failures and castelnuovo_ok is not False
    return Certificate(
        d=d, field=inst.field, seed=inst.seed, glp_ok=glp_ok,
        psi_total=len(reports), psi_zero=len(reports) - len(failures),
        psi_failures=failures, castelnuovo_ok=castelnuovo_ok,
        sample=sample, verdict=verdict)


def dual_configuration(inst: VonStaudtInstance) -> Configuration:
    """The osculating hyperplane coefficient vectors as points of the dual
    space.  They lie on a rational normal curve of their own."""
    points = tuple(
        ProjectivePoint(h.coeffs, inst.field) for h in inst.planes)
    return Configuration(field=inst.field, dim=inst.d, points=points)


def _reduce_param(q: ParamPoint, field: PrimeField) -> ParamPoint:
    # clear denominators to a primitive integer pair before reducing, so a
    # parameter like 1/p lands on the point at infinity instead of failing
    a, b = Fraction(q.a), Fraction(q.b)
    scale = a.denominator * b.denominator
    return ParamPoint(field.from_int(int(a * scale)),
                      field.from_int(int(b * scale)), field)


def reduce_instance_mod(inst: VonStaudtInstance, p: int) -> VonStaudtInstance:
    """Rebuild a rational instance over the prime field Z/p.

    Every parameter reduces (as a point of the projective line), but two
    may collide mod p, which raises through the distinctness check.
    """
    if inst.field != QQ:
        raise MismatchError("only rational instances can be reduced")
    field = PrimeField(p)
    params = tuple(_reduce_param(q, field) for q in inst.params)
    return build_instance(inst.d, params, field, seed=inst.seed)


# ---------------------------------------------------------------------------
# serialization


def instance_to_json(inst: VonStaudtInstance) -> dict:
    fmt = inst.field.format
    return {
        "schema": INSTANCE_SCHEMA,
        "d": inst.d,
        "field": field_to_json(inst.field),
        "seed": inst.seed,
        "params": [param_to_json(q) for q in inst.params],
        "points": [[fmt(c) for c in p.coords] for p in inst.curve_points],
        "planes": [[fmt(c) for c in h.coeffs] for h in inst.planes],
        "vertices": config_to_json(inst.vertices),
    }


def instance_from_json(obj: dict) -> VonStaudtInstance:
    """Load an instance; missing derived fields are rebuilt from the
    parameters, present ones are taken as stored (they may legitimately
    disagree with the construction, e.g. in negative controls)."""
    field = field_from_json(obj["field"])
    d = int(obj["d"])
    seed = obj.get("seed")
    params = tuple(param_from_json(q, field) for q in obj["params"])
    inst = build_instance(d, params, field, seed=seed)
    if "points" in obj:
        pts = tuple(
            ProjectivePoint(tuple(field.parse(c) for c in row), field)
            for row in obj["points"])
        inst = replace(inst, curve_points=pts)
    if "planes" in obj:
        planes = tuple(
            Hyperplane(tuple(field.parse(c) for c in row), field)
            for row in obj["planes"])
        inst = replace(inst, planes=planes)
    if "vertices" in obj:
        inst = replace(inst, vertices=config_from_json(obj["vertices"]))
    return inst


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "schema": CERT_SCHEMA,
        "d": cert.d,
        "field": field_to_json(cert.field),
        "seed": cert.seed,
        "sample": cert.sample,
        "glp_ok": cert.glp_ok,
        "psi_total": cert.psi_total,
        "psi_zero": cert.psi_zero,
        "psi_failures": [eq.to_json() for eq in cert.psi_failures],
        "castelnuovo_ok": cert.castelnuovo_ok,
        "verdict": cert.verdict,
    }


def certificate_from_json(obj: dict) -> Certificate:
    if obj.get("schema") != CERT_SCHEMA:
        raise ValueError(f"unknown certificate schema {obj.get('schema')!r}")
    d = int(obj["d"])
    n = 2 * d + 2
    return Certificate(
        d=d,
        field=field_from_json(obj["field"]),
        seed=obj.get("seed"),
        glp_ok=bool(obj["glp_ok"]),
        psi_total=int(obj["psi_total"]),
        psi_zero=int(obj["psi_zero"]),
        psi_failures=tuple(
            equation_from_json(x, d, n) for x in obj["psi_failures"]),
        castelnuovo_ok=obj.get("castelnuovo_ok"),
        sample=obj.get("sample"),
        verdict=bool(obj["verdict"]),
    )
