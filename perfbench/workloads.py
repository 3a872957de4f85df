"""The benchmark's workloads: seeded set-up, the fixed job list of one
pass, and each job's output check.

A job is one rncgeom command with the flags a user types.  The same job
runs either as its own CLI process (end-to-end passes) or through the
library functions the CLI calls, in this process (the traced pass); both
routes produce exit code and stdout text for the same check.

Why each workload exists is recorded in BENCHMARK.json at the repo root.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Optional

import checks

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Job:
    command: str
    options: dict
    check: Check
    control: bool = False   # runs on a tampered input

    def argv(self) -> list[str]:
        """The command line, flags in the order the options were given."""
        out = [self.command]
        for key, value in self.options.items():
            out += [f"--{key}"] if value is True else [f"--{key}", str(value)]
        return out


@dataclass
class Plan:
    """What set-up must produce and what one pass runs."""

    instances: list[tuple[str, list[str]]] = field(default_factory=list)
    # (file name, gen-instance flags); written by the CLI during set-up
    tampered: list[tuple[str, str, int, int, int]] = field(
        default_factory=list)
    # (source file, target file, label, coordinate, delta)
    make_jobs: Callable[[str], list[Job]] = lambda work: []


D_FULL = 5          # verify --castelnuovo and check-psi: 18,480 equations
D_SAMPLED = 6       # verify --sample: 210,210 equations, 2,000 sampled
SAMPLED_FIELD = "prime:101"
SAMPLE = 2000
SYM_FACT_D = 4      # 252 subsets, 126 sampled
SYM_FACT_SAMPLE = 126
SYM_PSI_D = 5       # 18,480 identities by the factor route
FULL_EQUATIONS = 18480
HONEST = 2          # honest instances of each size per pass, plus a tampered
# Parameters are num/den with |num|, den <= HEIGHT.  At the CLI default of
# 20 the work of a d=5 verify swings by ~30% between seeds with the size of
# its numbers; at 6 by ~5%, for ~10% less work.
HEIGHT = 6


def _add_instances(plan: Plan, rng: random.Random, prefix: str, d: int,
                   gen_flags: list[str]) -> list[tuple[str, Optional[int]]]:
    """Add HONEST distinct instances and a tampered copy of the first to
    the plan; return (input file, tampered label or None) for each."""
    seeds = rng.sample(range(1, 10 ** 9), HONEST)
    names = [f"{prefix}{i}.json" for i in range(1, HONEST + 1)]
    plan.instances += [
        (name, ["--d", str(d), "--seed", str(s), "--height", str(HEIGHT),
                *gen_flags]) for name, s in zip(names, seeds)]
    label = rng.randint(1, 2 * d + 2)
    plan.tampered.append((names[0], f"{prefix}-tampered.json", label,
                          rng.randrange(d + 1), rng.randint(1, 9)))
    return [(name, None) for name in names] + [
        (f"{prefix}-tampered.json", label)]


def _numeric(rng: random.Random) -> Plan:
    """verify --castelnuovo and check-psi on rational d=5 instances, and
    verify --sample on d=6 instances over Z/101."""
    plan = Plan()
    full = _add_instances(plan, rng, "full", D_FULL, [])
    sampled = _add_instances(plan, rng, "sampled", D_SAMPLED,
                             ["--field", SAMPLED_FIELD])
    sample_seeds = rng.sample(range(1, 10 ** 9), len(sampled))
    # check-psi on the first honest instance and the tampered one
    psi_inputs = [full[0], full[-1]]
    spot_seeds = rng.sample(range(1, 10 ** 9), len(psi_inputs))

    def jobs(work: str) -> list[Job]:
        out = [Job("verify", {"castelnuovo": True, "input": f"{work}/{name}"},
                   partial(checks.check_verify, psi_total=FULL_EQUATIONS,
                           castelnuovo=True, tampered_label=label),
                   control=label is not None)
               for name, label in full]
        out += [Job("verify", {"sample": SAMPLE, "seed": s,
                               "input": f"{work}/{name}"},
                    partial(checks.check_verify, psi_total=SAMPLE,
                            castelnuovo=False, tampered_label=label),
                    control=label is not None)
                for (name, label), s in zip(sampled, sample_seeds)]
        for (name, label), spot_seed in zip(psi_inputs, spot_seeds):
            path = f"{work}/{name}"
            with open(path, encoding="utf-8") as fh:
                points = checks.canonical_points(json.load(fh))
            out.append(Job("check-psi", {"input": path}, partial(
                checks.check_psi_lines, count=FULL_EQUATIONS, points=points,
                tampered_label=label, spot_seed=spot_seed),
                control=label is not None))
        return out

    plan.make_jobs = jobs
    return plan


def _symbolic(rng: random.Random) -> Plan:
    seed = rng.randrange(1, 10 ** 9)

    def jobs(work: str) -> list[Job]:
        return [
            Job("sym-factorization",
                {"d": SYM_FACT_D, "sample": SYM_FACT_SAMPLE, "seed": seed},
                partial(checks.check_records, count=SYM_FACT_SAMPLE,
                        kind="factorization")),
            Job("sym-psi", {"d": SYM_PSI_D},
                partial(checks.check_records, count=FULL_EQUATIONS,
                        kind="psi-identity")),
        ]

    return Plan(make_jobs=jobs)


WORKLOADS = {
    "numeric": _numeric,
    "symbolic": _symbolic,
}


def plan_for(workload: str, seed: int) -> Plan:
    """The workload's plan; one seed drives every random choice in it."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


# ---------------------------------------------------------------------------
# in-process route, used by the traced pass and its untraced twin


def run_in_process(job: Job, tr) -> tuple[int, str]:
    """Run the job through the library calls its CLI command makes, in
    the same order and single-process; return (exit code, stdout)."""
    from rncgeom import equations, identities, staudt

    o = job.options
    if job.command in ("verify", "check-psi"):
        with open(o["input"], encoding="utf-8") as fh:
            obj = json.load(fh)
        inst = tr.call("staudt.load", staudt.instance_from_json, obj)

        def evaluate(config, eqs):
            reports = tr.call("equations.evaluate", equations.evaluate_many,
                              config, eqs)
            tr.count("equations.evaluated", len(reports))
            tr.count("equations.nonzero", sum(1 for r in reports if r.value))
            return reports

    if job.command == "verify":
        cert = tr.call("staudt.verify", staudt.verify_instance, inst,
                       with_castelnuovo=o.get("castelnuovo", False),
                       sample=o.get("sample"), sample_seed=o.get("seed", 0),
                       evaluator=evaluate)
        text = json.dumps(tr.call("staudt.cert", staudt.certificate_to_json,
                                  cert), indent=2) + "\n"
        return (0 if cert.verdict else 1), text
    if job.command == "check-psi":
        config = inst.vertices
        eqs = list(equations.enumerate_equations(config.dim, len(config)))
        reports = evaluate(config, eqs)
        text = tr.call("equations.report", lambda: "".join(
            json.dumps(equations.report_to_json(r, config.field)) + "\n"
            for r in reports))
        return (1 if any(r.value for r in reports) else 0), text
    if job.command == "sym-factorization":
        d = o["d"]
        splits = [identities.SubsetSplit(d, members)
                  for members in combinations(range(1, 2 * d + 3), d + 1)]
        picks = sorted(random.Random(o["seed"]).sample(
            range(len(splits)), o["sample"]))
        records = [identities.factorization_record(s, tr.call(
            "identities.factorization", identities.verify_factorization, s))
            for s in (splits[i] for i in picks)]
    elif job.command == "sym-psi":
        d = o["d"]
        eqs = list(equations.enumerate_equations(d, 2 * d + 2))
        records = [identities.identity_record(eq, tr.call(
            "identities.factor_route", identities.verify_equation_identity,
            eq, "auto")) for eq in eqs]
    else:
        raise ValueError(f"no in-process route for {job.command}")
    tr.count("identities.checked", len(records))
    text = "".join(json.dumps(r) + "\n" for r in records)
    return (0 if all(r["ok"] for r in records) else 1), text
