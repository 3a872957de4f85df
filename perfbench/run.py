"""rncgeom benchmark: CLI workloads timed end to end, or one traced pass.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload numeric --seed 1 \
        --seconds 50 --trace 0

The program under test is the checkout's own ``src/rncgeom``; every job is
a separate ``python -m rncgeom.cli`` process with the flags a user types
and the default worker pool (no ``--jobs``).  One client runs the jobs
back to back (a closed loop).

--trace 0   set up, then repeat passes over the workload's fixed job list
            until --seconds have passed; report end-to-end medians.
--trace 1   set up, then run the pass in this process through the same
            library calls: untraced, traced, untraced again; report
            per-layer metrics from the traced pass's spans.

The last stdout line is the JSON result; the line before it holds the
environment and per-pass detail.  Exit code 2 means the checkout holds no
rncgeom sources or set-up failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing
import workloads

# setup_s is the median of repeated set-ups: at least this many, and
# more while they take under SETUP_MIN_S in all
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 3.0
MIN_PASSES = 3      # timed passes, even past --seconds
WORK_DIR = ".perfbench-work"


class SetupError(Exception):
    """The workload could not be set up: rncgeom did not produce its
    inputs, or the wrong rncgeom was imported."""


# ---------------------------------------------------------------------------
# running CLI processes


def run_cli(root: Path, argv: list[str], stdout_path: Path) -> dict:
    """One rncgeom process; its wall time and, from wait4, the CPU time and
    peak RSS of its whole tree (pool workers are reaped before it exits).

    Bytecode caching is on whatever the caller's environment says, as for
    an installed package, with the cache kept in the work directory.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(root / "src"),
               PYTHONPYCACHEPREFIX=str(root / WORK_DIR / "pycache"))
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "rncgeom.cli", *argv],
            stdout=out, stderr=err, cwd=root, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def setup(root: Path, work: Path, plan: workloads.Plan) -> dict:
    """Write the workload's inputs; repeated, since setup_s is a median.

    Each repetition runs one ``rncgeom --help`` (interpreter start and
    package import, which every job pays) and the gen-instance processes.
    """
    totals, helps, first = [], [], {}
    while len(totals) < SETUP_MIN_REPEATS or sum(totals) < SETUP_MIN_S:
        res = run_cli(root, ["--help"], work / "help.txt")
        if res["rc"] != 0:
            raise SetupError("rncgeom --help failed")
        total = res["wall_s"]
        helps.append(total)
        for name, flags in plan.instances:
            res = run_cli(root, ["gen-instance", *flags,
                                 "--output", str(work / name)],
                          work / "gen.txt")
            if res["rc"] != 0:
                raise SetupError(f"gen-instance {' '.join(flags)} failed")
            data = (work / name).read_bytes()
            if first.setdefault(name, data) != data:
                raise SetupError(f"gen-instance {name} is not deterministic")
            total += res["wall_s"]
        totals.append(total)
    for source, target, label, coord, delta in plan.tampered:
        obj = json.loads((work / source).read_text(encoding="utf-8"))
        (work / target).write_text(
            json.dumps(checks.tamper(obj, label, coord, delta)),
            encoding="utf-8")
    return {"setup_s": statistics.median(totals),
            "startup_s": statistics.median(helps),
            "setup_samples": totals}


# ---------------------------------------------------------------------------
# end-to-end passes


def cli_pass(root: Path, work: Path, jobs: list[workloads.Job]) -> dict:
    """One pass; wall and CPU are sums over its jobs, RSS the largest of
    an honest job (a tampered control's output size, and with it its
    memory, swings with the tampered label)."""
    wall = cpu = rss = 0.0
    failures = []
    for i, job in enumerate(jobs):
        out = work / f"job{i}.out"
        res = run_cli(root, job.argv(), out)
        wall += res["wall_s"]
        cpu += res["cpu_s"]
        if not job.control:
            rss = max(rss, res["rss_mb"])
        problem = job.check(res["rc"], out.read_text(encoding="utf-8"))
        if problem:
            err = out.with_suffix(".err").read_text(encoding="utf-8")
            tail = err.strip().splitlines()[-1:] or [""]
            failures.append(f"{' '.join(job.argv())}: {problem} {tail[0]}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "failures": failures}


def end_to_end(root: Path, work: Path, jobs: list, seconds: float,
               set_up: dict) -> tuple[dict, dict, int, list]:
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(cli_pass(root, work, jobs))
        now = time.perf_counter()
        # stop unless another pass of the same length fits in --seconds
        if (len(passes) >= MIN_PASSES
                and now + (now - pass_start) > start + seconds):
            break
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "setup_s": (set_up["setup_s"], "s"),
    }
    failures = [f for p in passes for f in p["failures"]]
    detail = {"passes": len(passes), "jobs_per_pass": len(jobs),
              "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_cpu_s": [p["cpu_s"] for p in passes],
              "setup_samples_s": set_up["setup_samples"]}
    return metrics, detail, len(passes) * len(jobs), failures


# ---------------------------------------------------------------------------
# traced pass


def in_process_pass(jobs: list, tr,
                    marks: list = None) -> tuple[float, list]:
    """Run the jobs in this process; the time excludes the output checks.
    With marks, append the span count before each job and at the end."""
    failures = []
    elapsed = 0.0
    for job in jobs:
        if marks is not None:
            marks.append(len(tr.spans))
        start = time.perf_counter()
        rc, text = workloads.run_in_process(job, tr)
        elapsed += time.perf_counter() - start
        problem = job.check(rc, text)
        if problem:
            failures.append(f"in-process {' '.join(job.argv())}: {problem}")
    if marks is not None:
        marks.append(len(tr.spans))
    return elapsed, failures


def bracket_s_by_field(tr: tracing.Tracer, jobs: list,
                       marks: list) -> dict:
    """Self time of projective.bracket under jobs on each field kind of
    their input file ("rationals", "prime")."""
    own = tracing.self_times(tr.spans)
    out = {"rationals": 0.0, "prime": 0.0}
    for job, lo, hi in zip(jobs, marks, marks[1:]):
        if "input" not in job.options:
            continue
        with open(job.options["input"], encoding="utf-8") as fh:
            kind = json.load(fh)["vertices"]["field"]["kind"]
        out[kind] += sum(own[i] for i in range(lo, hi)
                         if tr.spans[i][0] == "projective.bracket")
    return out


def layer_metrics(tr: tracing.Tracer, traced_s: float, untraced_s: float,
                  startup_s: float, by_field: dict) -> dict:
    s = tracing.SpanSummary(tr.spans)
    c = tr.counters
    lookups = c["equations.minor_lookups"]
    computed = s.calls_under("projective.bracket", "equations.evaluate")
    count, sec, ratio = "count", "s", "ratio"
    return {
        "equations.evaluate_self_s": (s.self_s["equations.evaluate"], sec),
        "equations.evaluated": (c["equations.evaluated"], count),
        "equations.minor_lookups": (lookups, count),
        "equations.minor_hit_ratio": (
            1 - computed / lookups if lookups else 0.0, ratio),
        "equations.select_s": (s.self_s["equations.select"], sec),
        "equations.nonzero": (c["equations.nonzero"], count),
        "equations.report_s": (s.self_s["equations.report"], sec),
        "projective.bracket_calls": (s.calls["projective.bracket"], count),
        "projective.bracket_s": (s.self_s["projective.bracket"], sec),
        "projective.glp_s": (s.inclusive_s["projective.glp"], sec),
        "fields.rational_bracket_s": (by_field["rationals"], sec),
        "fields.mod_p_bracket_s": (by_field["prime"], sec),
        "staudt.load_s": (s.self_s["staudt.load"], sec),
        "staudt.build_s": (s.self_s["staudt.build"], sec),
        "staudt.verify_s": (s.inclusive_s["staudt.verify"], sec),
        "staudt.cert_s": (s.self_s["staudt.cert"], sec),
        "curve.fit_s": (s.self_s["curve.fit"], sec),
        "polynomials.mul_calls": (s.calls["polynomials.mul"], count),
        "polynomials.mul_term_pairs": (c["polynomials.mul_term_pairs"],
                                       count),
        "polynomials.mul_s": (s.self_s["polynomials.mul"], sec),
        "polynomials.poly_det_calls": (s.calls["polynomials.poly_det"],
                                       count),
        "polynomials.poly_det_self_s": (s.self_s["polynomials.poly_det"],
                                        sec),
        "identities.factorization_s": (
            s.self_s["identities.factorization"], sec),
        "identities.vertex_polys_s": (s.self_s["identities.vertex_polys"],
                                      sec),
        "identities.factor_route_s": (s.self_s["identities.factor_route"],
                                      sec),
        "identities.checked": (c["identities.checked"], count),
        "cli.startup_s": (startup_s, sec),
        "trace.overhead_frac": (traced_s / untraced_s - 1, ratio),
        "trace.top_level_coverage": (s.top_level_s() / traced_s, ratio),
    }


def traced(root: Path, jobs: list, workload: str,
           set_up: dict) -> tuple[dict, dict, int, list]:
    sys.path.insert(0, str(root / "src"))
    import rncgeom

    if Path(rncgeom.__file__).parent.resolve() != \
            (root / "src" / "rncgeom").resolve():
        raise SetupError(f"imported rncgeom from {rncgeom.__file__}")

    # untraced passes on both sides of the traced one, so warm-up and
    # drift do not land on the overhead estimate
    before_s, failures = in_process_pass(jobs, tracing.NullTracer())
    tr = tracing.Tracer()
    marks = []
    with tracing.patched(tr):
        traced_s, more = in_process_pass(jobs, tr, marks)
    after_s, last = in_process_pass(jobs, tracing.NullTracer())
    failures += more + last
    untraced_s = (before_s + after_s) / 2
    spans_path = root / WORK_DIR / f"spans-{workload}.jsonl"
    tr.write(str(spans_path))
    metrics = layer_metrics(tr, traced_s, untraced_s, set_up["startup_s"],
                            bracket_s_by_field(tr, jobs, marks))
    detail = {"untraced_pass_s": [before_s, after_s],
              "traced_pass_s": traced_s,
              "spans": len(tr.spans), "spans_file": str(
                  spans_path.relative_to(root))}
    return metrics, detail, 3 * len(jobs), failures


# ---------------------------------------------------------------------------
# environment and main


def environment(root: Path) -> dict:
    git_rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "rncgeom").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "pool_within_nproc": (os.cpu_count() or 1) <= nproc,
        "platform": platform.platform(),
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rncgeom" / "cli.py").is_file():
        print("error: run from a checkout holding src/rncgeom",
              file=sys.stderr)
        return 2
    env = environment(root)
    if not env["pool_within_nproc"]:
        print("warning: os.cpu_count() exceeds the usable cores; the "
              "default pool is oversubscribed", file=sys.stderr)

    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        plan = workloads.plan_for(args.workload, args.seed)
        set_up = setup(root, work, plan)
        jobs = plan.make_jobs(str(work))
        if args.trace:
            metrics, detail, attempted, failures = traced(
                root, jobs, args.workload, set_up)
        else:
            metrics, detail, attempted, failures = end_to_end(
                root, work, jobs, args.seconds, set_up)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in failures:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": env,
                      "failed_frac": len(failures) / attempted,
                      "detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
