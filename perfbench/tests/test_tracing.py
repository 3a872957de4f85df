"""Self time on a synthetic span tree, and a traced pass that leaves
rncgeom exactly as it found it."""

import json

import pytest

import tracing
import workloads
from checks import check_records, check_verify


def test_self_time_on_synthetic_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],   # b and c overlap: together they cover [1, 4]
        ["c", 2.0, 4.0, 0],
        ["d", 5.0, 6.0, 0],
        ["e", 5.5, 5.8, 3],   # a grandchild of a counts only against d
        ["f", 9.0, 12.0, 0],  # clipped to a's end
        ["a", 11.0, 12.0, -1],
        ["a", 11.2, 11.7, 6],  # nested in itself
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([10 - 3 - 1 - 1, 2, 2, 0.7, 0.3, 3, 0.5,
                                 0.5])
    summary = tracing.SpanSummary(spans)
    assert summary.calls["a"] == 3
    assert summary.self_s["a"] == pytest.approx(5 + 0.5 + 0.5)
    assert summary.inclusive_s["a"] == pytest.approx(10 + 1)
    assert summary.top_level_s() == pytest.approx(11)
    assert summary.calls_under("e", "a") == 1


def test_generator_spans_cover_only_resumptions():
    tr = tracing.Tracer()

    def numbers():
        yield from range(3)

    gen = tr.wrap("g", numbers)
    assert tr.call("outer", lambda: list(gen())) == [0, 1, 2]
    names = [s[0] for s in tr.spans]
    assert names == ["outer"] + ["g"] * 4
    assert all(s[3] == 0 for s in tr.spans[1:])


def snapshot():
    import rncgeom.equations
    import rncgeom.polynomials

    owners = tracing._rncgeom_modules() + [
        rncgeom.polynomials.MultiPoly, rncgeom.equations.BracketTable]
    return {(id(o), name): value for o in owners
            for name, value in vars(o).items()}


def test_traced_pass_restores_every_patched_name(tmp_path):
    from rncgeom import QQ, instance_to_json, sample_instance

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance_to_json(sample_instance(3, QQ, 2))))
    jobs = [
        workloads.Job("verify", {"castelnuovo": True, "input": str(path)},
                      lambda rc, out: check_verify(
                          rc, out, psi_total=56, castelnuovo=True)),
        workloads.Job("sym-factorization",
                      {"d": 2, "sample": 4, "seed": 1},
                      lambda rc, out: check_records(
                          rc, out, count=4, kind="factorization")),
    ]
    before = snapshot()
    tr = tracing.Tracer()
    with tracing.patched(tr) as patches:
        assert patches
        assert all(getattr(owner, name) is not original
                   for owner, name, original in patches)
        for job in jobs:
            rc, out = workloads.run_in_process(job, tr)
            assert job.check(rc, out) is None
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    names = {s[0] for s in tr.spans}
    assert {"projective.bracket", "projective.glp", "equations.select",
            "staudt.load", "staudt.verify", "curve.fit", "polynomials.mul",
            "polynomials.poly_det"} <= names
    assert tr.counters["equations.minor_lookups"] == 56 * 8

    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("the pass failed")
    assert all(v is snapshot()[k] for k, v in before.items())
