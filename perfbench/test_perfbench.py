"""The benchmark's own tests: the gate must catch known mutations, and the
tracer must cover the time it claims and leave the library as it found it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gzip
import json

import run
import workloads
from tracing import Tracer

lib = workloads.import_library()
exactfield, quadforms, smallfields = lib.exactfield, lib.quadforms, lib.smallfields
from isogeny_kit import algebras, spin_eight  # noqa: E402


def _pass(workload, tmp_path, seed=0):
    plan = workloads.Plan(workload, seed, str(tmp_path), lib)
    return run.gate(run.run_passes(plan, 0, passes=1))


def test_closed_forms_match_the_classical_table():
    # the census table and the benchmark's closed forms are written apart
    for (dim, disc), (formula, _ident) in smallfields.CLASSICAL.items():
        for q in (3, 5, 7, 11):
            assert workloads.so_order(q, dim, disc is not False) == formula(q)


def test_census_closed_forms_catch_a_corrupted_count(tmp_path, monkeypatch):
    out = str(tmp_path / "census.json")
    clean = workloads.census_op(lib, 3, 4, out).run()
    assert clean[1] == []
    report = json.loads(open(out).read())
    report["rows"][3]["SO"] += 2
    report["rows"][3]["SO+"] += 1
    assert workloads.census_problems(report, 3, 4)

    to_json = smallfields.CensusRow.to_json

    def corrupted(row):
        data = to_json(row)
        if row.dim == 4:
            data["SO"] *= 2
        return data
    monkeypatch.setattr(smallfields.CensusRow, "to_json", corrupted)
    outcomes, correct = _pass("census", tmp_path)
    assert not correct
    bad = {o["label"] for o in outcomes if o["problems"]}
    assert bad == {"census/3/6", "census/5/4", "census/7/4"}
    assert all(any("closed form" in p for p in o["problems"])
               for o in outcomes if o["label"] in bad)


def test_suites_fp_gate_catches_the_D_sign_flip(tmp_path, monkeypatch):
    def d_bad_pair(eta, omega):
        ring = eta.algebra.ring
        pr = algebras.albert_pair(eta, algebras.theta(omega))
        return ring.one() - pr - pr + algebras.albert_norm(omega) * algebras.albert_norm(eta)
    monkeypatch.setattr(spin_eight, "D", d_bad_pair)
    outcomes, correct = _pass("suites-fp", tmp_path)
    assert not correct
    assert any(o["label"].endswith("/normsq") and o["problems"] for o in outcomes)


def test_failures_are_recorded_and_the_workload_goes_on(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")
    monkeypatch.setattr(quadforms, "cartan_dieudonne", broken)
    plan = workloads.Plan("cartan-dieudonne", 3, str(tmp_path), lib)
    plan.cd = plan.cd[:40]
    records = run.run_passes(plan, 0, passes=1)
    outcomes, correct = run.gate(records)
    assert len(outcomes) == 40
    assert all(o["failed"] and o["record"] == {"error": "RuntimeError: injected"}
               for o in outcomes)
    assert not correct


def test_tracer_covers_its_time_and_uninstalls(tmp_path):
    plan = workloads.Plan("cartan-dieudonne", 5, str(tmp_path), lib)
    plan.cd = plan.cd[::8]
    before = {name: vars(quadforms)[name] for name in ("cartan_dieudonne", "reflect")}
    scalar_mul = vars(exactfield.Scalar)["__mul__"]
    tracer = Tracer().install()
    assert quadforms.cartan_dieudonne is not before["cartan_dieudonne"]
    try:
        record = run.run_passes(plan, 0, passes=1, tracer=tracer)[0]
    finally:
        tracer.uninstall()
    assert {name: vars(quadforms)[name] for name in before} == before
    assert vars(exactfield.Scalar)["__mul__"] is scalar_mul
    covered = sum(tracer.layer_self)
    assert 0 < covered <= record["seconds"]
    assert tracer.key_calls("quadforms.cartan_dieudonne") == 2 * len(plan.cd)
    assert tracer.counts["exactfield.scalar_ops"] > 0
    assert tracer.layer_calls("cli") == 0
    ids = set(tracer.spans["id"])
    assert all(p == -1 or p in ids for p in tracer.spans["parent"])
    path = str(tmp_path / "spans.tsv.gz")
    tracer.write_spans(path)
    with gzip.open(path, "rt") as fh:
        head = fh.readline().split()
        rows = sum(1 for _ in fh) - 1
    assert head[1:7] == ["spans", str(tracer.next_span), "kept", str(rows),
                         "dropped", str(tracer.next_span - rows)]
