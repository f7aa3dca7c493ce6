"""Tests of the benchmark itself: its output gate must be able to fail.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tomlinks import algebra, birational, groebner, unprojection  # noqa: E402
from tomlinks.groebner import BudgetExceeded  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _op(ops, label):
    return next(op for op in ops if op.label == label)


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = run.Outcome()
    out.pass_times, out.op_times, out.attempted = [1.0], {"10985": [1.0]}, 1
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(out, 1.0))
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer(out, []))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_link_sweep_passes_and_shows_known_defects():
    ops = workloads.link_sweep(1)
    for label in ("10985", "24097"):
        op = _op(ops, label)
        failures, defects = op.check(op.run())
        assert failures == []
    assert [d.split(":")[0] for d in defects] == ["3a", "3c"]


def test_mutated_10985_report_fails():
    op = _op(workloads.link_sweep(0), "10985")
    trace, data, emitted = op.run()
    data["steps"][1]["count"] = 25
    mutated = workloads.Op("10985", lambda: (trace, data, emitted), op.check)
    out = run.run_passes([mutated], seconds=0)
    assert (out.attempted, out.failed) == (1, 1)
    assert "golden" in out.failures[0]


def test_stubbed_oracle_returning_false_fails(monkeypatch):
    monkeypatch.setattr(birational, "verify_blowup_saturation", lambda blow: False)
    out = run.run_passes(workloads.saturation_oracle(0), seconds=0)
    assert (out.attempted, out.failed) == (1, 1)


def test_wrong_deltas_fail(monkeypatch):
    real = birational.compute_deltas
    monkeypatch.setattr(birational, "compute_deltas",
                        lambda g, case: tuple(d + 1 for d in real(g, case)))
    out = run.run_passes(workloads.member_sweep(0)[1:2], seconds=0)
    assert (out.attempted, out.failed) == (1, 1)
    assert "deltas" in out.failures[0]


def test_exception_counts_as_failure():
    def over_budget():
        raise BudgetExceeded(10)

    op = workloads.Op("x", over_budget, workloads.check_oracle)
    out = run.run_passes([op, workloads.Op("y", lambda: True, workloads.check_oracle)],
                         seconds=0)
    assert (out.attempted, out.failed) == (2, 1)
    assert out.failures[0].startswith("x: BudgetExceeded")


def test_layer_metrics_self_time_and_callers():
    spans = [
        ["birational.endpoint_fano", 0.0, 10.0, None, 0, None, True],
        ["groebner.buchberger", 1.0, 4.0, 0, 0, "BudgetExceeded", None],
        ["groebner.buchberger", 5.0, 6.0, 0, 0, None, 3],
        ["groebner.buchberger", 11.0, 13.0, None, 1, None, 5],
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["birational.endpoint_fano.self_s"] == 6.0
    assert (m["groebner.buchberger.calls"], m["groebner.buchberger.s"]) == (3, 6.0)
    assert (m["groebner.buchberger.exceeded"], m["groebner.buchberger.wasted_s"]) == (1, 3.0)
    assert m["groebner.buchberger.basis_max"] == 5
    assert m["groebner.buchberger.under.endpoint_fano.calls"] == 2
    assert m["groebner.buchberger.under.endpoint_fano.basis_max"] == 3
    assert m["birational.endpoint.certified_ratio"] == 1.0


def test_tracer_catches_copied_names_and_restores_them():
    case = workloads._load("24097")
    fmt = workloads.pfaffian.TomFormat(case.tom_k)
    with Tracer() as tracer:
        assert unprojection.exact_divide is algebra.exact_divide
        assert hasattr(algebra.exact_divide, "__wrapped__")
        tracer.recording = True
        unprojection.build_unprojection(case.build_matrix(0), fmt, case.r)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "unprojection.build_unprojection"
    divides = [s for s in tracer.spans if s[0] == "algebra.exact_divide"]
    assert divides and all(s[3] == 0 for s in divides)
    assert unprojection.exact_divide is algebra.exact_divide
    assert birational.buchberger is groebner.buchberger
    assert not hasattr(groebner.buchberger, "__wrapped__")


def test_empty_checkout_fails_without_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
