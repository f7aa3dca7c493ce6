"""The benchmark's workloads: one pass of operations per workload and seed.

Every operation has a timed part, which is what a user of tomlinks waits
for, and an untimed check of its output.  Any exception, BudgetExceeded
included, and any wrong output count the operation as failed.

The program is called through module attributes (`birational.trace_link`,
never a copied name), so the tracer's rebinding reaches these calls too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from tomlinks import acceptance, birational, casefile, pfaffian, report, unprojection

# The 22 bundled cases, fixed here so that a case added to the package
# later does not change the benchmark's work.
LINK_CASES = (
    "10985", "11005", "11125-t1", "11125-t2", "11455", "1169", "1218", "1253",
    "1413", "16339", "20652", "24097", "4925", "5177", "5279", "5305", "5963",
    "6865", "tag-iii", "tag-iv", "tag-vii", "tag-viii",
)
# The selftest criteria that pin the facts of the three worked examples.
WORKED_EXAMPLES = {
    "10985": acceptance.criterion_1,
    "20652": acceptance.criterion_2,
    "24097": acceptance.criterion_3,
}
# The cheapest bundled case for the saturation oracle: about 22 s on a
# 2-CPU x86 machine, against about 44 s for 10985 and over 45 s for every
# other bundled case.
ORACLE_CASE = "1218"
# Criteria 5 and 7 draw their members from the weights of the worked examples.
MEMBER_WEIGHTS = ("10985", "20652", "24097")
MEMBERS_PER_WEIGHTS = 5


@dataclass
class Op:
    """One operation: `run` is timed; `check(result)` returns the reasons it
    failed and the known defects it showed, both empty on a clean pass."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], list[str]]]


def _load(name: str):
    return casefile.load_bundled(name).to_fano_case()


# ---------------------------------------------------------------------------
# link-sweep: the user's main path, `tomlinks trace --json` on every case

def _golden_10985(seed: int) -> str:
    path = casefile.bundled_path("10985").with_suffix(".golden")
    golden = path.read_text(encoding="utf-8").replace("\r\n", "\n")
    return golden.replace("\nseed = 0\n", f"\nseed = {seed}\n")


def worked_example_results(name: str, trace) -> list:
    """The selftest criterion of a worked example, evaluated on `trace`."""
    original = acceptance.trace_link
    acceptance.trace_link = lambda *args, **kwargs: trace
    try:
        return WORKED_EXAMPLES[name]()
    finally:
        acceptance.trace_link = original


def check_link(name: str, result, golden: str | None):
    trace, data, emitted = result
    failures, defects = [], []
    if not trace.template_ok:
        failures.append("template_ok is False: " + "; ".join(trace.template_notes))
    if json.loads(emitted)["case"]["id"] != name:
        failures.append("emitted report names another case")
    if golden is not None and report.emit(data) != golden:
        failures.append("report differs from the bundled golden")
    if name in WORKED_EXAMPLES:
        for r in worked_example_results(name, trace):
            if r.passed:
                continue
            line = f"{r.criterion}: {r.name}" + (f" ({r.detail})" if r.detail else "")
            (defects if r.known_defect else failures).append(line)
    return failures, defects


def link_sweep(seed: int) -> list[Op]:
    names = list(LINK_CASES)
    random.Random(seed).shuffle(names)
    ops = []
    for name in names:
        case = _load(name)
        golden = _golden_10985(seed) if name == "10985" else None

        def run(case=case):
            trace = birational.trace_link(case, seed=seed)
            data = report.trace_dict(trace, seed)
            return trace, data, report.emit(data, True)

        def check(result, name=name, golden=golden):
            return check_link(name, result, golden)

        ops.append(Op(name, run, check))
    return ops


# ---------------------------------------------------------------------------
# saturation-oracle: the Groebner layer on a few huge bases

def check_oracle(result):
    return ([] if result is True else [f"saturation oracle returned {result!r}"]), []


def oracle_op(name: str, seed: int) -> Op:
    """`tomlinks blowup --case <name>`: the blow-up and its saturation oracle."""
    case = _load(name)

    def run():
        res = unprojection.build_unprojection(
            case.build_matrix(seed), pfaffian.TomFormat(case.tom_k), case.r)
        blow = birational.blowup_ideal(res, birational.kawamata_scroll(case), case)
        return birational.verify_blowup_saturation(blow)

    return Op(name, run, check_oracle)


def saturation_oracle(seed: int) -> list[Op]:
    return [oracle_op(ORACLE_CASE, seed)]


# ---------------------------------------------------------------------------
# member-sweep: criteria 5 and 7 on seeded general members

def check_member(case, result):
    rows, rep, deltas = result
    failures = []
    if any(not row.is_zero() for row in rows):
        failures.append("M.Pf != 0")
    if not rep.ok():
        failures.append(f"unprojection verification failed: {rep}")
    want = tuple(case.r + dj for dj in case.d)
    if deltas != want:
        failures.append(f"deltas {deltas} != r + d_j = {want}")
    return failures, []


def member_sweep(seed: int) -> list[Op]:
    ops = []
    cases = {name: _load(name) for name in MEMBER_WEIGHTS}
    for i in range(MEMBERS_PER_WEIGHTS):
        for name, case in cases.items():
            member_seed = seed * 1000 + i

            def run(case=case, member_seed=member_seed):
                fmt = pfaffian.TomFormat(case.tom_k)
                M = pfaffian.build_general_tom(case.matrix_weights, fmt, case.ambient6, member_seed)
                pf = pfaffian.maximal_pfaffians(M)
                rows = [sum((M[(r, c)] * pf[c - 1] for c in range(1, 6)), case.ambient6.zero())
                        for r in range(1, 6)]
                res = unprojection.build_unprojection(M, fmt, case.r)
                rep = unprojection.verify_unprojection(res, case.d)
                return rows, rep, birational.compute_deltas(res.g, case)

            def check(result, case=case):
                return check_member(case, result)

            ops.append(Op(f"{name}/{member_seed}", run, check))
    return ops


WORKLOADS = {
    "link-sweep": link_sweep,
    "saturation-oracle": saturation_oracle,
    "member-sweep": member_sweep,
}
