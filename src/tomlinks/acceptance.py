"""The acceptance battery: every exit criterion, exact tolerances, one
pass/fail line per item.

Two sub-checks are tagged known_defect: the worked-example node count and
the discriminant root positions recorded in the source data contradict the
same source's displayed matrices, from which this implementation computes.
The battery asserts the recorded values faithfully and reports the failure
instead of silently retargeting; see the decisions ledger, DECISIONS.md at
the repository root, for the full analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import AlgebraError, NotDivisible, det, dot, exact_divide, parse
from .birational import (
    DelPezzoFibration,
    DivisorialContractionToFano,
    Flip,
    Isomorphism,
    LinkError,
    SimultaneousFlips,
    compute_deltas,
    kawamata_scroll,
    minors_ideal,
    on_plane,
    picard_report,
    trace_link,
    verify_blowup_saturation,
)
from .casefile import load_bundled
from .groebner import DEFAULT_BUDGET, BudgetExceeded, projective_dim_degree
from .pfaffian import TomFormat, build_general_tom, maximal_pfaffians
from .unprojection import build_unprojection, verify_unprojection


@dataclass
class AcceptanceResult:
    criterion: str
    name: str
    passed: bool
    detail: str = ""
    known_defect: bool = False


def _case(name):
    return load_bundled(name).to_fano_case()


# the five blow-up pfaffian equations of the first worked example; the third
# carries x3^4*y3 (the displayed variant with an extra t factor fails the
# scroll bigrading, so the t there is a typo)
DISPLAY_Y1_10985 = [
    "t*y4^2 + x1*x2^2*y4 - x1*y2 - x2^3*y4 + x2*x3*y3",
    "-t*y4*y3 - x1*y1 - x2*x3*y2 + x3^4*y4",
    "-t*y4*y2 + t*y3^2 + x1^5*y4 + x2^3*y2 - x3^4*y3",
    "t*y4*y1 + t*y3*y2 + x1^4*x2*x3*y4 + x1*x2^2*y1 + x2^3*x3*y2 - x2^3*y1 - x3^4*y2",
    "x1^4*y4^2 + x2^2*y4*y2 - y3*y1 - y2^2",
]

DISPLAY_ENDPOINT_10985 = [
    "x1*x2^2*y3 - x1*y3*y2 - x1*y1 - x2^3*y3 + x2*x3*y3^2 - x2*x3*y2 + x3^4",
    "x1^4 + x2^2*y2 - y3*y1 - y2^2",
]


def criterion_1(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    """Worked example one: full pipeline, everything exact."""
    out = []
    case = _case("10985")
    trace = trace_link(case, seed=0, budget=budget)
    S = kawamata_scroll(case)

    targets = [parse(t, S) for t in DISPLAY_Y1_10985]
    gens = trace.blowup.generators[:5]
    matched = all(any(h == t or h == -t for h in gens) for t in targets)
    out.append(AcceptanceResult(
        "1a", "pfaffian blow-up equations match the displayed five, up to sign per "
        "equation (third display corrected for bigrading)", matched))

    nodes = trace.steps[1].count
    out.append(AcceptanceResult("1b", "flop count = 24", nodes == 24, f"computed {nodes}"))

    flip = trace.steps[2]
    ok = isinstance(flip, Flip) and flip.weights == (6, 1, 1, -1, -3) \
        and flip.hypersurface_degree == 3
    out.append(AcceptanceResult("1c", "flip (6,1,1,-1,-3; 3)", ok))

    out.append(AcceptanceResult(
        "1d", "second ideal wall is an isomorphism",
        isinstance(trace.steps[3], Isomorphism) and trace.steps[3].wall == ("y2",)))

    ep = trace.steps[4].endpoint if isinstance(trace.steps[4], DivisorialContractionToFano) else None
    ok = ep is not None and sorted(ep.weights) == [1, 1, 1, 1, 2, 3] and ep.degrees == (4, 4)
    if ok:
        ring = ep.ring
        targets = [parse(t, ring) for t in DISPLAY_ENDPOINT_10985]
        ok = all(any(e == t or e == -t for e in ep.equations) for t in targets)
    out.append(AcceptanceResult(
        "1e", "endpoint: two degree-4 equations in P5(1,1,1,1,2,3) matching the "
        "displayed pair up to sign", bool(ok)))

    chain = [str(b) for b in trace.baskets]
    want = ["{1/2(1,1,1), 1/6(1,1,5)}", "{1/6(1,1,5)}", "{1/6(1,1,5)}",
            "{1/3(1,1,2)}", "{1/3(1,1,2)}", "{1/3(1,1,2)}"]
    out.append(AcceptanceResult(
        "1f", "basket evolution {1/2,1/6} -> {1/6} -> {1/3} -> {1/3}",
        chain == want, " -> ".join(chain)))
    return out


def criterion_2(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    out = []
    trace = trace_link(_case("20652"), seed=0, budget=budget)
    nodes = trace.steps[1].count
    out.append(AcceptanceResult("2a", "flop count = 7", nodes == 7, f"computed {nodes}"))
    sf = trace.steps[2]
    ok = isinstance(sf, SimultaneousFlips) and \
        all(f.weights == (2, 1, -1, -1) for f in sf.flips)
    out.append(AcceptanceResult("2b", "two simultaneous flips, both (2,1,-1,-1)", ok))
    dp = trace.steps[3]
    out.append(AcceptanceResult(
        "2c", "del Pezzo fibration of degree 5",
        isinstance(dp, DelPezzoFibration) and dp.degree == 5,
        f"degree {getattr(dp, 'degree', None)}"))
    return out


def criterion_3(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    out = []
    trace = trace_link(_case("24097"), seed=0, budget=budget)
    nodes = trace.steps[1].count
    flop_ok = nodes == 8
    out.append(AcceptanceResult(
        "3a", "flop count = 8 (recorded value)", flop_ok,
        f"computed {nodes}: the displayed matrix "
        "and equations of the worked example give 6 by two independent counts",
        known_defect=not flop_ok))
    flip = trace.steps[2]
    out.append(AcceptanceResult(
        "3b", "Francia flip (2,1,-1,-1)",
        isinstance(flip, Flip) and flip.weights == (2, 1, -1, -1)))
    conic = trace.steps[3]

    dets = dict(conic.patch_determinants)

    def proportional(patch, target) -> bool:
        d = dets.get(patch)
        try:  # d = c*target, c a nonzero constant, exactly when d/target has degree 0
            return bool(d) and exact_divide(d, parse(target, d.ring)).degree() == 0
        except NotDivisible:
            return False

    recorded = proportional("y2", "y3^4 + y3^5") and proportional("y3", "y2 + y2^2")
    out.append(AcceptanceResult(
        "3c", "patch determinants proportional to y3^4(1+y3) and y2(1+y2) "
        "(recorded values)", recorded,
        "the displayed Gram matrices force roots at +1, i.e. y3^4(y3-1) and y2(y2-1)",
        known_defect=not recorded))
    computed = proportional("y2", "y3^5 - y3^4") and proportional("y3", "y2^2 - y2")
    out.append(AcceptanceResult(
        "3d", "patch determinants proportional to the displayed Gram matrix "
        "determinants y3^4(y3-1) and y2(y2-1)", computed))
    degrees = [d.degree() for d in dets.values()]
    sums = "+".join(map(str, degrees)) + f"-{conic.overlap}={conic.discriminant_degree}"
    out.append(AcceptanceResult(
        "3e", "discriminant degree 6 with overlap correction",
        conic.discriminant_degree == 6 and conic.overlap == 1 and sorted(degrees) == [2, 5],
        sums if degrees else conic.note))
    return out


def criterion_4(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    """Saturation oracle: the divided equations h span the t-saturation of
    the pull-back, certified by r_i = t^{k_i}*h_i and one Groebner basis of
    (h) with no element divisible by t (`verify_blowup_saturation`)."""
    out = []
    for name in ("10985", "20652"):
        ok = verify_blowup_saturation(_seed0_trace(name, budget).blowup, budget)
        out.append(AcceptanceResult(
            "4", f"saturation oracle equality on {name}", ok))
    return out


SEEDED = [("10985", 9), ("20652", 8), ("24097", 8)]  # 25 members total


@lru_cache(maxsize=None)
def _seeded_members():
    """(label, case, general Tom matrix, its unprojection) of each SEEDED
    member; criteria 5 and 7 read the same members, so each is built once."""
    out = []
    for name, n_seeds in SEEDED:
        case = _case(name)
        fmt = TomFormat(case.tom_k)
        for seed in range(n_seeds):
            M = build_general_tom(case.matrix_weights, fmt, case.ambient6, seed)
            out.append((f"{name}/{seed}", case, M, build_unprojection(M, fmt, case.r)))
    return out


def criterion_5(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    bad: list[str] = []
    members = _seeded_members()
    for label, case, M, res in members:
        pf = maximal_pfaffians(M)
        for i in range(1, 6):
            if dot((1, M[(i, j)], pf[j - 1]) for j in range(1, 6)):
                bad.append(f"{label}: M.Pf != 0")
        rep = verify_unprojection(res, case.d, budget=budget)
        if not rep.ok():
            bad.append(f"{label}: {rep}")
    return [AcceptanceResult(
        "5", f"unprojection identity suite on {len(members)} seeded general members",
        not bad, "; ".join(bad[:3]))]


TAG_CASES = {
    "i": "10985", "ii": "1218", "iii": "tag-iii", "iv": "tag-iv",
    "v": "20652", "vi": "24097", "vii": "tag-vii", "viii": "tag-viii",
}


@lru_cache(maxsize=None)
def _seed0_trace(name: str, budget: int):
    """The seed-0 trace of bundled case `name`.

    Criteria 4, 6, 8 and 9 only read their traces, so each case is traced once.
    Criteria 1-3 call `trace_link` themselves, through the module attribute,
    so that a caller can hand them another trace.
    """
    return trace_link(_case(name), seed=0, budget=budget)


def criterion_6(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    out = []
    for tag, name in TAG_CASES.items():
        trace = _seed0_trace(name, budget)
        out.append(AcceptanceResult(
            "6", f"tag ({tag}) trace for {name} matches the template",
            trace.tag == tag and trace.template_ok,
            "; ".join(trace.template_notes)))
    trace = _seed0_trace("10985", budget)
    out.append(AcceptanceResult(
        "6", "skipped-flip rule fires on the second ideal wall of 10985",
        isinstance(trace.steps[3], Isomorphism)))
    for name in ("1218", "1413", "6865"):
        trace = _seed0_trace(name, budget)
        skipped = any(isinstance(s, Isomorphism) for s in trace.steps)
        out.append(AcceptanceResult(
            "6", f"{name}: documented skipped step appears", skipped and trace.template_ok,
            "; ".join(trace.template_notes)))
    return out


def criterion_7(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    bad = []
    members = _seeded_members()
    for label, case, _, res in members:
        try:
            compute_deltas(res.g, case)  # raises unless delta_j = r + d_j
        except LinkError as e:
            bad.append(f"{label}: {e}")
    return [AcceptanceResult(
        "7", f"delta lemma on {len(members)} seeded members: d_j <= delta_j = r + d_j",
        not bad, "; ".join(bad[:3]))]


def criterion_8(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    # p^T Q = 0 at y = 0, with p != 0 there, makes det A identically 0, so
    # rank A <= 3 everywhere; the node locus is V(3x3 minors), so A has
    # rank exactly 3 off it once a 3x3 minor is a nonzero polynomial, and
    # every 3x3 minor lies in the ideal of the 2x2 minors (Laplace expansion);
    # rank >= 2 everywhere is an empty zero set of the 2x2 minors, dimension -1
    out = []
    for name in ("10985", "20652", "24097"):
        A = [on_plane(column) for column in zip(*_seed0_trace(name, budget).unprojection.Q)]
        P2 = A[0][0].ring
        ok = (det(A).is_zero() and bool(minors_ideal(A, P2, 3).generators)
              and projective_dim_degree(minors_ideal(A, P2, 2), budget)[0] == -1)
        out.append(AcceptanceResult(
            "8", f"{name}: rank 3 off the nodes (det 0, a nonzero 3x3 minor), rank exactly 2 "
            "on the whole node locus", ok))
    return out


TABLE1_ROWS = ["1169", "1253", "4925", "5177", "5279", "5305", "5963",
               "11005", "11125-t1", "11125-t2", "11455", "16339"]


# minimal generator count of a Picard-table endpoint: a complete
# intersection of two equations in codimension 2, five Pfaffians in codimension 3
ENDPOINT_GENERATORS = {2: 2, 3: 5}


def criterion_9(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    out = []
    for name in TABLE1_ROWS:
        try:
            trace = _seed0_trace(name, budget)
            rep = picard_report(trace, endpoint_quasismooth=True)
            ok = rep.rho == 1
            detail = "" if ok else "; ".join(rep.chain)
            if ok:
                ep = trace.endpoint.endpoint
                want = ENDPOINT_GENERATORS.get(ep.codim)
                ok = ep.minimal_certified and len(ep.equations) == want
                detail = "" if ok else (
                    f"endpoint of codimension {ep.codim}: {len(ep.equations)} generators "
                    f"(want {want}), minimality certified: {ep.minimal_certified}")
        except (AlgebraError, BudgetExceeded) as e:
            ok, detail = False, str(e)
        out.append(AcceptanceResult("9", f"{name}: rho = 1 derivation chain", ok, detail))
    return out


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_acceptance(budget: int = DEFAULT_BUDGET) -> list[AcceptanceResult]:
    return [r for criterion in CRITERIA for r in criterion(budget)]
