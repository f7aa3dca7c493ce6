"""Assemble the synthetic bundled case files.

For families where only the ambient weights are known, this searches for a
consistent graded matrix format (virtual row weights u_1 <= ... <= u_5 with
2*sum(u) = r + sum(d), all ten entry weights positive integers and the
ideal block fillable), traces the full link once on a seeded general
member, and freezes the result as a .case file with the computed node
count where available.  The basket written is the centre plus the points
the link removes, so it agrees with the link by construction; ROADMAP
item 3 replaces that circular choice.

Run with no arguments:  python scripts/build_cases.py
It rewrites every generated file in src/tomlinks/cases and exits 1 when
some case could not be built.
"""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tomlinks.algebra import AlgebraError
from tomlinks.birational import (
    Basket,
    FanoCase,
    classify_case,
    quotient_token,
    trace_link,
    wall_groups,
    wall_skip_expected,
)
from tomlinks.casefile import _type_i_centre
from tomlinks.groebner import BudgetExceeded
from tomlinks.pfaffian import PAIRS, WeightMatrix5
from tomlinks.unprojection import tom_normalising_permutation

CASES_DIR = Path(__file__).resolve().parent.parent / "src" / "tomlinks" / "cases"


def candidate_weight_matrices(d: tuple[int, ...], r: int):
    """All Tom_1-shaped gradings, best quasilinearity score first.

    Doubled row weights v1 <= ... <= v5 of one parity with sum r + sum(d),
    giving entries m_ij = (v_i + v_j)/2; v1 + v2 >= 2 makes every entry
    positive and v2 + v3 >= 2*d4 puts the ideal block at weight >= d4.
    Distinct v give distinct W, as v_i = m_ij + m_ik - m_jk.
    """
    total = r + sum(d)
    found = []
    lo = -2 * max(d) - r
    for parity in (0, 1):
        def norm(x):  # smallest value >= x with the right parity
            return x if (x - parity) % 2 == 0 else x + 1

        v1_min = norm(lo)
        for v1 in range(v1_min, total // 5 + 1, 2):
            rest1 = total - v1
            for v2 in range(norm(max(v1, 2 - v1)), rest1 // 4 + 1, 2):
                rest2 = rest1 - v2
                for v3 in range(norm(max(v2, 2 * d[3] - v2)), rest2 // 3 + 1, 2):
                    rest3 = rest2 - v3
                    for v4 in range(norm(v3), rest3 // 2 + 1, 2):
                        v5 = rest3 - v4
                        if v5 < v4 or (v5 - parity) % 2:
                            continue
                        v = (v1, v2, v3, v4, v5)
                        W = WeightMatrix5({(i, j): (v[i - 1] + v[j - 1]) // 2
                                           for (i, j) in PAIRS})
                        ideal = [W[p] for p in PAIRS if 1 not in p]
                        if any(all(w < dj for w in ideal) for dj in d):
                            continue
                        score = sum(1 for dj in set(d) for w in ideal if w == dj)
                        found.append((-score, v, W))
    found.sort(key=lambda t: (t[0], t[1]))
    for _, _, W in found:
        yield W


def wall_pivot_potential(W: WeightMatrix5, d, abc) -> list[int]:
    """Per middle wall, how many variables can show a lone scalar linear term
    at the wall point (s not counted).

    Only three monomial shapes survive the t-saturation with no t factor:
    x_i*y_m in a y-linear pfaffian, and y_l*y_m or x_i*y_m^2 in the
    y-quadratic one.  A flip needs about three such pivots, so candidates
    far from that are pruned before the expensive drive.
    """
    pf_lin_degrees = {W.pfaffian_degree(k) for k in (2, 3, 4, 5)}
    pf_quad_degree = W.pfaffian_degree(1)

    groups = wall_groups(d)
    divisorial = len(groups[-1]) == 1
    middle = groups[:-2] if divisorial else groups[:-1]
    out = []
    for wall in middle:
        dm = d[int(wall[0][1]) - 1]
        if len(wall) == 1 and wall_skip_expected(W, dm):
            out.append(3)  # wall expected to be skipped; no pivots needed
            continue
        wall_set = set(wall)
        count = 0
        for i, ai in enumerate(abc, start=1):
            if ai + dm in pf_lin_degrees or ai + 2 * dm == pf_quad_degree:
                count += 1
        for l in (1, 2, 3, 4):
            if f"y{l}" in wall_set:
                continue
            if d[l - 1] + dm == pf_quad_degree:
                count += 1
        out.append(count)
    return out


class _RecordingBasket(Basket):
    """A probe basket whose `remove` records a target it lacks instead of
    raising; every copy shares the one record."""

    def __init__(self, entries, missing):
        super().__init__(entries)
        self.missing = missing

    def copy(self) -> "_RecordingBasket":
        return _RecordingBasket(list(self.entries), self.missing)

    def remove(self, r, weights):
        key = Basket.normal(r, weights)
        if r > 1 and key not in self.entries:
            self.missing.append(key)
        else:
            super().remove(r, weights)


def drive(case: FanoCase, seed: int):
    """Trace once; the trace, or None if it fails or a single-variable wall
    breaks its prediction.  `trace_link`'s Groebner budget bounds the work;
    any error other than a failed link or an exhausted budget is a bug and
    propagates."""
    try:
        trace = trace_link(case, seed=seed)
    except (AlgebraError, BudgetExceeded):
        return None
    return trace if trace.template_ok else None


def finalize(case_id: str, abc, d, r, tom_index, W: WeightMatrix5, seed: int,
             comment: str) -> str | None:
    missing: list = []
    probe = FanoCase(id=case_id, abc=abc, d=d, r=r, tom_k=1,
                     matrix_weights=W, matrix=None,
                     basket=_RecordingBasket([(r, abc)], missing), matrix_seed=seed)
    trace = drive(probe, seed)
    if trace is None:
        return None
    # The written basket is the centre plus the points the link removed but
    # the probe lacked.  A strict trace of it would add nothing: neither the
    # steps nor template_ok read the basket, and with the recorded points
    # added up front, by induction over the steps the strict basket after
    # each step is the recorder's plus the points recorded at later steps,
    # so every removal succeeds.
    basket = Basket([(r, abc)])
    for entry_r, local in missing:
        basket.add(entry_r, local)
    nodes = trace.steps[1].count

    # the Tom_k labelling of W: build_unprojection's normalising
    # permutation takes it back to W
    perm = tom_normalising_permutation(tom_index)
    weights_file = W.permuted({old: new for new, old in perm.items()})
    a, b, c = abc
    lines = [f"# {comment}"]
    lines.append(f"id = {case_id}")
    lines.append(f"ambient = {a} {b} {c} {d[0]} {d[1]} {d[2]} {d[3]} {r}")
    lines.append(f"centre = {quotient_token((r, abc))}")
    lines.append(f"tom_index = {tom_index}")
    toks = " ".join(quotient_token(e) for e in basket.entries)
    lines.append(f"basket = {toks}" if toks else "basket = none")
    if nodes is not None:
        lines.append(f"nodes = {nodes}")
    lines.append("matrix_weights = " + " ".join(str(w) for w in weights_file.as_list()))
    lines.append(f"matrix = GENERAL {seed}")
    return "\n".join(lines) + "\n"


def write_first(case_id: str, attempts):
    """Finalize each attempt (abc, d, r, tom_index, W, comment) in turn and
    write the first that passes as `case_id`.case; the attempt written, or
    None after printing FAILED."""
    for attempt in attempts:
        abc, d, r, tom_index, W, comment = attempt
        text = finalize(case_id, abc, d, r, tom_index, W, seed=0, comment=comment)
        if text is not None:
            (CASES_DIR / f"{case_id}.case").write_text(text)
            print(f"wrote {case_id}.case  r={r} abc={abc} d={d} m={W.as_list()}", flush=True)
            return attempt
    print(f"FAILED to build {case_id}", flush=True)
    return None


FIXED = [
    # (id, abc, d, r, weight list m12..m45, comment)
    ("6865", (1, 1, 2), (3, 2, 2, 2), 3, [1, 1, 2, 2, 2, 3, 3, 3, 3, 4],
     "ideal-weight pattern d1>d2=d3=d4 with a square pairing at weight d1: the flip is skipped"),
    ("tag-iii", (1, 1, 1), (3, 3, 2, 1), 2, [1, 1, 1, 1, 3, 3, 3, 3, 3, 3],
     "synthetic d1=d2>d3>d4 demo: simultaneous flips then a divisorial contraction"),
    ("tag-vii", (1, 1, 1), (2, 2, 2, 1), 2, [1, 1, 2, 2, 1, 2, 2, 2, 2, 3],
     "synthetic d1=d2=d3>d4 demo: straight to a divisorial contraction"),
    ("tag-viii", (1, 1, 1), (2, 2, 2, 2), 2, [2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
     "synthetic d1=d2=d3=d4 demo: conic bundle over the ideal-variable space"),
]

SKIP_DEMO_D_CHOICES = [
    (3, 2, 2, 1), (4, 2, 2, 1), (4, 3, 3, 2), (4, 3, 3, 1),
    (5, 3, 3, 2), (5, 4, 4, 3), (5, 4, 4, 2),
]

TAG_IV_D_CHOICES = [(3, 2, 1, 1), (4, 3, 2, 2), (4, 2, 1, 1), (4, 3, 1, 1), (5, 4, 3, 3)]


def skip_demo_attempts(taken):
    """d1>d2=d3>d4 families with a square pairing at weight d1 (the first
    wall crossing restricts to an isomorphism), at most 20 gradings per d,
    leaving out `taken` so that each demo gets its own grading."""
    comment = ("ideal-weight pattern d1>d2=d3>d4 with a square pairing at weight d1: "
               "the first wall is skipped")
    for d in SKIP_DEMO_D_CHOICES:
        attempts = (((1, 1, 1), d, 2, 1, W, comment) for W in candidate_weight_matrices(d, 2)
                    if wall_skip_expected(W, d[0]))
        yield from islice((a for a in attempts if a != taken), 20)


def tag_iv_attempts():
    """d1>d2>d3=d4 families where neither flip wall is skipped, at most 20
    gradings per d."""
    comment = "synthetic d1>d2>d3=d4 demo: two flips then a del Pezzo fibration"
    for d in TAG_IV_D_CHOICES:
        fits = (W for W in candidate_weight_matrices(d, 2)
                if not wall_skip_expected(W, d[0]) and not wall_skip_expected(W, d[1]))
        for W in islice(fits, 20):
            yield (1, 1, 1), d, 2, 1, W, comment


TABLE1 = [
    # (file id, ambient weights, preferred centre index r or None, tom index)
    ("1169", (1, 2, 3, 4, 5, 7, 7, 9), None, 1),
    ("1253", (1, 2, 3, 4, 4, 5, 5, 7), None, 1),
    ("4925", (1, 1, 3, 4, 5, 6, 7, 7), None, 1),
    ("5177", (1, 1, 2, 3, 4, 5, 5, 6), None, 1),
    ("5279", (1, 1, 2, 3, 3, 4, 5, 5), 5, 1),
    ("5305", (1, 1, 2, 3, 3, 4, 4, 5), 5, 1),
    ("5963", (1, 1, 2, 2, 3, 3, 3, 5), 3, 1),
    ("11005", (1, 1, 1, 2, 3, 3, 4, 5), None, 1),
    ("11125-t1", (1, 1, 1, 2, 2, 3, 3, 4), 2, 1),
    ("11125-t2", (1, 1, 1, 2, 2, 3, 3, 4), 4, 2),
    ("11455", (1, 1, 1, 2, 2, 2, 3, 3), 3, 1),
    ("16339", (1, 1, 1, 1, 2, 2, 2, 3), 2, 1),
]


def centre_candidates(weights: tuple[int, ...], prefer: int | None):
    """(r, abc, d) for each centre 1/r(1, b, r - b) the ambient weights allow,
    largest r first; each b is drawn once."""
    ws = list(weights)
    rs = sorted(set(ws), reverse=True)
    if prefer is not None:
        rs = [prefer]
    for r in rs:
        rest = list(ws)
        rest.remove(r)
        if 1 not in rest:
            continue
        pool = list(rest)
        pool.remove(1)
        for b in sorted(set(pool)):
            c = r - b
            if c < b:
                break
            if c not in pool or (b == c and pool.count(b) < 2):
                continue
            abc = (1, b, c)
            if not _type_i_centre(r, abc):
                continue
            d_pool = list(pool)
            d_pool.remove(b)
            d_pool.remove(c)
            d = tuple(sorted(d_pool, reverse=True))
            yield r, abc, d


def table1_attempts(ambient: tuple[int, ...], prefer: int | None, tom_index: int):
    """Per centre with a divisorial pattern, at most 40 gradings whose middle
    walls all show at least three pivots, fewest surplus pivots first."""
    for r, abc, d in centre_candidates(ambient, prefer):
        tag = classify_case(d)
        if tag not in ("i", "ii", "iii", "vii"):
            continue  # the Picard chain needs a divisorial endpoint
        ranked = []
        for W in candidate_weight_matrices(d, r):
            pots = wall_pivot_potential(W, d, abc)
            if all(p >= 3 for p in pots):
                ranked.append((sum(p - 3 for p in pots), W))
        ranked.sort(key=lambda t: t[0])
        comment = f"Picard-rank table row: divisorial link, pattern ({tag})"
        for _, W in ranked[:40]:
            yield abc, d, r, tom_index, W, comment


def build_all() -> list[str]:
    """Write every generated case file into CASES_DIR; the ids of the cases
    that could not be built."""
    CASES_DIR.mkdir(exist_ok=True)
    written = {}
    for case_id, abc, d, r, weights, comment in FIXED:
        written[case_id] = write_first(
            case_id, [(abc, d, r, 1, WeightMatrix5.from_list(weights), comment)])
    written["1218"] = write_first("1218", skip_demo_attempts(None))
    written["1413"] = write_first("1413", skip_demo_attempts(written["1218"]))
    written["tag-iv"] = write_first("tag-iv", tag_iv_attempts())
    for case_id, ambient, prefer, tom_index in TABLE1:
        written[case_id] = write_first(case_id, table1_attempts(ambient, prefer, tom_index))
    return [case_id for case_id, attempt in written.items() if attempt is None]


if __name__ == "__main__":
    raise SystemExit(1 if build_all() else 0)
