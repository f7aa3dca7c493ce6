"""Command line interface: unproject | blowup | trace | selftest | examples.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 Groebner
budget exceeded.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .acceptance import run_acceptance
from .algebra import AlgebraError
from .birational import kawamata_scroll, blowup_ideal, trace_link, verify_blowup_saturation
from .casefile import CaseFileError, bundled_case_names, bundled_path, load_bundled, parse_case
from .groebner import DEFAULT_BUDGET, BudgetExceeded
from .pfaffian import TomFormat
from .report import emit, trace_dict, unprojection_dict
from .unprojection import build_unprojection, verify_unprojection

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_case(args):
    """The bundled case of that name, or else the case file at that path."""
    if args.case in bundled_case_names():
        return load_bundled(args.case).to_fano_case()
    return parse_case(args.case).to_fano_case()


def _budget(text: str) -> int:
    """The --budget value: a number of reduction steps, 0 or more."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number of reduction steps, got {text!r}")
    return int(text)


def _common(parser):
    parser.add_argument("--case", required=True,
                        help="path to a .case file, or the name of a bundled case")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                        help="cap on Groebner reduction steps")
    parser.add_argument("--json", action="store_true",
                        help="emit a single-line machine-readable report")
    parser.add_argument("--timings", action="store_true",
                        help="append wall-clock timings (excluded from goldens)")


def _finish(args, t0: float, data: dict, ok: bool) -> int:
    """Attach the timings on request, print the report and give the exit code."""
    if args.timings:
        data["timings"] = {"seconds": round(time.perf_counter() - t0, 3)}
    sys.stdout.write(emit(data, args.json))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_unproject(args) -> int:
    case = _load_case(args)
    t0 = time.perf_counter()
    res = build_unprojection(case.build_matrix(args.seed), TomFormat(case.tom_k), case.r)
    rep = verify_unprojection(res, case.d, budget=args.budget)
    data = {
        "tool_version": __version__,
        "seed": args.seed,
        "case": {"id": case.id},
        "unprojection": unprojection_dict(res, rep),
        "equations": [str(e) for e in res.X_ideal.generators],
    }
    return _finish(args, t0, data, rep.ok())


def cmd_blowup(args) -> int:
    case = _load_case(args)
    t0 = time.perf_counter()
    res = build_unprojection(case.build_matrix(args.seed), TomFormat(case.tom_k), case.r)
    S = kawamata_scroll(case)
    blow = blowup_ideal(res, S, case)
    data = {
        "tool_version": __version__,
        "seed": args.seed,
        "case": {"id": case.id},
        "scroll": {"top": list(S.top), "bottom": list(S.bottom)},
        "deltas": list(blow.deltas),
        "t_exponents": list(blow.t_exponents),
        "equations": [str(h) for h in blow.generators],
    }
    if not args.skip_saturation_oracle:
        data["saturation_oracle"] = verify_blowup_saturation(blow, args.budget)
    return _finish(args, t0, data, data.get("saturation_oracle", True))


def cmd_trace(args) -> int:
    case = _load_case(args)
    t0 = time.perf_counter()
    trace = trace_link(case, seed=args.seed, budget=args.budget)
    data = trace_dict(trace, args.seed)
    if args.saturation_oracle:
        data["saturation_oracle"] = verify_blowup_saturation(trace.blowup, args.budget)
    return _finish(args, t0, data, trace.template_ok and data.get("saturation_oracle", True))


def cmd_selftest(args) -> int:
    results = run_acceptance(budget=args.budget)
    for r in results:
        status = "pass" if r.passed else ("known-defect" if r.known_defect else "FAIL")
        print(f"[{status:12s}] {r.criterion}: {r.name}")
        if r.detail and (r.known_defect or not r.passed):
            print(f"               {r.detail}")
    return EXIT_OK if all(r.passed or r.known_defect for r in results) else EXIT_VERIFY


def cmd_examples(args) -> int:
    for name in bundled_case_names():
        print(f"{name}\t{bundled_path(name)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tomlinks",
        description="Birational links from Tom-type codimension-4 Fano 3-folds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_un = sub.add_parser("unproject", help="run the unprojection and report the 9 equations")
    _common(p_un)
    p_un.set_defaults(func=cmd_unproject)

    p_bl = sub.add_parser("blowup", help="blow up the Tom centre and report the scroll equations")
    _common(p_bl)
    p_bl.add_argument("--skip-saturation-oracle", action="store_true",
                      help="skip the Groebner check that the equations saturate the pull-back")
    p_bl.set_defaults(func=cmd_blowup)

    p_tr = sub.add_parser("trace", help="trace the full birational link")
    _common(p_tr)
    p_tr.add_argument("--saturation-oracle", action="store_true",
                      help="run the saturation oracle too")
    p_tr.set_defaults(func=cmd_trace)

    p_st = sub.add_parser("selftest", help="run the acceptance battery")
    p_st.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p_st.set_defaults(func=cmd_selftest)

    p_ex = sub.add_parser("examples", help="list bundled case files")
    p_ex.set_defaults(func=cmd_examples)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except CaseFileError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except AlgebraError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
