"""Trace the three fully worked examples end to end and print their reports.

Usage:  python scripts/trace_examples.py [--json] [--saturation-oracle]

The saturation oracle re-derives the blow-up equations as the t-saturation
of the raw pull-back via a Groebner basis; it adds about a second per case.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tomlinks.birational import trace_link, verify_blowup_saturation
from tomlinks.casefile import load_bundled
from tomlinks.report import emit, trace_dict


def main() -> int:
    as_json = "--json" in sys.argv
    oracle = "--saturation-oracle" in sys.argv
    for name in ("10985", "20652", "24097"):
        case = load_bundled(name).to_fano_case()
        t0 = time.perf_counter()
        trace = trace_link(case, seed=0)
        data = trace_dict(trace, seed=0)
        if oracle:
            data["saturation_oracle"] = verify_blowup_saturation(trace.blowup)
        print(f"==== {name} ({time.perf_counter() - t0:.1f}s)")
        print(emit(data, as_json))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
