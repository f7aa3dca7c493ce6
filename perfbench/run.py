"""Benchmark runner for tomlinks.

    python3 perfbench/run.py --workload link-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  A run sets the workload up, then runs whole passes over its
operations in a closed loop, one operation at a time, until another pass
would end after `--seconds`; it always runs at least one pass.  Each
operation's output is checked.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones:

* setup_s: median over fresh interpreters of importing tomlinks and
  parsing every case the workload uses,
* wall_s: median over passes of the pass's total operation time,
* op_p50_s: median time of one operation,
* pass_ratio: operations that passed their check over those attempted,
* peak_rss_mb: peak resident memory of the run.

With `--trace 1` every layer function is wrapped from outside (see
`tracer.py`) and the metrics are the per-layer ones; the spans are also
written to `.perfbench/spans-<workload>-<seed>.json`.  Tracing overhead is
`trace.wall_s` of a traced run minus `wall_s` of an untraced one.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import END, OP, PARENT, START, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
# Times a fresh interpreter's import plus the workload's set-up; the
# interpreter's own start-up is not part of it.
SETUP_CHILD = """
import os, sys, time
t0 = time.perf_counter()
sys.path[:0] = [os.path.join(sys.argv[1], "src"), os.path.join(sys.argv[1], "perfbench")]
import workloads
workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]))
print(time.perf_counter() - t0)
"""


def setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(ROOT), workload, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


@dataclass
class Outcome:
    """What the passes over a workload's operations measured."""

    pass_times: list[float] = field(default_factory=list)
    op_times: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    defects: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_passes(ops, seconds: float, tracer=None) -> Outcome:
    out = Outcome()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        total = 0.0
        for op in ops:
            if tracer is not None:
                tracer.op = out.attempted
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as e:  # every exception is a failed operation
                error = f"{type(e).__name__}: {e}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            out.attempted += 1
            total += dt
            out.op_times.setdefault(op.label, []).append(dt)
            if error is None:
                try:
                    bad, known = op.check(result)
                except Exception as e:
                    bad, known = [f"check raised {type(e).__name__}: {e}"], []
            else:
                bad, known = [error], []
            if bad:
                out.failures.append(f"{op.label}: " + "; ".join(bad))
            out.defects += [d for d in known if d not in out.defects]
        out.pass_times.append(total)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return out


def end_to_end(out: Outcome, setup_s: float) -> dict:
    all_ops = [t for ts in out.op_times.values() for t in ts]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(out.pass_times), "s"),
        "op_p50_s": (statistics.median(all_ops), "s"),
        "pass_ratio": ((out.attempted - out.failed) / out.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(out: Outcome, spans: list) -> dict:
    from workloads import LINK_CASES

    metrics = layer_metrics(spans)
    op_total = sum(t for ts in out.op_times.values() for t in ts)
    top = sum(s[END] - s[START] for s in spans if s[PARENT] is None and s[OP] is not None)
    metrics["trace.wall_s"] = (statistics.median(out.pass_times), "s")
    metrics["trace.coverage"] = (top / op_total, "ratio")
    for name in LINK_CASES:
        times = out.op_times.get(name)
        metrics[f"op.{name}.s"] = (statistics.median(times) if times else 0, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("link-sweep", "saturation-oracle", "member-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tomlinks" / "__init__.py").is_file():
        print(f"error: no tomlinks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.trace:
        with Tracer() as tracer:
            tracer.recording = True
            ops = build(args.seed)
            tracer.recording = False
            out = run_passes(ops, args.seconds, tracer)
        metrics = per_layer(out, tracer.spans)
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        path = spans_dir / f"spans-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op",
                                               "exception", "note"],
                                    "spans": tracer.spans}))
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        out = run_passes(build(args.seed), args.seconds)
        metrics = end_to_end(out, setup_s)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(out.pass_times)} ops={out.attempted}")
    for line in out.defects:
        print(f"[known-defect] {line}")
    for line in out.failures:
        print(f"[FAIL] {line}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
