"""Stage-by-stage breakdown of the saturation oracle on one bundled case.

    python3 perfbench/breakdown.py 20652

Runs the saturation-oracle operation once on the named case under the
tracer and prints its spans as a tree in call order.  Consecutive calls of
one function under the same parent are merged into one line, with their
count, total time, self time and the sizes of the Groebner bases returned.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import END, EXC, NAME, NOTE, PARENT, START, Tracer, span_tree  # noqa: E402


def main(name: str) -> int:
    op = workloads.oracle_op(name, 0)
    with Tracer() as tracer:
        tracer.recording = True
        t0 = time.perf_counter()
        result = op.run()
        wall = time.perf_counter() - t0
    failures, _ = op.check(result)
    spans = tracer.spans
    self_s, _ = span_tree(spans)
    depth: list[int] = []
    rows: list[list] = []         # [depth, name, calls, total_s, self_s, bases]
    row_of: list[int] = []        # the row each span was merged into
    last_child: dict = {}         # parent row -> row of its latest child
    for i, s in enumerate(spans):
        parent_row = None if s[PARENT] is None else row_of[s[PARENT]]
        depth.append(0 if s[PARENT] is None else depth[s[PARENT]] + 1)
        r = last_child.get(parent_row)
        if r is None or rows[r][1] != s[NAME]:
            rows.append([depth[i], s[NAME], 0, 0.0, 0.0, []])
            r = last_child[parent_row] = len(rows) - 1
        row_of.append(r)
        rows[r][2] += 1
        rows[r][3] += s[END] - s[START]
        rows[r][4] += self_s[i]
        if s[NAME] == "groebner.buchberger":
            rows[r][5].append(s[NOTE] if s[EXC] is None else s[EXC])
    print(f"saturation oracle on {name}: {wall:.2f} s, "
          f"{'correct' if not failures else 'FAILED: ' + '; '.join(failures)}")
    print(f"{'span':46s} {'calls':>5s} {'total_s':>8s} {'self_s':>8s}  bases")
    for d, span, calls, total, own, bases in rows:
        print(f"{'  ' * d + span:46s} {calls:5d} {total:8.3f} {own:8.3f}  {bases or ''}")
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
