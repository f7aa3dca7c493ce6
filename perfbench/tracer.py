"""Outside-in span tracer for the tomlinks layers.

Each public layer function is wrapped by rebinding its name in every
`tomlinks` module that holds it: `from .groebner import buchberger` copies
the binding into `birational` and `unprojection`, so rebinding only the
defining module would miss those calls.  Names imported at call time (as
`verify_blowup_saturation` does with `saturate`) are read from the
defining module and so see the wrapper too.

A span is `[name, start, end, parent, op, exception, note]`: `parent` is
the index of the enclosing span or None, `op` the id of the benchmark
operation that was running, `exception` the name of the exception that
ended the call, and `note` a value taken from the result (the basis size
of a Groebner run, the certification flag of a Fano endpoint).  Spans are
kept in memory while the run lasts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (defining module, attribute, span name, note taken from the result)
LAYER_FUNCTIONS = [
    ("casefile", "load_bundled", "casefile.parse", None),
    ("casefile", "CaseFile.to_fano_case", "casefile.parse", None),
    ("pfaffian", "build_general_tom", "pfaffian.build_general_tom", None),
    ("pfaffian", "maximal_pfaffians", "pfaffian.maximal_pfaffians", None),
    ("unprojection", "build_unprojection", "unprojection.build_unprojection", None),
    ("unprojection", "verify_unprojection", "unprojection.verify_unprojection", None),
    ("algebra", "exact_divide", "algebra.exact_divide", None),
    ("algebra", "substitute", "algebra.substitute", None),
    ("birational", "trace_link", "birational.trace_link", None),
    ("birational", "compute_deltas", "birational.compute_deltas", None),
    ("birational", "blowup_ideal", "birational.blowup_ideal", None),
    ("birational", "count_flops", "birational.count_flops", None),
    ("birational", "analyze_wall", "birational.analyze_wall", None),
    ("birational", "global_eliminate", "birational.global_eliminate", None),
    ("birational", "endpoint_fano", "birational.endpoint_fano",
     lambda ep: ep.minimal_certified),
    ("birational", "dp_degree", "birational.dp_degree", None),
    ("birational", "conic_discriminant_or_note", "birational.conic_discriminant_or_note", None),
    ("birational", "verify_blowup_saturation", "birational.verify_blowup_saturation", None),
    ("groebner", "buchberger", "groebner.buchberger", lambda gb: len(gb.elements)),
    ("groebner", "normal_form", "groebner.normal_form", None),
    ("groebner", "saturate", "groebner.saturate", None),
    ("groebner", "zero_dim_degree", "groebner.zero_dim_degree", None),
    ("report", "trace_dict", "report.render", None),
    ("report", "emit", "report.render", None),
]

NAME, START, END, PARENT, OP, EXC, NOTE = range(7)


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    Spans are recorded only while `recording` is true, so the benchmark's
    own output checks, which call the same functions, stay out of them.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tomlinks" or n.startswith("tomlinks.")]
        for module_name, attr, span_name, note in LAYER_FUNCTIONS:
            owner = importlib.import_module(f"tomlinks.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                holders = [getattr(owner, cls_name)]
                attr = method
                original = holders[0].__dict__[attr]
            else:
                original = getattr(owner, attr)
                holders = [m for m in modules if m.__dict__.get(attr) is original]
            wrapped = self._wrap(span_name, original, note)
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapped)
        return self

    def __exit__(self, *exc_info):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
        self.recording = False

    def _wrap(self, span_name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None, tracer.op, None, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[EXC] = type(e).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(result)
            return result

        return traced


def span_tree(spans: list[list]) -> tuple[list[float], list[bool]]:
    """Self time of every span, and whether it is the outermost span of its name.

    Self time is the span's duration minus the time its child spans cover;
    the run is single-threaded, so children never overlap.  Totals count
    only outermost spans, so a function that reaches itself through a
    wrapped name is not counted twice.
    """
    self_s = [s[END] - s[START] for s in spans]
    outermost = [True] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is not None:
            self_s[p] -= s[END] - s[START]
        while p is not None:
            if spans[p][NAME] == s[NAME]:
                outermost[i] = False
                break
            p = spans[p][PARENT]
    return self_s, outermost


def ancestor_named(spans: list[list], i: int, names) -> str | None:
    """Name of the nearest enclosing span whose name is in `names`."""
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return spans[p][NAME]
        p = spans[p][PARENT]
    return None


BUCHBERGER = "groebner.buchberger"
# the callers whose Groebner runs each workload is meant to stress
BUCHBERGER_CALLERS = (
    "birational.endpoint_fano",
    "birational.verify_blowup_saturation",
    "unprojection.verify_unprojection",
    "birational.count_flops",
)
SELF_TIMED = (
    "birational.blowup_ideal", "birational.count_flops", "birational.analyze_wall",
    "birational.global_eliminate", "birational.endpoint_fano", "birational.dp_degree",
    "birational.conic_discriminant_or_note", "birational.verify_blowup_saturation",
)
# (span name, stat): calls, s (time in outermost spans) or self_s
SPAN_STATS = [
    ("casefile.parse", "s"),
    ("pfaffian.build_general_tom", "s"),
    ("pfaffian.maximal_pfaffians", "s"),
    ("unprojection.build_unprojection", "calls"),
    ("unprojection.build_unprojection", "self_s"),
    ("unprojection.verify_unprojection", "self_s"),
    ("algebra.exact_divide", "calls"),
    ("algebra.exact_divide", "s"),
    ("algebra.substitute", "calls"),
    ("algebra.substitute", "s"),
    *[(name, "self_s") for name in SELF_TIMED],
    ("birational.endpoint_fano", "calls"),
    ("groebner.normal_form", "calls"),
    ("groebner.normal_form", "s"),
    ("groebner.saturate", "s"),
    ("groebner.zero_dim_degree", "s"),
    ("report.render", "s"),
]
UNITS = {"calls": "count", "s": "s", "self_s": "s", "wasted_s": "s",
         "basis_max": "count", "exceeded": "count"}


def _under(caller: str) -> str:
    return f"{BUCHBERGER}.under.{caller.split('.')[1]}"


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics `<module>.<function>.<stat>` from the spans of a run."""
    self_s, outermost = span_tree(spans)
    stats: dict[tuple[str, str], float] = {}

    def add(name, stat, value):
        stats[name, stat] = stats.get((name, stat), 0) + value

    certified = endpoints = 0
    for i, s in enumerate(spans):
        name, duration = s[NAME], s[END] - s[START]
        add(name, "calls", 1)
        add(name, "self_s", self_s[i])
        if outermost[i]:
            add(name, "s", duration)
        if name == "birational.endpoint_fano" and s[NOTE] is not None:
            endpoints += 1
            certified += bool(s[NOTE])
        if name == BUCHBERGER:
            scopes = [BUCHBERGER]
            caller = ancestor_named(spans, i, BUCHBERGER_CALLERS)
            if caller is not None:
                scopes.append(_under(caller))
                add(scopes[1], "calls", 1)
                add(scopes[1], "s", duration)
            for scope in scopes:
                if s[EXC] == "BudgetExceeded":
                    add(scope, "exceeded", 1)
                    add(scope, "wasted_s", duration)
                if s[NOTE] is not None:
                    stats[scope, "basis_max"] = max(stats.get((scope, "basis_max"), 0), s[NOTE])

    out = {f"{name}.{stat}": (stats.get((name, stat), 0), UNITS[stat])
           for name, stat in SPAN_STATS}
    out["birational.endpoint.certified_ratio"] = (
        certified / endpoints if endpoints else 0, "ratio")
    for scope in [BUCHBERGER] + [_under(c) for c in BUCHBERGER_CALLERS]:
        for stat in ("calls", "s", "basis_max", "exceeded", "wasted_s"):
            out[f"{scope}.{stat}"] = (stats.get((scope, stat), 0), UNITS[stat])
    return out
