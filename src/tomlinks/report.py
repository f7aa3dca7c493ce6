"""Deterministic report emission: a canonical indented tree with sorted keys.

Reports are byte-identical for identical inputs and seed; timings are only
attached on request so golden files stay stable.
"""

from __future__ import annotations

import json

from . import __version__
from .birational import (
    ConicBundle,
    DelPezzoFibration,
    DivisorialContractionToFano,
    Flip,
    Flop,
    Isomorphism,
    KawamataBlowup,
    LinkTrace,
    SimultaneousFlips,
    kawamata_scroll,
    quotient_token,
)
from .unprojection import UnprojectionResult, VerificationReport


def render_tree(data: dict, indent: int = 0) -> str:
    """Sorted-key indented rendering; lists keep their order."""
    lines: list[str] = []
    pad = "  " * indent
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_tree(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(f"{pad}  -")
                    lines.append(render_tree(item, indent + 2))
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{pad}{key} = {value}")
    return "\n".join(line for line in lines if line != "")


def step_dict(step) -> dict:
    if isinstance(step, KawamataBlowup):
        return {"kind": "KawamataBlowup", "centre": quotient_token(step.centre)}
    if isinstance(step, Flop):
        return {"kind": "Flop", "count": step.count, "declared": step.declared}
    if isinstance(step, Isomorphism):
        return {"kind": "Isomorphism", "wall": list(step.wall), "witness": step.witness}
    if isinstance(step, Flip):
        return {
            "kind": "Flip", "wall": list(step.wall), "weights": list(step.weights),
            "hypersurface_degree": step.hypersurface_degree,
            "eliminated": list(step.eliminated), "point": step.point,
        }
    if isinstance(step, SimultaneousFlips):
        return {
            "kind": "SimultaneousFlips", "wall": list(step.wall),
            "quadratic_form": step.quadratic_form,
            "flips": [step_dict(f) for f in step.flips],
        }
    if isinstance(step, DivisorialContractionToFano):
        ep = step.endpoint
        return {
            "kind": "DivisorialContractionToFano",
            "type": f"({step.kind[0]},{step.kind[1]})",
            "wall": list(step.wall),
            "endpoint": {
                "variables": list(ep.names),
                "weights": list(ep.weights),
                "equations": [str(e) for e in ep.equations],
                "degrees": list(ep.degrees),
                "codimension": ep.codim,
                "gorenstein": ep.gorenstein,
                "eliminated": list(ep.eliminated),
                "minimal_certified": ep.minimal_certified,
                "notes": list(ep.notes),
            },
        }
    if isinstance(step, DelPezzoFibration):
        return {"kind": "DelPezzoFibration", "base": list(step.base),
                "degree": step.degree, "note": step.note}
    if isinstance(step, ConicBundle):
        dets = step.patch_determinants
        return {
            "kind": "ConicBundle", "base": list(step.base),
            "discriminant_degree": step.discriminant_degree,
            "patch_determinants": [{"patch": p, "det": str(d)} for p, d in dets],
            "patch_degrees": [d.degree() for _, d in dets], "overlap": step.overlap,
            "note": step.note,
        }
    raise TypeError(f"no report for a step of type {type(step).__name__}")


def unprojection_dict(res: UnprojectionResult, verification: VerificationReport) -> dict:
    return {
        "g_degrees": [g.degree() for g in res.g],
        "equation_count": len(res.X_ideal.generators),
        "s_weight": res.s_weight,
        "g": [str(g) for g in res.g],
        "verification": {
            "degrees_ok": verification.degrees_ok,
            "consistency_ok": verification.consistency_ok,
        },
    }


def trace_dict(trace: LinkTrace, seed: int) -> dict:
    case = trace.case
    scroll = kawamata_scroll(case)
    return {
        "tool_version": __version__,
        "seed": seed,
        "case": {
            "id": case.id,
            "ambient": list(case.abc + case.d + (case.r,)),
            "centre": quotient_token((case.r, case.abc)),
            "tom_index": case.tom_k,
            "basket": str(case.basket),
            "declared_nodes": case.declared_nodes,
        },
        "classification": {
            "tag": trace.tag,
            "weight_configuration": trace.config.tag,
            "pi": trace.config.pi,
        },
        "scroll": {"top": list(scroll.top), "bottom": list(scroll.bottom)},
        "deltas": list(trace.blowup.deltas),
        "blowup_equations": [str(h) for h in trace.blowup.generators],
        "steps": [step_dict(s) for s in trace.steps],
        "baskets": [str(b) for b in trace.baskets],
        "template_ok": trace.template_ok,
        "template_notes": list(trace.template_notes),
    }


def emit(data: dict, as_json: bool = False) -> str:
    if as_json:
        return json.dumps(data, sort_keys=True, separators=(",", ":"))
    return render_tree(data) + "\n"
